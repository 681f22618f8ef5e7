"""Proxy forecasters trained per trial under a fixed token budget.

Search, size sweep and the synthetic benchmark fix the trainer and the scored
split once per study in a :class:`TrialContext`.  ``score`` trains the proxy on
window indices, with a given seed, and scores its last-step predictions on the
val or test windows; :func:`search.mixture_objective` chooses the indices and
the seed of each trial.  Trainer kinds (:data:`TRAINERS`):

* ridge: closed-form regression from per-window feature vectors; fully
  deterministic, the fast path for weight search.
* patch-net: a small patch-embedding network trained with Adam under the
  token budget (a token is one patch passed through the model); gradients
  are hand-derived and checked against finite differences in the tests.
* external: a subprocess protocol so a full-scale model can stand in; it
  reports its own metrics.
"""

from __future__ import annotations

import json
import math
import subprocess
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from . import MixsearchError, search
from .dataset import SPLIT_TEST, SPLIT_VAL, WindowSet

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Windows gathered per patch-net prediction block, so scoring a split holds
# one block of windows at a time.
PREDICT_BLOCK = 256
# Windows gathered in float64 per chunk of a float32 training batch, so no
# float64 batch is ever built.
TRAIN_GATHER_CHUNK = 32


class TrainerError(MixsearchError, ValueError):
    pass


class TrainingDivergedError(MixsearchError, RuntimeError):
    """Loss became non-finite; the trial is failed with this diagnostic."""


class ExternalTrainerError(MixsearchError, RuntimeError):
    """The external trainer command failed or returned malformed metrics."""


@dataclass
class TrainConfig:
    trainer: str = "ridge"
    token_budget: int = 2_000_000
    batch_size: int = 1024
    peak_lr: float = 1e-4
    warmup_fraction: float = 0.3
    patch_len: int = 30
    embed_dim: int = 32
    ridge_lambda: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trainer not in TRAINERS:
            raise TrainerError(f"unknown trainer {self.trainer!r}")
        if self.token_budget < 1:
            raise TrainerError("token budget must be >= 1")
        if not 0.0 < self.warmup_fraction < 1.0:
            raise TrainerError("warmup fraction must lie strictly between 0 and 1")
        if self.batch_size < 1 or self.patch_len < 1:
            raise TrainerError("batch size and patch length must be >= 1")
        if self.embed_dim < 1:
            raise TrainerError("embed dim must be >= 1")
        if not (self.peak_lr > 0.0 and math.isfinite(self.peak_lr)):
            raise TrainerError("peak learning rate must be finite and > 0")
        if not (self.ridge_lambda > 0.0 and math.isfinite(self.ridge_lambda)):
            raise TrainerError("ridge penalty must be finite and > 0")

    def to_dict(self) -> dict:
        return asdict(self)


def compute_epochs(budget: int, n_windows: int, patches_per_window: int) -> int:
    """Epochs needed so every trial sees the same token budget: smaller
    mixtures iterate more often.  Always at least 1."""
    if budget < 1 or n_windows < 1 or patches_per_window < 1:
        raise TrainerError("budget, window count and patches per window must be >= 1")
    tokens_per_epoch = n_windows * patches_per_window
    return max(1, -(-budget // tokens_per_epoch))


def lr_at_step(step: int, total_steps: int, peak: float, warmup_fraction: float) -> float:
    """Linear warmup to ``peak`` over the first ceil(warmup_fraction * total)
    steps, then linear decay to zero."""
    if not 0 <= step < total_steps:
        raise TrainerError(f"step {step} outside [0, {total_steps})")
    boundary = math.ceil(warmup_fraction * total_steps)
    if step < boundary:
        return peak * (step + 1) / boundary
    return peak * (total_steps - step) / (total_steps - boundary)


# ---------------------------------------------------------------------------
# Ridge

@dataclass
class RidgeModel:
    coef: np.ndarray       # (d, C_tgt)
    intercept: np.ndarray  # (C_tgt,)

    def predict(self, context: TrialContext, idx: np.ndarray) -> np.ndarray:
        return context.features[idx] @ self.coef + self.intercept


def train_ridge(idx: np.ndarray, windows: WindowSet,
                features: np.ndarray, lam: float) -> RidgeModel:
    """Closed-form ridge from feature vectors to last-timestep targets.

    Solves (X'X + lam*D) B = X'Y where X carries an intercept column and D
    is the identity with a zero in the intercept position, so the intercept
    is never shrunk (in the large-lambda limit the prediction collapses to
    the mean target).
    """
    if not (lam > 0.0 and math.isfinite(lam)):
        raise TrainerError("ridge penalty must be finite and > 0")
    if idx.size == 0:
        raise TrainerError("mixture is empty")
    x = features[idx].astype(np.float64)
    y = windows.targets[idx]
    x1 = np.hstack([x, np.ones((x.shape[0], 1))])
    d = x1.shape[1]
    penalty = lam * np.eye(d)
    penalty[-1, -1] = 0.0
    gram = x1.T @ x1 + penalty
    try:
        beta = np.linalg.solve(gram, x1.T @ y)
    except np.linalg.LinAlgError:
        raise TrainerError(
            f"normal equations singular despite lambda={lam}; increase the penalty"
        ) from None
    if not np.all(np.isfinite(beta)):
        raise TrainerError("ridge solution is non-finite; increase the penalty")
    return RidgeModel(coef=beta[:-1], intercept=beta[-1])


# ---------------------------------------------------------------------------
# Patch network

def sinusoidal_position_encoding(n_positions: int, dim: int) -> np.ndarray:
    """Standard sin/cos positional code: even dims sine, odd dims cosine,
    geometrically spaced wavelengths."""
    pos = np.arange(n_positions, dtype=np.float64)[:, None]
    i = np.arange(dim, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, (2.0 * np.floor(i / 2.0)) / dim)
    return np.where(i % 2 == 0, np.sin(angle), np.cos(angle))


@dataclass
class PatchNetModel:
    params: dict[str, np.ndarray]
    pos_encoding: np.ndarray
    patch_len: int
    tokens_consumed: int = 0
    epoch_losses: list[float] = field(default_factory=list)

    def predict(self, context: TrialContext, idx: np.ndarray) -> np.ndarray:
        """Predictions for windows ``idx``, gathered :data:`PREDICT_BLOCK` at a
        time; each window's prediction depends on that window alone."""
        # Each block's gather is passed on unbound, so it is freed before the next.
        return np.concatenate([
            patch_net_forward(self.params, to_patches(
                context.windows.inputs[idx[i:i + PREDICT_BLOCK]], self.patch_len),
                self.pos_encoding)[0]
            for i in range(0, idx.size, PREDICT_BLOCK)])


def to_patches(inputs: np.ndarray, patch_len: int) -> np.ndarray:
    """Reshape (n, W, C) windows into (n, P, patch_len * C) flattened patches,
    float32 if the windows are float32 and float64 otherwise."""
    inputs = np.asarray(inputs)
    if inputs.dtype != np.float32:
        inputs = inputs.astype(np.float64, copy=False)
    n, w, c = inputs.shape
    if w % patch_len != 0:
        raise TrainerError(f"patch length {patch_len} does not divide window length {w}")
    p = w // patch_len
    return inputs.reshape(n, p, patch_len, c).reshape(n, p, patch_len * c)


def init_patch_net(in_dim: int, embed_dim: int, n_targets: int,
                   rng: np.random.Generator) -> dict[str, np.ndarray]:
    return {
        "w_embed": rng.normal(0.0, 1.0 / math.sqrt(in_dim), size=(in_dim, embed_dim)),
        "b_embed": np.zeros(embed_dim),
        "w_head": rng.normal(0.0, 1.0 / math.sqrt(embed_dim), size=(embed_dim, n_targets)),
        "b_head": np.zeros(n_targets),
    }


def patch_net_forward(params: dict[str, np.ndarray], x: np.ndarray,
                      pos_encoding: np.ndarray):
    """Shared affine patch embedding plus positional code, tanh, mean-pool
    over patches, affine head.  Returns (predictions, cache for backprop)."""
    pre = x @ params["w_embed"] + params["b_embed"] + pos_encoding  # (n, P, d)
    z = np.tanh(pre)
    pooled = z.mean(axis=1)
    pred = pooled @ params["w_head"] + params["b_head"]
    return pred, (x, z, pooled)


def patch_net_loss_and_grads(params: dict[str, np.ndarray], x: np.ndarray,
                             y: np.ndarray, pos_encoding: np.ndarray):
    """MSE loss over (batch, targets) and its gradient for every parameter.

    Overflow here surfaces as a non-finite loss that the training loop turns
    into a diverged-trial failure, so the intermediate warnings are silenced.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        pred, (x_in, z, pooled) = patch_net_forward(params, x, pos_encoding)
        resid = pred - y
        n, n_targets = resid.shape
        loss = float(np.mean(resid * resid))

        g_pred = 2.0 * resid / (n * n_targets)
        grads = {
            "w_head": pooled.T @ g_pred,
            "b_head": g_pred.sum(axis=0),
        }
        d_pooled = g_pred @ params["w_head"].T          # (n, d)
        d_z = d_pooled[:, None, :] / z.shape[1]          # mean-pool backprop
        d_pre = d_z * (1.0 - z * z)
        # Summed over batch and patches as one (i, n·P) @ (n·P, d) product.
        grads["w_embed"] = (x_in.reshape(-1, x_in.shape[-1]).T
                            @ d_pre.reshape(-1, d_pre.shape[-1]))
        grads["b_embed"] = d_pre.sum(axis=(0, 1))
    return loss, grads


def _gather_float32(windows: WindowSet, take: np.ndarray) -> np.ndarray:
    """The windows ``take`` as one float32 (len(take), W, C_in) array, gathered
    :data:`TRAIN_GATHER_CHUNK` windows at a time."""
    out = np.empty((take.size, windows.window_length, windows.input_rows.shape[1]),
                   dtype=np.float32)
    for i in range(0, take.size, TRAIN_GATHER_CHUNK):
        out[i:i + TRAIN_GATHER_CHUNK] = windows.inputs[take[i:i + TRAIN_GATHER_CHUNK]]
    return out


def train_patch_net(idx: np.ndarray, windows: WindowSet,
                    config: TrainConfig) -> PatchNetModel:
    """Adam-train the patch network on the mixture under the token budget.

    The step count is planned up front: training stops at the first step
    where the cumulative token count (rows in the batch times patches per
    window) reaches the budget, so consumption overshoots by less than one
    batch.  The learning-rate schedule spans exactly that planned step count.

    Training runs in float32: the parameters (cast from
    :func:`init_patch_net`'s float64 draws), the position code, the Adam
    moments, the targets and each batch.  Each step gathers its own batch
    straight into float32 and frees it before the next step gathers, so one
    half-width batch is held at a time: on a 240,000-row table the traced
    peak is 0.65 times one float64 batch.  The returned model predicts from
    float64 windows, so its predictions are float64.
    """
    if idx.size == 0:
        raise TrainerError("mixture is empty")
    _, ppw, in_dim = to_patches(windows.inputs[idx[:1]], config.patch_len).shape
    n = idx.size

    epochs = compute_epochs(config.token_budget, n, ppw)
    batch = min(config.batch_size, n)
    steps_per_epoch = -(-n // batch)
    # Every epoch before the last is full; the last one stops at the first
    # step whose cumulative token count reaches what is left of the budget.
    last_epoch_tokens = np.minimum(np.arange(1, steps_per_epoch + 1) * batch, n) * ppw
    left = config.token_budget - (epochs - 1) * n * ppw
    planned_steps = ((epochs - 1) * steps_per_epoch
                     + int(np.searchsorted(last_epoch_tokens, left)) + 1)

    rng = np.random.default_rng(config.seed)
    pe = sinusoidal_position_encoding(ppw, config.embed_dim).astype(np.float32)
    params = {key: value.astype(np.float32) for key, value in init_patch_net(
        in_dim, config.embed_dim, windows.targets.shape[1], rng).items()}
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(v) for k, v in params.items()}

    tokens = 0
    losses: list[float] = []
    for step in range(planned_steps):
        epoch, b = divmod(step, steps_per_epoch)
        if b == 0:
            perm = rng.permutation(n)
        take = idx[perm[b * batch:(b + 1) * batch]]
        lr = lr_at_step(step, planned_steps, config.peak_lr, config.warmup_fraction)
        # The gather is passed on unbound, so it is freed before the next step's.
        loss, grads = patch_net_loss_and_grads(
            params, to_patches(_gather_float32(windows, take), config.patch_len),
            windows.targets[take].astype(np.float32), pe)
        if not math.isfinite(loss):
            raise TrainingDivergedError(
                f"non-finite loss at step {step} (epoch {epoch + 1})")
        losses.append(loss)
        t = step + 1
        # A huge learning rate overflows float32 here, and the finiteness
        # check fails the trial, so the overflow warnings are silenced.
        with np.errstate(over="ignore", invalid="ignore"):
            for key in params:
                m[key] = ADAM_BETA1 * m[key] + (1.0 - ADAM_BETA1) * grads[key]
                v[key] = ADAM_BETA2 * v[key] + (1.0 - ADAM_BETA2) * grads[key] ** 2
                m_hat = m[key] / (1.0 - ADAM_BETA1 ** t)
                v_hat = v[key] / (1.0 - ADAM_BETA2 ** t)
                params[key] = params[key] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                if not np.all(np.isfinite(params[key])):
                    raise TrainingDivergedError(
                        f"parameter {key!r} became non-finite at step {step} "
                        f"(epoch {epoch + 1})")
        tokens += take.size * ppw
    epoch_losses = [float(np.mean(losses[i:i + steps_per_epoch]))
                    for i in range(0, planned_steps, steps_per_epoch)]

    return PatchNetModel(
        params=params, pos_encoding=pe, patch_len=config.patch_len,
        tokens_consumed=tokens, epoch_losses=epoch_losses)


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(model, context: TrialContext, n_mix: int = 0) -> search.TrialEvaluation:
    """Per-target MSE/MAE of last-timestep predictions on the context's scored
    windows (never the training windows), recorded with the trained count ``n_mix``."""
    err = model.predict(context, context.scored_idx) - context.scored_targets
    mse = np.mean(err * err, axis=0)
    mae = np.mean(np.abs(err), axis=0)
    names = context.windows.target_names
    return search.TrialEvaluation(
        objective=float(np.mean(mse)), n_mix=n_mix,
        per_target_mse=dict(zip(names, mse.tolist())),
        per_target_mae=dict(zip(names, mae.tolist())))


# ---------------------------------------------------------------------------
# External trainer protocol

@dataclass
class ExternalProtocol:
    """How to hand a trial to an external training command.

    ``command`` is a list of argv tokens; every occurrence of ``{dir}`` is
    replaced with the per-trial handoff directory, which receives
    ``mixture.csv`` and ``config.json`` and must come back with
    ``metrics.json``.
    """

    command: list[str]
    timeout_s: float = 600.0

    def __post_init__(self) -> None:
        if not self.command:
            raise TrainerError("external trainer command must be configured")
        if not (self.timeout_s > 0 and math.isfinite(self.timeout_s)):
            raise TrainerError("timeout must be finite and positive")


def external_trainer_invoke(idx: np.ndarray, windows: WindowSet,
                            protocol: ExternalProtocol, config: TrainConfig,
                            handoff_dir: str | Path) -> search.TrialEvaluation:
    """Write the handoff files, run the command, read back metrics.json.

    Nonzero exit, timeout and malformed metrics each raise
    :class:`ExternalTrainerError`, which the study maps to a failed trial.
    """
    handoff = Path(handoff_dir)
    handoff.mkdir(parents=True, exist_ok=True)
    with (handoff / "mixture.csv").open("w") as fh:
        fh.write("window_index\n")
        for i in idx:
            fh.write(f"{int(i)}\n")
    handoff_config = {
        "schema_version": 2,
        "train": config.to_dict(),
        "n_windows": int(idx.size),
        "window_length": windows.window_length,
        "input_names": windows.input_names,
        "target_names": windows.target_names,
    }
    (handoff / "config.json").write_text(
        json.dumps(handoff_config, sort_keys=True, indent=2))

    argv = [token.replace("{dir}", str(handoff)) for token in protocol.command]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True,
                              timeout=protocol.timeout_s)
    except subprocess.TimeoutExpired:
        raise ExternalTrainerError(
            f"external trainer timed out after {protocol.timeout_s}s") from None
    if proc.returncode != 0:
        tail = (proc.stderr or "").strip()[-500:]
        raise ExternalTrainerError(
            f"external trainer exited {proc.returncode}: {tail}")

    metrics_path = handoff / "metrics.json"
    if not metrics_path.exists():
        raise ExternalTrainerError("external trainer produced no metrics.json")
    try:
        payload = json.loads(metrics_path.read_text())
    except json.JSONDecodeError as exc:
        raise ExternalTrainerError(f"metrics.json is not valid JSON: {exc}") from None
    return _parse_external_metrics(payload, windows.target_names, idx.size)


def _parse_external_metrics(payload: dict, target_names: list[str],
                            n_mix: int) -> search.TrialEvaluation:
    for key in ("mse", "mae", "avg_mse"):
        if key not in payload:
            raise ExternalTrainerError(f"metrics.json missing key {key!r}")
    per_mse, per_mae = {}, {}
    for group, sink in (("mse", per_mse), ("mae", per_mae)):
        table = payload[group]
        if not isinstance(table, dict):
            raise ExternalTrainerError(f"metrics.json {group!r} must map target -> value")
        for name in target_names:
            if name not in table:
                raise ExternalTrainerError(
                    f"metrics.json {group!r} missing per-target entry {name!r}")
            value = table[name]
            # type(), not isinstance(): JSON true/false load as bool, an int subclass.
            if type(value) not in (int, float) or not math.isfinite(value):
                raise ExternalTrainerError(
                    f"metrics.json {group}[{name!r}] is not a finite number")
            sink[name] = float(value)
    avg = payload["avg_mse"]
    if type(avg) not in (int, float) or not math.isfinite(avg):
        raise ExternalTrainerError("metrics.json avg_mse is not a finite number")
    return search.TrialEvaluation(objective=float(avg), n_mix=n_mix,
                                  per_target_mse=per_mse, per_target_mae=per_mae)


# ---------------------------------------------------------------------------
# Trial path

@dataclass(frozen=True)
class Trainer:
    """One trainer kind; ``fit(context, idx, seed)`` returns a model with ``predict``.  The fits
    look up ``train_ridge``/``train_patch_net`` when called, so a module-level wrapper runs."""

    fit: Callable[[TrialContext, np.ndarray, int], object] | None  # None: scores itself
    needs_features: bool = False  # reads the per-window embeddings
    patched: bool = False         # its patch length must divide the window length


TRAINERS: dict[str, Trainer] = {
    "ridge": Trainer(lambda ctx, idx, seed: train_ridge(
        idx, ctx.windows, ctx.features, ctx.config.ridge_lambda), needs_features=True),
    "patch-net": Trainer(lambda ctx, idx, seed: train_patch_net(
        idx, ctx.windows, replace(ctx.config, seed=seed)), patched=True),
    "external": Trainer(None),
}


@dataclass
class TrialContext:
    """What a study fixes for all its trials: the trainer settings, the windows and
    their ridge features, the scored split's indices and targets (taken once here,
    for a trainer scored locally), and an external trainer's protocol and handoff root."""

    config: TrainConfig
    windows: WindowSet
    features: np.ndarray | None = None  # (n, d)
    split: str = SPLIT_VAL
    protocol: ExternalProtocol | None = None
    handoff_root: Path | None = None
    scored_idx: np.ndarray | None = field(init=False, repr=False, default=None)
    scored_targets: np.ndarray | None = field(init=False, repr=False, default=None)

    def __post_init__(self) -> None:
        if self.split not in (SPLIT_VAL, SPLIT_TEST):
            raise TrainerError(f"trials are scored on val or test, got {self.split!r}")
        trainer = TRAINERS[self.config.trainer]
        if trainer.fit is None:
            if None in (self.protocol, self.handoff_root):
                raise TrainerError("the external trainer needs a protocol and a handoff root")
            return
        if trainer.needs_features and self.features is None:
            raise TrainerError(f"the {self.config.trainer} trainer needs per-window features")
        self.scored_idx = self.windows.split_indices(self.split)
        if self.scored_idx.size == 0:
            raise TrainerError(f"split {self.split!r} is empty")
        self.scored_targets = self.windows.targets[self.scored_idx]

    def score(self, idx: np.ndarray, seed: int, tag: int = 0) -> search.TrialEvaluation:
        """Train the proxy on the windows ``idx`` (patch-net seeded by ``seed``) and score it.
        An external trainer reports its own metrics from handoff directory ``trial_<tag:05d>``."""
        fit = TRAINERS[self.config.trainer].fit
        if fit is None:
            return external_trainer_invoke(idx, self.windows, self.protocol, self.config,
                                           self.handoff_root / f"trial_{tag:05d}")
        return evaluate(fit(self, idx, seed), self, idx.size)
