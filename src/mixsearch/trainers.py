"""Proxy forecasters trained per trial under a fixed token budget.

Every trial takes one path: :func:`fit_and_evaluate` trains the configured
proxy on an array of window indices and scores its last-timestep
predictions on the val or test split, and :func:`make_objective` turns
per-cluster weights into that index array for the weight search.  Search,
size sweep and the synthetic benchmark all call these two.  Trainer kinds:

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

import numpy as np

from . import search
from .dataset import SPLIT_TEST, SPLIT_VAL, WindowSet

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

TRAINER_RIDGE = "ridge"
TRAINER_PATCH_NET = "patch-net"
TRAINER_EXTERNAL = "external"


class TrainerError(ValueError):
    pass


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite; the trial is failed with this diagnostic."""


class ExternalTrainerError(RuntimeError):
    """The external trainer command failed or returned malformed metrics."""


@dataclass
class TrainConfig:
    trainer: str = TRAINER_RIDGE
    token_budget: int = 2_000_000
    batch_size: int = 1024
    peak_lr: float = 1e-4
    warmup_fraction: float = 0.3
    patch_len: int = 30
    embed_dim: int = 32
    hidden_width: int = 32  # forwarded to external trainers; unused by patch-net
    ridge_lambda: float = 1e-3
    seed: int = 0

    def __post_init__(self) -> None:
        if self.trainer not in (TRAINER_RIDGE, TRAINER_PATCH_NET, TRAINER_EXTERNAL):
            raise TrainerError(f"unknown trainer {self.trainer!r}")
        if self.token_budget < 1:
            raise TrainerError("token budget must be >= 1")
        if not 0.0 < self.warmup_fraction < 1.0:
            raise TrainerError("warmup fraction must lie strictly between 0 and 1")
        if self.batch_size < 1 or self.patch_len < 1:
            raise TrainerError("batch size and patch length must be >= 1")
        if self.embed_dim < 1 or self.hidden_width < 1:
            raise TrainerError("embed dim and hidden width must be >= 1")
        if self.ridge_lambda <= 0.0:
            raise TrainerError("ridge penalty must be > 0")

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class TrialMetrics:
    per_target_mse: dict[str, float]
    per_target_mae: dict[str, float]
    avg_mse: float
    tokens_consumed: int
    epochs_run: int


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
    target_names: list[str]
    tokens_consumed: int = 0
    epochs_run: int = 1

    def predict(self, features: np.ndarray) -> np.ndarray:
        return np.asarray(features, dtype=np.float64) @ self.coef + self.intercept


def train_ridge(idx: np.ndarray, windows: WindowSet,
                features: np.ndarray, lam: float) -> RidgeModel:
    """Closed-form ridge from feature vectors to last-timestep targets.

    Solves (X'X + lam*D) B = X'Y where X carries an intercept column and D
    is the identity with a zero in the intercept position, so the intercept
    is never shrunk (in the large-lambda limit the prediction collapses to
    the mean target).
    """
    if lam <= 0.0:
        raise TrainerError("ridge penalty must be > 0")
    if idx.size == 0:
        raise TrainerError("mixture is empty")
    x = np.asarray(features, dtype=np.float64)[idx]
    y = windows.targets[idx][:, -1, :]
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
    return RidgeModel(coef=beta[:-1], intercept=beta[-1],
                      target_names=list(windows.target_names),
                      tokens_consumed=int(idx.size), epochs_run=1)


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
    window_length: int
    target_names: list[str]
    tokens_consumed: int = 0
    epochs_run: int = 0
    epoch_losses: list[float] = field(default_factory=list)

    def predict(self, inputs: np.ndarray) -> np.ndarray:
        x = to_patches(inputs, self.patch_len)
        pred, _ = patch_net_forward(self.params, x, self.pos_encoding)
        return pred


def to_patches(inputs: np.ndarray, patch_len: int) -> np.ndarray:
    """Reshape (n, W, C) windows into (n, P, patch_len * C) flattened patches."""
    inputs = np.asarray(inputs, dtype=np.float64)
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
        grads["w_embed"] = np.einsum("npi,npd->id", x_in, d_pre)
        grads["b_embed"] = d_pre.sum(axis=(0, 1))
    return loss, grads


def train_patch_net(idx: np.ndarray, windows: WindowSet,
                    config: TrainConfig) -> PatchNetModel:
    """Adam-train the patch network on the mixture under the token budget.

    The step count is planned up front: training stops at the first step
    where the cumulative token count (rows in the batch times patches per
    window) reaches the budget, so consumption overshoots by less than one
    batch.  The learning-rate schedule spans exactly that planned step count.
    """
    if idx.size == 0:
        raise TrainerError("mixture is empty")
    w = windows.window_length
    if w % config.patch_len != 0:
        raise TrainerError(
            f"patch length {config.patch_len} does not divide window length {w}")
    ppw = w // config.patch_len
    x_all = to_patches(windows.inputs[idx], config.patch_len)
    y_all = windows.targets[idx][:, -1, :]
    n = x_all.shape[0]
    n_targets = y_all.shape[1]

    epochs = compute_epochs(config.token_budget, n, ppw)
    batch = min(config.batch_size, n)
    bounds = list(range(0, n, batch)) + [n]
    step_rows = [bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)]
    steps_per_epoch = len(step_rows)

    # Number of steps until the cumulative token count first reaches the budget.
    planned_steps = 0
    consumed_plan = 0
    for _ in range(epochs):
        for rows in step_rows:
            planned_steps += 1
            consumed_plan += rows * ppw
            if consumed_plan >= config.token_budget:
                break
        if consumed_plan >= config.token_budget:
            break

    rng = np.random.default_rng(config.seed)
    pe = sinusoidal_position_encoding(ppw, config.embed_dim)
    params = init_patch_net(x_all.shape[2], config.embed_dim, n_targets, rng)
    m = {k: np.zeros_like(v) for k, v in params.items()}
    v = {k: np.zeros_like(v) for k, v in params.items()}

    step = 0
    tokens = 0
    epochs_run = 0
    epoch_losses: list[float] = []
    done = False
    for _ in range(epochs):
        if done:
            break
        epochs_run += 1
        perm = rng.permutation(n)
        losses = []
        for b in range(steps_per_epoch):
            take = perm[bounds[b]:bounds[b + 1]]
            lr = lr_at_step(step, planned_steps, config.peak_lr, config.warmup_fraction)
            loss, grads = patch_net_loss_and_grads(params, x_all[take], y_all[take], pe)
            if not math.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at step {step} (epoch {epochs_run})")
            losses.append(loss)
            t = step + 1
            for key in params:
                m[key] = ADAM_BETA1 * m[key] + (1.0 - ADAM_BETA1) * grads[key]
                v[key] = ADAM_BETA2 * v[key] + (1.0 - ADAM_BETA2) * grads[key] ** 2
                m_hat = m[key] / (1.0 - ADAM_BETA1 ** t)
                v_hat = v[key] / (1.0 - ADAM_BETA2 ** t)
                params[key] = params[key] - lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
                if not np.all(np.isfinite(params[key])):
                    raise TrainingDivergedError(
                        f"parameter {key!r} became non-finite at step {step} "
                        f"(epoch {epochs_run})")
            tokens += take.size * ppw
            step += 1
            if step >= planned_steps:
                done = True
                break
        if losses:
            epoch_losses.append(float(np.mean(losses)))

    return PatchNetModel(
        params=params, pos_encoding=pe, patch_len=config.patch_len,
        window_length=w, target_names=list(windows.target_names),
        tokens_consumed=tokens, epochs_run=epochs_run, epoch_losses=epoch_losses)


# ---------------------------------------------------------------------------
# Evaluation

def evaluate(model, windows: WindowSet, split: str,
             inputs: np.ndarray) -> TrialMetrics:
    """Per-target MSE/MAE of last-timestep predictions on the val or test
    split.  ``inputs`` holds the model's input for every window (features
    for ridge, ``windows.inputs`` for patch-net); only the split's rows are
    read, never the training windows."""
    if split not in (SPLIT_VAL, SPLIT_TEST):
        raise TrainerError(f"evaluate only runs on val or test, got {split!r}")
    mask = windows.split_mask(split)
    if not mask.any():
        raise TrainerError(f"split {split!r} is empty")
    y = windows.targets[mask][:, -1, :]
    pred = model.predict(inputs[mask])

    err = pred - y
    mse = np.mean(err * err, axis=0)
    mae = np.mean(np.abs(err), axis=0)
    names = windows.target_names
    per_mse = {name: float(m) for name, m in zip(names, mse)}
    per_mae = {name: float(m) for name, m in zip(names, mae)}
    return TrialMetrics(
        per_target_mse=per_mse,
        per_target_mae=per_mae,
        avg_mse=float(np.mean(list(per_mse.values()))),
        tokens_consumed=int(getattr(model, "tokens_consumed", 0)),
        epochs_run=int(getattr(model, "epochs_run", 0)),
    )


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
        if self.timeout_s <= 0:
            raise TrainerError("timeout must be positive")


def external_trainer_invoke(idx: np.ndarray, windows: WindowSet,
                            protocol: ExternalProtocol, config: TrainConfig,
                            handoff_dir: str | Path) -> TrialMetrics:
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
        "schema_version": 1,
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
    return _parse_external_metrics(payload, windows.target_names)


def _parse_external_metrics(payload: dict, target_names: list[str]) -> TrialMetrics:
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
            if not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ExternalTrainerError(
                    f"metrics.json {group}[{name!r}] is not a finite number")
            sink[name] = float(value)
    avg = payload["avg_mse"]
    if not isinstance(avg, (int, float)) or not math.isfinite(avg):
        raise ExternalTrainerError("metrics.json avg_mse is not a finite number")
    return TrialMetrics(
        per_target_mse=per_mse, per_target_mae=per_mae, avg_mse=float(avg),
        tokens_consumed=int(payload.get("tokens_consumed", 0)),
        epochs_run=int(payload.get("epochs_run", 0)),
    )


# ---------------------------------------------------------------------------
# Trial path

def fit_and_evaluate(config: TrainConfig, windows: WindowSet,
                     features: np.ndarray, idx: np.ndarray, split: str,
                     seed: int, protocol: ExternalProtocol | None = None,
                     handoff_dir: str | Path | None = None) -> TrialMetrics:
    """Train ``config.trainer`` on the windows ``idx`` and score it on ``split``.

    ``seed`` seeds patch-net training; ridge is deterministic.  The external
    trainer receives ``config`` unchanged in ``handoff_dir`` and reports its
    own metrics, so ``split`` and ``seed`` do not reach it.
    """
    if config.trainer == TRAINER_EXTERNAL:
        return external_trainer_invoke(idx, windows, protocol, config, handoff_dir)
    if config.trainer == TRAINER_RIDGE:
        model = train_ridge(idx, windows, features, config.ridge_lambda)
        return evaluate(model, windows, split, features)
    model = train_patch_net(idx, windows, replace(config, seed=seed))
    return evaluate(model, windows, split, windows.inputs)


def make_objective(config: TrainConfig, windows: WindowSet, features: np.ndarray,
                   train_idx: np.ndarray, assignments: np.ndarray,
                   master_seed: int, split: str = SPLIT_VAL,
                   protocol: ExternalProtocol | None = None,
                   handoff_root: str | Path | None = None) -> search.Objective:
    """Trial evaluator for :func:`search.run_study`.

    ``assignments[i]`` is the cluster of window ``train_idx[i]``.  Trial
    ``t`` draws its mixture and patch-net seed from independent streams of
    ``master_seed``; an external trainer hands off in
    ``handoff_root/trial_<t:05d>``.
    """
    def objective(trial_id: int, weights: np.ndarray) -> search.TrialEvaluation:
        rng = search.trial_rng(master_seed, trial_id, search.STREAM_MIXTURE)
        mixture = search.build_mixture(assignments, weights, rng)
        handoff = (None if handoff_root is None
                   else Path(handoff_root) / f"trial_{trial_id:05d}")
        metrics = fit_and_evaluate(
            config, windows, features, train_idx[mixture.indices], split,
            search.trial_seed_int(master_seed, trial_id, search.STREAM_TRAINER),
            protocol, handoff)
        return search.TrialEvaluation(
            objective=metrics.avg_mse, n_mix=mixture.total,
            per_target_mse=metrics.per_target_mse,
            per_target_mae=metrics.per_target_mae)

    return objective
