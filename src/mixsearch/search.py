"""Search over per-cluster sampling weights.

A weight vector w in [0, 1]^k turns cluster sizes into a concrete training
mixture: n_k = round(C_k * w_k) windows drawn uniformly without replacement
from cluster k.  The search itself is a from-scratch Tree-structured Parzen
Estimator over the unit hypercube, with a uniform random sampler as
baseline.  Trials run in batches of ``jobs``: trial t is proposed from the
trials with ids below t - t mod jobs, so a seeded study is the same on every run.
"""

from __future__ import annotations

import json
import logging
import math
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .clustering import cluster_members

logger = logging.getLogger(__name__)

EPS = 1e-12
TRIAL_SCHEMA_VERSION = 1
# TPE's fixed settings (the defaults of Bergstra et al. 2011 and Optuna's
# TPESampler): uniform proposals until N_STARTUP trials have completed, then
# the best of N_CANDIDATES draws from the good density per dimension.
N_STARTUP = 10
N_CANDIDATES = 24
# Kernel-width floor scale: floor(n) = BANDWIDTH_FLOOR_SCALE / min(100, n + 1)
# on the unit domain.  A fixed floor makes the estimator collapse onto early
# local optima when few observations exist; this adaptive floor keeps early
# kernels wide and tightens as evidence accumulates.
BANDWIDTH_FLOOR_SCALE = 2.0
# ParzenDensity.pdf evaluates a (k, n) density this many rows at a time, so its
# (rows, candidates, observations) work buffer stays near 0.5 MB at n = 300
# instead of growing with k.
PDF_BLOCK_ROWS = 8

# Stream tags for deriving independent per-trial generators from one seed.
STREAM_SUGGEST = 0
STREAM_MIXTURE = 1
STREAM_TRAINER = 2

STATE_COMPLETE = "complete"
STATE_FAILED = "failed"


class SearchError(ValueError):
    pass


class EmptyMixtureError(RuntimeError):
    """A weight vector selected zero windows; the trial fails, the study survives."""


class AllTrialsFailedError(RuntimeError):
    """Every trial of a study failed; there is no result to report."""


def _entropy(master_seed: int, trial_id: int, stream: int) -> tuple[int, int, int]:
    # SeedSequence wants non-negative entropy; fold negatives (e.g. the -1
    # baseline tag) through two's complement.
    return (master_seed & 0xFFFFFFFF, trial_id & 0xFFFFFFFF, stream)


def trial_rng(master_seed: int, trial_id: int, stream: int) -> np.random.Generator:
    """Independent generator for one (trial, purpose) pair under a master seed."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(master_seed, trial_id, stream)))


def trial_seed_int(master_seed: int, trial_id: int, stream: int) -> int:
    """Stable integer seed derived from (master seed, trial id, purpose)."""
    seq = np.random.SeedSequence(_entropy(master_seed, trial_id, stream))
    return int(seq.generate_state(1)[0])


# ---------------------------------------------------------------------------
# Mixture construction

@dataclass
class MixtureIndex:
    """One trial's selected member positions, grouped by ascending cluster id."""

    indices: np.ndarray  # (total,) int64, each cluster's members sorted
    counts: np.ndarray   # (k,) int64, n_k per cluster

    @property
    def total(self) -> int:
        return int(self.counts.sum())


def round_half_up(x: float) -> int:
    return int(math.floor(x + 0.5))


def mixture_counts(sizes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """n_k = round_half_up(C_k * w_k): the windows a mixture takes per cluster."""
    return np.floor(sizes * weights + 0.5).astype(np.int64)


def build_mixture(assignments: np.ndarray, weights: np.ndarray,
                  seed: int | np.random.Generator) -> MixtureIndex:
    """Sample n_k = round(C_k * w_k) member indices per cluster, uniformly
    without replacement.  Raises :class:`EmptyMixtureError` when every n_k
    rounds to zero."""
    assignments = np.asarray(assignments)
    weights = np.asarray(weights, dtype=np.float64)
    if assignments.size == 0:
        raise SearchError("assignments must be non-empty")
    if weights.ndim != 1:
        raise SearchError("weights must be a vector")
    if not np.all((weights >= 0.0) & (weights <= 1.0)):  # NaN fails too
        raise SearchError("weights must lie in [0, 1]")
    k = weights.shape[0]
    if assignments.min() < 0 or assignments.max() >= k:
        raise SearchError(f"assignments reference clusters outside [0, {k})")

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sizes = np.bincount(assignments, minlength=k)
    counts = mixture_counts(sizes, weights)
    if not counts.any():
        raise EmptyMixtureError("all per-cluster counts rounded to zero")

    groups = cluster_members(assignments, k)
    parts = [np.sort(rng.choice(groups[c], size=int(counts[c]), replace=False))
             if counts[c] < sizes[c] else groups[c] for c in np.flatnonzero(counts)]
    return MixtureIndex(indices=np.concatenate(parts), counts=counts)


# ---------------------------------------------------------------------------
# Trial bookkeeping

@dataclass
class TrialRecord:
    trial_id: int
    weights: np.ndarray
    n_mix: int
    objective: float | None
    per_target_mse: dict[str, float]
    per_target_mae: dict[str, float]
    state: str
    error: str | None
    wall_time_s: float

    def to_json(self) -> str:
        payload = {
            "schema_version": TRIAL_SCHEMA_VERSION,
            "trial_id": self.trial_id,
            "state": self.state,
            "weights": [float(w) for w in self.weights],
            "n_mix": self.n_mix,
            "objective": self.objective,
            "per_target_mse": self.per_target_mse,
            "per_target_mae": self.per_target_mae,
            "error": self.error,
            "wall_time_s": self.wall_time_s,
        }
        return json.dumps(payload, sort_keys=True)

    @classmethod
    def from_json(cls, line: str) -> "TrialRecord":
        payload = json.loads(line)
        if payload.get("schema_version") != TRIAL_SCHEMA_VERSION:
            raise SearchError(
                f"unsupported trial schema version {payload.get('schema_version')}")
        return cls(
            trial_id=int(payload["trial_id"]),
            weights=np.asarray(payload["weights"], dtype=np.float64),
            n_mix=int(payload["n_mix"]),
            objective=payload["objective"],
            per_target_mse=payload["per_target_mse"] or {},
            per_target_mae=payload["per_target_mae"] or {},
            state=payload["state"],
            error=payload.get("error"),
            wall_time_s=float(payload["wall_time_s"]),
        )


@dataclass
class TrialEvaluation:
    """One trained proxy's scores: the objective (average MSE over targets
    on the val or test split), the trained window count and the per-target
    maps.  Every trainer and the objective closure return it."""

    objective: float
    n_mix: int
    per_target_mse: dict[str, float]
    per_target_mae: dict[str, float]


@dataclass
class StudyResult:
    trials: list[TrialRecord]  # ordered by trial id
    best_trial_id: int
    k: int
    sampler_config: dict

    @property
    def best_trial(self) -> TrialRecord:
        return self.trials[self.best_trial_id]

    def completed(self) -> list[TrialRecord]:
        return [t for t in self.trials if t.state == STATE_COMPLETE]

    @classmethod
    def from_trials(cls, trials: Sequence[TrialRecord], k: int,
                    sampler_config: dict) -> "StudyResult":
        ordered = sorted(trials, key=lambda t: t.trial_id)
        if [t.trial_id for t in ordered] != list(range(len(ordered))):
            raise SearchError("trial ids must be unique and dense")
        completed = [t for t in ordered if t.state == STATE_COMPLETE]
        if not completed:
            raise AllTrialsFailedError("no trial completed")
        best = min(completed, key=lambda t: (t.objective, t.trial_id))
        return cls(trials=ordered, best_trial_id=best.trial_id, k=k,
                   sampler_config=dict(sampler_config))


# ---------------------------------------------------------------------------
# Samplers

def default_gamma(n: int) -> int:
    """Size of the good set: min(ceil(n/4), 25)."""
    return min(math.ceil(0.25 * n), 25)


def gamma_split(history: Sequence[TrialRecord]
                ) -> tuple[list[TrialRecord], list[TrialRecord]]:
    """Split completed trials into (good, bad) by ascending objective."""
    completed = [t for t in history if t.state == STATE_COMPLETE]
    if not completed:
        raise SearchError("gamma_split needs at least one completed trial")
    ranked = sorted(completed, key=lambda t: (t.objective, t.trial_id))
    n_good = min(len(ranked), max(1, default_gamma(len(ranked))))
    return ranked[:n_good], ranked[n_good:]


def bandwidth_floor(n_observations: int) -> float:
    return BANDWIDTH_FLOOR_SCALE / min(100.0, n_observations + 1.0)


class ParzenDensity:
    """Mixture of a uniform prior on [0, 1] and one truncated Gaussian per
    observation, all components equally weighted.

    ``observations`` is a vector (one density) or a (k, n) matrix whose k rows
    are k independent densities over n observations each; ``obs``, ``bw`` and
    ``trunc_mass`` hold one row per density either way.  The bandwidth of each
    Gaussian is the larger of the gaps to its left and right neighbors among
    its row's observations extended with the domain edges {0, 1}, floored at
    :func:`bandwidth_floor` of the observation count.
    """

    def __init__(self, observations: Sequence[float] | np.ndarray):
        # Imported here and in sample, not at module level: scipy.special
        # costs every other stage's start-up time and only TPE fits densities.
        from scipy.special import ndtr

        obs = np.asarray(observations, dtype=np.float64)
        if obs.ndim not in (1, 2):
            raise SearchError("observations must be a vector or a (k, n) matrix")
        self._vector = obs.ndim == 1
        obs = np.sort(np.atleast_2d(obs), axis=1)
        if obs.size and (obs.min() < 0.0 or obs.max() > 1.0):
            raise SearchError("observations must lie in [0, 1]")
        self.obs = obs
        edge = np.zeros((len(obs), 1))
        support = np.concatenate([edge, obs, edge + 1.0], axis=1)
        left = obs - support[:, :-2]
        right = support[:, 2:] - obs
        self.bw = np.maximum(np.maximum(left, right), bandwidth_floor(obs.shape[1]))
        self._cdf_lo = ndtr((0.0 - obs) / self.bw)
        self._cdf_hi = ndtr((1.0 - obs) / self.bw)
        self.trunc_mass = self._cdf_hi - self._cdf_lo

    @property
    def n_components(self) -> int:
        return self.obs.shape[1] + 1

    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        """Density at ``x``: a scalar or vector for one density, a (k, m)
        matrix for k rows, row i evaluated under density i."""
        x_arr = np.asarray(x, dtype=np.float64)
        if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
            raise SearchError("density is defined on [0, 1]")
        x2 = np.atleast_1d(x_arr)[None, :] if self._vector else x_arr
        obs, bw, mass = self.obs, self.bw, self.trunc_mass
        norm = bw * math.sqrt(2.0 * math.pi)
        total = np.ones_like(x2)  # uniform prior component
        if obs.shape[1]:
            # One (rows, m, n) buffer, reused by every block and worked in
            # place, keeps the per-element arithmetic of the one-density formula.
            buf = np.empty((min(PDF_BLOCK_ROWS, len(obs)), x2.shape[1], obs.shape[1]))
            for start in range(0, len(obs), PDF_BLOCK_ROWS):
                b = slice(start, start + PDF_BLOCK_ROWS)
                z = np.subtract(x2[b, :, None], obs[b, None, :], out=buf[:len(obs[b])])
                z /= bw[b, None, :]
                z *= z
                z *= -0.5
                np.exp(z, out=z)
                z /= norm[b, None, :]
                z /= mass[b, None, :]
                total[b] += z.sum(axis=2)
        result = total / self.n_components
        if not self._vector:
            return result
        return result[0] if np.ndim(x) else float(result[0, 0])

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws per density: a vector for one density, (k, size) for k
        rows.  Each row draws its component indices, then its uniforms, row by
        row in row order, as k one-density calls would."""
        from scipy.special import ndtri

        k = len(self.obs)
        comp = np.empty((k, size), dtype=np.int64)
        u = np.empty((k, size), dtype=np.float64)
        for row in range(k):
            comp[row] = rng.integers(0, self.n_components, size=size)
            u[row] = rng.uniform(size=size)
        out = u.copy()  # draws of the uniform component (index 0) are u itself
        gauss = comp > 0
        if gauss.any():
            row, _ = np.nonzero(gauss)
            i = comp[gauss] - 1
            lo, hi = self._cdf_lo[row, i], self._cdf_hi[row, i]
            p = lo + u[gauss] * (hi - lo)
            out[gauss] = self.obs[row, i] + self.bw[row, i] * ndtri(p)
        out = np.clip(out, 0.0, 1.0)
        return out[0] if self._vector else out


def random_suggest(k: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. uniform weight vector on [0, 1]^k."""
    if k < 1:
        raise SearchError("k must be >= 1")
    return rng.uniform(size=k)


def tpe_suggest(history: Sequence[TrialRecord], k: int,
                rng: np.random.Generator | None = None) -> np.ndarray:
    """Propose a weight vector by maximizing the good/bad density ratio.

    Until :data:`N_STARTUP` trials have completed the proposal is uniform
    random.  Afterwards the completed trials are split into good and bad
    sets, and each dimension is handled independently as one row of two
    (k, n) Parzen densities: one fitted to the good set's values, one to the
    bad set's.  :data:`N_CANDIDATES` draws are taken per row from the good
    density, dimension by dimension in order, and in each row the draw
    maximizing good(x) / (bad(x) + eps) wins.
    """
    if k < 1:
        raise SearchError("k must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    completed = [t for t in history if t.state == STATE_COMPLETE]
    if len(completed) < N_STARTUP:
        return random_suggest(k, rng)

    density_good, density_bad = (
        ParzenDensity(np.array([t.weights for t in part]).reshape(len(part), k).T)
        for part in gamma_split(completed))
    candidates = density_good.sample(rng, N_CANDIDATES)
    score = density_good.pdf(candidates) / (density_bad.pdf(candidates) + EPS)
    return candidates[np.arange(k), np.argmax(score, axis=1)]


# ---------------------------------------------------------------------------
# Study runner

@dataclass
class StudyConfig:
    n_trials: int
    k: int
    jobs: int = 1
    sampler: str = "tpe"  # "tpe" | "random"
    seed: int = 0
    trial_log: Path | None = None

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise SearchError("n_trials must be >= 1")
        if self.jobs < 1:
            raise SearchError("jobs must be >= 1")
        if self.k < 1:
            raise SearchError("k must be >= 1")
        if self.sampler not in ("tpe", "random"):
            raise SearchError(f"unknown sampler {self.sampler!r}")

    def sampler_config(self) -> dict:
        return {
            "sampler": self.sampler,
            "seed": self.seed,
            "n_startup": N_STARTUP,
            "n_candidates": N_CANDIDATES,
            "jobs": self.jobs,
        }


Objective = Callable[[int, np.ndarray], TrialEvaluation]


def run_study(config: StudyConfig, objective: Objective) -> StudyResult:
    """Run ``n_trials`` trials in batches of ``jobs`` concurrent trials.

    Trial t is proposed from exactly the trials with ids below t - t % jobs,
    which join the history and the trial log in id order once their batch has
    returned.  A crashing objective marks its trial failed and the study
    continues; if every trial fails the study raises :class:`AllTrialsFailedError`.
    """
    history: list[TrialRecord] = []

    def run_one(trial_id: int) -> TrialRecord:
        rng = trial_rng(config.seed, trial_id, STREAM_SUGGEST)
        if config.sampler == "tpe":
            weights = tpe_suggest(history, config.k, rng)
        else:
            weights = random_suggest(config.k, rng)
        t0 = time.perf_counter()
        try:
            ev = objective(trial_id, weights)
            record = TrialRecord(
                trial_id=trial_id, weights=weights, n_mix=ev.n_mix,
                objective=float(ev.objective),
                per_target_mse=dict(ev.per_target_mse),
                per_target_mae=dict(ev.per_target_mae),
                state=STATE_COMPLETE, error=None,
                wall_time_s=time.perf_counter() - t0)
            if not math.isfinite(record.objective):
                record.state = STATE_FAILED
                record.error = f"non-finite objective {record.objective}"
                record.objective = None
        except Exception as exc:  # trial-level failure, study continues
            record = TrialRecord(
                trial_id=trial_id, weights=weights, n_mix=0, objective=None,
                per_target_mse={}, per_target_mae={}, state=STATE_FAILED,
                error=f"{type(exc).__name__}: {exc}",
                wall_time_s=time.perf_counter() - t0)
            logger.debug("trial %d failed: %s", trial_id, record.error)
        return record

    with ExitStack() as stack:
        log_fh = stack.enter_context(open(config.trial_log, "w")) if config.trial_log else None
        # No pool at jobs=1: a one-worker pool raised search-patchnet peak RSS 71 -> 104 MB.
        run_batch = (stack.enter_context(ThreadPoolExecutor(config.jobs)).map
                     if config.jobs > 1 else map)
        for start in range(0, config.n_trials, config.jobs):
            ids = range(start, min(start + config.jobs, config.n_trials))
            batch = list(run_batch(run_one, ids))
            history.extend(batch)
            if log_fh is not None:
                log_fh.writelines(record.to_json() + "\n" for record in batch)
                log_fh.flush()

    result = StudyResult.from_trials(history, config.k, config.sampler_config())
    best = result.best_trial
    logger.info("study done: %d/%d trials complete, best objective %.6g (trial %d)",
                len(result.completed()), config.n_trials, best.objective,
                best.trial_id)
    return result


def load_trial_log(path: str | Path) -> list[TrialRecord]:
    records = []
    with Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if line:
                records.append(TrialRecord.from_json(line))
    return records

