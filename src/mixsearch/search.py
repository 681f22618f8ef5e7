"""Search over per-cluster sampling weights.

A weight vector w in [0, 1]^k turns cluster sizes into a concrete training
mixture: n_k = round(C_k * w_k) windows drawn uniformly without replacement
from cluster k.  The search itself is a from-scratch Tree-structured Parzen
Estimator over the unit hypercube, with a uniform random sampler as
baseline.  Trials can evaluate concurrently; proposals read whatever history
snapshot is available at proposal time (stale reads are allowed).
"""

from __future__ import annotations

import json
import logging
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy.special import ndtr, ndtri

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
    if np.any(weights < 0.0) or np.any(weights > 1.0):
        raise SearchError("weights must lie in [0, 1]")
    k = weights.shape[0]
    if assignments.min() < 0 or assignments.max() >= k:
        raise SearchError(f"assignments reference clusters outside [0, {k})")

    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    sizes = np.bincount(assignments, minlength=k)
    counts = np.array([round_half_up(sizes[c] * weights[c]) for c in range(k)],
                      dtype=np.int64)
    if not counts.any():
        raise EmptyMixtureError("all per-cluster counts rounded to zero")

    parts = []
    for c in range(k):
        members = np.flatnonzero(assignments == c)
        n_c = int(counts[c])
        if n_c == 0:
            continue
        if n_c < members.size:
            members = np.sort(rng.choice(members, size=n_c, replace=False))
        parts.append(members)
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

    The bandwidth of each Gaussian is the larger of the gaps to its left and
    right neighbors among the observations extended with the domain edges
    {0, 1}, floored at :func:`bandwidth_floor` of the observation count.
    """

    def __init__(self, observations: Sequence[float] | np.ndarray):
        obs = np.sort(np.asarray(observations, dtype=np.float64))
        if obs.size and (obs[0] < 0.0 or obs[-1] > 1.0):
            raise SearchError("observations must lie in [0, 1]")
        self.obs = obs
        n = obs.size
        if n:
            support = np.concatenate([[0.0], obs, [1.0]])
            left = obs - support[:-2]
            right = support[2:] - obs
            self.bw = np.maximum(np.maximum(left, right), bandwidth_floor(n))
            lo = ndtr((0.0 - obs) / self.bw)
            hi = ndtr((1.0 - obs) / self.bw)
            self.trunc_mass = hi - lo
            self._cdf_lo = lo
            self._cdf_hi = hi
        else:
            self.bw = np.empty(0)
            self.trunc_mass = np.empty(0)

    @property
    def n_components(self) -> int:
        return self.obs.size + 1

    def pdf(self, x: np.ndarray | float) -> np.ndarray | float:
        x_arr = np.atleast_1d(np.asarray(x, dtype=np.float64))
        if np.any(x_arr < 0.0) or np.any(x_arr > 1.0):
            raise SearchError("density is defined on [0, 1]")
        total = np.ones_like(x_arr)  # uniform prior component
        if self.obs.size:
            z = (x_arr[:, None] - self.obs[None, :]) / self.bw
            kernel = np.exp(-0.5 * z * z) / (self.bw * math.sqrt(2.0 * math.pi))
            total = total + (kernel / self.trunc_mass).sum(axis=1)
        result = total / self.n_components
        return result if np.ndim(x) else float(result[0])

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        comp = rng.integers(0, self.n_components, size=size)
        u = rng.uniform(size=size)
        out = np.empty(size, dtype=np.float64)
        uniform_mask = comp == 0
        out[uniform_mask] = u[uniform_mask]
        gauss = ~uniform_mask
        if gauss.any():
            i = comp[gauss] - 1
            p = self._cdf_lo[i] + u[gauss] * (self._cdf_hi[i] - self._cdf_lo[i])
            out[gauss] = self.obs[i] + self.bw[i] * ndtri(p)
        return np.clip(out, 0.0, 1.0)


def random_suggest(k: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. uniform weight vector on [0, 1]^k."""
    if k < 1:
        raise SearchError("k must be >= 1")
    return rng.uniform(size=k)


def tpe_suggest(history: Sequence[TrialRecord], k: int,
                rng: np.random.Generator | None = None) -> np.ndarray:
    """Propose a weight vector by maximizing the good/bad density ratio.

    Until :data:`N_STARTUP` trials have completed the proposal is uniform
    random.  Afterwards each dimension is handled independently: the
    completed trials are split into good and bad sets, a Parzen density is
    fitted to each set's values in that dimension, :data:`N_CANDIDATES`
    draws are taken from the good density, and the draw maximizing
    good(x) / (bad(x) + eps) wins.
    """
    if k < 1:
        raise SearchError("k must be >= 1")
    if rng is None:
        rng = np.random.default_rng()
    completed = [t for t in history if t.state == STATE_COMPLETE]
    if len(completed) < N_STARTUP:
        return random_suggest(k, rng)

    good, bad = gamma_split(completed)
    suggestion = np.empty(k, dtype=np.float64)
    for d in range(k):
        density_good = ParzenDensity([t.weights[d] for t in good])
        density_bad = ParzenDensity([t.weights[d] for t in bad])
        candidates = density_good.sample(rng, N_CANDIDATES)
        score = density_good.pdf(candidates) / (density_bad.pdf(candidates) + EPS)
        suggestion[d] = candidates[int(np.argmax(score))]
    return suggestion


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
    """Run ``n_trials`` trials, up to ``jobs`` concurrently.

    The shared history is an append-only log behind a lock; proposals use
    the snapshot available when the trial starts.  A crashing objective
    marks its trial failed and the study continues; if every trial fails
    the study itself raises :class:`AllTrialsFailedError`.
    """
    lock = threading.Lock()
    history: list[TrialRecord] = []
    log_fh = open(config.trial_log, "w") if config.trial_log else None

    def run_one(trial_id: int) -> None:
        with lock:
            snapshot = list(history)
        rng = trial_rng(config.seed, trial_id, STREAM_SUGGEST)
        if config.sampler == "tpe":
            weights = tpe_suggest(snapshot, config.k, rng)
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
        with lock:
            history.append(record)
            if log_fh is not None:
                log_fh.write(record.to_json() + "\n")
                log_fh.flush()

    try:
        if config.jobs == 1:
            for trial_id in range(config.n_trials):
                run_one(trial_id)
        else:
            with ThreadPoolExecutor(max_workers=config.jobs) as pool:
                futures = [pool.submit(run_one, t) for t in range(config.n_trials)]
                for f in futures:
                    f.result()
    finally:
        if log_fh is not None:
            log_fh.close()

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

