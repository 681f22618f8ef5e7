"""Search over per-cluster sampling weights.

A weight vector w in [0, 1]^k turns cluster sizes into a concrete training
mixture: n_k = round(C_k * w_k) windows drawn uniformly without replacement
from cluster k.  A trial is :func:`mixture_objective`: the study's seed and the
trial id fix its mixture and trainer seed, and the trainer's score of that
mixture, kept with its bookkeeping, is its :class:`TrialRecord`.  The search
itself is a from-scratch Tree-structured Parzen Estimator over the unit
hypercube, with a uniform random sampler as baseline.  Trials run in batches
of ``jobs``: trial t is proposed from the trials with ids below t - t mod jobs,
so a seeded study is the same on every run.  On Linux a batch's trials are
shared between the search process and worker processes forked once per study.
"""

from __future__ import annotations

import json
import logging
import math
import os
import sys
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, Sequence

import numpy as np

from . import MixsearchError

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

# Every seeded draw a stage makes is keyed (master seed, index, stream): the index a
# trial id, a sweep row or 0, the stream one of these.  numpy pads a shorter key with
# zeros, so a 2-word key or a bare seed would repeat some trial's STREAM_SUGGEST draws.
STREAM_SUGGEST = 0
STREAM_MIXTURE = 1
STREAM_TRAINER = 2
STREAM_SWEEP_SUBSET = 3
STREAM_SWEEP_TRAINER = 4
STREAM_REVIEW = 5

STATE_COMPLETE = "complete"
STATE_FAILED = "failed"


class SearchError(MixsearchError, ValueError):
    pass


class EmptyMixtureError(MixsearchError, RuntimeError):
    """A weight vector selected zero windows; the trial fails, the study survives."""


class AllTrialsFailedError(MixsearchError, RuntimeError):
    """Every trial of a study failed; there is no result to report."""


def _entropy(master_seed: int, trial_id: int, stream: int) -> tuple[int, int, int]:
    # SeedSequence wants non-negative entropy; fold negatives (e.g. the -1
    # baseline tag) through two's complement.
    return (master_seed & 0xFFFFFFFF, trial_id & 0xFFFFFFFF, stream)


def trial_rng(master_seed: int, trial_id: int, stream: int) -> np.random.Generator:
    """Independent generator for one (trial, purpose) pair under a master seed."""
    return np.random.default_rng(np.random.SeedSequence(_entropy(master_seed, trial_id, stream)))


# ---------------------------------------------------------------------------
# Mixture construction

def mixture_counts(sizes: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """n_k = floor(C_k * w_k + 0.5), rounded half up: the windows a mixture takes per cluster."""
    return np.floor(sizes * weights + 0.5).astype(np.int64)


def build_mixture(clusters: Sequence[np.ndarray], weights: np.ndarray,
                  rng: np.random.Generator) -> np.ndarray:
    """Sample n_k = round(C_k * w_k) of cluster k's C_k window indices
    ``clusters[k]``, which ascend, uniformly without replacement, and return
    them grouped by ascending k, each cluster's sorted.  Raises
    :class:`EmptyMixtureError` when every n_k rounds to zero."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1:
        raise SearchError("weights must be a vector")
    if not np.all((weights >= 0.0) & (weights <= 1.0)):  # NaN fails too
        raise SearchError("weights must lie in [0, 1]")
    sizes = np.array([members.size for members in clusters])
    counts = mixture_counts(sizes, weights)
    if not counts.any():
        raise EmptyMixtureError("all per-cluster counts rounded to zero")
    parts = [np.sort(rng.choice(clusters[c], size=int(counts[c]), replace=False))
             if counts[c] < sizes[c] else clusters[c] for c in np.flatnonzero(counts)]
    return np.concatenate(parts)


# ---------------------------------------------------------------------------
# Trial bookkeeping

@dataclass
class TrialEvaluation:
    """One trained proxy's scores: the objective (average MSE over targets
    on the val or test split), the trained window count and the per-target
    maps.  Every trainer and the mixture objective return it."""

    objective: float
    n_mix: int
    per_target_mse: dict[str, float]
    per_target_mae: dict[str, float]


@dataclass
class TrialRecord(TrialEvaluation):
    """A trial's evaluation with its bookkeeping; a failed trial has no
    objective, and one that raised has no scores either."""

    trial_id: int
    weights: np.ndarray
    state: str
    error: str | None
    wall_time_s: float

    def to_json(self) -> str:
        return json.dumps({**vars(self), "schema_version": TRIAL_SCHEMA_VERSION,
                           "weights": [float(w) for w in self.weights]}, sort_keys=True)

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
class StudyResult:
    trials: list[TrialRecord]  # ordered by trial id
    best_trial_id: int
    sampler_config: dict

    @property
    def best_trial(self) -> TrialRecord:
        return self.trials[self.best_trial_id]

    def completed(self) -> list[TrialRecord]:
        return [t for t in self.trials if t.state == STATE_COMPLETE]

    @classmethod
    def from_trials(cls, trials: Sequence[TrialRecord], sampler_config: dict) -> "StudyResult":
        ordered = sorted(trials, key=lambda t: t.trial_id)
        if [t.trial_id for t in ordered] != list(range(len(ordered))):
            raise SearchError("trial ids must be unique and dense")
        completed = [t for t in ordered if t.state == STATE_COMPLETE]
        if not completed:
            raise AllTrialsFailedError("no trial completed")
        best = min(completed, key=lambda t: (t.objective, t.trial_id))
        return cls(trials=ordered, best_trial_id=best.trial_id, sampler_config=dict(sampler_config))


# ---------------------------------------------------------------------------
# Samplers

def default_gamma(n: int) -> int:
    """Size of the good set: min(ceil(n/4), 25)."""
    return min(math.ceil(0.25 * n), 25)


def gamma_split(history: Sequence[TrialRecord]
                ) -> tuple[list[TrialRecord], list[TrialRecord]]:
    """Split completed trials into (good, bad) by ascending objective."""
    completed = [t for t in history if t.state == STATE_COMPLETE]
    ranked = sorted(completed, key=lambda t: (t.objective, t.trial_id))
    n_good = min(len(ranked), max(1, default_gamma(len(ranked))))
    return ranked[:n_good], ranked[n_good:]


def bandwidth_floor(n_observations: int) -> float:
    return BANDWIDTH_FLOOR_SCALE / min(100.0, n_observations + 1.0)


# ---------------------------------------------------------------------------
# Standard normal CDF and quantile: Cephes' ndtr (with its erf and erfc) and
# ndtri, the algorithms and constants behind scipy.special.ndtr and ndtri,
# giving their results to the bit.  Polynomials go through np.polyval: from
# y = 0, its steps y = y * x + c (no fused multiply-add) are polevl's at any
# finite x, and every x here is; p1evl's implied leading 1 is written (1.0, *Q).
# exp and log go through the C library one element at a time, because numpy's
# vectorized exp and log round some arguments differently.

_SQRTH = 7.07106781186547524401e-1  # 1/sqrt(2)
_MAXLOG = 7.09782712893383996843e2  # log(2**1024): exp(-x) underflows beyond
_ERFC_P = (2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
           4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
           9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2)
_ERFC_Q = (1.32281951154744992508e1, 8.67072140885989742329e1, 3.54937778887819891062e2,
           9.75708501743205489753e2, 1.82390916687909736289e3, 2.24633760818710981792e3,
           1.65666309194161350182e3, 5.57535340817727675546e2)
_ERFC_R = (5.64189583547755073984e-1, 1.27536670759978104416e0, 5.01905042251180477414e0,
           6.16021097993053585195e0, 7.40974269950448939160e0, 2.97886665372100240670e0)
_ERFC_S = (2.26052863220117276590e0, 9.39603524938001434673e0, 1.20489539808096656605e1,
           1.70814450747565897222e1, 9.60896809063285878198e0, 3.36907645100081516050e0)
_ERF_T = (9.60497373987051638749e0, 9.00260197203842689217e1, 2.23200534594684319226e3,
          7.00332514112805075473e3, 5.55923013010394962768e4)
_ERF_U = (3.35617141647503099647e1, 5.21357949780152679795e2, 4.59432382970980127987e3,
          2.26290000613890934246e4, 4.92673942608635921086e4)
_S2PI = 2.50662827463100050242e0  # sqrt(2 pi)
_EXP_M2 = 0.13533528323661269189  # exp(-2)
_NDTRI_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1, -5.66762857469070293439e1,
             1.39312609387279679503e1, -1.23916583867381258016e0)
_NDTRI_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0, 8.63602421390890590575e1,
             -2.25462687854119370527e2, 2.00260212380060660359e2, -8.20372256168333339912e1,
             1.59056225126211695515e1, -1.18331621121330003142e0)
_NDTRI_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1, 5.71628192246421288162e1,
             4.40805073893200834700e1, 1.46849561928858024014e1, 2.18663306850790267539e0,
             -1.40256079171354495875e-1, -3.50424626827848203418e-2, -8.57456785154685413611e-4)
_NDTRI_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1, 4.13172038254672030440e1,
             1.50425385692907503408e1, 2.50464946208309415979e0, -1.42182922854787788574e-1,
             -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_NDTRI_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0, 3.93881025292474443415e0,
             1.33303460815807542389e0, 2.01485389549179081538e-1, 1.23716634817820021358e-2,
             3.01581553508235416007e-4, 2.65806974686737550832e-6, 6.23974539184983293730e-9)
_NDTRI_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0, 1.37702099489081330271e0,
             2.16236993594496635890e-1, 1.34204006088543189037e-2, 3.28014464682127739104e-4,
             2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _libm(fn: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    return np.fromiter(map(fn, x.tolist()), dtype=np.float64, count=x.size)


def ndtr(a: np.ndarray) -> np.ndarray:
    """Standard normal CDF of an array, bit-identical to ``scipy.special.ndtr``."""
    a = np.asarray(a, dtype=np.float64)
    x = a.reshape(-1) * _SQRTH
    z = np.abs(x)
    up = x > 0.0
    y = up.astype(np.float64)
    # Both tails are exact without arithmetic: from z = 6.5 up erfc(z) / 2 <
    # 2^-64, so 1 - erfc(z) / 2 rounds to 1.0, and below, where exp(-z^2)
    # underflows, erfc is 0.
    with np.errstate(over="ignore"):
        todo = np.flatnonzero(np.where(up, z < 6.5, ~(z * z > _MAXLOG)))
    x, z, up = x[todo], z[todo], up[todo]
    # 0.5 + 0.5 erf(x) below z = sqrt(1/2); else erfc(z) / 2, reflected for
    # x > 0, with erfc = 1 - erf(z) below 1, exp(-z^2) P(z)/Q(z) below 8 and
    # exp(-z^2) R(z)/S(z) from 8 on.
    near = z < _SQRTH
    small = z < 1.0
    w = np.where(near, x, z)[small]
    w2 = w * w
    erf = w * np.polyval(_ERF_T, w2) / np.polyval((1.0, *_ERF_U), w2)
    erfc = np.empty_like(z)
    erfc[small] = 1.0 - erf
    zt = z[~small]
    p, q = np.polyval(_ERFC_P, zt), np.polyval((1.0, *_ERFC_Q), zt)
    far = np.flatnonzero(zt >= 8.0)
    if far.size:
        p[far], q[far] = np.polyval(_ERFC_R, zt[far]), np.polyval((1.0, *_ERFC_S), zt[far])
    erfc[~small] = _libm(math.exp, -zt * zt) * p / q
    half = 0.5 * erfc
    out = np.where(up, 1.0 - half, half)
    out[near] = 0.5 + 0.5 * erf[near[small]]
    y[todo] = out
    return y.reshape(a.shape)


def ndtri(y0: np.ndarray) -> np.ndarray:
    """Standard normal quantile of an array, bit-identical to
    ``scipy.special.ndtri``: -inf at 0, inf at 1, NaN outside [0, 1]."""
    y0 = np.asarray(y0, dtype=np.float64)
    out = np.where(y0 == 0.0, -np.inf, np.where(y0 == 1.0, np.inf, np.nan))
    # Above 1 - exp(-2) the quantile of y is minus that of 1 - y.  Only y in
    # (0, 1) lands in either branch below.
    flip = y0 > 1.0 - _EXP_M2
    y = np.where(flip, 1.0 - y0, y0)
    central = np.flatnonzero(y > _EXP_M2)
    c = y[central] - 0.5
    c2 = c * c
    p0, q0 = np.polyval(_NDTRI_P0, c2), np.polyval((1.0, *_NDTRI_Q0), c2)
    out[central] = (c + c * (c2 * p0 / q0)) * _S2PI
    tail = np.flatnonzero((y > 0.0) & (y <= _EXP_M2))
    t = np.sqrt(-2.0 * _libm(math.log, y[tail]))
    x0 = t - _libm(math.log, t) / t
    r = 1.0 / t
    p, q = np.polyval(_NDTRI_P1, r), np.polyval((1.0, *_NDTRI_Q1), r)
    far = np.flatnonzero(t >= 8.0)
    if far.size:
        p[far], q[far] = np.polyval(_NDTRI_P2, r[far]), np.polyval((1.0, *_NDTRI_Q2), r[far])
    d = x0 - r * p / q
    out[tail] = np.where(flip[tail], d, -d)
    return out


class ParzenDensity:
    """k independent densities on [0, 1], one per row of a (k, n) matrix of
    ``observations``: each is a mixture of a uniform prior and one truncated
    Gaussian per observation of its row, all components equally weighted.

    ``obs``, ``bw`` and ``trunc_mass`` hold one row per density.  The bandwidth
    of each Gaussian is the larger of the gaps to its left and right neighbors
    among its row's observations extended with the domain edges {0, 1},
    floored at :func:`bandwidth_floor` of the observation count.
    """

    def __init__(self, observations: np.ndarray):
        obs = np.sort(np.asarray(observations, dtype=np.float64), axis=1)
        if obs.size and (obs.min() < 0.0 or obs.max() > 1.0):
            raise SearchError("observations must lie in [0, 1]")
        self.obs = obs
        edge = np.zeros((len(obs), 1))
        support = np.concatenate([edge, obs, edge + 1.0], axis=1)
        left = obs - support[:, :-2]
        right = support[:, 2:] - obs
        self.bw = np.maximum(np.maximum(left, right), bandwidth_floor(obs.shape[1]))
        # Each kernel's mass on [0, 1] is ndtr(upper) - ndtr(lower) of the
        # domain edges in its own units.  ndtr(upper) is at least 0.5; where
        # lower * sqrt(1/2) <= -6.5, ndtr(lower) is below 2^-64, under half an
        # ulp of that, so taking it as 0 leaves the mass exact.
        upper = ((1.0 - obs) / self.bw).reshape(-1)
        lower = ((0.0 - obs) / self.bw).reshape(-1)
        need = np.flatnonzero(lower * _SQRTH > -6.5)
        cdf = ndtr(np.concatenate([upper, lower[need]]))
        cdf_lo = np.zeros_like(lower)
        cdf_lo[need] = cdf[upper.size:]
        self._cdf_hi = cdf[:upper.size].reshape(obs.shape)
        self._cdf_lo = cdf_lo.reshape(obs.shape)  # 0 where skipped
        self.trunc_mass = self._cdf_hi - self._cdf_lo

    @property
    def n_components(self) -> int:
        return self.obs.shape[1] + 1

    def pdf(self, x: np.ndarray) -> np.ndarray:
        """Density at a (k, m) matrix ``x``, row i evaluated under density i."""
        x = np.asarray(x, dtype=np.float64)
        if np.any(x < 0.0) or np.any(x > 1.0):
            raise SearchError("density is defined on [0, 1]")
        obs, bw, mass = self.obs, self.bw, self.trunc_mass
        norm = bw * math.sqrt(2.0 * math.pi)
        total = np.ones_like(x)  # uniform prior component
        if obs.shape[1]:
            # One (rows, m, n) buffer, reused by every block and worked in
            # place, keeps the per-element arithmetic of the one-density formula.
            buf = np.empty((min(PDF_BLOCK_ROWS, len(obs)), x.shape[1], obs.shape[1]))
            for start in range(0, len(obs), PDF_BLOCK_ROWS):
                b = slice(start, start + PDF_BLOCK_ROWS)
                z = np.subtract(x[b, :, None], obs[b, None, :], out=buf[:len(obs[b])])
                z /= bw[b, None, :]
                z *= z
                z *= -0.5
                np.exp(z, out=z)
                z /= norm[b, None, :]
                z /= mass[b, None, :]
                total[b] += z.sum(axis=2)
        return total / self.n_components

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` draws per density, a (k, size) matrix.  Each row draws its
        component indices, then its uniforms, row by row in row order, as k
        one-row densities would."""
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
            obs, bw = self.obs[row, i], self.bw[row, i]
            # Drawn kernels need their lower-bound CDF in full.  The fit computed
            # it where lower * sqrt(1/2) > -6.5; ndtr works element by element,
            # so computing the rest here gives every value the full call's bits.
            lower = (0.0 - obs) / bw
            lo, hi = self._cdf_lo[row, i], self._cdf_hi[row, i]
            skipped = lower * _SQRTH <= -6.5
            lo[skipped] = ndtr(lower[skipped])
            p = lo + u[gauss] * (hi - lo)
            out[gauss] = obs + bw * ndtri(p)
        return np.clip(out, 0.0, 1.0)


# The good and bad densities of a history (fit_tpe), or None before N_STARTUP.
Densities = tuple[ParzenDensity, ParzenDensity] | None


def random_suggest(k: int, rng: np.random.Generator) -> np.ndarray:
    """i.i.d. uniform weight vector on [0, 1]^k."""
    return rng.uniform(size=k)


def fit_tpe(history: Sequence[TrialRecord], k: int) -> Densities:
    """The good and bad (k, n) Parzen densities of a history, or None while
    fewer than :data:`N_STARTUP` trials have completed.

    The completed trials are split into good and bad sets, and each dimension
    is one row of both densities: row d of the good density is fitted to the
    good set's values of weight d, row d of the bad density to the bad set's.
    """
    completed = [t for t in history if t.state == STATE_COMPLETE]
    if len(completed) < N_STARTUP:
        return None
    good, bad = (np.array([t.weights for t in part]).reshape(len(part), k).T
                 for part in gamma_split(completed))
    return ParzenDensity(good), ParzenDensity(bad)


def tpe_suggest(densities: Densities, k: int, rng: np.random.Generator) -> np.ndarray:
    """Propose a weight vector by maximizing the good/bad density ratio.

    ``densities`` is :func:`fit_tpe` of the history; while it is None the
    proposal is uniform random.  Otherwise :data:`N_CANDIDATES` draws are
    taken per row from the good density, dimension by dimension in order, and
    in each row the draw maximizing good(x) / (bad(x) + eps) wins.
    """
    if densities is None:
        return random_suggest(k, rng)
    density_good, density_bad = densities
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

    def sampler_config(self) -> dict:
        return {
            "sampler": self.sampler,
            "seed": self.seed,
            "n_startup": N_STARTUP,
            "n_candidates": N_CANDIDATES,
            "jobs": self.jobs,
        }


Objective = Callable[[int, np.ndarray], TrialEvaluation]


def mixture_objective(score: Callable[[np.ndarray, int, int], TrialEvaluation],
                      clusters: Sequence[np.ndarray], master_seed: int,
                      streams: tuple[int, int] = (STREAM_MIXTURE, STREAM_TRAINER)
                      ) -> Objective:
    """Trial evaluator for :func:`run_study`.  Trial t draws its mixture of
    ``clusters``, each cluster's window indices as :func:`build_mixture` takes
    them, from the first of ``streams`` and its trainer seed from the second,
    and returns ``score(mixture, seed, t)``."""
    mixture_stream, trainer_stream = streams

    def objective(trial_id: int, weights: np.ndarray) -> TrialEvaluation:
        mixture = build_mixture(clusters, weights,
                                trial_rng(master_seed, trial_id, mixture_stream))
        seq = np.random.SeedSequence(_entropy(master_seed, trial_id, trainer_stream))
        return score(mixture, int(seq.generate_state(1)[0]), trial_id)

    return objective


@contextmanager
def _forked_workers(n: int, history: list[TrialRecord], run_share: Callable[[range], list]
                    ) -> Iterator[Callable[[range], list[TrialRecord]]]:
    """Yield a batch runner that runs the first of a batch's ``n`` shares here and the
    rest in n - 1 workers forked here (none at n = 1), which inherit ``run_share`` and a
    copy of the ``history`` it reads; each batch, a worker is sent its share and the
    records ``history`` gained since the last.  All are stopped and reaped on the way out."""
    import signal

    conns, procs = [], []
    sent = len(history)  # the leading records of ``history`` every worker holds

    def serve(conn) -> None:
        # A Ctrl-C is the parent's. Unlike SIG_IGN, a handler is reset when a trainer
        # execs; the parent's terminate raises SystemExit, so subprocess.run kills it.
        signal.signal(signal.SIGINT, lambda signum, frame: None)
        signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
        # Hold no parent end of any pipe, so a parent that is gone reads as EOF.
        for parent_end in conns:
            parent_end.close()
        try:
            while True:
                ids, new = conn.recv()
                history.extend(new)  # this process's copy, the one run_share reads
                conn.send(run_share(ids))
        except (EOFError, ConnectionError):
            pass

    def run_batch(ids: range) -> list[TrialRecord]:
        nonlocal sent
        new, sent = history[sent:], len(history)
        try:
            # Every worker is idle here, having returned its last batch, so no
            # send waits on a worker that waits to send its results.
            for w, conn in enumerate(conns, 1):
                conn.send((ids[w::n], new))
            records = run_share(ids[0::n])
            for w, conn in enumerate(conns, 1):
                records += conn.recv()
        except (EOFError, ConnectionError):
            procs[w - 1].join()
            raise SearchError(f"the search worker running trials {list(ids[w::n])} "
                              f"died with exit status {procs[w - 1].exitcode}") from None
        return sorted(records, key=lambda r: r.trial_id)

    try:
        if n > 1:  # imported only here, so a process that forks no worker never pays for it
            import multiprocessing
            context = multiprocessing.get_context("fork")  # not the default from Python 3.14 on
        for _ in range(n - 1):
            conn, child_end = context.Pipe()
            conns.append(conn)
            proc = context.Process(target=serve, args=(child_end,))
            proc.start()
            procs.append(proc)
            child_end.close()
        yield run_batch
    finally:
        for conn in conns:
            conn.close()
        for proc in procs:
            proc.terminate()
            proc.join()


def run_study(config: StudyConfig, objective: Objective) -> StudyResult:
    """Run ``n_trials`` trials in batches of ``jobs`` concurrent trials.

    Trial t is proposed from exactly the trials with ids below t - t % jobs,
    which join the history and the trial log in id order once their batch has
    returned.  On Linux a batch is shared by min(jobs, n_trials, usable CPUs)
    processes, this one and workers forked once per study, each fitting the
    densities on its own copy of the history; at one process, or elsewhere, its
    trials run here in turn.  A crashing objective marks its trial failed and the
    study continues; if every trial fails the study raises :class:`AllTrialsFailedError`.
    """
    history: list[TrialRecord] = []

    def run_one(densities: Densities, trial_id: int) -> TrialRecord:
        rng = trial_rng(config.seed, trial_id, STREAM_SUGGEST)
        weights = tpe_suggest(densities, config.k, rng)  # random while densities is None
        t0 = time.perf_counter()
        value, n_mix, mse, mae, error = None, 0, {}, {}, None
        try:
            ev = objective(trial_id, weights)
            value, n_mix, mse, mae = (float(ev.objective), ev.n_mix,
                                      dict(ev.per_target_mse), dict(ev.per_target_mae))
        except Exception as exc:  # trial-level failure, study continues
            error = f"{type(exc).__name__}: {exc}"
            logger.debug("trial %d failed: %s", trial_id, error)
        if value is not None and not math.isfinite(value):
            value, error = None, f"non-finite objective {value}"
        return TrialRecord(objective=value, n_mix=n_mix, per_target_mse=mse,
                           per_target_mae=mae, trial_id=trial_id, weights=weights,
                           state=STATE_COMPLETE if error is None else STATE_FAILED,
                           error=error, wall_time_s=time.perf_counter() - t0)

    def run_share(ids: range) -> list[TrialRecord]:
        # Every trial of a batch sees the same history: fit its densities once.
        densities = fit_tpe(history, config.k) if config.sampler == "tpe" else None
        return [run_one(densities, t) for t in ids]

    with ExitStack() as stack:
        log_fh = stack.enter_context(open(config.trial_log, "w")) if config.trial_log else None
        shares = (min(config.jobs, config.n_trials, len(os.sched_getaffinity(0)))
                  if sys.platform == "linux" else 1)
        run_batch = stack.enter_context(_forked_workers(shares, history, run_share))
        best_objective = math.inf
        for start in range(0, config.n_trials, config.jobs):
            batch = run_batch(range(start, min(start + config.jobs, config.n_trials)))
            history.extend(batch)
            if log_fh is not None:
                log_fh.writelines(record.to_json() + "\n" for record in batch)
                log_fh.flush()
            best_objective = min([best_objective, *(r.objective for r in batch
                                                    if r.state == STATE_COMPLETE)])
            logger.info("trials %d/%d: objectives %s, best %.6g", len(history),
                        config.n_trials,
                        ", ".join("failed" if r.objective is None else f"{r.objective:.6g}"
                                  for r in batch), best_objective)

    result = StudyResult.from_trials(history, config.sampler_config())
    best = result.best_trial
    logger.info("study done: %d/%d trials complete, best objective %.6g (trial %d)",
                len(result.completed()), config.n_trials, best.objective,
                best.trial_id)
    return result


def load_trial_log(path: str | Path) -> list[TrialRecord]:
    return [TrialRecord.from_json(line) for line in Path(path).read_text().splitlines()
            if line.strip()]

