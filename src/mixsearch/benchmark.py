"""Synthetic planted-regime benchmark.

The corpus contains :data:`N_REGIMES` behavioral regimes with distinct
levels, amplitudes and frequencies, so the statistical featurizer separates
them cleanly and k-means can recover them.  Targets follow one shared linear
law of the input channels inside the :data:`N_SIGNAL` "signal" regimes and
are pure noise elsewhere; validation and test windows come from the signal
regimes only.  Training on everything therefore dilutes the fit, while a
mixture concentrated on the signal regimes approaches the noise floor: the
setup rewards a search that learns to discard uninformative clusters.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import clustering, embedding, pipeline, search, trainers
from .dataset import SPLIT_TEST, SPLIT_TRAIN, SPLIT_VAL, DatasetError, WindowSet

logger = logging.getLogger(__name__)

N_REGIMES = 12
N_SIGNAL = 3        # regimes 0..N_SIGNAL-1 carry the target law
WINDOW_LENGTH = 32
KMEANS_RESTARTS = 3
N_INPUT_CHANNELS = 3
TARGET_NAMES = ["target_a", "target_b"]
# Shared linear law mapping the three input channels to the two targets.
TARGET_COEF = np.array([[0.6, -0.3],
                        [-0.4, 0.2],
                        [0.5, 0.55]])
TARGET_BIAS = np.array([0.25, 0.1])
TARGET_NOISE = 0.02
INPUT_NOISE = 0.03


@dataclass
class BenchmarkData:
    windows: WindowSet
    features: np.ndarray         # (windows, dims) float32
    regimes: np.ndarray          # true regime per window
    signal_regimes: tuple[int, ...]

    @property
    def train_indices(self) -> np.ndarray:
        return self.windows.split_indices(SPLIT_TRAIN)


def generate_regime_corpus(seed: int, windows_per_regime: int = 1000,
                           val_per_signal: int = 200,
                           test_per_signal: int = 200) -> BenchmarkData:
    """Build the planted-regime window corpus.

    Training windows cover every regime; val and test windows are fresh
    draws from the signal regimes.
    """
    if windows_per_regime < 1:
        raise DatasetError(f"windows per regime must be >= 1, got {windows_per_regime}")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 101)))

    blocks = []
    for regime in range(N_REGIMES):
        blocks.append((regime, SPLIT_TRAIN, windows_per_regime))
    for regime in range(N_SIGNAL):
        blocks.append((regime, SPLIT_VAL, val_per_signal))
    for regime in range(N_SIGNAL):
        blocks.append((regime, SPLIT_TEST, test_per_signal))

    inputs, targets, tags, regimes = [], [], [], []
    for regime, tag, count in blocks:
        x, y = _draw_regime_windows(rng, regime, count)
        inputs.append(x.reshape(-1, N_INPUT_CHANNELS))
        targets.append(y.reshape(-1, len(TARGET_NAMES)))
        tags.append(np.full(count, tag, dtype="U5"))
        regimes.append(np.full(count, regime, dtype=np.int64))

    # Windows are drawn independently, so they are laid out back to back:
    # window i is rows i*W .. (i+1)*W - 1.
    windows = WindowSet(
        input_rows=np.concatenate(inputs),
        target_rows=np.concatenate(targets),
        start=np.arange(sum(b[2] for b in blocks), dtype=np.int64) * WINDOW_LENGTH,
        split=np.concatenate(tags),
        window_length=WINDOW_LENGTH,
        input_names=[f"chan_{c}" for c in range(N_INPUT_CHANNELS)],
        target_names=list(TARGET_NAMES),
    )
    features = embedding.featurize_window_set(windows)
    return BenchmarkData(windows=windows, features=features,
                         regimes=np.concatenate(regimes),
                         signal_regimes=tuple(range(N_SIGNAL)))


def _draw_regime_windows(rng: np.random.Generator, regime: int, count: int):
    t = np.arange(WINDOW_LENGTH) / WINDOW_LENGTH
    level = regime / N_REGIMES
    # Amplitudes stay small relative to the level spacing so the phase-random
    # per-window statistics cannot blur regime boundaries in feature space.
    amplitude = 0.06 + 0.04 * (regime % 3)
    frequency = 1.0 + (regime % 4)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=(count, 1, 1))
    channel_shift = 0.08 * np.arange(N_INPUT_CHANNELS)

    wave = amplitude * np.sin(2.0 * np.pi * frequency * t[None, :, None] + phase)
    x = level + channel_shift + wave
    x = x + INPUT_NOISE * rng.standard_normal(x.shape)

    if regime < N_SIGNAL:
        y = x @ TARGET_COEF + TARGET_BIAS
        y = y + TARGET_NOISE * rng.standard_normal(y.shape)
    else:
        y = 0.5 + 0.2 * rng.standard_normal((count, WINDOW_LENGTH, len(TARGET_NAMES)))
    return x, y


@dataclass
class BenchmarkOutcome:
    data: BenchmarkData
    cluster_model: clustering.ClusterModel
    clusters: list[np.ndarray]     # each cluster's training-window indices, ascending
    study: search.StudyResult
    baseline: search.TrialEvaluation   # full-data mixture, all weights 1
    signal_clusters: np.ndarray   # bool per cluster: majority regime is a signal regime

    @property
    def best_mixture_fraction(self) -> float:
        return self.study.best_trial.n_mix / self.data.train_indices.size

    def mean_weights(self) -> tuple[float, float]:
        """(mean weight over signal clusters, mean weight over noise clusters)."""
        w = np.asarray(self.study.best_trial.weights)
        return float(w[self.signal_clusters].mean()), float(w[~self.signal_clusters].mean())


def signal_cluster_mask(data: BenchmarkData, clusters: list[np.ndarray]) -> np.ndarray:
    """Majority vote: a cluster is a signal cluster when most of its members
    come from a signal regime."""
    signal = set(data.signal_regimes)
    return np.array([members.size > 0 and np.bincount(data.regimes[members]).argmax() in signal
                     for members in clusters], dtype=bool)


def run_benchmark_study(master_seed: int, n_trials: int = 60,
                        sampler: str = "tpe", jobs: int = 1,
                        windows_per_regime: int = 1000) -> BenchmarkOutcome:
    """Full benchmark pass: generate and featurize, cluster into one cluster per
    planted regime, then search and score the baseline, as the stages do."""
    config = search.StudyConfig(n_trials=n_trials, k=N_REGIMES, jobs=jobs,
                                sampler=sampler, seed=master_seed)
    data = generate_regime_corpus(master_seed, windows_per_regime=windows_per_regime)
    train_idx = data.train_indices
    model = clustering.kmeans_fit(embedding.zscore_features(data.features, train_idx),
                                  N_REGIMES, seed=master_seed, n_init=KMEANS_RESTARTS)
    context = trainers.TrialContext(trainers.TrainConfig(), data.windows, data.features)
    clusters = [train_idx[members]
                for members in clustering.cluster_members(model.assignments, model.k)]
    study, baseline = pipeline.search_mixture(context, clusters, config)
    outcome = BenchmarkOutcome(
        data=data, cluster_model=model, clusters=clusters, study=study, baseline=baseline,
        signal_clusters=signal_cluster_mask(data, clusters))
    logger.info("benchmark seed %d: baseline mse %.5f, best mse %.5f, "
                "mixture fraction %.3f", master_seed, baseline.objective,
                study.best_trial.objective, outcome.best_mixture_fraction)
    return outcome


def write_raw_profile_csv(path, seed: int, profile_ids: tuple[int, ...] = tuple(range(8)),
                          rows_per_profile: int = 400) -> dict[str, str]:
    """Write a raw profile-grouped CSV exercising the whole ingestion path.

    Three measured input channels per profile with profile-specific level and
    oscillation, two targets following one linear law.  Returns the
    column-role schema for the file.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 205)))
    header = ["profile_id", "u_d", "u_q", "speed", "pm", "winding"]
    lines = [",".join(header)]
    n = len(profile_ids)
    for rank, pid in enumerate(profile_ids):
        t = np.arange(rows_per_profile) / rows_per_profile
        level = rank / n
        x = np.stack([
            level + 0.05 * np.sin(2 * np.pi * (1 + rank % 3) * t)
            + 0.02 * rng.standard_normal(rows_per_profile),
            level + 0.1 + 0.04 * np.cos(2 * np.pi * t)
            + 0.02 * rng.standard_normal(rows_per_profile),
            level + 0.2 + 0.02 * rng.standard_normal(rows_per_profile),
        ], axis=1)
        y = x @ np.array([[0.5, -0.2], [0.3, 0.6], [-0.4, 0.3]]) + 0.3
        y = y + 0.01 * rng.standard_normal(y.shape)
        for i in range(rows_per_profile):
            row = [str(pid)] + [repr(float(v)) for v in np.concatenate([x[i], y[i]])]
            lines.append(",".join(row))
    Path(path).write_text("\n".join(lines) + "\n")
    return {"profile_id": "id", "u_d": "input", "u_q": "input",
            "speed": "input", "pm": "target", "winding": "target"}
