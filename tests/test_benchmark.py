import numpy as np
import pytest

from mixsearch import benchmark
from mixsearch.dataset import SPLIT_TEST, SPLIT_TRAIN, SPLIT_VAL
from mixsearch.report import run_size_sweep
from mixsearch.search import mixture_objective
from mixsearch.trainers import TrainConfig, TrialContext


@pytest.fixture(scope="module")
def outcome():
    return benchmark.run_benchmark_study(0, n_trials=60, windows_per_regime=400)


class TestCorpus:
    def test_split_composition(self):
        data = benchmark.generate_regime_corpus(1, windows_per_regime=50,
                                                val_per_signal=20, test_per_signal=10)
        ws = data.windows
        assert int(ws.split_mask(SPLIT_TRAIN).sum()) == 12 * 50
        assert int(ws.split_mask(SPLIT_VAL).sum()) == 3 * 20
        assert int(ws.split_mask(SPLIT_TEST).sum()) == 3 * 10
        # val and test windows come from signal regimes only
        for split in (SPLIT_VAL, SPLIT_TEST):
            regimes = data.regimes[ws.split_mask(split)]
            assert set(regimes.tolist()) <= set(data.signal_regimes)

    def test_generation_deterministic(self):
        a = benchmark.generate_regime_corpus(5, windows_per_regime=30)
        b = benchmark.generate_regime_corpus(5, windows_per_regime=30)
        assert a.windows.input_rows.tobytes() == b.windows.input_rows.tobytes()
        assert a.windows.target_rows.tobytes() == b.windows.target_rows.tobytes()
        assert a.windows.start.tobytes() == b.windows.start.tobytes()
        assert a.features.tobytes() == b.features.tobytes()

    def test_signal_targets_follow_inputs_noise_targets_do_not(self):
        data = benchmark.generate_regime_corpus(2, windows_per_regime=200)
        train = data.windows.split_mask(SPLIT_TRAIN)
        regimes = data.regimes[train]
        x = data.windows.gather(train)[:, -1, :]
        y = data.windows.targets[train][:, 0]
        for regime, should_correlate in ((0, True), (8, False)):
            mask = regimes == regime
            r = abs(np.corrcoef(x[mask, 0], y[mask])[0, 1])
            assert (r > 0.3) == should_correlate, (regime, r)


class TestOutcome:
    def test_clusters_mostly_pure(self, outcome):
        data, model = outcome.data, outcome.cluster_model
        train_regimes = data.regimes[data.train_indices]
        purity = np.mean([
            np.bincount(train_regimes[model.assignments == c]).max()
            / max(1, (model.assignments == c).sum())
            for c in range(model.k)])
        assert purity > 0.8

    def test_optimized_mixture_beats_every_random_subset_size(self, outcome):
        best_weights = np.asarray(outcome.study.best_trial.weights)
        data = outcome.data
        features = data.features.astype(np.float64)
        train_idx = data.train_indices

        context = TrialContext(TrainConfig(ridge_lambda=1e-3), data.windows,
                               features, split=SPLIT_TEST)
        optimized_test_mse = mixture_objective(
            context.score, outcome.clusters,
            outcome.study.sampler_config["seed"])(-2, best_weights).objective

        rows = run_size_sweep([0.25, 0.5, 0.75, 1.0], context.score, train_idx,
                              outcome.study.sampler_config["seed"])
        assert all(optimized_test_mse < mse for _, _, mse in rows), (
            optimized_test_mse, rows)

    def test_baseline_uses_every_training_window(self, outcome):
        n_train = outcome.data.train_indices.size
        assert outcome.study.best_trial.n_mix < n_train
        assert outcome.best_mixture_fraction == pytest.approx(
            outcome.study.best_trial.n_mix / n_train)
