
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsearch.search import (
    AllTrialsFailedError,
    EmptyMixtureError,
    ParzenDensity,
    SearchError,
    StudyConfig,
    StudyResult,
    TrialEvaluation,
    TrialRecord,
    build_mixture,
    default_gamma,
    gamma_split,
    load_trial_log,
    random_suggest,
    run_study,
    tpe_suggest,
    trial_rng,
)


def record(trial_id, weights, objective, state="complete"):
    return TrialRecord(trial_id=trial_id, weights=np.atleast_1d(np.asarray(weights, float)),
                       n_mix=1, objective=objective, per_target_mse={},
                       per_target_mae={}, state=state,
                       error=None if state == "complete" else "boom",
                       wall_time_s=0.0)


def quadratic_objective(center):
    def objective(trial_id, weights):
        return TrialEvaluation(objective=float(((weights - center) ** 2).sum()),
                               n_mix=1, per_target_mse={}, per_target_mae={})
    return objective


class TestBuildMixture:
    def test_half_weight_on_thousand(self):
        assignments = np.zeros(1000, dtype=np.int64)
        mix = build_mixture(assignments, np.array([0.5]), seed=0)
        assert mix.counts[0] == 500
        assert mix.total == 500

    def test_all_zero_weights_fail_the_trial(self):
        assignments = np.array([0, 0, 1, 1])
        with pytest.raises(EmptyMixtureError):
            build_mixture(assignments, np.array([0.0, 0.0]), seed=0)

    def test_all_ones_reproduce_the_full_set(self):
        rng = np.random.default_rng(0)
        assignments = rng.integers(0, 5, size=200)
        mix = build_mixture(assignments, np.ones(5), seed=0)
        assert mix.total == 200
        assert set(mix.indices.tolist()) == set(range(200))

    def test_no_duplicate_indices(self):
        rng = np.random.default_rng(1)
        assignments = rng.integers(0, 4, size=300)
        mix = build_mixture(assignments, rng.uniform(size=4), seed=1)
        idx = mix.indices
        assert len(np.unique(idx)) == len(idx)

    def test_indices_belong_to_their_cluster(self):
        rng = np.random.default_rng(2)
        assignments = rng.integers(0, 3, size=120)
        mix = build_mixture(assignments, np.array([0.5, 0.9, 0.1]), seed=2)
        np.testing.assert_array_equal(assignments[mix.indices],
                                      np.repeat(np.arange(3), mix.counts))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        assignments = rng.integers(0, 3, size=90)
        w = np.array([0.3, 0.6, 0.8])
        a = build_mixture(assignments, w, seed=42)
        b = build_mixture(assignments, w, seed=42)
        np.testing.assert_array_equal(a.indices, b.indices)

    def test_round_half_up(self):
        assignments = np.zeros(3, dtype=np.int64)
        assert build_mixture(assignments, np.array([0.5]), seed=0).counts[0] == 2

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 500), st.floats(0.0, 1.0))
    def test_count_within_half_of_product(self, size, weight):
        assignments = np.zeros(size, dtype=np.int64)
        try:
            mix = build_mixture(assignments, np.array([weight]), seed=0)
            n = int(mix.counts[0])
        except EmptyMixtureError:
            n = 0
        assert abs(n - size * weight) <= 0.5

    def test_rejects_bad_weights(self):
        with pytest.raises(SearchError, match=r"\[0, 1\]"):
            build_mixture(np.zeros(3, dtype=np.int64), np.array([1.2]), seed=0)


class TestGammaSplit:
    def test_four_trials_take_best(self):
        history = [record(i, 0.5, obj) for i, obj in enumerate([3.0, 1.0, 2.0, 4.0])]
        good, bad = gamma_split(history)
        assert [t.objective for t in good] == [1.0]
        assert sorted(t.objective for t in bad) == [2.0, 3.0, 4.0]

    def test_single_trial(self):
        good, bad = gamma_split([record(0, 0.5, 1.0)])
        assert len(good) == 1 and bad == []

    def test_cap_at_25(self):
        history = [record(i, 0.5, float(i)) for i in range(200)]
        good, _ = gamma_split(history)
        assert len(good) == 25

    def test_default_gamma_values(self):
        assert default_gamma(4) == 1
        assert default_gamma(60) == 15
        assert default_gamma(200) == 25

    def test_failed_trials_excluded(self):
        history = [record(0, 0.5, 1.0), record(1, 0.5, None, state="failed")]
        good, bad = gamma_split(history)
        assert len(good) + len(bad) == 1


class TestParzenDensity:
    def test_no_observations_is_uniform(self):
        xs = np.linspace(0.0, 1.0, 11)
        np.testing.assert_array_equal(ParzenDensity([]).pdf(xs), np.ones(11))

    def test_integral_is_one(self):
        rng = np.random.default_rng(0)
        xs = np.linspace(0.0, 1.0, 4001)
        for n in (1, 2, 5, 20, 60):
            obs = rng.uniform(size=n)
            total = np.trapezoid(ParzenDensity(obs).pdf(xs), xs)
            assert total == pytest.approx(1.0, abs=1e-3)

    def test_symmetric_observations_give_symmetric_density(self):
        d = ParzenDensity([0.3, 0.7])
        assert d.pdf(0.3) == pytest.approx(d.pdf(0.7), rel=1e-12)
        assert d.pdf(0.1) == pytest.approx(d.pdf(0.9), rel=1e-12)

    def test_samples_stay_in_domain(self):
        rng = np.random.default_rng(1)
        d = ParzenDensity(rng.uniform(size=8))
        samples = d.sample(np.random.default_rng(2), 500)
        assert samples.min() >= 0.0 and samples.max() <= 1.0

    def test_density_peaks_near_observations(self):
        d = ParzenDensity([0.5] * 10)
        assert d.pdf(0.5) > d.pdf(0.05)

    def test_rejects_out_of_domain(self):
        with pytest.raises(SearchError):
            ParzenDensity([1.5])
        with pytest.raises(SearchError):
            ParzenDensity([0.5]).pdf(-0.2)


class TestSuggest:
    def test_random_suggest_bounds_and_determinism(self):
        w = random_suggest(3, np.random.default_rng(0))
        assert w.shape == (3,)
        assert np.all((w >= 0.0) & (w <= 1.0))
        np.testing.assert_array_equal(w, random_suggest(3, np.random.default_rng(0)))

    def test_random_suggest_mean_near_half(self):
        rng = np.random.default_rng(1)
        draws = np.array([random_suggest(3, rng) for _ in range(10000)])
        np.testing.assert_allclose(draws.mean(axis=0), 0.5, atol=0.02)

    def test_startup_phase_is_uniform_random(self):
        history = [record(i, 0.5, 1.0) for i in range(9)]
        draws = np.array([tpe_suggest(history, 2, rng=np.random.default_rng(s))
                          for s in range(2000)])
        assert np.all((draws >= 0.0) & (draws <= 1.0))
        np.testing.assert_allclose(draws.mean(axis=0), 0.5, atol=0.03)
        np.testing.assert_allclose(draws.std(axis=0), np.sqrt(1 / 12), atol=0.03)

    def test_directional_pull_toward_good_region(self):
        rng = np.random.default_rng(42)
        history = []
        tid = 0
        for _ in range(10):
            history.append(record(tid, np.clip(rng.normal(0.9, 0.02), 0, 1),
                                  0.1 + rng.normal(0, 0.01)))
            tid += 1
        for _ in range(30):
            history.append(record(tid, np.clip(rng.normal(0.1, 0.02), 0, 1),
                                  1.0 + rng.normal(0, 0.01)))
            tid += 1
        wins = sum(tpe_suggest(history, 1, rng=np.random.default_rng(s))[0] > 0.5
                   for s in range(200))
        assert wins >= 190  # probability >= 0.95 over rng seeds

    def test_one_dimensional_quadratic_study(self):
        hits = 0
        for seed in range(10):
            config = StudyConfig(n_trials=50, k=1, seed=seed)
            result = run_study(config, quadratic_objective(0.7))
            hits += abs(result.best_trial.weights[0] - 0.7) <= 0.05
        assert hits >= 9


class TestRunStudy:
    def test_single_deterministic_trial(self):
        def objective(trial_id, weights):
            return TrialEvaluation(2.0, 3, {"t": 2.0}, {"t": 1.0})
        result = run_study(StudyConfig(n_trials=1, k=2, seed=0), objective)
        assert result.best_trial.objective == 2.0
        assert result.best_trial.n_mix == 3

    def test_separable_quadratic_k4(self):
        hits = 0
        for seed in range(10):
            config = StudyConfig(n_trials=60, k=4, seed=seed)
            result = run_study(config, quadratic_objective(0.5))
            hits += result.best_trial.objective < 0.02
        assert hits >= 8

    def test_parallel_jobs_produce_dense_unique_ids(self):
        def objective(trial_id, weights):
            return TrialEvaluation(float(weights.sum()), 1, {}, {})
        config = StudyConfig(n_trials=100, k=3, jobs=4, seed=0)
        result = run_study(config, objective)
        assert [t.trial_id for t in result.trials] == list(range(100))

    def test_objective_crash_fails_trial_not_study(self):
        def objective(trial_id, weights):
            if trial_id % 2 == 0:
                raise RuntimeError("synthetic crash")
            return TrialEvaluation(1.0, 1, {}, {})
        result = run_study(StudyConfig(n_trials=6, k=1, seed=0), objective)
        states = [t.state for t in result.trials]
        assert states == ["failed", "complete"] * 3
        assert "synthetic crash" in result.trials[0].error

    def test_all_failures_raise_study_error(self):
        def objective(trial_id, weights):
            raise EmptyMixtureError("nothing selected")
        with pytest.raises(AllTrialsFailedError):
            run_study(StudyConfig(n_trials=3, k=1, seed=0), objective)

    def test_best_is_minimum_by_rescan(self):
        rng = np.random.default_rng(5)
        def objective(trial_id, weights):
            return TrialEvaluation(float(rng.uniform()), 1, {}, {})
        result = run_study(StudyConfig(n_trials=20, k=2, seed=0, sampler="random"),
                           objective)
        best = min(t.objective for t in result.completed())
        assert result.best_trial.objective == best

    def test_bit_reproducible_with_single_job(self):
        def objective(trial_id, weights):
            rng = trial_rng(11, trial_id, 1)
            return TrialEvaluation(float(((weights - 0.4) ** 2).sum() + 0.001 * rng.uniform()),
                                   int(weights.sum() * 10) + 1, {}, {})
        a = run_study(StudyConfig(n_trials=25, k=3, seed=11), objective)
        b = run_study(StudyConfig(n_trials=25, k=3, seed=11), objective)
        for ta, tb in zip(a.trials, b.trials):
            assert ta.objective == tb.objective
            assert np.array_equal(ta.weights, tb.weights)
            assert ta.n_mix == tb.n_mix
        assert a.best_trial_id == b.best_trial_id

    def test_trial_log_roundtrip(self, tmp_path):
        log = tmp_path / "trials.jsonl"
        def objective(trial_id, weights):
            if trial_id == 2:
                raise ValueError("skip me")
            return TrialEvaluation(float(weights[0]), 4, {"t": 1.0}, {"t": 0.5})
        result = run_study(StudyConfig(n_trials=5, k=1, seed=3, trial_log=log),
                           objective)
        back = load_trial_log(log)
        assert len(back) == 5
        for orig, loaded in zip(result.trials, back):
            assert loaded.trial_id == orig.trial_id
            assert loaded.state == orig.state
            assert loaded.objective == orig.objective
            np.testing.assert_array_equal(loaded.weights, orig.weights)

    def test_best_weights_json(self):
        # The search stage writes best_weights.json from best_trial.weights.
        result = StudyResult.from_trials(
            [record(0, [0.2, 0.8], 1.0), record(1, [0.4, 0.6], 0.5)],
            k=2, sampler_config={})
        assert result.best_trial_id == 1
        np.testing.assert_array_equal(result.best_trial.weights, [0.4, 0.6])

    def test_dense_id_validation(self):
        with pytest.raises(SearchError, match="dense"):
            StudyResult.from_trials([record(0, 0.5, 1.0), record(2, 0.5, 2.0)],
                                    k=1, sampler_config={})

    def test_non_finite_objective_marks_failure(self):
        def objective(trial_id, weights):
            return TrialEvaluation(float("nan"), 1, {}, {})
        with pytest.raises(AllTrialsFailedError):
            run_study(StudyConfig(n_trials=2, k=1, seed=0), objective)
