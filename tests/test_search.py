
import json
import logging
import math
import multiprocessing
import os
import signal
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mixsearch import search
from mixsearch.search import (
    EPS,
    N_CANDIDATES,
    N_STARTUP,
    STATE_COMPLETE,
    STREAM_MIXTURE,
    STREAM_SUGGEST,
    STREAM_TRAINER,
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
    fit_tpe,
    gamma_split,
    load_trial_log,
    mixture_counts,
    mixture_objective,
    ndtr,
    ndtri,
    random_suggest,
    round_half_up,
    run_study,
    tpe_suggest,
    trial_rng,
)


@pytest.fixture(autouse=True)
def no_worker_outlives_its_test():
    yield
    assert multiprocessing.active_children() == []


def record(trial_id, weights, objective, state="complete"):
    return TrialRecord(trial_id=trial_id, weights=np.atleast_1d(np.asarray(weights, float)),
                       n_mix=1, objective=objective, per_target_mse={},
                       per_target_mae={}, state=state,
                       error=None if state == "complete" else "boom",
                       wall_time_s=0.0)


def reference_tpe_suggest(history, k, rng):
    """The per-dimension TPE proposal: two one-row densities per dimension."""
    completed = [t for t in history if t.state == STATE_COMPLETE]
    if len(completed) < N_STARTUP:
        return random_suggest(k, rng)
    good, bad = gamma_split(completed)
    suggestion = np.empty(k, dtype=np.float64)
    for d in range(k):
        density_good = ParzenDensity([[t.weights[d] for t in good]])
        density_bad = ParzenDensity([[t.weights[d] for t in bad]])
        candidates = density_good.sample(rng, N_CANDIDATES)
        score = density_good.pdf(candidates) / (density_bad.pdf(candidates) + EPS)
        suggestion[d] = candidates[0, int(np.argmax(score))]
    return suggestion


def reference_pdf(density, x):
    """A one-row density's pdf at a vector ``x``, in one (m, n) broadcast."""
    obs, bw, mass = density.obs[0], density.bw[0], density.trunc_mass[0]
    z = (x[:, None] - obs[None, :]) / bw
    kernel = np.exp(-0.5 * z * z) / (bw * np.sqrt(2.0 * np.pi))
    return (1.0 + (kernel / mass).sum(axis=1)) / density.n_components


def reference_build_mixture(assignments, weights, rng):
    """The per-cluster mixture: one scan of the assignments and one
    ``round_half_up`` per cluster."""
    k = weights.shape[0]
    sizes = np.bincount(assignments, minlength=k)
    counts = np.array([round_half_up(sizes[c] * weights[c]) for c in range(k)],
                      dtype=np.int64)
    parts = []
    for c in range(k):
        members = np.flatnonzero(assignments == c)
        n_c = int(counts[c])
        if n_c == 0:
            continue
        if n_c < members.size:
            members = np.sort(rng.choice(members, size=n_c, replace=False))
        parts.append(members)
    return np.concatenate(parts) if parts else np.empty(0, np.int64), counts


@st.composite
def mixture_cases(draw):
    """Assignments over k clusters, some of them empty, and weights that
    include exact 0s and 1s and products landing on a half."""
    k = draw(st.sampled_from([1, 2, 5, 36]))
    used = draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=k, unique=True))
    assignments = np.asarray(draw(st.lists(st.sampled_from(used), min_size=1,
                                           max_size=400)), dtype=np.int64)
    weight = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))
    weights = np.asarray(draw(st.lists(weight, min_size=k, max_size=k)))
    return assignments, weights, draw(st.integers(0, 2**32 - 1))


def trial_lines(result):
    """Each trial's JSON line, without its wall time."""
    return [json.dumps({**json.loads(t.to_json()), "wall_time_s": None})
            for t in result.trials]


def quadratic_objective(center):
    def objective(trial_id, weights):
        return TrialEvaluation(objective=float(((weights - center) ** 2).sum()),
                               n_mix=1, per_target_mse={}, per_target_mae={})
    return objective


class TestBuildMixture:
    def test_half_weight_on_thousand(self):
        assignments = np.zeros(1000, dtype=np.int64)
        mix = build_mixture(assignments, np.array([0.5]), np.random.default_rng(0))
        assert np.bincount(assignments[mix], minlength=1)[0] == 500
        assert mix.size == 500

    def test_all_zero_weights_fail_the_trial(self):
        assignments = np.array([0, 0, 1, 1])
        with pytest.raises(EmptyMixtureError):
            build_mixture(assignments, np.array([0.0, 0.0]), np.random.default_rng(0))

    def test_all_ones_reproduce_the_full_set(self):
        rng = np.random.default_rng(0)
        assignments = rng.integers(0, 5, size=200)
        mix = build_mixture(assignments, np.ones(5), np.random.default_rng(0))
        assert mix.size == 200
        assert set(mix.tolist()) == set(range(200))

    def test_no_duplicate_indices(self):
        rng = np.random.default_rng(1)
        assignments = rng.integers(0, 4, size=300)
        idx = build_mixture(assignments, rng.uniform(size=4), np.random.default_rng(1))
        assert len(np.unique(idx)) == len(idx)

    def test_indices_belong_to_their_cluster(self):
        rng = np.random.default_rng(2)
        assignments = rng.integers(0, 3, size=120)
        mix = build_mixture(assignments, np.array([0.5, 0.9, 0.1]), np.random.default_rng(2))
        np.testing.assert_array_equal(assignments[mix], np.repeat(
            np.arange(3), np.bincount(assignments[mix], minlength=3)))

    def test_deterministic_per_seed(self):
        rng = np.random.default_rng(3)
        assignments = rng.integers(0, 3, size=90)
        w = np.array([0.3, 0.6, 0.8])
        a = build_mixture(assignments, w, np.random.default_rng(42))
        b = build_mixture(assignments, w, np.random.default_rng(42))
        np.testing.assert_array_equal(a, b)

    def test_round_half_up(self):
        assignments = np.zeros(3, dtype=np.int64)
        mix = build_mixture(assignments, np.array([0.5]), np.random.default_rng(0))
        assert np.bincount(assignments[mix], minlength=1)[0] == 2

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 10_000), st.floats(0.0, 1.0)),
                    min_size=1, max_size=40))
    @example([(1, 0.5), (5, 0.5), (0, 0.7), (8, 0.0625)])  # exact halves
    def test_mixture_counts_round_half_up_per_cluster(self, pairs):
        sizes = np.array([size for size, _ in pairs])
        weights = np.array([weight for _, weight in pairs])
        want = [round_half_up(size * weight) for size, weight in zip(sizes, weights)]
        assert mixture_counts(sizes, weights).tolist() == want

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 500), st.floats(0.0, 1.0))
    def test_count_within_half_of_product(self, size, weight):
        assignments = np.zeros(size, dtype=np.int64)
        try:
            mix = build_mixture(assignments, np.array([weight]), np.random.default_rng(0))
            n = int(np.bincount(assignments[mix], minlength=1)[0])
        except EmptyMixtureError:
            n = 0
        assert abs(n - size * weight) <= 0.5

    def test_rejects_bad_weights(self):
        with pytest.raises(SearchError, match=r"\[0, 1\]"):
            build_mixture(np.zeros(3, dtype=np.int64), np.array([1.2]),
                          np.random.default_rng(0))

    def test_rejects_nan_weights(self):
        with pytest.raises(SearchError, match=r"\[0, 1\]"):
            build_mixture(np.zeros(3, dtype=np.int64), np.array([np.nan]),
                          np.random.default_rng(0))

    @settings(max_examples=200, deadline=None)
    @given(mixture_cases())
    def test_matches_per_cluster_reference(self, case):
        assignments, weights, seed = case
        indices, counts = reference_build_mixture(assignments, weights,
                                                  np.random.default_rng(seed))
        if not counts.any():
            with pytest.raises(EmptyMixtureError):
                build_mixture(assignments, weights, np.random.default_rng(seed))
            return
        mix = build_mixture(assignments, weights, np.random.default_rng(seed))
        assert np.bincount(assignments[mix], minlength=len(weights)).tobytes() == counts.tobytes()
        assert mix.tobytes() == indices.tobytes()


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
        np.testing.assert_array_equal(ParzenDensity(np.empty((1, 0))).pdf(xs[None, :]),
                                      np.ones((1, 11)))

    def test_integral_is_one(self):
        rng = np.random.default_rng(0)
        xs = np.linspace(0.0, 1.0, 4001)
        for n in (1, 2, 5, 20, 60):
            obs = rng.uniform(size=(1, n))
            total = np.trapezoid(ParzenDensity(obs).pdf(xs[None, :])[0], xs)
            assert total == pytest.approx(1.0, abs=1e-3)

    def test_symmetric_observations_give_symmetric_density(self):
        at_03, at_07, at_01, at_09 = ParzenDensity([[0.3, 0.7]]).pdf([[0.3, 0.7, 0.1, 0.9]])[0]
        assert at_03 == pytest.approx(at_07, rel=1e-12)
        assert at_01 == pytest.approx(at_09, rel=1e-12)

    def test_samples_stay_in_domain(self):
        rng = np.random.default_rng(1)
        d = ParzenDensity(rng.uniform(size=(1, 8)))
        samples = d.sample(np.random.default_rng(2), 500)
        assert samples.min() >= 0.0 and samples.max() <= 1.0

    def test_density_peaks_near_observations(self):
        at_peak, at_tail = ParzenDensity([[0.5] * 10]).pdf([[0.5, 0.05]])[0]
        assert at_peak > at_tail

    def test_rejects_out_of_domain(self):
        with pytest.raises(SearchError):
            ParzenDensity([[1.5]])
        with pytest.raises(SearchError):
            ParzenDensity([[0.5]]).pdf([[-0.2]])

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 8), st.integers(0, 300), st.integers(0, 2**32 - 1),
           st.floats(0.01, 1.0))
    def test_skipped_lower_cdfs_keep_every_mass(self, k, n, seed, scale):
        # Observations scaled toward 0 put lower bounds on both sides of the
        # point where the density stops computing their CDF.
        obs = np.random.default_rng(seed).uniform(size=(k, n)) * scale
        density = ParzenDensity(obs)
        full = (ndtr((1.0 - density.obs) / density.bw)
                - ndtr((0.0 - density.obs) / density.bw))
        assert density.trunc_mass.tobytes() == full.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 20), st.integers(0, 40), st.integers(0, 2**32 - 1))
    def test_rows_match_one_dimensional_densities(self, k, n, seed):
        rng = np.random.default_rng(seed)
        obs = rng.uniform(size=(k, n))
        x = rng.uniform(size=(k, 7))
        rows = ParzenDensity(obs)
        pdf = rows.pdf(x)
        samples = rows.sample(np.random.default_rng(seed), 5)
        draw_rng = np.random.default_rng(seed)
        for r in range(k):
            single = ParzenDensity(obs[r:r + 1])
            assert pdf[r].tobytes() == single.pdf(x[r:r + 1])[0].tobytes()
            assert pdf[r].tobytes() == reference_pdf(single, x[r]).tobytes()
            assert samples[r].tobytes() == single.sample(draw_rng, 5)[0].tobytes()


def around(values, ulps=1):
    """Each value and its ``ulps`` nearest floats on either side."""
    out = []
    for v in values:
        lo = hi = float(v)
        out.append(lo)
        for _ in range(ulps):
            lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
            out += [lo, hi]
    return np.array(out)


def assert_same_bits(got, expected):
    assert got.dtype == expected.dtype == np.float64
    mismatch = got.view(np.int64) != expected.view(np.int64)
    assert not mismatch.any(), (got[mismatch][:5], expected[mismatch][:5])


MAXLOG = 7.09782712893383996843e2
# Where Cephes' ndtr, erf and erfc change branch, in z = |a| / sqrt(2); 6.5
# is where the upper tail stops evaluating exp.
NDTR_EDGES = [1 / math.sqrt(2), 1.0, 6.5, 8.0, math.sqrt(MAXLOG)]


class TestNormal:
    """ndtr and ndtri against scipy.special, bit for bit, where scipy is installed."""

    def test_ndtr_edge_cases(self):
        special = pytest.importorskip("scipy.special")
        # Each edge as an argument and as z, two ulps either side of the
        # scaled edge so the branch test itself flips.
        edges = around([e * s for e in NDTR_EDGES for s in (1.0, math.sqrt(2))], ulps=2)
        x = np.concatenate([edges, -edges, around([0.0, 5e-324]), -around([5e-324]),
                            [-0.0, math.inf, -math.inf, 37.5, -37.5, 40.0, -40.0]])
        assert_same_bits(ndtr(x), special.ndtr(x))

    def test_ndtri_edge_cases(self):
        special = pytest.importorskip("scipy.special")
        y = np.concatenate([around([math.exp(-2), 1 - math.exp(-2), 0.5, math.exp(-32),
                                    5e-324, 1.0 - 2**-53]),
                            [0.0, 1.0, 2.2250738585072014e-308, 1e-300]])
        assert_same_bits(ndtri(y), special.ndtri(y))
        assert np.isnan(ndtri(np.array([-0.5, 1.5, np.nan]))).all()

    def test_seeded_sweep_through_every_branch(self):
        # A one-ulp change to one coefficient moves well under 1% of results,
        # so this takes many arguments from each branch's range.
        special = pytest.importorskip("scipy.special")
        rng = np.random.default_rng(0)
        x = np.concatenate([rng.normal(size=20000) * 4, rng.uniform(-40.0, 40.0, 20000)])
        assert_same_bits(ndtr(x), special.ndtr(x))
        y = np.concatenate([rng.uniform(size=20000), np.exp(-rng.uniform(0.0, 40.0, 20000)),
                            -np.expm1(-rng.uniform(0.0, 36.0, 20000))])
        assert_same_bits(ndtri(y), special.ndtri(y))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(allow_nan=False), st.floats(-40.0, 40.0)),
                    min_size=1, max_size=64))
    def test_ndtr_matches_scipy(self, xs):
        special = pytest.importorskip("scipy.special")
        x = np.array(xs)
        assert_same_bits(ndtr(x), special.ndtr(x))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.one_of(st.floats(0.0, 1.0), st.floats(0.0, 1e-10)),
                    min_size=1, max_size=64))
    def test_ndtri_matches_scipy(self, ys):
        special = pytest.importorskip("scipy.special")
        y = np.array(ys)
        assert_same_bits(ndtri(y), special.ndtri(y))

    def test_ndtr_of_a_matrix_keeps_its_shape(self):
        x = np.linspace(-10.0, 10.0, 12).reshape(3, 4)
        np.testing.assert_array_equal(ndtr(x), ndtr(x.ravel()).reshape(3, 4))


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
        densities = fit_tpe(history, 2)
        draws = np.array([tpe_suggest(densities, 2, np.random.default_rng(s))
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
        densities = fit_tpe(history, 1)
        wins = sum(tpe_suggest(densities, 1, np.random.default_rng(s))[0] > 0.5
                   for s in range(200))
        assert wins >= 190  # probability >= 0.95 over rng seeds

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from([1, 2, 36]), st.integers(10, 300), st.integers(0, 2**32 - 1),
           st.floats(0.0, 0.5), st.integers(0, 3), st.integers(1, 17))
    def test_matches_per_dimension_reference(self, k, n_trials, seed, failed_share,
                                             objective_digits, weight_digits):
        # Few objective digits tie many trials; few weight digits tie observations
        # and put some on the domain edges.
        rng = np.random.default_rng(seed)
        history = []
        for t in range(n_trials):
            weights = np.round(rng.uniform(size=k), weight_digits)
            if rng.uniform() < failed_share:
                history.append(record(t, weights, None, state="failed"))
            else:
                history.append(record(t, weights, round(rng.uniform(), objective_digits)))
        expected = reference_tpe_suggest(history, k, np.random.default_rng(seed))
        got = tpe_suggest(fit_tpe(history, k), k, np.random.default_rng(seed))
        assert got.tobytes() == expected.tobytes()

    def test_memory_peak_of_one_proposal(self):
        # The densities' work buffer is bounded by rows per block, not by k.
        rng = np.random.default_rng(0)
        history = [record(t, rng.uniform(size=36), rng.uniform()) for t in range(300)]
        tracemalloc.start()
        try:
            tpe_suggest(fit_tpe(history, 36), 36, np.random.default_rng(1))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20

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

    @pytest.mark.parametrize("jobs", [1, 3, 4])
    def test_trial_proposed_from_earlier_batches(self, jobs):
        def objective(trial_id, weights):
            time.sleep(0.002 * ((-trial_id) % jobs))  # a batch's later trials finish first
            return TrialEvaluation(float(((weights - 0.4) ** 2).sum()), 1, {}, {})
        result = run_study(StudyConfig(n_trials=24, k=3, jobs=jobs, seed=11), objective)
        for t, trial in enumerate(result.trials):
            expected = tpe_suggest(fit_tpe(result.trials[:t - t % jobs], 3), 3,
                                   trial_rng(11, t, STREAM_SUGGEST))
            np.testing.assert_array_equal(trial.weights, expected)

    @pytest.mark.parametrize("jobs", [2, 4])
    def test_densities_fitted_once_per_batch(self, jobs, monkeypatch):
        fitted_at = []

        def counting_fit(history, k):
            densities = fit_tpe(history, k)
            if densities is not None:
                fitted_at.append(len(history))
            return densities

        def objective(trial_id, weights):
            return TrialEvaluation(float(((weights - 0.4) ** 2).sum()), 1, {}, {})
        monkeypatch.setattr(search, "fit_tpe", counting_fit)
        result = run_study(StudyConfig(n_trials=30, k=3, jobs=jobs, seed=11), objective)
        monkeypatch.undo()
        # Batch starts from the first with N_STARTUP completed trials on.
        assert fitted_at == [s for s in range(0, 30, jobs) if s >= N_STARTUP]
        for t, trial in enumerate(result.trials):
            expected = tpe_suggest(fit_tpe(result.trials[:t - t % jobs], 3), 3,
                                   trial_rng(11, t, STREAM_SUGGEST))
            assert trial.weights.tobytes() == expected.tobytes()

    def test_logs_progress_once_per_batch(self, caplog):
        def objective(trial_id, weights):
            if trial_id == 1:
                raise RuntimeError("synthetic crash")
            return TrialEvaluation(10.0 - trial_id, 1, {}, {})
        with caplog.at_level(logging.INFO, logger="mixsearch.search"):
            run_study(StudyConfig(n_trials=5, k=1, jobs=2, seed=0), objective)
        progress = [r.getMessage() for r in caplog.records
                    if r.getMessage().startswith("trials ")]
        assert progress == ["trials 2/5: objectives 10, failed, best 10",
                            "trials 4/5: objectives 8, 7, best 7",
                            "trials 5/5: objectives 6, best 6"]

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

    def test_trial_log_lines_of_each_outcome(self, tmp_path, monkeypatch):
        # A complete trial, one that raised, one with a non-finite objective and
        # one whose evaluation fails to copy, each as one exact trial-log line.
        def objective(trial_id, weights):
            if trial_id == 1:
                raise ValueError("bad mixture")
            if trial_id == 2:
                return TrialEvaluation(float("nan"), 5, {"a": 0.5}, {"a": 0.25})
            if trial_id == 3:
                return TrialEvaluation(1.0, 2, None, {})
            return TrialEvaluation(np.float64(0.25), 7, {"a": 0.25, "b": 0.75},
                                   {"a": 0.5, "b": 0.125})
        monkeypatch.setattr(search.time, "perf_counter", lambda: 1.5)  # wall_time_s 0.0
        log = tmp_path / "trials.jsonl"
        run_study(StudyConfig(n_trials=4, k=2, seed=0, trial_log=log), objective)
        tail = '"schema_version": 1, "state": "%s", "trial_id": %d, "wall_time_s": 0.0, '
        assert log.read_text().splitlines() == [
            '{"error": null, "n_mix": 7, "objective": 0.25, '
            '"per_target_mae": {"a": 0.5, "b": 0.125}, "per_target_mse": {"a": 0.25, "b": 0.75}, '
            + tail % ("complete", 0) + '"weights": [0.6369616873214543, 0.2697867137638703]}',
            '{"error": "ValueError: bad mixture", "n_mix": 0, "objective": null, '
            '"per_target_mae": {}, "per_target_mse": {}, '
            + tail % ("failed", 1) + '"weights": [0.8897387912781343, 0.5571380502062263]}',
            '{"error": "non-finite objective nan", "n_mix": 5, "objective": null, '
            '"per_target_mae": {"a": 0.25}, "per_target_mse": {"a": 0.5}, '
            + tail % ("failed", 2) + '"weights": [0.08082403917318748, 0.4024377919935872]}',
            '{"error": "TypeError: \'NoneType\' object is not iterable", "n_mix": 0, '
            '"objective": null, "per_target_mae": {}, "per_target_mse": {}, '
            + tail % ("failed", 3) + '"weights": [0.8949727407898387, 0.8604144367749376]}',
        ]


class TestMixtureObjective:
    def test_trial_trains_on_its_mixture_with_its_seed(self):
        assignments = np.array([0, 1, 1, 0, 2, 2, 1, 0, 2, 1, 0, 2])
        train_idx = np.arange(12) * 3 + 100
        weights = np.array([0.5, 1.0, 0.34])
        calls = []

        def score(idx, seed, tag):
            calls.append((idx, seed, tag))
            return TrialEvaluation(float(tag), idx.size, {}, {})
        objective = mixture_objective(score, train_idx, assignments, 17)
        for t in (0, 1, 5, -1):
            assert objective(t, weights) == TrialEvaluation(float(t), 7, {}, {})
            idx, seed, tag = calls[-1]
            np.testing.assert_array_equal(idx, train_idx[build_mixture(
                assignments, weights, trial_rng(17, t, STREAM_MIXTURE))])
            # The stream folds a negative trial id (the baseline's) to 32 bits.
            seq = np.random.SeedSequence((17, t & 0xFFFFFFFF, STREAM_TRAINER))
            assert (seed, tag) == (int(seq.generate_state(1)[0]), t)
        assert len({seed for _, seed, _ in calls}) == len(calls)


@pytest.mark.skipif(sys.platform != "linux", reason="trials run in forked workers on Linux alone")
class TestWorkers:
    @pytest.fixture
    def cpus(self, monkeypatch):
        """Set the usable-CPU count the study sees."""
        def set_cpus(n):
            monkeypatch.setattr(search.os, "sched_getaffinity", lambda pid: set(range(n)))
        return set_cpus

    @pytest.mark.parametrize("die, status", [(lambda: os._exit(3), 3),
                                              (lambda: os.kill(os.getpid(), signal.SIGKILL),
                                               -signal.SIGKILL)])
    def test_dead_worker_raises_one_search_error(self, cpus, die, status):
        def objective(trial_id, weights):
            if trial_id == 4:
                die()
            if trial_id == 5:
                time.sleep(60)  # its worker is stopped, not waited for
            return TrialEvaluation(float(weights.sum()), 1, {}, {})
        cpus(3)  # trials 4 and 5 run in the two forked workers, not here
        started = time.perf_counter()
        with pytest.raises(SearchError, match=rf"trials \[4\] died with exit status {status}$"):
            run_study(StudyConfig(n_trials=8, k=2, jobs=3, seed=0), objective)
        assert time.perf_counter() - started < 30

    def test_workers_ignore_sigint(self, cpus):
        def objective(trial_id, weights):
            if trial_id == 3:
                os.kill(os.getpid(), signal.SIGINT)  # a Ctrl-C reaches the workers too
            return TrialEvaluation(float(weights.sum()), 1, {}, {})
        cpus(2)
        result = run_study(StudyConfig(n_trials=6, k=2, jobs=2, seed=0), objective)
        assert len(result.completed()) == 6

    @pytest.mark.parametrize("exc", [RuntimeError, KeyboardInterrupt])
    def test_workers_reaped_when_the_parent_raises(self, cpus, exc, monkeypatch):
        calls = []

        def failing_fit(history, k):
            calls.append(len(multiprocessing.active_children()))
            if len(calls) == 3:
                raise exc("third batch")
            return fit_tpe(history, k)
        cpus(2)
        monkeypatch.setattr(search, "fit_tpe", failing_fit)
        with pytest.raises(exc, match="third batch"):
            run_study(StudyConfig(n_trials=12, k=2, jobs=2, seed=0), quadratic_objective(0.3))
        assert calls == [1, 1, 1]
        assert multiprocessing.active_children() == []

    def test_workers_capped_by_usable_cpus(self, cpus, monkeypatch):
        alive = []

        def sampling_fit(history, k):
            alive.append(len(multiprocessing.active_children()))
            return fit_tpe(history, k)

        def trials(n_cpus):
            cpus(n_cpus)
            return trial_lines(run_study(StudyConfig(n_trials=30, k=3, jobs=6, seed=4),
                                         quadratic_objective(0.3)))
        monkeypatch.setattr(search, "fit_tpe", sampling_fit)
        forked = trials(2)
        assert alive == [1] * 5
        alive.clear()
        assert trials(1) == forked
        assert alive == [0] * 5

    def test_search_process_runs_the_first_share(self, cpus):
        def objective(trial_id, weights):
            return TrialEvaluation(float(weights.sum()), os.getpid(), {}, {})
        cpus(4)
        result = run_study(StudyConfig(n_trials=12, k=2, jobs=4, seed=0), objective)
        by_share = [[t.n_mix for t in result.trials[share::4]] for share in range(4)]
        assert by_share[0] == [os.getpid()] * 3
        workers = {pid for share in by_share[1:] for pid in share}
        assert len(workers) == 3 and os.getpid() not in workers
        # Forked once per study: each share keeps its worker from batch to batch.
        assert all(len(set(share)) == 1 for share in by_share[1:])

    def test_workers_replicate_a_history_with_failed_trials(self, cpus):
        def objective(trial_id, weights):
            if trial_id % 5 == 2:
                raise RuntimeError(f"trial {trial_id} crashed")
            if trial_id % 7 == 3:
                return TrialEvaluation(math.nan, 1, {}, {})
            return TrialEvaluation(float(((weights - 0.3) ** 2).sum()), 1, {}, {})

        def trials(n_cpus):
            cpus(n_cpus)
            result = run_study(StudyConfig(n_trials=30, k=3, jobs=3, seed=5), objective)
            assert [t.trial_id for t in result.trials if t.state != STATE_COMPLETE] \
                == [2, 3, 7, 10, 12, 17, 22, 24, 27]
            return trial_lines(result)
        assert trials(3) == trials(1)
