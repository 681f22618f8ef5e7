"""Acceptance suite.

Each test prints one PASS/FAIL line (run with ``pytest -s`` to see them all)
and asserts the criterion at its stated tolerance.  The synthetic benchmark
plants 12 behavioral regimes of ~1,000 windows each, of which 3 carry the
input-target relationship the validation split is drawn from; everything
else is target noise.  A search that prefers small, signal-heavy mixtures
over the full corpus demonstrates the less-is-more effect end to end.
"""

import json
import sys
from itertools import combinations

import numpy as np
import pytest

from mixsearch import benchmark
from mixsearch.cli import main
from mixsearch.clustering import kmeans_fit
from mixsearch.dataset import derive_ewma, expected_window_count, make_windows
from mixsearch.dataset import split_and_scale
from mixsearch.search import (
    ParzenDensity,
    StudyConfig,
    build_mixture,
    run_study,
)
from mixsearch.trainers import (
    ExternalProtocol,
    TrainConfig,
    TrialContext,
    compute_epochs,
    init_patch_net,
    patch_net_loss_and_grads,
    sinusoidal_position_encoding,
    to_patches,
)

from conftest import make_table, make_window_set

N_SEEDS = 10
TRIALS = 60


def report(criterion: str, ok: bool, detail: str = "") -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}  {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def tpe_outcomes():
    return [benchmark.run_benchmark_study(seed, n_trials=TRIALS, sampler="tpe")
            for seed in range(N_SEEDS)]


@pytest.fixture(scope="module")
def random_outcomes():
    return [benchmark.run_benchmark_study(seed, n_trials=TRIALS, sampler="random")
            for seed in range(N_SEEDS)]


class TestCriterion01LessIsMore:
    def test_less_is_more_benchmark(self, tpe_outcomes):
        beats_baseline = 0
        small_enough = 0
        signal_over_noise = 0
        for outcome in tpe_outcomes:
            best = outcome.study.best_trial
            beats_baseline += best.objective < outcome.baseline.objective
            small_enough += outcome.best_mixture_fraction <= 0.60
            sig, noise = outcome.mean_weights()
            signal_over_noise += sig > noise
        ok = (beats_baseline >= 8 and small_enough >= 8 and signal_over_noise >= 8)
        report("01 synthetic-less-is-more", ok,
               f"beats baseline {beats_baseline}/10, size<=60% {small_enough}/10, "
               f"signal>noise {signal_over_noise}/10")


class TestCriterion02TpeVsRandom:
    def test_tpe_not_inferior_to_random(self, tpe_outcomes, random_outcomes):
        wins = sum(
            t.study.best_trial.objective <= r.study.best_trial.objective
            for t, r in zip(tpe_outcomes, random_outcomes))
        report("02 tpe-vs-random", wins >= 8, f"TPE <= random in {wins}/10 pairs")


class TestCriterion03ClusteringOracle:
    @staticmethod
    def brute_force(points):
        best = np.inf
        n = len(points)
        for r in range(1, n):
            for left in combinations(range(n), r):
                left = list(left)
                right = [i for i in range(n) if i not in left]
                cost = 0.0
                for side in (left, right):
                    block = points[side]
                    cost += ((block - block.mean(axis=0)) ** 2).sum()
                best = min(best, cost)
        return best

    def test_bipartition_optimum_and_monotone_lloyd(self):
        rng = np.random.default_rng(2024)
        worst_gap = 0.0
        for _ in range(20):
            n = int(rng.integers(3, 9))
            points = rng.normal(size=(n, 2))
            # tiny instances have many near-ties; extra restarts reach the optimum
            model = kmeans_fit(points, 2, seed=int(rng.integers(2**31)), n_init=20)
            gap = abs(model.inertia - self.brute_force(points))
            worst_gap = max(worst_gap, gap)
            hist = np.array(model.inertia_history)
            assert np.all(np.diff(hist) <= 1e-9 * np.maximum(1.0, hist[:-1]))
        report("03 clustering-oracle", worst_gap <= 1e-9,
               f"worst |inertia - brute force| = {worst_gap:.3g}")


class TestCriterion04MixtureArithmetic:
    def test_rounded_counts_within_half(self):
        rng = np.random.default_rng(7)
        sizes = rng.integers(1, 400, size=1000)
        weights = rng.uniform(size=1000)
        assignments = np.repeat(np.arange(1000), sizes)
        clusters = np.split(np.arange(assignments.size), np.cumsum(sizes)[:-1])
        mix = build_mixture(clusters, weights, np.random.default_rng(0))
        gaps = np.abs(np.bincount(assignments[mix], minlength=1000) - sizes * weights)
        full = build_mixture(clusters, np.ones(1000), np.random.default_rng(0))
        identity = set(full.tolist()) == set(range(int(sizes.sum())))
        ok = bool(np.all(gaps <= 0.5) and identity)
        report("04 mixture-arithmetic", ok,
               f"max |n_k - C_k*w_k| = {gaps.max():.3f}, full-set identity {identity}")


class TestCriterion05GradientCheck:
    def test_analytic_vs_central_differences(self):
        rng = np.random.default_rng(11)
        patch_len, c_in, w, embed, c_tgt = 5, 2, 20, 8, 2
        pe = sinusoidal_position_encoding(w // patch_len, embed)
        worst = 0.0
        for _ in range(5):
            x = to_patches(rng.normal(size=(4, w, c_in)), patch_len)
            y = rng.normal(size=(4, c_tgt))
            params = init_patch_net(patch_len * c_in, embed, c_tgt, rng)
            _, grads = patch_net_loss_and_grads(params, x, y, pe)
            for key, values in params.items():
                flat = values.ravel()
                gflat = grads[key].ravel()
                for i in range(flat.size):
                    orig = flat[i]
                    flat[i] = orig + 1e-4
                    up, _ = patch_net_loss_and_grads(params, x, y, pe)
                    flat[i] = orig - 1e-4
                    down, _ = patch_net_loss_and_grads(params, x, y, pe)
                    flat[i] = orig
                    fd = (up - down) / 2e-4
                    denom = max(abs(fd), abs(gflat[i]), 1e-8)
                    worst = max(worst, abs(fd - gflat[i]) / denom)
        report("05 gradient-check", worst < 1e-3, f"max relative error {worst:.3g}")


class TestCriterion06TokenBudget:
    def test_two_sided_accounting(self):
        rng = np.random.default_rng(13)
        ppw = 10  # 300-step windows with patch length 30
        ok = True
        for _ in range(50):
            budget = int(rng.integers(1, 10**8))
            n_windows = int(rng.integers(1, 10**6))
            epochs = compute_epochs(budget, n_windows, ppw)
            ok &= epochs * n_windows * ppw >= budget
            ok &= epochs == 1 or (epochs - 1) * n_windows * ppw < budget
        report("06 token-budget", ok, "50 random (budget, n_windows) pairs")


class TestCriterion07PreprocessingGoldens:
    def test_golden_values(self):
        ok = True
        # EWMA, span 3 (alpha = 0.5), hand-computed
        table = make_table(np.column_stack([[1.0, 3.0, 5.0, 7.0], np.zeros(4)]),
                           np.zeros(4))
        got = derive_ewma(table, [3]).values[:, 2]
        ok &= bool(np.all(np.abs(got - [1.0, 2.0, 3.5, 5.25]) <= 1e-12))
        const = derive_ewma(make_table(np.column_stack([[5.0] * 3, np.zeros(3)]),
                                       np.zeros(3)), [3]).values[:, 2]
        ok &= bool(np.all(np.abs(const - 5.0) <= 1e-12))

        # scaler endpoints on train [2, 4, 6], plus unclamped and degenerate cases
        table = make_table([[2.0, 7.0], [4.0, 7.0], [6.0, 7.0], [10.0, 7.0]],
                           [1, 1, 1, 9])
        scaled, _, _ = split_and_scale(table, {9}, set())
        ok &= abs(scaled.values[0, 0] - 0.0) <= 1e-12
        ok &= abs(scaled.values[1, 0] - 0.5) <= 1e-12
        ok &= abs(scaled.values[2, 0] - 1.0) <= 1e-12
        ok &= abs(scaled.values[3, 0] - 2.0) <= 1e-12   # outside train range, unclamped
        ok &= bool(np.all(scaled.values[:, 1] == 0.0))  # degenerate column

        # window counts against the closed form
        rng = np.random.default_rng(17)
        for rows, length, stride in [(300, 300, 1), (305, 300, 1), (299, 300, 1),
                                     (50, 7, 3), (64, 8, 8), (100, 1, 1)]:
            expected = expected_window_count(rows, length, stride)
            table = make_table(rng.normal(size=(rows, 2)), np.zeros(rows),
                               split=["train"] * rows)
            if expected == 0:
                continue
            ok &= len(make_windows(table, length, stride)) == expected
        report("07 preprocessing-goldens", ok, "EWMA, scaler, window counts")


class TestCriterion08Determinism:
    def test_end_to_end_byte_identical(self, tmp_path):
        csv_path = tmp_path / "raw.csv"
        schema = benchmark.write_raw_profile_csv(csv_path, seed=1,
                                                 profile_ids=tuple(range(8)),
                                                 rows_per_profile=300)
        schema_path = tmp_path / "schema.txt"
        schema_path.write_text("".join(f"{c}={r}\n" for c, r in schema.items()))
        outputs = []
        for name in ("one", "two"):
            out = tmp_path / name
            common = ["--out", str(out), "--seed", "5", "--log-level", "warning"]
            codes = [
                main(["preprocess", *common, "--data", str(csv_path),
                      "--schema", str(schema_path), "--ewma-spans", "8,32",
                      "--test-profiles", "7", "--val-profiles", "5,6",
                      "--window-length", "40", "--stride", "20"]),
                main(["embed", *common]),
                main(["cluster", *common, "--k", "6", "--restarts", "3"]),
                main(["search", *common, "--trials", "12", "--jobs", "1",
                      "--sampler", "tpe", "--trainer", "ridge"]),
                main(["report", *common]),
            ]
            assert codes == [0] * 5, codes
            outputs.append(out)
        same = all((outputs[0] / f).read_bytes() == (outputs[1] / f).read_bytes()
                   for f in ("summary.json", "weights.csv", "counts.csv"))
        report("08 determinism", same,
               "summary.json, weights.csv, counts.csv byte-identical")


class TestCriterion09ParzenNormalization:
    def test_density_integrates_to_one(self):
        rng = np.random.default_rng(23)
        xs = np.linspace(0.0, 1.0, 4001)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(0, 40))
            density = ParzenDensity(rng.uniform(size=(1, n)))
            total = float(np.trapezoid(density.pdf(xs[None, :])[0], xs))
            worst = max(worst, abs(total - 1.0))
        report("09 parzen-normalization", worst <= 1e-3,
               f"worst |integral - 1| = {worst:.2e}")


class TestCriterion10ExternalProtocol:
    STUBS = {
        "ok": (
            "import json, sys, pathlib\n"
            "d = pathlib.Path(sys.argv[1])\n"
            "cfg = json.loads((d / 'config.json').read_text())\n"
            "names = cfg['target_names']\n"
            "(d / 'metrics.json').write_text(json.dumps({\n"
            "    'mse': {n: 2.0 for n in names},\n"
            "    'mae': {n: 1.0 for n in names},\n"
            "    'avg_mse': 2.0}))\n"
        ),
        "crash": "import sys; sys.exit(9)\n",
        "malformed": (
            "import json, sys, pathlib\n"
            "d = pathlib.Path(sys.argv[1])\n"
            "(d / 'metrics.json').write_text(json.dumps({'mse': {}, 'mae': {},"
            " 'avg_mse': 2.0}))\n"
        ),
    }

    def test_stub_trainers_inside_a_study(self, tmp_path):
        rng = np.random.default_rng(0)
        windows = make_window_set(rng.normal(size=(30, 10, 2)),
                                  rng.normal(size=(30, 10, 2)),
                                  target_names=["pm", "winding"])
        contexts = {}
        for name, source in self.STUBS.items():
            stub = tmp_path / f"{name}.py"
            stub.write_text(source)
            protocol = ExternalProtocol(
                command=[sys.executable, str(stub), "{dir}"], timeout_s=30.0)
            contexts[name] = TrialContext(
                TrainConfig(trainer="external"), windows,
                protocol=protocol, handoff_root=tmp_path / f"handoff_{name}")
        kinds = ["ok", "crash", "ok", "malformed", "ok"]

        def objective(trial_id, weights):
            return contexts[kinds[trial_id]].score(np.arange(30), 0, trial_id)

        result = run_study(StudyConfig(n_trials=5, k=2, seed=0), objective)
        states = [t.state for t in result.trials]
        ok = (states == ["complete", "failed", "complete", "failed", "complete"]
              and result.best_trial.objective == 2.0
              and "exited 9" in result.trials[1].error
              and "per-target" in result.trials[3].error)
        report("10 external-protocol", ok,
               f"states {states}, best {result.best_trial.objective}")
