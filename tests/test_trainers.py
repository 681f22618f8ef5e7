import json
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixsearch import trainers
from mixsearch.dataset import make_windows
from mixsearch.clustering import ClusteringError, kmeans_fit
from mixsearch.trainers import (
    PREDICT_BLOCK,
    ExternalProtocol,
    ExternalTrainerError,
    TrainConfig,
    TrainerError,
    TrainingDivergedError,
    TrialContext,
    compute_epochs,
    evaluate,
    external_trainer_invoke,
    init_patch_net,
    lr_at_step,
    patch_net_forward,
    patch_net_loss_and_grads,
    sinusoidal_position_encoding,
    to_patches,
    train_patch_net,
    train_ridge,
)

from conftest import make_table, make_window_set


def reference_planned_steps(budget, n, batch_size, ppw):
    """The step count planned by walking every step of every epoch until the
    cumulative token count first reaches the budget."""
    batch = min(batch_size, n)
    bounds = list(range(0, n, batch)) + [n]
    step_rows = [bounds[i + 1] - bounds[i] for i in range(len(bounds) - 1)]
    planned_steps = 0
    consumed = 0
    for _ in range(compute_epochs(budget, n, ppw)):
        for rows in step_rows:
            planned_steps += 1
            consumed += rows * ppw
            if consumed >= budget:
                return planned_steps
    return planned_steps


def linear_window_set(rng, n=60, w=20, c_in=2, c_tgt=2, noise=0.0, split=None):
    """Targets are an exact linear map of the inputs at every timestep."""
    inputs = rng.normal(size=(n, w, c_in))
    beta = np.array([[0.7, -0.2], [0.1, 0.5]])[:c_in, :c_tgt]
    targets = inputs @ beta + 0.3
    if noise:
        targets = targets + noise * rng.normal(size=targets.shape)
    return make_window_set(inputs, targets, split=split)


def m_sized_windows():
    """W=300 windows of an M-sized table: 240,000 rows of 15 inputs and one
    target, the first half tagged train and the second half val."""
    rows = 240_000
    table = make_table(np.random.default_rng(5).normal(size=(rows, 16)), np.ones(rows),
                       split=np.repeat(["train", "val"], rows // 2))
    return make_windows(table, 300, 1)


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


class TestComputeEpochs:
    def test_exact_division(self):
        assert compute_epochs(1_000_000, 10_000, 10) == 10

    def test_patches_per_window_from_patch_size(self):
        assert 300 // 30 == 10  # W=300 with patch 30

    def test_budget_below_one_epoch(self):
        assert compute_epochs(5, 1000, 10) == 1

    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 10**9), st.integers(1, 10**6))
    def test_two_sided_token_accounting(self, budget, n_windows):
        ppw = 10
        epochs = compute_epochs(budget, n_windows, ppw)
        assert epochs * n_windows * ppw >= budget
        assert epochs == 1 or (epochs - 1) * n_windows * ppw < budget

    def test_rejects_non_positive(self):
        with pytest.raises(TrainerError):
            compute_epochs(0, 10, 10)


class TestLrSchedule:
    def test_peak_at_warmup_end(self):
        # total 10, warmup 0.3 -> boundary 3; step 2 is the last warmup step
        assert lr_at_step(2, 10, 1e-4, 0.3) == pytest.approx(1e-4)

    def test_final_step_value(self):
        assert lr_at_step(9, 10, 1e-4, 0.3) == pytest.approx(1e-4 / 7)

    def test_first_step_value(self):
        assert lr_at_step(0, 10, 1e-4, 0.3) == pytest.approx(1e-4 / 3)

    def test_continuous_at_boundary(self):
        # the first decay step equals the peak exactly
        assert lr_at_step(3, 10, 1e-4, 0.3) == pytest.approx(1e-4)

    def test_non_negative_everywhere(self):
        for total in (1, 2, 7, 50):
            values = [lr_at_step(s, total, 1e-3, 0.3) for s in range(total)]
            assert all(v >= 0.0 for v in values)

    def test_step_bounds(self):
        with pytest.raises(TrainerError):
            lr_at_step(10, 10, 1e-4, 0.3)


class TestRidge:
    def test_interpolates_consistent_linear_system(self):
        rng = np.random.default_rng(0)
        n = 40
        feats = rng.normal(size=(n, 3))
        ws = make_window_set(rng.normal(size=(n, 5, 1)),
                             np.repeat((feats @ np.array([[0.5], [1.0], [-2.0]])
                                        + 0.7)[:, None, :], 5, axis=1),
                             split=["val"] * n)
        model = train_ridge(np.arange(n), ws, feats, 1e-9)
        pred = model.predict(TrialContext(TrainConfig(), ws, feats), np.arange(n))
        train_mse = float(((pred - ws.targets) ** 2).mean())
        assert train_mse < 1e-10

    def test_infinite_penalty_collapses_to_mean(self):
        rng = np.random.default_rng(1)
        n = 30
        feats = rng.normal(size=(n, 4))
        ws = linear_window_set(rng, n=n)
        model = train_ridge(np.arange(n), ws, feats, 1e12)
        assert np.abs(model.coef).max() < 1e-8
        np.testing.assert_allclose(model.intercept,
                                   ws.targets.mean(axis=0), atol=1e-8)

    def test_matches_normal_equations_oracle(self):
        rng = np.random.default_rng(2)
        n, d = 50, 6
        feats = rng.normal(size=(n, d))
        ws = make_window_set(rng.normal(size=(n, 4, 1)), rng.normal(size=(n, 4, 2)))
        lam = 0.37
        model = train_ridge(np.arange(n), ws, feats, lam)
        x1 = np.hstack([feats, np.ones((n, 1))])
        penalty = lam * np.eye(d + 1)
        penalty[-1, -1] = 0.0
        oracle = np.linalg.lstsq(x1.T @ x1 + penalty, x1.T @ ws.targets,
                                 rcond=None)[0]
        np.testing.assert_allclose(np.vstack([model.coef, model.intercept]),
                                   oracle, atol=1e-8)

    def test_local_optimality_against_perturbations(self):
        rng = np.random.default_rng(3)
        n, d = 40, 3
        feats = rng.normal(size=(n, d))
        ws = linear_window_set(rng, n=n, c_in=2, noise=0.3)
        lam = 0.5
        model = train_ridge(np.arange(n), ws, feats, lam)
        y = ws.targets

        def penalized_objective(coef, intercept):
            resid = feats @ coef + intercept - y
            return float((resid ** 2).sum() + lam * (coef ** 2).sum())

        base = penalized_objective(model.coef, model.intercept)
        for _ in range(1000):
            dc = rng.normal(scale=1e-3, size=model.coef.shape)
            di = rng.normal(scale=1e-3, size=model.intercept.shape)
            assert penalized_objective(model.coef + dc, model.intercept + di) >= base

    def test_deterministic(self):
        rng = np.random.default_rng(4)
        n = 25
        feats = rng.normal(size=(n, 3))
        ws = linear_window_set(rng, n=n, noise=0.1)
        a = train_ridge(np.arange(n), ws, feats, 0.1)
        b = train_ridge(np.arange(n), ws, feats, 0.1)
        assert a.coef.tobytes() == b.coef.tobytes()


class TestPatchNet:
    def _setup(self, seed=0, n=16, w=20, c_in=2, c_tgt=2, patch_len=5, embed=8):
        rng = np.random.default_rng(seed)
        x = to_patches(rng.normal(size=(n, w, c_in)), patch_len)
        y = rng.normal(size=(n, c_tgt))
        pe = sinusoidal_position_encoding(w // patch_len, embed)
        params = init_patch_net(patch_len * c_in, embed, c_tgt, rng)
        return params, x, y, pe

    def test_zero_weights_predict_head_bias(self):
        params, x, _, pe = self._setup()
        zeroed = {k: np.zeros_like(v) for k, v in params.items()}
        zeroed["b_head"] = np.array([0.3, -0.2])
        pred, _ = patch_net_forward(zeroed, x, pe)
        np.testing.assert_allclose(pred, np.tile([0.3, -0.2], (x.shape[0], 1)))

    def test_gradients_match_finite_differences(self):
        params, x, y, pe = self._setup(n=4)
        _, grads = patch_net_loss_and_grads(params, x, y, pe)
        step = 1e-4
        worst = 0.0
        for key, values in params.items():
            flat = values.ravel()
            gflat = grads[key].ravel()
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + step
                up, _ = patch_net_loss_and_grads(params, x, y, pe)
                flat[i] = orig - step
                down, _ = patch_net_loss_and_grads(params, x, y, pe)
                flat[i] = orig
                fd = (up - down) / (2 * step)
                denom = max(abs(fd), abs(gflat[i]), 1e-8)
                worst = max(worst, abs(fd - gflat[i]) / denom)
        assert worst < 1e-3

    def test_embed_gradient_matches_einsum_formula(self):
        params, x, y, pe = self._setup(n=256, w=300, c_in=15, patch_len=30, embed=32)
        assert x.shape == (256, 10, 450)
        _, grads = patch_net_loss_and_grads(params, x, y, pe)
        pred, (_, z, _) = patch_net_forward(params, x, pe)
        g_pred = 2.0 * (pred - y) / y.size
        d_pre = (g_pred @ params["w_head"].T)[:, None, :] / x.shape[1] * (1.0 - z * z)
        want = np.einsum("npi,npd->id", x, d_pre)
        np.testing.assert_allclose(grads["w_embed"], want, rtol=1e-12,
                                   atol=1e-12 * np.abs(want).max())

    def test_position_encoding_shape_and_values(self):
        pe = sinusoidal_position_encoding(4, 6)
        assert pe.shape == (4, 6)
        np.testing.assert_allclose(pe[0, 0::2], 0.0, atol=1e-15)  # sin(0)
        np.testing.assert_allclose(pe[0, 1::2], 1.0, atol=1e-15)  # cos(0)
        assert pe[1, 0] == pytest.approx(np.sin(1.0))

    def test_training_loss_decreases_on_learnable_task(self):
        rng = np.random.default_rng(5)
        ws = linear_window_set(rng, n=300, w=20, noise=0.02)
        config = TrainConfig(trainer="patch-net", token_budget=300 * 4 * 8,
                             batch_size=50, peak_lr=0.02, patch_len=5,
                             embed_dim=16, seed=7)
        model = train_patch_net(np.arange(300), ws, config)
        losses = model.epoch_losses[:5]
        drops = sum(losses[i + 1] <= losses[i] for i in range(len(losses) - 1))
        assert drops >= 4 - 1  # at least 3 of 4 transitions shrink
        assert losses[-1] < losses[0]

    def test_token_budget_overshoot_below_one_batch(self):
        rng = np.random.default_rng(6)
        ws = linear_window_set(rng, n=130, w=20)
        config = TrainConfig(trainer="patch-net", token_budget=3001, batch_size=32,
                             patch_len=5, embed_dim=8, seed=0)
        model = train_patch_net(np.arange(130), ws, config)
        ppw = 20 // 5
        assert model.tokens_consumed >= config.token_budget
        assert model.tokens_consumed - config.token_budget < config.batch_size * ppw

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 40), st.integers(1, 64), st.integers(1, 1000),
           st.sampled_from([4, 10, 20]))
    def test_planned_steps_match_reference(self, n, batch_size, budget, patch_len):
        ws = linear_window_set(np.random.default_rng(0), n=n, w=20)
        config = TrainConfig(trainer="patch-net", token_budget=budget,
                             batch_size=batch_size, patch_len=patch_len,
                             embed_dim=2, seed=0)
        totals = set()
        real_lr_at_step = trainers.lr_at_step

        def spy(step, total_steps, peak, warmup_fraction):
            totals.add(total_steps)
            return real_lr_at_step(step, total_steps, peak, warmup_fraction)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(trainers, "lr_at_step", spy)
            train_patch_net(np.arange(n), ws, config)
        assert totals == {reference_planned_steps(budget, n, batch_size,
                                                  20 // patch_len)}

    def test_seed_determinism(self):
        rng = np.random.default_rng(7)
        ws = linear_window_set(rng, n=80, w=20, noise=0.05)
        config = TrainConfig(trainer="patch-net", token_budget=5000, batch_size=32,
                             patch_len=5, embed_dim=8, seed=123)
        a = train_patch_net(np.arange(80), ws, config)
        b = train_patch_net(np.arange(80), ws, config)
        for key in a.params:
            assert a.params[key].tobytes() == b.params[key].tobytes()
        assert a.epoch_losses == b.epoch_losses

    def test_divergence_raises(self):
        rng = np.random.default_rng(8)
        ws = linear_window_set(rng, n=40, w=20)
        config = TrainConfig(trainer="patch-net", token_budget=40 * 4 * 50,
                             batch_size=20, peak_lr=1e160, patch_len=5,
                             embed_dim=8, seed=0)
        with pytest.raises(TrainingDivergedError):
            train_patch_net(np.arange(40), ws, config)

    def test_training_holds_one_batch_of_windows(self):
        ws = m_sized_windows()
        idx = np.arange(0, len(ws), 97)
        config = TrainConfig(trainer="patch-net", token_budget=idx.size * 10 * 2,
                             batch_size=256, patch_len=30, embed_dim=32)
        one_batch = 256 * 300 * 15 * np.dtype(np.float64).itemsize
        assert traced_peak(lambda: train_patch_net(idx, ws, config)) < 1.5 * one_batch

    def test_patch_length_must_divide_window(self):
        rng = np.random.default_rng(9)
        ws = linear_window_set(rng, n=10, w=20)
        config = TrainConfig(trainer="patch-net", patch_len=7, seed=0)
        with pytest.raises(TrainerError, match="divide"):
            train_patch_net(np.arange(10), ws, config)


class TestEvaluate:
    def test_perfect_predictions_score_zero(self):
        rng = np.random.default_rng(0)
        n = 30
        feats = rng.normal(size=(n, 3))
        ws = make_window_set(
            rng.normal(size=(n, 5, 1)),
            np.repeat((feats @ np.array([[1.0], [2.0], [3.0]]))[:, None, :], 5, axis=1),
            split=["val"] * n)
        model = train_ridge(np.arange(n), ws, feats, 1e-9)
        # trained on val windows themselves: exact interpolation
        metrics = evaluate(model, TrialContext(TrainConfig(), ws, feats))
        assert metrics.objective == pytest.approx(0.0, abs=1e-12)

    def test_constant_prediction_definition(self):
        rng = np.random.default_rng(1)
        n = 10
        feats = np.zeros((n, 2))
        ws = make_window_set(rng.normal(size=(n, 4, 1)), np.ones((n, 4, 1)),
                             split=["val"] * n, target_names=["pm"])
        from mixsearch.trainers import RidgeModel
        model = RidgeModel(coef=np.zeros((2, 1)), intercept=np.zeros(1))
        metrics = evaluate(model, TrialContext(TrainConfig(), ws, feats))
        assert metrics.per_target_mse["pm"] == pytest.approx(1.0)
        assert metrics.per_target_mae["pm"] == pytest.approx(1.0)

    def test_average_is_unweighted_mean_over_targets(self):
        rng = np.random.default_rng(2)
        n = 200
        feats = rng.normal(size=(n, 2))
        ws = linear_window_set(rng, n=n, noise=0.5, split=["val"] * n)
        model = train_ridge(np.arange(n), ws, feats, 1.0)
        metrics = evaluate(model, TrialContext(TrainConfig(), ws, feats))
        assert metrics.objective == pytest.approx(
            np.mean(list(metrics.per_target_mse.values())), rel=1e-12)

    def test_two_target_average_value(self):
        from mixsearch.trainers import RidgeModel
        # constant zero predictions against constant targets whose squares
        # are the wanted per-target MSEs: mean(0.65, 0.91) = 0.78
        n = 8
        feats = np.zeros((n, 1))
        targets = np.tile([np.sqrt(0.65), np.sqrt(0.91)], (n, 3, 1))
        ws = make_window_set(np.zeros((n, 3, 1)), targets, split=["val"] * n,
                             target_names=["a", "b"])
        model = RidgeModel(coef=np.zeros((1, 2)), intercept=np.zeros(2))
        metrics = evaluate(model, TrialContext(TrainConfig(), ws, feats))
        assert metrics.per_target_mse["a"] == pytest.approx(0.65, rel=1e-12)
        assert metrics.per_target_mse["b"] == pytest.approx(0.91, rel=1e-12)
        assert metrics.objective == pytest.approx(0.78, rel=1e-12)

    def test_never_reads_train_windows(self):
        rng = np.random.default_rng(3)
        n = 40
        feats = rng.normal(size=(n, 2))
        split = ["train"] * 20 + ["val"] * 20
        ws = linear_window_set(rng, n=n, split=split)
        model = train_ridge(np.arange(20), ws, feats, 0.01)
        before = evaluate(model, TrialContext(TrainConfig(), ws, feats))
        ws.targets[:20] = 1e9  # poison the train targets
        after = evaluate(model, TrialContext(TrainConfig(), ws, feats))
        assert before.objective == after.objective


class TestTrialContext:
    @pytest.mark.parametrize("split_tags, split, config, match", [
        (None, "train", TrainConfig(), "val or test"),
        (["train"] * 10, "val", TrainConfig(), "empty"),
        (["val"] * 10, "val", TrainConfig(trainer="external"), "protocol"),
    ], ids=["train_split", "empty_split", "external_without_protocol"])
    def test_unscorable_study_rejected(self, split_tags, split, config, match):
        rng = np.random.default_rng(4)
        ws = linear_window_set(rng, n=10, split=split_tags)
        with pytest.raises(TrainerError, match=match):
            TrialContext(config, ws, np.zeros((10, 1)), split=split)

    def test_scored_split_taken_once(self):
        rng = np.random.default_rng(6)
        ws = linear_window_set(rng, n=12, split=["train"] * 4 + ["val"] * 4 + ["test"] * 4)
        context = TrialContext(TrainConfig(), ws, rng.normal(size=(12, 2)), split="test")
        np.testing.assert_array_equal(context.scored_idx, np.arange(8, 12))
        np.testing.assert_array_equal(context.scored_targets, ws.targets[8:])

    def test_patch_net_reads_window_inputs(self):
        rng = np.random.default_rng(7)
        ws = linear_window_set(rng, n=40, w=20, split=["train"] * 30 + ["val"] * 10)
        config = TrainConfig(trainer="patch-net", token_budget=2000, batch_size=8,
                             patch_len=5, embed_dim=8, seed=0)
        context = TrialContext(config, ws)
        model = train_patch_net(np.arange(30), ws, config)
        pred, _ = patch_net_forward(model.params, to_patches(ws.inputs[30:], 5),
                                    model.pos_encoding)
        np.testing.assert_array_equal(model.predict(context, context.scored_idx), pred)
        metrics = context.score(np.arange(30), seed=0)
        assert metrics.n_mix == 30
        assert metrics.objective == evaluate(model, context, 30).objective

    def test_patch_net_predicts_in_blocks(self):
        rng = np.random.default_rng(8)
        n_val = 2 * PREDICT_BLOCK + 1
        ws = linear_window_set(rng, n=n_val + 10, w=20,
                               split=["train"] * 10 + ["val"] * n_val)
        config = TrainConfig(trainer="patch-net", patch_len=5, embed_dim=8)
        context = TrialContext(config, ws)
        model = trainers.PatchNetModel(
            params=init_patch_net(10, 8, 2, rng),
            pos_encoding=sinusoidal_position_encoding(4, 8), patch_len=5)
        pred, _ = patch_net_forward(model.params, to_patches(ws.inputs[10:], 5),
                                    model.pos_encoding)
        got = model.predict(context, context.scored_idx)
        assert got.shape == (n_val, 2)
        # The one-window last block may take a different BLAS path: rounding only.
        np.testing.assert_allclose(got, pred, rtol=1e-12, atol=1e-15)

    def test_prediction_holds_one_block_of_windows(self):
        ws = m_sized_windows()
        config = TrainConfig(trainer="patch-net", patch_len=30, embed_dim=32)
        context = TrialContext(config, ws)
        model = trainers.PatchNetModel(
            params=init_patch_net(30 * 15, 32, 1, np.random.default_rng(8)),
            pos_encoding=sinusoidal_position_encoding(10, 32), patch_len=30)
        idx = context.scored_idx[::25]
        assert idx.size > 10 * PREDICT_BLOCK
        one_block = PREDICT_BLOCK * 300 * 15 * np.dtype(np.float64).itemsize
        assert traced_peak(lambda: model.predict(context, idx)) < 1.5 * one_block


NAN = float("nan")


@pytest.mark.parametrize("build, error, match", [
    (lambda: TrainConfig(peak_lr=-1.0), TrainerError, "learning rate"),
    (lambda: TrainConfig(peak_lr=0.0), TrainerError, "learning rate"),
    (lambda: TrainConfig(peak_lr=NAN), TrainerError, "learning rate"),
    (lambda: TrainConfig(ridge_lambda=NAN), TrainerError, "ridge penalty"),
    (lambda: TrainConfig(ridge_lambda=float("inf")), TrainerError, "ridge penalty"),
    (lambda: train_ridge(np.arange(4), linear_window_set(np.random.default_rng(0), n=4),
                         np.zeros((4, 1)), NAN), TrainerError, "ridge penalty"),
    (lambda: ExternalProtocol(["x"], NAN), TrainerError, "timeout"),
    (lambda: kmeans_fit(np.arange(8.0).reshape(4, 2), k=2, tol=NAN),
     ClusteringError, "tol"),
    (lambda: kmeans_fit(np.arange(8.0).reshape(4, 2), k=2, n_init=0),
     ClusteringError, "n_init"),
], ids=["peak_lr_negative", "peak_lr_zero", "peak_lr_nan", "ridge_lambda_nan",
        "ridge_lambda_inf", "train_ridge_nan", "timeout_nan", "kmeans_tol_nan",
        "kmeans_n_init_zero"])
def test_non_finite_or_out_of_range_setting_rejected(build, error, match):
    with pytest.raises(error, match=match):
        build()


STUB_OK = """
import json, sys, pathlib
d = pathlib.Path(sys.argv[1])
assert (d / "mixture.csv").exists() and (d / "config.json").exists()
cfg = json.loads((d / "config.json").read_text())
names = cfg["target_names"]
metrics = {"mse": {n: 2.0 for n in names}, "mae": {n: 1.0 for n in names},
           "avg_mse": 2.0}
(d / "metrics.json").write_text(json.dumps(metrics))
"""

STUB_FAIL = "import sys; sys.exit(3)"

STUB_MALFORMED = """
import json, sys, pathlib
d = pathlib.Path(sys.argv[1])
(d / "metrics.json").write_text(json.dumps({"mse": {"pm": 2.0}, "mae": {}, "avg_mse": 2.0}))
"""


class TestExternalTrainer:
    def _ws(self):
        rng = np.random.default_rng(0)
        return linear_window_set(rng, n=12, c_tgt=2)

    def _protocol(self, tmp_path, source, timeout=30.0):
        stub = tmp_path / "stub.py"
        stub.write_text(source)
        return ExternalProtocol(command=[sys.executable, str(stub), "{dir}"],
                                timeout_s=timeout)

    def test_stub_round_trip(self, tmp_path):
        ws = self._ws()
        metrics = external_trainer_invoke(
            np.arange(12), ws, self._protocol(tmp_path, STUB_OK),
            TrainConfig(trainer="external"), tmp_path / "handoff")
        assert metrics.objective == 2.0
        assert set(metrics.per_target_mse) == set(ws.target_names)

    def test_nonzero_exit_reports_cause(self, tmp_path):
        with pytest.raises(ExternalTrainerError, match="exited 3"):
            external_trainer_invoke(
                np.arange(12), self._ws(), self._protocol(tmp_path, STUB_FAIL),
                TrainConfig(trainer="external"), tmp_path / "handoff")

    def test_missing_per_target_entry_is_schema_error(self, tmp_path):
        with pytest.raises(ExternalTrainerError, match="missing per-target"):
            external_trainer_invoke(
                np.arange(12), self._ws(), self._protocol(tmp_path, STUB_MALFORMED),
                TrainConfig(trainer="external"), tmp_path / "handoff")

    @pytest.mark.parametrize("payload, message", [
        ({"mse": {"pm": True}, "mae": {"pm": 1.0}, "avg_mse": 1.0},
         r"mse\['pm'\] is not a finite number"),
        ({"mse": {"pm": 1.0}, "mae": {"pm": False}, "avg_mse": 1.0},
         r"mae\['pm'\] is not a finite number"),
        ({"mse": {"pm": 1.0}, "mae": {"pm": 1.0}, "avg_mse": False},
         "avg_mse is not a finite number"),
    ], ids=["mse", "mae", "avg_mse"])
    def test_boolean_metric_rejected(self, payload, message):
        with pytest.raises(ExternalTrainerError, match=message):
            trainers._parse_external_metrics(payload, ["pm"], 3)

    def test_timeout(self, tmp_path):
        with pytest.raises(ExternalTrainerError, match="timed out"):
            external_trainer_invoke(
                np.arange(12), self._ws(),
                self._protocol(tmp_path, "import time; time.sleep(5)", timeout=0.4),
                TrainConfig(trainer="external"), tmp_path / "handoff")

    def test_handoff_files_contents(self, tmp_path):
        ws = self._ws()
        handoff = tmp_path / "handoff"
        external_trainer_invoke(np.arange(12), ws,
                                self._protocol(tmp_path, STUB_OK),
                                TrainConfig(trainer="external"), handoff)
        lines = (handoff / "mixture.csv").read_text().splitlines()
        assert lines[0] == "window_index"
        assert [int(x) for x in lines[1:]] == list(range(12))
        config = json.loads((handoff / "config.json").read_text())
        assert config["schema_version"] == 2
        assert "hidden_width" not in config["train"]
        assert config["target_names"] == ws.target_names
        assert config["n_windows"] == 12
