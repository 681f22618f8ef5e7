import csv
import io
import json
import math

import numpy as np
import pytest

from mixsearch.dataset import make_windows
from mixsearch.report import (
    ReportError,
    emit_reports,
    export_review_bundle,
    run_size_sweep,
    select_review_clusters,
)
from mixsearch.search import (
    StudyResult,
    TrialEvaluation,
    TrialRecord,
    build_mixture,
)

from conftest import make_table, make_window_set


def fake_study(weights_list, objectives, k, sizes=None):
    sizes = sizes if sizes is not None else [1000] * k
    trials = [
        TrialRecord(trial_id=i, weights=np.asarray(w, dtype=np.float64),
                    n_mix=sum(math.floor(s * wj + 0.5) for s, wj in zip(sizes, w)),
                    objective=obj, per_target_mse={}, per_target_mae={},
                    state="complete", error=None, wall_time_s=0.0)
        for i, (w, obj) in enumerate(zip(weights_list, objectives))
    ]
    return StudyResult.from_trials(trials, sampler_config={"sampler": "tpe"})


def fake_clusters(sizes):
    """Windows 0..n-1 split into consecutive clusters, ``sizes[c]`` of them in cluster c."""
    return np.split(np.arange(sum(sizes)), np.cumsum(sizes)[:-1])


def metrics(avg):
    return avg


class TestEmitReports:
    def test_headline_improvement_arithmetic(self, tmp_path):
        k = 6
        study = fake_study([[0.5] * k, [0.4] * k], [1.37, 2.0], k)
        summary = emit_reports(study, fake_clusters([1000] * k),
                               metrics(1.70), None, tmp_path.joinpath)
        assert summary["relative_improvement"] == pytest.approx(0.1941, abs=1e-3)

    def test_full_data_best_trial_means_no_compression(self, tmp_path):
        k = 4
        study = fake_study([[1.0] * k], [0.5], k, sizes=[250] * k)
        summary = emit_reports(study, fake_clusters([250] * k),
                               metrics(0.6), None, tmp_path.joinpath)
        assert summary["compression_ratio"] == pytest.approx(1.0)

    def test_fractional_mixture_compression(self, tmp_path):
        # best mixture at 42.6% of the data compresses roughly 2.35x
        k = 2
        study = fake_study([[0.426, 0.426]], [0.5], k, sizes=[500, 500])
        summary = emit_reports(study, fake_clusters([500, 500]),
                               metrics(0.6), None, tmp_path.joinpath)
        assert summary["compression_ratio"] == pytest.approx(2.35, abs=0.01)

    def test_counts_match_mixture_builder(self, tmp_path):
        rng = np.random.default_rng(0)
        k = 5
        sizes = [120, 40, 310, 77, 53]
        weights = rng.uniform(size=k)
        study = fake_study([weights], [0.3], k)
        clusters = fake_clusters(sizes)
        emit_reports(study, clusters, metrics(0.5), None, tmp_path.joinpath)
        with (tmp_path / "counts.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        mixture = build_mixture(clusters, weights, np.random.default_rng(0))
        counts = [np.isin(members, mixture).sum() for members in clusters]
        for row in rows:
            c = int(row["cluster_id"])
            assert int(row["original_count"]) == sizes[c]
            assert int(row["weighted_count"]) == counts[c]

    def test_weights_sorted_descending_with_rank(self, tmp_path):
        k = 4
        study = fake_study([[0.1, 0.9, 0.5, 0.9]], [0.2], k)
        emit_reports(study, fake_clusters([10] * k), metrics(0.5),
                     None, tmp_path.joinpath)
        with (tmp_path / "weights.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["cluster_id"]) for r in rows] == [1, 3, 2, 0]  # tie: lower id first
        assert [int(r["rank"]) for r in rows] == [1, 2, 3, 4]

    def test_zero_baseline_warns_instead_of_dividing(self, tmp_path):
        # An external trainer may report avg_mse 0 for the all-ones baseline.
        k = 3
        study = fake_study([[0.5] * k], [0.4], k)
        summary = emit_reports(study, fake_clusters([10] * k), 0.0,
                               None, tmp_path.joinpath)
        assert json.loads((tmp_path / "summary.json").read_text()) == summary
        assert summary["baseline_avg_mse"] == 0.0
        assert "relative_improvement" not in summary
        assert "baseline avg_mse is 0" in summary["warning"]

    def test_sweep_rows_written(self, tmp_path):
        k = 3
        study = fake_study([[0.5] * k], [0.4], k)
        rows = [(0.25, 25, 0.9), (1.0, 100, 0.7)]
        emit_reports(study, fake_clusters([10] * k), metrics(0.8),
                     rows, tmp_path.joinpath)
        with (tmp_path / "sweep.csv").open() as fh:
            got = list(csv.DictReader(fh))
        assert [float(r["fraction"]) for r in got] == [0.25, 1.0]
        assert [float(r["test_avg_mse"]) for r in got] == [0.9, 0.7]

    def test_window_csv_holds_its_window_rows(self, tmp_path):
        # Stride-1 windows share rows; each file still holds its own W rows,
        # as csv.writer writes each value's repr.
        n_rows, w, k, per = 61, 8, 6, 9
        table = make_table(np.random.default_rng(2).normal(size=(n_rows, 3)),
                           np.ones(n_rows), split=np.full(n_rows, "train"))
        windows = make_windows(table, w, 1)
        assert len(windows) == k * per
        study = fake_study([np.linspace(0.0, 1.0, k)], [0.1], k)
        manifest = export_review_bundle(study, fake_clusters([per] * k), windows, m=3,
                                        review_dir=tmp_path / "review", seed=3)
        for cluster, entry in manifest["clusters"].items():
            for j, widx in enumerate(entry["window_indices"]):
                rows = slice(windows.start[widx], windows.start[widx] + w)
                series = np.hstack([windows.input_rows[rows], windows.target_rows[rows]])
                want = io.StringIO()
                writer = csv.writer(want)
                writer.writerow(["t", "c0", "c1", "c2"])
                writer.writerows([t] + [repr(float(v)) for v in row]
                                 for t, row in enumerate(series))
                got = (tmp_path / "review" / cluster / f"{j}.csv").read_bytes()
                assert got == want.getvalue().encode()

    def test_assignment_outside_k_is_error(self, tmp_path):
        k = 3
        study = fake_study([[0.5] * k], [0.4], k)
        for n_clusters in (k - 1, k + 1):
            with pytest.raises(ReportError, match=f"weighs 3 clusters but the clustering "
                                                  f"has {n_clusters};"):
                emit_reports(study, fake_clusters([10] * n_clusters), metrics(0.5), None,
                             tmp_path.joinpath)
        assert list(tmp_path.iterdir()) == []


class TestSizeSweep:
    """The sweep over training windows 100..199, scored by a fake proxy whose
    objective is the sum of the window indices it trains on."""

    TRAIN_IDX = np.arange(100, 200)

    @staticmethod
    def _score(idx, seed, tag):
        return TrialEvaluation(objective=float(idx.sum()) * 1e-3, n_mix=idx.size,
                               per_target_mse={}, per_target_mae={})

    def _sweep(self, fractions, seed):
        """The sweep's rows and each (windows, trainer seed, row) it scored."""
        calls = []

        def score(idx, trainer_seed, tag):
            calls.append((idx, trainer_seed, tag))
            return self._score(idx, trainer_seed, tag)

        return run_size_sweep(fractions, score, self.TRAIN_IDX, seed), calls

    def test_full_fraction_reproduces_baseline_bitwise(self):
        rows, calls = self._sweep([0.5, 1.0], seed=0)
        assert calls[1][0].tobytes() == self.TRAIN_IDX.tobytes()
        assert rows[1] == (1.0, 100, self._score(self.TRAIN_IDX, 0, 0).objective)

    def test_structure_and_counts(self):
        rows, calls = self._sweep([0.25, 0.5, 0.125, 1.0], seed=1)
        assert [r[0] for r in rows] == [0.25, 0.5, 0.125, 1.0]
        assert [r[1] for r in rows] == [25, 50, 13, 100]  # 12.5 rounds half up
        assert [tag for _, _, tag in calls] == [0, 1, 2, 3]
        for (idx, _, _), (_, n, mse) in zip(calls, rows):
            assert idx.size == n and mse == self._score(idx, 0, 0).objective
            assert np.all(np.diff(idx) > 0) and np.isin(idx, self.TRAIN_IDX).all()

    def test_deterministic_per_seed(self):
        a, _ = self._sweep([0.3, 1.0], 7)
        assert self._sweep([0.3, 1.0], 7)[0] == a
        assert self._sweep([0.3, 1.0], 8)[0][0] != a[0]

    def test_zero_window_fraction(self):
        calls = []
        with pytest.raises(ReportError, match="fraction 0.004 selects zero windows"):
            run_size_sweep([1.0, 0.5, 0.004], lambda *args: calls.append(args),
                           self.TRAIN_IDX, 0)
        assert calls == []  # refused before any proxy trains


class TestReviewBundle:
    def _windows(self, n):
        rng = np.random.default_rng(0)
        return make_window_set(rng.normal(size=(n, 8, 2)), rng.normal(size=(n, 8, 1)),
                               input_names=["u_d", "u_q"], target_names=["pm"])

    def test_selection_is_rederivable_by_independent_sort(self):
        rng = np.random.default_rng(1)
        weights = rng.uniform(size=9)
        top, bottom = select_review_clusters(weights)
        assert top == sorted(range(9), key=lambda c: (-weights[c], c))[:3]
        rest = [c for c in range(9) if c not in top]
        assert bottom == sorted(rest, key=lambda c: (weights[c], c))[:3]

    def test_tie_at_third_rank_takes_lower_id(self):
        weights = np.array([0.9, 0.7, 0.7, 0.7, 0.1, 0.2, 0.05])
        top, _ = select_review_clusters(weights)
        assert top == [0, 1, 2]

    def test_needs_six_clusters(self):
        with pytest.raises(ReportError, match="at least 6"):
            select_review_clusters(np.array([0.1, 0.5, 0.9]))

    def test_sixty_files_for_default_m(self, tmp_path):
        k, per = 8, 30
        n = k * per
        study = fake_study([np.linspace(0.05, 0.95, k)], [0.1], k)
        manifest = export_review_bundle(study, fake_clusters([per] * k),
                                        self._windows(n), m=10,
                                        review_dir=tmp_path / "review")
        files = list((tmp_path / "review").rglob("*.csv"))
        assert len(files) == 60
        assert (tmp_path / "review" / "prompt.txt").exists()
        assert len(manifest["clusters"]) == 6

    def test_m1_with_six_clusters_exports_six(self, tmp_path):
        k, per = 6, 4
        n = k * per
        study = fake_study([np.linspace(0.0, 1.0, k)], [0.1], k)
        export_review_bundle(study, fake_clusters([per] * k),
                             self._windows(n), m=1, review_dir=tmp_path / "review")
        files = list((tmp_path / "review").rglob("*.csv"))
        assert len(files) == 6

    def test_re_export_replaces_previous_bundle(self, tmp_path):
        k, per = 6, 5
        n = k * per
        study = fake_study([np.linspace(0.0, 1.0, k)], [0.1], k)
        for m in (3, 1):
            manifest = export_review_bundle(study, fake_clusters([per] * k),
                                            self._windows(n), m=m, review_dir=tmp_path / "review")
        review = tmp_path / "review"
        for cluster, entry in manifest["clusters"].items():
            assert entry["n_exported"] == 1
            assert sorted(p.name for p in (review / cluster).iterdir()) == ["0.csv"]
        assert len(list(review.rglob("*.csv"))) == 6

    def test_small_cluster_exports_all_with_note(self, tmp_path):
        k = 6
        sizes = [2, 10, 10, 10, 10, 10]
        n = sum(sizes)
        weights = [0.99, 0.8, 0.7, 0.3, 0.2, 0.1]  # cluster 0 is top-1 but tiny
        study = fake_study([weights], [0.1], k)
        manifest = export_review_bundle(study, fake_clusters(sizes),
                                        self._windows(n), m=5, review_dir=tmp_path / "review")
        entry = manifest["clusters"]["0"]
        assert entry["n_exported"] == 2
        assert "note" in entry

    def test_window_csv_contains_all_channels(self, tmp_path):
        k, per = 6, 5
        n = k * per
        study = fake_study([np.linspace(0.0, 1.0, k)], [0.1], k)
        export_review_bundle(study, fake_clusters([per] * k),
                             self._windows(n), m=1,
                             review_dir=tmp_path / "review", seed=3)
        sample = next((tmp_path / "review").rglob("*/0.csv"))
        with sample.open() as fh:
            header = next(csv.reader(fh))
        assert header == ["t", "u_d", "u_q", "pm"]

    def test_assignment_outside_k_is_error(self, tmp_path):
        k, per = 6, 4
        n = k * per
        study = fake_study([np.linspace(0.0, 1.0, k)], [0.1], k)
        for n_clusters in (k - 1, k + 1):
            with pytest.raises(ReportError, match=f"weighs 6 clusters but the clustering "
                                                  f"has {n_clusters};"):
                export_review_bundle(study, fake_clusters([per] * n_clusters),
                                     self._windows(n + per), m=1,
                                     review_dir=tmp_path / "review")
        assert list(tmp_path.iterdir()) == []

    def test_prompt_mentions_selected_clusters(self, tmp_path):
        k, per = 7, 6
        n = k * per
        weights = np.linspace(0.0, 1.0, k)
        study = fake_study([weights], [0.1], k)
        export_review_bundle(study, fake_clusters([per] * k),
                             self._windows(n), m=2,
                             review_dir=tmp_path / "review")
        prompt = (tmp_path / "review" / "prompt.txt").read_text()
        top, bottom = select_review_clusters(weights)
        for c in top + bottom:
            assert str(c) in prompt
