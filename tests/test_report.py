import csv
import io
import json

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
    TrialRecord,
    build_mixture,
    round_half_up,
)

from conftest import make_table, make_window_set


def fake_study(weights_list, objectives, k, sizes=None):
    sizes = sizes if sizes is not None else [1000] * k
    trials = [
        TrialRecord(trial_id=i, weights=np.asarray(w, dtype=np.float64),
                    n_mix=int(sum(round_half_up(s * wj) for s, wj in zip(sizes, w))),
                    objective=obj, per_target_mse={}, per_target_mae={},
                    state="complete", error=None, wall_time_s=0.0)
        for i, (w, obj) in enumerate(zip(weights_list, objectives))
    ]
    return StudyResult.from_trials(trials, k=k, sampler_config={"sampler": "tpe"})


def fake_assignments(sizes):
    """Cluster ids of training windows, ``sizes[c]`` of them in cluster c."""
    return np.repeat(np.arange(len(sizes)), sizes)


def metrics(avg):
    return avg


class TestEmitReports:
    def test_headline_improvement_arithmetic(self, tmp_path):
        k = 6
        study = fake_study([[0.5] * k, [0.4] * k], [1.37, 2.0], k)
        summary = emit_reports(study, fake_assignments([1000] * k),
                               metrics(1.70), None, tmp_path.joinpath)
        assert summary["relative_improvement"] == pytest.approx(0.1941, abs=1e-3)

    def test_full_data_best_trial_means_no_compression(self, tmp_path):
        k = 4
        study = fake_study([[1.0] * k], [0.5], k, sizes=[250] * k)
        summary = emit_reports(study, fake_assignments([250] * k),
                               metrics(0.6), None, tmp_path.joinpath)
        assert summary["compression_ratio"] == pytest.approx(1.0)

    def test_fractional_mixture_compression(self, tmp_path):
        # best mixture at 42.6% of the data compresses roughly 2.35x
        k = 2
        study = fake_study([[0.426, 0.426]], [0.5], k, sizes=[500, 500])
        summary = emit_reports(study, fake_assignments([500, 500]),
                               metrics(0.6), None, tmp_path.joinpath)
        assert summary["compression_ratio"] == pytest.approx(2.35, abs=0.01)

    def test_counts_match_mixture_builder(self, tmp_path):
        rng = np.random.default_rng(0)
        k = 5
        sizes = [120, 40, 310, 77, 53]
        weights = rng.uniform(size=k)
        study = fake_study([weights], [0.3], k)
        assignments = fake_assignments(sizes)
        emit_reports(study, assignments, metrics(0.5), None, tmp_path.joinpath)
        with (tmp_path / "counts.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        mixture = build_mixture(assignments, weights, np.random.default_rng(0))
        counts = np.bincount(assignments[mixture], minlength=k)
        for row in rows:
            c = int(row["cluster_id"])
            assert int(row["original_count"]) == sizes[c]
            assert int(row["weighted_count"]) == counts[c]

    def test_weights_sorted_descending_with_rank(self, tmp_path):
        k = 4
        study = fake_study([[0.1, 0.9, 0.5, 0.9]], [0.2], k)
        emit_reports(study, fake_assignments([10] * k), metrics(0.5),
                     None, tmp_path.joinpath)
        with (tmp_path / "weights.csv").open() as fh:
            rows = list(csv.DictReader(fh))
        assert [int(r["cluster_id"]) for r in rows] == [1, 3, 2, 0]  # tie: lower id first
        assert [int(r["rank"]) for r in rows] == [1, 2, 3, 4]

    def test_zero_baseline_warns_instead_of_dividing(self, tmp_path):
        # An external trainer may report avg_mse 0 for the all-ones baseline.
        k = 3
        study = fake_study([[0.5] * k], [0.4], k)
        summary = emit_reports(study, fake_assignments([10] * k), 0.0,
                               None, tmp_path.joinpath)
        assert json.loads((tmp_path / "summary.json").read_text()) == summary
        assert summary["baseline_avg_mse"] == 0.0
        assert "relative_improvement" not in summary
        assert "baseline avg_mse is 0" in summary["warning"]

    def test_sweep_rows_written(self, tmp_path):
        k = 3
        study = fake_study([[0.5] * k], [0.4], k)
        rows = [(0.25, 25, 0.9), (1.0, 100, 0.7)]
        emit_reports(study, fake_assignments([10] * k), metrics(0.8),
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
        manifest = export_review_bundle(study, fake_assignments([per] * k), windows,
                                        np.arange(k * per), m=3,
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
        for bad in (k, -1):
            assignments = np.append(fake_assignments([10] * k), bad)
            with pytest.raises(ReportError, match=r"outside \[0, 3\)"):
                emit_reports(study, assignments, metrics(0.5), None, tmp_path.joinpath)


class TestSizeSweep:
    @staticmethod
    def _score_fn(subset):
        return float(np.arange(100, dtype=np.float64)[subset].sum()) * 1e-3

    def test_full_fraction_reproduces_baseline_bitwise(self):
        rows = run_size_sweep([0.5, 1.0], seed=0, score_fn=self._score_fn,
                              n_train=100)
        baseline = self._score_fn(np.arange(100))
        full_row = [r for r in rows if r[0] == 1.0][0]
        assert full_row[2] == baseline
        assert full_row[1] == 100

    def test_structure_and_counts(self):
        rows = run_size_sweep([0.25, 0.5, 1.0], seed=1, score_fn=self._score_fn,
                              n_train=100)
        assert [r[0] for r in rows] == [0.25, 0.5, 1.0]
        assert [r[1] for r in rows] == [25, 50, 100]

    def test_deterministic_per_seed(self):
        a = run_size_sweep([0.3, 1.0], 7, self._score_fn, 100)
        b = run_size_sweep([0.3, 1.0], 7, self._score_fn, 100)
        assert a == b

    def test_must_include_full_fraction(self):
        with pytest.raises(ReportError, match="1.0"):
            run_size_sweep([0.5], 0, self._score_fn, 100)

    def test_rejects_out_of_range_fraction(self):
        with pytest.raises(ReportError, match=r"\(0, 1\]"):
            run_size_sweep([0.0, 1.0], 0, self._score_fn, 100)

    def test_zero_window_fraction(self):
        with pytest.raises(ReportError, match="zero windows"):
            run_size_sweep([0.001, 1.0], 0, self._score_fn, 100)


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
        manifest = export_review_bundle(study, fake_assignments([per] * k),
                                        self._windows(n), np.arange(n), m=10,
                                        review_dir=tmp_path / "review")
        files = list((tmp_path / "review").rglob("*.csv"))
        assert len(files) == 60
        assert (tmp_path / "review" / "prompt.txt").exists()
        assert len(manifest["clusters"]) == 6

    def test_m1_with_six_clusters_exports_six(self, tmp_path):
        k, per = 6, 4
        n = k * per
        study = fake_study([np.linspace(0.0, 1.0, k)], [0.1], k)
        export_review_bundle(study, fake_assignments([per] * k),
                             self._windows(n), np.arange(n),
                             m=1, review_dir=tmp_path / "review")
        files = list((tmp_path / "review").rglob("*.csv"))
        assert len(files) == 6

    def test_re_export_replaces_previous_bundle(self, tmp_path):
        k, per = 6, 5
        n = k * per
        study = fake_study([np.linspace(0.0, 1.0, k)], [0.1], k)
        for m in (3, 1):
            manifest = export_review_bundle(study, fake_assignments([per] * k),
                                            self._windows(n), np.arange(n),
                                            m=m, review_dir=tmp_path / "review")
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
        manifest = export_review_bundle(study, fake_assignments(sizes),
                                        self._windows(n), np.arange(n),
                                        m=5, review_dir=tmp_path / "review")
        entry = manifest["clusters"]["0"]
        assert entry["n_exported"] == 2
        assert "note" in entry

    def test_window_csv_contains_all_channels(self, tmp_path):
        k, per = 6, 5
        n = k * per
        study = fake_study([np.linspace(0.0, 1.0, k)], [0.1], k)
        export_review_bundle(study, fake_assignments([per] * k),
                             self._windows(n), np.arange(n), m=1,
                             review_dir=tmp_path / "review", seed=3)
        sample = next((tmp_path / "review").rglob("*/0.csv"))
        with sample.open() as fh:
            header = next(csv.reader(fh))
        assert header == ["t", "u_d", "u_q", "pm"]

    def test_assignment_outside_k_is_error(self, tmp_path):
        k, per = 6, 4
        n = k * per
        study = fake_study([np.linspace(0.0, 1.0, k)], [0.1], k)
        assignments = fake_assignments([per] * k)
        assignments[-1] = k
        with pytest.raises(ReportError, match=r"outside \[0, 6\)"):
            export_review_bundle(study, assignments, self._windows(n),
                                 np.arange(n), m=1, review_dir=tmp_path / "review")

    def test_prompt_mentions_selected_clusters(self, tmp_path):
        k, per = 7, 6
        n = k * per
        weights = np.linspace(0.0, 1.0, k)
        study = fake_study([weights], [0.1], k)
        export_review_bundle(study, fake_assignments([per] * k),
                             self._windows(n), np.arange(n), m=2,
                             review_dir=tmp_path / "review")
        prompt = (tmp_path / "review" / "prompt.txt").read_text()
        top, bottom = select_review_clusters(weights)
        for c in top + bottom:
            assert str(c) in prompt
