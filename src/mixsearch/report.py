"""Turn a finished study into analysis artifacts.

Everything is emitted as plot-ready CSV/JSON: the ranked weight table, the
original-versus-weighted cluster counts, the dataset-size sweep, a summary
with compression ratio and relative improvement, and the review bundle of
sampled windows for qualitative inspection of the heaviest and lightest
clusters.
"""

from __future__ import annotations

import csv
import json
import logging
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .clustering import ClusterModel
from .dataset import WindowSet
from .search import StudyResult, round_half_up
from .trainers import TrialMetrics

logger = logging.getLogger(__name__)

SUMMARY_SCHEMA_VERSION = 1
_REVIEW_STREAM = 7  # seed-stream tag so review sampling is independent of trials


class ReportError(ValueError):
    pass


@dataclass
class ReportBundle:
    weights_rows: list[tuple[int, float, int]]       # (cluster, weight, rank)
    counts_rows: list[tuple[int, int, int]]          # (cluster, C_k, n_k)
    sweep_rows: list[tuple[float, int, float]]       # (fraction, n_windows, test mse)
    summary: dict
    paths: dict[str, Path]


def emit_reports(study: StudyResult, model: ClusterModel,
                 baseline: TrialMetrics | None,
                 sweep_rows: list[tuple[float, int, float]] | None,
                 out_dir: str | Path) -> ReportBundle:
    """Write weights.csv, counts.csv, sweep.csv and summary.json.

    The counts table recomputes n_k from the best trial's weights with the
    same rounding the mixture builder uses, so it matches what that trial
    trained on.  Without baseline metrics the summary carries a warning
    instead of an improvement figure.
    """
    if not study.completed():
        raise ReportError("study has no completed trials to report")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    best = study.best_trial
    weights = np.asarray(best.weights, dtype=np.float64)
    if weights.shape[0] != model.k:
        raise ReportError("study weights and cluster model disagree on k")

    order = sorted(range(model.k), key=lambda c: (-weights[c], c))
    weights_rows = [(c, float(weights[c]), rank + 1) for rank, c in enumerate(order)]
    counts_rows = [(c, int(model.sizes[c]), round_half_up(model.sizes[c] * weights[c]))
                   for c in range(model.k)]

    total_windows = int(model.sizes.sum())
    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "k": model.k,
        "best_trial_id": best.trial_id,
        "best_avg_mse": best.objective,
        "best_mixture_size": best.n_mix,
        "total_windows": total_windows,
        "compression_ratio": total_windows / best.n_mix,
        "sampler": study.sampler_config,
    }
    if baseline is not None:
        summary["baseline_avg_mse"] = baseline.avg_mse
        summary["relative_improvement"] = (baseline.avg_mse - best.objective) / baseline.avg_mse
    else:
        summary["warning"] = "no full-data baseline metrics; improvement omitted"
        logger.warning("emitting summary without a full-data baseline")

    paths = {
        "weights": out / "weights.csv",
        "counts": out / "counts.csv",
        "sweep": out / "sweep.csv",
        "summary": out / "summary.json",
    }
    with paths["weights"].open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster_id", "weight", "rank"])
        for c, w, rank in weights_rows:
            writer.writerow([c, repr(w), rank])
    with paths["counts"].open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster_id", "original_count", "weighted_count"])
        for row in counts_rows:
            writer.writerow(list(row))
    sweep_rows = list(sweep_rows or [])
    with paths["sweep"].open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fraction", "n_windows", "test_avg_mse"])
        for fraction, n_windows, mse in sweep_rows:
            writer.writerow([repr(float(fraction)), n_windows, repr(float(mse))])
    paths["summary"].write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return ReportBundle(weights_rows=weights_rows, counts_rows=counts_rows,
                        sweep_rows=sweep_rows, summary=summary, paths=paths)


def run_size_sweep(fractions: list[float], seed: int, score_fn,
                   n_train: int) -> list[tuple[float, int, float]]:
    """Test MSE of the proxy trained on uniform random subsets of the
    training windows, one row per fraction.

    ``score_fn(positions)`` trains on the given positions in
    ``[0, n_train)`` of the training windows and returns the test metric.
    Fraction 1.0 is required and uses every window, so it reproduces the
    full-data baseline exactly under the same seed.
    """
    fractions = [float(f) for f in fractions]
    if any(not 0.0 < f <= 1.0 for f in fractions):
        raise ReportError("fractions must lie in (0, 1]")
    if 1.0 not in fractions:
        raise ReportError("fractions must include 1.0")
    rows = []
    for i, fraction in enumerate(fractions):
        n_sub = round_half_up(fraction * n_train)
        if n_sub == 0:
            raise ReportError(f"fraction {fraction} selects zero windows")
        if n_sub >= n_train:
            subset = np.arange(n_train, dtype=np.int64)
        else:
            rng = np.random.default_rng(np.random.SeedSequence((seed, i)))
            subset = np.sort(rng.choice(n_train, size=n_sub, replace=False))
        mse = float(score_fn(subset))
        rows.append((fraction, int(n_sub), mse))
        logger.info("sweep fraction %.3f: %d windows, test mse %.6g",
                    fraction, n_sub, mse)
    return rows


# ---------------------------------------------------------------------------
# Review bundle

def select_review_clusters(weights: np.ndarray, n_top: int = 3,
                           n_bottom: int = 3) -> tuple[list[int], list[int]]:
    """Top and bottom clusters by weight; ties resolve to the lower id.

    The bottom set is drawn from clusters not already taken by the top set,
    so the selection always names distinct clusters.
    """
    k = weights.shape[0]
    if k < n_top + n_bottom:
        raise ReportError(f"need at least {n_top + n_bottom} clusters, have {k}")
    by_weight_desc = sorted(range(k), key=lambda c: (-weights[c], c))
    top = by_weight_desc[:n_top]
    remaining = [c for c in range(k) if c not in top]
    bottom = sorted(remaining, key=lambda c: (weights[c], c))[:n_bottom]
    return top, bottom


def export_review_bundle(study: StudyResult, model: ClusterModel,
                         windows: WindowSet, train_indices: np.ndarray,
                         m: int, out_dir: str | Path, seed: int = 0) -> dict:
    """Sample ``m`` windows from each of the 3 heaviest and 3 lightest
    clusters and write them as per-window CSV series plus the reviewer
    prompt.

    ``train_indices`` maps positions in ``model.assignments`` to window
    indices.  Clusters with fewer than ``m`` members export everything they
    have, with a note in the bundle manifest.
    """
    if m < 1:
        raise ReportError("m must be >= 1")
    weights = np.asarray(study.best_trial.weights, dtype=np.float64)
    if weights.shape[0] != model.k:
        raise ReportError("study weights and cluster model disagree on k")
    top, bottom = select_review_clusters(weights)

    out = Path(out_dir)
    review_dir = out / "review"
    review_dir.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _REVIEW_STREAM)))

    manifest: dict = {"clusters": {}, "m_requested": m,
                      "top_clusters": top, "bottom_clusters": bottom}
    for cluster in top + bottom:
        members = train_indices[model.assignments == cluster]
        n_take = min(m, members.size)
        note = None
        if n_take < m:
            note = f"cluster has only {members.size} windows, exported all of them"
            logger.warning("review cluster %d: %s", cluster, note)
        chosen = np.sort(rng.choice(members, size=n_take, replace=False))
        cdir = review_dir / str(cluster)
        cdir.mkdir(exist_ok=True)
        for j, widx in enumerate(chosen):
            _write_window_csv(windows, int(widx), cdir / f"{j}.csv")
        entry = {"weight": float(weights[cluster]), "n_exported": int(n_take),
                 "window_indices": [int(w) for w in chosen]}
        if note:
            entry["note"] = note
        manifest["clusters"][str(cluster)] = entry

    prompt = _render_prompt(weights, top, bottom, m)
    (review_dir / "prompt.txt").write_text(prompt)
    (review_dir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")
    return manifest


def _write_window_csv(windows: WindowSet, widx: int, path: Path) -> None:
    names = windows.input_names + windows.target_names
    series = np.hstack([windows.inputs[widx], windows.targets[widx]])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + names)
        for t in range(series.shape[0]):
            writer.writerow([t] + [repr(float(v)) for v in series[t]])


def _render_prompt(weights: np.ndarray, top: list[int], bottom: list[int],
                   m: int) -> str:
    template = resources.files("mixsearch.templates").joinpath(
        "review_prompt.txt").read_text()

    def fmt(ids: list[int]) -> str:
        return ", ".join(f"{c} (weight {weights[c]:.3f})" for c in ids)

    return template.format(
        n_samples=m,
        top_clusters=fmt(top),
        bottom_clusters=fmt(bottom),
    )
