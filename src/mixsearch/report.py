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
import shutil
from collections.abc import Callable
from importlib import resources
from pathlib import Path

import numpy as np

from . import MixsearchError
from .dataset import WindowSet
from .search import StudyResult, mixture_counts, round_half_up

logger = logging.getLogger(__name__)

SUMMARY_SCHEMA_VERSION = 1
STUDY_SCHEMA_VERSION = 1  # study.json, written by the search stage
SWEEP_SCHEMA_VERSION = 1  # sweep.json, written by the sweep stage
_REVIEW_STREAM = 7  # seed-stream tag so review sampling is independent of trials
REVIEW_TOP = 3
REVIEW_BOTTOM = 3


class ReportError(MixsearchError, ValueError):
    pass


def _cluster_sizes(weights: np.ndarray, assignments: np.ndarray) -> np.ndarray:
    """Member count per cluster; every id must lie in ``[0, len(weights))``."""
    k = weights.shape[0]
    if np.any(assignments < 0) or np.any(assignments >= k):
        raise ReportError(f"cluster assignments reference clusters outside [0, {k})")
    return np.bincount(assignments, minlength=k)


def emit_reports(study: StudyResult, assignments: np.ndarray, baseline: float,
                 sweep_rows: list[tuple[float, int, float]] | None,
                 path_of: Callable[[str], Path]) -> dict:
    """Write ``weights.csv``, ``counts.csv``, ``sweep.csv`` and
    ``summary.json``, each file ``name`` to ``path_of(name)``, and return the
    summary.

    ``assignments`` holds the cluster id of every training window.  The
    counts table recomputes n_k from the best trial's weights with the
    mixture builder's own :func:`~.search.mixture_counts`, so it matches
    what that trial trained on.  ``baseline`` is the full-data average MSE;
    when it is 0, the summary warns instead of giving an improvement figure.
    """
    if not study.completed():
        raise ReportError("study has no completed trials to report")
    best = study.best_trial
    weights = np.asarray(best.weights, dtype=np.float64)
    sizes = _cluster_sizes(weights, assignments)
    k = weights.shape[0]

    order = sorted(range(k), key=lambda c: (-weights[c], c))
    weights_rows = [(c, float(weights[c]), rank + 1) for rank, c in enumerate(order)]
    counts = mixture_counts(sizes, weights)
    counts_rows = [(c, int(sizes[c]), int(counts[c])) for c in range(k)]

    total_windows = int(sizes.sum())
    summary = {
        "schema_version": SUMMARY_SCHEMA_VERSION,
        "k": k,
        "best_trial_id": best.trial_id,
        "best_avg_mse": best.objective,
        "best_mixture_size": best.n_mix,
        "total_windows": total_windows,
        "compression_ratio": total_windows / best.n_mix,
        "sampler": study.sampler_config,
        "baseline_avg_mse": baseline,
    }
    if baseline:
        summary["relative_improvement"] = (baseline - best.objective) / baseline
    else:
        summary["warning"] = "full-data baseline avg_mse is 0; improvement omitted"
        logger.warning("summary: %s", summary["warning"])

    _write_csv(path_of("weights.csv"), ["cluster_id", "weight", "rank"],
               ([c, repr(w), rank] for c, w, rank in weights_rows))
    _write_csv(path_of("counts.csv"),
               ["cluster_id", "original_count", "weighted_count"], counts_rows)
    _write_csv(path_of("sweep.csv"), ["fraction", "n_windows", "test_avg_mse"],
               ([repr(float(f)), n, repr(float(mse))] for f, n, mse in sweep_rows or []))
    write_json(path_of("summary.json"), summary)
    return summary


def write_json(path: Path, payload) -> None:
    """Write ``payload`` as the indented, key-sorted JSON of every product."""
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


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

def select_review_clusters(weights: np.ndarray) -> tuple[list[int], list[int]]:
    """The :data:`REVIEW_TOP` heaviest and :data:`REVIEW_BOTTOM` lightest
    clusters; ties resolve to the lower id.

    The bottom set is drawn from clusters not already taken by the top set,
    so the selection always names distinct clusters.
    """
    k = weights.shape[0]
    if k < REVIEW_TOP + REVIEW_BOTTOM:
        raise ReportError(
            f"need at least {REVIEW_TOP + REVIEW_BOTTOM} clusters, have {k}")
    by_weight_desc = sorted(range(k), key=lambda c: (-weights[c], c))
    top = by_weight_desc[:REVIEW_TOP]
    remaining = [c for c in range(k) if c not in top]
    bottom = sorted(remaining, key=lambda c: (weights[c], c))[:REVIEW_BOTTOM]
    return top, bottom


def export_review_bundle(study: StudyResult, assignments: np.ndarray,
                         windows: WindowSet, train_indices: np.ndarray,
                         m: int, review_dir: Path, seed: int = 0) -> dict:
    """Sample ``m`` windows from each cluster :func:`select_review_clusters`
    names and write them into ``review_dir`` as per-window CSV series plus
    the reviewer prompt.  The bundle replaces a previous one there whole.

    ``assignments[i]`` is the cluster of window ``train_indices[i]``.
    Clusters with fewer than ``m`` members export everything they have,
    with a note in the bundle manifest.
    """
    if m < 1:
        raise ReportError("m must be >= 1")
    weights = np.asarray(study.best_trial.weights, dtype=np.float64)
    _cluster_sizes(weights, assignments)
    top, bottom = select_review_clusters(weights)

    if review_dir.exists():
        shutil.rmtree(review_dir)
    review_dir.mkdir(parents=True)
    rng = np.random.default_rng(np.random.SeedSequence((seed, _REVIEW_STREAM)))

    manifest: dict = {"clusters": {}, "m_requested": m,
                      "top_clusters": top, "bottom_clusters": bottom}
    chosen_by_cluster = {}
    for cluster in top + bottom:
        members = train_indices[assignments == cluster]
        n_take = min(m, members.size)
        note = None
        if n_take < m:
            note = f"cluster has only {members.size} windows, exported all of them"
            logger.warning("review cluster %d: %s", cluster, note)
        chosen = chosen_by_cluster[cluster] = np.sort(
            rng.choice(members, size=n_take, replace=False))
        entry = {"weight": float(weights[cluster]), "n_exported": int(n_take),
                 "window_indices": [int(w) for w in chosen]}
        if note:
            entry["note"] = note
        manifest["clusters"][str(cluster)] = entry

    # The sampled windows overlap, so each table row they cover is formatted
    # once, as its CSV line without the time step. A window's W rows are
    # consecutive in the sorted union.
    w = windows.window_length
    rows = np.unique(windows.start[np.concatenate(list(chosen_by_cluster.values()))][:, None]
                     + np.arange(w))
    series = np.hstack([windows.input_rows[rows], windows.target_rows[rows]]).tolist()
    lines = [",".join(map(repr, values)) for values in series]
    header = ["t"] + windows.input_names + windows.target_names
    for cluster, chosen in chosen_by_cluster.items():
        cdir = review_dir / str(cluster)
        cdir.mkdir()
        for j, pos in enumerate(np.searchsorted(rows, windows.start[chosen]).tolist()):
            _write_window_csv(header, lines[pos:pos + w], cdir / f"{j}.csv")

    prompt = _render_prompt(weights, top, bottom, m)
    (review_dir / "prompt.txt").write_text(prompt)
    write_json(review_dir / "manifest.json", manifest)
    return manifest


def _write_window_csv(header: list[str], lines: list[str], path: Path) -> None:
    """The CSV of one window: ``header``, then line t as ``t,lines[t]``."""
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(f"{t},{line}\r\n" for t, line in enumerate(lines))


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
