"""Stage orchestration with persisted intermediates and a run manifest.

Each stage reads its inputs from the output directory, writes its products
there, and records its parameters in ``manifest.json`` together with a
chained configuration hash.  A downstream stage refuses to consume
intermediates whose recorded chain no longer matches (for example after an
upstream stage was re-run with different parameters) unless forced.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import shlex
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__, clustering, embedding, report, search, trainers
from .dataset import (
    SPLIT_TEST,
    SPLIT_TRAIN,
    DatasetError,
    SplitSpec,
    WindowSet,
    apply_scaler,
    derive_ewma,
    fit_scaler,
    load_dataset,
    load_processed_table,
    make_windows,
    save_table,
    split_by_profile,
)

logger = logging.getLogger(__name__)

MANIFEST_NAME = "manifest.json"
MANIFEST_SCHEMA_VERSION = 1

STAGE_PARENTS: dict[str, list[str]] = {
    "preprocess": [],
    "embed": ["preprocess"],
    "cluster": ["embed"],
    "search": ["cluster"],
    "sweep": ["cluster"],
    "report": ["search"],
    "review-export": ["search"],
}


class StaleManifestError(RuntimeError):
    """The manifest's recorded configuration chain no longer matches."""


class PipelineError(RuntimeError):
    pass


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _chain_hash(params: dict, parent_hashes: dict[str, str], seed: int) -> str:
    payload = _canonical({"params": params, "parents": parent_hashes, "seed": seed})
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class RunManifest:
    master_seed: int
    stages: dict
    tool_version: str = __version__

    @classmethod
    def load(cls, out_dir: Path) -> "RunManifest | None":
        path = out_dir / MANIFEST_NAME
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            if payload.get("schema_version") != MANIFEST_SCHEMA_VERSION:
                raise PipelineError(
                    f"{path}: unsupported manifest schema {payload.get('schema_version')}")
            return cls(master_seed=int(payload["master_seed"]),
                       stages=payload["stages"],
                       tool_version=payload.get("tool_version", "unknown"))
        except (ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
            raise PipelineError(f"{path} is not a readable manifest ({exc}); "
                                f"delete it and re-run from preprocess") from None

    def save(self, out_dir: Path) -> None:
        payload = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "master_seed": self.master_seed,
            "stages": self.stages,
        }
        # Write then rename, so a crash never leaves a half-written manifest.
        tmp = out_dir / (MANIFEST_NAME + ".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        os.replace(tmp, out_dir / MANIFEST_NAME)

    def record_stage(self, name: str, params: dict, outputs: dict[str, str],
                     extra: dict | None = None) -> None:
        parent_hashes = {p: self.stages[p]["chain_hash"] for p in STAGE_PARENTS[name]}
        entry = {
            "params": params,
            "outputs": outputs,
            "parent_hashes": parent_hashes,
            "chain_hash": _chain_hash(params, parent_hashes, self.master_seed),
        }
        if extra:
            entry.update(extra)
        self.stages[name] = entry

    def verify_upstream(self, name: str, force: bool) -> None:
        """Check that every ancestor stage ran and its chain is intact."""
        for parent in STAGE_PARENTS[name]:
            if parent not in self.stages:
                raise PipelineError(
                    f"stage {name!r} needs {parent!r} outputs; run {parent!r} first")
            entry = self.stages[parent]
            expected = _chain_hash(entry["params"], entry["parent_hashes"],
                                   self.master_seed)
            grandparents = {g: self.stages[g]["chain_hash"]
                            for g in STAGE_PARENTS[parent] if g in self.stages}
            fresh = entry["parent_hashes"] == grandparents
            if entry["chain_hash"] != expected or not fresh:
                msg = (f"manifest hash for stage {parent!r} is stale; re-run it "
                       f"(or pass --force to use the old outputs)")
                if force:
                    logger.warning("%s -- forced, continuing", msg)
                else:
                    raise StaleManifestError(msg)
            self.verify_upstream(parent, force)


def open_manifest(out_dir: Path, seed: int, stage: str, force: bool) -> RunManifest:
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = RunManifest.load(out_dir)
    if manifest is None:
        manifest = RunManifest(master_seed=seed, stages={})
    elif manifest.master_seed != seed:
        msg = (f"output directory was built with master seed "
               f"{manifest.master_seed}, got --seed {seed}")
        if force:
            logger.warning("%s -- forced, reseeding", msg)
            manifest = RunManifest(master_seed=seed, stages=manifest.stages)
        else:
            raise StaleManifestError(msg)
    manifest.verify_upstream(stage, force)
    return manifest


# ---------------------------------------------------------------------------
# Schema and shared loaders

def load_schema(schema_path: str | None, id_col: str | None,
                input_cols: list[str] | None,
                target_cols: list[str] | None) -> dict[str, str]:
    """Column-role map from a key-value file (``column=role`` lines) or from
    the --id-col/--input-cols/--target-cols flags."""
    if schema_path:
        schema: dict[str, str] = {}
        for line_no, line in enumerate(Path(schema_path).read_text().splitlines(), 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DatasetError(
                    f"{schema_path}: line {line_no}: expected column=role")
            column, role = (part.strip() for part in line.split("=", 1))
            schema[column] = role
        return schema
    if not (id_col and input_cols and target_cols):
        raise DatasetError(
            "provide --schema or all of --id-col/--input-cols/--target-cols")
    schema = {id_col: "id"}
    schema.update({c: "input" for c in input_cols})
    schema.update({c: "target" for c in target_cols})
    return schema


def _load_windows(out_dir: Path, manifest: RunManifest) -> WindowSet:
    pre = manifest.stages["preprocess"]
    table = load_processed_table(out_dir / pre["outputs"]["table"])
    return make_windows(table, pre["params"]["window_length"],
                        pre["params"]["stride"])


def _load_embeddings(out_dir: Path, manifest: RunManifest,
                     n_windows: int) -> embedding.EmbeddingMatrix:
    entry = manifest.stages["embed"]
    return embedding.read_embedding_file(out_dir / entry["outputs"]["embeddings"],
                                         expected_rows=n_windows)


def _load_assignments(out_dir: Path, manifest: RunManifest):
    """(train window indices, local cluster assignments) from assignments.csv."""
    entry = manifest.stages["cluster"]
    path = out_dir / entry["outputs"]["assignments"]
    rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
    return rows[:, 0], rows[:, 1]


def _load_study(out_dir: Path, manifest: RunManifest) -> tuple[search.StudyResult, dict]:
    """The finished study and the ``study.json`` payload it was saved with."""
    outputs = manifest.stages["search"]["outputs"]
    payload = json.loads((out_dir / outputs["study"]).read_text())
    records = search.load_trial_log(out_dir / outputs["trials"])
    result = search.StudyResult.from_trials(records, payload["k"],
                                            payload["sampler_config"])
    return result, payload


# ---------------------------------------------------------------------------
# Stages

def stage_preprocess(out_dir: Path, seed: int, force: bool, data: str,
                     schema: dict[str, str], ewma_spans: list[int],
                     test_profiles: list[int], val_profiles: list[int],
                     window_length: int, stride: int) -> None:
    manifest = open_manifest(out_dir, seed, "preprocess", force)
    table = load_dataset(data, schema)
    if ewma_spans:
        table = derive_ewma(table, ewma_spans)
    split = SplitSpec.of(test_profiles, val_profiles)
    table = split_by_profile(table, split)
    scaler = fit_scaler(table, split)
    table = apply_scaler(table, scaler)
    make_windows(table, window_length, stride)  # fail now if no window fits

    save_table(table, scaler, out_dir / "processed.npz")
    params = {
        "data": str(data),
        "schema": dict(sorted(schema.items())),
        "ewma_spans": list(ewma_spans),
        "test_profiles": sorted(test_profiles),
        "val_profiles": sorted(val_profiles),
        "window_length": window_length,
        "stride": stride,
        "id_column": table.id_column,
    }
    manifest.record_stage("preprocess", params, {"table": "processed.npz"})
    manifest.save(out_dir)


def stage_embed(out_dir: Path, seed: int, force: bool,
                embeddings: str | None) -> None:
    manifest = open_manifest(out_dir, seed, "embed", force)
    windows = _load_windows(out_dir, manifest)
    if embeddings:
        matrix = embedding.read_embedding_file(embeddings, expected_rows=len(windows))
        provenance = embedding.PROVENANCE_EXTERNAL
    else:
        matrix = embedding.featurize_window_set(windows)
        provenance = embedding.PROVENANCE_BUILTIN
    embedding.write_embedding_file(matrix, out_dir / "embeddings.tsem")
    params = {"embeddings": str(embeddings) if embeddings else None}
    manifest.record_stage("embed", params, {"embeddings": "embeddings.tsem"},
                          extra={"provenance": provenance, "dims": matrix.dims})
    manifest.save(out_dir)


def stage_cluster(out_dir: Path, seed: int, force: bool, k: int,
                  max_iter: int, tol: float, restarts: int,
                  centroids_path: str | None) -> None:
    manifest = open_manifest(out_dir, seed, "cluster", force)
    windows = _load_windows(out_dir, manifest)
    matrix = _load_embeddings(out_dir, manifest, len(windows))
    normalized = embedding.zscore_features(matrix, windows.split_mask(SPLIT_TRAIN))
    train_idx = windows.split_indices(SPLIT_TRAIN)
    model = clustering.kmeans_fit(normalized[train_idx], k=k, max_iter=max_iter,
                                  tol=tol, seed=seed, n_init=restarts)

    assignments_out = out_dir / "assignments.csv"
    with assignments_out.open("w") as fh:
        fh.write("window_index,cluster_id\n")
        for widx, cid in zip(train_idx, model.assignments):
            fh.write(f"{int(widx)},{int(cid)}\n")
    centroids_out = Path(centroids_path) if centroids_path else out_dir / "centroids.tsem"
    embedding.write_embedding_file(
        embedding.EmbeddingMatrix(model.centroids.astype(np.float32),
                                  provenance=embedding.PROVENANCE_BUILTIN),
        centroids_out)
    params = {"k": k, "max_iter": max_iter, "tol": tol, "restarts": restarts}
    manifest.record_stage(
        "cluster", params,
        {"assignments": "assignments.csv",
         "centroids": str(centroids_out.relative_to(out_dir)
                          if centroids_out.is_relative_to(out_dir) else centroids_out)},
        extra={"inertia": model.inertia, "n_iter": model.n_iter,
               "cluster_sizes": [int(s) for s in model.sizes]})
    manifest.save(out_dir)


def stage_search(out_dir: Path, seed: int, force: bool, trials: int, jobs: int,
                 sampler: str, train_config: trainers.TrainConfig,
                 external_cmd: str | None, external_timeout: float,
                 expected_k: int | None = None) -> None:
    protocol = None
    if train_config.trainer == trainers.TRAINER_EXTERNAL:
        if not external_cmd:
            raise PipelineError("--trainer external needs --external-cmd")
        protocol = trainers.ExternalProtocol(command=shlex.split(external_cmd),
                                             timeout_s=external_timeout)
    manifest = open_manifest(out_dir, seed, "search", force)
    windows = _load_windows(out_dir, manifest)
    matrix = _load_embeddings(out_dir, manifest, len(windows))
    features = matrix.data.astype(np.float64)
    train_idx, assignments = _load_assignments(out_dir, manifest)
    k = int(manifest.stages["cluster"]["params"]["k"])
    if expected_k is not None and expected_k != k:
        raise PipelineError(
            f"--k {expected_k} does not match the clustered k={k}; "
            f"re-run the cluster stage if you want a different search space")

    objective = trainers.make_objective(train_config, windows, features,
                                        train_idx, assignments, seed,
                                        protocol=protocol,
                                        handoff_root=out_dir / "external")
    config = search.StudyConfig(n_trials=trials, k=k, jobs=jobs, sampler=sampler,
                                seed=seed, trial_log=out_dir / "trials.jsonl")
    result = search.run_study(config, objective)
    search.save_best_weights(result, out_dir / "best_weights.json")

    baseline_eval = objective(-1, np.ones(k))
    study_payload = {
        "schema_version": 1,
        "k": k,
        "n_train": int(train_idx.size),
        "best_trial_id": result.best_trial_id,
        "best_objective": result.best_trial.objective,
        "sampler_config": result.sampler_config,
        "trainer_config": train_config.to_dict(),
        "baseline": {
            "avg_mse": baseline_eval.objective,
            "per_target_mse": baseline_eval.per_target_mse,
            "per_target_mae": baseline_eval.per_target_mae,
        },
    }
    (out_dir / "study.json").write_text(
        json.dumps(study_payload, sort_keys=True, indent=2) + "\n")

    params = {"trials": trials, "jobs": jobs, "sampler": sampler,
              "trainer": train_config.to_dict(),
              "external_cmd": external_cmd}
    manifest.record_stage("search", params,
                          {"trials": "trials.jsonl", "study": "study.json",
                           "best_weights": "best_weights.json"})
    manifest.save(out_dir)


def stage_sweep(out_dir: Path, seed: int, force: bool, fractions: list[float],
                train_config: trainers.TrainConfig) -> None:
    if train_config.trainer == trainers.TRAINER_EXTERNAL:
        raise PipelineError("size sweep supports the ridge and patch-net trainers")
    manifest = open_manifest(out_dir, seed, "sweep", force)
    windows = _load_windows(out_dir, manifest)
    matrix = _load_embeddings(out_dir, manifest, len(windows))
    features = matrix.data.astype(np.float64)
    train_idx = windows.split_indices(SPLIT_TRAIN)

    def score(subset: np.ndarray) -> float:
        return trainers.fit_and_evaluate(train_config, windows, features,
                                         train_idx[subset], SPLIT_TEST,
                                         train_config.seed).objective

    rows = report.run_size_sweep(fractions, seed, score, train_idx.size)
    payload = {"schema_version": 1,
               "rows": [{"fraction": f, "n_windows": n, "test_avg_mse": m}
                        for f, n, m in rows]}
    (out_dir / "sweep.json").write_text(
        json.dumps(payload, sort_keys=True, indent=2) + "\n")
    manifest.record_stage("sweep",
                          {"fractions": [float(f) for f in fractions],
                           "trainer": train_config.to_dict()},
                          {"sweep": "sweep.json"})
    manifest.save(out_dir)


def stage_report(out_dir: Path, seed: int, force: bool) -> None:
    manifest = open_manifest(out_dir, seed, "report", force)
    result, study_payload = _load_study(out_dir, manifest)
    _, assignments = _load_assignments(out_dir, manifest)
    sweep_rows = None
    sweep_path = out_dir / "sweep.json"
    if sweep_path.exists():
        sweep_payload = json.loads(sweep_path.read_text())
        sweep_rows = [(row["fraction"], row["n_windows"], row["test_avg_mse"])
                      for row in sweep_payload["rows"]]
    bundle = report.emit_reports(result, assignments,
                                 study_payload["baseline"]["avg_mse"],
                                 sweep_rows, out_dir)
    manifest.record_stage("report", {}, {name: str(p.relative_to(out_dir))
                                         for name, p in bundle.paths.items()})
    manifest.save(out_dir)


def stage_review_export(out_dir: Path, seed: int, force: bool, m: int) -> None:
    manifest = open_manifest(out_dir, seed, "review-export", force)
    result, _ = _load_study(out_dir, manifest)
    windows = _load_windows(out_dir, manifest)
    train_idx, assignments = _load_assignments(out_dir, manifest)
    report.export_review_bundle(result, assignments, windows, train_idx, m,
                                out_dir, seed=seed)
    manifest.record_stage("review-export", {"m": m}, {"review": "review"})
    manifest.save(out_dir)

