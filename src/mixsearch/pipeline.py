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
    """The one handle a stage gets: its output directory, the stage it runs
    and the manifest recorded there.  Upstream products load through the
    outputs the manifest recorded; :meth:`record` adds the stage's entry."""
    out_dir: Path
    stage: str
    master_seed: int
    stages: dict
    tool_version: str = __version__

    @classmethod
    def open(cls, out_dir: Path, seed: int, stage: str, force: bool) -> "RunManifest":
        """Read ``manifest.json`` (no products) and check that ``stage`` may run."""
        out_dir.mkdir(parents=True, exist_ok=True)
        run = cls(out_dir=out_dir, stage=stage, master_seed=seed, stages={})
        path = out_dir / MANIFEST_NAME
        if path.exists():
            try:
                payload = json.loads(path.read_text())
                if payload.get("schema_version") != MANIFEST_SCHEMA_VERSION:
                    raise PipelineError(
                        f"{path}: unsupported manifest schema {payload.get('schema_version')}")
                recorded_seed = int(payload["master_seed"])
                run.stages = payload["stages"]
            except (ValueError, KeyError) as exc:  # JSONDecodeError is a ValueError
                raise PipelineError(f"{path} is not a readable manifest ({exc}); "
                                    f"delete it and re-run from preprocess") from None
            if recorded_seed == seed:
                run.tool_version = payload.get("tool_version", "unknown")
            else:
                msg = (f"output directory was built with master seed "
                       f"{recorded_seed}, got --seed {seed}")
                if not force:
                    raise StaleManifestError(msg)
                logger.warning("%s -- forced, reseeding", msg)
        run.verify_upstream(stage, force)
        return run

    def write_json(self, name: str, payload) -> None:
        """Write then rename, so a crash never leaves a half-written file."""
        tmp = self.out_dir / (name + ".tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")
        os.replace(tmp, self.out_dir / name)

    def record(self, params: dict, outputs: dict[str, str], **extra) -> None:
        """Record this stage's entry and save the manifest."""
        parent_hashes = {p: self.stages[p]["chain_hash"]
                         for p in STAGE_PARENTS[self.stage]}
        self.stages[self.stage] = {
            "params": params,
            "outputs": outputs,
            "parent_hashes": parent_hashes,
            "chain_hash": _chain_hash(params, parent_hashes, self.master_seed),
            **extra,
        }
        self.write_json(MANIFEST_NAME, {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "master_seed": self.master_seed,
            "stages": self.stages,
        })

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

    def output(self, stage: str, name: str) -> Path:
        """Path of the product ``name`` that ``stage`` recorded."""
        return self.out_dir / self.stages[stage]["outputs"][name]

    def windows(self) -> WindowSet:
        params = self.stages["preprocess"]["params"]
        table = load_processed_table(self.output("preprocess", "table"))
        return make_windows(table, params["window_length"], params["stride"])

    def embeddings(self, n_windows: int) -> embedding.EmbeddingMatrix:
        return embedding.read_embedding_file(self.output("embed", "embeddings"),
                                             expected_rows=n_windows)

    def assignments(self) -> tuple[np.ndarray, np.ndarray]:
        """(train window indices, local cluster assignments) from assignments.csv."""
        rows = np.loadtxt(self.output("cluster", "assignments"), delimiter=",",
                          skiprows=1, dtype=np.int64, ndmin=2)
        return rows[:, 0], rows[:, 1]

    def study(self) -> tuple[search.StudyResult, dict]:
        """The finished study and the ``study.json`` payload it was saved with."""
        payload = json.loads(self.output("search", "study").read_text())
        records = search.load_trial_log(self.output("search", "trials"))
        result = search.StudyResult.from_trials(records, payload["k"],
                                                payload["sampler_config"])
        return result, payload


# ---------------------------------------------------------------------------
# Command-line inputs

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


def _check_trainer(run: RunManifest, config: trainers.TrainConfig) -> None:
    """Refuse a patch length that does not divide the window length before
    anything loads: every patch-net trial would fail on it."""
    window_length = run.stages["preprocess"]["params"]["window_length"]
    if config.trainer == trainers.TRAINER_PATCH_NET and window_length % config.patch_len:
        raise PipelineError(f"--patch-len {config.patch_len} does not divide "
                            f"window length {window_length}")


# ---------------------------------------------------------------------------
# Stages

def stage_preprocess(run: RunManifest, data: str, schema: dict[str, str],
                     ewma_spans: list[int], test_profiles: list[int],
                     val_profiles: list[int], window_length: int,
                     stride: int) -> None:
    table = load_dataset(data, schema)
    if ewma_spans:
        table = derive_ewma(table, ewma_spans)
    split = SplitSpec.of(test_profiles, val_profiles)
    table = split_by_profile(table, split)
    scaler = fit_scaler(table, split)
    table = apply_scaler(table, scaler)
    make_windows(table, window_length, stride)  # fail now if no window fits

    save_table(table, scaler, run.out_dir / "processed.npz")
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
    run.record(params, {"table": "processed.npz"})


def stage_embed(run: RunManifest, embeddings: str | None) -> None:
    windows = run.windows()
    if embeddings:
        matrix = embedding.read_embedding_file(embeddings, expected_rows=len(windows))
        provenance = embedding.PROVENANCE_EXTERNAL
    else:
        matrix = embedding.featurize_window_set(windows)
        provenance = embedding.PROVENANCE_BUILTIN
    embedding.write_embedding_file(matrix, run.out_dir / "embeddings.tsem")
    run.record({"embeddings": str(embeddings) if embeddings else None},
               {"embeddings": "embeddings.tsem"},
               provenance=provenance, dims=matrix.dims)


def stage_cluster(run: RunManifest, k: int, max_iter: int, tol: float,
                  restarts: int, centroids_path: str | None) -> None:
    out_dir = run.out_dir
    windows = run.windows()
    matrix = run.embeddings(len(windows))
    normalized = embedding.zscore_features(matrix, windows.split_mask(SPLIT_TRAIN))
    train_idx = windows.split_indices(SPLIT_TRAIN)
    model = clustering.kmeans_fit(normalized[train_idx], k=k, max_iter=max_iter,
                                  tol=tol, seed=run.master_seed, n_init=restarts)

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
    run.record(
        {"k": k, "max_iter": max_iter, "tol": tol, "restarts": restarts},
        {"assignments": "assignments.csv",
         "centroids": str(centroids_out.relative_to(out_dir)
                          if centroids_out.is_relative_to(out_dir) else centroids_out)},
        inertia=model.inertia, n_iter=model.n_iter,
        cluster_sizes=[int(s) for s in model.sizes])


def stage_search(run: RunManifest, trials: int, jobs: int, sampler: str,
                 train_config: trainers.TrainConfig, external_cmd: str | None,
                 external_timeout: float, expected_k: int | None = None) -> None:
    protocol = None
    if train_config.trainer == trainers.TRAINER_EXTERNAL:
        if not external_cmd:
            raise PipelineError("--trainer external needs --external-cmd")
        protocol = trainers.ExternalProtocol(command=shlex.split(external_cmd),
                                             timeout_s=external_timeout)
    _check_trainer(run, train_config)
    k = int(run.stages["cluster"]["params"]["k"])
    if expected_k is not None and expected_k != k:
        raise PipelineError(
            f"--k {expected_k} does not match the clustered k={k}; "
            f"re-run the cluster stage if you want a different search space")
    windows = run.windows()
    features = run.embeddings(len(windows)).data.astype(np.float64)
    train_idx, assignments = run.assignments()

    seed = run.master_seed
    objective = trainers.make_objective(train_config, windows, features,
                                        train_idx, assignments, seed,
                                        protocol=protocol,
                                        handoff_root=run.out_dir / "external")
    config = search.StudyConfig(n_trials=trials, k=k, jobs=jobs, sampler=sampler,
                                seed=seed, trial_log=run.out_dir / "trials.jsonl")
    result = search.run_study(config, objective)
    run.write_json("best_weights.json",
                   {str(c): float(w) for c, w in enumerate(result.best_trial.weights)})

    baseline_eval = objective(-1, np.ones(k))
    run.write_json("study.json", {
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
    })
    params = {"trials": trials, "jobs": jobs, "sampler": sampler,
              "trainer": train_config.to_dict(),
              "external_cmd": external_cmd}
    run.record(params, {"trials": "trials.jsonl", "study": "study.json",
                        "best_weights": "best_weights.json"})


def stage_sweep(run: RunManifest, fractions: list[float],
                train_config: trainers.TrainConfig) -> None:
    if train_config.trainer == trainers.TRAINER_EXTERNAL:
        raise PipelineError("size sweep supports the ridge and patch-net trainers")
    _check_trainer(run, train_config)
    windows = run.windows()
    features = run.embeddings(len(windows)).data.astype(np.float64)
    train_idx = windows.split_indices(SPLIT_TRAIN)

    def score(subset: np.ndarray) -> float:
        return trainers.fit_and_evaluate(train_config, windows, features,
                                         train_idx[subset], SPLIT_TEST,
                                         train_config.seed).objective

    rows = report.run_size_sweep(fractions, run.master_seed, score, train_idx.size)
    run.write_json("sweep.json", {
        "schema_version": 1,
        "rows": [{"fraction": f, "n_windows": n, "test_avg_mse": m}
                 for f, n, m in rows]})
    run.record({"fractions": [float(f) for f in fractions],
                "trainer": train_config.to_dict()},
               {"sweep": "sweep.json"})


def stage_report(run: RunManifest) -> None:
    result, study_payload = run.study()
    _, assignments = run.assignments()
    sweep_rows = None
    sweep = run.stages.get("sweep")
    if sweep is not None:
        if sweep["parent_hashes"] == {"cluster": run.stages["cluster"]["chain_hash"]}:
            payload = json.loads(run.output("sweep", "sweep").read_text())
            sweep_rows = [(row["fraction"], row["n_windows"], row["test_avg_mse"])
                          for row in payload["rows"]]
        else:
            logger.warning("the size sweep predates the current cluster stage and "
                           "is left out; re-run sweep to report them")
    bundle = report.emit_reports(result, assignments,
                                 study_payload["baseline"]["avg_mse"],
                                 sweep_rows, run.out_dir)
    run.record({}, {name: str(p.relative_to(run.out_dir))
                    for name, p in bundle.paths.items()})


def stage_review_export(run: RunManifest, m: int) -> None:
    result, _ = run.study()
    windows = run.windows()
    train_idx, assignments = run.assignments()
    report.export_review_bundle(result, assignments, windows, train_idx, m,
                                run.out_dir, seed=run.master_seed)
    run.record({"m": m}, {"review": "review"})
