"""Stage orchestration with persisted intermediates and a run manifest.

Each stage reads its inputs from the output directory, writes its products
there, and records its parameters in ``manifest.json`` together with a
chained configuration hash.  A downstream stage refuses to consume
intermediates whose recorded chain no longer matches (for example after an
upstream stage was re-run with different parameters) unless forced.

Every product, file or directory, is written under a temporary name
(:meth:`RunManifest.staging_path`) and :meth:`RunManifest.record` renames
them into place back to back, the manifest last, so a failed stage leaves
the previous products and manifest as they were and no temporary file.
The selftest, which has no manifest, writes its reports directly, and refuses
an output directory that holds anything but those reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import shlex
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import MixsearchError, __version__, clustering, embedding, report, search, trainers
from .dataset import (
    SPLIT_TEST,
    SPLIT_TRAIN,
    SPLIT_VAL,
    DatasetError,
    WindowSet,
    derive_ewma,
    load_dataset,
    load_processed_table,
    make_windows,
    save_table,
    split_and_scale,
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


class StaleManifestError(MixsearchError, RuntimeError):
    """The manifest's recorded configuration chain no longer matches."""


class PipelineError(MixsearchError, RuntimeError):
    pass


def _json_at_version(path: Path, version: int, stage: str) -> dict:
    """The JSON object at ``path``, refused unless it has schema ``version``."""
    payload = json.loads(path.read_text())
    if payload.get("schema_version") != version:
        raise PipelineError(f"{path}: unsupported schema version "
                            f"{payload.get('schema_version')}; re-run {stage!r}")
    return payload


def _chain_hash(params: dict, parent_hashes: dict[str, str], seed: int) -> str:
    payload = json.dumps({"params": params, "parents": parent_hashes, "seed": seed},
                         sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()


@dataclass
class RunManifest:
    """The one handle a stage gets: its output directory, the stage it runs
    and the manifest recorded there.  Upstream products load through the
    outputs the manifest recorded; :meth:`record` adds the stage's entry.
    Used as a context manager, it removes every temporary name still there
    when the stage ends, whether or not it failed."""
    out_dir: Path
    stage: str
    master_seed: int
    stages: dict
    tool_version: str = __version__
    staged: dict[str, Path] = field(init=False, default_factory=dict)
    outputs: dict[str, str] = field(init=False, default_factory=dict)

    @classmethod
    def open(cls, out_dir: Path, seed: int, stage: str, force: bool) -> "RunManifest":
        """Read ``manifest.json`` (no products), check that ``stage`` may run, and
        only then create ``out_dir`` if it is missing."""
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
                if not all(isinstance(e["params"], dict) and isinstance(e["outputs"], dict)
                           and isinstance(e["chain_hash"], str) for e in run.stages.values()):
                    raise TypeError("stage entries need params, outputs and chain_hash")
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
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
        out_dir.mkdir(parents=True, exist_ok=True)
        return run

    def __enter__(self) -> "RunManifest":
        return self

    def __exit__(self, *exc_info) -> None:
        for tmp in self.staged.values():  # after a full record all are renamed
            shutil.rmtree(tmp) if tmp.is_dir() else tmp.unlink(missing_ok=True)

    def staging_path(self, name: str, product: str | None = None) -> Path:
        """Temporary path the output ``name``, a file or a directory, is
        written to; :meth:`record` renames it to ``out_dir / name`` and
        records it as ``product``, by default the name's stem.  A name this
        or another stage already uses for an output is refused."""
        others = {n for stage, entry in self.stages.items() if stage != self.stage
                  for n in entry["outputs"].values()}
        if name == MANIFEST_NAME or name in self.staged or name in others:
            raise PipelineError(f"{name} is already an output of this run")
        self.outputs[product or Path(name).stem] = name
        self.staged[name] = self.out_dir / f"{name}.tmp"
        return self.staged[name]

    def record(self, params: dict, payloads: dict[str, object] | None = None,
               **extra) -> None:
        """Record this stage's entry with every staged output and JSON
        payload, and commit them: write the ``payloads`` and the manifest
        under temporary names, then rename the payloads, the staged outputs
        (a directory replaces the old one whole) and the manifest, last."""
        files = list(self.staged)
        payloads = payloads or {}
        for name, payload in payloads.items():
            report.write_json(self.staging_path(name), payload)
        parent_hashes = self._parent_hashes(self.stage)
        self.stages[self.stage] = {
            "params": params,
            "outputs": self.outputs,
            "parent_hashes": parent_hashes,
            "chain_hash": _chain_hash(params, parent_hashes, self.master_seed),
            **extra,
        }
        self.staged[MANIFEST_NAME] = self.out_dir / f"{MANIFEST_NAME}.tmp"
        report.write_json(self.staged[MANIFEST_NAME], {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "tool_version": self.tool_version,
            "master_seed": self.master_seed,
            "stages": self.stages,
        })
        for name in [*payloads, *files, MANIFEST_NAME]:
            target = self.out_dir / name
            if self.staged[name].is_dir() and target.is_dir():
                shutil.rmtree(target)
            os.replace(self.staged[name], target)

    def _parent_hashes(self, stage: str) -> dict[str, str]:
        return {p: self.stages[p]["chain_hash"]
                for p in STAGE_PARENTS[stage] if p in self.stages}

    def fresh(self, stage: str) -> bool:
        """Whether ``stage``'s recorded chain hash is the one its params and
        its parents' current chain hashes give: nothing upstream changed."""
        entry = self.stages[stage]
        return entry["chain_hash"] == _chain_hash(
            entry["params"], self._parent_hashes(stage), self.master_seed)

    def verify_upstream(self, name: str, force: bool) -> None:
        """Check that every ancestor stage ran and is :meth:`fresh`."""
        for parent in STAGE_PARENTS[name]:
            if parent not in self.stages:
                raise PipelineError(
                    f"stage {name!r} needs {parent!r} outputs; run {parent!r} first")
            if not self.fresh(parent):
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

    def read(self, stage: str, name: str, load=lambda path: json.loads(path.read_text())):
        """The product ``name`` of ``stage`` through ``load``, JSON by default."""
        path = self.output(stage, name)
        try:
            return load(path)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:  # JSONDecodeError too
            raise PipelineError(f"{path} is truncated or corrupt ({exc}); "
                                f"re-run {stage!r}") from None

    def windows(self) -> WindowSet:
        params = self.stages["preprocess"]["params"]
        table = load_processed_table(self.output("preprocess", "table"))
        return make_windows(table, params["window_length"], params["stride"])

    def embeddings(self, n_windows: int) -> embedding.EmbeddingMatrix:
        return embedding.read_embedding_file(self.output("embed", "embeddings"),
                                             expected_rows=n_windows)

    def train_points(self) -> tuple[np.ndarray, np.ndarray]:
        """(train window indices, their embeddings standardized on them): the
        points k-means clusters.  The windows and the float32 matrix are
        dropped on return, so only these stay loaded through the fit."""
        windows = self.windows()
        train_idx = windows.split_indices(SPLIT_TRAIN)
        return train_idx, embedding.zscore_features(self.embeddings(len(windows)), train_idx)

    def assignments(self) -> tuple[np.ndarray, np.ndarray]:
        """(train window indices, local cluster assignments) from assignments.csv,
        refused unless its cluster ids count up to the recorded cluster sizes."""
        sizes = self.stages["cluster"].get("cluster_sizes")
        if not isinstance(sizes, list):
            raise PipelineError(f"{self.out_dir / MANIFEST_NAME} records no cluster sizes; "
                                f"re-run 'cluster'")
        def load(path: Path) -> np.ndarray:
            rows = np.loadtxt(path, delimiter=",", skiprows=1, dtype=np.int64, ndmin=2)
            if (rows.shape[1:] != (2,) or rows[:, 1].min(initial=0) < 0
                    or np.bincount(rows[:, 1], minlength=len(sizes)).tolist() != sizes):
                raise ValueError("cluster ids do not add up to the recorded cluster sizes")
            return rows
        rows = self.read("cluster", "assignments", load)
        return rows[:, 0], rows[:, 1]

    def study(self) -> tuple[search.StudyResult, float]:
        """The finished study and the full-data baseline avg_mse of ``study.json``."""
        def load_study(path: Path) -> tuple[int, dict, float]:
            payload = _json_at_version(path, report.STUDY_SCHEMA_VERSION, "search")
            return payload["k"], payload["sampler_config"], payload["baseline"]["avg_mse"]
        k, sampler_config, baseline = self.read("search", "study", load_study)
        result = self.read("search", "trials", lambda path: search.StudyResult.from_trials(
            search.load_trial_log(path), k, sampler_config))
        return result, baseline


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
            if column in schema:
                raise DatasetError(
                    f"{schema_path}: line {line_no}: column {column!r} given twice")
            schema[column] = role
        return schema
    if not (id_col and input_cols and target_cols):
        raise DatasetError(
            "provide --schema or all of --id-col/--input-cols/--target-cols")
    schema, flag_of = {}, {}
    for flag, role, columns in (("--id-col", "id", [id_col]),
                                ("--input-cols", "input", input_cols),
                                ("--target-cols", "target", target_cols)):
        for column in columns:
            if flag_of.setdefault(column, flag) != flag:
                raise DatasetError(f"column {column!r} named by both {flag_of[column]} "
                                   f"and {flag}")
            schema[column] = role
    return schema


def train_config(args: argparse.Namespace) -> trainers.TrainConfig:
    """The trainer settings the trainer flags and --seed give."""
    return trainers.TrainConfig(
        trainer=args.trainer, token_budget=args.budget_tokens, batch_size=args.batch_size,
        peak_lr=args.lr, warmup_fraction=args.warmup_fraction, patch_len=args.patch_len,
        embed_dim=args.embed_dim, ridge_lambda=args.ridge_lambda, seed=args.seed)


def _trial_context(run: RunManifest, args: argparse.Namespace,
                   split: str) -> trainers.TrialContext:
    """The study's trial context from the trainer flags: a setup every trial would fail
    on is refused before anything loads, and the embeddings load only if it reads them."""
    config = train_config(args)
    trainer = trainers.TRAINERS[config.trainer]
    protocol = None
    if trainer.fit is None:
        if run.stage == "sweep":
            raise PipelineError("size sweep supports the ridge and patch-net trainers")
        if not args.external_cmd:
            raise PipelineError("--trainer external needs --external-cmd")
        try:
            command = shlex.split(args.external_cmd)
        except ValueError as exc:  # unbalanced quotes
            raise PipelineError(f"--external-cmd {args.external_cmd!r}: {exc}") from None
        protocol = trainers.ExternalProtocol(command, args.external_timeout)
    window_length = run.stages["preprocess"]["params"]["window_length"]
    if trainer.patched and window_length % config.patch_len:
        raise PipelineError(f"--patch-len {config.patch_len} does not divide "
                            f"window length {window_length}")
    windows = run.windows()
    features = run.embeddings(len(windows)).data if trainer.needs_features else None
    return trainers.TrialContext(config, windows, features, split, protocol,
                                 run.out_dir / "external")


# ---------------------------------------------------------------------------
# The method, shared by the stages and the selftest

def search_mixture(context: trainers.TrialContext, train_idx: np.ndarray,
                   assignments: np.ndarray, config: search.StudyConfig
                   ) -> tuple[search.StudyResult, search.TrialEvaluation]:
    """The study over per-cluster weights of ``train_idx`` and the full-data
    mixture it is compared with: all weights 1, scored as trial -1."""
    objective = search.mixture_objective(context.score, train_idx, assignments, config.seed)
    return search.run_study(config, objective), objective(-1, np.ones(config.k))


# ---------------------------------------------------------------------------
# Stages

def stage_preprocess(run: RunManifest, args: argparse.Namespace) -> None:
    schema = load_schema(args.schema, args.id_col, args.input_cols, args.target_cols)
    table = load_dataset(args.data, schema)
    if args.ewma_spans:
        table = derive_ewma(table, args.ewma_spans)
    table, mins, maxs = split_and_scale(table, args.test_profiles, args.val_profiles)
    make_windows(table, args.window_length, args.stride)  # fail now if no window fits

    save_table(table, mins, maxs, run.staging_path("processed.npz", "table"))
    params = {
        "data": str(args.data),
        "schema": dict(sorted(schema.items())),
        "ewma_spans": list(args.ewma_spans),
        "test_profiles": sorted(args.test_profiles),
        "val_profiles": sorted(args.val_profiles),
        "window_length": args.window_length,
        "stride": args.stride,
        "id_column": table.id_column,
    }
    run.record(params)


def stage_embed(run: RunManifest, args: argparse.Namespace) -> None:
    started = time.perf_counter()
    windows = run.windows()
    if args.embeddings:
        matrix = embedding.read_embedding_file(args.embeddings, expected_rows=len(windows))
        provenance = embedding.PROVENANCE_EXTERNAL
    else:
        matrix = embedding.featurize_window_set(windows)
        provenance = embedding.PROVENANCE_BUILTIN
    embedding.write_embedding_file(matrix, run.staging_path("embeddings.tsem"))
    run.record({"embeddings": str(args.embeddings) if args.embeddings else None},
               provenance=provenance, dims=matrix.dims)
    seconds = time.perf_counter() - started
    logger.info("embedded %d windows into %d dims in %.2f s (%.0f windows/s)",
                matrix.rows, matrix.dims, seconds, matrix.rows / seconds)


def stage_cluster(run: RunManifest, args: argparse.Namespace) -> None:
    centroids_name = "centroids.tsem"
    if args.centroids:  # named from resolved paths, so symlinks resolve as when opened
        target = Path(args.centroids).resolve()
        if target.is_dir():
            raise PipelineError(f"--centroids {args.centroids} is a directory")
        centroids_name = os.path.relpath(target, run.out_dir.resolve())
    train_idx, points = run.train_points()
    model = clustering.kmeans_fit(points, k=args.k, max_iter=args.max_iter, tol=args.tol,
                                  seed=run.master_seed, n_init=args.restarts)

    embedding.write_embedding_file(
        embedding.EmbeddingMatrix(model.centroids.astype(np.float32)),
        run.staging_path(centroids_name, "centroids"))
    np.savetxt(run.staging_path("assignments.csv"),
               np.column_stack([train_idx, model.assignments]), fmt="%d", delimiter=",",
               header="window_index,cluster_id", comments="")
    run.record(
        {"k": args.k, "max_iter": args.max_iter, "tol": args.tol, "restarts": args.restarts},
        inertia=model.inertia, n_iter=model.n_iter,
        cluster_sizes=[int(s) for s in model.sizes])


def stage_search(run: RunManifest, args: argparse.Namespace) -> None:
    k = int(run.stages["cluster"]["params"]["k"])
    if args.k is not None and args.k != k:
        raise PipelineError(
            f"--k {args.k} does not match the clustered k={k}; "
            f"re-run the cluster stage if you want a different search space")
    context = _trial_context(run, args, SPLIT_VAL)
    train_idx, assignments = run.assignments()
    config = search.StudyConfig(n_trials=args.trials, k=k, jobs=args.jobs,
                                sampler=args.sampler, seed=run.master_seed,
                                trial_log=run.staging_path("trials.jsonl"))
    result, baseline_eval = search_mixture(context, train_idx, assignments, config)
    params = {"trials": args.trials, "jobs": args.jobs, "sampler": args.sampler,
              "trainer": context.config.to_dict(),
              "external_cmd": args.external_cmd}
    run.record(params, {
        "study.json": {
            "schema_version": report.STUDY_SCHEMA_VERSION,
            "k": k,
            "n_train": int(train_idx.size),
            "best_trial_id": result.best_trial_id,
            "best_objective": result.best_trial.objective,
            "sampler_config": result.sampler_config,
            "trainer_config": context.config.to_dict(),
            "baseline": {
                "avg_mse": baseline_eval.objective,
                "per_target_mse": baseline_eval.per_target_mse,
                "per_target_mae": baseline_eval.per_target_mae,
            },
        },
        "best_weights.json": {str(c): float(w)
                              for c, w in enumerate(result.best_trial.weights)},
    })


def stage_sweep(run: RunManifest, args: argparse.Namespace) -> None:
    context = _trial_context(run, args, SPLIT_TEST)
    train_idx = context.windows.split_indices(SPLIT_TRAIN)

    def score(subset: np.ndarray) -> float:
        return context.score(train_idx[subset], context.config.seed).objective

    rows = report.run_size_sweep(args.fractions, run.master_seed, score, train_idx.size)
    run.record({"fractions": [float(f) for f in args.fractions],
                "trainer": context.config.to_dict()},
               {"sweep.json": {"schema_version": report.SWEEP_SCHEMA_VERSION,
                               "rows": [{"fraction": f, "n_windows": n, "test_avg_mse": m}
                                        for f, n, m in rows]}})


def stage_report(run: RunManifest, args: argparse.Namespace) -> None:
    result, baseline = run.study()
    _, assignments = run.assignments()
    sweep_rows = None
    if "sweep" in run.stages:
        if run.fresh("sweep"):
            sweep_rows = run.read("sweep", "sweep", lambda path: [
                (row["fraction"], row["n_windows"], row["test_avg_mse"]) for row in
                _json_at_version(path, report.SWEEP_SCHEMA_VERSION, "sweep")["rows"]])
        else:
            logger.warning("the size sweep predates the current cluster stage and "
                           "is left out; re-run sweep to report them")
    report.emit_reports(result, assignments, baseline, sweep_rows, run.staging_path)
    run.record({})


def stage_review_export(run: RunManifest, args: argparse.Namespace) -> None:
    result, _ = run.study()
    windows = run.windows()
    train_idx, assignments = run.assignments()
    report.export_review_bundle(result, assignments, windows, train_idx, args.review_samples,
                                run.staging_path("review"), seed=run.master_seed)
    run.record({"m": args.review_samples})
