"""Run several ``mixsearch`` CLI invocations in one process, optionally traced.

    python3 perfbench/stages.py SPEC.json RESULT.json

``SPEC.json`` holds ``{"argvs": [[...], ...], "trace": true|false}``.  Each
argv goes to ``mixsearch.cli.main`` in turn; the run stops at the first
non-zero exit.  ``RESULT.json`` receives each invocation's exit code and wall
time, the time taken to import ``mixsearch.cli`` and, for a traced run, every
span.  The benchmark uses this for its untimed preparation and for its traced
run; ``mixsearch`` must be importable (``PYTHONPATH=src``).
"""

from __future__ import annotations

import json
import sys
import time
from dataclasses import asdict

import tracing

# Public functions wrapped in the traced run, as "<module>.<function>".
SPAN_NAMES = [
    "dataset.load_dataset", "dataset.derive_ewma", "dataset.save_table",
    "dataset.load_processed_table", "dataset.make_windows",
    "embedding.featurize_windows", "embedding.zscore_features",
    "embedding.read_embedding_file", "embedding.write_embedding_file",
    "clustering.kmeans_fit", "clustering.kmeans_init_plusplus",
    "clustering.squared_distances",
    "search.tpe_suggest", "search.build_mixture", "search.run_study",
    "trainers.train_ridge", "trainers.evaluate", "trainers.train_patch_net",
    "trainers.patch_net_loss_and_grads",
    "report.emit_reports", "report.run_size_sweep", "report.export_review_bundle",
]
# The trial objective handed to run_study; it has no module-level name.
OBJECTIVE_SPAN = "search.objective"
# CLI stage name -> pipeline function that runs it.
STAGE_FUNCTIONS = {
    "preprocess": "stage_preprocess", "embed": "stage_embed",
    "cluster": "stage_cluster", "search": "stage_search",
    "sweep": "stage_sweep", "report": "stage_report",
    "review-export": "stage_review_export",
}
CLI_SPAN = "cli.main"


def _window_attrs(args, kwargs, windows) -> dict:
    channels = len(windows.input_names) + len(windows.target_names)
    return {"windows": len(windows),
            "bytes": len(windows) * windows.window_length * channels * 8}


def _distance_attrs(args, kwargs, result) -> dict:
    points, centroids = args[0], args[1]
    n, d = points.shape
    return {"flops": 3 * n * centroids.shape[0] * d}


def _patch_net_attrs(args, kwargs, result) -> dict:
    # The two n*P*i*d matmuls dominate: the patch projection and its
    # weight gradient.
    params, x = args[0], args[1]
    n, p, i = x.shape
    return {"tokens": n * p,
            "flops": 4 * n * p * i * params["w_embed"].shape[1]}


def _study_attrs(args, kwargs, result) -> dict:
    config = args[0]
    completed = len(result.completed())
    return {"completed": completed, "failed": config.n_trials - completed,
            "jobs": config.jobs}


ATTRS = {
    "dataset.make_windows": _window_attrs,
    "clustering.squared_distances": _distance_attrs,
    "trainers.patch_net_loss_and_grads": _patch_net_attrs,
}


def wrappers(tracer: tracing.Tracer) -> dict:
    """Replacement factories for :func:`tracing.install`."""
    out = {name: (lambda fn, name=name:
                  tracer.wrap(name, fn, attrs=ATTRS.get(name)))
           for name in SPAN_NAMES}

    def study_factory(run_study):
        def run_study_traced_objective(config, objective, *args, **kwargs):
            return run_study(config, tracer.wrap(OBJECTIVE_SPAN, objective),
                             *args, **kwargs)
        return tracer.wrap("search.run_study", run_study_traced_objective,
                           attrs=_study_attrs, adopt_threads=True)

    out["search.run_study"] = study_factory
    for func in STAGE_FUNCTIONS.values():
        name = f"pipeline.{func}"
        out[name] = lambda fn, name=name: tracer.wrap(name, fn)
    return out


def run(argvs: list[list[str]], trace: bool) -> dict:
    start = time.perf_counter()
    from mixsearch import cli
    import_s = time.perf_counter() - start

    main = cli.main
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracing.install(wrappers(tracer))
        main = tracer.wrap(CLI_SPAN, cli.main)

    invocations = []
    for argv in argvs:
        t0 = time.perf_counter()
        code = main(list(argv))
        invocations.append({"argv": argv, "exit": code,
                            "wall_s": time.perf_counter() - t0})
        if code != 0:
            break
    return {"import_s": import_s, "invocations": invocations,
            "spans": [asdict(s) for s in tracer.spans] if tracer else []}


def main(argv: list[str]) -> int:
    spec_path, result_path = argv
    with open(spec_path) as fh:
        spec = json.load(fh)
    result = run(spec["argvs"], bool(spec["trace"]))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0 if all(i["exit"] == 0 for i in result["invocations"]) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
