"""Benchmark runner for the mixsearch CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it runs ``src/mixsearch`` from
there.  One run:

1. writes a seeded profile corpus (``corpus.py``) into a scratch directory
   under ``.perfbench_work/`` and removes that directory at the end;
2. times ``mixsearch --version`` several times (``setup_s``);
3. for the ``search-*`` workloads, builds the run directory with
   ``preprocess/embed/cluster`` in one untimed process;
4. repeats the workload's timed stages, one ``python3 -m mixsearch.cli``
   child process per stage, for ``--seconds`` seconds: a repetition starts
   only while the previous ones plus one more fit in that time, and at least
   one always runs.  Each child's wall time is taken around it and its peak
   RSS comes from ``os.wait4``;
5. checks the outputs of every repetition;
6. with ``--trace 1``, runs the timed stages once more in one traced process
   (``stages.py``) and reports the per-layer metrics instead of the
   end-to-end ones.

Human-readable lines go first; the last line of standard output is the JSON
result.  Each timed child gets ``OPENBLAS_NUM_THREADS`` and
``OMP_NUM_THREADS`` = nproc // jobs, so BLAS threads times search workers
never exceed the cores.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy

import corpus
import stages
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_ROOT = ROOT / ".perfbench_work"

ROWS_PER_PROFILE = 450
WINDOW_LENGTH = 300          # `preprocess --window-length` default, stride 1
SETUP_REPEATS = 3
SEARCH_REPEATS = 2           # extra searches of pipeline-default, see below
PREP_RESTARTS = 1            # untimed k-means for the search-* run directory
RUN_DEADLINE_S = 170.0       # every child is killed past this point

PREPROCESS = ("preprocess", "--data", "{data}", "--schema", "{schema}")
PREPARE = (PREPROCESS, ("embed",), ("cluster", "--restarts", str(PREP_RESTARTS)))


@dataclass(frozen=True)
class Workload:
    timed: tuple[tuple[str, ...], ...]
    prepare: tuple[tuple[str, ...], ...] = ()
    # Only the full pipeline checks val_mse_ratio < 1 and that its --jobs 1
    # study repeats exactly.
    check_quality: bool = False

    def _search_flag(self, flag: str) -> int:
        search = next(s for s in self.timed if s[0] == "search")
        return int(dict(zip(search[1::2], search[2::2]))[flag])

    @property
    def trials(self) -> int:
        return self._search_flag("--trials")

    @property
    def jobs(self) -> int:
        return self._search_flag("--jobs")


# BENCHMARK.json records why each workload was chosen.
WORKLOADS = {
    # The user's path: clustering, embedding and windowing do most of the
    # work and memory peaks here; search does little.
    "pipeline-default": Workload(
        timed=(PREPROCESS, ("embed",), ("cluster",),
               ("search", "--trials", "100", "--jobs", "1"),
               ("sweep",), ("report",), ("review-export",)),
        check_quality=True),
    # TPE suggest, build_mixture and ridge fit/evaluate on the concurrent
    # path; clustering and the featurizer do no work.
    "search-ridge": Workload(
        timed=(("search", "--trials", "300", "--jobs", "2"),),
        prepare=PREPARE),
    # The patch-net step and its window gather; the ridge path is unused.
    # Batches of 256 windows keep the step count fixed by the token budget;
    # at the default 1024, larger than the 906 training windows, every step
    # takes the whole mixture and the step count follows the mixture size.
    "search-patchnet": Workload(
        timed=(("search", "--trainer", "patch-net", "--budget-tokens", "200000",
                "--batch-size", "256", "--trials", "6", "--jobs", "1"),),
        prepare=PREPARE),
}

# End-to-end metrics: name -> unit.  The quality pair is printed with them
# but reported to the JSON result with the per-layer metrics of the search
# layer, because it moves by far more than any bound from seed to seed: ridge
# on a mixture that holds noise profiles is ill-conditioned, so the noise draw
# sets how far the fit strays.
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB",
              "trials_per_s": "1/s"}
QUALITY = {"best_val_mse": "mse", "val_mse_ratio": "ratio"}


@dataclass
class Invocation:
    stage: str
    exit: int
    wall_s: float
    rss_mb: float


@dataclass
class Rep:
    invocations: list[Invocation]
    study: dict | None = None
    completed: int = 0

    @property
    def wall_s(self) -> float:
        return sum(i.wall_s for i in self.invocations)


@dataclass
class Ledger:
    """Attempted and failed operations: invocations, trials and checks."""
    attempted: int = 0
    failed: int = 0
    failed_checks: list[str] = field(default_factory=list)

    def invocation(self, inv: Invocation) -> bool:
        self.attempted += 1
        if inv.exit != 0:
            self.failed += 1
            self.failed_checks.append(f"{inv.stage} exited {inv.exit}")
        return inv.exit == 0

    def check(self, name: str, ok: bool) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failed_checks.append(name)
        return ok


class Runner:
    """Starts children from the checkout with the workload's thread budget."""

    def __init__(self, work: Path, threads: int, deadline: float) -> None:
        self.work = work
        self.deadline = deadline
        self.env = dict(os.environ)
        self.env.pop("MIXSEARCH_OUT", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + ([self.env["PYTHONPATH"]]
                                   if self.env.get("PYTHONPATH") else []))
        self.env["OPENBLAS_NUM_THREADS"] = str(threads)
        self.env["OMP_NUM_THREADS"] = str(threads)

    def run(self, stage: str, cmd: list[str]) -> Invocation:
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(self.work / "children.log", "ab") as log:
            log.write(f"$ {' '.join(cmd)}\n".encode())
            log.flush()
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, cwd=ROOT, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            watchdog = threading.Timer(timeout, proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Invocation(stage, proc.returncode, wall, usage.ru_maxrss / 1024.0)

    def cli(self, argv: list[str]) -> Invocation:
        return self.run(argv[0], [sys.executable, "-m", "mixsearch.cli", *argv])

    def stages(self, argvs: list[list[str]], trace: bool, tag: str):
        """Run ``argvs`` in one ``stages.py`` process; (invocation, result)."""
        spec = self.work / f"{tag}.spec.json"
        out = self.work / f"{tag}.result.json"
        spec.write_text(json.dumps({"argvs": argvs, "trace": trace}))
        inv = self.run(tag, [sys.executable, str(BENCH_DIR / "stages.py"),
                             str(spec), str(out)])
        result = json.loads(out.read_text()) if out.exists() else None
        return inv, result


def stage_argvs(tails, run_dir: Path, paths: dict) -> list[list[str]]:
    # The workload seed only shapes the corpus; mixsearch keeps its default
    # master seed, as a user running the CLI would.
    return [[part.format(**paths) for part in stage] + ["--out", str(run_dir)]
            for stage in tails]


def median(values: list[float]) -> float:
    return statistics.median(values)


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def machine_facts(threads: int) -> dict:
    import scipy
    facts = {"nproc": len(os.sched_getaffinity(0)),
             "python": platform.python_version(),
             "numpy": numpy.__version__, "scipy": scipy.__version__,
             "blas_threads_per_child": threads}
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        facts["blas"] = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        facts["blas"] = "unknown"
    facts["ram_gib"] = round(os.sysconf("SC_PAGE_SIZE")
                             * os.sysconf("SC_PHYS_PAGES") / 2**30, 1)
    facts["cpu"] = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            line = next((ln for ln in fh if ln.startswith("model name")), "")
        facts["cpu"] = line.split(":", 1)[1].strip() or facts["cpu"]
    except (OSError, IndexError):
        pass
    return facts


# ---------------------------------------------------------------------------
# Output checks

def read_trials(path: Path) -> list[dict]:
    with path.open() as fh:
        return [json.loads(line) for line in fh if line.strip()]


def check_run_dir(ledger: Ledger, run_dir: Path, ran: list[str],
                  wl: Workload | None, n_windows: int) -> tuple[dict | None, int]:
    """Check one run directory after its stages ran.

    Returns ``study.json`` (None without a search) and the completed trials.
    """
    manifest_path = run_dir / "manifest.json"
    recorded = (json.loads(manifest_path.read_text())["stages"]
                if manifest_path.exists() else {})
    ledger.check("manifest lists every stage that ran",
                 all(s in recorded for s in ran))
    if "embed" in ran:
        emb = run_dir / recorded.get("embed", {}).get("outputs", {}).get(
            "embeddings", "embeddings.tsem")
        rows = (struct.unpack_from("<Q", emb.read_bytes()[:16], 8)[0]
                if emb.exists() else -1)
        ledger.check(f"embedding rows {rows} == windows {n_windows}",
                     rows == n_windows)
    if wl is None or "search" not in ran:
        return None, 0
    outputs = recorded.get("search", {}).get("outputs", {})
    trials_path = run_dir / outputs.get("trials", "trials.jsonl")
    records = read_trials(trials_path) if trials_path.exists() else []
    ledger.check(f"trials.jsonl has {len(records)} of {wl.trials} trials",
                 len(records) == wl.trials)
    completed = sum(r["state"] == "complete" for r in records)
    ledger.attempted += wl.trials
    ledger.failed += wl.trials - completed
    study_path = run_dir / outputs.get("study", "study.json")
    study = json.loads(study_path.read_text()) if study_path.exists() else {}
    best = study.get("best_objective")
    ledger.check("best_val_mse is finite",
                 isinstance(best, float) and math.isfinite(best))
    if wl.check_quality and best is not None:
        ratio = best / study["baseline"]["avg_mse"]
        ledger.check(f"val_mse_ratio {ratio:.4f} < 1", ratio < 1.0)
    return study or None, completed


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced run

def layer_metrics(traced: dict, reps: list[Rep], run_dir: Path) -> dict:
    spans = [tracing.Span(**s) for s in traced["spans"]]
    own = tracing.self_times(spans)
    by_name: dict[str, list[tracing.Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, []))

    def attr_sum(name: str, key: str) -> int:
        return sum(s.attrs.get(key, 0) for s in by_name.get(name, []))

    m: dict[str, tuple[float, str, str]] = {}
    for name in stages.SPAN_NAMES + [stages.OBJECTIVE_SPAN]:
        m[f"{name}.s"] = (total(name), "s", "measured")
        m[f"{name}.calls"] = (len(by_name.get(name, [])), "count", "count")

    windows = [s.attrs.get("bytes", 0) for s in by_name.get("dataset.make_windows", [])]
    m["dataset.window_bytes"] = (max(windows, default=0), "bytes", "computed")
    manifest = json.loads((run_dir / "manifest.json").read_text())
    table = run_dir / manifest["stages"]["preprocess"]["outputs"]["table"]
    m["dataset.processed_bytes"] = (table.stat().st_size, "bytes", "count")

    m["clustering.distance_flops"] = (
        attr_sum("clustering.squared_distances", "flops"), "flop", "computed")

    suggest_ms = [s.duration * 1e3 for s in by_name.get("search.tpe_suggest", [])]
    if len(suggest_ms) >= 2:
        pct = statistics.quantiles(suggest_ms, n=100, method="inclusive")
        p50, p95 = pct[49], pct[94]
    else:
        p50 = p95 = suggest_ms[0] if suggest_ms else 0.0
    m["search.tpe_suggest.p50_ms"] = (p50, "ms", "measured")
    m["search.tpe_suggest.p95_ms"] = (p95, "ms", "measured")
    m["search.trials_completed"] = (
        attr_sum("search.run_study", "completed"), "count", "count")
    m["search.trials_failed"] = (
        attr_sum("search.run_study", "failed"), "count", "count")
    capacity = sum(s.attrs.get("jobs", 1) * s.duration
                   for s in by_name.get("search.run_study", []))
    busy = total("search.tpe_suggest") + total(stages.OBJECTIVE_SPAN)
    m["search.busy_share"] = (busy / capacity if capacity else 0.0,
                              "ratio", "measured")

    tokens = attr_sum("trainers.patch_net_loss_and_grads", "tokens")
    train_s = total("trainers.train_patch_net")
    m["trainers.tokens"] = (tokens, "count", "count")
    m["trainers.patch_net_flops"] = (
        attr_sum("trainers.patch_net_loss_and_grads", "flops"), "flop", "computed")
    m["trainers.tokens_per_s"] = (tokens / train_s if train_s else 0.0,
                                  "1/s", "measured")

    for stage, func in stages.STAGE_FUNCTIONS.items():
        rep_inv = [[i for i in r.invocations if i.stage == stage] for r in reps]
        walls = [sum(i.wall_s for i in invs) for invs in rep_inv if invs]
        rss = [max(i.rss_mb for i in invs) for invs in rep_inv if invs]
        m[f"pipeline.{stage}.wall_s"] = (median(walls) if walls else 0.0, "s", "measured")
        m[f"pipeline.{stage}.peak_rss_mb"] = (median(rss) if rss else 0.0, "MB", "measured")
        m[f"pipeline.{stage}.self_s"] = (
            sum(own[s.span_id] for s in by_name.get(f"pipeline.{func}", [])),
            "s", "measured")

    layer_self: dict[str, float] = {}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0.0) + own[s.span_id]
    for layer in ("cli", "pipeline", "dataset", "embedding", "clustering",
                  "search", "trainers", "report"):
        m[f"layer.{layer}.self_s"] = (layer_self.get(layer, 0.0), "s", "measured")

    # Each CLI child pays the import once; the traced process paid it once.
    n_inv = len(traced["invocations"])
    traced_wall = n_inv * traced["import_s"] + total(stages.CLI_SPAN)
    m["cli.import.s"] = (traced["import_s"], "s", "measured")
    m["trace.wall_s"] = (traced_wall, "s", "measured")
    m["trace.overhead_s"] = (traced_wall - median([r.wall_s for r in reps]),
                             "s", "measured")
    return m


# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    wl = WORKLOADS[name]
    nproc = len(os.sched_getaffinity(0))
    threads = max(1, nproc // wl.jobs)
    t_begin = time.monotonic()
    work = WORK_ROOT / f"{name}-s{seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    ledger = Ledger()
    try:
        runner = Runner(work, threads, t_begin + RUN_DEADLINE_S)
        data, schema = corpus.write_corpus(work, seed, ROWS_PER_PROFILE)
        paths = {"data": str(data), "schema": str(schema)}
        n_windows = len(corpus.PROFILE_IDS) * (ROWS_PER_PROFILE - WINDOW_LENGTH + 1)

        setup = []
        for _ in range(SETUP_REPEATS):
            inv = runner.cli(["--version"])
            if ledger.invocation(inv):
                setup.append(inv.wall_s)

        shared = work / "prepared"
        if wl.prepare:
            inv, _ = runner.stages(
                stage_argvs(wl.prepare, shared, paths), False, "prepare")
            ledger.invocation(inv)
            check_run_dir(ledger, shared, [s[0] for s in wl.prepare], None,
                          n_windows)

        timed_names = [s[0] for s in wl.timed]
        reps: list[Rep] = []
        start = time.perf_counter()
        while True:
            run_dir = shared if wl.prepare else work / f"rep{len(reps)}"
            rep = Rep([])
            for argv in stage_argvs(wl.timed, run_dir, paths):
                inv = runner.cli(argv)
                rep.invocations.append(inv)
                if not ledger.invocation(inv):
                    break
            rep.study, rep.completed = check_run_dir(ledger, run_dir,
                                                     timed_names, wl, n_windows)
            reps.append(rep)
            elapsed = time.perf_counter() - start
            longest = max(r.wall_s for r in reps)
            if elapsed + longest > seconds or ledger.failed:
                break

        # The full pipeline runs its --jobs 1 search again over the first
        # repetition's directory: the study must repeat exactly, and each
        # search adds a trials_per_s sample.
        repeats: list[Rep] = []
        if wl.check_quality:
            search = [s for s in wl.timed if s[0] == "search"]
            for _ in range(SEARCH_REPEATS):
                inv = runner.cli(stage_argvs(search, work / "rep0", paths)[0])
                repeats.append(Rep([inv]))
                if ledger.invocation(inv):
                    repeats[-1].study, repeats[-1].completed = check_run_dir(
                        ledger, work / "rep0", ["search"], wl, n_windows)

        studies = [r.study for r in reps + repeats]
        layers = None
        if trace:
            run_dir = shared if wl.prepare else work / "traced"
            inv, traced = runner.stages(
                stage_argvs(wl.timed, run_dir, paths), True, "traced")
            if ledger.invocation(inv) and traced is not None:
                studies.append(check_run_dir(ledger, run_dir, timed_names, wl,
                                             n_windows)[0])
                layers = layer_metrics(traced, reps, run_dir)
        if wl.check_quality:
            best = {((s or {}).get("best_trial_id"), (s or {}).get("best_objective"))
                    for s in studies}
            ledger.check("--jobs 1 search repeats its best trial and objective",
                         len(best) == 1)
    finally:
        log = work / "children.log"
        if ledger.failed and log.exists():
            tail = log.read_text(errors="replace").splitlines()[-40:]
            print("\n".join(["children.log (last 40 lines):"] + tail),
                  file=sys.stderr)
        shutil.rmtree(work, ignore_errors=True)

    trials_per_s = [r.completed / sum(i.wall_s for i in r.invocations
                                      if i.stage == "search")
                    for r in reps + repeats if r.study]
    best, ratio = [], []
    for r in reps:
        if r.study:
            best.append(r.study["best_objective"])
            ratio.append(r.study["best_objective"] / r.study["baseline"]["avg_mse"])
    samples = {
        "setup_s": setup,
        "wall_s": [r.wall_s for r in reps],
        "peak_rss_mb": [max(i.rss_mb for i in r.invocations) for r in reps],
        "trials_per_s": trials_per_s,
        "best_val_mse": best,
        "val_mse_ratio": ratio,
    }
    stage_walls = {s: [sum(i.wall_s for i in r.invocations if i.stage == s)
                       for r in reps] for s in timed_names}
    return {"workload": name, "seed": seed, "threads": threads,
            "facts": machine_facts(threads), "samples": samples,
            "stage_walls": stage_walls,
            "ledger": ledger, "layers": layers,
            "total_s": time.monotonic() - t_begin}


def report(outcome: dict, trace: bool) -> dict:
    ledger: Ledger = outcome["ledger"]
    facts = outcome["facts"]
    print(f"workload {outcome['workload']}  seed {outcome['seed']}")
    print("machine: " + ", ".join(f"{k}={v}" for k, v in facts.items()))
    correct = not ledger.failed_checks and all(outcome["samples"].values())
    metrics = {}
    print(f"{'metric':34s} {'median':>14s} {'q1':>12s} {'q3':>12s}  n  unit")
    for name, unit in {**END_TO_END, **QUALITY}.items():
        values = outcome["samples"][name]
        if not values:
            print(f"{name:34s} {'missing':>14s}")
            continue
        q1, q3 = quartiles(values)
        print(f"{name:34s} {median(values):14.6g} {q1:12.6g} {q3:12.6g} "
              f"{len(values):2d}  {unit}")
        if name in END_TO_END and not trace:
            metrics[name] = {"value": median(values), "unit": unit}
        if name in QUALITY and trace:
            metrics[f"search.{name}"] = {"value": median(values), "unit": unit}
    print("stage wall medians: " + ", ".join(
        f"{stage} {median(walls):.3f} s"
        for stage, walls in outcome["stage_walls"].items()))
    share = ledger.failed / max(ledger.attempted, 1)
    print(f"{'failed_share':34s} {share:14.6g} {'':12s} {'':12s}  "
          f"{ledger.attempted} attempted, {ledger.failed} failed")
    for failure in ledger.failed_checks:
        print(f"FAILED: {failure}")
    if trace:
        layers = outcome["layers"] or {}
        correct = correct and bool(layers)
        print("per-layer breakdown (traced run):")
        for name, (value, unit, kind) in layers.items():
            print(f"  {name:44s} {value:16.6g} {unit:6s} {kind}")
            metrics[name] = {"value": value, "unit": unit}
    print(f"run took {outcome['total_s']:.1f} s")
    return {"correct": correct, "attempted": ledger.attempted,
            "failed": ledger.failed, "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "mixsearch" / "cli.py").is_file():
        print(f"error: no mixsearch sources under {ROOT / 'src'}; run from the "
              f"root of a source checkout", file=sys.stderr)
        return 2
    outcome = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace))
    result = report(outcome, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
