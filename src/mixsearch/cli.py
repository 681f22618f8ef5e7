"""Command-line entry point.

Subcommands map one-to-one onto pipeline stages, plus ``selftest`` which
runs the built-in synthetic benchmark end to end.  Intermediates persist in
the output directory so every stage is independently runnable and resumable.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

from . import MixsearchError, __version__, benchmark, pipeline, report, trainers
from .pipeline import PipelineError
from .trainers import TrainConfig

logger = logging.getLogger(__name__)

DEFAULT_OUT_ENV = "MIXSEARCH_OUT"
DEFAULT_EWMA_SPANS = [200, 500, 1500, 4000]
DEFAULT_TEST_PROFILES = [65]
DEFAULT_VAL_PROFILES = [18, 39, 46, 56, 75]
SELFTEST_PRODUCTS = {"weights.csv", "counts.csv", "sweep.csv", "summary.json", "review"}
BOOLEAN_WORDS = {"1": True, "true": True, "yes": True, "on": True,
                 "0": False, "false": False, "no": False, "off": False}


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip()]


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part.strip()]


def _str_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mixsearch",
        description="Data-mixture search for time-series forecasting: "
                    "preprocess, embed, cluster, search, report.")
    parser.add_argument("--version", action="version", version=__version__)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", type=Path,
                        default=Path(os.environ.get(DEFAULT_OUT_ENV, "mixsearch_out")),
                        help="output directory (default: $%s or ./mixsearch_out)"
                             % DEFAULT_OUT_ENV)
    common.add_argument("--seed", type=int, default=0, help="master seed")
    common.add_argument("--config", type=Path, default=None,
                        help="key=value file whose entries override any flag")
    common.add_argument("--force", action="store_true",
                        help="proceed despite a stale manifest")
    common.add_argument("--log-level", default="info",
                        choices=["debug", "info", "warning", "error"])

    trainer = argparse.ArgumentParser(add_help=False)
    trainer.add_argument("--trainer", default=TrainConfig.trainer,
                         choices=list(trainers.TRAINERS))
    trainer.add_argument("--budget-tokens", type=int, default=TrainConfig.token_budget,
                         help="training tokens per trial (a token is one patch)")
    trainer.add_argument("--batch-size", type=int, default=TrainConfig.batch_size)
    trainer.add_argument("--lr", type=float, default=TrainConfig.peak_lr,
                         help="peak learning rate")
    trainer.add_argument("--warmup-fraction", type=float, default=TrainConfig.warmup_fraction)
    trainer.add_argument("--patch-len", type=int, default=TrainConfig.patch_len)
    trainer.add_argument("--embed-dim", type=int, default=TrainConfig.embed_dim)
    trainer.add_argument("--ridge-lambda", type=float, default=TrainConfig.ridge_lambda)
    trainer.add_argument("--external-cmd", default=None,
                         help="external trainer command; {dir} expands to the handoff dir")
    trainer.add_argument("--external-timeout", type=float,
                         default=trainers.ExternalProtocol.timeout_s)

    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("preprocess", parents=[common],
                       help="ingest CSV, derive EWMA features, scale, split, window")
    p.add_argument("--data", required=True, help="input CSV path")
    p.add_argument("--schema", default=None,
                   help="column=role file (roles: id/input/target)")
    p.add_argument("--id-col", default=None)
    p.add_argument("--input-cols", type=_str_list, default=None)
    p.add_argument("--target-cols", type=_str_list, default=None)
    p.add_argument("--ewma-spans", type=_int_list, default=DEFAULT_EWMA_SPANS,
                   help="comma-separated EWMA spans (empty string disables)")
    p.add_argument("--test-profiles", type=_int_list, default=DEFAULT_TEST_PROFILES)
    p.add_argument("--val-profiles", type=_int_list, default=DEFAULT_VAL_PROFILES)
    p.add_argument("--window-length", type=int, default=300)
    p.add_argument("--stride", type=int, default=1)

    p = sub.add_parser("embed", parents=[common],
                       help="featurize windows, or ingest external embeddings")
    p.add_argument("--embeddings", default=None,
                   help="external embedding file (bypasses the featurizer)")

    p = sub.add_parser("cluster", parents=[common],
                       help="k-means over standardized embeddings of training windows")
    p.add_argument("--k", type=int, default=36)
    p.add_argument("--max-iter", type=int, default=300)
    p.add_argument("--tol", type=float, default=1e-6)
    p.add_argument("--restarts", type=int, default=10)
    p.add_argument("--centroids", default=None,
                   help="centroid output path (default: <out>/centroids.tsem)")

    p = sub.add_parser("search", parents=[common, trainer],
                       help="optimize per-cluster sampling weights")
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--jobs", type=int, default=4, help="trials per batch, run side by side")
    p.add_argument("--sampler", default="tpe", choices=["tpe", "random"])
    p.add_argument("--k", type=int, default=None,
                   help="expected cluster count (checked against the cluster stage)")

    p = sub.add_parser("sweep", parents=[common, trainer],
                       help="test MSE versus random training-subset size")
    p.add_argument("--fractions", type=_float_list,
                   default=[0.25, 0.5, 0.75, 1.0])

    sub.add_parser("report", parents=[common],
                   help="emit weights.csv, counts.csv, sweep.csv, summary.json")

    p = sub.add_parser("review-export", parents=[common],
                       help="export sample windows from the heaviest and "
                            "lightest clusters plus the reviewer prompt")
    p.add_argument("--review-samples", type=int, default=10)

    p = sub.add_parser("selftest", parents=[common],
                       help="run the synthetic planted-regime benchmark end to end")
    p.add_argument("--trials", type=int, default=60)
    p.add_argument("--windows-per-regime", type=int, default=1000)
    p.add_argument("--jobs", type=int, default=1, help="trials per batch, run side by side")

    return parser


def apply_config_overrides(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Apply key=value pairs from --config on top of the parsed flags.

    Values go through their option's own argparse conversion and choices;
    a flag that takes no value reads a boolean word instead.
    """
    if not getattr(args, "config", None):
        return
    path = Path(args.config)
    if not path.exists():
        raise PipelineError(f"config file not found: {path}")
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction))
    subparser = subparsers.choices[args.command]
    actions = {a.dest: a for a in subparser._actions}
    for line_no, line in enumerate(path.read_text().splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise PipelineError(f"{path}: line {line_no}: expected key=value")
        key, value = (part.strip() for part in line.split("=", 1))
        dest = key.replace("-", "_")
        action = actions.get(dest)
        if action is None or not hasattr(args, dest):
            raise PipelineError(f"{path}: line {line_no}: unknown option {key!r}")
        if action.nargs == 0:
            coerced = BOOLEAN_WORDS.get(value.lower())
            if coerced is None:
                raise PipelineError(f"{path}: line {line_no}: {key} expects one of "
                                    f"{', '.join(BOOLEAN_WORDS)}, got {value!r}")
        else:
            try:
                coerced = subparser._get_values(action, [value])
            except argparse.ArgumentError as exc:
                raise PipelineError(f"{path}: line {line_no}: {exc}") from None
        setattr(args, dest, coerced)


def run_selftest(args: argparse.Namespace) -> int:
    """Synthetic benchmark: search must beat the full-data baseline, keep the
    mixture small, and favor signal clusters over noise clusters."""
    out_dir = Path(args.out)
    for entry in sorted(out_dir.iterdir()) if out_dir.is_dir() else []:
        if entry.name not in SELFTEST_PRODUCTS or (
                entry.name == "review" and not (entry / "prompt.txt").is_file()):
            raise PipelineError(f"--out {out_dir} holds {entry.name}, not a selftest report")
    out_dir.mkdir(parents=True, exist_ok=True)
    outcome = benchmark.run_benchmark_study(
        args.seed, n_trials=args.trials, jobs=args.jobs,
        windows_per_regime=args.windows_per_regime)

    best = outcome.study.best_trial
    signal_mean, noise_mean = outcome.mean_weights()
    checks = [
        ("best mixture beats full-data baseline",
         best.objective < outcome.baseline.objective,
         f"{best.objective:.5f} vs {outcome.baseline.objective:.5f}"),
        ("best mixture uses at most 60% of the corpus",
         outcome.best_mixture_fraction <= 0.60,
         f"fraction {outcome.best_mixture_fraction:.3f}"),
        ("signal clusters outweigh noise clusters",
         signal_mean > noise_mean,
         f"{signal_mean:.3f} vs {noise_mean:.3f}"),
    ]
    assignments = outcome.cluster_model.assignments
    report.emit_reports(outcome.study, assignments, outcome.baseline.objective,
                        None, out_dir.joinpath)
    report.export_review_bundle(outcome.study, assignments, outcome.data.windows,
                                outcome.data.train_indices, m=5,
                                review_dir=out_dir / "review", seed=args.seed)
    all_ok = True
    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {name} ({detail})")
        all_ok &= ok
    print(f"selftest {'passed' if all_ok else 'FAILED'}; reports in {out_dir}")
    return 0 if all_ok else 1


def dispatch(argv: list[str]) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    apply_config_overrides(args, parser)
    logging.basicConfig(level=getattr(logging, args.log_level.upper()),
                        format="%(levelname)s %(name)s: %(message)s")
    if args.command == "selftest":
        return run_selftest(args)
    with pipeline.RunManifest.open(Path(args.out), args.seed, args.command,
                                   args.force) as run:
        # Looked up on each call, not bound at import: a traced benchmark run swaps
        # the module's stage functions for timing wrappers.
        getattr(pipeline, "stage_" + args.command.replace("-", "_"))(run, args)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        return dispatch(argv)
    except SystemExit as exc:  # argparse usage errors and --version
        code = exc.code
        return code if isinstance(code, int) else 2
    except MixsearchError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:  # a search's workers are reaped on the way here
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
