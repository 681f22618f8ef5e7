import ast
import importlib
import json
import math
import os
import pkgutil
import re
import shlex
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import mixsearch
from mixsearch import benchmark, embedding, pipeline, report
from mixsearch.cli import build_parser, main
from mixsearch.dataset import DatasetError
from mixsearch.pipeline import RunManifest, train_config
from mixsearch.search import N_STARTUP
from mixsearch.trainers import ExternalProtocol, TrainConfig

SEED = 7
PREP = ["--ewma-spans", "8,32", "--test-profiles", "7", "--val-profiles", "5,6",
        "--window-length", "40", "--stride", "20"]


@pytest.fixture(scope="module")
def raw_csv(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("raw")
    path = tmp / "raw.csv"
    schema = benchmark.write_raw_profile_csv(path, seed=0,
                                             profile_ids=tuple(range(8)),
                                             rows_per_profile=300)
    schema_path = tmp / "schema.txt"
    schema_path.write_text("".join(f"{c}={r}\n" for c, r in schema.items()))
    return path, schema_path, schema


# Patch-net settings small enough for a test: 10 divides the window length 40.
TINY_PATCH_NET = ["--trainer", "patch-net", "--budget-tokens", "400",
                  "--batch-size", "16", "--patch-len", "10", "--embed-dim", "4"]

# External trainer stub: scores a trial by its mixture size.
STUB_TRAINER = """
import json, pathlib, sys
d = pathlib.Path(sys.argv[1])
cfg = json.loads((d / "config.json").read_text())
names = cfg["target_names"]
(d / "metrics.json").write_text(json.dumps(
    {"mse": {n: 1.0 for n in names}, "mae": {n: 1.0 for n in names},
     "avg_mse": 1.0 / cfg["n_windows"]}))
"""


def unreadable_embeddings(run, n_windows):
    raise OSError("embeddings read")


def clustered_run(out, raw_csv):
    """Run preprocess, embed and cluster; return the common flags."""
    csv_path, schema_path, _ = raw_csv
    common = ["--out", str(out), "--seed", str(SEED), "--log-level", "warning"]
    assert main(["preprocess", *common, "--data", str(csv_path),
                 "--schema", str(schema_path), *PREP]) == 0
    assert main(["embed", *common]) == 0
    assert main(["cluster", *common, "--k", "6", "--restarts", "3"]) == 0
    return common


def staged_run(out, raw_csv, trials=12, extra_search=()):
    common = clustered_run(out, raw_csv)
    assert main(["search", *common, "--trials", str(trials), "--jobs", "1",
                 "--trainer", "ridge", *extra_search]) == 0
    assert main(["sweep", *common, "--fractions", "0.5,1.0", "--trainer", "ridge"]) == 0
    assert main(["report", *common]) == 0
    assert main(["review-export", *common, "--review-samples", "2"]) == 0


class TestDispatch:
    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_no_subcommand_prints_usage(self, capsys):
        assert main([]) == 2
        assert "usage" in capsys.readouterr().err.lower()

    def test_missing_required_flag(self, capsys):
        assert main(["preprocess"]) == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0

    @staticmethod
    def _child(*args):
        # The child imports the same mixsearch as this process, installed or not.
        src = str(Path(mixsearch.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *args], capture_output=True,
                              text=True, env={**os.environ, "PYTHONPATH": path})

    def test_console_script_entry(self):
        proc = self._child("-m", "mixsearch.cli", "definitely-not-a-command")
        assert proc.returncode == 2

    def test_cli_import_leaves_scipy_signal_unloaded(self):
        # scipy.signal takes over a second to import, and no stage needs it.
        proc = self._child(
            "-c", "import sys, mixsearch.cli; print('scipy.signal' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_start_up_loads_no_stage_scipy_module(self):
        # No stage needs scipy: preprocess, embed, cluster and search (TPE)
        # are numpy alone.  Start-up loads none of these modules either.
        loaded = ("print(sorted(m for m in ('scipy.special', 'scipy.spatial', "
                  "'scipy.signal') if m in sys.modules))")
        for run in ("import mixsearch.cli",
                    "from mixsearch.cli import main; assert main(['--version']) == 0"):
            proc = self._child("-c", f"import sys; {run}; {loaded}")
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.splitlines()[-1] == "[]", run

    def test_preprocess_loads_no_scipy_signal(self, raw_csv, tmp_path):
        csv_path, schema_path, _ = raw_csv
        args = ["preprocess", "--out", str(tmp_path), "--log-level", "warning",
                "--data", str(csv_path), "--schema", str(schema_path), *PREP]
        proc = self._child("-c", "import sys; from mixsearch.cli import main; "
                           f"assert main({args!r}) == 0; "
                           "print('scipy.signal' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_cluster_loads_no_scipy_spatial(self, raw_csv, tmp_path):
        # k-means distances are numpy: no module of the package imports
        # scipy.spatial, and running the stage does not load it.
        for source in Path(mixsearch.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(source.read_text())):
                if isinstance(node, ast.Import):
                    names = [a.name for a in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [f"{node.module}.{a.name}" for a in node.names]
                else:
                    continue
                assert not any(n.startswith("scipy.spatial") for n in names), source
        csv_path, schema_path, _ = raw_csv
        common = ["--out", str(tmp_path), "--log-level", "warning"]
        assert main(["preprocess", *common, "--data", str(csv_path),
                     "--schema", str(schema_path), *PREP]) == 0
        assert main(["embed", *common]) == 0
        args = ["cluster", *common, "--k", "6", "--restarts", "2"]
        proc = self._child("-c", "import sys; from mixsearch.cli import main; "
                           f"assert main({args!r}) == 0; "
                           "print('scipy.spatial' in sys.modules)")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_embed_loads_no_scipy(self, raw_csv, tmp_path):
        # The featurizer's sliding min/max is a numpy scan, not scipy.ndimage.
        csv_path, schema_path, _ = raw_csv
        common = ["--out", str(tmp_path), "--log-level", "warning"]
        assert main(["preprocess", *common, "--data", str(csv_path),
                     "--schema", str(schema_path), *PREP]) == 0
        args = ["embed", *common]
        proc = self._child("-c", "import sys; from mixsearch.cli import main; "
                           f"assert main({args!r}) == 0; "
                           "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"

    def test_search_loads_no_scipy(self, raw_csv, tmp_path):
        # TPE's normal CDF and quantile are numpy: a ridge search past the
        # startup trials, and the selftest, load no scipy module.
        common = clustered_run(tmp_path / "run", raw_csv)
        search_args = ["search", *common, "--trials", str(N_STARTUP + 4), "--jobs", "2",
                       "--trainer", "ridge"]
        selftest_args = ["selftest", "--out", str(tmp_path / "selftest"), "--seed", "3",
                         "--jobs", "2", "--windows-per-regime", "150",
                         "--log-level", "warning"]
        proc = self._child("-c", "import sys; from mixsearch.cli import main; "
                           f"assert main({search_args!r}) == 0; "
                           f"assert main({selftest_args!r}) == 0; "
                           "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "[]"
        trials = (tmp_path / "run" / "trials.jsonl").read_text().splitlines()
        assert len(trials) == N_STARTUP + 4

    def test_full_scale_defaults(self):
        parser = build_parser()
        search = parser.parse_args(["search"])
        assert (search.trials, search.jobs, search.sampler) == (100, 4, "tpe")
        assert search.budget_tokens == 2_000_000
        assert (search.batch_size, search.lr, search.patch_len) == (1024, 1e-4, 30)
        assert search.warmup_fraction == 0.3
        cluster = parser.parse_args(["cluster"])
        assert cluster.k == 36
        pre = parser.parse_args(["preprocess", "--data", "x.csv"])
        assert pre.window_length == 300 and pre.stride == 1
        assert pre.ewma_spans == [200, 500, 1500, 4000]
        assert pre.test_profiles == [65]
        assert pre.val_profiles == [18, 39, 46, 56, 75]

    def test_stage_looked_up_on_every_call(self, raw_csv, tmp_path, monkeypatch):
        # A traced benchmark run swaps pipeline.stage_* for wrappers after import;
        # a stage bound at import would skip them.
        csv_path, schema_path, _ = raw_csv
        common = ["--out", str(tmp_path / "run"), "--seed", str(SEED), "--log-level", "warning"]
        assert main(["preprocess", *common, "--data", str(csv_path),
                     "--schema", str(schema_path), *PREP]) == 0
        real, calls = pipeline.stage_embed, []

        def stand_in(run, args):
            calls.append(args.command)
            return real(run, args)

        monkeypatch.setattr(pipeline, "stage_embed", stand_in)
        assert main(["embed", *common]) == 0
        assert calls == ["embed"]
        assert (tmp_path / "run" / "embeddings.tsem").exists()

    def test_every_error_class_is_a_mixsearch_error(self):
        # cli.main reports a MixsearchError as one error line; any other class
        # would escape it as a traceback.
        modules = [importlib.import_module(f"mixsearch.{info.name}")
                   for info in pkgutil.iter_modules(mixsearch.__path__)]
        errors = {cls for module in modules for cls in vars(module).values()
                  if isinstance(cls, type) and issubclass(cls, Exception)
                  and cls.__module__ == module.__name__}
        assert len(errors) >= 12
        assert [cls.__name__ for cls in errors
                if not issubclass(cls, mixsearch.MixsearchError)] == []

    def test_trainer_defaults_come_from_train_config(self):
        args = build_parser().parse_args(["search"])
        assert train_config(args) == TrainConfig()
        assert args.external_timeout == ExternalProtocol(["x"]).timeout_s


class TestStages:
    def test_full_staged_pipeline(self, raw_csv, tmp_path):
        out = tmp_path / "run"
        staged_run(out, raw_csv)
        assert not (out / "scaler.txt").exists()
        for name in ("processed.npz", "embeddings.tsem",
                     "assignments.csv", "centroids.tsem", "trials.jsonl",
                     "study.json", "best_weights.json", "weights.csv",
                     "counts.csv", "sweep.csv", "summary.json", "manifest.json"):
            assert (out / name).exists(), name
        assert (out / "review" / "prompt.txt").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["k"] == 6
        study = json.loads((out / "study.json").read_text())
        trials = {r["trial_id"]: r for r in map(
            json.loads, (out / "trials.jsonl").read_text().splitlines())}
        best = trials[study["best_trial_id"]]["weights"]
        weights = json.loads((out / "best_weights.json").read_text())
        assert weights == {str(c): w for c, w in enumerate(best)}
        assert len(weights) == 6

    def test_failed_json_write_keeps_previous_product(self, raw_csv, tmp_path,
                                                      monkeypatch, capsys):
        out = tmp_path / "atomic"
        staged_run(out, raw_csv)
        before = {name: (out / name).read_bytes()
                  for name in ("study.json", "trials.jsonl", "best_weights.json",
                               "manifest.json")}
        real_replace, real_write_text = os.replace, Path.write_text

        def replace(src, dst):
            if Path(dst).name == "study.json":
                raise OSError("disk full")
            real_replace(src, dst)

        def failing_write(product):
            def write_text(path, *args, **kwargs):
                if path.name == product + ".tmp":
                    raise OSError("disk full")
                return real_write_text(path, *args, **kwargs)
            return write_text

        common = ["--out", str(out), "--seed", str(SEED), "--log-level", "warning"]
        for target, name, fake in [(os, "replace", replace),
                                   (Path, "write_text", failing_write("study.json")),
                                   (Path, "write_text", failing_write("best_weights.json")),
                                   (Path, "write_text", failing_write("manifest.json"))]:
            with monkeypatch.context() as patch:
                patch.setattr(target, name, fake)
                assert main(["search", *common, "--trials", "4", "--jobs", "1",
                             "--trainer", "ridge", "--sampler", "random"]) == 1
            assert "disk full" in capsys.readouterr().err
            for product, content in before.items():
                assert (out / product).read_bytes() == content, product
            assert not list(out.glob("*.tmp"))

    def test_failed_report_write_keeps_previous_reports(self, raw_csv, tmp_path,
                                                        monkeypatch, capsys):
        out = tmp_path / "atomic-report"
        staged_run(out, raw_csv)
        common = ["--out", str(out), "--seed", str(SEED), "--log-level", "warning"]
        # A new study, so a report that got through would change the summary.
        assert main(["search", *common, "--trials", "4", "--jobs", "1",
                     "--trainer", "ridge", "--sampler", "random"]) == 0
        before = {name: (out / name).read_bytes()
                  for name in ("weights.csv", "counts.csv", "sweep.csv", "summary.json",
                               "manifest.json")}

        def failing(real, product, path_arg):
            def fake(*args, **kwargs):
                if Path(args[path_arg]).name == product:
                    raise OSError("disk full")
                return real(*args, **kwargs)
            return fake

        # weights.csv is written and renamed first, summary.json written last.
        for target, name, fake in [
                (Path, "open", failing(Path.open, "weights.csv.tmp", 0)),
                (Path, "write_text", failing(Path.write_text, "summary.json.tmp", 0)),
                (os, "replace", failing(os.replace, "weights.csv", 1))]:
            with monkeypatch.context() as patch:
                patch.setattr(target, name, fake)
                assert main(["report", *common]) == 1
            assert "disk full" in capsys.readouterr().err
            for product, content in before.items():
                assert (out / product).read_bytes() == content, product
            assert not list(out.glob("*.tmp"))
        assert main(["report", *common]) == 0
        assert (out / "summary.json").read_bytes() != before["summary.json"]

    def test_failed_study_keeps_previous_product(self, raw_csv, tmp_path, capsys):
        # Every trial of an external search fails, so the study raises.
        out = tmp_path / "all-failed"
        staged_run(out, raw_csv)
        before = (out / "trials.jsonl").read_bytes()
        stub = tmp_path / "fail.py"
        stub.write_text("import sys\nsys.exit(1)\n")
        cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(stub))} {{dir}}"
        assert main(["search", "--out", str(out), "--seed", str(SEED),
                     "--log-level", "warning", "--trials", "2", "--jobs", "1",
                     "--trainer", "external", "--external-cmd", cmd]) == 1
        assert "AllTrialsFailedError" in capsys.readouterr().err
        assert (out / "trials.jsonl").read_bytes() == before
        assert not list(out.glob("*.tmp"))

    def test_failed_cluster_write_keeps_previous_product(self, raw_csv, tmp_path,
                                                         monkeypatch, capsys):
        out = tmp_path / "atomic-cluster"
        common = clustered_run(out, raw_csv)
        before = {name: (out / name).read_bytes()
                  for name in ("assignments.csv", "centroids.tsem", "manifest.json")}
        real_replace, real_write_text = os.replace, Path.write_text

        def replace(src, dst):
            if Path(dst).name == "assignments.csv":
                raise OSError("disk full")
            real_replace(src, dst)

        def write_embedding_file(matrix, path):
            raise OSError("disk full")

        def write_text(path, *args, **kwargs):
            if path.name == "manifest.json.tmp":
                raise OSError("disk full")
            return real_write_text(path, *args, **kwargs)

        # A re-run with another k writes different assignments; neither a failed
        # rename nor a failed centroid or manifest write may leave them in place.
        for target, name, fake in [(os, "replace", replace),
                                   (embedding, "write_embedding_file",
                                    write_embedding_file),
                                   (Path, "write_text", write_text)]:
            current = {name: (out / name).read_bytes() for name in before}
            with monkeypatch.context() as patch:
                patch.setattr(target, name, fake)
                assert main(["cluster", *common, "--k", "5", "--restarts", "1"]) == 1
            assert "disk full" in capsys.readouterr().err
            assert (out / "assignments.csv").read_bytes() == before["assignments.csv"]
            assert (out / "manifest.json").read_bytes() == before["manifest.json"]
            # centroids.tsem is renamed just before assignments.csv, so only a
            # failure before the renames keeps it too.
            kept = [n for n in before if fake is not replace or n != "centroids.tsem"]
            for product in kept:
                assert (out / product).read_bytes() == current[product], product
            assert not list(out.glob("*.tmp"))
        assert main(["cluster", *common, "--k", "5", "--restarts", "1"]) == 0
        assert (out / "assignments.csv").read_bytes() != before["assignments.csv"]
        assert (out / "centroids.tsem").read_bytes() != before["centroids.tsem"]

    def test_failed_rewrite_keeps_previous_product(self, raw_csv, tmp_path,
                                                   monkeypatch, capsys):
        # A forced preprocess or embed re-run whose writer fails part-way keeps
        # the previous product, and the next stage still reads it.
        out = tmp_path / "atomic-rewrite"
        common = clustered_run(out, raw_csv)
        csv_path, schema_path, _ = raw_csv
        preprocess = ["preprocess", *common, "--data", str(csv_path),
                      "--schema", str(schema_path), *PREP]

        def partial_write(*args):
            Path(args[-1]).write_bytes(b"PK\x03\x04partial")
            raise OSError("disk full")

        for argv, product, module, writer, next_stage in [
                (preprocess, "processed.npz", pipeline, "save_table", "embed"),
                (["embed", *common], "embeddings.tsem", embedding,
                 "write_embedding_file", "cluster")]:
            before = {name: (out / name).read_bytes()
                      for name in (product, "manifest.json")}
            with monkeypatch.context() as patch:
                patch.setattr(module, writer, partial_write)
                assert main([*argv, "--force"]) == 1
            assert "disk full" in capsys.readouterr().err
            for name, content in before.items():
                assert (out / name).read_bytes() == content, name
            assert not list(out.glob("*.tmp"))
            assert main([next_stage, *common]) == 0

    def test_failed_review_export_keeps_previous_bundle(self, raw_csv, tmp_path,
                                                        monkeypatch, capsys):
        out = tmp_path / "atomic-review"
        staged_run(out, raw_csv)
        common = ["--out", str(out), "--seed", str(SEED), "--log-level", "warning"]

        def bundle():
            return {str(p.relative_to(out)): p.read_bytes()
                    for p in sorted((out / "review").rglob("*")) if p.is_file()}
        before = bundle()
        manifest = (out / "manifest.json").read_bytes()
        real_write = report._write_window_csv
        written = []

        def write_window_csv(*args):
            if len(written) == 3:
                raise OSError("disk full")
            written.append(args[-1])
            real_write(*args)

        with monkeypatch.context() as patch:
            patch.setattr(report, "_write_window_csv", write_window_csv)
            assert main(["review-export", *common, "--review-samples", "1"]) == 1
        assert "disk full" in capsys.readouterr().err
        assert bundle() == before
        assert (out / "manifest.json").read_bytes() == manifest
        assert not (out / "review.tmp").exists()

        assert main(["review-export", *common, "--review-samples", "1"]) == 0
        clusters = json.loads((out / "review" / "manifest.json").read_text())["clusters"]
        assert sorted(bundle()) == sorted(
            ["review/manifest.json", "review/prompt.txt",
             *(f"review/{c}/0.csv" for c in clusters)])
        assert not (out / "review.tmp").exists()

    @pytest.mark.parametrize("absolute", [False, True], ids=["relative", "absolute"])
    def test_centroids_outside_out_dir_are_staged(self, raw_csv, tmp_path, monkeypatch,
                                                  capsys, absolute):
        out = tmp_path / "run"
        common = clustered_run(out, raw_csv)
        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.chdir(elsewhere)
        centroids = elsewhere / "c.tsem"
        argv = ["cluster", *common, "--k", "5", "--restarts", "1",
                "--centroids", str(centroids if absolute else centroids.name)]
        real_write_text = Path.write_text

        def write_text(path, *args, **kwargs):
            if path.name == "manifest.json.tmp":
                raise OSError("disk full")
            return real_write_text(path, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(Path, "write_text", write_text)
            assert main(argv) == 1
        assert "disk full" in capsys.readouterr().err
        assert list(elsewhere.iterdir()) == []
        assert not list(out.glob("*.tmp"))

        assert main(argv) == 0
        recorded = RunManifest.open(out, SEED, "search", False).output("cluster", "centroids")
        assert recorded.resolve() == centroids.resolve()
        assert embedding.read_embedding_file(recorded, expected_rows=5).dims > 0
        assert list(elsewhere.iterdir()) == [centroids]

    @pytest.mark.parametrize("target", [".", "run", "kept", "run/assignments.csv",
                                        "run/manifest.json", "run/processed.npz"])
    def test_centroids_on_a_directory_or_product_refused(self, raw_csv, tmp_path,
                                                         monkeypatch, capsys, target):
        monkeypatch.chdir(tmp_path)
        common = clustered_run(Path("run"), raw_csv)
        (tmp_path / "kept").mkdir()
        (tmp_path / "kept" / "data.txt").write_text("user data\n")

        def snapshot():
            return {p: p.read_bytes() if p.is_file() else None
                    for p in sorted(tmp_path.rglob("*"))}
        before = snapshot()
        assert main(["cluster", *common, "--k", "5", "--restarts", "1",
                     "--centroids", target]) == 1
        err = capsys.readouterr().err
        assert "is a directory" in err or "already an output" in err
        assert snapshot() == before

    def test_centroids_beside_a_symlinked_out_dir(self, raw_csv, tmp_path, monkeypatch):
        real, work = tmp_path / "real", tmp_path / "work"
        real.mkdir()
        work.mkdir()
        (work / "run").symlink_to(real / "run", target_is_directory=True)
        (real / "run").mkdir()
        monkeypatch.chdir(work)
        common = clustered_run(Path("run"), raw_csv)
        assert main(["cluster", *common, "--k", "5", "--restarts", "1",
                     "--centroids", "c.tsem"]) == 0
        assert (work / "c.tsem").is_file()
        assert not (real / "c.tsem").exists()
        recorded = RunManifest.open(Path("run"), SEED, "search", False).output(
            "cluster", "centroids")
        assert recorded.resolve() == (work / "c.tsem").resolve()

    def test_each_stage_commits_in_staging_order(self, raw_csv, tmp_path, monkeypatch):
        csv_path, schema_path, _ = raw_csv
        common = ["--out", str(tmp_path / "run"), "--seed", str(SEED),
                  "--log-level", "warning"]
        real_replace, renamed = os.replace, []

        def replace(src, dst):
            renamed.append(Path(dst).name)
            real_replace(src, dst)

        monkeypatch.setattr(os, "replace", replace)
        commits = {}
        for stage, extra in [
                ("preprocess", ["--data", str(csv_path), "--schema", str(schema_path), *PREP]),
                ("embed", []), ("cluster", ["--k", "6", "--restarts", "1"]),
                ("search", ["--trials", "4", "--jobs", "1", "--trainer", "ridge"]),
                ("sweep", ["--fractions", "0.5,1.0", "--trainer", "ridge"]),
                ("report", []), ("review-export", ["--review-samples", "2"])]:
            renamed.clear()
            assert main([stage, *common, *extra]) == 0
            commits[stage] = list(renamed)
        assert commits == {
            "preprocess": ["processed.npz", "manifest.json"],
            "embed": ["embeddings.tsem", "manifest.json"],
            "cluster": ["centroids.tsem", "assignments.csv", "manifest.json"],
            "search": ["study.json", "best_weights.json", "trials.jsonl", "manifest.json"],
            "sweep": ["sweep.json", "manifest.json"],
            "report": ["weights.csv", "counts.csv", "sweep.csv", "summary.json",
                       "manifest.json"],
            "review-export": ["review", "manifest.json"],
        }

    @pytest.mark.parametrize("stage, extra, name, module, trains", [
        ("search", ["--trials", "12"], "study.json", pipeline.search, "run_study"),
        ("sweep", ["--fractions", "0.5,1.0"], "sweep.json", report, "run_size_sweep")],
        ids=["search", "sweep"])
    def test_taken_product_name_refused_before_training(self, raw_csv, tmp_path, monkeypatch,
                                                        capsys, stage, extra, name, module,
                                                        trains):
        out = tmp_path / "run"
        common = clustered_run(out, raw_csv)
        assert main(["cluster", *common, "--k", "6", "--restarts", "1",
                     "--centroids", str(out / name)]) == 0
        capsys.readouterr()

        def never(*args, **kwargs):
            raise AssertionError(f"{trains} was called")
        monkeypatch.setattr(module, trains, never)
        assert main([stage, *common, *extra, "--trainer", "ridge"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and name in err[0] and "already an output" in err[0], err
        assert not list(out.glob("*.tmp"))

    def test_preprocess_column_flags_match_schema_file(self, raw_csv, tmp_path):
        csv_path, schema_path, _ = raw_csv
        by_file, by_flags = tmp_path / "file", tmp_path / "flags"
        common = ["--seed", str(SEED), "--log-level", "warning",
                  "--data", str(csv_path), *PREP]
        assert main(["preprocess", "--out", str(by_file), *common,
                     "--schema", str(schema_path)]) == 0
        assert main(["preprocess", "--out", str(by_flags), *common,
                     "--id-col", "profile_id", "--input-cols", " u_d, u_q,speed,",
                     "--target-cols", "pm,winding"]) == 0
        for name in ("processed.npz", "manifest.json"):
            assert (by_flags / name).read_bytes() == (by_file / name).read_bytes(), name

    def test_preprocess_needs_every_column_flag(self, raw_csv, tmp_path, capsys):
        csv_path, _, _ = raw_csv
        assert main(["preprocess", "--out", str(tmp_path / "partial"), "--seed", "0",
                     "--log-level", "warning", "--data", str(csv_path), *PREP,
                     "--id-col", "profile_id", "--input-cols", "u_d,u_q,speed"]) == 1
        assert "provide --schema or all of" in capsys.readouterr().err

    def test_profile_id_beyond_int64_exits_1(self, tmp_path, capsys):
        csv_path = tmp_path / "raw.csv"
        csv_path.write_text("profile_id,u_d,pm\n1,0.5,2.0\n1e20,0.6,2.1\n")
        schema_path = tmp_path / "schema.txt"
        schema_path.write_text("profile_id=id\nu_d=input\npm=target\n")
        assert main(["preprocess", "--out", str(tmp_path / "run"), "--seed", "0",
                     "--log-level", "warning", "--data", str(csv_path),
                     "--schema", str(schema_path), *PREP]) == 1
        err = capsys.readouterr().err
        assert "error: DatasetError" in err and "row 2, column 'profile_id'" in err
        assert "Traceback" not in err

    def test_stage_out_of_order_is_error(self, tmp_path, capsys):
        out = tmp_path / "empty"
        rc = main(["cluster", "--out", str(out), "--seed", "0", "--log-level", "warning"])
        assert rc == 1
        assert "embed" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["1", "4"])
    def test_determinism_across_runs(self, raw_csv, tmp_path, jobs):
        # 16 trials: at --jobs 4 the last batch is the first that TPE proposes.
        a, b = tmp_path / "a", tmp_path / "b"
        staged_run(a, raw_csv, trials=16, extra_search=("--jobs", jobs))
        staged_run(b, raw_csv, trials=16, extra_search=("--jobs", jobs))
        for name in ("summary.json", "weights.csv", "counts.csv", "study.json",
                     "best_weights.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

        def trials(out):
            lines = (out / "trials.jsonl").read_text().splitlines()
            return [{k: v for k, v in json.loads(line).items() if k != "wall_time_s"}
                    for line in lines]
        assert trials(a) == trials(b)

    def test_external_embeddings_bypass_featurizer(self, raw_csv, tmp_path):
        from mixsearch.embedding import EmbeddingMatrix, write_embedding_file
        from mixsearch.dataset import load_processed_table, make_windows

        csv_path, schema_path, _ = raw_csv
        out = tmp_path / "ext"
        common = ["--out", str(out), "--seed", str(SEED), "--log-level", "warning"]
        assert main(["preprocess", *common, "--data", str(csv_path),
                     "--schema", str(schema_path), *PREP]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        pre = manifest["stages"]["preprocess"]
        table = load_processed_table(out / pre["outputs"]["table"])
        n = len(make_windows(table, 40, 20))
        rng = np.random.default_rng(0)
        ext = tmp_path / "external.tsem"
        write_embedding_file(
            EmbeddingMatrix(rng.normal(size=(n, 5)).astype(np.float32)), ext)
        assert main(["embed", *common, "--embeddings", str(ext)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stages"]["embed"]["provenance"] == "external"
        assert manifest["stages"]["embed"]["dims"] == 5

    def test_embed_logs_one_line_when_done(self, raw_csv, tmp_path, caplog):
        csv_path, schema_path, _ = raw_csv
        common = ["--out", str(tmp_path), "--log-level", "info"]
        assert main(["preprocess", *common, "--data", str(csv_path),
                     "--schema", str(schema_path), *PREP]) == 0
        caplog.clear()
        with caplog.at_level("INFO", logger="mixsearch.pipeline"):
            assert main(["embed", *common]) == 0
        lines = [r.getMessage() for r in caplog.records if r.name == "mixsearch.pipeline"]
        matrix = embedding.read_embedding_file(tmp_path / "embeddings.tsem", None)
        assert len(lines) == 1
        assert re.fullmatch(rf"embedded {matrix.rows} windows into {matrix.dims} dims "
                            r"in \d+\.\d\d s \(\d+ windows/s\)", lines[0]), lines

    def test_wrong_row_count_external_embeddings(self, raw_csv, tmp_path, capsys):
        from mixsearch.embedding import EmbeddingMatrix, write_embedding_file

        csv_path, schema_path, _ = raw_csv
        out = tmp_path / "ext2"
        common = ["--out", str(out), "--seed", str(SEED), "--log-level", "warning"]
        assert main(["preprocess", *common, "--data", str(csv_path),
                     "--schema", str(schema_path), *PREP]) == 0
        ext = tmp_path / "bad.tsem"
        write_embedding_file(
            EmbeddingMatrix(np.zeros((3, 5), np.float32)), ext)
        assert main(["embed", *common, "--embeddings", str(ext)]) == 1
        assert "rows" in capsys.readouterr().err


class TestLoadSchema:
    def test_comments_and_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "schema.txt"
        path.write_text("# roles\n\nprofile_id = id\n  # inputs\nu_d=input\n\npm=target\n")
        assert pipeline.load_schema(str(path), None, None, None) == {
            "profile_id": "id", "u_d": "input", "pm": "target"}

    def test_line_without_equals_names_its_line(self, tmp_path):
        path = tmp_path / "schema.txt"
        path.write_text("profile_id=id\n# note\nu_d input\npm=target\n")
        with pytest.raises(DatasetError, match=r"line 3: expected column=role"):
            pipeline.load_schema(str(path), None, None, None)

    def test_column_given_twice_names_the_second_line(self, tmp_path):
        path = tmp_path / "schema.txt"
        path.write_text("profile_id=id\nu_d=input\npm=target\nu_d=target\n")
        with pytest.raises(DatasetError, match=r"line 4: column 'u_d' given twice"):
            pipeline.load_schema(str(path), None, None, None)

    def test_input_named_as_target_refused(self):
        with pytest.raises(DatasetError,
                           match=r"column 'pm' named by both --input-cols and --target-cols"):
            pipeline.load_schema(None, "profile_id", ["u_d", "pm"], ["pm"])

    def test_id_named_as_input_refused(self):
        with pytest.raises(DatasetError,
                           match=r"column 'u_d' named by both --id-col and --input-cols"):
            pipeline.load_schema(None, "u_d", ["u_d", "u_q"], ["pm"])


class TestTrainerBranches:
    def test_search_patch_net(self, raw_csv, tmp_path, monkeypatch):
        out = tmp_path / "pn"
        common = clustered_run(out, raw_csv)
        # Only the ridge trainer reads the embeddings.
        monkeypatch.setattr(RunManifest, "embeddings", unreadable_embeddings)
        assert main(["search", *common, "--trials", "3", "--jobs", "1",
                     *TINY_PATCH_NET]) == 0
        records = [json.loads(line)
                   for line in (out / "trials.jsonl").read_text().splitlines()]
        assert [r["state"] for r in records] == ["complete"] * 3
        study = json.loads((out / "study.json").read_text())
        assert study["trainer_config"]["trainer"] == "patch-net"
        assert math.isfinite(study["baseline"]["avg_mse"])
        assert main(["report", *common]) == 0

    def test_patch_net_search_at_one_and_two_blas_threads(self, raw_csv, tmp_path):
        # The BLAS thread count is not part of the study, but OpenBLAS splits
        # some products' sums by thread, so the float32 trials may differ in
        # their last bits.  What holds: the same mixtures, and scores equal to
        # float32 rounding.  At stride 1 a mixture holds hundreds of windows,
        # so a batch of 256 windows of 4 patches makes the embedding gradient
        # a product of 1,024 rows, large enough for OpenBLAS to split.
        csv_path, schema_path, _ = raw_csv
        common = ["--out", str(tmp_path / "run"), "--seed", str(SEED),
                  "--log-level", "warning"]
        prep = [*PREP]
        prep[prep.index("--stride") + 1] = "1"
        assert main(["preprocess", *common, "--data", str(csv_path),
                     "--schema", str(schema_path), *prep]) == 0
        assert main(["embed", *common]) == 0
        assert main(["cluster", *common, "--k", "6", "--restarts", "3"]) == 0
        src = str(Path(mixsearch.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        products = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            shutil.copytree(tmp_path / "run", out)
            env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
                   "OMP_NUM_THREADS": threads}
            proc = subprocess.run(
                [sys.executable, "-m", "mixsearch.cli", "search", "--out", str(out),
                 "--seed", str(SEED), "--log-level", "warning", "--trials", "3",
                 "--jobs", "1", "--trainer", "patch-net", "--budget-tokens", "8000",
                 "--batch-size", "256", "--patch-len", "10", "--embed-dim", "32"],
                capture_output=True, text=True, env=env)
            assert proc.returncode == 0, proc.stderr
            trials = [{k: v for k, v in json.loads(line).items() if k != "wall_time_s"}
                      for line in (out / "trials.jsonl").read_text().splitlines()]
            assert [r["state"] for r in trials] == ["complete"] * 3
            products.append((trials, json.loads((out / "study.json").read_text())))

        def assert_close(a, b, where):
            if isinstance(a, dict):
                assert a.keys() == b.keys(), where
                for key in a:
                    assert_close(a[key], b[key], f"{where}.{key}")
            elif isinstance(a, list):
                assert len(a) == len(b), where
                for i, (x, y) in enumerate(zip(a, b)):
                    assert_close(x, y, f"{where}[{i}]")
            elif isinstance(a, float):
                assert b == pytest.approx(a, rel=1e-6), where
            else:
                assert a == b, where

        (one, study_one), (two, study_two) = products
        assert [(r["weights"], r["n_mix"]) for r in one] \
            == [(r["weights"], r["n_mix"]) for r in two]
        assert_close(one, two, "trials")
        assert_close(study_one, study_two, "study")

    def test_search_external_stub(self, raw_csv, tmp_path, monkeypatch):
        out = tmp_path / "ext"
        common = clustered_run(out, raw_csv)
        # An external trainer reads no embeddings.
        monkeypatch.setattr(RunManifest, "embeddings", unreadable_embeddings)
        stub = tmp_path / "stub.py"
        stub.write_text(STUB_TRAINER)
        cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(stub))} {{dir}}"
        assert main(["search", *common, "--trials", "4", "--jobs", "1",
                     "--trainer", "external", "--external-cmd", cmd]) == 0
        records = [json.loads(line)
                   for line in (out / "trials.jsonl").read_text().splitlines()]
        assert [r["state"] for r in records] == ["complete"] * 4
        handoffs = sorted(p.name for p in (out / "external").iterdir())
        assert handoffs == sorted([f"trial_{t:05d}" for t in range(4)]
                                  + ["trial_-0001"])
        for r in records:
            handoff = out / "external" / f"trial_{r['trial_id']:05d}"
            lines = (handoff / "mixture.csv").read_text().splitlines()
            assert len(lines) - 1 == r["n_mix"]
            assert r["objective"] == pytest.approx(1.0 / r["n_mix"])
        study = json.loads((out / "study.json").read_text())
        baseline = out / "external" / "trial_-0001"
        assert len((baseline / "mixture.csv").read_text().splitlines()) - 1 \
            == study["n_train"]

    def test_search_external_without_val_windows(self, raw_csv, tmp_path):
        # An external trainer scores itself, so a run with no val windows can search.
        csv_path, schema_path, _ = raw_csv
        out = tmp_path / "ext-no-val"
        common = ["--out", str(out), "--seed", str(SEED), "--log-level", "warning"]
        prep = [*PREP]
        prep[prep.index("--val-profiles") + 1] = ""
        assert main(["preprocess", *common, "--data", str(csv_path),
                     "--schema", str(schema_path), *prep]) == 0
        assert main(["embed", *common]) == 0
        assert main(["cluster", *common, "--k", "6", "--restarts", "3"]) == 0
        stub = tmp_path / "stub.py"
        stub.write_text(STUB_TRAINER)
        cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(stub))} {{dir}}"
        assert main(["search", *common, "--trials", "3", "--jobs", "1",
                     "--trainer", "external", "--external-cmd", cmd]) == 0
        records = [json.loads(line)
                   for line in (out / "trials.jsonl").read_text().splitlines()]
        assert [r["state"] for r in records] == ["complete"] * 3

    @pytest.mark.skipif(sys.platform != "linux", reason="search workers fork on Linux only")
    @pytest.mark.parametrize("to_group", [False, True], ids=["parent", "process-group"])
    def test_interrupted_search_stops_its_trainers(self, raw_csv, tmp_path, to_group):
        out = tmp_path / "run"
        common = clustered_run(out, raw_csv)
        pids = tmp_path / "pids"
        pids.mkdir()
        stub = tmp_path / "sleeper.py"
        stub.write_text("import os, pathlib, time\n"
                        f"pathlib.Path({str(pids)!r}, str(os.getpid())).touch()\n"
                        "time.sleep(30)\n")
        cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(stub))} {{dir}}"
        src = str(Path(mixsearch.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        # Its own session, so a signal to its process group reaches no test process.
        proc = subprocess.Popen(
            [sys.executable, "-m", "mixsearch.cli", "search", *common, "--trials", "4",
             "--jobs", "2", "--trainer", "external", "--external-cmd", cmd],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True,
            env={**os.environ, "PYTHONPATH": path})

        def alive(pid):  # a zombie, whose parent is gone, no longer runs
            try:
                return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] != "Z"
            except FileNotFoundError:
                return False

        started = []
        try:
            deadline = time.monotonic() + 60
            while len(started) < min(2, len(os.sched_getaffinity(0))):
                assert time.monotonic() < deadline and proc.poll() is None, "no trainer started"
                time.sleep(0.05)
                started = [int(p.name) for p in pids.iterdir()]
            (os.killpg if to_group else os.kill)(proc.pid, signal.SIGINT)
            proc.wait(timeout=30)
            started = [int(p.name) for p in pids.iterdir()]
            deadline = time.monotonic() + 5
            while any(map(alive, started)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not [pid for pid in started if alive(pid)]
        finally:
            proc.kill()
            proc.wait()
            for pid in started:
                if alive(pid):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.skipif(sys.platform != "linux", reason="search workers fork on Linux only")
    def test_ctrl_c_prints_one_error_line(self, raw_csv, tmp_path):
        out = tmp_path / "run"
        common = clustered_run(out, raw_csv)
        started = tmp_path / "started"
        started.mkdir()
        stub = tmp_path / "sleeper.py"
        stub.write_text("import os, pathlib, time\n"
                        f"pathlib.Path({str(started)!r}, str(os.getpid())).touch()\n"
                        "time.sleep(30)\n")
        cmd = f"{shlex.quote(sys.executable)} {shlex.quote(str(stub))} {{dir}}"
        src = str(Path(mixsearch.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        # Its own session, so the Ctrl-C below reaches no test process, and every
        # process the search starts can be found by its session id.
        proc = subprocess.Popen(
            [sys.executable, "-m", "mixsearch.cli", "search", *common, "--trials", "4",
             "--jobs", "2", "--trainer", "external", "--external-cmd", cmd],
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
            start_new_session=True, env={**os.environ, "PYTHONPATH": path})

        def session():  # the running (not zombie) processes of the search's session
            members = []
            for stat in Path("/proc").glob("[0-9]*/stat"):
                try:
                    fields = stat.read_text().rsplit(")", 1)[1].split()
                except (FileNotFoundError, ProcessLookupError):
                    continue
                if fields[0] != "Z" and int(fields[3]) == proc.pid:
                    members.append(int(stat.parent.name))
            return members

        try:
            deadline = time.monotonic() + 60
            while len(list(started.iterdir())) < min(2, len(os.sched_getaffinity(0))):
                assert time.monotonic() < deadline and proc.poll() is None, "no trainer started"
                time.sleep(0.05)
            os.killpg(proc.pid, signal.SIGINT)  # what a Ctrl-C in a terminal sends
            _, err = proc.communicate(timeout=30)
            deadline = time.monotonic() + 5
            while session() and time.monotonic() < deadline:
                time.sleep(0.05)
            assert proc.returncode == 130
            assert [line for line in err.splitlines() if line.startswith("error:")] \
                == ["error: interrupted"]
            assert "Traceback" not in err
            assert session() == []
        finally:
            proc.kill()
            proc.communicate()
            for pid in session():
                os.kill(pid, signal.SIGKILL)

    def test_sweep_patch_net(self, raw_csv, tmp_path, monkeypatch):
        out = tmp_path / "sweep-pn"
        common = clustered_run(out, raw_csv)
        monkeypatch.setattr(RunManifest, "embeddings", unreadable_embeddings)
        assert main(["sweep", *common, "--fractions", "0.5,1.0",
                     *TINY_PATCH_NET]) == 0
        rows = json.loads((out / "sweep.json").read_text())["rows"]
        n_train = rows[-1]["n_windows"]
        assert [r["fraction"] for r in rows] == [0.5, 1.0]
        assert rows[0]["n_windows"] == round(0.5 * n_train)
        assert all(math.isfinite(r["test_avg_mse"]) for r in rows)

    def test_sweep_external_refused(self, raw_csv, tmp_path, capsys):
        out = tmp_path / "sweep-ext"
        common = clustered_run(out, raw_csv)
        assert main(["sweep", *common, "--trainer", "external",
                     "--external-cmd", "true {dir}"]) == 1
        assert "ridge and patch-net" in capsys.readouterr().err
        assert not (out / "sweep.json").exists()

    def test_patch_len_not_dividing_window_fails_before_loading(self, raw_csv,
                                                                 tmp_path, capsys):
        out = tmp_path / "patch-len"
        common = clustered_run(out, raw_csv)
        bad = [*TINY_PATCH_NET, "--patch-len", "7"]
        for command in ("search", "sweep"):
            assert main([command, *common, *bad]) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and "--patch-len 7" in err[0]
        assert not (out / "trials.jsonl").exists()
        assert not (out / "sweep.json").exists()

    def test_trainer_misconfiguration_fails_before_loading(self, raw_csv,
                                                          tmp_path, capsys):
        out = tmp_path / "early"
        common = clustered_run(out, raw_csv)
        manifest = json.loads((out / "manifest.json").read_text())
        # any load would fail with an io error
        (out / manifest["stages"]["preprocess"]["outputs"]["table"]).unlink()
        assert main(["sweep", *common, "--trainer", "external"]) == 1
        assert "ridge and patch-net" in capsys.readouterr().err
        assert main(["search", *common, "--trainer", "external"]) == 1
        assert "--external-cmd" in capsys.readouterr().err
        assert main(["search", *common, "--trainer", "external",
                     "--external-cmd", 'x "y']) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: PipelineError: --external-cmd 'x \"y': No closing quotation"]


class TestManifestGuards:
    def test_stale_upstream_refused_then_forced(self, raw_csv, tmp_path, capsys):
        csv_path, schema_path, _ = raw_csv
        out = tmp_path / "stale"
        staged_run(out, raw_csv)
        common = ["--out", str(out), "--seed", str(SEED), "--log-level", "warning"]
        # re-running preprocess with different parameters invalidates the chain
        assert main(["preprocess", *common, "--data", str(csv_path),
                     "--schema", str(schema_path), "--ewma-spans", "4",
                     "--test-profiles", "7", "--val-profiles", "5,6",
                     "--window-length", "40", "--stride", "20"]) == 0
        rc = main(["search", *common, "--trials", "2", "--trainer", "ridge"])
        assert rc == 1
        assert "stale" in capsys.readouterr().err.lower()
        assert main(["search", *common, "--trials", "2", "--trainer", "ridge",
                     "--force"]) == 0

    def test_report_leaves_out_sweep_of_earlier_clusters(self, raw_csv, tmp_path,
                                                          caplog):
        out = tmp_path / "old-sweep"
        staged_run(out, raw_csv)
        common = ["--out", str(out), "--seed", str(SEED), "--log-level", "warning"]
        assert main(["cluster", *common, "--k", "6", "--restarts", "2"]) == 0
        assert main(["search", *common, "--trials", "4", "--jobs", "1",
                     "--trainer", "ridge"]) == 0
        assert main(["report", *common]) == 0
        assert "re-run sweep" in caplog.text
        assert (out / "sweep.csv").read_text().splitlines() == [
            "fraction,n_windows,test_avg_mse"]

    def test_report_leaves_out_sweep_with_edited_params(self, raw_csv, tmp_path,
                                                         caplog):
        out = tmp_path / "edited-sweep"
        staged_run(out, raw_csv)
        common = ["--out", str(out), "--seed", str(SEED), "--log-level", "warning"]
        manifest = out / "manifest.json"
        payload = json.loads(manifest.read_text())
        payload["stages"]["sweep"]["params"]["fractions"] = [1.0]
        manifest.write_text(json.dumps(payload))
        assert main(["report", *common]) == 0
        assert "re-run sweep" in caplog.text
        assert (out / "sweep.csv").read_text().splitlines() == [
            "fraction,n_windows,test_avg_mse"]

    def test_search_k_must_match_clustered_k(self, raw_csv, tmp_path, capsys):
        out = tmp_path / "k-mismatch"
        common = clustered_run(out, raw_csv)
        assert main(["search", *common, "--trials", "2", "--trainer", "ridge"]) == 0
        before = {name: (out / name).read_bytes()
                  for name in ("trials.jsonl", "manifest.json")}
        assert main(["search", *common, "--trials", "2", "--trainer", "ridge",
                     "--k", "5"]) == 1
        assert "does not match the clustered k=6" in capsys.readouterr().err
        for name, content in before.items():
            assert (out / name).read_bytes() == content, name

    def test_seed_mismatch_refused(self, raw_csv, tmp_path, capsys):
        out = tmp_path / "seeded"
        staged_run(out, raw_csv)
        rc = main(["embed", "--out", str(out), "--seed", "999",
                   "--log-level", "warning"])
        assert rc == 1
        assert "seed" in capsys.readouterr().err.lower()

    @pytest.mark.parametrize("corrupt", [
        lambda text: text[:-40],
        lambda text: "[]",
        lambda text: '"x"',
        lambda text: '{"schema_version": 1, "master_seed": null, "stages": {}}',
        lambda text: json.dumps({**json.loads(text), "stages": {"preprocess": {}}}),
    ], ids=["truncated", "list", "string", "null-seed", "empty-stage-entry"])
    def test_truncated_manifest_refused(self, raw_csv, tmp_path, capsys, corrupt):
        csv_path, schema_path, _ = raw_csv
        out = tmp_path / "truncated"
        common = ["--out", str(out), "--seed", str(SEED), "--log-level", "warning"]
        assert main(["preprocess", *common, "--data", str(csv_path),
                     "--schema", str(schema_path), *PREP]) == 0
        manifest = out / "manifest.json"
        manifest.write_text(corrupt(manifest.read_text()))
        before = manifest.read_bytes()
        assert main(["embed", *common]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: PipelineError: ")
        assert "manifest.json is not a readable manifest" in err[0]
        assert manifest.read_bytes() == before

    @pytest.mark.parametrize("name, stage, corrupt", [
        *(pytest.param(name, stage, lambda text: text[:-40], id=f"{name}-{stage}")
          for name, stage in (("study.json", "search"), ("trials.jsonl", "search"),
                              ("sweep.json", "sweep"), ("assignments.csv", "cluster"))),
        pytest.param("trials.jsonl", "search", lambda text: "[1, 2]\n",
                     id="trials.jsonl-list"),
        pytest.param("trials.jsonl", "search", lambda text: '{"schema_version": 1}\n',
                     id="trials.jsonl-no-trial-id"),
        pytest.param("trials.jsonl", "search", lambda text: text + text.splitlines(True)[0],
                     id="trials.jsonl-repeated-trial-id"),
        pytest.param("study.json", "search", lambda text: "{}", id="study.json-empty-object"),
        pytest.param("sweep.json", "sweep", lambda text: "{}", id="sweep.json-empty-object"),
        pytest.param("sweep.json", "sweep", lambda text: '{"rows": [[1, 2]]}',
                     id="sweep.json-list-row"),
        *(pytest.param(name, stage, lambda text: json.dumps(
            {**json.loads(text), "schema_version": 99}), id=f"{name}-schema-99")
          for name, stage in (("study.json", "search"), ("sweep.json", "sweep"))),
    ])
    def test_truncated_product_refused(self, raw_csv, tmp_path, capsys, name, stage,
                                       corrupt):
        out = tmp_path / "truncated"
        staged_run(out, raw_csv)
        common = ["--out", str(out), "--seed", str(SEED), "--log-level", "warning"]
        product = out / name
        product.write_text(corrupt(product.read_text()))
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert main(["report", *common]) == 1
        err = capsys.readouterr().err
        assert name in err and f"re-run {stage!r}" in err
        assert len(err.strip().splitlines()) == 1
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before

    @pytest.mark.parametrize("stage", ["embed", "search", "report"])
    def test_refused_stage_creates_no_out_dir(self, raw_csv, tmp_path, capsys, stage):
        out = tmp_path / "typo_dir"
        common = ["--out", str(out), "--seed", str(SEED), "--log-level", "warning"]
        assert main([stage, *common]) == 1
        assert "outputs; run" in capsys.readouterr().err
        assert not out.exists()
        csv_path, schema_path, _ = raw_csv
        assert main(["preprocess", *common, "--data", str(csv_path),
                     "--schema", str(schema_path), *PREP]) == 0
        assert (out / "manifest.json").is_file()

    @pytest.mark.parametrize("corrupt", [
        lambda lines: lines[:len(lines) // 2],  # cut at a line boundary
        lambda lines: [*lines[:-1], lines[-1].split(",")[0] + ",6"],  # id = k
    ], ids=["line-boundary", "id-equals-k"])
    def test_assignments_not_matching_cluster_sizes_refused(self, raw_csv, tmp_path,
                                                            capsys, corrupt):
        out = tmp_path / "corrupt"
        common = clustered_run(out, raw_csv)
        product = out / "assignments.csv"
        product.write_text("\n".join(corrupt(product.read_text().splitlines())) + "\n")
        assert main(["search", *common, "--trials", "2", "--trainer", "ridge"]) == 1
        err = capsys.readouterr().err
        assert "assignments.csv" in err and "re-run 'cluster'" in err
        assert len(err.strip().splitlines()) == 1


    def test_manifest_without_cluster_sizes_refused(self, raw_csv, tmp_path, capsys):
        out = tmp_path / "no-sizes"
        common = clustered_run(out, raw_csv)
        manifest = out / "manifest.json"
        payload = json.loads(manifest.read_text())
        del payload["stages"]["cluster"]["cluster_sizes"]
        manifest.write_text(json.dumps(payload))
        before = {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()}
        assert main(["search", *common, "--trials", "2", "--trainer", "ridge"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert err == [f"error: PipelineError: {manifest} records no cluster sizes; "
                       f"re-run 'cluster'"]
        assert {p.name: p.read_bytes() for p in out.iterdir() if p.is_file()} == before


class TestConfigFile:
    def test_config_overrides_flags(self, raw_csv, tmp_path):
        out = tmp_path / "cfg"
        common = clustered_run(out, raw_csv)
        config = tmp_path / "override.cfg"
        config.write_text("trials = 5\nsampler = random\nk = 6\n")
        assert main(["search", *common, "--trials", "50", "--sampler", "tpe",
                     "--trainer", "ridge", "--config", str(config)]) == 0
        lines = (out / "trials.jsonl").read_text().splitlines()
        assert len(lines) == 5
        study = json.loads((out / "study.json").read_text())
        assert study["sampler_config"]["sampler"] == "random"

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("no_such_flag = 1\n")
        rc = main(["embed", "--out", str(tmp_path / "x"), "--seed", "0",
                   "--config", str(config), "--log-level", "warning"])
        assert rc == 1
        assert "unknown option" in capsys.readouterr().err

    @pytest.mark.parametrize("entry, message", [
        ("k = six", "invalid int value"),
        ("log-level = loud", "invalid choice"),
        ("force = maybe", "force expects one of"),
    ])
    def test_bad_config_value_rejected(self, tmp_path, capsys, entry, message):
        config = tmp_path / "bad.cfg"
        config.write_text(entry + "\n")
        rc = main(["cluster", "--out", str(tmp_path / "x"), "--seed", "0",
                   "--config", str(config)])
        assert rc == 1
        assert message in capsys.readouterr().err


class TestSelftest:
    def test_selftest_passes_and_writes_reports(self, tmp_path, capsys):
        out = tmp_path / "selftest"
        rc = main(["selftest", "--out", str(out), "--seed", "3", "--trials", "60",
                   "--windows-per-regime", "150", "--log-level", "warning"])
        captured = capsys.readouterr().out
        assert rc == 0
        assert captured.count("PASS") == 3
        assert (out / "summary.json").exists()
        assert (out / "review" / "prompt.txt").exists()

    def test_out_dir_holding_other_files_refused(self, tmp_path, capsys):
        def contents(root):
            return {p.relative_to(root): p.read_bytes()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        selftest = ["selftest", "--seed", "3", "--windows-per-regime", "150",
                    "--log-level", "warning"]
        run_dir = tmp_path / "run"  # a pipeline run's products beside its manifest
        run_dir.mkdir()
        (run_dir / "manifest.json").write_text("{}")
        (run_dir / "summary.json").write_text('{"k": 6}')
        notes = tmp_path / "notes"  # a review/ the selftest did not write
        (notes / "review").mkdir(parents=True)
        (notes / "review" / "notes.txt").write_text("keep me")
        for out, entry in ((run_dir, "manifest.json"), (notes, "review")):
            before = contents(out)
            assert main([*selftest, "--out", str(out)]) == 1
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and f"holds {entry}, not a selftest report" in err[0]
            assert contents(out) == before
        out = tmp_path / "selftest"
        assert main([*selftest, "--out", str(out)]) == 0
        assert main([*selftest, "--out", str(out)]) == 0  # its own reports may be replaced

    @pytest.mark.parametrize("count", [-1, 0])
    def test_windows_per_regime_below_one_refused(self, tmp_path, capsys, count):
        assert main(["selftest", "--out", str(tmp_path / "st"), "--windows-per-regime",
                     str(count), "--log-level", "warning"]) == 1
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: DatasetError")
        assert f"windows per regime must be >= 1, got {count}" in err[0]

    def test_out_dir_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MIXSEARCH_OUT", str(tmp_path / "envout"))
        parser = build_parser()
        args = parser.parse_args(["selftest"])
        assert str(args.out) == str(tmp_path / "envout")
