"""Tests of the benchmark's own code: span arithmetic, corpus, traced run."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import corpus
import stages
import tracing

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"


def span(span_id, start, end, parent=None, thread=1):
    return tracing.Span(span_id, f"s{span_id}", start, end, parent, thread, {})


class TestSelfTime:
    def test_nested_spans(self):
        spans = [span(0, 0.0, 10.0), span(1, 1.0, 4.0, parent=0),
                 span(2, 2.0, 3.0, parent=1), span(3, 5.0, 6.0, parent=0)]
        assert tracing.self_times(spans) == pytest.approx(
            {0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})

    def test_concurrent_children_count_once(self):
        # Two workers under one parent: [1, 6] and [3, 8] overlap on [3, 6],
        # so they cover 7 of the parent's 10 seconds.
        spans = [span(0, 0.0, 10.0), span(1, 1.0, 6.0, parent=0, thread=2),
                 span(2, 3.0, 8.0, parent=0, thread=3),
                 span(3, 8.5, 9.0, parent=0, thread=2)]
        assert tracing.self_times(spans)[0] == pytest.approx(2.5)

    def test_covered_time_of_contained_and_disjoint_intervals(self):
        assert tracing.covered_time([]) == 0.0
        assert tracing.covered_time([(0, 4), (1, 2), (6, 7)]) == pytest.approx(5.0)

    def test_worker_threads_nest_under_adopting_span(self):
        tracer = tracing.Tracer()
        leaf = tracer.wrap("leaf", lambda: None)

        def fan_out():
            workers = [threading.Thread(target=leaf) for _ in range(2)]
            for w in workers:
                w.start()
            for w in workers:
                w.join(timeout=10)
            assert not any(w.is_alive() for w in workers)

        tracer.wrap("root", fan_out, adopt_threads=True)()
        root = next(s for s in tracer.spans if s.name == "root")
        leaves = [s for s in tracer.spans if s.name == "leaf"]
        assert len(leaves) == 2
        assert all(s.parent == root.span_id for s in leaves)
        assert all(s.thread != root.thread for s in leaves)
        assert all(root.start <= s.start <= s.end <= root.end for s in leaves)


class TestCorpus:
    def test_byte_identical_for_a_fixed_seed(self, tmp_path):
        a = corpus.write_corpus(tmp_path / "a", seed=7, rows_per_profile=50)
        b = corpus.write_corpus(tmp_path / "b", seed=7, rows_per_profile=50)
        c = corpus.write_corpus(tmp_path / "c", seed=8, rows_per_profile=50)
        assert [p.read_bytes() for p in a] == [p.read_bytes() for p in b]
        assert a[0].read_bytes() != c[0].read_bytes()

    def test_layout_and_signal_profiles(self, tmp_path):
        data, schema = corpus.write_corpus(tmp_path, seed=1, rows_per_profile=50)
        lines = data.read_text().splitlines()
        assert lines[0] == "profile_id,u_d,u_q,speed,pm,winding"
        assert schema.read_text().splitlines()[0] == "profile_id=id"
        table = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
        assert sorted(set(table[:, 0].astype(int))) == list(corpus.PROFILE_IDS)
        assert table.shape[0] == 50 * len(corpus.PROFILE_IDS)
        for pid in corpus.PROFILE_IDS:
            rows = table[table[:, 0] == pid]
            resid = rows[:, 4:] - (rows[:, 1:4] @ corpus.TARGET_COEF
                                   + corpus.TARGET_BIAS)
            follows_law = np.abs(resid).max() < 6 * corpus.TARGET_NOISE
            assert follows_law == (pid in corpus.SIGNAL_PROFILES), pid
        held_out = set(corpus.VAL_PROFILES + corpus.TEST_PROFILES)
        assert held_out <= corpus.SIGNAL_PROFILES


def test_traced_run_records_every_wrapped_name(tmp_path):
    data, schema = corpus.write_corpus(tmp_path, seed=0, rows_per_profile=40)
    common = ["--out", str(tmp_path / "run"), "--seed", "0"]
    argvs = [
        ["preprocess", "--data", str(data), "--schema", str(schema),
         "--window-length", "20"],
        ["embed"], ["cluster", "--k", "6", "--restarts", "1"],
        ["search", "--trials", "12", "--jobs", "2"],
        ["sweep"], ["report"], ["review-export", "--review-samples", "2"],
        ["search", "--trainer", "patch-net", "--patch-len", "10",
         "--budget-tokens", "400", "--batch-size", "16", "--trials", "2",
         "--jobs", "1"],
    ]
    spec = tmp_path / "spec.json"
    out = tmp_path / "result.json"
    spec.write_text(json.dumps({"argvs": [a + common for a in argvs],
                                "trace": True}))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "stages.py"),
                           str(spec), str(out)], env=env, capture_output=True,
                          text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    result = json.loads(out.read_text())
    assert [i["exit"] for i in result["invocations"]] == [0] * len(argvs)

    spans = [tracing.Span(**s) for s in result["spans"]]
    names = {s.name for s in spans}
    expected = set(stages.SPAN_NAMES) | {stages.OBJECTIVE_SPAN, stages.CLI_SPAN}
    expected |= {f"pipeline.{f}" for f in stages.STAGE_FUNCTIONS.values()}
    assert expected - names == set()

    by_id = {s.span_id: s for s in spans}
    studies = [s for s in spans if s.name == "search.run_study"]
    assert [s.attrs["completed"] for s in studies] == [12, 2]
    objectives = [s for s in spans if s.name == stages.OBJECTIVE_SPAN]
    assert all(by_id[s.parent].name == "search.run_study" for s in objectives)
    # 3 inputs + 3 x 4 EWMA spans + 2 targets = 17 channels.
    windows = [s for s in spans if s.name == "dataset.make_windows"]
    n_windows = len(corpus.PROFILE_IDS) * (40 - 20 + 1)
    assert all(s.attrs["windows"] == n_windows for s in windows)
    assert all(s.attrs["bytes"] == n_windows * 20 * 17 * 8 for s in windows)
