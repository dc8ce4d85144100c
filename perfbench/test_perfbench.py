"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import os
import sys
from array import array

import gen
import ops
import stats
import tracer
import worker

import locglob as lg


def test_same_seed_same_inputs():
    assert gen.modules_inputs(7, 3) == gen.modules_inputs(7, 3)
    assert gen.local_rounds(7, 2) == gen.local_rounds(7, 2)
    assert gen.cli_plan(7, 50) == gen.cli_plan(7, 50)
    assert gen.modules_inputs(7, 3) != gen.modules_inputs(8, 3)
    assert gen.local_rounds(7, 2) != gen.local_rounds(8, 2)


def test_generated_documents_parse():
    for doc, _ in gen.modules_inputs(5, 2):
        lg.schema.parse_model(doc)


def test_generated_modules_are_distinct():
    docs = gen.modules_inputs(2, 60)
    keys = {json.dumps([d["table"], d["invariant_factors"], d["action"]]) for d, _ in docs}
    assert len(keys) == len(docs)
    # the trivial group has one module per shape, so it drops out after 24 rounds
    assert sum(d["order"] == 1 for d, _ in docs) == len(gen.SHAPES)


def test_tail_percentile_and_count():
    values = list(range(1, 101))
    assert stats.tail(values, 90) == (90, 10)
    assert stats.tail(values, 99) == (99, 1)
    assert stats.percentile(values, 50) == 50
    assert stats.tail(list(reversed(values)), 90) == (90, 10)
    # p99 leaves 10 samples beyond it from 1000 samples on
    assert stats.tail(range(1000), 99)[1] == 10
    assert stats.tail(range(999), 99)[1] == 9


def _spans(rows):
    spans = tracer.Spans(["a", "b"])
    spans.add(array("i", [r[0] for r in rows]), array("q", [r[1] for r in rows]),
              array("q", [r[2] for r in rows]), array("q", [r[3] for r in rows]))
    return spans


def test_self_time_of_nested_spans():
    # a[0,100] holds b[10,40] (which holds a[20,30]) and b[50,60]
    spans = _spans([(0, 0, 100, -1), (1, 10, 40, 0), (0, 20, 30, 1), (1, 50, 60, 0)])
    assert tracer.self_times(spans.starts, spans.ends, spans.parents) == [60, 20, 10, 10]
    metrics, root_ns = tracer.layer_metrics(spans)
    assert metrics["a.calls"] == (2, "count")
    assert metrics["a.self_ms"] == (70 / 1e6, "ms")
    assert metrics["b.self_ms"] == (30 / 1e6, "ms")
    assert root_ns == 100


def test_self_time_counts_overlapping_children_once():
    spans = _spans([(0, 0, 100, -1), (1, 10, 40, 0), (1, 30, 50, 0), (1, 90, 120, 0)])
    assert tracer.self_times(spans.starts, spans.ends, spans.parents)[0] == 100 - 40 - 10


def test_spans_from_two_dumps_keep_their_parents(tmp_path):
    spans = tracer.Spans(["a", "b"])
    one = _spans([(0, 0, 10, -1), (1, 2, 4, 0)])
    for _ in range(2):
        spans.add(one.name_ids, one.starts, one.ends, one.parents)
    assert list(spans.parents) == [-1, 0, -1, 2]


def test_missing_traced_name_is_absent(tmp_path):
    names = ["linalg.no_such_function", "no_such_module.f", "linalg.smith_normal_form"]
    tr = tracer.Tracer(names)
    tr.install()
    try:
        lg.h1(lg.trivial_action_module(lg.cyclic_group(2), lg.FinAb((2,))))
    finally:
        tr.uninstall()
    assert tr.absent == names[:2]
    path = tmp_path / "spans.bin"
    tr.dump(str(path))
    spans = tracer.Spans(names)
    spans.load(str(path))
    metrics, _ = tracer.layer_metrics(spans)
    assert metrics["trace.absent_names"] == (2, "count")
    assert metrics["linalg.no_such_function.calls"] == (0, "count")
    assert metrics["linalg.smith_normal_form.calls"][0] > 0


def test_tracer_rebinds_imported_and_lazy_bindings():
    import locglob.cohomology
    import locglob.models
    raw = locglob.cohomology.h1
    tr = tracer.Tracer()
    tr.install()
    try:
        assert locglob.models.h1 is locglob.cohomology.h1 is lg.h1 is not raw
        # x -> 3x on Z/8; no other test here computes its H1
        lg.h1(lg.GModule(lg.cyclic_group(2), lg.FinAb((8,)), (((1,),), ((3,),))))
    finally:
        tr.uninstall()
    assert locglob.cohomology.h1 is raw
    ids = list(tr.name_ids)
    assert ids.count(tracer.LAYERS.index("oracles.brute_force_h1")) == 1
    assert ids.count(tracer.LAYERS.index("linalg.smith_normal_form")) > 0


def test_cli_peak_rss_is_the_invocations_own(tmp_path):
    cli = ops.Cli(1, str(tmp_path), worker.SRC)
    cli.reference()
    assert cli.peak_rss_mib() == 0
    code, out, err = cli.call({"args": ["gw", "--n", "8", "--places", "2"]})
    assert code == 0 and "Traceback" not in err
    assert "command: gw\n" in out
    assert 0 < cli.peak_rss_mib() < 1024


def test_crash_on_malformed_document_is_a_failed_op(tmp_path):
    cli = ops.Cli(1, str(tmp_path), worker.SRC)
    crash = next(op for op in cli.batch if op["known_crash"])
    traceback_exit = (1, "", "Traceback (most recent call last):\n  ...\nTypeError: boom\n")
    assert cli.judge(crash, traceback_exit)[0] == "failed"
    assert cli.judge(crash, (0, "command: hasse\n", ""))[0] == "failed"
    assert cli.judge(crash, (2, "", "error: bad document\n")) is None


class _Flaky(ops.Workload):
    name = "flaky"
    tail_q = 90
    min_ops = 1

    def __init__(self, seed):
        self.batch = [0, 1]

    def call(self, op):
        if op:
            raise TypeError("malformed")
        return op

    def judge(self, op, answer):
        return None

    @staticmethod
    def digest(answer):
        return repr(answer)

    def properties(self, n):
        return {}


def test_exception_in_an_op_counts_as_failed(monkeypatch, tmp_path):
    monkeypatch.setitem(ops.WORKLOADS, "flaky", _Flaky)
    out = worker.measure("flaky", 0, str(tmp_path), 60, 6, False)
    assert (out["ops"], out["failed"], out["wrong"]) == (6, 3, 0)
    assert out["failure_examples"] == ["TypeError: malformed"]


def test_benchmark_refuses_a_tree_without_the_program(tmp_path):
    import shutil
    import subprocess
    bench = tmp_path / "perfbench"
    shutil.copytree(os.path.dirname(os.path.abspath(__file__)), bench,
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "local",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60,
                          env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
    assert proc.returncode != 0
    assert proc.stdout == ""
