"""Tests of the benchmark itself: span arithmetic, patching and traced runs.

    python3 -m pytest perfbench -q
"""
import json
import subprocess
import sys
import threading

import pytest

import runenv

runenv.prepare()

import spans  # noqa: E402
from hullexplain import cli, geometry  # noqa: E402
from hullexplain.rng import Prng  # noqa: E402

HERE = runenv.ROOT / "perfbench"


class FakeClock:
    def __init__(self, *times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_self_time_subtracts_nested_children():
    # outer [0, 10] holds inner [1, 4] and inner [5, 9], which holds leaf [6, 7]
    tracer = spans.Tracer(clock=FakeClock(0, 1, 4, 5, 6, 7, 9, 10))
    leaf = tracer.wrap(lambda: None, "leaf")

    def inner(call_leaf):
        if call_leaf:
            leaf()

    inner = tracer.wrap(inner, "inner")
    outer = tracer.wrap(lambda: (inner(False), inner(True)), "outer")
    outer()
    got = [(s.name, s.parent, s.duration, s.self_s) for s in tracer.spans]
    assert got == [
        ("inner", "outer", 3, 3),
        ("leaf", "inner", 1, 1),
        ("inner", "outer", 4, 3),
        ("outer", None, 10, 3),
    ]
    assert spans.layer_metric(tracer.spans, "inner.self_s") == 6
    assert spans.layer_metric(tracer.spans, "inner.calls") == 2
    assert spans.layer_metric(tracer.spans, "inner.p95_ms") == 4000


def test_span_recorded_when_the_call_raises():
    tracer = spans.Tracer(clock=FakeClock(0, 2))

    def boom():
        raise KeyError("x")

    with pytest.raises(KeyError):
        tracer.wrap(boom, "boom", units=lambda result: 99)()
    [span] = tracer.spans
    assert (span.name, span.self_s, span.units) == ("boom", 2, 0.0)


def test_busy_over_wall_counts_overlapping_threads():
    S = spans.Span
    recorded = [  # main thread, then two pool threads
        S("cli.main", None, 0.0, 10.0, 0.5, 0),
        S("datasets.generate", "cli.main", 0.0, 1.0, 1.0, 0),
        S("explainer.explain_local", None, 1.0, 9.0, 1.0, 0),
        S("geometry.find_extreme_points", "explainer.explain_local", 1.0, 8.0, 7.0, 0),
        S("explainer.explain_local", None, 1.0, 9.0, 8.0, 0),
    ]
    assert spans.layer_metric(recorded, "trace.busy_over_wall") == pytest.approx(1.7)


def test_spans_from_many_threads_are_all_kept_and_nested():
    tracer = spans.Tracer()
    leaf = tracer.wrap(lambda: None, "leaf")
    outer = tracer.wrap(lambda: leaf(), "outer")
    threads_n, calls = 8, 300

    def work():
        for _ in range(calls):
            outer()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work) for _ in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert len(tracer.spans) == 2 * threads_n * calls
    assert all(s.parent == "outer" for s in tracer.spans if s.name == "leaf")
    assert all(s.parent is None for s in tracer.spans if s.name == "outer")


def test_patched_restores_originals_and_reports_absent_targets():
    before = (cli.main, geometry.find_extreme_points, Prng.shuffled)
    targets = spans.TARGETS + (
        spans.Target("hullexplain.no_such_module", "f", "gone.f"),
        spans.Target("hullexplain.cli", "no_such_name", "gone.g"),
        spans.Target("hullexplain.rng:NoSuchClass", "m", "gone.m"),
    )
    tracer = spans.Tracer()
    with spans.patched(tracer, targets) as absent:
        assert cli.main is not before[0]
        Prng(1).shuffled(5)
    assert absent == ["hullexplain.no_such_module.f", "hullexplain.cli.no_such_name",
                      "hullexplain.rng:NoSuchClass.m"]
    assert (cli.main, geometry.find_extreme_points, Prng.shuffled) == before
    assert [s.name for s in tracer.spans] == ["rng.shuffled"]


def _last_json(args):
    done = subprocess.run([sys.executable, *args], cwd=runenv.ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=170, check=True)
    return [json.loads(line) for line in done.stdout.strip().splitlines()[-2:]]


def test_traced_run_writes_the_same_report_as_an_untraced_run():
    info, result = _last_json([str(HERE / "run.py"), "--workload", "local-linear7",
                               "--seed", "1", "--seconds", "1", "--trace", "1"])
    info = info["info"]
    assert result["correct"] and result["failed"] == 0
    assert len(info["report_sha256"]) == 1
    assert info["traced_report_sha256"] == info["report_sha256"]
    assert info["absent"] == [] and info["absent_metrics"] == []
    names = {m["name"] for m in runenv.load_spec()["per_layer"]}
    assert set(result["metrics"]) == names


def test_predictor_counts_repeat_across_traced_runs():
    args = [str(HERE / "traced.py"), "--workload", "compare-ring-trees", "--seed", "2",
            "--seconds", "0.1"]
    first, second = (_last_json(args)[-1]["metrics"] for _ in range(2))
    for name in ("blackbox.predict.calls", "blackbox.predict.rows"):
        assert first[name] == second[name] > 0
