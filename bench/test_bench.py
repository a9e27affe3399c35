"""Tests of the benchmark itself: python3 -m pytest bench/test_bench.py -q"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run._import_package()

import check  # noqa: E402
import probe  # noqa: E402
from tracer import Target, Tracer  # noqa: E402


def _fake_clock(ticks):
    it = iter(ticks)
    return lambda: next(it)


def test_self_time_on_nested_call_tree():
    tracer = Tracer(clock=_fake_clock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 10.0]))
    c = tracer.wrap(lambda: None, "c")
    b = tracer.wrap(lambda deep: c() if deep else None, "b")

    def a_body():
        b(True)   # b: 1..4, with c: 2..3 inside
        b(False)  # b: 5..6
    tracer.wrap(a_body, "a")()  # a: 0..10

    agg = tracer.aggregate()
    assert agg["a"] == {"calls": 1, "busy_s": 10.0, "self_s": 6.0}
    assert agg["b"] == {"calls": 2, "busy_s": 4.0, "self_s": 3.0}
    assert agg["c"] == {"calls": 1, "busy_s": 1.0, "self_s": 1.0}
    spans = tracer.spans()
    assert list(spans["parent"]) == [-1, 0, 1, 0]


def test_recursive_calls_count_busy_time_once():
    tracer = Tracer(clock=_fake_clock([0.0, 1.0, 2.0, 5.0]))

    def body(n):
        return rec(n - 1) if n else 0
    rec = tracer.wrap(body, "r")
    rec(1)  # outer 0..5, inner 1..2
    assert tracer.aggregate()["r"] == {"calls": 2, "busy_s": 5.0, "self_s": 5.0}


def test_failed_call_is_counted_and_reraised():
    tracer = Tracer(clock=_fake_clock([0.0, 1.0, 2.0, 3.0]))
    boom = tracer.wrap(lambda: 1 / 0, "boom")
    with pytest.raises(ZeroDivisionError):
        boom()
    assert tracer.counters["boom.failed"] == 1
    ok = tracer.wrap(lambda: 7, "ok")
    assert ok() == 7
    assert list(tracer.spans()["parent"]) == [-1, -1]


def test_missing_target_is_reported_absent_and_originals_restored():
    import surfbench.cubic as cubic

    original = cubic.locate
    tracer = Tracer()
    tracer.install([
        Target("surfbench.cubic", "locate", "geometry.locate"),
        Target("surfbench.cubic", "no_such_function", "cubic.gone"),
        Target("surfbench.no_such_module", "fit", "gone.module"),
        Target("surfbench.cubic.NoSuchClass", "evaluate", "gone.class"),
    ])
    try:
        assert cubic.locate is not original
        assert tracer.absent == ["cubic.gone", "gone.class", "gone.module"]
    finally:
        tracer.uninstall()
    assert cubic.locate is original


def test_emitted_metric_names_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} <= set(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.per_layer_metrics()
    assert spec["paths"] == ["bench"]


class _SmallExperiment(run.ExperimentScaled):
    design = (4, 4, 3)

    def config_overrides(self):
        return {"repeats_per_slice": 2}


def test_traced_and_untraced_artifacts_are_identical(tmp_path):
    workload = _SmallExperiment(42, tmp_path)
    plain = run.run_one_pass(workload, tmp_path / "plain", {})
    tracer = Tracer()
    tracer.install(run.make_targets("protocol.run_pair"))
    try:
        traced = run.run_one_pass(workload, tmp_path / "traced", {}, traced=True)
    finally:
        tracer.uninstall()
    assert tracer.absent == []
    assert plain.failed == traced.failed == 0
    assert plain.digests == traced.digests and "runs.csv" in plain.digests

    values = run.layer_values(tracer, traced, tmp_path / "traced")
    computed_in_run = {n for n, _, _ in run.LAYER_EXTRAS if n.endswith(("_ms", "_wall_s"))
                       or n.startswith("trace.")}
    assert {n for n, _, _ in run.per_layer_metrics()} - computed_in_run == set(values)
    assert values["protocol.run_pair.calls"] == 132
    assert values["cubic.fit_cubic.calls"] == 132
    hist = check.reason_histogram(check.read_csv(tmp_path / "traced" / "runs.csv")[1])
    assert values["protocol.reason.rbf.ok"] == hist["rbf"]["ok"] == 132

    tol = check.load_references()["tolerance"]
    assert check.check_experiment(tmp_path / "plain", workload.dataset, workload.config, {}, tol).ok


def test_check_rejects_a_wrong_reason_code(tmp_path):
    workload = _SmallExperiment(7, tmp_path)
    run.run_one_pass(workload, tmp_path / "p", {})
    runs = tmp_path / "p" / "runs.csv"
    lines = runs.read_text().splitlines()
    i = next(k for k, line in enumerate(lines) if ",cubic,true,ok," in line)
    lines[i] = lines[i].replace(",cubic,true,ok,", ",cubic,false,test_points_outside_support,")
    runs.write_text("\n".join(lines) + "\n")
    tol = check.load_references()["tolerance"]
    result = check.check_experiment(tmp_path / "p", workload.dataset, workload.config, {}, tol)
    assert not result.ok


def test_inside_hull_counts_boundary_points_as_inside():
    square = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.5, 0.5)]
    queries = [(0.5, 0.0), (1.0, 1.0), (0.5, 0.5), (1.0 + 1e-6, 0.5), (-0.1, -0.1)]
    assert check.inside_hull(square, queries).tolist() == [True, True, True, False, False]


def test_failing_counter_hook_does_not_stop_the_call():
    def hook(tr, args, kwargs, result):
        raise AttributeError("result was reshaped")
    tracer = Tracer()
    assert tracer.wrap(lambda: 3, "f", on_result=hook)() == 3
    assert tracer.counters["f.hook_failed"] == 1


def test_normalize_removes_probe_time_and_scales_to_reference_speed():
    ref = probe.REF_CHUNK_S
    p = probe.Probe()
    with pytest.raises(ValueError):
        p.normalize(1.0)
    # Chunks twice as slow as the reference: the host ran at half speed.
    p.chunks = [2 * ref] * 10
    assert p.speed == pytest.approx(0.5)
    assert p.normalize(1.0 + 20 * ref) == pytest.approx(0.5)


def test_probe_samples_during_a_span_and_restores_the_handler():
    import signal
    import time

    before = signal.getsignal(signal.SIGALRM)
    with probe.Probe(interval=0.005) as p:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    assert len(p.chunks) >= 5
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert p.speed > 0 and p.normalize(0.1) > 0
