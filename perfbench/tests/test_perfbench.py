"""Tests of the benchmark itself: span arithmetic, tracer wiring, tiny runs.

Run from the repository root with: python3 -m pytest perfbench/tests -q
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import spans  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    BENCHMARK = json.load(_handle)

TINY = {
    "toy-draws": dict(run.WORKLOADS["toy-draws"], trials=1, inner=200),
    "toy-setups": dict(run.WORKLOADS["toy-setups"], trials=1, inner=50),
    "corr-wide": dict(run.WORKLOADS["corr-wide"], categories=10, draws=2000,
                      ops_per_invocation=1),
    "train-step": dict(run.WORKLOADS["train-step"], steps=4),
}


def test_self_time_subtracts_the_union_of_children():
    s = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 3.0, 0, 0],   # overlaps b: together they cover 1..5
        ["b", 2.0, 5.0, 0, 0],
        ["b.child", 2.5, 3.0, 2, 0],
        ["late", 9.0, 12.0, 0, 0],  # only 9..10 lies inside root
    ]
    assert spans.self_times(s) == pytest.approx([5.0, 2.0, 2.5, 0.5, 3.0])


def test_tracer_records_parents_units_and_counts():
    ticks = iter(range(100))
    tracer = spans.Tracer(clock=lambda: float(next(ticks)))
    inner = tracer.wrap_span(lambda k: k * 2, "inner", lambda a, kw, r: a[0])
    outer = tracer.wrap_span(lambda k: inner(k) + 1, "outer")
    counted = tracer.wrap_counter(lambda: None, "calls")
    assert outer(3) == 7
    counted()
    counted()
    assert [(s[0], s[3], s[4]) for s in tracer.spans] == [("outer", -1, 0), ("inner", 0, 3)]
    assert tracer.counts["calls"] == 2
    assert spans.self_times(tracer.spans) == [2.0, 1.0]


def test_missing_names_are_reported_not_raised():
    tracer = spans.Tracer()
    tracer.install(
        spans=[("carms.sampling", "no_such_function", "x", None),
               ("carms.no_such_module", "f", "y", None),
               ("carms.oracle", "TabulatedObjective.no_such_method", "z", None)],
        generators=[], factories=[], counters=[])
    assert tracer.missing == ["carms.sampling.no_such_function", "carms.no_such_module.f",
                              "carms.oracle.TabulatedObjective.no_such_method"]
    tracer.uninstall()


def test_install_rebinds_every_module_and_uninstall_restores():
    import carms.experiments
    import carms.sampling
    import carms.selfcheck

    original = carms.sampling._inverse_cdf_categories_batch
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        wrapped = carms.sampling._inverse_cdf_categories_batch
        assert wrapped is not original
        assert carms.experiments._inverse_cdf_categories_batch is wrapped
        assert carms.selfcheck._inverse_cdf_categories_batch is wrapped
    finally:
        tracer.uninstall()
    assert carms.experiments._inverse_cdf_categories_batch is original


def test_operations_exclude_the_reference_time_before_them():
    toy = {"rc": 0, "setup": 10.0, "records": [
        {"t": t, "ref": ref} for t, ref in
        [(12.0, 0.5), (13.0, 0.0), (14.0, 0.0), (15.0, 0.0), (18.0, 1.0), (19.0, 0.0),
         (20.0, 0.0), (21.0, 0.0)]]}
    assert run.ops_of(toy, run.WORKLOADS["toy-draws"]) == [(4.5, 0.5), (5.0, 1.0)]
    corr = {"rc": 0, "calls": [[1.0, 2.0, 0], [2.0, 4.0, 0], [5.0, 6.0, 0], [6.0, 6.5, 0]],
            "refs": [0.25, 0.5]}
    assert run.ops_of(corr, run.WORKLOADS["corr-wide"]) == [(3.0, 0.25), (1.5, 0.5)]
    train = {"rc": 0, "steps": [[1.0, 3.0], [4.0, 4.5]], "refs": [0.5, 0.25]}
    assert run.ops_of(train, run.WORKLOADS["train-step"]) == [(2.0, 0.5), (0.5, 0.25)]


def test_reference_loop_runs_only_when_asked():
    import worker

    assert worker.reference_if({}) == 0.0
    assert worker.reference_if({"reference": "calls"}) > 0.0
    assert worker.reference_if({"reference": "arrays"}) > 0.0


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_tiny_run_prints_every_named_metric(workload, trace, monkeypatch, capsys):
    monkeypatch.setitem(run.WORKLOADS, workload, TINY[workload])
    monkeypatch.setattr(run, "MIN_SETUPS", 3)  # two full invocations, one set-up-only
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert isinstance(got["value"], (int, float))
        assert any(line.split()[:1] == [metric["name"]] and line.split()[-1] == metric["unit"]
                   for line in lines[:-1])
    assert lines[0].startswith("machine: ")
    if not trace:
        assert any("2 invocations; 3 set-ups" in line for line in lines)
    elif workload == "corr-wide":  # a layer the workload never reaches reads 0
        assert result["metrics"]["estimators.carms.us_per_call"]["value"] == 0.0
        assert result["metrics"]["sampling.pair_law.builds"]["value"] == 0.0
