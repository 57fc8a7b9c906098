"""Tests of the benchmark harness itself (not of tolerantlearn).

    python3 -m pytest bench/tests
"""

import json
import shutil
import statistics
import subprocess
import sys
import types
from pathlib import Path

import pytest

import harness
import tracing
from harness import Op

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


# ---------------------------------------------------------------------------
# median and quartiles
# ---------------------------------------------------------------------------

def test_quartiles_match_statistics_quantiles():
    vals = [5.0, 1.0, 4.0, 2.0, 3.0, 10.0, 7.0]
    assert harness.quartiles(vals) == tuple(statistics.quantiles(vals, n=4))
    assert harness.median(vals) == 4.0
    assert harness.quartiles([1, 2, 3, 4, 5]) == (1.5, 3, 4.5)


def test_quartiles_of_one_value_and_spread():
    assert harness.quartiles([2.5]) == (2.5, 2.5, 2.5)
    assert harness.spread([2.5]) == 0.0
    assert harness.spread([1, 2, 3, 4, 5]) == pytest.approx(3.0 / 3)
    with pytest.raises(ValueError):
        harness.quartiles([])


# ---------------------------------------------------------------------------
# self time from nested spans
# ---------------------------------------------------------------------------

def test_self_times_subtract_direct_children():
    spans = [
        ["root", 0.0, 10.0, -1, 0],
        ["a", 1.0, 6.0, 0, 0],
        ["b", 2.0, 3.0, 1, 0],
        ["b", 4.0, 5.5, 1, 0],
        ["a", 7.0, 8.0, 0, 0],
        ["root", 20.0, 21.0, -1, 1],
    ]
    metric = {"root": "r_s", "a": "a_s", "b": "b_s"}
    by_op, roots = tracing.self_times(spans, metric)
    assert by_op[0] == pytest.approx({"r_s": 4.0, "a_s": 3.5, "b_s": 2.5})
    assert by_op[1] == pytest.approx({"r_s": 1.0})
    assert roots == pytest.approx({0: 10.0, 1: 1.0})


@pytest.fixture
def fake_program(monkeypatch):
    """A module whose `f` recurses through the name its caller imports."""
    mod = types.ModuleType("fake_program")

    def f(n):
        return 0 if n == 0 else 1 + mod.f(n - 1)

    def main(argv):
        print(mod.f(int(argv[0])))
        return 0

    mod.f, mod.main = f, main
    monkeypatch.setitem(sys.modules, "fake_program", mod)
    return mod


def test_recursion_through_the_import_site_nests_spans(fake_program):
    targets = [("fake_program", "main", "cli", "cli.self_s", None),
               ("fake_program", "f", "layer", "layer.self_s", "layer.calls")]
    tracer = tracing.Tracer(targets)
    res = tracer.run(0, Op("f3", ["3"]))
    assert res.error is None and res.rc == 0
    assert fake_program.f.__name__ == "f" and not hasattr(fake_program.f, "__wrapped__")

    names = [s[0] for s in tracer.spans]
    assert names == ["cli.main"] + ["layer.f"] * 4
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 2, 3]
    assert tracer.counts[0]["layer.calls"] == 4

    by_op, roots = tracing.self_times(tracer.spans, tracing.span_metric_map(targets))
    assert set(by_op[0]) == {"cli.self_s", "layer.self_s"}
    assert all(v >= 0 for v in by_op[0].values())
    assert sum(by_op[0].values()) == pytest.approx(roots[0], abs=1e-12)


def test_layer_self_times_are_checked_against_the_traced_duration(fake_program):
    import run

    targets = [("fake_program", "main", "cli", "cli.self_s", None),
               ("fake_program", "f", "layer", "layer.self_s", "layer.calls")]
    tracer = tracing.Tracer(targets)
    log = harness.RunLog()
    for i in range(2):
        log.record(harness.execute(Op("f3", ["3"]), fake_program.main), log.results)
        log.record(tracer.run(i, Op("f3", ["3"])), log.traced)
    _, gap, ok = run.per_layer(log, tracer, count_ops=2)
    assert ok and gap >= 0

    # time outside every span (here: added to the measured duration) fails
    log.traced[1].seconds += 0.5
    _, gap, ok = run.per_layer(log, tracer, count_ops=2)
    assert not ok and gap == pytest.approx(0.5, abs=0.01)


def test_every_target_maps_to_a_reported_time_metric():
    names = {m[0] for m in tracing.LAYER_METRICS}
    assert set(tracing.TIME_METRICS) <= names
    assert tracing.TARGETS[0][:2] == ("tolerantlearn.cli", "main")


# ---------------------------------------------------------------------------
# digests
# ---------------------------------------------------------------------------

def test_normalise_drops_wall_clock_fields_only():
    a = json.dumps({"x": 1, "wall_clock_s": 0.5, "inner": {"wall_clock_s": 2}})
    b = json.dumps({"inner": {"wall_clock_s": 9}, "wall_clock_s": 7.25, "x": 1})
    c = json.dumps({"x": 2, "wall_clock_s": 0.5, "inner": {}})
    assert harness.normalise(a) == harness.normalise(b)
    assert harness.normalise(a) != harness.normalise(c)
    text = "# gs\nwall_clock_s: 1.5\nmodal_frequency: 0.4\n"
    assert harness.normalise(text) == "# gs\nmodal_frequency: 0.4"


def test_digest_covers_stdout_and_files(tmp_path):
    out = tmp_path / "r.json"
    out.write_text(json.dumps({"v": 1, "wall_clock_s": 0.1}))
    d1 = harness.digest("hello\n", [out])
    out.write_text(json.dumps({"v": 1, "wall_clock_s": 3.0}))
    assert harness.digest("hello\n", [out]) == d1
    out.write_text(json.dumps({"v": 2, "wall_clock_s": 3.0}))
    assert harness.digest("hello\n", [out]) != d1
    assert harness.digest("bye\n", [out]) != harness.digest("hello\n", [out])


# ---------------------------------------------------------------------------
# error counting
# ---------------------------------------------------------------------------

def _fake_main(argv):
    kind = argv[0]
    if kind == "raise":
        raise RuntimeError("boom")
    if kind == "exit2":
        return 2
    if kind == "usage":
        raise SystemExit("error: bad input")
    if kind == "verdict":
        print("FAIL something")
        return 1
    print("ok")
    return 0


def test_failing_operations_are_counted_and_the_run_goes_on():
    ops = [Op(k, [k]) for k in ("ok", "raise", "exit2", "usage", "verdict")]
    log = harness.run_loop(ops, _fake_main, seconds=0.0, min_ops=len(ops))
    assert [r.key for r in log.results] == [op.key for op in ops]
    errors = {r.key: r.error for r in log.all_results}
    assert errors["ok"] is None and errors["verdict"] is None
    assert errors["raise"].startswith("raised RuntimeError: boom")
    assert errors["exit2"] == "exit code 2"
    assert errors["usage"] == "exit code 2"
    assert log.failed == 3
    assert log.verdict_failed == 1
    # the pool did not wrap, so the first op was repeated outside the timing
    assert [r.key for r in log.repeats] == ["ok"]
    assert log.attempted == len(ops) + 1


def test_a_failed_check_or_a_changed_repeat_is_an_error():
    calls = []

    def drifting_main(argv):
        calls.append(argv)
        print(len(calls))
        return 0

    ops = [Op("same", ["x"], check=lambda stdout: None)]
    log = harness.run_loop(ops, drifting_main, seconds=0.0, min_ops=2)
    assert log.results[0].error is None
    assert log.results[1].error == "output differs from an earlier repeat"

    bad = [Op("bad", ["x"], check=lambda stdout: "wrong answer")]
    log = harness.run_loop(bad, _fake_main, seconds=0.0, min_ops=1)
    assert log.failed == 2 and log.results[0].error == "wrong answer"


# ---------------------------------------------------------------------------
# the benchmark's declared contract
# ---------------------------------------------------------------------------

def test_benchmark_json_matches_the_code():
    import run

    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        m[:3] for m in tracing.LAYER_METRICS]


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "dp-mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
