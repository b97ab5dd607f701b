"""Tests of the benchmark itself; run from the repository root with

    python -m pytest perfbench/test_perfbench.py -q

The end-to-end tests start the benchmark as a subprocess with
`--seconds 1`, which still runs two units of each workload.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from stopwatch import PROBE_REF_S, Stopwatch  # noqa: E402
from tracing import SPAN_NAMES, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


class ScriptedClock:
    """Returns the given instants in order, one per call."""

    def __init__(self, *instants: float):
        self.instants = list(instants)

    def __call__(self) -> float:
        return self.instants.pop(0)


def test_self_time_subtracts_children_on_a_synthetic_tree():
    # root [0, 10] holds a [1, 4] (which holds b [2, 3]) and a second b [5, 9]
    tracer = Tracer(clock=ScriptedClock(0, 1, 2, 3, 4, 5, 9, 10))
    with tracer.span("root"):
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("b"):
            pass
    assert tracer.calls == {"root": 1, "a": 1, "b": 2}
    assert tracer.self_s == {"b": 1 + 4, "a": 3 - 1, "root": 10 - 3 - 4}
    assert tracer.covered_s == 10


def test_uncovered_time_is_the_gap_between_root_spans():
    tracer = Tracer(clock=ScriptedClock(0, 2, 5, 6))
    with tracer.span("x"):
        pass
    with tracer.span("y"):
        pass
    assert tracer.covered_s == 3


def test_opaque_span_absorbs_nested_traced_calls():
    tracer = Tracer(clock=ScriptedClock(0, 4))
    inner = tracer.wrap("inner", lambda: 7)
    outer = tracer.wrap("outer", lambda: inner() + 1, opaque=True)
    assert outer() == 8
    assert tracer.calls == {"outer": 1}
    assert tracer.self_s == {"outer": 4}


def test_stopwatch_rescales_each_lap_by_the_probes_around_it():
    probe_times = iter([PROBE_REF_S * 2, PROBE_REF_S * 2, PROBE_REF_S / 2])
    sw = Stopwatch(clock=ScriptedClock(0, 3, 3.5, 4.5, 5), probe=lambda: next(probe_times))
    sw.start()
    assert sw.lap() == pytest.approx(3 / 2)  # host at half speed on both sides
    assert sw.lap() == pytest.approx(1 / 1.25)  # mean of the probes around it: 1.25x slower
    assert sw.raw_s == 4
    assert len(sw.probes) == 3


def test_benchmark_json_follows_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < m["bound"] <= setup["bound"] <= 0.25 for m in SPEC["end_to_end"])
    for name in SPAN_NAMES:
        assert f"{name}.calls" in names and f"{name}.self_s" in names


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_last_line_has_every_metric_with_its_unit(workload, trace):
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0
    if trace:
        calls = {k: v["value"] for k, v in result["metrics"].items() if k.endswith(".calls")}
        assert (calls["optim.AdamW.step.calls"] > 0) == (workload == "train-desk")
        if workload == "eval-wide":
            assert calls["labels.build_label_table.calls"] == 1


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in Path(__file__).parent.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = _run("gradcheck", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
