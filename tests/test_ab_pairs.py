"""scripts/ab_pairs.py's parsing and summary, on canned benchmark output."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "ab_pairs.py"
_spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPT)
ab_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab_pairs)

END_TO_END = [
    {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.2},
    {"name": "step_ms.p50", "unit": "ms", "better": "lower", "bound": 0.2},
]


def _run_output(items: float, p50: float, failed: int = 0) -> str:
    """What perfbench/run.py prints: a readable report, then one JSON line."""
    last = {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {"items_per_s": {"value": items, "unit": "1/s"}, "step_ms.p50": {"value": p50, "unit": "ms"}},
    }
    return json.dumps({"workload": "gradcheck", "units": 3}, indent=1) + "\n" + json.dumps(last) + "\n\n"


def test_parse_result_reads_the_last_json_line():
    result = ab_pairs.parse_result(_run_output(111.5, 8.25, failed=1))
    assert result["failed"] == 1
    assert result["metrics"]["items_per_s"]["value"] == 111.5
    with pytest.raises(ValueError, match="printed nothing"):
        ab_pairs.parse_result("\n  \n")


def test_summary_gives_quartiles_change_and_wins_in_each_direction():
    base = [(100.0, 10.0), (104.0, 9.0), (102.0, 11.0), (98.0, 10.5)]
    head = [(110.0, 9.0), (103.0, 9.5), (112.0, 11.0), (108.0, 9.5)]
    pairs = [
        (ab_pairs.parse_result(_run_output(*b)), ab_pairs.parse_result(_run_output(*h, failed=i == 3)))
        for i, (b, h) in enumerate(zip(base, head))
    ]
    items, p50 = ab_pairs.summarize(pairs, END_TO_END)

    assert items["name"] == "items_per_s" and items["pairs"] == 4
    assert items["base"] == (99.5, 101.0, 102.5)  # numpy's linear quartiles of 98, 100, 102, 104
    assert items["head"] == (106.75, 109.0, 110.5)
    assert items["change"] == pytest.approx(109.0 / 101.0 - 1.0)
    assert items["wins"] == 3  # higher is better: pair 2 (104 -> 103) is a loss

    assert p50["base"][1] == 10.25 and p50["head"][1] == 9.5
    assert p50["wins"] == 2  # lower is better: 9.5 > 9.0 loses, 11.0 = 11.0 ties
    assert ab_pairs.failures(pairs) == (0, 1)

    text = ab_pairs.format_rows("gradcheck", [items, p50])
    assert text.splitlines()[1].split() == [
        "items_per_s", "101", "[99.5", "-", "102.5]", "->", "109", "[106.75", "-", "110.5]", "+7.9%", "3/4",
    ]


def test_one_pair_summarizes_without_quartile_spread():
    pairs = [(ab_pairs.parse_result(_run_output(100.0, 10.0)), ab_pairs.parse_result(_run_output(90.0, 10.0)))]
    items, p50 = ab_pairs.summarize(pairs, END_TO_END)
    assert items["base"] == (100.0, 100.0, 100.0) and items["wins"] == 0
    assert p50["change"] == 0.0 and p50["wins"] == 0


PER_LAYER = [
    {"name": "synth.sample.calls", "unit": "count", "better": "lower"},
    {"name": "synth.sample.self_s", "unit": "s", "better": "lower"},
    {"name": "trace.overhead.items_per_s", "unit": "1/s", "better": "higher"},
]


def _traced_output(sample_s: float, overhead: float) -> str:
    """What `perfbench/run.py --trace 1` prints: its last line holds per-layer metrics only."""
    last = {
        "correct": True,
        "attempted": 10,
        "failed": 0,
        "metrics": {
            "synth.sample.calls": {"value": 2, "unit": "count"},
            "synth.sample.self_s": {"value": sample_s, "unit": "s"},
            "trace.overhead.items_per_s": {"value": overhead, "unit": "1/s"},
        },
    }
    report = {"workload": "eval-wide", "end_to_end": {"items_per_s": {"value": 20000.0, "unit": "1/s"}}}
    return json.dumps(report, indent=1) + "\n" + json.dumps(last) + "\n"


def test_layer_mode_summarizes_traced_runs_in_each_metrics_direction():
    metrics = ab_pairs.select_layers(["synth.sample.self_s", "trace.overhead.items_per_s"], PER_LAYER)
    assert [m["name"] for m in metrics] == ["synth.sample.self_s", "trace.overhead.items_per_s"]
    runs = [((0.070, -500.0), (0.046, -450.0)), ((0.068, -400.0), (0.047, -600.0)), ((0.072, -450.0), (0.075, -300.0))]
    pairs = [(ab_pairs.parse_result(_traced_output(*b)), ab_pairs.parse_result(_traced_output(*h))) for b, h in runs]

    # the progress line reads the traced metrics; a trace run has no items_per_s to print
    assert ab_pairs.progress("eval-wide", 1, 3, *pairs[0], metrics) == (
        "eval-wide pair 1/3: synth.sample.self_s 0.07 -> 0.046, trace.overhead.items_per_s -500 -> -450"
    )
    sample_s, overhead = ab_pairs.summarize(pairs, metrics)
    assert sample_s["base"][1] == 0.070 and sample_s["head"][1] == 0.047
    assert sample_s["wins"] == 2  # lower is better: 0.072 -> 0.075 loses
    assert overhead["wins"] == 2  # higher is better: -400 -> -600 loses
    line = ab_pairs.format_rows("eval-wide", [sample_s, overhead]).splitlines()[1]
    assert line.split()[0] == "synth.sample.self_s" and line.split()[-1] == "2/3"


def test_an_unknown_layer_is_refused_by_name():
    with pytest.raises(ValueError, match=r"^synth\.sampel\.self_s is not a per-layer metric of BENCHMARK\.json$"):
        ab_pairs.select_layers(["synth.sample.calls", "synth.sampel.self_s"], PER_LAYER)
