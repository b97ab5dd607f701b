"""scripts/ab_pairs.py's parsing, summary, CPU-count check, unit counts and record file, on canned benchmark output."""

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


def _run_output(
    items: float, p50: float, failed: int = 0, cpus: int = 2, metrics: dict | None = None, units: int = 3
) -> str:
    """What perfbench/run.py prints: a readable report, then one JSON line."""
    last = {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": metrics or {"items_per_s": {"value": items, "unit": "1/s"}, "step_ms.p50": {"value": p50, "unit": "ms"}},
    }
    report = {"workload": "gradcheck", "units": units, "environment": {"seed": 0, "cpus_usable": cpus}}
    return json.dumps(report, indent=1) + "\n" + json.dumps(last) + "\n\n"


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
        "items_per_s", "101", "[99.5", "-", "102.5]", "->", "109", "[106.75", "-", "110.5]", "+7.9%", "3/4", "same",
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
    assert line.split()[0] == "synth.sample.self_s" and line.split()[-2:] == ["2/3", "-"]  # no bound, no gain


def test_an_unknown_layer_is_refused_by_name():
    with pytest.raises(ValueError, match=r"^synth\.sampel\.self_s is not a per-layer metric of BENCHMARK\.json$"):
        ab_pairs.select_layers(["synth.sample.calls", "synth.sampel.self_s"], PER_LAYER)


def test_parse_report_reads_the_json_above_the_result_line():
    assert ab_pairs.parse_report(_run_output(111.5, 8.25, cpus=1))["environment"]["cpus_usable"] == 1
    assert ab_pairs.cpus_line({"base": [2, 2], "head": [2, 2]}) == "  cpus_usable: base 2, head 2"
    assert ab_pairs.cpus_line({"base": [2, 1, 2], "head": [2, 2, 2]}) == "  cpus_usable: base 1/2, head 2"


def _fake_runs(monkeypatch, cpus_of):
    """Replace the benchmark runs: every end-to-end metric of BENCHMARK.json
    reads 1.0, and a run sees `cpus_of(side, seed)` usable CPUs."""
    bench = json.loads((ab_pairs.HEAD / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in bench["end_to_end"]}

    def run_once(checkout, workload, seed, seconds, trace):
        side = "head" if checkout == ab_pairs.HEAD else "base"
        return _run_output(0.0, 0.0, cpus=cpus_of(side, seed), metrics=metrics)

    monkeypatch.setattr(ab_pairs, "run_once", run_once)


def test_runs_on_one_cpu_count_print_it_per_side(monkeypatch, capsys, tmp_path):
    _fake_runs(monkeypatch, lambda side, seed: 2)
    assert ab_pairs.main(["--base", str(tmp_path), "--workload", "gradcheck", "--pairs", "2"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "  cpus_usable: base 2, head 2"
    assert "usable CPU counts" not in err


def test_runs_on_different_cpu_counts_exit_one_with_one_line(monkeypatch, capsys, tmp_path):
    _fake_runs(monkeypatch, lambda side, seed: 1 if side == "head" and seed == 1 else 2)
    assert ab_pairs.main(["--base", str(tmp_path), "--workload", "gradcheck", "--workload", "eval-wide",
                          "--pairs", "2"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines()[-1] == "  cpus_usable: base 2, head 1/2"  # the summary still prints
    assert "eval-wide" not in out + err  # the next workload never runs
    assert err.splitlines()[-1] == "ab_pairs: gradcheck runs saw different usable CPU counts; their times do not compare"


def test_record_holds_each_workloads_rows_cpus_failures_and_result_lines(monkeypatch, capsys, tmp_path):
    bench = json.loads((ab_pairs.HEAD / "BENCHMARK.json").read_text())

    def run_once(checkout, workload, seed, seconds, trace):
        head = checkout == ab_pairs.HEAD
        metrics = {m["name"]: {"value": 100.0 + seed + 10 * head, "unit": m["unit"]} for m in bench["end_to_end"]}
        return _run_output(0.0, 0.0, failed=int(head and seed == 5), metrics=metrics)

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    monkeypatch.setattr(ab_pairs, "cpu_model", lambda: "Canned CPU @ 2.00GHz")
    path = tmp_path / "BENCH.json"
    argv = ["--base", str(tmp_path), "--workload", "gradcheck", "--workload", "eval-wide", "--pairs", "3",
            "--seconds", "7", "--seed", "4", "--record", str(path)]
    assert ab_pairs.main(argv) == 0
    capsys.readouterr()
    record = json.loads(path.read_text())

    assert list(record) == ["command", "options", "base", "head", "environment", "workloads"]
    assert record["options"] == {"pairs": 3, "seconds": 7, "seed": 4, "layer": []}
    assert record["base"] is None  # tmp_path is no git checkout
    # the canned report's, less its seed, with the host's CPU model
    assert record["environment"] == {"cpus_usable": 2, "cpu_model": "Canned CPU @ 2.00GHz"}
    assert list(record["workloads"]) == ["gradcheck", "eval-wide"]
    entry = record["workloads"]["eval-wide"]
    assert list(entry) == ["summary", "cpus_usable", "units", "failed_ops", "pairs"]
    rows = {row["name"]: row for row in entry["summary"]}
    assert list(rows) == [m["name"] for m in bench["end_to_end"]]
    assert rows["items_per_s"] == {
        "name": "items_per_s",
        "base": {"q1": 104.5, "median": 105.0, "q3": 105.5},
        "head": {"q1": 114.5, "median": 115.0, "q3": 115.5},
        "change": pytest.approx(115.0 / 105.0 - 1.0),
        "wins": 3,
        "pairs": 3,
        "verdict": "gain",  # 3 of 3 pairs, median gap 10 against the base's IQR 1
    }
    assert rows["setup_s"]["wins"] == 0  # lower is better
    assert entry["cpus_usable"] == {"base": [2, 2, 2], "head": [2, 2, 2]}
    assert entry["units"] == {"base": [3, 3, 3], "head": [3, 3, 3]}
    assert entry["failed_ops"] == {"base": [0, 0, 0], "head": [0, 1, 0]}
    assert [(p["seed"], p["first"]) for p in entry["pairs"]] == [(4, "base"), (5, "head"), (6, "base")]
    assert entry["pairs"][1]["head"] == ab_pairs.parse_result(run_once(ab_pairs.HEAD, "eval-wide", 5, 7, False))
    assert entry["pairs"][1]["base"] == ab_pairs.parse_result(run_once(tmp_path, "eval-wide", 5, 7, False))


def test_units_print_as_each_sides_median_and_record_as_lists(monkeypatch, capsys, tmp_path):
    bench = json.loads((ab_pairs.HEAD / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in bench["end_to_end"]}

    def run_once(checkout, workload, seed, seconds, trace):
        return _run_output(0.0, 0.0, metrics=metrics, units=(15 if checkout == ab_pairs.HEAD else 12) + seed)

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    path = tmp_path / "BENCH.json"
    argv = ["--base", str(tmp_path), "--workload", "eval-wide", "--pairs", "2", "--record", str(path)]
    assert ab_pairs.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2:] == ["  units (median): base 12.5, head 15.5", "  cpus_usable: base 2, head 2"]
    assert json.loads(path.read_text())["workloads"]["eval-wide"]["units"] == {"base": [12, 13], "head": [15, 16]}


def _row(base, head, better="higher", bound=0.2):
    """summarize's row for one metric over stubbed (base, head) values, one pair each."""
    metric = {"name": "m", "unit": "1/s", "better": better, "bound": bound}
    if bound is None:
        del metric["bound"]
    pairs = [({"metrics": {"m": {"value": b}}}, {"metrics": {"m": {"value": h}}}) for b, h in zip(base, head)]
    return ab_pairs.summarize(pairs, [metric])[0]


BASE = [100.0, 101.0, 102.0, 103.0, 104.0, 105.0, 106.0, 107.0, 108.0, 109.0]  # median 104.5, IQR 4.5


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_gain_needs_nine_wins_in_ten_and_a_median_gap_beyond_the_base_iqr(better):
    step = 1.0 if better == "higher" else -1.0
    ahead = [b + step * 6.0 for b in BASE]  # 10/10, gap 6 > 4.5
    assert _row(BASE, ahead, better)["verdict"] == "gain"
    one_loss = ahead[:9] + [BASE[9] - step]  # 9/10, gap 5
    assert _row(BASE, one_loss, better)["wins"] == 9 and _row(BASE, one_loss, better)["verdict"] == "gain"
    two_losses = ahead[:8] + [BASE[8] - step, BASE[9] - step]
    assert _row(BASE, two_losses, better)["verdict"] == "same"  # 8/10
    narrow = [b + step * 4.0 for b in BASE]  # 10/10 but gap 4 <= 4.5
    assert _row(BASE, narrow, better)["verdict"] == "same"
    tie = [b + step * 5.0 for b in BASE[:9]] + [BASE[9]]
    assert _row(BASE, tie, better)["wins"] == 9  # a tie counts for neither side


@pytest.mark.parametrize("better", ["higher", "lower"])
def test_worse_is_a_median_beyond_the_bound(better):
    step = 1.0 if better == "higher" else -1.0
    assert _row(BASE, [b - step * 20.0 for b in BASE], better)["verdict"] == "same"  # 19.1% of 104.5, bound 20%
    assert _row(BASE, [b - step * 21.0 for b in BASE], better)["verdict"] == "worse"
    assert _row(BASE, [b - step * 21.0 for b in BASE], better, bound=0.25)["verdict"] == "same"


def test_unresolved_is_a_base_spread_beyond_the_bound_without_a_clean_sweep():
    wide = [60.0, 70.0, 80.0, 90.0, 100.0, 110.0, 120.0, 130.0, 140.0, 150.0]  # IQR 45 of median 105
    assert _row(wide, wide, bound=0.4)["verdict"] == "unresolved"
    assert _row(wide, wide, bound=0.5)["verdict"] == "same"
    assert _row(wide, [w + 1.0 for w in wide], bound=0.4)["verdict"] == "same"  # 10/10 wins, gap 1 <= IQR
    assert _row(wide, [w - 60.0 for w in wide], bound=0.4)["verdict"] == "worse"


def test_metrics_without_a_bound_read_gain_or_nothing():
    assert _row(BASE, [b + 5.0 for b in BASE], bound=None)["verdict"] == "gain"
    assert _row(BASE, [b - 50.0 for b in BASE], bound=None)["verdict"] is None


def test_cpu_model_is_the_first_model_name(tmp_path):
    info = tmp_path / "cpuinfo"
    info.write_text("processor\t: 0\nmodel name\t: AMD EPYC\n\nprocessor\t: 1\nmodel name\t: Other\n")
    assert ab_pairs.cpu_model(info) == "AMD EPYC"
    info.write_text("processor\t: 0\nfeatures\t: fp asimd\n")
    assert ab_pairs.cpu_model(info) is None
    assert ab_pairs.cpu_model(tmp_path / "missing") is None


def test_a_failed_run_names_its_pair_and_side_and_keeps_the_finished_pairs(monkeypatch, capsys, tmp_path):
    # a base checkout whose benchmark cannot start, as one without src/ fails
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text(
        "import sys\nfor i in range(12):\n    print(f'noise {i}', file=sys.stderr)\n"
        "print(\"ModuleNotFoundError: No module named 'ovml'\", file=sys.stderr)\nsys.exit(3)\n"
    )
    bench = json.loads((ab_pairs.HEAD / "BENCHMARK.json").read_text())
    metrics = {m["name"]: {"value": 1.0, "unit": m["unit"]} for m in bench["end_to_end"]}
    real_run_once = ab_pairs.run_once

    def run_once(checkout, workload, seed, seconds, trace):
        if checkout == ab_pairs.HEAD or seed == 0:  # the first pair finishes; the base run of the second fails
            return _run_output(0.0, 0.0, metrics=metrics)
        return real_run_once(checkout, workload, seed, seconds, trace)

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    path = tmp_path / "BENCH.json"
    argv = ["--base", str(tmp_path), "--workload", "gradcheck", "--pairs", "3", "--record", str(path)]
    assert ab_pairs.main(argv) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[1:] == [
        f"ab_pairs: gradcheck pair 2/3: the base run in {tmp_path} exited 3; the last lines of its stderr:",
        *(f"  noise {i}" for i in range(3, 12)),
        "  ModuleNotFoundError: No module named 'ovml'",
    ]
    assert [p["seed"] for p in json.loads(path.read_text())["workloads"]["gradcheck"]["pairs"]] == [0]
