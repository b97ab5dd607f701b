"""Alternating A/B pairs of the ovml benchmark between two checkouts.

    python3 scripts/ab_pairs.py --base ../ovml-parent --workload gradcheck --pairs 10 --seconds 30
    python3 scripts/ab_pairs.py --base ../ovml-parent --workload eval-wide --layer synth.sample.self_s

Each pair runs `perfbench/run.py` once in the base checkout and once in
the checkout that holds this script, each with its own copy of the
benchmark, on the same seed. The side that runs first alternates from
pair to pair, so a drift in the host's speed falls on both sides alike. Pair i uses seed
`--seed + i`. The last line of each run is its JSON result. At the end it
prints, for every end-to-end metric of BENCHMARK.json, the median and
quartiles of each side, the change of the median, in how many pairs the
head was better (by the metric's `better` direction), a verdict, the
median number of units each side's runs completed (`units` in the report
above the last line) and the usable CPU count each side's runs saw
(`environment.cpus_usable` in that report). A run that completes more
units holds more of them in memory, so a `peak_rss_mb` change reads
against the unit counts. A workload whose runs saw different CPU counts
ends the script with exit code 1: a gain from running on more CPUs means
nothing without its count.

The verdict follows the benchmark's rule for a claimed gain and each
end-to-end metric's `bound` in BENCHMARK.json (a relative change):
`gain` when the head was better in at least 9 of 10 pairs and its median
beats the base's by more than the base's interquartile range; `worse`
when the head's median is worse by more than the bound; `unresolved`
when the base's interquartile range, relative to its median, is wider
than the bound and the head did not win every pair; `same` otherwise.
Per-layer metrics have no bound, so they read `gain` or no verdict (`-`).

With `--layer NAME` (repeatable) every run is traced (`--trace 1`), whose
last line holds the per-layer metrics instead, and the summary covers the
named per-layer metrics of BENCHMARK.json, each in its own direction.

A run that exits non-zero ends the script with exit code 1, after
printing its workload, pair and side and the last lines of its standard
error.

With `--record PATH` the script also writes what it measured as one JSON
file (a `BENCH_*.json` record), rewritten after every pair, so the pairs
finished before a failed run are kept: the options, both checkouts' `git
describe`, the head's environment with the host's CPU model (numpy's
sort kernels dispatch by CPU), and per workload the summary rows, each
side's usable CPU counts, unit counts and failed operations, and every
pair's seed, first side and both result lines.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
STDERR_LINES = 10  # how many of a failed run's last stderr lines are printed


def parse_result(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a benchmark run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("benchmark run printed nothing")
    return json.loads(lines[-1])


def parse_report(stdout: str) -> dict:
    """The readable report above a benchmark run's last line: one JSON object."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    return json.loads("\n".join(lines[:-1]))


def cpus_line(cpus: dict[str, list[int]]) -> str:
    """Each side's usable CPU counts: `  cpus_usable: base 2, head 2`, or
    `base 1/2` when that side's runs saw different counts.
    """
    shown = {side: "/".join(map(str, sorted(set(counts)))) for side, counts in cpus.items()}
    return f"  cpus_usable: base {shown['base']}, head {shown['head']}"


def units_line(units: dict[str, list[int]]) -> str:
    """Each side's median number of completed units: `  units (median): base 14, head 15.5`."""
    return f"  units (median): base {statistics.median(units['base']):g}, head {statistics.median(units['head']):g}"


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), numpy's default linear method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(base: tuple[float, float, float], gap: float, wins: int, pairs: int, bound: float | None) -> str | None:
    """`gain`, `worse`, `unresolved` or `same` (see the module docstring) for
    a metric whose base quartiles are `base` and whose head median beats the
    base median by `gap` in the metric's better direction; None for a metric
    without a bound that shows no gain.
    """
    q1, median, q3 = base
    if 10 * wins >= 9 * pairs and gap > q3 - q1:
        return "gain"
    if bound is None:
        return None
    if gap < -bound * abs(median):
        return "worse"
    if q3 - q1 > bound * abs(median) and wins < pairs:
        return "unresolved"
    return "same"


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per metric (a BENCHMARK.json entry) over (base, head) result pairs.

    Each result is a parsed run (`parse_result`). A row holds the metric's
    name, both sides' quartiles, the head's median change relative to the
    base's, `wins`: the pairs whose head value is strictly better, and the
    `verdict`.
    """
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        head = [h["metrics"][name]["value"] for _, h in pairs]
        b_q, h_q = quartiles(base), quartiles(head)
        wins = sum(sign * (h - b) > 0 for b, h in zip(base, head))
        rows.append({
            "name": name,
            "base": b_q,
            "head": h_q,
            "change": h_q[1] / b_q[1] - 1.0 if b_q[1] else float("nan"),
            "wins": wins,
            "pairs": len(pairs),
            "verdict": verdict(b_q, sign * (h_q[1] - b_q[1]), wins, len(pairs), metric.get("bound")),
        })
    return rows


def failures(pairs: list[tuple[dict, dict]]) -> tuple[int, int]:
    """Failed operations over all runs: (base, head)."""
    return sum(b["failed"] for b, _ in pairs), sum(h["failed"] for _, h in pairs)


def format_rows(workload: str, rows: list[dict]) -> str:
    out = [f"{workload}: median [q1 - q3], base -> head, head better in, verdict"]
    width = max(12, *(len(r["name"]) for r in rows))
    for r in rows:
        (b1, b2, b3), (h1, h2, h3) = r["base"], r["head"]
        out.append(
            f"  {r['name']:<{width}s} {b2:.6g} [{b1:.6g} - {b3:.6g}] -> {h2:.6g} [{h1:.6g} - {h3:.6g}]"
            f"  {100 * r['change']:+.1f}%  {r['wins']}/{r['pairs']}  {r['verdict'] or '-'}"
        )
    return "\n".join(out)


def progress(workload: str, pair: int, n_pairs: int, base: dict, head: dict, metrics: list[dict]) -> str:
    """One line per finished pair: each summarized metric, base -> head."""
    values = (f"{m['name']} {base['metrics'][m['name']]['value']:.6g} -> {head['metrics'][m['name']]['value']:.6g}"
              for m in metrics)
    return f"{workload} pair {pair}/{n_pairs}: " + ", ".join(values)


def select_layers(names: list[str], per_layer: list[dict]) -> list[dict]:
    """The per-layer metrics of BENCHMARK.json named by `names`, in that order."""
    known = {m["name"]: m for m in per_layer}
    unknown = [name for name in names if name not in known]
    if unknown:
        raise ValueError(f"{unknown[0]} is not a per-layer metric of BENCHMARK.json")
    return [known[name] for name in names]


def record_workload(
    rows: list[dict], pairs: list[tuple[dict, dict]], cpus: dict[str, list[int]], units: dict[str, list[int]], seed: int
) -> dict:
    """A workload's entry in the `--record` file; pair i ran on seed `seed + i`."""
    def spread(q: tuple[float, float, float]) -> dict:
        return dict(zip(("q1", "median", "q3"), q))

    return {
        "summary": [{**row, "base": spread(row["base"]), "head": spread(row["head"])} for row in rows],
        "cpus_usable": cpus,
        "units": units,
        "failed_ops": {"base": [b["failed"] for b, _ in pairs], "head": [h["failed"] for _, h in pairs]},
        "pairs": [
            {"seed": seed + i, "first": "base" if i % 2 == 0 else "head", "base": b, "head": h}
            for i, (b, h) in enumerate(pairs)
        ],
    }


def cpu_model(cpuinfo: Path = Path("/proc/cpuinfo")) -> str | None:
    """The first `model name` of a cpuinfo file, or None where it cannot be read or holds none."""
    try:
        text = cpuinfo.read_text()
    except OSError:
        return None
    for line in text.splitlines():
        key, _, value = line.partition(":")
        if key.strip() == "model name":
            return value.strip()
    return None


def describe(checkout: Path) -> str | None:
    """`git describe --always --dirty` of a checkout, or None outside git."""
    out = subprocess.run(["git", "-C", str(checkout), "describe", "--always", "--dirty"], capture_output=True, text=True)
    return out.stdout.strip() or None


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: bool) -> str:
    """One benchmark run's standard output."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    return subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, required=True, help="the checkout to compare against")
    parser.add_argument("--workload", action="append", help="repeatable; default: every workload of BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--layer", action="append", help="repeatable; trace the runs and summarize these per-layer metrics instead"
    )
    parser.add_argument("--record", type=Path, help="write the measurements to this JSON file")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    bench = json.loads((HEAD / "BENCHMARK.json").read_text())
    try:
        metrics = select_layers(args.layer, bench["per_layer"]) if args.layer else bench["end_to_end"]
    except ValueError as e:
        parser.error(str(e))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    record = {
        "command": "python3 scripts/ab_pairs.py",
        "options": {"pairs": args.pairs, "seconds": args.seconds, "seed": args.seed, "layer": args.layer or []},
        "base": describe(args.base),
        "head": describe(HEAD),
        "environment": None,
        "workloads": {},
    }
    for workload in workloads:
        pairs, cpus, units = [], {"base": [], "head": []}, {"base": [], "head": []}
        for i in range(args.pairs):
            sides = {}
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                checkout = args.base if side == "base" else HEAD
                try:
                    out = run_once(checkout, workload, args.seed + i, args.seconds, bool(args.layer))
                except subprocess.CalledProcessError as e:
                    print(f"ab_pairs: {workload} pair {i + 1}/{args.pairs}: the {side} run in {checkout} exited "
                          f"{e.returncode}; the last lines of its stderr:", file=sys.stderr)
                    for line in (e.stderr or "").splitlines()[-STDERR_LINES:]:
                        print(f"  {line}", file=sys.stderr)
                    return 1
                sides[side] = parse_result(out)
                report = parse_report(out)
                cpus[side].append(report["environment"]["cpus_usable"])
                units[side].append(report["units"])
                if side == "head":
                    record["environment"] = {k: v for k, v in report["environment"].items() if k != "seed"}
                    record["environment"]["cpu_model"] = cpu_model()
            pairs.append((sides["base"], sides["head"]))
            print(progress(workload, i + 1, args.pairs, *pairs[-1], metrics), file=sys.stderr, flush=True)
            rows = summarize(pairs, metrics)
            if args.record:
                record["workloads"][workload] = record_workload(rows, pairs, cpus, units, args.seed)
                args.record.write_text(json.dumps(record, indent=1) + "\n")
        print(format_rows(workload, rows))
        base_failed, head_failed = failures(pairs)
        print(f"  failed operations: base {base_failed}, head {head_failed}")
        print(units_line(units))
        print(cpus_line(cpus))
        if len({*cpus["base"], *cpus["head"]}) > 1:
            print(f"ab_pairs: {workload} runs saw different usable CPU counts; their times do not compare",
                  file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
