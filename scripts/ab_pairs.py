"""Alternating A/B pairs of the ovml benchmark between two checkouts.

    python3 scripts/ab_pairs.py --base ../ovml-parent --workload gradcheck --pairs 10 --seconds 30
    python3 scripts/ab_pairs.py --base ../ovml-parent --workload eval-wide --layer synth.sample.self_s

Each pair runs `perfbench/run.py` once in the base checkout and once in
the checkout that holds this script, each with its own copy of the
benchmark, on the same seed. The side that runs first alternates from
pair to pair, so a drift in the host's speed falls on both sides alike. Pair i uses seed
`--seed + i`. The last line of each run is its JSON result. At the end it
prints, for every end-to-end metric of BENCHMARK.json, the median and
quartiles of each side, the change of the median, and in how many pairs
the head was better (by the metric's `better` direction).

With `--layer NAME` (repeatable) every run is traced (`--trace 1`), whose
last line holds the per-layer metrics instead, and the summary covers the
named per-layer metrics of BENCHMARK.json, each in its own direction.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent


def parse_result(stdout: str) -> dict:
    """The JSON object on the last non-empty line of a benchmark run's output."""
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("benchmark run printed nothing")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), numpy's default linear method."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict]) -> list[dict]:
    """One row per metric (a BENCHMARK.json entry) over (base, head) result pairs.

    Each result is a parsed run (`parse_result`). A row holds the metric's
    name, both sides' quartiles, the head's median change relative to the
    base's, and `wins`: the pairs whose head value is strictly better.
    """
    rows = []
    for metric in metrics:
        name, sign = metric["name"], 1.0 if metric["better"] == "higher" else -1.0
        base = [b["metrics"][name]["value"] for b, _ in pairs]
        head = [h["metrics"][name]["value"] for _, h in pairs]
        b_q, h_q = quartiles(base), quartiles(head)
        rows.append({
            "name": name,
            "base": b_q,
            "head": h_q,
            "change": h_q[1] / b_q[1] - 1.0 if b_q[1] else float("nan"),
            "wins": sum(sign * (h - b) > 0 for b, h in zip(base, head)),
            "pairs": len(pairs),
        })
    return rows


def failures(pairs: list[tuple[dict, dict]]) -> tuple[int, int]:
    """Failed operations over all runs: (base, head)."""
    return sum(b["failed"] for b, _ in pairs), sum(h["failed"] for _, h in pairs)


def format_rows(workload: str, rows: list[dict]) -> str:
    out = [f"{workload}: median [q1 - q3], base -> head, head better in"]
    width = max(12, *(len(r["name"]) for r in rows))
    for r in rows:
        (b1, b2, b3), (h1, h2, h3) = r["base"], r["head"]
        out.append(
            f"  {r['name']:<{width}s} {b2:.6g} [{b1:.6g} - {b3:.6g}] -> {h2:.6g} [{h1:.6g} - {h3:.6g}]"
            f"  {100 * r['change']:+.1f}%  {r['wins']}/{r['pairs']}"
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


def run_once(checkout: Path, workload: str, seed: int, seconds: int, trace: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(int(trace))]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True)
    return parse_result(done.stdout)


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
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    bench = json.loads((HEAD / "BENCHMARK.json").read_text())
    try:
        metrics = select_layers(args.layer, bench["per_layer"]) if args.layer else bench["end_to_end"]
    except ValueError as e:
        parser.error(str(e))
    workloads = args.workload or [w["name"] for w in bench["workloads"]]
    for workload in workloads:
        pairs = []
        for i in range(args.pairs):
            sides = {}
            order = ("base", "head") if i % 2 == 0 else ("head", "base")
            for side in order:
                checkout = args.base if side == "base" else HEAD
                sides[side] = run_once(checkout, workload, args.seed + i, args.seconds, bool(args.layer))
            pairs.append((sides["base"], sides["head"]))
            print(progress(workload, i + 1, args.pairs, *pairs[-1], metrics), file=sys.stderr, flush=True)
        print(format_rows(workload, summarize(pairs, metrics)))
        base_failed, head_failed = failures(pairs)
        print(f"  failed operations: base {base_failed}, head {head_failed}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
