"""ovml benchmark: one single-threaded, closed-loop caller per workload.

Run from the root of an ovml checkout:

    python3 perfbench/run.py --workload train-desk --seed 0 --seconds 30 --trace 0

The run sets its workload up several times (the median is `setup_s`),
then repeats the workload's unit of work, each unit starting when the
last one returns, until `--seconds` have passed. Times are reference
seconds: raw segment times rescaled by a probe of the host core's current
speed (see stopwatch.py). It prints a readable
report, then, as its last line, one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. With `--trace 0` the metrics are
the end-to-end metrics of BENCHMARK.json; with `--trace 1` the run adds
one traced set-up and unit and reports the per-layer metrics and the
tracing overhead instead. perfbench/README.md describes every metric.
"""

import os

# One BLAS thread; this must happen before numpy is first imported.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter as clock  # noqa: E402

import numpy as np  # noqa: E402
from stopwatch import Stopwatch, percentiles  # noqa: E402
from tracing import Tracer, instrument, layer_metrics  # noqa: E402

SETUP_REPEATS = 5
MIN_UNITS = 2  # the determinism check compares repeats


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux reports KiB


def end_to_end(setup_times: list[float], units, rss_mb: float) -> dict[str, tuple[float, str]]:
    """The metrics BENCHMARK.json gates, pooled over every unit's phases."""
    phases = [p for u in units for p in u.phases.values()]
    p50, p90 = percentiles([s for p in phases for s in p.steps_ms])
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "items_per_s": (sum(p.items for p in phases) / sum(p.wall_s for p in phases), "1/s"),
        "step_ms.p50": (p50, "ms"),
        "step_ms.p90": (p90, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def measure(wl, seed: int, seconds: int, work: Path, sw):
    setup_times = []
    for i in range(SETUP_REPEATS):
        sw.start()
        state = wl.setup(seed, work / f"setup{i}")
        setup_times.append(sw.lap())
    units = []
    deadline = clock() + seconds
    while len(units) < MIN_UNITS or clock() < deadline:
        units.append(wl.unit(state, work / f"unit{len(units)}", sw))
    checks = list(state["checks"].items())
    checks += [c for u in units for c in u.checks.items()]
    checks += wl.final_checks(state, units[0]).items()
    checks.append(("repeats_identical", all(u.fingerprint == units[0].fingerprint for u in units)))
    return setup_times, units, checks


def trace_one(wl, seed: int, work: Path, untraced: dict, base):
    """One traced set-up and unit: per-layer metrics and the tracing overhead."""
    tracer = Tracer()
    sw = Stopwatch()
    t0 = clock()
    with instrument(tracer):
        sw.start()
        state = wl.setup(seed, work / "traced-setup")
        setup_s = sw.lap()
        # node counts cover the unit alone, so they are per image of it
        tracer.nodes = tracer.grad_nodes = tracer.backward_nodes = 0
        unit = wl.unit(state, work / "traced-unit", sw)
    traced_wall = clock() - t0 - sum(sw.probes)  # probes are not program time
    items = sum(p.items for p in unit.phases.values())
    per_layer = layer_metrics(tracer, items, traced_wall)
    traced = end_to_end([setup_s], [unit], peak_rss_mb())
    for name, (value, unit_name) in untraced.items():
        per_layer[f"trace.overhead.{name}"] = (traced[name][0] - value, unit_name)
    checks = list(state["checks"].items()) + list(unit.checks.items())
    checks.append(("traced_matches_untraced", unit.fingerprint == base.fingerprint))
    return per_layer, traced, checks


def environment(seed: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "callers": "1, closed loop",
    }


def _as_metrics(values: dict[str, tuple[float, str]]) -> dict:
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("train-desk", "eval-wide", "gradcheck"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    src = Path.cwd() / "src"
    if not (src / "ovml" / "__init__.py").is_file():
        print("perfbench: no src/ovml here; run from the root of an ovml checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS  # imports ovml

    wl = WORKLOADS[args.workload]
    sw = Stopwatch()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=Path.cwd()) as tmp:
        work = Path(tmp)
        setup_times, units, checks = measure(wl, args.seed, args.seconds, work, sw)
        e2e = end_to_end(setup_times, units, peak_rss_mb())
        ops = [ok for u in units for ok in u.ops]
        report = {
            "workload": args.workload,
            "units": len(units),
            "end_to_end": _as_metrics(e2e),
            "host": {
                "probe_ms.p50": 1e3 * statistics.median(sw.probes),
                "probes": len(sw.probes),
                "raw_s": sw.raw_s,
                "reference_s": sum(setup_times) + sum(p.wall_s for u in units for p in u.phases.values()),
            },
        }
        if args.trace:
            per_layer, traced, traced_checks = trace_one(wl, args.seed, work, e2e, units[0])
            checks += traced_checks
            report["traced_end_to_end"] = _as_metrics(traced)
            metrics = per_layer
        else:
            metrics = e2e

    outcomes = ops + [ok for _, ok in checks]
    failed = sum(not ok for ok in outcomes)
    named = {name: {"value": v, "unit": u, "samples": n} for name, (v, u, n) in wl.named_metrics(units).items()}
    named["setup_s"] = {"value": e2e["setup_s"][0], "unit": "s", "samples": len(setup_times)}
    named["peak_rss_mb"] = {"value": e2e["peak_rss_mb"][0], "unit": "MB", "samples": 1}
    named["error_rate"] = {"value": failed / len(outcomes), "unit": "ratio", "samples": len(outcomes)}
    report["named"] = named
    report["checks"] = {}
    for name, ok in checks:
        report["checks"][name] = report["checks"].get(name, True) and ok
    report["environment"] = environment(args.seed)
    print(json.dumps(report, indent=1, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": _as_metrics(metrics),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
