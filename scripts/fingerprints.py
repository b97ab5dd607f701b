"""The unit fingerprints of the ovml benchmark's workloads, per seed.

    python3 scripts/fingerprints.py --seed 0 --seed 1
    python3 scripts/fingerprints.py --base ../ovml-parent --seed 0 --seed 1

For every workload of BENCHMARK.json and every `--seed`, a child process
in the checkout that holds this script runs the workload's set-up and one
unit, both from that checkout's `perfbench/workloads.py` and `src/`, with
one BLAS thread as the benchmark uses, and prints the sha256 of the
unit's fingerprint (of its `repr`, which spells every float exactly). It
times nothing: the unit's stopwatch reads 0.

Each line reads `<workload> seed <seed> <sha256>`. With `--base DIR` the
same child runs in that checkout too, and the line ends in `equal`, or in
`differs` and the base's sha256; any difference ends the script with exit
code 1. A child that exits non-zero ends it with exit code 1 as well,
after printing its checkout and the last lines of its standard error.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
STDERR_LINES = 10  # how many of a failed child's last stderr lines are printed

# run in a checkout's root as `python -c CHILD <workload> <seed>`; prints the digest
CHILD = """
import os, sys
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"  # before numpy is first imported, as perfbench/run.py does
sys.path[:0] = [os.path.abspath("src"), os.path.abspath("perfbench")]
import hashlib, tempfile
from pathlib import Path
from workloads import WORKLOADS

class Stopwatch:
    def start(self):
        pass

    def lap(self):
        return 0.0

workload = WORKLOADS[sys.argv[1]]
with tempfile.TemporaryDirectory(prefix=".perfbench-fingerprint-", dir=".") as work:
    state = workload.setup(int(sys.argv[2]), Path(work) / "setup")
    unit = workload.unit(state, Path(work) / "unit", Stopwatch())
print(hashlib.sha256(repr(unit.fingerprint).encode()).hexdigest())
"""


def fingerprint(checkout: Path, workload: str, seed: int) -> str:
    """The sha256 of one unit's fingerprint in `checkout`."""
    cmd = [sys.executable, "-B", "-c", CHILD, workload, str(seed)]  # -B: no bytecode written
    return subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout.strip()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, help="a checkout whose fingerprints must be equal")
    parser.add_argument("--seed", type=int, action="append", required=True, help="repeatable")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in json.loads((HEAD / "BENCHMARK.json").read_text())["workloads"]]
    differs = False
    for workload in workloads:
        for seed in args.seed:
            sides = {}
            for side, checkout in (("head", HEAD), ("base", args.base)):
                if checkout is None:
                    continue
                try:
                    sides[side] = fingerprint(checkout, workload, seed)
                except subprocess.CalledProcessError as e:
                    print(f"fingerprints: {workload} seed {seed} in {checkout} exited {e.returncode}; "
                          "the last lines of its stderr:", file=sys.stderr)
                    for line in (e.stderr or "").splitlines()[-STDERR_LINES:]:
                        print(f"  {line}", file=sys.stderr)
                    return 1
            line = f"{workload} seed {seed} {sides['head']}"
            if "base" in sides:
                same = sides["base"] == sides["head"]
                differs |= not same
                line += " equal" if same else f" differs {sides['base']}"
            print(line, flush=True)
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
