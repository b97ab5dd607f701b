"""The unit fingerprints of the ovml benchmark's workloads and the digest of
`ovml gradcheck`'s output, per seed.

    python3 scripts/fingerprints.py --seed 0 --seed 1
    python3 scripts/fingerprints.py --base ../ovml-parent --seed 0 --seed 1

For every workload of BENCHMARK.json and every `--seed`, a child process
in the checkout that holds this script runs the workload's set-up and one
unit, both from that checkout's `perfbench/workloads.py` and `src/`, with
one BLAS thread as the benchmark uses, and prints the sha256 of the
unit's fingerprint (of its `repr`, which spells every float exactly). It
times nothing: the unit's stopwatch reads 0.

Then, per `--seed`, a child in the same way runs `ovml gradcheck --seed
<seed>` from that checkout's `src/`, and the script prints the sha256 of
its standard output.

Each line reads `<workload> seed <seed> <sha256>`, and the gradient
suite's `ovml-gradcheck seed <seed> <sha256>`. With `--base DIR` the same
children run in that checkout too, and each line ends in `equal`, or in
`differs` and the base's sha256; any difference ends the script with exit
code 1. A child that exits non-zero (a failing gradient suite included)
ends it with exit code 1 as well, after printing its checkout and the
last lines of its standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
from pathlib import Path

HEAD = Path(__file__).resolve().parent.parent
STDERR_LINES = 10  # how many of a failed child's last stderr lines are printed
GRADCHECK = "ovml-gradcheck"  # the gradient suite's name on its lines

# the start of every child, run in a checkout's root: one BLAS thread, set before numpy is
# first imported, as perfbench/run.py does, and that checkout's sources first on the path
PRELUDE = """
import os, sys
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = "1"
sys.path[:0] = [os.path.abspath("src"), os.path.abspath("perfbench")]
"""

# `python -c UNIT_CHILD <workload> <seed>`: prints the digest of one unit's fingerprint
UNIT_CHILD = PRELUDE + """
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

# `python -c GRADCHECK_CHILD <seed>`: `ovml gradcheck --seed <seed>`
GRADCHECK_CHILD = PRELUDE + """
from ovml.cli import main
sys.exit(main(["gradcheck", "--seed", sys.argv[1]]))
"""


def _child(checkout: Path, code: str, *args: str) -> str:
    """The standard output of `code` run in `checkout`; CalledProcessError when it exits non-zero."""
    cmd = [sys.executable, "-B", "-c", code, *args]  # -B: no bytecode written
    return subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=True).stdout


def fingerprint(checkout: Path, workload: str, seed: int) -> str:
    """The sha256 of one unit's fingerprint in `checkout`."""
    return _child(checkout, UNIT_CHILD, workload, str(seed)).strip()


def gradcheck_digest(checkout: Path, seed: int) -> str:
    """The sha256 of `ovml gradcheck --seed <seed>`'s standard output in `checkout`."""
    return hashlib.sha256(_child(checkout, GRADCHECK_CHILD, str(seed)).encode()).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--base", type=Path, help="a checkout whose fingerprints must be equal")
    parser.add_argument("--seed", type=int, action="append", required=True, help="repeatable")
    args = parser.parse_args(argv)

    workloads = [w["name"] for w in json.loads((HEAD / "BENCHMARK.json").read_text())["workloads"]]
    digests = [(w, lambda checkout, seed, w=w: fingerprint(checkout, w, seed)) for w in workloads]
    digests.append((GRADCHECK, gradcheck_digest))
    differs = False
    for name, digest in digests:
        for seed in args.seed:
            sides = {}
            for side, checkout in (("head", HEAD), ("base", args.base)):
                if checkout is None:
                    continue
                try:
                    sides[side] = digest(checkout, seed)
                except subprocess.CalledProcessError as e:
                    print(f"fingerprints: {name} seed {seed} in {checkout} exited {e.returncode}; "
                          "the last lines of its stderr:", file=sys.stderr)
                    for line in (e.stderr or "").splitlines()[-STDERR_LINES:]:
                        print(f"  {line}", file=sys.stderr)
                    return 1
            line = f"{name} seed {seed} {sides['head']}"
            if "base" in sides:
                same = sides["base"] == sides["head"]
                differs |= not same
                line += " equal" if same else f" differs {sides['base']}"
            print(line, flush=True)
    return int(differs)


if __name__ == "__main__":
    sys.exit(main())
