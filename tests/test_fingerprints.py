"""scripts/fingerprints.py's lines and exit codes on stubbed child runs, and its children on canned checkouts."""

import hashlib
import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fingerprints.py"
_spec = importlib.util.spec_from_file_location("fingerprints", SCRIPT)
fingerprints = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprints)

WORKLOADS = [w["name"] for w in json.loads((fingerprints.HEAD / "BENCHMARK.json").read_text())["workloads"]]
NAMES = [*WORKLOADS, fingerprints.GRADCHECK]  # the lines' names, in their order


def _stub(monkeypatch, digest):
    """Replace the child runs: `digest(side, name, seed)` is each one's output, `name` a workload
    or fingerprints.GRADCHECK."""
    calls = []

    def run(checkout, name, seed):
        side = "head" if checkout == fingerprints.HEAD else "base"
        calls.append((side, name, seed))
        return digest(side, name, seed)

    monkeypatch.setattr(fingerprints, "fingerprint", run)
    monkeypatch.setattr(fingerprints, "gradcheck_digest", lambda checkout, seed: run(checkout, fingerprints.GRADCHECK, seed))
    return calls


def test_without_base_one_line_per_workload_and_seed(monkeypatch, capsys):
    calls = _stub(monkeypatch, lambda side, name, seed: f"{name}-{seed}")
    assert fingerprints.main(["--seed", "0", "--seed", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{w} seed {s} {w}-{s}" for w in NAMES for s in (0, 3)
    ]
    assert {side for side, _, _ in calls} == {"head"}


def test_equal_base_reads_equal_and_exits_zero(monkeypatch, capsys, tmp_path):
    calls = _stub(monkeypatch, lambda side, name, seed: f"{name}-{seed}")
    assert fingerprints.main(["--base", str(tmp_path), "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{w} seed 1 {w}-1 equal" for w in NAMES]
    assert calls == [(side, w, 1) for w in NAMES for side in ("head", "base")]


def test_a_difference_reads_differs_with_the_base_digest_and_exits_one(monkeypatch, capsys, tmp_path):
    moved = (WORKLOADS[1], 1)

    def digest(side, workload, seed):
        return "b" if side == "base" and (workload, seed) == moved else "a"

    _stub(monkeypatch, digest)
    assert fingerprints.main(["--base", str(tmp_path), "--seed", "0", "--seed", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 * len(NAMES)  # every workload and the gradient suite still run
    assert out[3] == f"{WORKLOADS[1]} seed 1 a differs b"
    assert [line.split()[-1] for i, line in enumerate(out) if i != 3] == ["equal"] * (len(out) - 1)


def _canned_checkout(root: Path, unit_body: str) -> Path:
    """A checkout whose perfbench/workloads.py holds one workload, `w`."""
    (root / "src").mkdir()
    (root / "perfbench").mkdir()
    (root / "perfbench" / "workloads.py").write_text(
        "import os\n"
        "from types import SimpleNamespace\n\n"
        "class W:\n"
        "    def setup(self, seed, work):\n"
        "        return {'seed': seed, 'work': work}\n\n"
        "    def unit(self, state, work, sw):\n"
        "        sw.start()\n"
        f"        {unit_body}\n\n"
        "WORKLOADS = {'w': W()}\n"
    )
    return root


def test_the_child_hashes_the_units_fingerprint_repr(tmp_path):
    checkout = _canned_checkout(
        tmp_path,
        "return SimpleNamespace(fingerprint=(state['seed'], 0.1, os.environ['OPENBLAS_NUM_THREADS'], sw.lap(),"
        " work.parent.exists()))",
    )
    want = hashlib.sha256(repr((7, 0.1, "1", 0.0, True)).encode()).hexdigest()
    assert fingerprints.fingerprint(checkout, "w", 7) == want
    assert sorted(p.name for p in checkout.iterdir()) == ["perfbench", "src"]  # its work directory is gone


def test_a_failed_child_names_its_workload_and_checkout_and_exits_one(monkeypatch, capsys, tmp_path):
    checkout = _canned_checkout(tmp_path, "raise RuntimeError('unit broke')")
    real = fingerprints.fingerprint
    # the head's children run in the canned checkout
    monkeypatch.setattr(fingerprints, "fingerprint", lambda c, workload, seed: real(checkout, "w", seed))
    assert fingerprints.main(["--seed", "0", "--seed", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == ""  # the first child fails, and no further one runs
    lines = err.splitlines()
    assert lines[0] == f"fingerprints: {WORKLOADS[0]} seed 0 in {fingerprints.HEAD} exited 1; the last lines of its stderr:"
    assert lines[-1] == "  RuntimeError: unit broke"


def test_a_gradcheck_difference_alone_reads_differs_and_exits_one(monkeypatch, capsys, tmp_path):
    _stub(monkeypatch, lambda side, name, seed: "b" if side == "base" and name == fingerprints.GRADCHECK else "a")
    assert fingerprints.main(["--base", str(tmp_path), "--seed", "2"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out == [f"{w} seed 2 a equal" for w in WORKLOADS] + [f"{fingerprints.GRADCHECK} seed 2 a differs b"]


def test_the_gradcheck_child_hashes_the_suites_stdout_with_one_blas_thread(tmp_path):
    # a checkout whose `ovml gradcheck` prints its argv and BLAS thread count
    (tmp_path / "src" / "ovml").mkdir(parents=True)
    (tmp_path / "src" / "ovml" / "__init__.py").write_text("")
    (tmp_path / "src" / "ovml" / "cli.py").write_text(
        "import os\n\n"
        "def main(argv):\n"
        "    print(argv, os.environ['OPENBLAS_NUM_THREADS'])\n"
        "    return 0\n"
    )
    want = hashlib.sha256(f"{['gradcheck', '--seed', '5']} 1\n".encode()).hexdigest()
    assert fingerprints.gradcheck_digest(tmp_path, 5) == want
    assert not list(tmp_path.rglob("__pycache__"))  # a -B child writes no bytecode


def test_a_failing_gradient_suite_exits_one_with_its_stderr(monkeypatch, capsys, tmp_path):
    (tmp_path / "src" / "ovml").mkdir(parents=True)
    (tmp_path / "src" / "ovml" / "__init__.py").write_text("")
    (tmp_path / "src" / "ovml" / "cli.py").write_text(
        "import sys\n\n"
        "def main(argv):\n"
        "    print('gradient suite: FAILURES present')\n"
        "    print('a check failed', file=sys.stderr)\n"
        "    return 2\n"
    )
    real = fingerprints.gradcheck_digest
    _stub(monkeypatch, lambda side, name, seed: "a")
    monkeypatch.setattr(fingerprints, "gradcheck_digest", lambda checkout, seed: real(tmp_path, seed))
    assert fingerprints.main(["--seed", "0"]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [f"{w} seed 0 a" for w in WORKLOADS]
    assert err.splitlines() == [
        f"fingerprints: {fingerprints.GRADCHECK} seed 0 in {fingerprints.HEAD} exited 2; the last lines of its stderr:",
        "  a check failed",
    ]
