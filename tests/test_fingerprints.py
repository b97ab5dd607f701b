"""scripts/fingerprints.py's lines and exit codes on stubbed child runs, and its child on a canned checkout."""

import hashlib
import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "fingerprints.py"
_spec = importlib.util.spec_from_file_location("fingerprints", SCRIPT)
fingerprints = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(fingerprints)

WORKLOADS = [w["name"] for w in json.loads((fingerprints.HEAD / "BENCHMARK.json").read_text())["workloads"]]


def _stub(monkeypatch, digest):
    """Replace the child runs: `digest(side, workload, seed)` is each one's output."""
    calls = []

    def fingerprint(checkout, workload, seed):
        side = "head" if checkout == fingerprints.HEAD else "base"
        calls.append((side, workload, seed))
        return digest(side, workload, seed)

    monkeypatch.setattr(fingerprints, "fingerprint", fingerprint)
    return calls


def test_without_base_one_line_per_workload_and_seed(monkeypatch, capsys):
    calls = _stub(monkeypatch, lambda side, workload, seed: f"{workload}-{seed}")
    assert fingerprints.main(["--seed", "0", "--seed", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"{w} seed {s} {w}-{s}" for w in WORKLOADS for s in (0, 3)
    ]
    assert {side for side, _, _ in calls} == {"head"}


def test_equal_base_reads_equal_and_exits_zero(monkeypatch, capsys, tmp_path):
    calls = _stub(monkeypatch, lambda side, workload, seed: f"{workload}-{seed}")
    assert fingerprints.main(["--base", str(tmp_path), "--seed", "1"]) == 0
    assert capsys.readouterr().out.splitlines() == [f"{w} seed 1 {w}-1 equal" for w in WORKLOADS]
    assert calls == [(side, w, 1) for w in WORKLOADS for side in ("head", "base")]


def test_a_difference_reads_differs_with_the_base_digest_and_exits_one(monkeypatch, capsys, tmp_path):
    moved = (WORKLOADS[1], 1)

    def digest(side, workload, seed):
        return "b" if side == "base" and (workload, seed) == moved else "a"

    _stub(monkeypatch, digest)
    assert fingerprints.main(["--base", str(tmp_path), "--seed", "0", "--seed", "1"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 2 * len(WORKLOADS)  # every workload still runs
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
