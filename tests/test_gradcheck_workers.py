"""`run_suite` runs its checks in forked workers, one per usable CPU: its
rows equal a serial loop's bit for bit and in `CHECKS` order, one usable
CPU forks nothing, a maker's exception surfaces as in a serial run, with
the worker's traceback as its cause, and no worker outlives the call.
"""

import os

import pytest

from ovml import gradcheck
from ovml.autodiff import finite_difference_check
from ovml.gradcheck import CHECKS, run_suite
from ovml.seeds import substream


def _usable_cpus(monkeypatch, n: int) -> None:
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)


def _counting_forks(monkeypatch) -> list[int]:
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _assert_no_child_left() -> None:
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _serial_rows(instances: int, seed: int) -> list[tuple]:
    rows = []
    for name, maker in CHECKS:
        rng = substream(seed, f"gradcheck.{name}")
        worst = 0.0
        for _ in range(instances):
            worst = max(worst, finite_difference_check(*maker(rng)))
        rows.append((name, instances, float(worst).hex(), True))
    return rows


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("instances", [1, 2])
def test_forked_rows_equal_a_serial_loop_bit_for_bit(monkeypatch, seed, instances):
    expected = _serial_rows(instances, seed)
    _usable_cpus(monkeypatch, 2)
    forks = _counting_forks(monkeypatch)
    rows = run_suite(instances=instances, seed=seed)
    assert len(forks) == 2
    assert [(r.name, r.instances, float(r.worst).hex(), r.ok) for r in rows] == expected
    _assert_no_child_left()


@pytest.mark.parametrize("host", ["one_cpu", "no_fork"])
def test_one_usable_cpu_or_no_fork_runs_in_process(monkeypatch, host):
    if host == "one_cpu":
        _usable_cpus(monkeypatch, 1)

        def fork():
            raise AssertionError("forked with one usable CPU")

        monkeypatch.setattr(os, "fork", fork)
    else:
        _usable_cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
    assert [r.name for r in run_suite(instances=1)] == [name for name, _ in CHECKS]


def _raising(message: str):
    def maker(rng):
        raise ValueError(message)
    return maker


def test_a_raising_maker_surfaces_as_in_a_serial_run(monkeypatch):
    # index 3 runs first (costliest first), but index 1 fails first in CHECKS order
    real = dict(CHECKS)
    checks = [("matmul", real["matmul"]), ("first", _raising("first failure")), ("gelu", real["gelu"]),
              ("second", _raising("second failure"))]
    monkeypatch.setattr(gradcheck, "CHECKS", checks)
    raised = {}
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        with pytest.raises(Exception) as caught:
            run_suite(instances=1)
        raised[cpus] = caught.value
        _assert_no_child_left()
    assert [(type(e), str(e)) for e in raised.values()] == [(ValueError, "first failure")] * 2
    assert raised[1].__cause__ is None
    # the worker's frames, lost in the pickled copy, arrive as its cause
    remote = str(raised[2].__cause__)
    assert remote.startswith("in a gradient suite worker:\nTraceback (most recent call last):\n")
    assert "in maker\n    raise ValueError(message)\n" in remote
    assert remote.endswith("\nValueError: first failure\n")


def test_a_worker_that_dies_is_reported_by_its_check(monkeypatch):
    def dies(rng):
        os._exit(3)

    monkeypatch.setattr(gradcheck, "CHECKS", [("matmul", dict(CHECKS)["matmul"]), ("dies", dies)])
    _usable_cpus(monkeypatch, 2)
    with pytest.raises(RuntimeError, match="^gradient suite worker stopped before reporting check dies$"):
        run_suite(instances=1)
    _assert_no_child_left()
