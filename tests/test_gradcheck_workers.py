"""`run_suite` runs its checks in two forked workers wherever two CPUs or
more are usable, and the caller runs every check they did not finish: its
rows equal a serial loop's bit for bit and in `CHECKS` order, one usable
CPU forks nothing, a maker's exception raises in the caller exactly as in
a serial run, a worker that dies or cannot be started leaves its checks to
the caller, and no worker outlives the call.
"""

import errno
import os
import traceback

import pytest

from ovml import cli, gradcheck
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


def _serial_rows(instances: int, seed: int, checks=CHECKS) -> list[tuple]:
    rows = []
    for name, maker in checks:
        rng = substream(seed, f"gradcheck.{name}")
        worst = 0.0
        for _ in range(instances):
            worst = max(worst, finite_difference_check(*maker(rng)))
        rows.append((name, instances, float(worst).hex(), True))
    return rows


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("instances", [1, 2])
@pytest.mark.parametrize("cpus", [2, 20])
def test_forked_rows_equal_a_serial_loop_bit_for_bit(monkeypatch, seed, instances, cpus):
    expected = _serial_rows(instances, seed)
    _usable_cpus(monkeypatch, cpus)
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
    for e in raised.values():
        assert e.__cause__ is None
        assert traceback.extract_tb(e.__traceback__)[-1].name == "maker"


class Odd(Exception):
    def __init__(self, a, b):
        super().__init__(f"odd {a} {b}")


def _carrying_a_lambda() -> ValueError:
    e = ValueError("carries a lambda")
    e.hook = lambda: None
    return e


@pytest.mark.parametrize("error", [lambda: Odd(1, 2), _carrying_a_lambda], ids=["two_argument_init", "lambda_attribute"])
def test_an_exception_that_cannot_cross_a_pipe_raises_as_in_a_serial_run(monkeypatch, error):
    def maker(rng):
        raise error()

    monkeypatch.setattr(gradcheck, "CHECKS", [("matmul", dict(CHECKS)["matmul"]), ("raises", maker)])
    raised = {}
    for cpus in (1, 2):
        _usable_cpus(monkeypatch, cpus)
        with pytest.raises(Exception) as caught:
            run_suite(instances=1)
        raised[cpus] = caught.value
        _assert_no_child_left()
    assert type(raised[2]) is type(raised[1]) and str(raised[2]) == str(raised[1])
    assert raised[2].__cause__ is None


def test_a_check_whose_worker_dies_runs_in_the_caller(monkeypatch):
    caller, real = os.getpid(), dict(CHECKS)

    def dies_in_a_worker(rng):
        if os.getpid() != caller:
            os._exit(3)
        return real["matmul"](rng)

    checks = [("matmul", real["matmul"]), ("dies", dies_in_a_worker), ("gelu", real["gelu"])]
    monkeypatch.setattr(gradcheck, "CHECKS", checks)
    _usable_cpus(monkeypatch, 2)
    forks = _counting_forks(monkeypatch)
    rows = run_suite(instances=2)
    assert len(forks) == 2
    assert [(r.name, r.instances, float(r.worst).hex(), r.ok) for r in rows] == _serial_rows(2, 0, checks)
    _assert_no_child_left()


def _failing(monkeypatch, name: str, call: int, code: int) -> None:
    """`os.<name>` raises its OSError on the `call`-th call only."""
    real, calls = getattr(os, name), []

    def failing(*args):
        calls.append(args)
        if len(calls) == call:
            raise OSError(code, os.strerror(code))
        return real(*args)

    monkeypatch.setattr(os, name, failing)


def _open_fds() -> list[str]:
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else []


# the third pipe is the second worker's; the first is the task queue
FAILURES = [("fork", 1, errno.EAGAIN), ("fork", 2, errno.EAGAIN), ("pipe", 1, errno.EMFILE),
            ("pipe", 2, errno.EMFILE), ("pipe", 3, errno.EMFILE)]


@pytest.mark.parametrize("name,call,code", FAILURES, ids=[f"{n}{c}" for n, c, _ in FAILURES])
def test_a_failing_pipe_or_fork_leaves_its_checks_to_the_caller(monkeypatch, name, call, code):
    expected = _serial_rows(1, 0)
    _usable_cpus(monkeypatch, 2)
    _failing(monkeypatch, name, call, code)
    fds = _open_fds()
    rows = run_suite(instances=1)
    assert [(r.name, r.instances, float(r.worst).hex(), r.ok) for r in rows] == expected
    assert _open_fds() == fds
    _assert_no_child_left()


@pytest.mark.parametrize("call", [1, 2])
def test_gradcheck_exits_0_with_the_serial_stdout_when_a_fork_fails(monkeypatch, capsys, call):
    # the single-op checks: the command's path, not the suite's length, is under test
    monkeypatch.setattr(gradcheck, "CHECKS", CHECKS[:11])
    _usable_cpus(monkeypatch, 1)
    assert cli.main(["gradcheck"]) == 0
    serial = capsys.readouterr()
    _usable_cpus(monkeypatch, 2)
    _failing(monkeypatch, "fork", call, errno.EAGAIN)
    assert cli.main(["gradcheck"]) == 0
    assert capsys.readouterr() == serial
    _assert_no_child_left()
