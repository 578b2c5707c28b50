"""The fork-join helper: results in part order, a plain loop on one CPU,
and no child process left behind on any path."""

import os
import pickle
import time

import pytest

from jonq import _fork


@pytest.fixture
def cpus(monkeypatch):
    """Set the helper's usable CPU count."""
    def set_count(count):
        monkeypatch.setattr(_fork, "usable_cpus", lambda: count)

    return set_count


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def where(part):
    return part, os.getpid()


@pytest.mark.parametrize("count", [2, 3, 4])
def test_parts_after_the_first_run_in_children(cpus, count):
    cpus(count)
    got = _fork.fork_map(where, range(count))
    assert [part for part, _ in got] == list(range(count))
    pids = [pid for _, pid in got]
    assert pids[0] == os.getpid()
    assert len(set(pids)) == count
    assert_no_child_left()


def test_one_cpu_is_a_plain_loop(cpus):
    cpus(1)
    assert _fork.fork_map(where, range(3)) == [(i, os.getpid()) for i in range(3)]


def test_platform_without_affinity_is_one_cpu(monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _fork.usable_cpus() == 1


@pytest.mark.parametrize("total,smallest,count,want", [
    (10, 5, 2, [(0, 5), (5, 10)]),
    (11, 5, 2, [(0, 5), (5, 11)]),
    (9, 5, 2, [(0, 9)]),
    (10, 5, 3, [(0, 5), (5, 10)]),
    (15, 5, 3, [(0, 5), (5, 10), (10, 15)]),
    (449, 2, 3, [(0, 149), (149, 299), (299, 449)]),
    (10, 5, 1, [(0, 10)]),
    (0, 5, 2, [(0, 0)]),
])
def test_ranges(cpus, total, smallest, count, want):
    cpus(count)
    assert _fork.ranges(total, smallest) == want


def test_child_closes_stdin_and_stdout(cpus):
    cpus(2)

    def open_fds(part):
        fds = []
        for fd in (0, 1):
            try:
                os.fstat(fd)
                fds.append(fd)
            except OSError:
                pass
        return fds

    _, child_fds = _fork.fork_map(open_fds, [0, 1])
    assert child_fds == []
    assert_no_child_left()


def test_failed_child_is_recomputed(cpus):
    cpus(3)
    parent = os.getpid()

    def fail_in_child(part):
        if os.getpid() != parent and part == 1:
            raise RuntimeError("child")
        return part * part

    assert _fork.fork_map(fail_in_child, range(3)) == [0, 1, 4]
    assert_no_child_left()


def test_child_that_exits_nonzero_is_recomputed(cpus):
    cpus(2)
    parent = os.getpid()

    def exit_in_child(part):
        if os.getpid() != parent:
            os._exit(7)
        return -part

    assert _fork.fork_map(exit_in_child, [0, 5]) == [0, -5]
    assert_no_child_left()


def test_short_pickle_is_recomputed(cpus, monkeypatch):
    cpus(2)

    def dump_short(obj, file, protocol=None):
        file.write(pickle.dumps(obj, protocol)[:-3])

    monkeypatch.setattr(pickle, "dump", dump_short)
    assert _fork.fork_map(lambda part: [part] * 1000, [0, 1]) == [[0] * 1000, [1] * 1000]
    assert_no_child_left()


def test_child_never_returns_into_the_caller(cpus, tmp_path):
    # SystemExit ends the child in the helper; a child that unwound into
    # this test would write its pid to the log too
    cpus(2)
    parent = os.getpid()
    log = tmp_path / "pids"

    def leave_in_child(part):
        if os.getpid() != parent:
            raise SystemExit(0)
        return part

    assert _fork.fork_map(leave_in_child, [0, 1]) == [0, 1]
    with open(log, "a") as fh:
        fh.write(f"{os.getpid()}\n")
    assert log.read_text() == f"{parent}\n"
    assert_no_child_left()


def test_exception_in_the_parents_part_propagates(cpus):
    cpus(3)

    def fail_first(part):
        if part == 0:
            raise KeyError("first")
        return part

    with pytest.raises(KeyError, match="first"):
        _fork.fork_map(fail_first, range(3))
    assert_no_child_left()


def test_interrupt_kills_the_children(cpus):
    # the children would sleep a minute: they are killed, not waited for
    cpus(2)

    def interrupt_first(part):
        if part == 0:
            raise KeyboardInterrupt
        time.sleep(60)
        return part

    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        _fork.fork_map(interrupt_first, [0, 1])
    assert time.monotonic() - start < 30
    assert_no_child_left()


def test_failed_fork_runs_the_part_here(cpus, monkeypatch):
    cpus(2)

    def no_fork():
        raise BlockingIOError("no process")

    monkeypatch.setattr(os, "fork", no_fork)
    assert _fork.fork_map(where, [0, 1]) == [(0, os.getpid()), (1, os.getpid())]
