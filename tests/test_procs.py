"""The forked child behind the hashing child and the row workers.

A child sends back what its function returns or raises, errors exact in
type, message and attributes; where it cannot start or ends without a
result, its caller learns so and does the work itself. No child outlives its
``close`` (conftest checks that after every test).
"""

import os
import select
import time

import pytest

from conftest import fail_call
from hieval.errors import NonFiniteValue, ParseError, UnknownLeaf
from hieval.procs import Child


def named(e: Exception, prefix: str) -> Exception:
    e.args = (f"{prefix}: {e}",)  # as the commands name a row fault's file
    e.extra = [1, 2]
    return e


def same_error(got, want) -> bool:
    return (type(got), got.args, vars(got)) == (type(want), want.args, vars(want))


def test_a_returned_value_comes_back_with_every_error_in_it_exact():
    child = Child(lambda: {"ok": (1, "two"), "faults": [named(NonFiniteValue(5, 3), "f.hies"),
                                                         UnknownLeaf("labels.txt", "x", 4)]})
    try:
        value = child.result()
    finally:
        child.close()
    assert value["ok"] == (1, "two")
    fault, leaf = value["faults"]
    assert same_error(fault, named(NonFiniteValue(5, 3), "f.hies"))
    assert str(fault) == "f.hies: non-finite value at row 5, column 3"
    assert (fault.row, fault.col) == (5, 3)
    assert same_error(leaf, UnknownLeaf("labels.txt", "x", 4))
    assert (str(leaf), leaf.name, leaf.line) == ("labels.txt:4: 'x' is not a leaf class", "x", 4)


@pytest.mark.parametrize("error", [named(NonFiniteValue(7, 0), "a.csv"), ParseError("cannot read x")],
                         ids=["non-message-init", "message-init"])
def test_a_raised_error_is_raised_here_exact(error):
    def fail():
        raise error

    child = Child(fail)
    try:
        with pytest.raises(type(error)) as exc:
            child.result()
    finally:
        child.close()
    assert same_error(exc.value, error)


@pytest.mark.parametrize("name", ["pipe", "fork"])
def test_a_child_that_cannot_start_has_pid_0_and_leaves_no_descriptor_open(monkeypatch, name):
    fds = len(os.listdir("/proc/self/fd"))
    calls = fail_call(monkeypatch, name, 1)
    child = Child(lambda: pytest.fail("ran"))
    assert calls == [name]
    assert child.pid == 0
    assert len(os.listdir("/proc/self/fd")) == fds
    with pytest.raises(EOFError):
        child.result()
    child.close()


def test_a_child_that_ends_before_sending_gives_eof_error():
    child = Child(lambda: os._exit(0))
    try:
        with pytest.raises(EOFError):
            child.result()
    finally:
        child.close()


def test_a_child_killed_mid_send_gives_eof_error():
    # 1 MiB fills the pipe, so the child is still sending when it is killed.
    child = Child(lambda: b"x" * (1 << 20))
    try:
        assert select.select([child._pipe], [], [], 30)[0]
        os.kill(child.pid, 9)
        with pytest.raises(EOFError):
            child.result()
    finally:
        child.close()


def test_close_kills_and_reaps_a_sleeping_child():
    child = Child(lambda: time.sleep(60))
    begun = time.perf_counter()
    child.close()
    assert time.perf_counter() - begun < 30
    assert child.pid == 0
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    child.close()  # a second close does nothing
