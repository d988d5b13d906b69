"""The forked child behind the hashing child and the row workers.

A child sends back what its function returns and nothing else: where it
cannot start, ends first or its function raises, its caller gets EOFError
and does the work itself. No child outlives its ``close`` (conftest checks
that after every test).
"""

import os
import select
import time

import pytest

from conftest import fail_call
from hieval.errors import NonFiniteValue, ParseError
from hieval.procs import Child


def test_a_returned_value_comes_back():
    child = Child(lambda: {"ok": (1, "two"), "rows": list(range(5))})
    try:
        assert child.result() == {"ok": (1, "two"), "rows": list(range(5))}
    finally:
        child.close()


def raising(error: Exception):
    def fail():
        raise error

    return fail


@pytest.mark.parametrize("fn", [raising(NonFiniteValue(7, 0)), raising(ParseError("cannot read x")),
                                lambda: [1, lambda: 2]],
                         ids=["raises-non-message-init", "raises-message-init", "unpicklable-value"])
def test_a_child_without_a_value_to_send_sends_nothing(fn):
    fds = len(os.listdir("/proc/self/fd"))
    child = Child(fn)
    try:
        with pytest.raises(EOFError):
            child.result()
    finally:
        child.close()
    assert len(os.listdir("/proc/self/fd")) == fds


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
