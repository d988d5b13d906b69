"""The one child-process primitive, behind the input hasher and the row workers.

A child sends back bytes and nothing else: where it cannot start, ends first,
exits non-zero or its function raises, its caller gets EOFError and does the
work itself. No child outlives its ``close`` (conftest checks that after every
test).
"""

import ast
import os
import pickle
import select
import sys
import time
from pathlib import Path

import pytest

import hieval
from conftest import fail_call
from hieval.errors import InputError
from hieval.procs import Child


def test_only_procs_starts_kills_or_reaps_a_process():
    src = Path(hieval.__file__).parent
    calls = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "os"
                    and node.attr in ("fork", "posix_spawn", "kill", "waitpid")):
                calls.setdefault(path.name, set()).add(node.attr)
    assert calls == {"procs.py": {"fork", "posix_spawn", "kill", "waitpid"}}


def test_a_returned_value_comes_back():
    # 256 KiB fill the pipe several times over before the child's write returns.
    sent = bytes(range(256)) * 1024
    child = Child(lambda: sent)
    try:
        assert child.result() == sent
    finally:
        child.close()


def test_a_spawned_programs_stdout_comes_back_as_bytes():
    # Its stderr goes to /dev/null, not to this process's.
    child = Child(argv=[sys.executable, "-I", "-S", "-c",
                        "import sys; sys.stdout.buffer.write(sys.argv[1].encode() + b'\\xff');"
                        "print('not here', file=sys.stderr)", "sent"])
    try:
        assert child.result() == b"sent\xff"
    finally:
        child.close()


def raising(error: Exception):
    def fail():
        raise error

    return fail


@pytest.mark.parametrize("fn", [raising(UnicodeDecodeError("utf-8", b"\xff", 0, 1, "bad byte")),
                                raising(InputError("cannot read x")),
                                lambda: pickle.dumps([1, lambda: 2])],
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


# The interpreter's path (argv[0]) is empty where it cannot tell it: there is nothing to spawn.
@pytest.mark.parametrize("name", ["pipe", "fork", "posix_spawn", "empty-argv0"])
def test_a_child_that_cannot_start_has_pid_0_and_leaves_no_descriptor_open(monkeypatch, name):
    fds = len(os.listdir("/proc/self/fd"))
    calls = [] if name == "empty-argv0" else fail_call(monkeypatch, name, 1)
    if name in ("pipe", "fork"):
        child = Child(lambda: pytest.fail("ran"))
    else:
        child = Child(argv=["" if name == "empty-argv0" else sys.executable, "-c", "print(1)"])
    assert calls == [name] * (name != "empty-argv0")
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


def test_a_program_that_sends_and_then_exits_non_zero_gives_eof_error():
    child = Child(argv=[sys.executable, "-I", "-S", "-c", "print('sent'); raise SystemExit(3)"])
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
