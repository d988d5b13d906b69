"""The sha256 digests that eval and compare reports echo for their inputs.

When a run may use more than one process, a hasher spawned as a fresh
``python -I -S`` computes them, so the calling process forks nothing before
numpy loads and never loads OpenSSL. Reports, the first fault and its exit
code must be the same whether it ran, failed to start, or sent no digest of
each input; no hasher outlives its command (conftest checks that after every
test).
"""

import hashlib
import json
import os
import subprocess
import sys

import pytest

from conftest import (SEVEN_NODE_PARENTS, SEVEN_NODE_LEAVES, count_forks, entry_point_env,
                      fail_call)
from hieval import hashing
from hieval.cli import run

N_ROWS = 60


@pytest.fixture
def inputs(tmp_path):
    """Text inputs on the four-leaf fixture; ``inputs(fine_row=..., label=...)`` poisons one row.

    The fine file has comment lines and no final newline, and the coarse file
    is given twice: as ``--coarse`` and as ``--level 1``.
    """
    nodes = [{"name": c, "parent": p} for c, p in SEVEN_NODE_PARENTS.items()]
    (tmp_path / "hierarchy.json").write_text(
        json.dumps({"nodes": nodes, "leaf_order": SEVEN_NODE_LEAVES}))
    (tmp_path / "coarse.csv").write_text("# kind: probabilities\nflower,vehicle\n"
                                         + "0.25,0.75\n0.5,0.5\n" * (N_ROWS // 2))
    (tmp_path / "preds.txt").write_text("car\nrose\n" * (N_ROWS // 2))

    def write(fine_row="0.4,0.1,0.35,0.15", label="bus"):
        rows = ["0.1,0.2,0.3,0.4"] * (N_ROWS - 1) + [fine_row]
        (tmp_path / "fine.csv").write_text(
            "# kind: probabilities\n# exported by hand\nrose,tulip,bus,car\n" + "\n".join(rows))
        (tmp_path / "labels.txt").write_text("bus\ntulip\n" * (N_ROWS // 2 - 1) + f"car\n{label}\n")
        return ["--hierarchy", str(tmp_path / "hierarchy.json"), "--fine", str(tmp_path / "fine.csv"),
                "--coarse", str(tmp_path / "coarse.csv"), "--level", f"1={tmp_path / 'coarse.csv'}",
                "--labels", str(tmp_path / "labels.txt")]

    return write


def commands(base, out) -> list:
    """A compare that reads every input, and an eval of a predictions file (which takes
    only the hierarchy and the labels besides)."""
    return [["compare", *base, "--methods", "argmax,hie,cascade", "--k", "1,2",
             "--out", str(out / "table.json")],
            ["eval", *base[:2], *base[-2:], "--preds", str(out.parent / "preds.txt"), "--k", "1",
             "--out", str(out / "report.json")]]


def sha256(path) -> str:
    with open(path, "rb") as f:
        return "sha256:" + hashlib.sha256(f.read()).hexdigest()


def echoed(out) -> list:
    """Each report's ``config.inputs`` from both commands' outputs."""
    table = json.loads((out / "table.json").read_text())["reports"]
    return [r["config"]["inputs"] for r in table + [json.loads((out / "report.json").read_text())]]


def expected(tmp_path) -> list:
    roles = {role: sha256(tmp_path / name) for role, name in [
        ("hierarchy", "hierarchy.json"), ("fine", "fine.csv"), ("coarse", "coarse.csv"),
        ("labels", "labels.txt"), ("level1", "coarse.csv")]}
    preds = {role: roles[role] for role in ("hierarchy", "labels")}
    return [roles] * 3 + [{**preds, "preds": sha256(tmp_path / "preds.txt")}]


@pytest.mark.parametrize("workers", [1, 2])
def test_each_echoed_digest_is_the_sha256_of_the_file(inputs, tmp_path, monkeypatch, capsys,
                                                      workers):
    out = tmp_path / "out"
    out.mkdir()
    forks = count_forks(monkeypatch)
    if workers > 1:  # the hasher's digests, not this process's
        monkeypatch.setattr(hashing, "sha256_digest", lambda path: pytest.fail(f"hashed {path}"))
    for argv in commands(inputs(), out):
        assert run(argv, workers=workers) == 0
    capsys.readouterr()
    assert forks == ["spawn"] * 2 * (workers > 1)
    assert echoed(out) == expected(tmp_path)


def test_one_process_hashes_a_file_given_under_two_roles_once(inputs, tmp_path, monkeypatch,
                                                              capsys):
    # The coarse file is --coarse and --level 1.
    hashed = []
    monkeypatch.setattr(hashing, "sha256_digest", lambda path: hashed.append(path) or sha256(path))
    out = tmp_path / "out"
    out.mkdir()
    assert run(commands(inputs(), out)[0], workers=1) == 0
    capsys.readouterr()
    assert sorted(hashed) == sorted(str(tmp_path / name) for name in [
        "hierarchy.json", "fine.csv", "coarse.csv", "labels.txt"])
    table = json.loads((out / "table.json").read_text())["reports"]
    assert [r["config"]["inputs"] for r in table] == expected(tmp_path)[:3]


def test_each_echoed_digest_is_the_sha256_of_the_file_through_the_entry_point(inputs, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    for argv in commands(inputs(), out):
        done = subprocess.run([sys.executable, "-m", "hieval", *argv], env=entry_point_env(),
                              capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
    assert echoed(out) == expected(tmp_path)


def traced_compare(inputs, tmp_path) -> str:
    """What a two-worker compare prints, run by a wrapper that then prints its exit code,
    each child it started (how, and whether numpy was loaded by then) and the hashlib
    modules it loaded. 4-entry blocks, set once ``hieval.scores`` loads, put each row
    in a block of its own, so a row worker runs too."""
    out = tmp_path / "out"
    out.mkdir()
    [compare, _] = commands(inputs(), out)
    script = "\n".join([
        "import builtins, os, sys",
        "started, fork, spawn, load = [], os.fork, os.posix_spawn, builtins.__import__",
        "def forked():",
        "    started.append(('fork', 'numpy' in sys.modules))",
        "    return fork()",
        "def spawned(*args, **kwargs):",
        "    started.append(('spawn', 'numpy' in sys.modules))",
        "    return spawn(*args, **kwargs)",
        "def loaded(*args, **kwargs):",
        "    module = load(*args, **kwargs)",
        "    if 'hieval.scores' in sys.modules:",
        "        sys.modules['hieval.scores'].BLOCK_ENTRIES = 4",
        "    return module",
        "os.fork, os.posix_spawn, builtins.__import__ = forked, spawned, loaded",
        "from hieval import cli",
        "code = cli.run(sys.argv[1:], workers=2)",
        "print(code, started, sorted(m for m in sys.modules if 'hashlib' in m))",
    ])
    done = subprocess.run([sys.executable, "-c", script, *compare], env=entry_point_env(),
                          capture_output=True, text=True)
    assert done.stderr == ""
    table = json.loads((out / "table.json").read_text())["reports"]
    assert [r["config"]["inputs"] for r in table] == expected(tmp_path)[:3]
    return done.stdout


def test_the_caller_of_a_two_worker_compare_never_loads_hashlib(inputs, tmp_path):
    last = traced_compare(inputs, tmp_path).splitlines()[-1]
    assert last.startswith("0 ") and last.endswith(" []"), last


def test_a_two_worker_compare_forks_nothing_before_numpy_loads(inputs, tmp_path):
    # The hasher is spawned before numpy loads; the row worker is forked after it.
    printed = traced_compare(inputs, tmp_path)
    assert printed.endswith("0 [('spawn', False), ('fork', True)] []\n"), printed


@pytest.mark.parametrize("name", ["-fine.csv", os.fsdecode(b"fine-\xff.csv")],
                         ids=["leading-dash", "not-utf-8"])
def test_any_input_name_reaches_the_hasher_unchanged(inputs, tmp_path, monkeypatch, capsys, name):
    # Given relative to the working directory, so that the path itself starts with "-".
    base = inputs()
    (tmp_path / "fine.csv").rename(tmp_path / name)
    fine = base.index("--fine")
    base[fine:fine + 2] = [f"--fine={name}"]
    monkeypatch.chdir(tmp_path)
    echoes = []
    for workers in (1, 2):
        out = tmp_path / str(workers)
        out.mkdir()
        if workers > 1:  # the hasher's digests, not this process's
            monkeypatch.setattr(hashing, "sha256_digest", lambda path: pytest.fail(f"hashed {path}"))
        for argv in commands(base, out):
            assert run(argv, workers=workers) == 0
        echoes.append(echoed(out))
    capsys.readouterr()
    assert echoes[0] == echoes[1]
    assert echoes[0][0]["fine"] == sha256(tmp_path / name)


@pytest.mark.parametrize("poison, first", [
    ({"fine_row": "0.4,nan,0.35,0.15"},
     "InputError: {d}/fine.csv: non-finite value at row 59, column 1"),
    ({"label": "nope"}, "InputError: {d}/labels.txt:60: 'nope' is not a leaf class"),
    (None, "InputError: cannot read {d}/fine.csv: [Errno 2] No such file or directory: "),
], ids=["nan-row", "unknown-label", "unreadable-fine"])
def test_a_fault_before_the_echo_is_the_same_with_a_hasher(inputs, tmp_path, monkeypatch, capsys,
                                                          poison, first):
    base = inputs(**poison or {})
    out = tmp_path / "out"
    out.mkdir()
    compare, _ = commands(base, out)
    if poison:
        argvs = [compare, ["eval", *base, "--method", "hie", "--k", "1,2",
                           "--out", str(out / "report.json")]]
    else:  # met on open, before any row is read or any digest echoed
        os.remove(tmp_path / "fine.csv")
        argvs = [compare]
    forks = count_forks(monkeypatch)
    results = {w: [(run(argv, workers=w), capsys.readouterr().err) for argv in argvs]
               for w in (1, 2)}
    assert results[1] == results[2]
    assert forks == ["spawn"] * len(argvs)
    for code, err in results[1]:
        assert code == 2
        assert err.startswith(first.format(d=tmp_path)) and err.count("\n") == 1
    assert os.listdir(out) == []


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("command, flag", [(0, "--labels"), (0, "--level"), (1, "--preds")],
                         ids=["compare-labels", "compare-level", "eval-preds"])
def test_an_input_that_is_no_regular_file_is_refused_before_any_read(
    inputs, tmp_path, monkeypatch, capsys, workers, command, flag
):
    # A pipe's bytes go to one reader: the hasher would drain it before the command,
    # or the command before the hasher. Only stat is called, so the FIFO blocks nothing.
    out = tmp_path / "out"
    out.mkdir()
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    argv = commands(inputs(), out)[command]
    i = argv.index(flag) + 1
    argv[i] = f"1={fifo}" if flag == "--level" else str(fifo)
    forks = count_forks(monkeypatch)
    assert run(argv, workers=workers) == 2
    given = f"--level 1={fifo}" if flag == "--level" else f"{flag} {fifo}"
    assert capsys.readouterr().err == (f"InputError: {given} is not a regular file; {argv[0]} "
                                       "reads each input twice, to hash it and to use it\n")
    assert forks == [] and os.listdir(out) == []


@pytest.mark.parametrize("name", ["pipe", "posix_spawn"])
def test_a_hasher_that_cannot_start_leaves_the_hashing_here(inputs, tmp_path, monkeypatch, capsys,
                                                            name):
    base = inputs()
    outputs = {}
    for fail in (False, True):
        out = tmp_path / str(fail)
        out.mkdir()
        fds = len(os.listdir("/proc/self/fd"))
        for argv in commands(base, out):
            calls = fail_call(monkeypatch, name, 1) if fail else []
            assert run(argv, workers=2 if fail else 1) == 0
            assert calls[:1] == [name] * fail  # the hasher's, the first of the run
        assert len(os.listdir("/proc/self/fd")) == fds  # the pipe's ends are closed
        std = capsys.readouterr()
        assert std.err == ""
        outputs[fail] = (std.out.replace(str(out), "OUT"),
                         [(out / f).read_bytes() for f in ("table.json", "report.json")])
    assert outputs[True] == outputs[False]


def test_an_interpreter_that_cannot_tell_its_path_hashes_here(inputs, tmp_path, monkeypatch,
                                                              capsys):
    # sys.executable is empty then, and there is nothing to spawn.
    monkeypatch.setattr(sys, "executable", "")
    forks = count_forks(monkeypatch)
    out = tmp_path / "out"
    out.mkdir()
    for argv in commands(inputs(), out):
        assert run(argv, workers=2) == 0
    assert capsys.readouterr().err == ""
    assert forks == []
    assert echoed(out) == expected(tmp_path)


def test_a_hasher_that_ends_without_a_result_leaves_the_hashing_here(inputs, tmp_path, monkeypatch,
                                                                     capsys):
    monkeypatch.setattr(hashing, "_STUB", "import os; os._exit(0)")
    forks = count_forks(monkeypatch)
    out = tmp_path / "out"
    out.mkdir()
    for argv in commands(inputs(), out):
        assert run(argv, workers=2) == 0
    assert capsys.readouterr().err == ""
    assert forks == ["spawn"] * 2
    assert echoed(out) == expected(tmp_path)


@pytest.mark.parametrize("stub", [
    hashing._STUB.replace("sys.argv[2:]", "sys.argv[2:-1]"),
    hashing._STUB.replace("sys.argv[2:]", "sys.argv[2:] + sys.argv[2:3]"),
    hashing._STUB.replace("sha256_digest, ", "lambda p: sha256_digest(p).upper(), "),
    hashing._STUB.replace("sep=", "end='', sep="),
    hashing._STUB + "; sys.exit(1)",
], ids=["one-line-short", "one-line-over", "upper-case", "no-final-newline", "exit-1"])
def test_a_hasher_that_sends_a_short_or_garbled_result_leaves_the_hashing_here(
    inputs, tmp_path, monkeypatch, capsys, stub
):
    base = inputs()
    outputs = []
    for workers in (1, 2):
        out = tmp_path / str(workers)
        out.mkdir()
        hashed = []
        with monkeypatch.context() as m:
            m.setattr(hashing, "_STUB", stub)
            m.setattr(hashing, "sha256_digest", lambda path: hashed.append(path) or sha256(path))
            for argv in commands(base, out):
                assert run(argv, workers=workers) == 0
        std = capsys.readouterr()
        assert std.err == ""
        assert len(hashed) == 4 + 3  # compare's four distinct inputs, then eval's three
        outputs.append((std.out.replace(str(out), "OUT"),
                        [(out / f).read_bytes() for f in ("table.json", "report.json")]))
    assert outputs[0] == outputs[1]


def test_an_unreadable_input_prints_only_the_callers_fault(inputs, tmp_path, monkeypatch, capfd):
    # The hasher meets the missing file too: it is let end before it is killed, and what it
    # prints to its stderr must not reach this one.
    base = inputs()
    os.remove(tmp_path / "fine.csv")
    kill = os.kill

    def after_its_end(pid, signal):
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        kill(pid, signal)

    monkeypatch.setattr(os, "kill", after_its_end)
    forks = count_forks(monkeypatch)
    out = tmp_path / "out"
    out.mkdir()
    assert run(commands(base, out)[0], workers=2) == 2
    assert forks == ["spawn"]
    fine = tmp_path / "fine.csv"
    assert capfd.readouterr().err == (
        f"InputError: cannot read {fine}: [Errno 2] No such file or directory: '{fine}'\n")


@pytest.mark.parametrize("fault", [False, True], ids=["no-fault", "nan-row"])
def test_no_hasher_is_left_when_a_command_returns(inputs, tmp_path, capsys, fault):
    out = tmp_path / "out"
    out.mkdir()
    for argv in commands(inputs(fine_row="0.4,nan,0.35,0.15") if fault else inputs(), out):
        assert run(argv, workers=2) == (2 if fault and argv[0] == "compare" else 0)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    capsys.readouterr()
