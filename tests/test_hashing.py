"""The sha256 digests that eval and compare reports echo for their inputs.

When a run may use more than one process, a hasher forked before numpy
loads computes them, so the calling process never loads OpenSSL. Reports,
the first fault and its exit code must be the same whether it ran, failed
to start, or ended without a result; no hasher outlives its command
(conftest checks that after every test).
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


def hash_with(monkeypatch, instead, here=True) -> None:
    """Have ``hashing.sha256_digest`` call ``instead`` in this process only, or,
    with ``here=False``, in every other process only (the hasher)."""
    pid, real = os.getpid(), hashing.sha256_digest
    monkeypatch.setattr(hashing, "sha256_digest",
                        lambda path: (instead if (os.getpid() == pid) == here else real)(path))


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
        hash_with(monkeypatch, lambda path: pytest.fail(f"hashed {path}"))
    for argv in commands(inputs(), out):
        assert run(argv, workers=workers) == 0
    capsys.readouterr()
    assert forks == ["cli"] * 2 * (workers > 1)
    assert echoed(out) == expected(tmp_path)


def test_one_process_hashes_a_file_given_under_two_roles_once(inputs, tmp_path, monkeypatch,
                                                              capsys):
    # The coarse file is --coarse and --level 1.
    hashed = []
    hash_with(monkeypatch, lambda path: hashed.append(path) or sha256(path))
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


def test_the_caller_of_a_two_worker_compare_never_loads_hashlib(inputs, tmp_path):
    # 4-entry blocks put each row in a block of its own, so a row worker runs too.
    out = tmp_path / "out"
    out.mkdir()
    [compare, _] = commands(inputs(), out)
    script = "\n".join([
        "import os, sys",
        "forks, fork = [], os.fork",
        "def counted():",
        "    pid = fork()",
        "    if pid:",
        "        forks.append(sys._getframe(2).f_globals['__name__'])",  # Child's caller
        "    return pid",
        "os.fork = counted",
        "from hieval import cli, scores",
        "scores.BLOCK_ENTRIES = 4",
        "code = cli.run(sys.argv[1:], workers=2)",
        "print(code, forks, sorted(m for m in sys.modules if 'hashlib' in m))",
    ])
    done = subprocess.run([sys.executable, "-c", script, *compare], env=entry_point_env(),
                          capture_output=True, text=True)
    assert done.stderr == ""
    assert done.stdout.endswith("0 ['hieval.cli', 'hieval.commands'] []\n"), done.stdout
    table = json.loads((out / "table.json").read_text())["reports"]
    assert [r["config"]["inputs"] for r in table] == expected(tmp_path)[:3]


@pytest.mark.parametrize("poison, first", [
    ({"fine_row": "0.4,nan,0.35,0.15"},
     "NonFiniteValue: {d}/fine.csv: non-finite value at row 59, column 1"),
    ({"label": "nope"}, "UnknownLeaf: {d}/labels.txt:60: 'nope' is not a leaf class"),
    (None, "ParseError: cannot read {d}/fine.csv: [Errno 2] No such file or directory: "),
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
    assert forks == ["cli"] * len(argvs)
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


@pytest.mark.parametrize("name", ["pipe", "fork"])
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


def test_a_hasher_that_ends_without_a_result_leaves_the_hashing_here(inputs, tmp_path, monkeypatch,
                                                                     capsys):
    hash_with(monkeypatch, lambda path: os._exit(0), here=False)
    out = tmp_path / "out"
    out.mkdir()
    for argv in commands(inputs(), out):
        assert run(argv, workers=2) == 0
    assert capsys.readouterr().err == ""
    assert echoed(out) == expected(tmp_path)
