"""Worker processes behind eval, compare and infer.

Block 0 runs in the calling process; the caller and its forked workers
then take the blocks after it in ranges of consecutive blocks, each the
next range left in one shared queue, and infer's processes write their
rows of a '.hies' file by position. Outputs, the fault reported and its
exit code must not depend on the number of processes, and no process may
outlive a command (conftest checks that after every test).
"""

import contextlib
import errno
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (SEVEN_NODE_EDGES, SEVEN_NODE_LEAVES, count_forks, entry_point_env,
                      fail_call, read_scores, use_block_rows)
from hieval.cli import run
from hieval.commands import METHODS, _in_workers
from hieval.errors import InputError, NonFiniteValue
from hieval.fileio import ScoreReader, load_hierarchy, save_scores
from hieval.scores import LOGITS, ScoreMatrix

# In 7-row blocks: block 0, then 21 blocks, enough for 3 processes (one per 8 blocks).
N_ROWS = 150


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    """A three-level instance whose coarse file is text with its columns reversed."""
    d = tmp_path_factory.mktemp("workers")
    assert run(["synth", "--branching", "3,3,4", "--noise", "1.0,0.5,2.0",
                "--n-samples", str(N_ROWS), "--seed", "8", "--out-dir", str(d)]) == 0
    level2 = read_scores(str(d / "level_d2.hies"))
    reversed_names = tuple(reversed(level2.class_names))
    save_scores(ScoreMatrix(level2.values[:, ::-1], LOGITS, reversed_names), str(d / "coarse.csv"))
    base = ["--hierarchy", str(d / "hierarchy.json"), "--fine", str(d / "fine.hies"),
            "--coarse", str(d / "coarse.csv"), "--level", f"1={d / 'level_d1.hies'}",
            "--level", f"2={d / 'coarse.csv'}", "--kind", "logits",
            "--labels", str(d / "labels.txt"), "--k", "1,3,36"]
    return d, base


@pytest.mark.parametrize("block", [1, 7], ids=["1-row", "7-row"])
def test_eval_and_compare_bytes_do_not_depend_on_the_worker_count(instance, monkeypatch, capsys,
                                                                   block):
    d, base = instance
    use_block_rows(monkeypatch, block, 36)
    forks = count_forks(monkeypatch)
    outputs = {}
    for workers in (1, 2, 3):
        forks.clear()
        table, report = d / f"table-{block}-{workers}.json", d / f"report-{block}-{workers}.json"
        assert run(["compare", *base, "--methods", ",".join(METHODS), "--out", str(table)],
                   workers=workers) == 0
        assert run(["eval", *base, "--method", "hie-crm", "--out", str(report)],
                   workers=workers) == 0
        # Each command forks its hasher, then its workers, when more than one process may run.
        assert forks == (["cli"] + ["commands"] * (workers - 1)) * 2 * (workers > 1)
        outputs[workers] = (table.read_bytes(), report.read_bytes(), capsys.readouterr().out)
    assert outputs[1] == outputs[2] == outputs[3]


def test_a_column_permuted_input_gives_the_canonical_bytes_in_workers(instance, tmp_path,
                                                                      monkeypatch, capsys):
    # The coarse and depth-2 file is bound to the taxonomy at open, with its columns
    # reversed; every worker reads its blocks through that one binding.
    d, base = instance
    canonical = [str(d / "level_d2.hies") if arg == str(d / "coarse.csv") else arg for arg in base]
    use_block_rows(monkeypatch, 7, 36)
    forks = count_forks(monkeypatch)
    outputs = []
    for flags in (base, canonical):
        out = tmp_path / str(len(outputs))
        out.mkdir()
        assert run(["compare", *flags, "--methods", ",".join(METHODS), "--out",
                    str(out / "table.json")], workers=3) == 0
        reports = json.loads((out / "table.json").read_text())["reports"]
        for report in reports:
            del report["config"]["inputs"]  # the digests of the files given
        for method in ("hie", "cascade"):
            assert run(["infer", *flags[:-4], "--method", method, "--out",
                        str(out / f"{method}.hies")], workers=3) == 0
        outputs.append((capsys.readouterr().out.replace(str(out), "OUT"), reports,
                        {f: (out / f).read_bytes() for f in os.listdir(out) if f != "table.json"}))
    assert forks == ["cli"] + ["commands"] * 6 + ["cli"] + ["commands"] * 6
    assert outputs[0] == outputs[1]


def test_too_few_blocks_stay_in_one_process(instance, monkeypatch, capsys):
    # 150 rows in 19-row blocks: block 0, then 7 blocks, fewer than the 8 a worker needs.
    d, base = instance
    use_block_rows(monkeypatch, 19, 36)
    forks = count_forks(monkeypatch)
    assert run(["eval", *base, "--method", "hie"], workers=4) == 0
    capsys.readouterr()
    assert forks == ["cli"]  # the run may use 4 processes, so it hashes in one


@pytest.mark.parametrize("method", ["cascade", "crm"])
def test_infer_bytes_do_not_depend_on_the_worker_count(instance, tmp_path, monkeypatch, capsys,
                                                       method):
    # crm writes negated costs, so its file carries the logits kind byte.
    d, base = instance
    infer = ["infer", *base[:-4], "--method", method]
    forks = count_forks(monkeypatch)
    outputs = set()
    for block, workers in [(b, w) for b in (1, 7, N_ROWS) for w in (1, 2, 3)]:
        use_block_rows(monkeypatch, block, 36)
        forks.clear()
        out = tmp_path / f"{block}-{workers}"
        out.mkdir()
        assert run([*infer, "--out", str(out / "s.hies")], workers=workers) == 0
        assert forks == ["commands"] * (0 if block == N_ROWS else workers - 1)  # and no hasher
        outputs.add(tuple((out / name).read_bytes()
                          for name in ["s.hies", "s.hies.names.json", "s.hies.preds.txt"]))
        assert sorted(os.listdir(out)) == ["s.hies", "s.hies.names.json", "s.hies.preds.txt"]
    assert len(outputs) == 1
    [(scores, _, _)] = outputs
    assert scores[5] == (0 if method == "crm" else 1)  # the kind byte: logits, probabilities
    capsys.readouterr()


def test_infer_writes_text_scores_in_one_process(instance, tmp_path, monkeypatch, capsys):
    d, base = instance
    use_block_rows(monkeypatch, 7, 36)
    forks = count_forks(monkeypatch)
    outputs = []
    for workers in (1, 3):
        out = tmp_path / f"s{workers}.csv"
        assert run(["infer", *base[:-4], "--method", "cascade", "--out", str(out)],
                   workers=workers) == 0
        outputs.append((out.read_bytes(), Path(f"{out}.preds.txt").read_bytes()))
    assert forks == []
    assert outputs[0] == outputs[1]
    capsys.readouterr()


# eval and compare first make their hasher's pipe and fork; then the queue's pipe
# is the first of _in_workers, so its third is the second worker's.
@pytest.mark.parametrize("workers, name, n", [(2, "fork", 1), (3, "fork", 2), (3, "pipe", 3)],
                         ids=["first-fork-of-2", "second-fork-of-3", "second-pipe-of-3"])
def test_a_failed_fork_leaves_every_range_to_the_processes_running(
    instance, tmp_path, monkeypatch, capsys, workers, name, n
):
    d, base = instance
    use_block_rows(monkeypatch, 7, 36)
    commands = [["compare", *base, "--methods", ",".join(METHODS), "--out", "table.json"],
                ["eval", *base, "--method", "hie-crm", "--out", "report.json"],
                ["infer", *base[:-4], "--method", "cascade", "--out", "s.hies"]]

    def outputs(out, workers, fail):
        out.mkdir()
        printed = []
        for argv in commands:
            hasher = argv[0] != "infer"  # its pipe and fork come before the workers'
            calls = fail_call(monkeypatch, name, n + hasher) if fail else []
            assert run([*argv[:-1], str(out / argv[-1])], workers=workers) == 0
            assert len(calls) == (n + hasher if fail else 0)
            std = capsys.readouterr()
            assert std.err == ""
            printed.append(std.out.replace(str(out), "OUT"))
        return printed, {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}

    one = outputs(tmp_path / "one", 1, False)
    fds = len(os.listdir("/proc/self/fd"))
    assert outputs(tmp_path / "failed", workers, True) == one
    assert len(os.listdir("/proc/self/fd")) == fds  # the failed worker's pipe ends are closed


# ------------------------------------------------------------------ faults


@pytest.fixture
def probability_inputs(tmp_path):
    """N_ROWS rows of fine and coarse probabilities, as text, on the four-leaf fixture."""
    nodes = [{"name": "entity", "parent": None}]
    nodes += [{"name": c, "parent": p} for c, p in SEVEN_NODE_EDGES]
    (tmp_path / "hierarchy.json").write_text(
        json.dumps({"nodes": nodes, "leaf_order": SEVEN_NODE_LEAVES})
    )
    (tmp_path / "labels.txt").write_text("bus\n" * N_ROWS)

    def write(faults):
        fine = np.tile([0.4, 0.1, 0.35, 0.15], (N_ROWS, 1))
        coarse = np.tile([0.2, 0.8], (N_ROWS, 1))
        for row, kind in faults.items():
            if kind == "nan":
                fine[row, 1] = np.nan
            elif kind == "negative":
                coarse[row] = [1.5, -0.5]
            else:  # all fine mass on a rose, no coarse mass on flowers
                fine[row], coarse[row] = [1.0, 0.0, 0.0, 0.0], [0.0, 1.0]
        for name, header, values in [("fine.csv", SEVEN_NODE_LEAVES, fine),
                                     ("coarse.csv", ["flower", "vehicle"], coarse)]:
            rows = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in values)
            (tmp_path / name).write_text(f"# kind: probabilities\n{','.join(header)}\n{rows}")
        return ["--hierarchy", str(tmp_path / "hierarchy.json"), "--fine",
                str(tmp_path / "fine.csv"), "--coarse", str(tmp_path / "coarse.csv"),
                "--labels", str(tmp_path / "labels.txt"), "--k", "1"]

    return write


# With 3 processes in 7-row blocks, whichever process takes a faulty block meets
# its fault; the caller takes rows 7-13 before any fork.
@pytest.mark.parametrize("faults, first", [
    ({30: "negative", 120: "nan"}, "NegativeEntry: {d}/coarse.csv: negative entry at row 30"),
    ({60: "nan", 110: "negative"}, "NonFiniteValue: {d}/fine.csv: non-finite value at row 60"),
    ({104: "negative", 105: "nan"}, "NegativeEntry: {d}/coarse.csv: negative entry at row 104"),
    ({140: "zero-mass"}, "ZeroDenominator: {d}/fine.csv, {d}/coarse.csv: row 140: "),
], ids=["caller-then-worker", "worker-then-worker", "range-edge", "last-worker"])
def test_the_first_fault_in_row_order_wins_whatever_the_workers(
    probability_inputs, tmp_path, monkeypatch, capsys, faults, first
):
    base = probability_inputs(faults)
    use_block_rows(monkeypatch, 7, 4)
    forks = count_forks(monkeypatch)
    results = []
    for workers in (1, 3):
        for command in (["eval", "--method", "hie"], ["compare", "--methods", "argmax,hie"]):
            code = run([*command, *base], workers=workers)
            results.append((code, capsys.readouterr().err))
    assert forks == ["cli", "commands", "commands"] * 2  # at 3 processes
    assert len(set(results)) == 1
    code, err = results[0]
    assert code == (3 if "zero-mass" in faults.values() else 2)
    assert err.startswith(first.format(d=tmp_path)) and err.count("\n") == 1


@pytest.mark.parametrize("fault, first, code", [
    ({60: "nan"}, "NonFiniteValue: {d}/fine.csv: non-finite value at row 60, column 1", 2),
    ({140: "zero-mass"}, "ZeroDenominator: {d}/fine.csv, {d}/coarse.csv: row 140: ", 3),
    ({}, "InputError: cannot write {d}/out/s.hies: No space left on device", 2),
], ids=["nan", "zero-mass", "disk-full"])
def test_an_infer_fault_in_a_worker_is_reported_as_in_one_process(
    probability_inputs, tmp_path, monkeypatch, capsys, fault, first, code
):
    base = probability_inputs(fault)
    use_block_rows(monkeypatch, 7, 4)
    if not fault:  # the disk fills at row 110, in the second worker's range
        pwrite = os.pwrite

        def full(fd, data, offset):
            if offset >= 14 + 110 * 4 * 8:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return pwrite(fd, data, offset)

        monkeypatch.setattr(os, "pwrite", full)
    out = tmp_path / "out"
    out.mkdir()
    forks = count_forks(monkeypatch)
    results = []
    for workers in (1, 3):
        results.append((run(["infer", *base[:-4], "--method", "hie", "--out", str(out / "s.hies")],
                            workers=workers), capsys.readouterr().err))
        assert os.listdir(out) == []
    assert forks == ["commands"] * 2
    assert results[0] == results[1]
    assert results[0][0] == code
    assert results[0][1].startswith(first.format(d=tmp_path)) and results[0][1].count("\n") == 1


@pytest.mark.parametrize("faults", [{}, {60: "nan", 110: "negative"}], ids=["no-fault", "faults"])
@pytest.mark.parametrize("command", [["eval", "--method", "hie"],
                                     ["compare", "--methods", "argmax,hie"],
                                     ["infer", "--method", "hie"]], ids=lambda c: c[0])
def test_a_worker_that_ends_without_a_result_is_reported_as_in_one_process(
    probability_inputs, tmp_path, monkeypatch, capsys, command, faults
):
    # Each worker ends on its first block read, as when the OOM killer ends it.
    base = probability_inputs(faults)
    if command[0] == "infer":
        base = base[:-4]  # no --labels, no --k
    use_block_rows(monkeypatch, 7, 4)
    caller, read = os.getpid(), ScoreReader.read

    def ending(reader, start, stop):
        if os.getpid() != caller:
            os._exit(0)
        return read(reader, start, stop)

    forks = count_forks(monkeypatch)
    results = []
    for workers in (1, 3):
        if workers > 1:
            monkeypatch.setattr(ScoreReader, "read", ending)
        out = tmp_path / str(workers)
        out.mkdir()
        code = run([*command, *base, "--out", str(out / "out.hies")], workers=workers)
        std = capsys.readouterr()
        results.append((code, std.out.replace(str(out), "OUT"), std.err,
                        {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}))
    assert forks == ["cli"] * (command[0] != "infer") + ["commands"] * 2  # at 3 processes
    assert results[0] == results[1]
    assert results[0][0] == (2 if faults else 0)


@pytest.mark.parametrize("faults", [{}, {60: "nan", 110: "negative"}], ids=["no-fault", "faults"])
@pytest.mark.parametrize("command", [["eval", "--method", "hie"],
                                     ["compare", "--methods", "argmax,hie"],
                                     ["infer", "--method", "hie"]], ids=lambda c: c[0])
def test_a_worker_that_cannot_reopen_the_inputs_leaves_its_ranges_to_this_process(
    probability_inputs, tmp_path, monkeypatch, capsys, command, faults
):
    base = probability_inputs(faults)
    if command[0] == "infer":
        base = base[:-4]  # no --labels, no --k
    use_block_rows(monkeypatch, 7, 4)
    failed, mark = os.pipe()

    def failing(reader):  # only a worker re-opens its inputs
        os.write(mark, b"x")
        raise InputError(f"{reader.path} was replaced after it was checked")

    monkeypatch.setattr(ScoreReader, "reopen", failing)
    results = []
    try:
        for workers in (1, 3):
            out = tmp_path / str(workers)
            out.mkdir()
            code = run([*command, *base, "--out", str(out / "out.hies")], workers=workers)
            std = capsys.readouterr()
            results.append((code, std.out.replace(str(out), "OUT"), std.err,
                            {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}))
        os.set_blocking(failed, False)
        if not faults:  # a fault at row 60 may end the run before a worker tries
            assert os.read(failed, 8) == b"xx"  # both workers, at 3 processes
    finally:
        os.close(failed)
        os.close(mark)
    assert results[0] == results[1]
    assert results[0][0] == (2 if faults else 0)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _poisoned_instance(tmp_path) -> tuple:
    """(hierarchy, fine, coarse) paths of a 1024-leaf instance with a dead row 400 and a NaN at 500.

    1024 leaves give 64-row blocks; 640 rows give block 0 and 9 more, so
    `python -m hieval` on 2 CPUs shares blocks 1-9 between itself and a worker.
    """
    assert run(["synth", "--branching", "16,64", "--noise", "0.5,1.0", "--n-samples", "640",
                "--seed", "4", "--out-dir", str(tmp_path)]) == 0
    fine, coarse = tmp_path / "fine.hies", tmp_path / "level_d1.hies"
    t = load_hierarchy(str(tmp_path / "hierarchy.json"))
    fine_rows = np.memmap(fine, dtype="<f8", mode="r+", offset=14, shape=(640, 1024))
    coarse_rows = np.memmap(coarse, dtype="<f8", mode="r+", offset=14, shape=(640, 16))
    fine_rows[500, 7] = np.nan
    # Row 400, a block before the NaN: every logit but leaf 0's is -1e5, and
    # leaf 0's parent gets -1e5, so after softmax no fine-times-coarse product has any mass.
    fine_rows[400], fine_rows[400, 0] = -1e5, 0.0
    coarse_names = json.loads(Path(f"{coarse}.names.json").read_text())["class_names"]
    parent = t.names[t.parent[t.leaf_order[0]]]
    coarse_rows[400], coarse_rows[400, coarse_names.index(parent)] = 0.0, -1e5
    del fine_rows, coarse_rows
    return tmp_path / "hierarchy.json", fine, coarse


@pytest.mark.skipif(_usable_cpus() < 2, reason="python -m hieval forks one worker per usable CPU")
def test_a_fault_in_a_worker_prints_one_line_through_the_entry_point(tmp_path, capsys):
    hierarchy, fine, coarse = _poisoned_instance(tmp_path)
    capsys.readouterr()
    base = ["--hierarchy", str(hierarchy), "--fine", str(fine), "--coarse",
            str(coarse), "--kind", "logits", "--labels", str(tmp_path / "labels.txt")]
    cases = [(["eval", "--method", "hie", "--k", "1"], 3,
              f"ZeroDenominator: {fine}, {coarse}: row 400"),
             (["compare", "--methods", "argmax,crm", "--k", "1,5"], 2,
              f"NonFiniteValue: {fine}: non-finite value at row 500, column 7")]
    for argv, code, first in cases:
        assert run([*argv, *base]) == code
        serial = capsys.readouterr()
        assert serial.err.startswith(first) and serial.err.count("\n") == 1
        done = subprocess.run([sys.executable, "-m", "hieval", *argv, *base],
                              env=entry_point_env(), capture_output=True, text=True)
        assert (done.returncode, done.stdout, done.stderr) == (code, "", serial.err)


@pytest.mark.skipif(_usable_cpus() < 2, reason="python -m hieval forks one worker per usable CPU")
def test_an_infer_fault_in_a_worker_leaves_no_output_through_the_entry_point(tmp_path, capsys):
    # The dead row 400 is a block before the NaN; infer's --method hie meets it first.
    hierarchy, fine, coarse = _poisoned_instance(tmp_path / "in")
    out = tmp_path / "out"
    out.mkdir()
    argv = ["infer", "--hierarchy", str(hierarchy), "--fine", str(fine), "--coarse", str(coarse),
            "--kind", "logits", "--method", "hie", "--out", str(out / "s.hies")]
    capsys.readouterr()
    assert run(argv) == 3
    serial = capsys.readouterr()
    assert serial.err.startswith(f"ZeroDenominator: {fine}, {coarse}: row 400: ")
    assert serial.err.count("\n") == 1
    done = subprocess.run([sys.executable, "-m", "hieval", *argv], env=entry_point_env(),
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (3, "", serial.err)
    assert os.listdir(out) == []


# --------------------------------------------------------- the worker helper


def one_row_blocks(monkeypatch, n_rows: int):
    """What ``_in_workers`` reads of a run's inputs: ``n_rows`` rows in one-row blocks,
    so that range i is rows [i, i + 1), and no reader to re-open."""
    use_block_rows(monkeypatch, 1, 1)
    return SimpleNamespace(fine=SimpleNamespace(n_rows=n_rows, class_names=("c",)),
                           readers=lambda: [])


# Block 0 and 16 more: enough for 3 processes (one per 8 blocks after block 0).
N_BLOCKS = 17


@pytest.fixture
def held_until_taken():
    """``held_until_taken(work, n_workers)``: ``work``, except that range 1, which this
    process takes before any fork, waits until ``n_workers`` workers have each taken a
    range, and each range in a worker waits for range 1, so every worker runs one."""
    fds = []

    def hold(work, n_workers: int):
        taken, take = os.pipe()
        go, release = os.pipe()
        fds.extend([taken, take, go, release])
        caller = os.getpid()

        def held(start, stop):
            if os.getpid() != caller:
                os.write(take, b"x")
                os.read(go, 1)
            elif start == 1:
                seen, deadline = 0, time.monotonic() + 30
                os.set_blocking(taken, False)
                while seen < n_workers and time.monotonic() < deadline:
                    with contextlib.suppress(BlockingIOError):
                        seen += len(os.read(taken, n_workers))
                    time.sleep(0.001)
                os.write(release, b"x" * 1024)  # for every range after these too
            return work(start, stop)

        return held

    yield hold
    for fd in fds:
        os.close(fd)


def test_results_come_back_in_range_order_from_other_processes(monkeypatch, held_until_taken):
    inputs = one_row_blocks(monkeypatch, N_BLOCKS)
    results = _in_workers(held_until_taken(lambda a, b: (a, b, os.getpid()), 2), inputs, 3)
    assert [r[:2] for r in results] == [(i, i + 1) for i in range(N_BLOCKS)]
    assert results[0][2] == results[1][2] == os.getpid()  # block 0, then range 1 before any fork
    assert len({r[2] for r in results}) == 3


def test_every_range_is_run_once_whatever_the_processes(monkeypatch):
    fork = os.fork

    def fork_and_let_the_worker_start():
        pid = fork()
        if pid:
            time.sleep(0.05)
        return pid

    monkeypatch.setattr(os, "fork", fork_and_let_the_worker_start)
    inputs = one_row_blocks(monkeypatch, 33)  # 32 ranges after block 0 at 1 process
    for workers in (1, 2, 3):
        results = _in_workers(lambda a, b: (a, os.getpid()), inputs, workers)
        assert [r[0] for r in results] == list(range(33))
        assert results[0][1] == results[1][1] == os.getpid()  # taken before any fork


def test_a_range_that_fails_in_a_worker_runs_again_here_and_its_error_is_raised_here(
    monkeypatch, held_until_taken
):
    # The workers take ranges 2 and 3, and range 3 fails wherever it runs.
    caller, ran, (theirs, mark) = os.getpid(), [], os.pipe()

    def work(start, stop):
        if os.getpid() == caller:
            ran.append(start)
        else:
            os.write(mark, bytes([start]))
        if start == 3:
            e = NonFiniteValue(start, 1)
            e.args = (f"some.hies: {e}",)
            raise e
        return start

    try:
        with pytest.raises(NonFiniteValue) as exc:
            _in_workers(held_until_taken(work, 2), one_row_blocks(monkeypatch, N_BLOCKS), 3)
        os.set_blocking(theirs, False)
        assert 3 in os.read(theirs, N_BLOCKS)
    finally:
        os.close(theirs)
        os.close(mark)
    assert (str(exc.value), exc.value.row) == ("some.hies: non-finite value at row 3, column 1", 3)
    # This process runs ranges above 3 while it can take them, then range 3 again.
    assert ran[:2] == [0, 1] and ran[-1] == 3
    assert ran[2:-1] == sorted(ran[2:-1]) and all(i > 3 for i in ran[2:-1])


def test_the_first_failing_range_wins_over_a_later_one_here(monkeypatch, held_until_taken):
    def work(start, stop):
        if start in (2, 3):  # the workers' ranges; this process then takes range 4
            time.sleep(0.3)
        if start in (2, 4):
            raise ValueError(start)
        return start

    with pytest.raises(ValueError) as exc:
        _in_workers(held_until_taken(work, 2), one_row_blocks(monkeypatch, N_BLOCKS), 3)
    assert exc.value.args == (2,)


@pytest.mark.parametrize("failing, first, last", [((), None, 16), ((10,), 10, 10),
                                                  ((3, 10), 3, 10)],
                         ids=["no-fault", "fault-above", "fault-in-a-lost-range"])
def test_the_ranges_of_a_worker_that_ends_without_a_result_run_here(monkeypatch, held_until_taken,
                                                                    failing, first, last):
    # The workers take ranges 2 and 3 and end, as when the OOM killer ends them; this
    # process takes ranges 4 to `last` (its first fault or the last range), then runs
    # 2 and 3 in row order, and the first fault in row order is raised.
    caller, ran = os.getpid(), []

    def work(start, stop):
        if os.getpid() != caller:
            os._exit(0)
        ran.append(start)
        if start in failing:
            raise ValueError(start)
        return start

    inputs = one_row_blocks(monkeypatch, N_BLOCKS)
    if first is None:
        assert _in_workers(held_until_taken(work, 2), inputs, 3) == list(range(N_BLOCKS))
    else:
        with pytest.raises(ValueError) as exc:
            _in_workers(held_until_taken(work, 2), inputs, 3)
        assert exc.value.args == (first,)
    assert ran == [0, 1, *range(4, last + 1), 2, 3]


def test_an_error_here_kills_and_reaps_every_worker(monkeypatch, held_until_taken):
    def work(start, stop):
        if start == 1:
            raise KeyError("here")
        if start:
            time.sleep(60)

    begun = time.perf_counter()
    with pytest.raises(KeyError):
        _in_workers(held_until_taken(work, 2), one_row_blocks(monkeypatch, N_BLOCKS), 3)
    assert time.perf_counter() - begun < 30


# ---------------------------------------------------------- re-opened inputs


def test_a_reopened_text_reader_rewinds(instance):
    d, _ = instance
    with ScoreReader(str(d / "coarse.csv")) as reader:
        first = reader.read(0, 5).values.copy()
        reader.read(5, 9)
        reader.reopen()
        assert np.array_equal(reader.read(0, 5).values, first)


def test_reopening_a_replaced_file_is_refused(tmp_path):
    path = tmp_path / "scores.csv"
    path.write_text("a,b\n0.5,0.5\n")
    with ScoreReader(str(path)) as reader:
        (tmp_path / "other.csv").write_text("a,b\n0.5,0.5\n")
        os.replace(tmp_path / "other.csv", path)
        with pytest.raises(InputError, match="was replaced after it was checked"):
            reader.reopen()
