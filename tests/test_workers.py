"""Worker processes behind eval, compare and infer.

The calling process and its forked workers take the blocks in ranges of
consecutive blocks, each the next range left in one shared queue (the
caller takes the first before any fork), and infer's processes write their
rows of a '.hies' file by position. Outputs, the fault reported and its
exit code must not depend on the number of processes, and no process may
outlive a command (conftest checks that after every test).
"""

import contextlib
import errno
import json
import os
import select
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import (SEVEN_NODE_PARENTS, SEVEN_NODE_LEAVES, count_forks, entry_point_env,
                      fail_call, read_scores, save_matrix, use_block_rows)
from hieval import commands, procs
from hieval.cli import run
from hieval.commands import METHODS, _in_workers
from hieval.errors import InputError
from hieval.fileio import ScoreReader, load_hierarchy
from hieval.scores import LOGITS, PROBABILITIES, ScoreMatrix

# In 7-row blocks: 22 blocks, enough for 3 processes (one per 8 blocks after the first).
N_ROWS = 150


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    """A three-level instance whose coarse file is text with its columns reversed."""
    d = tmp_path_factory.mktemp("workers")
    assert run(["synth", "--branching", "3,3,4", "--noise", "1.0,0.5,2.0",
                "--n-samples", str(N_ROWS), "--seed", "8", "--out-dir", str(d)]) == 0
    level2 = read_scores(str(d / "level_d2.hies"))
    reversed_names = tuple(reversed(level2.class_names))
    save_matrix(ScoreMatrix(level2.values[:, ::-1], LOGITS, reversed_names), str(d / "coarse.csv"))
    base = ["--hierarchy", str(d / "hierarchy.json"), "--fine", str(d / "fine.hies"),
            "--coarse", str(d / "coarse.csv"), "--level", f"1={d / 'level_d1.hies'}",
            "--level", f"2={d / 'coarse.csv'}", "--kind", "logits",
            "--labels", str(d / "labels.txt"), "--k", "1,3,36"]
    return d, base


def test_too_few_blocks_stay_in_one_process(instance, monkeypatch, capsys):
    # 150 rows in 19-row blocks: 8 blocks, 7 after the first, fewer than the 8 a worker needs.
    d, base = instance
    use_block_rows(monkeypatch, 19, 36)
    forks = count_forks(monkeypatch)
    assert run(["eval", *base, "--method", "hie"], workers=4) == 0
    capsys.readouterr()
    assert forks == ["spawn"]  # the run may use 4 processes, so it hashes in one


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


# eval and compare first make their hasher's pipe and spawn it, which forks nothing;
# then the queue's pipe is the first of _in_workers, so its third is the second worker's.
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
            hasher = argv[0] != "infer" and name == "pipe"  # its pipe comes before the workers'
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
    nodes = [{"name": c, "parent": p} for c, p in SEVEN_NODE_PARENTS.items()]
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
            else:
                coarse[row] = [1.5, -0.5]
        for name, header, values in [("fine.csv", SEVEN_NODE_LEAVES, fine),
                                     ("coarse.csv", ["flower", "vehicle"], coarse)]:
            rows = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in values)
            (tmp_path / name).write_text(f"# kind: probabilities\n{','.join(header)}\n{rows}")
        return ["--hierarchy", str(tmp_path / "hierarchy.json"), "--fine",
                str(tmp_path / "fine.csv"), "--coarse", str(tmp_path / "coarse.csv"),
                "--labels", str(tmp_path / "labels.txt"), "--k", "1"]

    return write


def test_a_full_disk_in_an_infer_worker_is_reported_as_in_one_process(probability_inputs, tmp_path,
                                                                      monkeypatch, capsys):
    # The disk fills at row 110, in the second worker's range.
    base = probability_inputs({})
    use_block_rows(monkeypatch, 7, 4)
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
    assert forks == ["fork"] * 2
    assert results[0] == results[1] == (
        2, f"InputError: cannot write {out}/s.hies: No space left on device\n")


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
    assert forks == ["spawn"] * (command[0] != "infer") + ["fork"] * 2  # at 3 processes
    assert results[0] == results[1]
    assert results[0][0] == (2 if faults else 0)


def _usable_cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _poisoned_instance(tmp_path) -> tuple:
    """(hierarchy, fine, coarse) paths of a 1024-leaf instance with a dead row 400 and a NaN at 500.

    1024 leaves give 64-row blocks; 640 rows give 10 blocks, so
    `python -m hieval` on 2 CPUs shares them between itself and a worker.
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
              f"DataError: {fine}, {coarse}: row 400"),
             (["compare", "--methods", "argmax,crm", "--k", "1,5"], 2,
              f"InputError: {fine}: non-finite value at row 500, column 7")]
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
    assert serial.err.startswith(f"DataError: {fine}, {coarse}: row 400: ")
    assert serial.err.count("\n") == 1
    done = subprocess.run([sys.executable, "-m", "hieval", *argv], env=entry_point_env(),
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (3, "", serial.err)
    assert os.listdir(out) == []


# --------------------------------------------------------- the worker helper


def one_row_blocks(monkeypatch, n_rows: int):
    """What ``_in_workers`` reads of a run's inputs: ``n_rows`` rows in one-row blocks,
    so that range i is rows [i, i + 1)."""
    use_block_rows(monkeypatch, 1, 1)
    return SimpleNamespace(fine=SimpleNamespace(n_rows=n_rows, class_names=("c",)))


# 17 blocks: enough for 3 processes (one per 8 blocks after the first).
N_BLOCKS = 17


@pytest.fixture
def held_until_taken():
    """``held_until_taken(work, n_workers)``: ``work``, except that range 0, which this
    process takes before any fork, waits until ``n_workers`` workers have each taken a
    range, and each range in a worker waits for range 0, so every worker runs one. A
    worker waits 30 s at most, then raises, and the test fails instead of hanging."""
    late, lateness = os.pipe()
    fds = [late, lateness]

    def hold(work, n_workers: int):
        taken, take = os.pipe()
        go, release = os.pipe()
        fds.extend([taken, take, go, release])
        caller, deadline = os.getpid(), time.monotonic() + 30

        def held(start, stop):
            if os.getpid() != caller:
                os.write(take, b"x")
                if not select.select([go], [], [], max(0.0, deadline - time.monotonic()))[0]:
                    os.write(lateness, b"x")
                    raise TimeoutError(f"range {start} waited 30 s for range 0")
            elif start == 0:
                seen = 0
                os.set_blocking(taken, False)
                while seen < n_workers and time.monotonic() < deadline:
                    with contextlib.suppress(BlockingIOError):
                        seen += len(os.read(taken, n_workers))
                    time.sleep(0.001)
                os.write(release, b"x")  # never read, so every later range passes too
            return work(start, stop)

        return held

    yield hold
    waited = select.select([late], [], [], 0)[0]
    for fd in fds:
        os.close(fd)
    assert not waited, "a worker waited 30 s for range 0, which this process never ran"


def test_results_come_back_in_range_order_from_other_processes(monkeypatch, held_until_taken):
    inputs = one_row_blocks(monkeypatch, N_BLOCKS)
    results = _in_workers(held_until_taken(lambda a, b: (a, b, os.getpid()), 2), inputs, 3)
    assert [r[:2] for r in results] == [(i, i + 1) for i in range(N_BLOCKS)]
    assert results[0][2] == os.getpid()  # range 0, taken before any fork
    assert os.getpid() not in (results[1][2], results[2][2])  # the workers took 1 and 2
    assert len({r[2] for r in results}) == 3


def test_every_range_is_run_once_whatever_the_processes(monkeypatch):
    fork = os.fork

    def fork_and_let_the_worker_start():
        pid = fork()
        if pid:
            time.sleep(0.05)
        return pid

    monkeypatch.setattr(os, "fork", fork_and_let_the_worker_start)
    inputs = one_row_blocks(monkeypatch, 32)  # 32 one-row ranges at 1 process
    for workers in (1, 2, 3):
        results = _in_workers(lambda a, b: (a, os.getpid()), inputs, workers)
        assert [r[0] for r in results] == list(range(32))
        assert results[0][1] == os.getpid()  # taken before any fork


def test_a_range_that_fails_in_a_worker_runs_again_here_and_its_error_is_raised_here(
    monkeypatch, held_until_taken
):
    # The workers take ranges 1 and 2, and range 2 fails wherever it runs.
    caller, ran, (theirs, mark) = os.getpid(), [], os.pipe()

    def work(start, stop):
        if os.getpid() == caller:
            ran.append(start)
        else:
            os.write(mark, bytes([start]))
        if start == 2:
            raise InputError(f"some.hies: non-finite value at row {start}, column 1")
        return start

    try:
        with pytest.raises(InputError) as exc:
            _in_workers(held_until_taken(work, 2), one_row_blocks(monkeypatch, N_BLOCKS), 3)
        os.set_blocking(theirs, False)
        assert 2 in os.read(theirs, N_BLOCKS)
    finally:
        os.close(theirs)
        os.close(mark)
    assert str(exc.value) == "some.hies: non-finite value at row 2, column 1"
    # This process runs ranges above 2 while it can take them, then range 2 again.
    assert ran[0] == 0 and ran[-1] == 2
    assert ran[1:-1] == sorted(ran[1:-1]) and all(i > 2 for i in ran[1:-1])


def test_the_first_failing_range_wins_over_a_later_one_here(monkeypatch, held_until_taken):
    def work(start, stop):
        if start in (1, 2):  # the workers' ranges; this process then takes range 3
            time.sleep(0.3)
        if start in (1, 3):
            raise ValueError(start)
        return start

    with pytest.raises(ValueError) as exc:
        _in_workers(held_until_taken(work, 2), one_row_blocks(monkeypatch, N_BLOCKS), 3)
    assert exc.value.args == (1,)


@pytest.mark.parametrize("failing, first, last", [((), None, 16), ((10,), 10, 10),
                                                  ((2, 10), 2, 10)],
                         ids=["no-fault", "fault-above", "fault-in-a-lost-range"])
def test_the_ranges_of_a_worker_that_ends_without_a_result_run_here(monkeypatch, held_until_taken,
                                                                    failing, first, last):
    # The workers take ranges 1 and 2 and end, as when the OOM killer ends them; this
    # process takes ranges 3 to `last` (its first fault or the last range), then runs
    # 1 and 2 in row order, and the first fault in row order is raised.
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
    assert ran == [0, *range(3, last + 1), 1, 2]


def test_the_ranges_of_a_worker_whose_results_cannot_be_pickled_run_here(monkeypatch,
                                                                          held_until_taken):
    # A lambda cannot be pickled: each worker exits 1 without sending anything, and this
    # process runs every range it took, in row order, once it has taken the rest.
    caller, ran, exits = os.getpid(), [], []
    waitpid = os.waitpid

    def work(start, stop):
        if os.getpid() != caller:
            return lambda: start
        ran.append(start)
        return start

    def reaped(pid, options):
        got = waitpid(pid, options)
        exits.append(os.waitstatus_to_exitcode(got[1]))
        return got

    monkeypatch.setattr(os, "waitpid", reaped)
    inputs = one_row_blocks(monkeypatch, N_BLOCKS)
    assert _in_workers(held_until_taken(work, 2), inputs, 3) == list(range(N_BLOCKS))
    assert exits == [1, 1]
    assert ran[0] == 0 and sorted(ran) == list(range(N_BLOCKS))  # each range once
    mine, theirs = ran[1:ran.index(1)], ran[ran.index(1):]
    assert mine == sorted(mine) and all(i > 2 for i in mine) and theirs == sorted(theirs)


def test_an_error_here_kills_and_reaps_every_worker(monkeypatch, held_until_taken):
    def work(start, stop):
        if start == 0:
            raise KeyError("here")
        time.sleep(60)

    begun = time.perf_counter()
    with pytest.raises(KeyError):
        _in_workers(held_until_taken(work, 2), one_row_blocks(monkeypatch, N_BLOCKS), 3)
    assert time.perf_counter() - begun < 30


# ------------------------------------------------------ inputs read by position


@pytest.mark.parametrize("suffix", [".csv", ".hies"])
def test_a_reader_used_in_a_forked_process_leaves_this_process_reading_its_rows(tmp_path, suffix):
    # 1008 columns make a text row longer than a file object's buffer, so that a
    # read through the file offset that a fork shares would pick up the child's rows.
    values = np.random.default_rng(0).normal(size=(40, 1008))
    path = str(tmp_path / f"s{suffix}")
    save_matrix(ScoreMatrix(values, LOGITS, tuple(f"c{i}" for i in range(1008))), path)
    with ScoreReader(path) as reader:
        assert np.array_equal(reader.read(0, 5).values, values[:5])
        child = procs.Child(lambda: reader.read(20, 30).values.tobytes())
        try:
            assert np.array_equal(np.frombuffer(child.result()).reshape(10, 1008), values[20:30])
        finally:
            child.close()
        assert np.array_equal(reader.read(5, 9).values, values[5:9])


def test_a_text_reader_rewinds_to_an_earlier_row(instance):
    d, _ = instance
    with ScoreReader(str(d / "coarse.csv")) as reader:
        first = reader.read(0, 5).values.copy()
        reader.read(5, 9)
        assert np.array_equal(reader.read(0, 5).values, first)
        assert np.array_equal(reader.read(3, 6).values[:2], first[3:])


@pytest.mark.parametrize("command", [["compare", "--methods", ",".join(METHODS)],
                                     ["infer", "--method", "cascade"]], ids=lambda c: c[0])
def test_workers_read_the_file_checked_when_its_path_is_replaced(instance, tmp_path, monkeypatch,
                                                                 capsys, command):
    # Once the inputs are open, the fine file's path names a file of other values; the
    # workers, which read through the readers they inherit, still read the file checked.
    d, base = instance
    fine = tmp_path / "fine.hies"
    for name in ("fine.hies", "fine.hies.names.json"):
        (tmp_path / name).write_bytes((d / name).read_bytes())
    other = read_scores(fine)
    save_matrix(ScoreMatrix(-other.values, other.kind, other.class_names), str(tmp_path / "o.hies"))
    argv = [*command, *(str(fine) if a == str(d / "fine.hies") else a for a in base)]
    if command[0] == "infer":
        argv = argv[:-4]  # no --labels, no --k
    use_block_rows(monkeypatch, 7, 36)
    caller, read, (marked, mark), waited = os.getpid(), ScoreReader.read, os.pipe(), []
    in_workers = commands._in_workers

    def replaced_once_open(work, inputs, workers):
        os.replace(tmp_path / "o.hies", fine)
        return in_workers(work, inputs, workers)

    def marking(reader, start, stop):
        if os.getpid() != caller:
            os.write(mark, b"x")
        elif start >= 14 and not waited:  # past two ranges, wait until a worker has read a block
            waited.append(select.select([marked], [], [], 10))
        return read(reader, start, stop)

    results = []
    try:
        for workers in (1, 3):
            if workers > 1:
                monkeypatch.setattr(ScoreReader, "read", marking)
                monkeypatch.setattr(commands, "_in_workers", replaced_once_open)
            out = tmp_path / str(workers)
            out.mkdir()
            # compare's table only: its hasher reads the path, at a time of its own
            outfile = ["--out", str(out / "s.hies")] if command[0] == "infer" else []
            assert run([*argv, *outfile], workers=workers) == 0
            results.append((capsys.readouterr().out.replace(str(out), "OUT"),
                            {f: (out / f).read_bytes() for f in sorted(os.listdir(out))}))
        assert select.select([marked], [], [], 0)[0]  # a worker read at least one block
    finally:
        os.close(marked)
        os.close(mark)
    assert results[0] == results[1]


@pytest.mark.parametrize("cut", [0, 4], ids=["at-a-line-end", "inside-a-line"])
def test_a_text_file_cut_short_after_it_was_checked_is_one_fault(probability_inputs, tmp_path,
                                                                 monkeypatch, capsys, cut):
    # Rows 0-899 stay whole, and `cut` bytes of row 900; the file is cut before any row is read.
    base = probability_inputs({})
    fine, row = tmp_path / "fine.csv", b"0.4,0.1,0.35,0.15\n"
    header = b"# kind: probabilities\nrose,tulip,bus,car\n"
    fine.write_bytes(header + row * 1000)
    read = ScoreReader.read

    def cut_short(reader, start, stop):
        if reader.path == str(fine):
            os.truncate(fine, len(header) + 900 * len(row) + cut)
        return read(reader, start, stop)

    monkeypatch.setattr(ScoreReader, "read", cut_short)
    assert run(["infer", *base[:2], "--fine", str(fine), "--out", str(tmp_path / "s.hies")]) == 2
    fields = 2 if cut else 1  # "0.4," is 2 fields, and "" one
    assert capsys.readouterr().err == f"InputError: {fine}:903: {fields} fields, header has 4\n"
    assert not (tmp_path / "s.hies").exists()


def test_a_hies_file_cut_short_after_it_was_checked_is_one_fault(probability_inputs, tmp_path,
                                                                 monkeypatch, capsys):
    # 1000 rows of four columns are one block; the file keeps 900 once it has been opened, and
    # the first row it no longer holds is named.
    base = probability_inputs({})
    fine = tmp_path / "fine.hies"
    save_matrix(ScoreMatrix(np.tile([0.4, 0.1, 0.35, 0.15], (1000, 1)), PROBABILITIES,
                            tuple(SEVEN_NODE_LEAVES)), fine)
    read = ScoreReader.read

    def cut_short(reader, start, stop):
        if reader.path == str(fine):
            os.truncate(fine, 14 + 900 * 4 * 8)
        return read(reader, start, stop)

    monkeypatch.setattr(ScoreReader, "read", cut_short)
    assert run(["infer", *base[:2], "--fine", str(fine), "--out", str(tmp_path / "s.hies")]) == 2
    assert capsys.readouterr() == ("", f"InputError: {fine}: payload ended before row 900\n")
    assert not (tmp_path / "s.hies").exists()


def test_a_text_row_that_stops_being_utf8_after_it_was_checked_exits_2(probability_inputs,
                                                                        tmp_path, monkeypatch,
                                                                        capsys):
    # Row 900 gets a byte that is no UTF-8 after the file was opened and scanned.
    base = probability_inputs({})
    fine, row = tmp_path / "fine.csv", b"0.4,0.1,0.35,0.15\n"
    header = b"# kind: probabilities\nrose,tulip,bus,car\n"
    fine.write_bytes(header + row * 1000)
    read = ScoreReader.read

    def spoiled(reader, start, stop):
        if reader.path == str(fine):
            with open(fine, "r+b") as f:
                f.seek(len(header) + 900 * len(row) + 1)
                f.write(b"\xff")
        return read(reader, start, stop)

    monkeypatch.setattr(ScoreReader, "read", spoiled)
    assert run(["infer", *base[:2], "--fine", str(fine), "--out", str(tmp_path / "s.hies")]) == 2
    assert capsys.readouterr().err == (f"InputError: {fine}:903: not valid UTF-8: 'utf-8' codec "
                                       "can't decode byte 0xff in position 1: invalid start byte\n")
    assert not (tmp_path / "s.hies").exists()


@pytest.mark.parametrize("cpus", ["all", "one"])
def test_a_text_row_that_is_not_utf8_past_block_0_prints_one_line_through_the_entry_point(
        tmp_path, capsys, cpus):
    # Four columns give 16,384-row blocks: row 50,000 is in block 3, which a worker may take.
    if cpus == "one" and not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity here")
    nodes = [{"name": c, "parent": p} for c, p in SEVEN_NODE_PARENTS.items()]
    (tmp_path / "hierarchy.json").write_text(
        json.dumps({"nodes": nodes, "leaf_order": SEVEN_NODE_LEAVES}))
    (tmp_path / "labels.txt").write_text("bus\n" * 100_000)
    fine, row = tmp_path / "fine.csv", b"0.4,0.1,0.35,0.15\n"
    fine.write_bytes(b"# kind: probabilities\nrose,tulip,bus,car\n" + row * 50_000
                     + b"0\xff4,0.1,0.35,0.15\n" + row * 49_999)
    argv = ["eval", "--hierarchy", str(tmp_path / "hierarchy.json"), "--fine", str(fine),
            "--labels", str(tmp_path / "labels.txt"), "--method", "argmax", "--k", "1"]
    line = (f"InputError: {fine}:50003: not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
            "in position 1: invalid start byte\n")
    assert run(argv) == 2
    assert capsys.readouterr() == ("", line)
    narrow = ((lambda: os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1]))
              if cpus == "one" else None)
    done = subprocess.run([sys.executable, "-m", "hieval", *argv], env=entry_point_env(),
                          capture_output=True, text=True, preexec_fn=narrow)
    assert (done.returncode, done.stdout, done.stderr) == (2, "", line)
