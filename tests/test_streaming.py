"""The block-by-block pipeline behind synth, infer, eval and compare.

Outputs must not depend on the block size, faults must name rows of the
file, and memory must stay bounded by a block rather than the whole input.
"""

import gc
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import (SEVEN_NODE_PARENTS, SEVEN_NODE_LEAVES, entry_point_env, read_scores, same_bits,
                      save_matrix, use_block_rows)
from hieval import fileio, risk, scores, taxonomy
from hieval.cli import build_parser, run
from hieval.commands import METHODS, load_method_inputs, run_methods
from hieval.ensemble import hie_combine, hie_self
from hieval.fileio import column_order, load_hierarchy, write_labels
from hieval.risk import crm_rerank
from hieval.scores import LOGITS, ScoreMatrix, as_probabilities, softmax_rows, top_k
from hieval.taxonomy import ancestor_index_map, parent_index_map

N_ROWS = 50
BLOCKS = {"1-row": 1, "7-row": 7, "all-rows": N_ROWS}


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    """A three-level instance whose coarse file is text with its columns reversed."""
    d = tmp_path_factory.mktemp("streaming")
    assert run(["synth", "--branching", "3,3,4", "--noise", "1.0,0.5,2.0",
                "--n-samples", str(N_ROWS), "--seed", "5", "--out-dir", str(d)]) == 0
    level2 = read_scores(str(d / "level_d2.hies"))
    reversed_names = tuple(reversed(level2.class_names))
    save_matrix(ScoreMatrix(level2.values[:, ::-1], LOGITS, reversed_names), str(d / "coarse.csv"))
    base = ["--hierarchy", str(d / "hierarchy.json"), "--fine", str(d / "fine.hies"),
            "--coarse", str(d / "coarse.csv"), "--level", f"1={d / 'level_d1.hies'}",
            "--level", f"2={d / 'coarse.csv'}", "--kind", "logits"]
    return d, base


def library_outputs(d: Path, method: str):
    """The scores and predictions infer writes for ``method``, from whole matrices."""
    t = load_hierarchy(str(d / "hierarchy.json"))
    fine = softmax_rows(read_scores(str(d / "fine.hies"), LOGITS))
    d1 = softmax_rows(read_scores(str(d / "level_d1.hies"), LOGITS))
    reversed_coarse = read_scores(d / "coarse.csv", LOGITS)
    perm, names = column_order(reversed_coarse.class_names, t, "coarse")
    coarse = softmax_rows(ScoreMatrix(reversed_coarse.values[:, perm], LOGITS, names))
    pmap = parent_index_map(t)
    hie = hie_combine(fine, [(coarse, pmap)])
    ranked = {
        "argmax": fine,
        "hie": hie,
        "hie-self": hie_self(fine, pmap, t.n_coarse),
        "crm": crm_rerank(fine, t),
        "hie-crm": crm_rerank(hie, t),
        "cascade": hie_combine(fine, [(d1, ancestor_index_map(t, 1)),
                                      (coarse, ancestor_index_map(t, 2))]),
    }[method]
    return ranked, top_k(ranked, 1)[:, 0]


@pytest.mark.parametrize("suffix", [".hies", ".csv"])
@pytest.mark.parametrize("method", list(METHODS))
def test_infer_bytes_do_not_depend_on_the_block_size(instance, monkeypatch, method, suffix):
    d, base = instance
    expected_scores, expected_preds = library_outputs(d, method)
    reference = d / f"reference-{method}{suffix}"
    save_matrix(expected_scores, str(reference))
    write_labels(load_hierarchy(str(d / "hierarchy.json")), lambda write: write(expected_preds),
                 f"{reference}.preds")
    names = [""] + ([".names.json"] if suffix == ".hies" else [])
    for label, rows in BLOCKS.items():
        use_block_rows(monkeypatch, rows, expected_scores.n_classes)
        out = d / f"{method}-{label}{suffix}"
        assert run(["infer", *base, "--method", method, "--out", str(out)]) == 0
        for extra in names:
            assert Path(f"{out}{extra}").read_bytes() == Path(f"{reference}{extra}").read_bytes()
        assert Path(f"{out}.preds.txt").read_bytes() == Path(f"{reference}.preds").read_bytes()


# The files the instance fixture's synth writes, as digested when each level
# was still drawn whole.
SYNTH_DIGESTS = {
    "fine.hies": "7e85c2e812b8a01b64d50b2f02468625aeb64ba8eddccb9b955fa6af18d8fea6",
    "fine.hies.names.json": "0fe88094226f9e3f3145e9045a567607cd2081e7609baa58afb851b9fde8d768",
    "hierarchy.json": "444e067862ef0c62029553ca42d38e1313cdbc10efccc00498fc68ba560a94d0",
    "labels.txt": "c980cf54c8d3c4ca93adf2e2eaa97389daf4d643ddd7fd89767a9c6e3ecf0022",
    "level_d1.hies": "97142352e84d56abdfb86f018700245ec908d33cab50f8678441a8bbf6e9dcab",
    "level_d1.hies.names.json": "dfe9b9250d4306781e5f3a0a135b768ebff738543429db31fea1e9bc01ab8ee1",
    "level_d2.hies": "584a76d545cb4997ac17d6671f10a075cbe466f10636aa78e3de5a5833e1f0e4",
    "level_d2.hies.names.json": "100bef826ea80e4f46156e21d297f0bc740764bcc006b9a831e8abb1b0a2889f",
    "manifest.json": "8df797698257649020c825bc83d390d4dc268514306598cae90379dc37a35eb9",
}


@pytest.mark.parametrize("label", list(BLOCKS))
def test_synth_bytes_do_not_depend_on_the_block_size(tmp_path, monkeypatch, label):
    # Blocks of BLOCKS[label] fine rows (36 wide); the narrower levels get more rows.
    use_block_rows(monkeypatch, BLOCKS[label], 36)
    assert run(["synth", "--branching", "3,3,4", "--noise", "1.0,0.5,2.0",
                "--n-samples", str(N_ROWS), "--seed", "5", "--out-dir", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert digests == SYNTH_DIGESTS


def test_every_block_run_methods_yields_is_read_only_and_c_ordered(instance, monkeypatch):
    # Every file holds logits, softmaxed in the buffer each block is read into,
    # and the coarse file's reversed columns are permuted back first.
    d, base = instance
    use_block_rows(monkeypatch, 7, 36)
    args = build_parser().parse_args(["compare", *base, "--labels", str(d / "labels.txt"),
                                      "--methods", ",".join(METHODS)])
    seen = []
    with load_method_inputs(args, list(METHODS)) as inputs:
        for method, ranked in run_methods(list(METHODS), inputs):
            values = ranked.values
            assert values.dtype == np.float64, method
            assert values.flags.c_contiguous and not values.flags.writeable, method
            seen.append(method)
    assert sorted(seen) == sorted(list(METHODS) * 8)  # 50 rows in 7-row blocks


def test_loading_never_changes_a_matrix_a_caller_holds(instance):
    d, _ = instance
    path = str(d / "fine.hies")
    with fileio.ScoreReader(path) as reader:
        first = reader.read(0, 7)
        before = first.values.copy()
        for f in (softmax_rows, as_probabilities):
            assert not np.shares_memory(f(first).values, first.values)
        for start in range(7, N_ROWS, 7):
            later = reader.read(start, min(start + 7, N_ROWS))
            as_probabilities(later)
            assert not np.shares_memory(later.values, first.values)
    assert same_bits(first.values, before)
    assert same_bits(first.values, read_scores(path).values[:7])
    assert first.kind == LOGITS and not first.values.flags.writeable


def test_hierarchy_arrays_are_built_once_per_run(instance, monkeypatch, capsys):
    d, base = instance
    counts = {}

    def counting(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    for module, name in [(risk, "_build_path_layout"), (taxonomy, "_build_ancestor_table"),
                         (taxonomy, "level_order"), (taxonomy, "_positions")]:
        counting(module, name)
    builds = {}
    for label in ("1-row", "all-rows"):
        use_block_rows(monkeypatch, BLOCKS[label], 36)
        counts.clear()
        assert run(["compare", *base, "--labels", str(d / "labels.txt"),
                    "--methods", ",".join(METHODS)]) == 0
        builds[label] = dict(counts)
    capsys.readouterr()
    assert builds["1-row"] == builds["all-rows"]
    assert builds["1-row"]["_build_path_layout"] == 1
    assert builds["1-row"]["_build_ancestor_table"] == 1


# ------------------------------------------------------------------ faults


@pytest.fixture
def probability_inputs(tmp_path):
    """Fifty rows of fine and coarse probabilities on the four-leaf fixture."""
    nodes = [{"name": c, "parent": p} for c, p in SEVEN_NODE_PARENTS.items()]
    (tmp_path / "hierarchy.json").write_text(
        json.dumps({"nodes": nodes, "leaf_order": SEVEN_NODE_LEAVES})
    )
    fine = np.tile([0.4, 0.1, 0.35, 0.15], (N_ROWS, 1))
    coarse = np.tile([0.2, 0.8], (N_ROWS, 1))
    (tmp_path / "labels.txt").write_text("bus\n" * N_ROWS)

    def write(fine, coarse):
        # Written as text by hand: a ScoreMatrix cannot hold the faults.
        for name, header, values in [("fine.csv", SEVEN_NODE_LEAVES, fine),
                                     ("coarse.csv", ["flower", "vehicle"], coarse)]:
            rows = "".join(",".join(repr(float(v)) for v in row) + "\n" for row in values)
            (tmp_path / name).write_text(f"# kind: probabilities\n{','.join(header)}\n{rows}")
        return ["--hierarchy", str(tmp_path / "hierarchy.json"), "--fine",
                str(tmp_path / "fine.csv"), "--coarse", str(tmp_path / "coarse.csv")]

    return tmp_path, fine, coarse, write


def with_row(values: np.ndarray, row: int, new_row) -> np.ndarray:
    values = values.copy()
    values[row] = new_row
    return values


def test_a_dead_cascade_row_names_the_fine_file_and_each_level_file(probability_inputs,
                                                                    monkeypatch, capsys):
    # Row 41's fine mass is all on a rose, and level 1 gives flowers none.
    d, fine, coarse, write = probability_inputs
    base = write(with_row(fine, 41, [1.0, 0.0, 0.0, 0.0]), with_row(coarse, 41, [0.0, 1.0]))
    (d / "root.csv").write_text("# kind: probabilities\nentity\n" + "1.0\n" * N_ROWS)
    before = sorted(os.listdir(d))
    use_block_rows(monkeypatch, 7, 4)
    assert run(["infer", *base, "--level", f"0={d / 'root.csv'}", "--level", f"1={d / 'coarse.csv'}",
                "--method", "cascade", "--out", str(d / "out.hies")]) == 3
    assert capsys.readouterr().err.startswith(
        f"DataError: {d}/fine.csv, {d}/root.csv, {d}/coarse.csv: row 41: "
    )
    assert sorted(os.listdir(d)) == before  # no scores, predictions or temp file


def test_synth_names_the_file_row_of_a_logit_its_noise_overflows(tmp_path, monkeypatch, capsys):
    # A noise scale of 1e308 overflows wherever a standard normal draw exceeds ~1.8;
    # at seed 0 the first such draw of level 1 is row 4, in its third 2-row block.
    use_block_rows(monkeypatch, 2, 2)
    assert run(["synth", "--branching", "2,2", "--noise", "1e308,1", "--n-samples", "5",
                "--seed", "0", "--out-dir", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        f"InputError: {tmp_path}/level_d1.hies: non-finite value at row 4, column 1\n"
    )
    assert os.listdir(tmp_path) == []  # not even the hierarchy or labels, and no temp file


def through_the_entry_point(argv) -> tuple[int, str]:
    """``python -m hieval *argv``'s exit code and standard error."""
    done = subprocess.run([sys.executable, "-m", "hieval", *argv], env=entry_point_env(),
                          capture_output=True, text=True)
    return done.returncode, done.stderr


def test_a_failing_synth_leaves_an_earlier_instance_as_it_was(tmp_path, capsys):
    # The second instance's labels, hierarchy and top level are drawn before its
    # fine level overflows; none of them may replace the first instance's files,
    # in this process or through the entry point.
    args = ["synth", "--branching", "3,4", "--n-samples", "50", "--out-dir", str(tmp_path)]
    assert run([*args, "--noise", "0.5,1", "--seed", "1"]) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert run([*args, "--noise", "0.5,1e308", "--seed", "2"]) == 2
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before  # and no temp file
    err = capsys.readouterr().err
    assert err.startswith(f"InputError: {tmp_path}/fine.hies: ") and err.count("\n") == 1
    assert through_the_entry_point([*args, "--noise", "0.5,1e308", "--seed", "2"]) == (2, err)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_a_synth_whose_rename_fails_leaves_no_new_file(tmp_path, capsys):
    # The hierarchy and the labels are renamed before level_d1.hies, whose path is
    # a directory; the files they replaced are put back, so the first instance stays,
    # in this process and through the entry point.
    args = ["synth", "--branching", "3,4", "--noise", "0.5,1", "--n-samples", "50",
            "--out-dir", str(tmp_path)]
    assert run([*args, "--seed", "1"]) == 0
    (tmp_path / "level_d1.hies").unlink()
    (tmp_path / "level_d1.hies").mkdir()

    def files():
        return {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.is_file()}

    before = files()
    err = f"InputError: cannot write {tmp_path}/level_d1.hies: Is a directory\n"
    assert run([*args, "--seed", "2"]) == 2
    assert capsys.readouterr().err == err
    assert files() == before  # and no temp file or kept link
    assert through_the_entry_point([*args, "--seed", "2"]) == (2, err)
    assert files() == before
    assert not os.listdir(tmp_path / "level_d1.hies")


@pytest.mark.parametrize("labels, code, message", [
    ("bus\n" * (N_ROWS - 1), 3, f"DataError: {N_ROWS} predictions vs {N_ROWS - 1} labels\n"),
    ("bus\n" * 45 + "entity\n" + "bus\n" * 4, 2,
     "InputError: {d}/labels.txt:46: 'entity' is not a leaf class\n"),
], ids=["count", "unknown-leaf"])
def test_a_labels_fault_wins_over_a_late_row_fault(probability_inputs, monkeypatch, capsys,
                                                   labels, code, message):
    # The labels are read and counted before the first block, so the NaN in
    # row 41 (the sixth 7-row block) is never reached.
    d, fine, coarse, write = probability_inputs
    use_block_rows(monkeypatch, 7, 4)
    base = write(with_row(fine, 41, [0.4, np.nan, 0.35, 0.15]), coarse)
    (d / "labels.txt").write_text(labels)
    for command in (["eval", "--method", "hie"], ["compare", "--methods", "argmax,hie"]):
        assert run([*command, *base, "--labels", str(d / "labels.txt"), "--k", "1"]) == code
        assert capsys.readouterr().err == message.format(d=d)


def test_row_counts_are_checked_before_any_row_is_read(probability_inputs, capsys):
    d, fine, coarse, write = probability_inputs
    base = write(with_row(fine, 0, [np.nan, 0.1, 0.35, 0.15]), coarse[:10])
    assert run(["eval", *base, "--labels", str(d / "labels.txt"), "--method", "hie",
                "--k", "1"]) == 3
    err = capsys.readouterr().err
    assert err == f"DataError: {d}/coarse.csv: --coarse has 10 samples, --fine has {N_ROWS}\n"


def test_a_failing_infer_leaves_no_file_behind(probability_inputs, monkeypatch, capsys):
    d, fine, coarse, write = probability_inputs
    use_block_rows(monkeypatch, 7, 4)
    base = write(with_row(fine, 48, [0.4, np.nan, 0.35, 0.15]), coarse)
    before = sorted(os.listdir(d))
    for out in ("combined.hies", "combined.csv"):
        assert run(["infer", *base, "--method", "hie", "--out", str(d / out)]) == 2
        err = capsys.readouterr().err
        assert f"InputError: {d}/fine.csv: non-finite value at row 48, column 1" in err
    assert sorted(os.listdir(d)) == before


def test_a_faulty_block_is_halved_down_to_its_first_faulty_row(probability_inputs, monkeypatch,
                                                               capsys):
    # One 64-row block with a NaN in row 63: each halving reads two halves at most, where a
    # rerun row by row would read the fine file 65 times.
    d, fine, coarse, write = probability_inputs
    base = write(with_row(np.tile(fine[:1], (64, 1)), 63, [0.4, np.nan, 0.35, 0.15]),
                 np.tile(coarse[:1], (64, 1)))
    (d / "labels.txt").write_text("bus\n" * 64)
    use_block_rows(monkeypatch, 64, 4)
    reads, read = [], fileio.ScoreReader.read
    monkeypatch.setattr(fileio.ScoreReader, "read",
                        lambda reader, *rows: reads.append(reader.path) or read(reader, *rows))
    assert run(["eval", *base, "--labels", str(d / "labels.txt"), "--method", "hie",
                "--k", "1"]) == 2
    assert capsys.readouterr().err == (
        f"InputError: {d}/fine.csv: non-finite value at row 63, column 1\n")
    assert reads.count(str(d / "fine.csv")) <= 2 * 6 + 2


# Row 1's fault, then in row 2 a kind that a block checks first.
SUM_OFF = "InputError: {d}/fine.csv: row 1 sums to 1.0999999999999999, expected 1"
ROW_1_FIRST = {
    "sum-then-negative": ([0.5, 0.1, 0.35, 0.15], [0.5, -0.1, 0.35, 0.25], SUM_OFF),
    "negative-then-nan": ([0.5, -0.1, 0.35, 0.25], [0.4, np.nan, 0.35, 0.15],
                          "InputError: {d}/fine.csv: negative entry at row 1, column 1"),
    "sum-then-nan": ([0.5, 0.1, 0.35, 0.15], [0.4, np.nan, 0.35, 0.15], SUM_OFF),
}


@pytest.mark.parametrize("rows", list(BLOCKS.values()), ids=list(BLOCKS))
@pytest.mark.parametrize("case", list(ROW_1_FIRST))
def test_a_probability_file_names_its_first_faulty_row(probability_inputs, monkeypatch, capsys,
                                                       case, rows):
    d, fine, coarse, write = probability_inputs
    row1, row2, message = ROW_1_FIRST[case]
    base = write(with_row(with_row(fine, 1, row1), 2, row2), coarse)
    use_block_rows(monkeypatch, rows, 4)
    assert run(["eval", *base, "--labels", str(d / "labels.txt"), "--k", "1"]) == 2
    assert capsys.readouterr().err == message.format(d=d) + "\n"


def test_probability_files_are_validated_once(probability_inputs, monkeypatch, capsys):
    d, fine, coarse, write = probability_inputs
    base = write(fine, coarse)
    calls = []
    original = scores.validate_probabilities

    def counting(m, *rest):
        calls.append(m.n_samples)
        return original(m, *rest)

    monkeypatch.setattr(scores, "validate_probabilities", counting)
    monkeypatch.setattr(fileio, "validate_probabilities", counting)
    use_block_rows(monkeypatch, 7, 4)
    assert run(["eval", *base, "--labels", str(d / "labels.txt"), "--method", "hie",
                "--k", "1"]) == 0
    capsys.readouterr()
    assert sum(calls) == 2 * N_ROWS  # each row of the two files, once


# ------------------------------------------------------------------ memory


def test_cascade_infer_memory_is_bounded_by_a_block(tmp_path, capsys):
    d = tmp_path / "tall"
    assert run(["synth", "--branching", "4,4,4,4", "--noise", "0.5,1.0,1.5,2.0",
                "--n-samples", "20000", "--seed", "2", "--out-dir", str(d)]) == 0
    fine_bytes = (d / "fine.hies").stat().st_size
    args = ["infer", "--hierarchy", str(d / "hierarchy.json"), "--fine", str(d / "fine.hies"),
            "--kind", "logits", "--method", "cascade", "--out", str(tmp_path / "out.hies")]
    for depth in (1, 2, 3):
        args += ["--level", f"{depth}={d / f'level_d{depth}.hies'}"]
    tracemalloc.start()
    try:
        assert run(args) == 0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    capsys.readouterr()
    assert peak < fine_bytes / 4, (peak, fine_bytes)


def test_compare_memory_does_not_grow_with_the_row_count(tmp_path, capsys):
    # Per row, only the labels stay: every method's metrics are summed block by block.
    peaks = {}
    for n in (1000, 8000):
        d = tmp_path / str(n)
        assert run(["synth", "--branching", "4,6,8", "--noise", "0.5,1.0,2.0",
                    "--n-samples", str(n), "--seed", "3", "--out-dir", str(d)]) == 0
        args = ["compare", "--hierarchy", str(d / "hierarchy.json"), "--fine", str(d / "fine.hies"),
                "--coarse", str(d / "level_d2.hies"), "--level", f"1={d / 'level_d1.hies'}",
                "--level", f"2={d / 'level_d2.hies'}", "--kind", "logits",
                "--labels", str(d / "labels.txt"), "--k", "1,5,20",
                "--methods", ",".join(METHODS), "--out", str(d / "table.json")]
        tracemalloc.start()
        try:
            assert run(args) == 0
            _, peaks[n] = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert peaks[8000] <= 1.1 * peaks[1000], peaks


def traced_peak(args) -> int:
    """Peak traced bytes of one in-process run.

    Collection is off: each run leaves its argument parser in reference
    cycles, and where in the run a collection frees it would move the peak.
    """
    gc.disable()
    tracemalloc.start()
    try:
        assert run(args) == 0
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        gc.enable()


def test_synth_memory_does_not_grow_with_the_row_count(tmp_path):
    # Only the labels (8 bytes a row) stay: each level is drawn and written block by block.
    peaks = {n: traced_peak(["synth", "--branching", "4,6,8", "--noise", "0.5,1.0,2.0",
                             "--n-samples", str(n), "--seed", "3", "--out-dir", str(tmp_path / str(n))])
             for n in (1000, 8000)}
    assert peaks[8000] - 8 * 7000 <= 1.1 * peaks[1000], peaks


def test_infer_memory_does_not_grow_with_the_row_count(tmp_path, monkeypatch, capsys):
    # Each block's predictions are written as it passes. Small blocks keep the
    # per-block memory small beside what a per-row leftover would add.
    peaks = {}
    for n in (1000, 8000):
        d = tmp_path / str(n)
        assert run(["synth", "--branching", "4,6,8", "--noise", "0.5,1.0,2.0",
                    "--n-samples", str(n), "--seed", "3", "--out-dir", str(d)]) == 0
        use_block_rows(monkeypatch, 16, 192)
        peaks[n] = traced_peak(["infer", "--hierarchy", str(d / "hierarchy.json"),
                                "--fine", str(d / "fine.hies"), "--level", f"1={d / 'level_d1.hies'}",
                                "--level", f"2={d / 'level_d2.hies'}", "--kind", "logits",
                                "--method", "cascade", "--out", str(d / "out.hies")])
        monkeypatch.undo()
    capsys.readouterr()
    assert peaks[8000] <= 1.1 * peaks[1000], peaks
