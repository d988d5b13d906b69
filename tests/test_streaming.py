"""The block-by-block pipeline behind infer, eval and compare.

Outputs must not depend on the block size, faults must name rows of the
file, and memory must stay bounded by a block rather than the whole input.
"""

import json
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from conftest import SEVEN_NODE_EDGES, SEVEN_NODE_LEAVES
from hieval import fileio, risk, scores, taxonomy
from hieval.cli import run
from hieval.commands import METHODS
from hieval.ensemble import hie_combine, hie_self
from hieval.fileio import align_columns, load_hierarchy, load_scores, save_scores, write_labels
from hieval.risk import crm_rerank
from hieval.scores import LOGITS, ScoreMatrix, softmax_rows, top_k
from hieval.taxonomy import ancestor_index_map, parent_index_map

N_ROWS = 50
BLOCKS = {"1-row": 1, "7-row": 7, "all-rows": N_ROWS}


def use_block_rows(monkeypatch, rows: int, n_cols: int) -> None:
    monkeypatch.setattr(scores, "BLOCK_ENTRIES", rows * n_cols)


@pytest.fixture(scope="module")
def instance(tmp_path_factory):
    """A three-level instance whose coarse file is text with its columns reversed."""
    d = tmp_path_factory.mktemp("streaming")
    assert run(["synth", "--branching", "3,3,4", "--noise", "1.0,0.5,2.0",
                "--n-samples", str(N_ROWS), "--seed", "5", "--out-dir", str(d)]) == 0
    level2 = load_scores(str(d / "level_d2.hies"))
    reversed_names = tuple(reversed(level2.class_names))
    save_scores(ScoreMatrix(level2.values[:, ::-1], LOGITS, reversed_names), str(d / "coarse.csv"))
    base = ["--hierarchy", str(d / "hierarchy.json"), "--fine", str(d / "fine.hies"),
            "--coarse", str(d / "coarse.csv"), "--level", f"1={d / 'level_d1.hies'}",
            "--level", f"2={d / 'coarse.csv'}", "--kind", "logits"]
    return d, base


def library_outputs(d: Path, method: str):
    """The scores and predictions infer writes for ``method``, from whole matrices."""
    t = load_hierarchy(str(d / "hierarchy.json"))
    fine = softmax_rows(load_scores(str(d / "fine.hies"), LOGITS))
    d1 = softmax_rows(load_scores(str(d / "level_d1.hies"), LOGITS))
    coarse = softmax_rows(align_columns(load_scores(str(d / "coarse.csv"), LOGITS), t, "coarse"))
    pmap = parent_index_map(t)
    hie = hie_combine(fine, [(coarse, pmap)])
    if method in ("crm", "hie-crm"):
        ranking = crm_rerank(fine if method == "crm" else hie, t)
        return ScoreMatrix(-ranking.expected_costs, LOGITS, t.leaf_names()), ranking.top(1)[:, 0]
    probs = {
        "argmax": fine,
        "hie": hie,
        "hie-self": hie_self(fine, pmap, t.n_coarse),
        "cascade": hie_combine(fine, [(d1, ancestor_index_map(t, 1)),
                                      (coarse, ancestor_index_map(t, 2))]),
    }[method]
    return probs, top_k(probs, 1)[:, 0]


@pytest.mark.parametrize("suffix", [".hies", ".csv"])
@pytest.mark.parametrize("method", list(METHODS))
def test_infer_bytes_do_not_depend_on_the_block_size(instance, monkeypatch, method, suffix):
    d, base = instance
    expected_scores, expected_preds = library_outputs(d, method)
    reference = d / f"reference-{method}{suffix}"
    save_scores(expected_scores, str(reference))
    write_labels(load_hierarchy(str(d / "hierarchy.json")), expected_preds, f"{reference}.preds")
    names = [""] + ([".names.json"] if suffix == ".hies" else [])
    for label, rows in BLOCKS.items():
        use_block_rows(monkeypatch, rows, expected_scores.n_classes)
        out = d / f"{method}-{label}{suffix}"
        assert run(["infer", *base, "--method", method, "--out", str(out)]) == 0
        for extra in names:
            assert Path(f"{out}{extra}").read_bytes() == Path(f"{reference}{extra}").read_bytes()
        assert Path(f"{out}.preds.txt").read_bytes() == Path(f"{reference}.preds").read_bytes()


def test_output_bytes_do_not_depend_on_the_column_order_of_an_input(instance, monkeypatch):
    # Alignment permutes the reversed columns back; the softmax that follows
    # must then sum each row exactly as for a file in canonical order.
    d, base = instance
    canonical = [str(d / "level_d2.hies") if arg == str(d / "coarse.csv") else arg for arg in base]
    for rows in (1, N_ROWS):
        use_block_rows(monkeypatch, rows, 36)
        outs = []
        for flags, name in [(base, "reversed.hies"), (canonical, "canonical.hies")]:
            assert run(["infer", *flags, "--method", "hie", "--out", str(d / name)]) == 0
            outs.append((d / name).read_bytes())
        assert outs[0] == outs[1]


def test_eval_and_compare_bytes_do_not_depend_on_the_block_size(instance, monkeypatch, capsys):
    d, base = instance
    labels = ["--labels", str(d / "labels.txt"), "--k", "1,3,36"]
    outputs = {}
    for label, rows in BLOCKS.items():
        use_block_rows(monkeypatch, rows, 36)
        table, report = d / f"table-{label}.json", d / f"report-{label}.json"
        assert run(["compare", *base, *labels, "--methods", ",".join(METHODS),
                    "--out", str(table)]) == 0
        assert run(["eval", *base, *labels, "--method", "hie-crm", "--out", str(report)]) == 0
        outputs[label] = (table.read_bytes(), report.read_bytes(), capsys.readouterr().out)
    assert outputs["1-row"] == outputs["7-row"] == outputs["all-rows"]


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
    nodes = [{"name": "entity", "parent": None}]
    nodes += [{"name": c, "parent": p} for c, p in SEVEN_NODE_EDGES]
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


# Each fault sits in row 41, in the sixth 7-row block, and is reported as if
# the file had been read whole: the same message, naming the file and its row,
# and the same exit code.
LATE_FAULTS = {
    "non-finite": (
        lambda f, c: (with_row(f, 41, [0.4, 0.1, np.inf, 0.15]), c), 2,
        "NonFiniteValue: {d}/fine.csv: non-finite value at row 41, column 2",
    ),
    "negative": (
        lambda f, c: (f, with_row(c, 41, [1.5, -0.5])), 2,
        "NegativeEntry: {d}/coarse.csv: negative entry at row 41, column 1",
    ),
    "row-sum": (
        lambda f, c: (with_row(f, 41, [0.5, 0.1, 0.35, 0.15]), c), 2,
        "RowSumViolation: {d}/fine.csv: row 41 sums to 1.0999999999999999, expected 1",
    ),
    "zero-mass": (  # all fine mass on a rose, no coarse mass on flowers
        lambda f, c: (with_row(f, 41, [1.0, 0.0, 0.0, 0.0]), with_row(c, 41, [0.0, 1.0])), 3,
        "ZeroDenominator: row 41: every fine-times-coarse product is below 1e-300",
    ),
}


@pytest.mark.parametrize("fault", list(LATE_FAULTS))
def test_a_fault_in_a_late_block_names_the_file_row(probability_inputs, monkeypatch, capsys, fault):
    d, fine, coarse, write = probability_inputs
    make, code, message = LATE_FAULTS[fault]
    use_block_rows(monkeypatch, 7, 4)
    base = write(*make(fine, coarse))
    assert run(["eval", *base, "--labels", str(d / "labels.txt"), "--method", "hie",
                "--k", "1"]) == code
    assert capsys.readouterr().err.startswith(message.format(d=d))


def test_a_non_finite_value_in_a_late_binary_block_names_the_file_row(
    probability_inputs, monkeypatch, capsys
):
    d, fine, coarse, write = probability_inputs
    base = write(fine, coarse)
    # A ScoreMatrix cannot hold the fault, so the binary file is written by hand.
    logits = with_row(np.log(fine), 41, [0.0, 0.0, np.nan, 0.0])
    path = d / "fine.hies"
    path.write_bytes(struct.pack("<4sBBII", b"HIES", 1, 0, *logits.shape)
                     + logits.astype("<f8").tobytes())
    (d / "fine.hies.names.json").write_text(json.dumps({"class_names": SEVEN_NODE_LEAVES}))
    base[base.index("--fine") + 1] = str(path)
    use_block_rows(monkeypatch, 7, 4)
    assert run(["eval", *base, "--labels", str(d / "labels.txt"), "--k", "1"]) == 2
    assert capsys.readouterr().err.startswith(
        f"NonFiniteValue: {path}: non-finite value at row 41, column 2"
    )


def test_row_counts_are_checked_before_any_row_is_read(probability_inputs, capsys):
    d, fine, coarse, write = probability_inputs
    base = write(with_row(fine, 0, [np.nan, 0.1, 0.35, 0.15]), coarse[:10])
    assert run(["eval", *base, "--labels", str(d / "labels.txt"), "--method", "hie",
                "--k", "1"]) == 3
    err = capsys.readouterr().err
    assert err == f"DimensionMismatch: fine has {N_ROWS} samples, coarse has 10\n"


def test_a_failing_infer_leaves_no_file_behind(probability_inputs, monkeypatch, capsys):
    d, fine, coarse, write = probability_inputs
    use_block_rows(monkeypatch, 7, 4)
    base = write(with_row(fine, 48, [0.4, np.nan, 0.35, 0.15]), coarse)
    before = sorted(os.listdir(d))
    for out in ("combined.hies", "combined.csv"):
        assert run(["infer", *base, "--method", "hie", "--out", str(d / out)]) == 2
        err = capsys.readouterr().err
        assert f"NonFiniteValue: {d}/fine.csv: non-finite value at row 48, column 1" in err
    assert sorted(os.listdir(d)) == before


def test_the_first_fault_in_row_order_is_reported(probability_inputs, monkeypatch, capsys):
    # The fine file is read first in every block, but the coarse file's fault
    # comes in an earlier block, so it is the one reported.
    d, fine, coarse, write = probability_inputs
    use_block_rows(monkeypatch, 7, 4)
    base = write(with_row(fine, 45, [np.nan, 0.1, 0.35, 0.15]), with_row(coarse, 12, [2.0, -1.0]))
    assert run(["eval", *base, "--labels", str(d / "labels.txt"), "--method", "hie",
                "--k", "1"]) == 2
    assert capsys.readouterr().err.startswith(
        f"NegativeEntry: {d}/coarse.csv: negative entry at row 12, column 1"
    )


def test_probability_files_are_validated_once(probability_inputs, monkeypatch, capsys):
    d, fine, coarse, write = probability_inputs
    base = write(fine, coarse)
    calls = []
    original = scores.validate_probabilities

    def counting(m, tol=scores.INTERNAL_TOL):
        calls.append(m.n_samples)
        return original(m, tol)

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
