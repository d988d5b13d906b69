import json
import os
from pathlib import Path

import numpy as np
import pytest

from conftest import SEVEN_NODE_EDGES, SEVEN_NODE_LEAVES, random_taxonomy, read_scores
from hieval import fileio
from hieval.errors import (
    ColumnMismatch,
    CycleDetected,
    DuplicateClass,
    EmptyInput,
    InputError,
    KindConflict,
    MissingClass,
    NegativeEntry,
    MultipleRoots,
    NonFiniteValue,
    OrderMismatch,
    ParseError,
    RowSumViolation,
    UnknownClass,
    UnknownLeaf,
)
from hieval.fileio import (
    ScoreReader,
    column_order,
    load_hierarchy,
    load_labels,
    renamed_together,
    save_hierarchy,
    save_scores,
    write_labels,
    write_report,
)
from hieval.metrics import EvalReport
from hieval.scores import LOGITS, PROBABILITIES, ScoreMatrix
from hieval.synth import SynthConfig, gen_taxonomy
from hieval.taxonomy import build_taxonomy


def hierarchy_doc():
    nodes = [{"name": "entity", "parent": None}]
    nodes += [{"name": child, "parent": parent} for child, parent in SEVEN_NODE_EDGES]
    return {"nodes": nodes, "leaf_order": SEVEN_NODE_LEAVES}


@pytest.fixture
def hierarchy_file(tmp_path):
    path = tmp_path / "hierarchy.json"
    path.write_text(json.dumps(hierarchy_doc()))
    return str(path)


# ------------------------------------------------------------- hierarchies


def test_load_hierarchy_fixture(hierarchy_file):
    t = load_hierarchy(hierarchy_file)
    assert t.n_nodes == 7
    assert t.n_leaves == 4
    assert t.leaf_names() == ("rose", "tulip", "bus", "car")


def test_load_hierarchy_two_roots(tmp_path):
    doc = hierarchy_doc()
    doc["nodes"].append({"name": "ghost", "parent": None})
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(MultipleRoots, match="ghost"):
        load_hierarchy(str(path))


def test_load_hierarchy_bad_json(tmp_path):
    path = tmp_path / "h.json"
    path.write_text('{"nodes": [')
    with pytest.raises(ParseError, match="h.json:1"):
        load_hierarchy(str(path))


def test_load_hierarchy_undeclared_parent(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"nodes": [{"name": "a", "parent": "nowhere"}]}))
    with pytest.raises(ParseError, match="nowhere"):
        load_hierarchy(str(path))


def test_load_hierarchy_missing_file(tmp_path):
    with pytest.raises(ParseError):
        load_hierarchy(str(tmp_path / "absent.json"))


def _nodes(*extra):
    return [{"name": "r", "parent": None}, {"name": "a", "parent": "r"}, *extra]


# Each fault's type and whole message; "{p}" is the file's path. When several
# nodes are faulty, the first one in file order is named.
@pytest.mark.parametrize("doc, error, message", [
    ([], ParseError, "{p}: expected an object with a 'nodes' list"),
    ({"nodes": {}}, ParseError, "{p}: expected an object with a 'nodes' list"),
    ({"nodes": []}, EmptyInput, "edge list is empty"),
    ({"nodes": _nodes(5)}, ParseError, "{p}: nodes[2] must have 'name' and 'parent'"),
    ({"nodes": _nodes(["b", "r"])}, ParseError, "{p}: nodes[2] must have 'name' and 'parent'"),
    ({"nodes": _nodes({"name": "b"})}, ParseError, "{p}: nodes[2] must have 'name' and 'parent'"),
    ({"nodes": _nodes({"parent": "r"})}, ParseError, "{p}: nodes[2] must have 'name' and 'parent'"),
    ({"nodes": _nodes({"name": 3, "parent": "r"})}, ParseError, "{p}: nodes[2] has an invalid name 3"),
    ({"nodes": _nodes({"name": "", "parent": "r"})}, ParseError,
     "{p}: nodes[2] has an invalid name ''"),
    ({"nodes": _nodes({"name": ["b"], "parent": "r"})}, ParseError,
     "{p}: nodes[2] has an invalid name ['b']"),
    ({"nodes": _nodes({"name": "b", "parent": ""})}, ParseError,
     "{p}: nodes[2] has an invalid parent ''"),
    ({"nodes": _nodes({"name": "b", "parent": 7})}, ParseError,
     "{p}: nodes[2] has an invalid parent 7"),
    ({"nodes": _nodes({"name": "a", "parent": "r"})}, ParseError, "{p}: duplicate node name 'a'"),
    ({"nodes": _nodes({"name": "b", "parent": ""}, 5, {"name": "a", "parent": "r"})}, ParseError,
     "{p}: nodes[2] has an invalid parent ''"),
    ({"nodes": _nodes({"name": "a", "parent": "r"}, {"name": 3, "parent": "r"})}, ParseError,
     "{p}: duplicate node name 'a'"),
    ({"nodes": _nodes({"name": "z", "parent": None}, {"name": "b", "parent": None})}, MultipleRoots,
     "{p}: multiple null-parent nodes: 'b', 'r', 'z'"),
    ({"nodes": _nodes({"name": "b", "parent": "y"}, {"name": "c", "parent": "x"})}, ParseError,
     "{p}: parent names never declared as nodes: 'x', 'y'"),
    ({"nodes": _nodes(), "leaf_order": "a"}, ParseError, "{p}: leaf_order must be a list of names"),
    ({"nodes": _nodes(), "leaf_order": ["a", 1]}, ParseError,
     "{p}: leaf_order must be a list of names"),
    ({"nodes": _nodes(), "coarse_order": {"r": 0}}, ParseError,
     "{p}: coarse_order must be a list of names"),
    ({"nodes": _nodes({"name": "b", "parent": "r"}), "leaf_order": ["b", "z", "z"]}, OrderMismatch,
     "leaf_order is not a permutation of the node set; unexpected: ['z', 'z']; missing: ['a']"),
    ({"nodes": _nodes(), "coarse_order": []}, OrderMismatch,
     "coarse_order is not a permutation of the node set; missing: ['r']"),
    ({"nodes": _nodes({"name": "b", "parent": "c"}, {"name": "c", "parent": "b"})}, CycleDetected,
     "nodes unreachable from the root (cycle): 'b', 'c'"),
    ({"nodes": [{"name": "r", "parent": None}, {"name": "b", "parent": "c"},
                {"name": "c", "parent": "b"}]}, CycleDetected,
     "every node has a parent; cycle through: 'b', 'c'"),
], ids=["not-object", "nodes-not-list", "no-nodes", "node-int", "node-list", "no-parent",
        "no-name", "name-int", "name-empty", "name-list", "parent-empty", "parent-int",
        "duplicate", "first-fault-wins", "duplicate-before-bad-name", "extra-roots",
        "undeclared-parents", "leaf-order-str", "leaf-order-int", "coarse-order-object",
        "leaf-order-not-permutation", "coarse-order-empty", "cycle-beside-root",
        "cycle-only"])
def test_load_hierarchy_faults_name_the_problem(tmp_path, doc, error, message):
    path = tmp_path / "h.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(error) as caught:
        load_hierarchy(str(path))
    assert type(caught.value) is error
    assert str(caught.value) == message.format(p=path)


def _fields(t):
    return t.names, t.parent, t.root, t.leaf_order, t.coarse_order, t.depth, t.height


def test_hierarchy_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    trees = [random_taxonomy(rng, int(rng.integers(2, 120))) for _ in range(10)]
    trees += [gen_taxonomy(SynthConfig(b, 1, (1.0,) * len(b), 0)) for b in [(3,), (2, 3), (4, 1, 2)]]
    for i, t in enumerate(trees):
        edges = [(t.names[c], t.names[p]) for c, p in enumerate(t.parent) if p is not None]
        shuffled = build_taxonomy(edges, leaf_order=rng.permutation(t.leaf_names()).tolist(),
                                  coarse_order=rng.permutation(t.coarse_names()).tolist())
        for j, u in enumerate((t, shuffled)):
            path = tmp_path / f"rt{i}-{j}.json"
            save_hierarchy(u, str(path))
            assert _fields(load_hierarchy(str(path))) == _fields(u)
        # Without pinned orders a file gets the default ones, which t has.
        doc = json.loads(path.read_text())
        del doc["leaf_order"], doc["coarse_order"]
        path.write_text(json.dumps(doc))
        assert _fields(load_hierarchy(str(path))) == _fields(t)


def test_hierarchy_round_trip_preserves_custom_orders(tmp_path, flower_vehicle):
    path = str(tmp_path / "h.json")
    save_hierarchy(flower_vehicle, path)
    assert load_hierarchy(path).leaf_names() == ("rose", "tulip", "bus", "car")


# ----------------------------------------------------------- score files


def test_text_scores_parse(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("rose,tulip,bus,car\n0.4,0.1,0.35,0.15\n")
    m = read_scores(str(path))
    assert m.kind == PROBABILITIES
    assert m.class_names == ("rose", "tulip", "bus", "car")
    assert m.values.tolist() == [[0.4, 0.1, 0.35, 0.15]]


def test_text_scores_kind_comment_and_conflict(tmp_path):
    path = tmp_path / "s.csv"
    path.write_text("# kind: logits\na,b\n1.0,2.0\n")
    assert read_scores(str(path)).kind == LOGITS
    assert read_scores(str(path), declared_kind=LOGITS).kind == LOGITS
    with pytest.raises(KindConflict):
        read_scores(str(path), declared_kind=PROBABILITIES)


def test_text_scores_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1.0\n")
    with pytest.raises(ColumnMismatch):
        read_scores(str(ragged))

    junk = tmp_path / "junk.csv"
    junk.write_text("a,b\n1.0,oops\n")
    with pytest.raises(ParseError, match="oops"):
        read_scores(str(junk))

    inf = tmp_path / "inf.csv"
    inf.write_text("# kind: logits\na,b\n1.0,inf\n")
    with pytest.raises(NonFiniteValue):
        read_scores(str(inf))

    empty = tmp_path / "empty.csv"
    empty.write_text("a,b\n")
    with pytest.raises(EmptyInput):
        read_scores(str(empty))


def test_loaded_probabilities_are_validated(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0.6,0.5\n")
    with pytest.raises(RowSumViolation):
        read_scores(str(path))


def test_text_round_trip_is_value_exact(tmp_path):
    rng = np.random.default_rng(2)
    values = rng.random((7, 5))
    values /= values.sum(axis=1, keepdims=True)
    m = ScoreMatrix(values, PROBABILITIES, tuple("abcde"))
    path = str(tmp_path / "rt.csv")
    save_scores(m, path)
    back = read_scores(path)
    assert back.values.tolist() == m.values.tolist()
    assert back.kind == m.kind
    assert back.class_names == m.class_names


def test_binary_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    m = ScoreMatrix(rng.normal(size=(50, 9)), LOGITS, tuple(f"k{i}" for i in range(9)))
    path = str(tmp_path / "rt.hies")
    save_scores(m, path)
    back = read_scores(path)
    assert np.array_equal(back.values, m.values)
    assert back.kind == LOGITS
    assert back.class_names == m.class_names


def test_binary_header_errors(tmp_path):
    rng = np.random.default_rng(4)
    m = ScoreMatrix(rng.normal(size=(2, 2)), LOGITS, ("a", "b"))
    path = str(tmp_path / "x.hies")
    save_scores(m, path)

    raw = bytearray(Path(path).read_bytes())
    raw[4] = 9  # version byte
    bad = tmp_path / "badver.hies"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ParseError, match="version"):
        read_scores(str(bad))

    truncated = tmp_path / "short.hies"
    truncated.write_bytes(Path(path).read_bytes()[:-8])
    with pytest.raises(ParseError):
        read_scores(str(truncated))

    orphan = tmp_path / "orphan.hies"
    orphan.write_bytes(Path(path).read_bytes())
    with pytest.raises(ParseError, match="sidecar"):
        read_scores(str(orphan))


@pytest.mark.parametrize("suffix", [".hies", ".csv"])
def test_row_ranges_read_as_slices_of_the_whole(tmp_path, suffix):
    rng = np.random.default_rng(5)
    m = ScoreMatrix(rng.normal(size=(40, 6)), LOGITS, tuple("abcdef"))
    path = str(tmp_path / f"m{suffix}")
    save_scores(m, path)
    with ScoreReader(path) as reader:
        assert (reader.kind, reader.class_names, reader.n_rows) == (LOGITS, m.class_names, 40)
        # Out of order on purpose: a text reader rewinds for an earlier range.
        for start, stop in [(0, 40), (30, 33), (5, 9), (9, 10), (0, 1), (39, 40)]:
            block = reader.read(start, stop)
            assert np.array_equal(block.values, m.values[start:stop])
            assert block.first_row == start
    with ScoreReader(path) as reader:
        assert np.array_equal(reader.read(12, 20).values, m.values[12:20])


def test_row_range_errors_name_file_rows_and_lines(tmp_path):
    body = "".join(f"0.5,0.5\n" for _ in range(30))
    path = tmp_path / "late.csv"
    path.write_text("# a comment\na,b\n" + body + "0.5,oops\n0.2_5,0.75\n0.6,0.5\n-1.0,2.0\n")
    with ScoreReader(str(path)) as reader:
        assert reader.n_rows == 34
        assert reader.read(20, 30).first_row == 20
        with pytest.raises(ParseError, match=r"late.csv:33: not a number: 'oops'"):
            reader.read(25, 31)
        # float() would read a digit separator; the format has none
        with pytest.raises(ParseError, match=r"late.csv:34: not a number: '0.2_5'"):
            reader.read(31, 32)
        with pytest.raises(RowSumViolation, match="row 32 sums to 1.1"):
            reader.read(32, 33)
        with pytest.raises(NegativeEntry, match="row 33, column 0") as exc:
            reader.read(33, 34)
        with pytest.raises(ValueError):
            reader.read(30, 35)
    # Row faults name the file, and keep their type and position attributes.
    assert str(exc.value) == f"{path}: negative entry at row 33, column 0"
    assert (exc.value.row, exc.value.col) == (33, 0)
    # Within a row, the first bad token is named, be it not finite or no number.
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("a,b,c\n0.5,inf,x\n0.5,x,nan\n1e999,-inf,nan\n")
    with ScoreReader(str(mixed), LOGITS) as reader:
        with pytest.raises(NonFiniteValue) as exc:
            reader.read(0, 1)
        assert str(exc.value) == f"{mixed}: non-finite value at row 0, column 1"
        with pytest.raises(ParseError, match=r"mixed.csv:3: not a number: 'x'"):
            reader.read(1, 2)
        with pytest.raises(NonFiniteValue, match="row 2, column 0"):
            reader.read(2, 3)


def test_text_utf8_is_checked_across_read_chunks(tmp_path):
    # A two-byte character straddling the scanner's 1 MiB chunk boundary is
    # valid; a bad byte beyond it is reported at its position in the file.
    head = b"# " + b"x" * ((1 << 20) - 3) + "\u00e9".encode("utf-8") + b"\n"
    path = tmp_path / "big.csv"
    path.write_bytes(head + b"a,b\n0.25,0.75\n")
    assert read_scores(str(path)).values.tolist() == [[0.25, 0.75]]
    path.write_bytes(head + b"a,b\n0.25,0.75\xff\n")
    with pytest.raises(ParseError, match=rf"not valid UTF-8: .* position {len(head) + 13}:"):
        read_scores(str(path))


@pytest.mark.parametrize("suffix", [".hies", ".csv"])
def test_saving_blocks_writes_the_bytes_of_the_whole(tmp_path, suffix):
    rng = np.random.default_rng(6)
    m = ScoreMatrix(rng.normal(size=(23, 5)), LOGITS, tuple("vwxyz"))
    whole, blocks = str(tmp_path / f"whole{suffix}"), str(tmp_path / f"blocks{suffix}")
    save_scores(m, whole)
    save_scores((ScoreMatrix(m.values[r:r + 7], LOGITS, m.class_names) for r in range(0, 23, 7)),
                blocks)
    assert Path(blocks).read_bytes() == Path(whole).read_bytes()
    if suffix == ".hies":
        assert Path(blocks + ".names.json").read_bytes() == Path(whole + ".names.json").read_bytes()
    # A function's '.hies' blocks go to their own rows, whatever the order it writes them in.
    parts = [ScoreMatrix(m.values[r:r + 7], LOGITS, m.class_names, r) for r in range(0, 23, 7)]
    by_function = str(tmp_path / f"by_function{suffix}")
    save_scores(lambda write: [write(b) for b in parts[::-1 if suffix == ".hies" else 1]],
                by_function)
    assert Path(by_function).read_bytes() == Path(whole).read_bytes()


def test_a_block_that_raises_leaves_no_file(tmp_path):
    def blocks():
        yield ScoreMatrix([[0.5, 0.5]], PROBABILITIES, ("a", "b"))
        raise NonFiniteValue(1, 0)

    with pytest.raises(NonFiniteValue):
        save_scores(blocks(), str(tmp_path / "x.hies"))
    with pytest.raises(EmptyInput):
        save_scores(iter([]), str(tmp_path / "y.csv"))
    assert os.listdir(tmp_path) == []


def test_files_renamed_together_replace_nothing_until_the_block_ends(tmp_path, monkeypatch):
    m = ScoreMatrix([[0.5, 0.5]], PROBABILITIES, ("a", "b"))
    save_scores(m, str(tmp_path / "x.hies"))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    new = ScoreMatrix([[0.25, 0.75]], PROBABILITIES, ("a", "b"))
    with pytest.raises(NonFiniteValue), renamed_together() as staged:
        save_scores(new, str(tmp_path / "x.hies"), staged)
        save_scores(new, str(tmp_path / "y.csv"), staged)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.suffix != ".tmp"} == before
        raise NonFiniteValue(0, 0)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    # A sidecar that cannot be written leaves the file at its path as it was.
    def no_sidecar(doc, path, staged):
        raise InputError(f"cannot write {path}")

    with monkeypatch.context() as patch:
        patch.setattr(fileio, "write_json", no_sidecar)
        with pytest.raises(InputError, match="x.hies.names.json"), renamed_together() as staged:
            save_scores(new, str(tmp_path / "x.hies"), staged)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    with renamed_together() as staged:
        save_scores(new, str(tmp_path / "x.hies"), staged)
    assert read_scores(str(tmp_path / "x.hies")).values.tolist() == [[0.25, 0.75]]


def test_a_save_scores_whose_sidecar_cannot_land_leaves_no_new_file(tmp_path):
    # Given no block, the file and its sidecar are renamed in one of their own:
    # the file lands first and is removed again when the sidecar's rename fails.
    (tmp_path / "x.hies.names.json").mkdir()
    m = ScoreMatrix([[0.5, 0.5]], PROBABILITIES, ("a", "b"))
    with pytest.raises(InputError, match=r"cannot write .*/x\.hies\.names\.json: Is a directory"):
        save_scores(m, str(tmp_path / "x.hies"))
    assert os.listdir(tmp_path) == ["x.hies.names.json"]  # and no temp file


# ---------------------------------------------------------------- aligning


def test_align_permutes_by_name(flower_vehicle):
    t = flower_vehicle
    assert column_order(t.leaf_names(), t, "leaf") == (None, t.leaf_names())
    perm, names = column_order(tuple(reversed(t.leaf_names())), t, "leaf")
    assert perm.tolist() == [3, 2, 1, 0] and names == t.leaf_names()
    values = np.array([[0.15, 0.35, 0.1, 0.4]])
    assert np.take(values, perm, axis=1).tolist() == [[0.4, 0.1, 0.35, 0.15]]


def test_align_error_cases(flower_vehicle):
    t = flower_vehicle
    with pytest.raises(UnknownClass, match="weed"):
        column_order(("rose", "tulip", "bus", "weed"), t, "leaf")
    with pytest.raises(DuplicateClass):
        column_order(("rose", "rose", "bus", "car"), t, "leaf")
    with pytest.raises(MissingClass, match="car"):
        column_order(("rose", "tulip", "bus"), t, "leaf")


def test_align_coarse_and_depth(flower_vehicle):
    t = flower_vehicle
    for level in ("coarse", 1):
        perm, names = column_order(("vehicle", "flower"), t, level)
        assert perm.tolist() == [1, 0] and names == ("flower", "vehicle")


# ------------------------------------------------------------------ labels


def test_labels_round_trip(tmp_path, flower_vehicle):
    t = flower_vehicle
    path = str(tmp_path / "labels.txt")
    with write_labels(t, path) as write:  # two blocks, appended in order
        write([2, 0])
        write(np.array([3, 3]))
    assert load_labels(path, t).tolist() == [2, 0, 3, 3]


def test_labels_internal_node_rejected(tmp_path, flower_vehicle):
    path = tmp_path / "labels.txt"
    path.write_text("rose\nentity\n")
    with pytest.raises(UnknownLeaf) as exc:
        load_labels(str(path), flower_vehicle)
    assert exc.value.name == "entity"
    assert exc.value.line == 2
    assert str(exc.value) == f"{path}:2: 'entity' is not a leaf class"


def test_labels_empty_file(tmp_path, flower_vehicle):
    path = tmp_path / "labels.txt"
    path.write_text("")
    with pytest.raises(EmptyInput):
        load_labels(str(path), flower_vehicle)


# ----------------------------------------------------------------- reports


def read_report(path):
    return json.loads(Path(path).read_text())


def test_report_round_trip(tmp_path):
    config = {"kind": "logits", "ks": [1, 5, 20], "inputs": {"fine": "sha256:ab"}}
    report = EvalReport(method="hie", n_samples=64, n_mistakes=8, severity_sum=10,
                        hd_sums={20: 1344, 1: 10, 5: 256}, config=config)
    path = str(tmp_path / "report.json")
    write_report(report, path)
    assert read_report(path) == {
        "method": "hie",
        "top1_accuracy": 0.875,
        "avg_mistake_severity": 1.25,
        "hier_dist_at_k": {"1": 0.15625, "5": 0.8, "20": 1.05},
        "n_samples": 64,
        "n_mistakes": 8,
        "config": config,
    }


def test_report_round_trip_null_severity(tmp_path):
    report = EvalReport("argmax", 10, 0, 0, {1: 0}, {})
    path = str(tmp_path / "report.json")
    write_report(report, path)
    back = read_report(path)
    assert back["avg_mistake_severity"] is None
    assert back["top1_accuracy"] == 1.0 and back["hier_dist_at_k"] == {"1": 0.0}
