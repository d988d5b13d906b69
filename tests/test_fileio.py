import itertools
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import (SEVEN_NODE_PARENTS, SEVEN_NODE_LEAVES, random_taxonomy, read_scores,
                      save_matrix)
from hieval import fileio
from hieval.errors import InputError
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

BOM = "\ufeff".encode("utf-8")  # the UTF-8 byte-order mark, EF BB BF


def hierarchy_doc():
    nodes = [{"name": child, "parent": parent} for child, parent in SEVEN_NODE_PARENTS.items()]
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
    with pytest.raises(InputError, match="ghost"):
        load_hierarchy(str(path))


def test_load_hierarchy_bad_json(tmp_path):
    path = tmp_path / "h.json"
    path.write_text('{"nodes": [')
    with pytest.raises(InputError, match="h.json:1"):
        load_hierarchy(str(path))


def test_a_hierarchy_file_with_a_byte_order_mark_is_a_parse_error(tmp_path):
    path = tmp_path / "h.json"
    path.write_bytes(BOM + b'{"nodes": []}')
    with pytest.raises(InputError) as exc:
        load_hierarchy(str(path))
    assert str(exc.value) == f"{path}:1:1: Unexpected UTF-8 BOM (decode using utf-8-sig)"


def test_load_hierarchy_undeclared_parent(tmp_path):
    path = tmp_path / "h.json"
    path.write_text(json.dumps({"nodes": [{"name": "a", "parent": "nowhere"}]}))
    with pytest.raises(InputError, match="nowhere"):
        load_hierarchy(str(path))


def test_load_hierarchy_missing_file(tmp_path):
    with pytest.raises(InputError):
        load_hierarchy(str(tmp_path / "absent.json"))


def _nodes(*extra):
    return [{"name": "r", "parent": None}, {"name": "a", "parent": "r"}, *extra]


# Each fault's type and whole message; "{p}" is the file's path. When several
# nodes are faulty, the first one in file order is named.
@pytest.mark.parametrize("doc, error, message", [
    ([], InputError, "{p}: expected an object with a 'nodes' list"),
    ({"nodes": {}}, InputError, "{p}: expected an object with a 'nodes' list"),
    ({"nodes": []}, InputError, "{p}: 0 node(s); a hierarchy needs a root and a node below it"),
    ({"nodes": _nodes(5)}, InputError, "{p}: nodes[2] must have 'name' and 'parent'"),
    ({"nodes": _nodes(["b", "r"])}, InputError, "{p}: nodes[2] must have 'name' and 'parent'"),
    ({"nodes": _nodes({"name": "b"})}, InputError, "{p}: nodes[2] must have 'name' and 'parent'"),
    ({"nodes": _nodes({"parent": "r"})}, InputError, "{p}: nodes[2] must have 'name' and 'parent'"),
    ({"nodes": _nodes({"name": 3, "parent": "r"})}, InputError, "{p}: nodes[2] has an invalid name 3"),
    ({"nodes": _nodes({"name": "", "parent": "r"})}, InputError,
     "{p}: nodes[2] has an invalid name ''"),
    ({"nodes": _nodes({"name": ["b"], "parent": "r"})}, InputError,
     "{p}: nodes[2] has an invalid name ['b']"),
    ({"nodes": _nodes({"name": "b", "parent": ""})}, InputError,
     "{p}: nodes[2] has an invalid parent ''"),
    ({"nodes": _nodes({"name": "b", "parent": 7})}, InputError,
     "{p}: nodes[2] has an invalid parent 7"),
    ({"nodes": _nodes({"name": "a", "parent": "r"})}, InputError, "{p}: duplicate node name 'a'"),
    ({"nodes": _nodes({"name": "b", "parent": ""}, 5, {"name": "a", "parent": "r"})}, InputError,
     "{p}: nodes[2] has an invalid parent ''"),
    ({"nodes": _nodes({"name": "a", "parent": "r"}, {"name": 3, "parent": "r"})}, InputError,
     "{p}: duplicate node name 'a'"),
    ({"nodes": _nodes({"name": "z", "parent": None}, {"name": "b", "parent": None})}, InputError,
     "{p}: multiple null-parent nodes: 'b', 'r', 'z'"),
    ({"nodes": _nodes({"name": "b", "parent": "y"}, {"name": "c", "parent": "x"})}, InputError,
     "{p}: parent names never declared as nodes: 'x', 'y'"),
    ({"nodes": _nodes(), "leaf_order": "a"}, InputError, "{p}: leaf_order must be a list of names"),
    ({"nodes": _nodes(), "leaf_order": ["a", 1]}, InputError,
     "{p}: leaf_order must be a list of names"),
    ({"nodes": _nodes(), "coarse_order": {"r": 0}}, InputError,
     "{p}: coarse_order must be a list of names"),
    ({"nodes": _nodes({"name": "b", "parent": "r"}), "leaf_order": ["b", "z", "z"]}, InputError,
     "{p}: leaf_order is not a permutation of the node set; unexpected: ['z', 'z']; missing: ['a']"),
    ({"nodes": _nodes(), "coarse_order": []}, InputError,
     "{p}: coarse_order is not a permutation of the node set; missing: ['r']"),
    ({"nodes": _nodes({"name": "b", "parent": "c"}, {"name": "c", "parent": "b"})}, InputError,
     "{p}: nodes unreachable from the root (cycle): 'b', 'c'"),
    ({"nodes": [{"name": "r", "parent": None}, {"name": "b", "parent": "c"},
                {"name": "c", "parent": "b"}]}, InputError,
     "{p}: nodes unreachable from the root (cycle): 'b', 'c'"),
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
        parents = {name: None if p is None else t.names[p] for name, p in zip(t.names, t.parent)}
        shuffled = build_taxonomy(parents, leaf_order=rng.permutation(t.leaf_names()).tolist(),
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
    with pytest.raises(InputError):
        read_scores(str(path), declared_kind=PROBABILITIES)


def test_text_scores_errors(tmp_path):
    ragged = tmp_path / "ragged.csv"
    ragged.write_text("a,b\n1.0\n")
    with pytest.raises(InputError):
        read_scores(str(ragged))

    junk = tmp_path / "junk.csv"
    junk.write_text("a,b\n1.0,oops\n")
    with pytest.raises(InputError, match="oops"):
        read_scores(str(junk))

    inf = tmp_path / "inf.csv"
    inf.write_text("# kind: logits\na,b\n1.0,inf\n")
    with pytest.raises(InputError):
        read_scores(str(inf))

    empty = tmp_path / "empty.csv"
    empty.write_text("a,b\n")
    with pytest.raises(InputError):
        read_scores(str(empty))


def test_loaded_probabilities_are_validated(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0.6,0.5\n")
    with pytest.raises(InputError):
        read_scores(str(path))


def test_text_round_trip_is_value_exact(tmp_path):
    rng = np.random.default_rng(2)
    values = rng.random((7, 5))
    values /= values.sum(axis=1, keepdims=True)
    m = ScoreMatrix(values, PROBABILITIES, tuple("abcde"))
    path = str(tmp_path / "rt.csv")
    save_matrix(m, path)
    back = read_scores(path)
    assert back.values.tolist() == m.values.tolist()
    assert back.kind == m.kind
    assert back.class_names == m.class_names


# Names drawn mostly from the characters a text file's lines and header give meaning to.
NAMES = st.text(st.sampled_from(",#\n\r \t\x0b\x85\u2028ab") | st.characters(), max_size=4)


@settings(max_examples=200, deadline=None)
@given(st.lists(NAMES, min_size=1, max_size=4))
@example(["a", "b\ud800"])  # a lone surrogate: json.loads takes it, UTF-8 cannot encode it
def test_every_text_class_name_reads_back_or_is_refused_with_no_file(names):
    m = ScoreMatrix(np.zeros((1, len(names))), LOGITS, names)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scores.csv")
        try:
            save_matrix(m, path)
        except InputError as e:
            assert any(str(e).startswith(f"cannot write {path}: class name {name!r} ")
                       for name in names)
            assert os.listdir(tmp) == []
        else:
            assert read_scores(path).class_names == tuple(names)


def test_binary_round_trip_bitwise(tmp_path):
    rng = np.random.default_rng(3)
    m = ScoreMatrix(rng.normal(size=(50, 9)), LOGITS, tuple(f"k{i}" for i in range(9)))
    path = str(tmp_path / "rt.hies")
    save_matrix(m, path)
    back = read_scores(path)
    assert np.array_equal(back.values, m.values)
    assert back.kind == LOGITS
    assert back.class_names == m.class_names


def test_binary_header_errors(tmp_path):
    rng = np.random.default_rng(4)
    m = ScoreMatrix(rng.normal(size=(2, 2)), LOGITS, ("a", "b"))
    path = str(tmp_path / "x.hies")
    save_matrix(m, path)

    raw = bytearray(Path(path).read_bytes())
    raw[4] = 9  # version byte
    bad = tmp_path / "badver.hies"
    bad.write_bytes(bytes(raw))
    with pytest.raises(InputError, match="version"):
        read_scores(str(bad))

    truncated = tmp_path / "short.hies"
    truncated.write_bytes(Path(path).read_bytes()[:-8])
    with pytest.raises(InputError):
        read_scores(str(truncated))

    orphan = tmp_path / "orphan.hies"
    orphan.write_bytes(Path(path).read_bytes())
    with pytest.raises(InputError, match="sidecar"):
        read_scores(str(orphan))


@pytest.mark.parametrize("suffix", [".hies", ".csv"])
def test_row_ranges_read_as_slices_of_the_whole(tmp_path, suffix):
    rng = np.random.default_rng(5)
    m = ScoreMatrix(rng.normal(size=(40, 6)), LOGITS, tuple("abcdef"))
    path = str(tmp_path / f"m{suffix}")
    save_matrix(m, path)
    with ScoreReader(path) as reader:
        assert (reader.kind, reader.class_names, reader.n_rows) == (LOGITS, m.class_names, 40)
        # Out of order on purpose: an earlier range after a later one.
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
        with pytest.raises(InputError, match=r"late.csv:33: not a number: 'oops'"):
            reader.read(25, 31)
        # float() would read a digit separator; the format has none
        with pytest.raises(InputError, match=r"late.csv:34: not a number: '0.2_5'"):
            reader.read(31, 32)
        with pytest.raises(InputError, match="row 32 sums to 1.1"):
            reader.read(32, 33)
        with pytest.raises(InputError, match="row 33, column 0") as exc:
            reader.read(33, 34)
    # Row faults name the file.
    assert str(exc.value) == f"{path}: negative entry at row 33, column 0"
    # Within a row, the first bad token is named, be it not finite or no number.
    mixed = tmp_path / "mixed.csv"
    mixed.write_text("a,b,c\n0.5,inf,x\n0.5,x,nan\n1e999,-inf,nan\n")
    with ScoreReader(str(mixed), LOGITS) as reader:
        with pytest.raises(InputError) as exc:
            reader.read(0, 1)
        assert str(exc.value) == f"{mixed}: non-finite value at row 0, column 1"
        with pytest.raises(InputError, match=r"mixed.csv:3: not a number: 'x'"):
            reader.read(1, 2)
        with pytest.raises(InputError, match="row 2, column 0"):
            reader.read(2, 3)


def test_text_utf8_is_checked_across_read_chunks(tmp_path):
    # A two-byte character straddling the scanner's 1 MiB chunk boundary is
    # valid; a bad byte beyond it is met by the read of its row, named by its line.
    head = b"# " + b"x" * ((1 << 20) - 3) + "\u00e9".encode("utf-8") + b"\n"
    path = tmp_path / "big.csv"
    path.write_bytes(head + b"a,b\n0.25,0.75\n")
    assert read_scores(str(path)).values.tolist() == [[0.25, 0.75]]
    path.write_bytes(head + b"a,b\n0.25,0.75\xff\n")
    with ScoreReader(str(path)) as reader, pytest.raises(InputError) as exc:
        reader.read(0, 1)
    assert str(exc.value) == (f"{path}:3: not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
                              "in position 9: invalid start byte")


@pytest.mark.parametrize("start", [0, 1], ids=["read-from-it", "skipped-over"])
def test_a_text_row_that_stops_being_utf8_after_open_is_a_parse_error(tmp_path, start):
    # The byte written after open is met by the read that returns its row; a read
    # of a later row passes over it, for rows are read by position.
    path = tmp_path / "s.csv"
    path.write_bytes(b"# kind: probabilities\na,b\n0.5,0.5\n0.25,0.75\n")
    with ScoreReader(str(path)) as reader:
        with open(path, "r+b") as f:
            f.seek(len(b"# kind: probabilities\na,b\n0"))
            f.write(b"\xff")
        if start:
            assert reader.read(1, 2).values.tolist() == [[0.25, 0.75]]
        with pytest.raises(InputError) as exc:
            reader.read(0, 1)
    assert str(exc.value) == (f"{path}:3: not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
                              "in position 1: invalid start byte")


@pytest.mark.parametrize("head", [b"", b"# kind: logits\n"], ids=["no-kind-line", "kind-line"])
def test_a_byte_order_mark_at_byte_0_of_a_text_file_is_skipped(tmp_path, head):
    body = head + b"rose,tulip\n0.25,0.75\n0.5,0.5\n"
    (tmp_path / "plain.csv").write_bytes(body)
    (tmp_path / "bom.csv").write_bytes(BOM + body)
    plain, marked = (read_scores(str(tmp_path / name)) for name in ("plain.csv", "bom.csv"))
    assert (marked.kind, marked.class_names) == (plain.kind, plain.class_names)
    assert marked.values.tobytes() == plain.values.tobytes()
    # Lines keep their numbers.
    (tmp_path / "bom.csv").write_bytes(BOM + head + b"rose,tulip\n0.25,oops\n")
    with pytest.raises(InputError) as exc:
        read_scores(str(tmp_path / "bom.csv"))
    assert str(exc.value) == f"{tmp_path / 'bom.csv'}:{2 + len(head.splitlines())}: not a number: 'oops'"


@pytest.mark.parametrize("text, names, message", [
    (BOM * 2 + b"rose,tulip\n0.25,0.75\n", ("\ufeffrose", "tulip"), None),
    (b"# kind: logits\n" + BOM + b"rose,tulip\n0.25,0.75\n", ("\ufeffrose", "tulip"), None),
    (b"rose,tulip\n0.25," + BOM + b"0.75\n", None, "{path}:2: not a number: '\\ufeff0.75'"),
], ids=["second-mark", "after-the-kind-line", "in-a-row"])
def test_a_byte_order_mark_past_byte_0_is_part_of_its_line(tmp_path, text, names, message):
    path = tmp_path / "s.csv"
    path.write_bytes(text)
    if message is None:
        assert read_scores(str(path)).class_names == names
    else:
        with pytest.raises(InputError) as exc:
            read_scores(str(path))
        assert str(exc.value) == message.format(path=path)


MIB = 1 << 20


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_a_text_file_reads_as_its_hies_twin_in_any_order_of_ranges(data):
    # Text rows are read by position from the line starts found at open: the
    # comments, line endings and 1 MiB chunks of that open pass change no value.
    n_rows, n_cols = data.draw(st.integers(1, 10)), data.draw(st.integers(1, 4))
    values = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    m = ScoreMatrix(np.reshape(values, (n_rows, n_cols)), LOGITS,
                    tuple(f"c{i}" for i in range(n_cols)))
    eol = data.draw(st.sampled_from([b"\n", b"\r\n"]), label="line ending")
    comments = data.draw(st.lists(st.sampled_from(["# kind: logits", "#", "# \u00e9t\u00e9"]),
                                  max_size=3), label="comments")
    head = b"".join(c.encode("utf-8") + eol for c in comments)
    # A comment whose "\n" is the last byte of the open pass's first chunk, or the first
    # byte of its second; or a comment longer than a chunk; or none.
    newline_at = data.draw(st.sampled_from([None, MIB - 1, MIB, 3 * MIB // 2]), label="newline at")
    if newline_at is not None:
        head += b"#" + b"x" * (newline_at - len(head) - 1) + b"\n"
    rows = [",".join(map(repr, row)).encode() for row in m.values.tolist()]
    if data.draw(st.booleans(), label="a row longer than a chunk"):
        rows[0] += b" " * MIB  # float() strips it
    text = eol.join([",".join(m.class_names).encode(), *rows])
    text += eol if data.draw(st.booleans(), label="newline at the end") else b""
    ranges = data.draw(st.lists(st.integers(0, n_rows - 1).flatmap(
        lambda a: st.tuples(st.just(a), st.integers(a + 1, n_rows))), min_size=1, max_size=6))
    with tempfile.TemporaryDirectory() as tmp:
        Path(tmp, "m.csv").write_bytes(head + text)
        save_matrix(m, os.path.join(tmp, "m.hies"))
        with ScoreReader(os.path.join(tmp, "m.csv"), LOGITS) as t, \
                ScoreReader(os.path.join(tmp, "m.hies")) as b:
            assert (t.kind, t.class_names, t.n_rows) == (b.kind, b.class_names, b.n_rows)
            for start, stop in ranges:
                assert t.read(start, stop).values.tobytes() == b.read(start, stop).values.tobytes()


@pytest.mark.parametrize("suffix", [".hies", ".csv"])
def test_a_read_leaves_the_reader_as_it_was(tmp_path, suffix):
    # A reader holds no read position: all that a read needs is fixed at open.
    m = ScoreMatrix(np.random.default_rng(7).normal(size=(30, 3)), LOGITS, ("a", "b", "c"))
    path = str(tmp_path / f"m{suffix}")
    save_matrix(m, path)
    with ScoreReader(path) as reader:
        def state():
            return {k: v.tobytes() if isinstance(v, np.ndarray) else v
                    for k, v in vars(reader).items()}

        before = state()
        for start, stop in [(5, 9), (0, 30), (29, 30), (0, 1)]:
            assert np.array_equal(reader.read(start, stop).values, m.values[start:stop])
            assert state() == before


@pytest.mark.parametrize("suffix", [".hies", ".csv"])
def test_saving_blocks_writes_the_bytes_of_the_whole(tmp_path, suffix):
    rng = np.random.default_rng(6)
    m = ScoreMatrix(rng.normal(size=(23, 5)), LOGITS, tuple("vwxyz"))
    whole, blocks = str(tmp_path / f"whole{suffix}"), str(tmp_path / f"blocks{suffix}")
    save_matrix(m, whole)
    parts = [ScoreMatrix(m.values[r:r + 7], LOGITS, m.class_names, r) for r in range(0, 23, 7)]
    # Text blocks come in row order; '.hies' blocks go to their own rows, whatever the order.
    for order in [parts] if suffix == ".csv" else itertools.permutations(parts):
        def fill(write):
            for block in order:
                write(block)

        save_scores(fill, blocks)
        assert Path(blocks).read_bytes() == Path(whole).read_bytes()
        if suffix == ".hies":
            assert (Path(blocks + ".names.json").read_bytes()
                    == Path(whole + ".names.json").read_bytes())


def test_a_block_that_raises_leaves_no_file(tmp_path):
    # A fill that raises after a block, or that passes no block, leaves no file.
    def raising(write):
        write(ScoreMatrix([[0.5, 0.5]], PROBABILITIES, ("a", "b")))
        raise InputError("row 1")

    for suffix in (".hies", ".csv"):
        with pytest.raises(InputError):
            save_scores(raising, str(tmp_path / f"x{suffix}"))
        with pytest.raises(InputError, match=f"y{suffix}: no rows to write"):
            save_scores(lambda write: None, str(tmp_path / f"y{suffix}"))
    assert os.listdir(tmp_path) == []


def test_files_renamed_together_replace_nothing_until_the_block_ends(tmp_path, monkeypatch):
    m = ScoreMatrix([[0.5, 0.5]], PROBABILITIES, ("a", "b"))
    save_matrix(m, str(tmp_path / "x.hies"))
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    new = ScoreMatrix([[0.25, 0.75]], PROBABILITIES, ("a", "b"))
    with pytest.raises(InputError), renamed_together() as staged:
        save_scores(lambda write: write(new), str(tmp_path / "x.hies"), staged)
        save_scores(lambda write: write(new), str(tmp_path / "y.csv"), staged)
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir() if p.suffix != ".tmp"} == before
        raise InputError("row 0")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    # A sidecar that cannot be written leaves the file at its path as it was.
    def no_sidecar(doc, path, staged):
        raise InputError(f"cannot write {path}")

    with monkeypatch.context() as patch:
        patch.setattr(fileio, "write_json", no_sidecar)
        with pytest.raises(InputError, match="x.hies.names.json"), renamed_together() as staged:
            save_scores(lambda write: write(new), str(tmp_path / "x.hies"), staged)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    with renamed_together() as staged:
        save_scores(lambda write: write(new), str(tmp_path / "x.hies"), staged)
    assert read_scores(str(tmp_path / "x.hies")).values.tolist() == [[0.25, 0.75]]


def test_a_save_scores_whose_sidecar_cannot_land_leaves_no_new_file(tmp_path):
    # Given no block, the file and its sidecar are renamed in one of their own:
    # the file lands first and is removed again when the sidecar's rename fails.
    (tmp_path / "x.hies.names.json").mkdir()
    m = ScoreMatrix([[0.5, 0.5]], PROBABILITIES, ("a", "b"))
    with pytest.raises(InputError, match=r"cannot write .*/x\.hies\.names\.json: Is a directory"):
        save_matrix(m, str(tmp_path / "x.hies"))
    assert os.listdir(tmp_path) == ["x.hies.names.json"]  # and no temp file


def test_a_failed_rename_puts_back_every_file_the_block_replaced(tmp_path):
    # a.json is a file and b.json a link to one; c.json is a directory, so its
    # rename fails after the other two have landed.
    (tmp_path / "a.json").write_text("old a")
    (tmp_path / "t.json").write_text("old t")
    (tmp_path / "b.json").symlink_to("t.json")
    (tmp_path / "c.json").mkdir()
    with pytest.raises(InputError, match=r"cannot write .*/c\.json: Is a directory"):
        with renamed_together() as staged:
            for name in ("a.json", "b.json", "c.json"):
                fileio.write_json({"new": name}, str(tmp_path / name), staged)
    assert sorted(os.listdir(tmp_path)) == ["a.json", "b.json", "c.json", "t.json"]  # no link kept
    assert (tmp_path / "a.json").read_text() == "old a"
    assert os.readlink(tmp_path / "b.json") == "t.json"
    assert (tmp_path / "t.json").read_text() == "old t"
    assert os.listdir(tmp_path / "c.json") == []


def test_files_renamed_together_keep_no_link_once_they_land(tmp_path, monkeypatch):
    # A target with no file yet costs one failed link; a replaced one's link goes at the end.
    (tmp_path / "a.json").write_text("old a")
    links, link = [], os.link

    def counted(src, dst, **kwargs):
        links.append(Path(src).name)
        return link(src, dst, **kwargs)

    monkeypatch.setattr(os, "link", counted)
    with renamed_together() as staged:
        for name in ("a.json", "b.json"):
            fileio.write_json({"new": name}, str(tmp_path / name), staged)
    assert links == ["a.json", "b.json"]
    assert sorted(os.listdir(tmp_path)) == ["a.json", "b.json"]
    assert json.loads((tmp_path / "a.json").read_text()) == {"new": "a.json"}


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
    with pytest.raises(InputError, match="weed"):
        column_order(("rose", "tulip", "bus", "weed"), t, "leaf")
    with pytest.raises(InputError):
        column_order(("rose", "rose", "bus", "car"), t, "leaf")
    with pytest.raises(InputError, match="car"):
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
    def fill(write):  # two blocks, appended in order
        write([2, 0])
        write(np.array([3, 3]))

    write_labels(t, fill, path)
    assert load_labels(path, t).tolist() == [2, 0, 3, 3]


@settings(max_examples=200, deadline=None)
@given(st.lists(NAMES.filter(bool), min_size=2, max_size=4, unique=True))
@example(["a", "b\ud800"])
@example(["\ufeff", ","])  # a first line that starts with a byte-order mark loses it
def test_every_leaf_name_reads_back_from_a_labels_file_or_is_refused_with_no_file(leaves):
    t = build_taxonomy({"root!": None, **dict.fromkeys(leaves, "root!")}, leaf_order=leaves)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "labels.txt")
        try:
            write_labels(t, lambda write: write(range(len(leaves))), path)
        except InputError as e:
            assert any(str(e) in (f"cannot write {path}: leaf name {name!r} holds a line break",
                                  f"cannot write {path}: leaf name {name!r} holds a lone surrogate",
                                  f"cannot write {path}: leaf name {name!r} starts with a byte-order "
                                  "mark")
                       for name in leaves)
            assert os.listdir(tmp) == []
        else:
            assert load_labels(path, t).tolist() == list(range(len(leaves)))


def test_labels_internal_node_rejected(tmp_path, flower_vehicle):
    path = tmp_path / "labels.txt"
    path.write_text("rose\nentity\n")
    with pytest.raises(InputError) as exc:
        load_labels(str(path), flower_vehicle)
    assert str(exc.value) == f"{path}:2: 'entity' is not a leaf class"


def test_a_labels_file_skips_a_byte_order_mark_at_byte_0_only(tmp_path, flower_vehicle):
    path = tmp_path / "labels.txt"
    path.write_bytes(BOM + b"bus\nrose\n")
    assert load_labels(str(path), flower_vehicle).tolist() == [2, 0]
    path.write_bytes(b"bus\n" + BOM + b"rose\n")
    with pytest.raises(InputError) as exc:
        load_labels(str(path), flower_vehicle)
    assert str(exc.value) == f"{path}:2: '\\ufeffrose' is not a leaf class"


def test_labels_empty_file(tmp_path, flower_vehicle):
    path = tmp_path / "labels.txt"
    path.write_text("")
    with pytest.raises(InputError):
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
