import contextlib
import ctypes
import errno
import io
import json
import os
import pstats
import stat
import struct
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings

from conftest import (SEVEN_NODE_PARENTS, SEVEN_NODE_LEAVES, dense_expected_costs, read_scores,
                      save_matrix, taxonomies)
from hieval import cli, fileio, synth, taxonomy
from hieval.cli import run
from hieval.commands import METHODS
from hieval.ensemble import hie_combine, hie_self
from hieval.fileio import load_hierarchy, load_labels, save_hierarchy
from hieval.metrics import eval_report
from hieval.risk import crm_rerank
from hieval.scores import PROBABILITIES, ScoreMatrix, softmax_rows, top_k
from hieval.taxonomy import ancestor_index_map, parent_index_map


@pytest.fixture
def workspace(tmp_path):
    """Hierarchy, fine/coarse probability files, and labels for one sample."""
    nodes = [{"name": c, "parent": p} for c, p in SEVEN_NODE_PARENTS.items()]
    (tmp_path / "hierarchy.json").write_text(
        json.dumps({"nodes": nodes, "leaf_order": SEVEN_NODE_LEAVES})
    )
    (tmp_path / "fine.csv").write_text(
        "# kind: probabilities\nrose,tulip,bus,car\n0.4,0.1,0.35,0.15\n"
    )
    (tmp_path / "coarse.csv").write_text(
        "# kind: probabilities\nflower,vehicle\n0.2,0.8\n"
    )
    (tmp_path / "labels.txt").write_text("bus\n")
    return tmp_path


def paths(ws, *names):
    return [str(ws / n) for n in names]


# ---------------------------------------------------------------- validate


def test_validate_fixture(workspace, capsys):
    code = run(["validate", "--hierarchy", str(workspace / "hierarchy.json")])
    assert code == 0
    assert capsys.readouterr().out.strip() == "nodes=7 leaves=4 coarse=2 depth=2 leveled=yes"


def test_validate_cycle(tmp_path, capsys):
    doc = {"nodes": [
        {"name": "r", "parent": None},
        {"name": "x", "parent": "r"},
        {"name": "a", "parent": "b"},
        {"name": "b", "parent": "a"},
    ]}
    path = tmp_path / "cyclic.json"
    path.write_text(json.dumps(doc))
    code = run(["validate", "--hierarchy", str(path)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"InputError: {path}: nodes unreachable from the root (cycle): 'a', 'b'\n")


def _hang_the_root_on_a_cycle(doc):
    doc["nodes"] += [{"name": "+a", "parent": "+b"}, {"name": "+b", "parent": "+a"}]
    next(n for n in doc["nodes"] if n["parent"] is None)["parent"] = "+a"


# One fault each, injected into a saved hierarchy document, and its line after "{path}: ";
# "{root}", "{last}", "{n}" and "{leaf}" are the root's name, the last node's name, the node
# count and the last name in leaf_order, before the fault. Added names start with "+", which sorts before every drawn name.
HIERARCHY_FAULTS = {
    "second-root": ("multiple null-parent nodes: '+r', {root!r}",
                    lambda doc: doc["nodes"].append({"name": "+r", "parent": None})),
    "cycle-beside-root": ("nodes unreachable from the root (cycle): '+a', '+b'",
                          lambda doc: doc["nodes"].extend(
                              [{"name": "+a", "parent": "+b"}, {"name": "+b", "parent": "+a"}])),
    "cycle-through-root": ("every node has a parent; cycle through: '+a', '+b'",
                           _hang_the_root_on_a_cycle),
    "undeclared-parent": ("parent names never declared as nodes: '+y'",
                          lambda doc: doc["nodes"].append({"name": "+x", "parent": "+y"})),
    "repeated-name": ("duplicate node name {last!r}",
                      lambda doc: doc["nodes"].append(dict(doc["nodes"][-1]))),
    "order-missing-a-leaf": ("leaf_order is not a permutation of the node set; missing: [{leaf!r}]",
                             lambda doc: doc["leaf_order"].pop()),
    "lone-root": ("1 node(s); a hierarchy needs a root and a node below it",
                  lambda doc: doc.update(nodes=[n for n in doc["nodes"] if n["parent"] is None],
                                         leaf_order=[], coarse_order=[])),
    "no-nodes-list": ("expected an object with a 'nodes' list", lambda doc: doc.update(nodes={})),
    "node-without-parent": ("nodes[{n}] must have 'name' and 'parent'",
                            lambda doc: doc["nodes"].append({"name": "+x"})),
    "invalid-parent": ("nodes[{n}] has an invalid parent 7",
                       lambda doc: doc["nodes"].append({"name": "+x", "parent": 7})),
}


@pytest.mark.parametrize("fault", HIERARCHY_FAULTS)
@settings(max_examples=15, deadline=None)
@given(taxonomies())
def test_validate_names_the_file_of_each_fault_in_one_line(fault, t):
    line, inject = HIERARCHY_FAULTS[fault]
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "h.json")
        save_hierarchy(t, path)
        u = load_hierarchy(path)
        assert (u.names, u.parent, u.leaf_order, u.coarse_order) == (
            t.names, t.parent, t.leaf_order, t.coarse_order)
        with open(path) as f:
            doc = json.load(f)
        known = {"root": t.names[t.root], "last": doc["nodes"][-1]["name"],
                 "n": len(doc["nodes"]), "leaf": doc["leaf_order"][-1]}
        inject(doc)
        with open(path, "w") as f:
            json.dump(doc, f)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            assert run(["validate", "--hierarchy", path]) == 2
    assert err.getvalue() == f"InputError: {path}: {line.format(**known)}\n"


def test_a_node_name_that_no_utf8_file_holds_is_refused_in_one_line(workspace, capsys):
    # JSON's "\ud800" is a lone surrogate: json.loads takes it, and no UTF-8 file holds it,
    # so a header or predictions file naming it could not be written.
    bad = "car\ud800"
    parents = {bad if c == "car" else c: p for c, p in SEVEN_NODE_PARENTS.items()}
    nodes = [{"name": c, "parent": p} for c, p in parents.items()]
    leaves = [bad if c == "car" else c for c in SEVEN_NODE_LEAVES]
    hierarchy, fine, out = workspace / "surrogate.json", workspace / "f.hies", workspace / "out"
    hierarchy.write_text(json.dumps({"nodes": nodes, "leaf_order": leaves}))
    save_matrix(ScoreMatrix(np.full((1, 4), 0.25), PROBABILITIES, leaves), str(fine))
    i = [*parents].index(bad)
    message = f"InputError: {hierarchy}: nodes[{i}] has an invalid name {bad!r}\n"
    assert run(["validate", "--hierarchy", str(hierarchy)]) == 2
    assert capsys.readouterr().err == message
    out.mkdir()
    assert run(["infer", "--hierarchy", str(hierarchy), "--fine", str(fine),
                "--out", str(out / "o.csv")]) == 2
    assert capsys.readouterr().err == message
    assert os.listdir(out) == []


# ------------------------------------------------------------------- infer


def test_infer_hie_flips_to_bus(workspace):
    hierarchy, fine, coarse = paths(workspace, "hierarchy.json", "fine.csv", "coarse.csv")
    out = str(workspace / "combined.csv")
    code = run(["infer", "--hierarchy", hierarchy, "--fine", fine,
                "--coarse", coarse, "--method", "hie", "--out", out])
    assert code == 0
    assert (workspace / "combined.csv.preds.txt").read_text() == "bus\n"
    m = read_scores(out)
    np.testing.assert_allclose(m.values[0], [0.16, 0.04, 0.56, 0.24], atol=1e-12)


# -1e-9 is within FILE_TOL, so the file is accepted; the product of row 1 is
# under 1e-300 at the zero, and the log-space redo weighs the negative entry as 0.
@pytest.mark.parametrize("method", ["hie", "hie-self", "cascade"])
def test_infer_weighs_a_tolerated_negative_entry_as_zero(workspace, capsys, method):
    (workspace / "fine.csv").write_text(
        "# kind: probabilities\nrose,tulip,bus,car\n0.4,0.1,0.35,0.15\n0.5,0.500000001,-1e-9,0.0\n"
    )
    (workspace / "coarse.csv").write_text("# kind: probabilities\nflower,vehicle\n0.2,0.8\n0.5,0.5\n")
    hierarchy, fine, coarse = paths(workspace, "hierarchy.json", "fine.csv", "coarse.csv")
    extra = {"hie": ["--coarse", coarse], "hie-self": [], "cascade": ["--level", f"1={coarse}"]}
    out = workspace / "combined.csv"
    code = run(["infer", "--hierarchy", hierarchy, "--fine", fine, *extra[method],
                "--method", method, "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines()[3] == "0.4999999995,0.5000000005,0.0,0.0"
    assert (workspace / "combined.csv.preds.txt").read_text().splitlines()[1] == "tulip"


def test_infer_argmax_says_rose(workspace):
    hierarchy, fine = paths(workspace, "hierarchy.json", "fine.csv")
    out = str(workspace / "plain.csv")
    assert run(["infer", "--hierarchy", hierarchy, "--fine", fine, "--out", out]) == 0
    assert (workspace / "plain.csv.preds.txt").read_text() == "rose\n"


def test_infer_hie_requires_coarse(workspace, capsys):
    hierarchy, fine = paths(workspace, "hierarchy.json", "fine.csv")
    code = run(["infer", "--hierarchy", hierarchy, "--fine", fine,
                "--method", "hie", "--out", str(workspace / "x.csv")])
    assert code == 2
    assert "--coarse" in capsys.readouterr().err


def test_infer_requires_out(workspace, capsys):
    hierarchy, fine = paths(workspace, "hierarchy.json", "fine.csv")
    with pytest.raises(SystemExit) as exc:  # argparse's check, as for every required flag
        run(["infer", "--hierarchy", hierarchy, "--fine", fine])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hieval infer ")
    assert err.endswith("error: the following arguments are required: --out\n")


@pytest.mark.parametrize("command", ["infer", "eval"])
def test_unknown_method_names_the_valid_ones(workspace, capsys, command):
    hierarchy, fine, labels = paths(workspace, "hierarchy.json", "fine.csv", "labels.txt")
    args = [command, "--hierarchy", hierarchy, "--fine", fine, "--method", "bogus",
            "--out", str(workspace / "x.csv")]
    if command == "eval":
        args += ["--labels", labels]
    assert run(args) == 2
    err = capsys.readouterr().err
    assert "unknown method 'bogus'" in err
    assert ", ".join(METHODS) in err


# A failing write of either output (or of the '.names.json' sidecar) leaves
# neither behind; a directory in an output's place is refused before any row.
@pytest.mark.parametrize("fault, suffix", [
    (fault, suffix)
    for fault in ["preds-is-a-directory", "preds-dir-missing", "out-is-a-directory"]
    for suffix in [".csv", ".hies"]
] + [("sidecar-is-a-directory", ".hies")])
def test_a_failing_infer_write_leaves_neither_output(workspace, capsys, fault, suffix):
    out = workspace / f"combined{suffix}"
    preds, failed = {
        "preds-is-a-directory": (workspace / "a_directory",) * 2,
        "preds-dir-missing": (workspace / "missing" / "p.txt",) * 2,
        "out-is-a-directory": (workspace / "p.txt", out),
        "sidecar-is-a-directory": (workspace / "p.txt", workspace / f"combined{suffix}.names.json"),
    }[fault]
    if fault != "preds-dir-missing":
        failed.mkdir()
    before = sorted(os.listdir(workspace))
    hierarchy, fine = paths(workspace, "hierarchy.json", "fine.csv")
    code = run(["infer", "--hierarchy", hierarchy, "--fine", fine, "--method", "crm",
                "--out", str(out), "--preds-out", str(preds)])
    assert code == 2
    assert capsys.readouterr().err.startswith(f"InputError: cannot write {failed}: ")
    assert sorted(os.listdir(workspace)) == before
    assert all(not os.listdir(p) for p in workspace.iterdir() if p.is_dir())


@pytest.mark.parametrize("suffix, preds", [
    (".hies", "combined.hies"),
    (".hies", "combined.hies.names.json"),
    (".csv", "combined.csv"),
], ids=["hies-itself", "hies-sidecar", "csv-itself"])
def test_infer_refuses_predictions_over_its_scores(workspace, capsys, monkeypatch, suffix, preds):
    hierarchy, fine = paths(workspace, "hierarchy.json", "fine.csv")
    before = sorted(os.listdir(workspace))
    monkeypatch.chdir(workspace)  # the same file by a relative and an absolute path
    code = run(["infer", "--hierarchy", hierarchy, "--fine", fine, "--method", "crm",
                "--out", f"combined{suffix}", "--preds-out", str(workspace / preds)])
    assert code == 2
    assert capsys.readouterr().err == (
        f"InputError: --preds-out {workspace / preds} would overwrite what "
        f"--out combined{suffix} writes\n")
    assert sorted(os.listdir(workspace)) == before


@pytest.mark.parametrize("leaf, refused", [
    ("tu,lip", "o.csv: class name 'tu,lip' cannot be read back from a text header; "
               "write a .hies file instead"),
    ("car\nx", "o.csv.preds.txt: leaf name 'car\\nx' holds a line break"),
], ids=["comma", "line-break"])
def test_infer_refuses_a_text_output_that_would_not_read_back(tmp_path, capsys, leaf, refused):
    parents = {leaf if c == "tulip" else c: p for c, p in SEVEN_NODE_PARENTS.items()}
    nodes = [{"name": c, "parent": p} for c, p in parents.items()]
    (tmp_path / "hierarchy.json").write_text(json.dumps({"nodes": nodes}))
    names = sorted(set(parents) - set(parents.values()))  # the leaves
    save_matrix(ScoreMatrix(np.eye(4)[:1], PROBABILITIES, names), str(tmp_path / "fine.hies"))
    before = sorted(os.listdir(tmp_path))
    code = run(["infer", "--hierarchy", str(tmp_path / "hierarchy.json"),
                "--fine", str(tmp_path / "fine.hies"), "--out", str(tmp_path / "o.csv")])
    assert code == 2
    assert capsys.readouterr().err == f"InputError: cannot write {tmp_path}/{refused}\n"
    assert sorted(os.listdir(tmp_path)) == before


def test_infer_logits_kind_applies_softmax(workspace):
    logits = workspace / "fine_logits.csv"
    logits.write_text("# kind: logits\nrose,tulip,bus,car\n0.0,0.0,0.0,0.0\n")
    out = str(workspace / "sm.csv")
    code = run(["infer", "--hierarchy", str(workspace / "hierarchy.json"),
                "--fine", str(logits), "--out", out])
    assert code == 0
    assert read_scores(out).values.tolist() == [[0.25, 0.25, 0.25, 0.25]]


# -------------------------------------------------------------------- eval


def test_eval_hie_report(workspace, capsys):
    hierarchy, fine, coarse, labels = paths(
        workspace, "hierarchy.json", "fine.csv", "coarse.csv", "labels.txt"
    )
    report_path = str(workspace / "report.json")
    code = run(["eval", "--hierarchy", hierarchy, "--fine", fine, "--coarse", coarse,
                "--labels", labels, "--method", "hie", "--k", "1", "--out", report_path])
    assert code == 0
    row = capsys.readouterr().out.strip()
    assert row.startswith("hie\t0.000000\t-")
    report = json.loads(Path(report_path).read_text())
    assert report["top1_accuracy"] == 1.0
    assert report["avg_mistake_severity"] is None  # all-correct: severity is null
    assert report["n_mistakes"] == 0
    assert report["config"]["inputs"]["fine"].startswith("sha256:")


@pytest.mark.parametrize("method", ["argmax", "crm"])
def test_eval_k_too_large(workspace, capsys, method):
    hierarchy, fine, labels = paths(workspace, "hierarchy.json", "fine.csv", "labels.txt")
    code = run(["eval", "--hierarchy", hierarchy, "--fine", fine,
                "--labels", labels, "--method", method, "--k", "2000"])
    assert code == 3
    assert capsys.readouterr().err == f"DataError: --k 2000 is above the 4 leaves of {hierarchy}\n"


def test_eval_refuses_a_k_above_the_leaf_count_before_any_row(workspace, capsys):
    # The default --k 1,5,20 on four leaves; row 0 also holds a NaN, met only on reading it.
    (workspace / "fine.csv").write_text("rose,tulip,bus,car\nnan,0.1,0.35,0.15\n")
    hierarchy, fine, labels = paths(workspace, "hierarchy.json", "fine.csv", "labels.txt")
    code = run(["eval", "--hierarchy", hierarchy, "--fine", fine, "--labels", labels])
    assert code == 3
    assert capsys.readouterr().err == f"DataError: --k 20 is above the 4 leaves of {hierarchy}\n"


def test_eval_length_mismatch(workspace, capsys):
    two_rows = workspace / "two.csv"
    two_rows.write_text("rose,tulip,bus,car\n0.4,0.1,0.35,0.15\n0.25,0.25,0.25,0.25\n")
    hierarchy, labels = paths(workspace, "hierarchy.json", "labels.txt")
    code = run(["eval", "--hierarchy", hierarchy, "--fine", str(two_rows),
                "--labels", labels, "--k", "1"])
    assert code == 3
    assert "DataError: 2 predictions vs 1 labels\n" in capsys.readouterr().err


@pytest.mark.parametrize("content, message", [
    (b"\xffbus\n", "not valid UTF-8"),
    (b"bus\r\n", "CRLF line endings"),
])
def test_eval_rejects_unreadable_labels(workspace, capsys, content, message):
    (workspace / "labels.txt").write_bytes(content)
    hierarchy, fine, labels = paths(workspace, "hierarchy.json", "fine.csv", "labels.txt")
    code = run(["eval", "--hierarchy", hierarchy, "--fine", fine, "--labels", labels, "--k", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert f"InputError: {labels}: {message}" in err


@pytest.mark.parametrize("target", ["missing/report.json", "a_directory"])
def test_eval_unwritable_out_exits_2_and_leaves_no_temp_file(workspace, capsys, target):
    (workspace / "a_directory").mkdir()
    before = sorted(os.listdir(workspace))
    hierarchy, fine, labels = paths(workspace, "hierarchy.json", "fine.csv", "labels.txt")
    out = str(workspace / target)
    code = run(["eval", "--hierarchy", hierarchy, "--fine", fine, "--labels", labels,
                "--k", "1", "--out", out])
    assert code == 2
    assert f"InputError: cannot write {out}: " in capsys.readouterr().err
    assert sorted(os.listdir(workspace)) == before


@pytest.mark.parametrize("output", ["compare --out", "infer --preds-out", "infer sidecar",
                                    "eval --out link", "synth --out-dir file"])
def test_an_output_path_that_is_a_fifo_is_refused_in_one_line_and_stays_one(workspace, capsys,
                                                                           output):
    # Writing renames a temp file over its path, which would put a regular file where the
    # FIFO (or, through a link, the device) was.
    hierarchy, fine, coarse, labels = paths(workspace, "hierarchy.json", "fine.csv", "coarse.csv",
                                            "labels.txt")
    inputs = ["--hierarchy", hierarchy, "--fine", fine, "--coarse", coarse]
    scored = [*inputs, "--labels", labels, "--k", "1"]
    out = workspace / "out"
    out.mkdir()
    fifo = out / {"infer sidecar": "s.hies.names.json", "synth --out-dir file": "labels.txt"}.get(
        output, "fifo")
    os.mkfifo(fifo)
    target = out / "link.json" if output == "eval --out link" else fifo
    if target != fifo:
        target.symlink_to(fifo)
    argv = {"compare --out": ["compare", *scored, "--methods", "argmax,hie", "--out", str(fifo)],
            "infer --preds-out": ["infer", *inputs, "--method", "hie", "--out", str(out / "s.csv"),
                                  "--preds-out", str(fifo)],
            "infer sidecar": ["infer", *inputs, "--method", "hie", "--out", str(out / "s.hies")],
            "eval --out link": ["eval", *scored, "--method", "hie", "--out", str(target)],
            "synth --out-dir file": ["synth", "--branching", "2,2", "--noise", "1,1",
                                     "--n-samples", "3", "--out-dir", str(out)]}[output]
    before = sorted(os.listdir(out))
    assert run(argv) == 2
    assert capsys.readouterr() == (
        "", f"InputError: cannot write {target}: not a regular file, which writing replaces\n")
    assert sorted(os.listdir(out)) == before  # no temp file, and nothing written beside it
    assert stat.S_ISFIFO(os.stat(target).st_mode) and target.is_symlink() == (target != fifo)


@pytest.mark.parametrize("output", ["infer --out", "infer sidecar", "infer --preds-out",
                                    "eval --out", "compare --out", "synth --out-dir file"])
def test_an_output_path_that_is_a_directory_is_refused_before_any_input_is_read(
        workspace, capsys, monkeypatch, output):
    # No rename replaces a directory: the run would fail at its end, after every row.
    hierarchy, fine, coarse, labels = paths(workspace, "hierarchy.json", "fine.csv", "coarse.csv",
                                            "labels.txt")
    inputs = ["--hierarchy", hierarchy, "--fine", fine, "--coarse", coarse]
    scored = [*inputs, "--labels", labels, "--k", "1"]
    out = workspace / "out"
    directory = out / {"infer --out": "s.csv", "infer sidecar": "s.hies.names.json",
                       "synth --out-dir file": "fine.hies"}.get(output, "dir")
    directory.mkdir(parents=True)
    argv = {"infer --out": ["infer", *inputs, "--method", "hie", "--out", str(directory)],
            "infer sidecar": ["infer", *inputs, "--method", "hie", "--out", str(out / "s.hies")],
            "infer --preds-out": ["infer", *inputs, "--method", "hie", "--out", str(out / "s.csv"),
                                  "--preds-out", str(directory)],
            "eval --out": ["eval", *scored, "--method", "hie", "--out", str(directory)],
            "compare --out": ["compare", *scored, "--methods", "argmax,hie", "--out",
                              str(directory)],
            "synth --out-dir file": ["synth", "--branching", "2,2", "--noise", "1,1",
                                     "--n-samples", "3", "--out-dir", str(out)]}[output]
    read = []
    for module, name in [(fileio, "load_hierarchy"), (fileio, "ScoreReader"),
                         (synth, "gen_taxonomy")]:
        monkeypatch.setattr(module, name, lambda *a, name=name, **k: read.append(name))
    before = sorted(os.listdir(out))
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"InputError: cannot write {directory}: Is a directory\n")
    assert read == []
    assert sorted(os.listdir(out)) == before and os.listdir(directory) == []


def test_an_output_path_that_links_to_a_directory_replaces_the_link(workspace, capsys):
    hierarchy, fine, labels = paths(workspace, "hierarchy.json", "fine.csv", "labels.txt")
    (workspace / "dir").mkdir()
    (workspace / "report.json").symlink_to("dir")
    assert run(["eval", "--hierarchy", hierarchy, "--fine", fine, "--labels", labels, "--k", "1",
                "--out", str(workspace / "report.json")]) == 0
    capsys.readouterr()
    assert json.loads((workspace / "report.json").read_text())["n_samples"] == 1
    assert not (workspace / "report.json").is_symlink() and os.listdir(workspace / "dir") == []


@pytest.mark.parametrize("existing", ["scores", "predictions"])
def test_a_failing_rename_puts_back_what_the_run_replaced(workspace, capsys, monkeypatch,
                                                           existing):
    # The scores file is renamed into place first and the predictions second, whose rename
    # fails: the output renamed before it is removed, or, where it replaced a file, put back.
    out, preds = workspace / "s.csv", workspace / "p.txt"
    (out if existing == "scores" else preds).write_text("old\n")
    before = {p.name: p.read_bytes() for p in workspace.iterdir()}
    replace, renames = os.replace, []

    def second_fails(src, dst):
        renames.append(dst)
        if len(renames) == 2:
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", second_fails)
    hierarchy, fine, coarse = paths(workspace, "hierarchy.json", "fine.csv", "coarse.csv")
    code = run(["infer", "--hierarchy", hierarchy, "--fine", fine, "--coarse", coarse,
                "--method", "hie", "--out", str(out), "--preds-out", str(preds)])
    assert code == 2
    assert capsys.readouterr() == ("", f"InputError: cannot write {preds}: Input/output error\n")
    assert renames[:2] == [str(out), str(preds)]
    assert {p.name: p.read_bytes() for p in workspace.iterdir()} == before  # no temp file or link


# (argv, the output as the line gives it, the input as the line gives it); "{ws}" is the
# workspace, which is also the working directory. eval and compare read the labels too.
@pytest.mark.parametrize("argv, output, given", [
    (["eval", "--fine", "{ws}/fine.csv", "--out", "{ws}/labels.txt"],
     "--out {ws}/labels.txt", "--labels {ws}/labels.txt"),
    (["eval", "--fine", "{ws}/fine.csv", "--out", "./hierarchy.json"],
     "--out ./hierarchy.json", "--hierarchy {ws}/hierarchy.json"),
    (["eval", "--preds", "{ws}/preds.txt", "--out", "preds.txt"],
     "--out preds.txt", "--preds {ws}/preds.txt"),
    (["compare", "--fine", "{ws}/fine.csv", "--level", "1={ws}/coarse.csv", "--methods", "cascade",
      "--out", "{ws}/coarse.csv"], "--out {ws}/coarse.csv", "--level 1={ws}/coarse.csv"),
    (["compare", "--fine", "{ws}/f.hies", "--methods", "argmax", "--out", "{ws}/f.hies.names.json"],
     "--out {ws}/f.hies.names.json", "--fine {ws}/f.hies's class-name sidecar"),
    (["infer", "--fine", "{ws}/f.hies", "--out", "{ws}/f.hies"],
     "--out {ws}/f.hies", "--fine {ws}/f.hies"),
    (["infer", "--fine", "{ws}/fine.csv", "--coarse", "{ws}/c.hies.names.json", "--method", "hie",
      "--out", "{ws}/c.hies"],
     "--out {ws}/c.hies's class-name sidecar", "--coarse {ws}/c.hies.names.json"),
    (["infer", "--fine", "{ws}/fine.csv", "--coarse", "{ws}/coarse.csv", "--method", "hie",
      "--out", "{ws}/s.csv", "--preds-out", "{ws}/coarse.csv"],
     "--preds-out {ws}/coarse.csv", "--coarse {ws}/coarse.csv"),
], ids=["eval-labels", "eval-hierarchy-relative", "eval-preds", "compare-level",
        "compare-input-sidecar", "infer-fine", "infer-output-sidecar", "infer-preds-out"])
def test_an_output_that_names_an_input_is_refused_before_any_row(workspace, capsys, monkeypatch,
                                                                  argv, output, given):
    # Writing would replace the input: refused in one line, whatever the spelling of its path.
    save_matrix(ScoreMatrix([[0.4, 0.1, 0.35, 0.15]], PROBABILITIES, SEVEN_NODE_LEAVES),
                workspace / "f.hies")
    (workspace / "c.hies.names.json").write_bytes((workspace / "coarse.csv").read_bytes())
    (workspace / "preds.txt").write_text("bus\n")
    monkeypatch.chdir(workspace)
    argv = [argv[0], "--hierarchy", "{ws}/hierarchy.json", *argv[1:]]
    if argv[0] != "infer":
        argv += ["--labels", "{ws}/labels.txt", "--k", "1"]
    before = {p.name: p.read_bytes() for p in workspace.iterdir()}
    assert run([arg.format(ws=workspace) for arg in argv]) == 2
    assert capsys.readouterr() == (
        "", f"InputError: {output} would overwrite the input {given}\n".format(ws=workspace))
    assert {p.name: p.read_bytes() for p in workspace.iterdir()} == before


@pytest.mark.parametrize("levels, message", [
    (["1=coarse.csv", "1=coarse.csv"], "--level depth 1 given twice"),
    (["2=fine.csv"], "--level depth 2 is the leaf depth"),
    (["9=coarse.csv"], "InputError: --level depth 9 outside [0, 2]"),
])
def test_eval_rejects_levels_that_change_the_maths(workspace, capsys, levels, message):
    hierarchy, fine, labels = paths(workspace, "hierarchy.json", "fine.csv", "labels.txt")
    args = ["eval", "--hierarchy", hierarchy, "--fine", fine, "--labels", labels,
            "--method", "cascade", "--k", "1"]
    for entry in levels:
        depth, _, name = entry.partition("=")
        args += ["--level", f"{depth}={workspace / name}"]
    assert run(args) == 2
    assert message in capsys.readouterr().err


def test_eval_existing_predictions(workspace, capsys):
    (workspace / "preds.txt").write_text("bus\n")
    hierarchy, labels = paths(workspace, "hierarchy.json", "labels.txt")
    code = run(["eval", "--hierarchy", hierarchy, "--preds", str(workspace / "preds.txt"),
                "--labels", labels, "--k", "1"])
    assert code == 0
    assert capsys.readouterr().out.startswith("preds\t0.000000")


def test_eval_predictions_against_a_different_label_count_exit_3(workspace, capsys):
    (workspace / "preds.txt").write_text("bus\n" * 30)
    (workspace / "labels.txt").write_text("car\n" * 29)
    hierarchy, preds, labels = paths(workspace, "hierarchy.json", "preds.txt", "labels.txt")
    code = run(["eval", "--hierarchy", hierarchy, "--preds", preds, "--labels", labels, "--k", "1"])
    assert code == 3
    assert capsys.readouterr() == ("", "DataError: 30 predictions vs 29 labels\n")


def test_eval_predictions_file_allows_only_k1(workspace, capsys):
    preds = workspace / "preds.txt"
    preds.write_text("bus\n")
    hierarchy, labels = paths(workspace, "hierarchy.json", "labels.txt")
    code = run(["eval", "--hierarchy", hierarchy, "--preds", str(preds),
                "--labels", labels, "--k", "1,2"])
    assert code == 3
    err = capsys.readouterr().err
    assert err.startswith("DataError: k=2")
    assert f"predictions file {preds} ranks one class per row" in err
    assert "only k=1 applies" in err


def test_text_inputs_with_a_byte_order_mark_at_byte_0_give_their_twins_results(workspace, capsys):
    # The mark is skipped in score, labels and predictions files alike.
    (workspace / "preds.txt").write_text("bus\n")
    for name in ("fine.csv", "coarse.csv", "labels.txt", "preds.txt"):
        (workspace / f"bom-{name}").write_bytes(b"\xef\xbb\xbf" + (workspace / name).read_bytes())
    results = []
    for prefix in ("", "bom-"):
        hierarchy, fine, coarse, labels, preds, out = paths(
            workspace, "hierarchy.json", *(prefix + name for name in
                                           ("fine.csv", "coarse.csv", "labels.txt", "preds.txt", "out.csv")))
        assert run(["infer", "--hierarchy", hierarchy, "--fine", fine, "--coarse", coarse,
                    "--method", "hie", "--out", out]) == 0
        assert run(["eval", "--hierarchy", hierarchy, "--fine", fine, "--coarse", coarse,
                    "--labels", labels, "--method", "hie", "--k", "1,2"]) == 0
        assert run(["eval", "--hierarchy", hierarchy, "--preds", preds, "--labels", labels,
                    "--k", "1"]) == 0
        stdout = capsys.readouterr().out.splitlines()
        assert stdout[0] == f"wrote {out} and {out}.preds.txt"
        results.append((Path(out).read_bytes(), Path(f"{out}.preds.txt").read_bytes(), stdout[1:]))
    assert results[0] == results[1]


# A file whose columns are not the classes its flag takes is refused on open,
# naming the file and the level the flag expected.
@pytest.mark.parametrize("flags, header, message", [
    (["--fine", "{bad}"], "flower,vehicle",
     "InputError: {bad}: column 'flower' is not a class at this level "
     "(--fine takes the leaf classes)"),
    (["--fine", "{bad}"], "rose,tulip,bus,bus",
     "InputError: {bad}: duplicate column 'bus' (--fine takes the leaf classes)"),
    (["--fine", "{fine}", "--coarse", "{bad}"], "flower",
     "InputError: {bad}: class 'vehicle' has no column (--coarse takes the coarse classes)"),
    (["--fine", "{fine}", "--level", "1={bad}"], "rose,tulip,bus,car",
     "InputError: {bad}: column 'rose' is not a class at this level "
     "(--level 1 takes the depth-1 classes)"),
], ids=["fine-unknown", "fine-duplicate", "coarse-missing", "level-unknown"])
def test_a_column_fault_names_the_file_and_the_expected_level(workspace, capsys, flags, header,
                                                              message):
    bad = workspace / "bad.csv"
    bad.write_text(f"# kind: probabilities\n{header}\n1\n")  # columns are checked before rows
    hierarchy, fine, labels = paths(workspace, "hierarchy.json", "fine.csv", "labels.txt")
    args = [flag.format(bad=bad, fine=fine) for flag in flags]
    code = run(["eval", "--hierarchy", hierarchy, *args, "--labels", labels, "--k", "1"])
    assert code == 2
    assert capsys.readouterr().err == message.format(bad=bad) + "\n"


# Row faults in the coarse file; the binary case is caught by the check of
# each block read rather than by the text parser.
@pytest.mark.parametrize("row, suffix, message", [
    ("0.2,nan", ".csv", "InputError: {path}: non-finite value at row 0, column 1"),
    ("0.2,nan", ".hies", "InputError: {path}: non-finite value at row 0, column 1"),
    ("1.2,-0.2", ".csv", "InputError: {path}: negative entry at row 0, column 1"),
    ("0.3,0.8", ".csv", "InputError: {path}: row 0 sums to 1.1"),
    # float() also takes PEP 515 separators ("0.2_5" is 0.25) and other scripts' digits.
    ("0.2_5,0.75", ".csv", "InputError: {path}:3: not a number: '0.2_5'"),
    ("٠.٢,0.8", ".csv", "InputError: {path}:3: not a number: '٠.٢'"),
], ids=["non-finite-text", "non-finite-binary", "negative", "row-sum", "separator", "non-ascii"])
def test_a_coarse_row_fault_names_the_coarse_file(workspace, capsys, row, suffix, message):
    path = workspace / f"bad_coarse{suffix}"
    if suffix == ".hies":
        values = np.array([[float(v) for v in row.split(",")]], dtype="<f8")
        path.write_bytes(struct.pack("<4sBBII", b"HIES", 1, 1, 1, 2) + values.tobytes())
        Path(f"{path}.names.json").write_text(json.dumps({"class_names": ["flower", "vehicle"]}))
    else:
        path.write_text(f"# kind: probabilities\nflower,vehicle\n{row}\n")
    hierarchy, fine, labels = paths(workspace, "hierarchy.json", "fine.csv", "labels.txt")
    code = run(["eval", "--hierarchy", hierarchy, "--fine", fine, "--coarse", str(path),
                "--labels", labels, "--method", "hie", "--k", "1"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(message.format(path=path)) and err.count("\n") == 1


# As a text header's, each class name in a '.names.json' sidecar must be a non-empty string.
@pytest.mark.parametrize("name", [[1], 1, ""], ids=["list", "number", "empty"])
def test_a_sidecar_class_name_that_is_no_string_exits_2(workspace, capsys, name):
    path = workspace / "coarse.hies"
    path.write_bytes(struct.pack("<4sBBII", b"HIES", 1, 1, 1, 2) + struct.pack("<2d", 0.2, 0.8))
    sidecar = Path(f"{path}.names.json")
    sidecar.write_text(json.dumps({"class_names": ["flower", name]}))
    hierarchy, fine, labels = paths(workspace, "hierarchy.json", "fine.csv", "labels.txt")
    code = run(["eval", "--hierarchy", hierarchy, "--fine", fine, "--coarse", str(path),
                "--labels", labels, "--method", "hie", "--k", "1"])
    assert code == 2
    assert capsys.readouterr().err == (
        f"InputError: {sidecar}: invalid names sidecar: class name {name!r}\n")


# ----------------------------------------------------------------- compare


def test_compare_table(workspace, capsys):
    hierarchy, fine, coarse, labels = paths(
        workspace, "hierarchy.json", "fine.csv", "coarse.csv", "labels.txt"
    )
    out = str(workspace / "cmp.json")
    code = run(["compare", "--hierarchy", hierarchy, "--fine", fine, "--coarse", coarse,
                "--labels", labels, "--methods", "argmax,hie,crm,hie-crm",
                "--k", "1", "--out", out])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "method\ttop1_err\tseverity\thd@1"
    assert len(lines) == 5
    assert lines[1].startswith("argmax\t1.000000\t2.000000\t2.000000")
    assert lines[2].startswith("hie\t0.000000\t-\t0.000000")
    doc = json.loads(Path(out).read_text())
    assert [r["method"] for r in doc["reports"]] == ["argmax", "hie", "crm", "hie-crm"]


def test_compare_duplicate_method(workspace, capsys):
    hierarchy, fine, labels = paths(workspace, "hierarchy.json", "fine.csv", "labels.txt")
    code = run(["compare", "--hierarchy", hierarchy, "--fine", fine, "--labels", labels,
                "--methods", "argmax,argmax"])
    assert code == 2
    assert capsys.readouterr().err == "InputError: method 'argmax' listed twice\n"


@pytest.mark.parametrize("command", [["eval", "--method", "hie"], ["compare", "--methods", "hie"]])
def test_a_repeated_k_is_refused(workspace, capsys, command):
    # A table has one column per value, but a report one entry per distinct value.
    hierarchy, fine, coarse, labels = paths(
        workspace, "hierarchy.json", "fine.csv", "coarse.csv", "labels.txt"
    )
    code = run([*command, "--hierarchy", hierarchy, "--fine", fine, "--coarse", coarse,
                "--labels", labels, "--k", "5,1,1"])
    assert code == 2
    assert capsys.readouterr() == ("", "InputError: --k value 1 given twice\n")


def test_infer_then_eval_matches_compare_row(workspace, capsys):
    hierarchy, fine, coarse, labels = paths(
        workspace, "hierarchy.json", "fine.csv", "coarse.csv", "labels.txt"
    )
    combined = str(workspace / "combined.hies")
    assert run(["infer", "--hierarchy", hierarchy, "--fine", fine, "--coarse", coarse,
                "--method", "hie", "--out", combined]) == 0
    piped_report = str(workspace / "piped.json")
    assert run(["eval", "--hierarchy", hierarchy, "--fine", combined,
                "--labels", labels, "--k", "1", "--out", piped_report]) == 0
    direct_report = str(workspace / "direct.json")
    assert run(["eval", "--hierarchy", hierarchy, "--fine", fine, "--coarse", coarse,
                "--labels", labels, "--method", "hie", "--k", "1",
                "--out", direct_report]) == 0
    table = str(workspace / "table.json")
    assert run(["compare", "--hierarchy", hierarchy, "--fine", fine, "--coarse", coarse,
                "--labels", labels, "--methods", "argmax,hie", "--k", "1",
                "--out", table]) == 0
    hie_row = json.loads(Path(table).read_text())["reports"][1]
    assert hie_row["method"] == "hie"
    for path in (direct_report, piped_report):
        report = json.loads(Path(path).read_text())
        for key in ("top1_accuracy", "avg_mistake_severity", "hier_dist_at_k"):
            assert report[key] == hie_row[key]


# ------------------------------------------------------------------- synth


def test_synth_is_byte_deterministic(tmp_path):
    args = ["synth", "--branching", "2,2", "--noise", "0.0,0.0",
            "--n-samples", "10", "--seed", "7"]
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert run(args + ["--out-dir", d1]) == 0
    assert run(args + ["--out-dir", d2]) == 0
    import os

    files = sorted(os.listdir(d1))
    assert files == sorted(os.listdir(d2))
    assert "manifest.json" in files and "fine.hies" in files
    for name in files:
        with open(os.path.join(d1, name), "rb") as fa, open(os.path.join(d2, name), "rb") as fb:
            assert fa.read() == fb.read(), name


@pytest.mark.parametrize("flag, value, message", [
    ("--branching", "8,x", "--branching must be a comma list of int values, got '8,x'"),
    ("--noise", "1,x", "--noise must be a comma list of float values, got '1,x'"),
    # float() also takes PEP 515 separators ("1_0" is 10) and other scripts' digits.
    ("--noise", "1_0,1", "--noise must be a comma list of float values, got '1_0,1'"),
    ("--noise", "1,١", "--noise must be a comma list of float values, got '1,١'"),
    ("--seed", "-1", "seed must be a non-negative integer: -1"),
    ("--noise", "nan,1", "noise scales must be finite and non-negative: (nan, 1.0)"),
    ("--noise", "1,inf", "noise scales must be finite and non-negative: (1.0, inf)"),
    ("--out-dir", "{tmp}/a_file/inst", "cannot create --out-dir '{tmp}/a_file/inst': "),
    ("--out-dir", "", "cannot create --out-dir '': "),
    *[("--n-samples", str(n), f"--n-samples must be at most 4294967295, the rows a .hies file "
                              f"holds, got {n}\n") for n in (1 << 32, 1 << 62, 1 << 63, 10**23)],
], ids=["branching-int", "noise-float", "noise-separator", "noise-non-ascii", "seed-negative",
        "noise-nan", "noise-inf", "out-dir-under-file", "out-dir-empty", "n-samples-over-u32",
        "n-samples-array-too-big", "n-samples-over-int64", "n-samples-huge"])
def test_synth_flag_faults_exit_2_naming_the_flag(tmp_path, capsys, flag, value, message):
    (tmp_path / "a_file").write_text("")
    flags = {"--branching": "2,2", "--noise": "1,1", "--n-samples": "4",
             "--out-dir": str(tmp_path / "inst"), flag: value.format(tmp=tmp_path)}
    assert run(["synth", *(x for item in flags.items() for x in item)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"InputError: {message.format(tmp=tmp_path)}")
    assert err.count("\n") == 1
    assert not (tmp_path / "inst").exists()


def test_an_allocation_that_fails_exits_2_in_one_line(tmp_path, monkeypatch, capsys):
    # The label draw fails as numpy's does where the machine cannot hold the array.
    def unable(cfg, t):
        raise MemoryError("Unable to allocate 7.28 EiB for an array with shape "
                          "(1000000000000000000,) and data type int64")

    monkeypatch.setattr(synth, "gen_instance", unable)
    assert run(["synth", "--branching", "2,2", "--noise", "1,1", "--n-samples", "4",
                "--out-dir", str(tmp_path / "inst")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("MemoryError: Unable to allocate ") and err.count("\n") == 1
    assert os.listdir(tmp_path / "inst") == []


# int() also takes PEP 515 separators ("1_0" is 10) and other scripts' digits ("١٠" is 10).
INTEGER_FAULTS = [
    ("--k", "1,1_0", "InputError: --k must be a comma list of integers, got '1,1_0'"),
    ("--k", "١٠", "InputError: --k must be a comma list of integers, got '١٠'"),
    ("--level", "0_1={ws}/coarse.csv", "InputError: --level depth must be an integer, got '0_1'"),
    ("--level", "١={ws}/coarse.csv", "InputError: --level depth must be an integer, got '١'"),
    ("--branching", "2,1_0", "InputError: --branching must be a comma list of int values, got '2,1_0'"),
    ("--branching", "2,٢", "InputError: --branching must be a comma list of int values, got '2,٢'"),
    ("--n-samples", "1_0", "argument --n-samples: invalid int value: '1_0'"),
    ("--n-samples", "١٠", "argument --n-samples: invalid int value: '١٠'"),
    ("--seed", "0_1", "argument --seed: invalid int value: '0_1'"),
    ("--seed", "١", "argument --seed: invalid int value: '١'"),
]


@pytest.mark.parametrize("flag, value, message", INTEGER_FAULTS, ids=[
    f"{flag[2:]}-{'separator' if '_' in value else 'non-ascii'}" for flag, value, _ in INTEGER_FAULTS])
def test_an_integer_option_takes_only_ascii_digits(workspace, capsys, flag, value, message):
    if flag in ("--k", "--level"):
        hierarchy, fine, labels = paths(workspace, "hierarchy.json", "fine.csv", "labels.txt")
        argv = ["eval", "--hierarchy", hierarchy, "--fine", fine, "--labels", labels,
                "--method", "cascade", flag, value.format(ws=workspace)]
    else:
        flags = {"--branching": "2,2", "--noise": "1,1", "--n-samples": "4",
                 "--out-dir": str(workspace / "inst"), flag: value}
        argv = ["synth", *(x for item in flags.items() for x in item)]
    try:
        code = run(argv)
    except SystemExit as e:  # argparse's own check of a typed option
        code = e.code
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(message) or err.endswith(f"error: {message}\n")
    assert not (workspace / "inst").exists()


def test_cascade_via_level_flags(tmp_path, capsys):
    d = str(tmp_path / "inst")
    assert run(["synth", "--branching", "3,3,4", "--noise", "1.0,0.5,2.0",
                "--n-samples", "200", "--seed", "5", "--out-dir", d]) == 0
    capsys.readouterr()
    code = run(["eval", "--hierarchy", f"{d}/hierarchy.json", "--fine", f"{d}/fine.hies",
                "--level", f"1={d}/level_d1.hies", "--level", f"2={d}/level_d2.hies",
                "--labels", f"{d}/labels.txt", "--kind", "logits",
                "--method", "cascade", "--k", "1",
                "--out", str(tmp_path / "cascade.json")])
    assert code == 0
    config = json.loads((tmp_path / "cascade.json").read_text())["config"]
    assert config["levels"] == [1, 2]
    assert "level1" in config["inputs"]


def test_cascade_requires_level_files(tmp_path, workspace, capsys):
    hierarchy, fine, labels = paths(workspace, "hierarchy.json", "fine.csv", "labels.txt")
    code = run(["eval", "--hierarchy", hierarchy, "--fine", fine, "--labels", labels,
                "--method", "cascade", "--k", "1"])
    assert code == 2
    assert "--level" in capsys.readouterr().err


# Each method's inputs are resolved at open, in one order: --fine, then each
# method's own files in method order, then the coarse row count, then each level's.
REQUIRES = {m: f"InputError: method {m} requires {flag}" for m, flag in [
    ("argmax", "--fine"), ("hie", "--coarse"), ("cascade", "at least one --level depth=path")]}
SHORT_COARSE = "DataError: {ws}/coarse40.csv: --coarse has 40 samples, --fine has 50"
SHORT_LEVEL = "DataError: {ws}/coarse40.csv: --level 1 has 40 samples, --fine has 50"


@pytest.mark.parametrize("methods, files, line, code", [
    ("argmax", [], REQUIRES["argmax"], 2),
    ("hie", ["--fine"], REQUIRES["hie"], 2),
    ("cascade", ["--fine"], REQUIRES["cascade"], 2),
    ("hie,cascade", ["--fine"], REQUIRES["hie"], 2),
    ("cascade,hie", ["--fine"], REQUIRES["cascade"], 2),
    ("hie", ["--fine", "--coarse"], SHORT_COARSE, 3),
    ("cascade", ["--fine", "--level"], SHORT_LEVEL, 3),
    ("hie,cascade", ["--fine", "--level"], REQUIRES["hie"], 2),
    ("hie,cascade", ["--fine", "--coarse", "--level"], SHORT_COARSE, 3),
], ids=["no-fine", "no-coarse", "no-level", "hie-first", "cascade-first", "short-coarse",
        "short-level", "requires-before-rows", "coarse-rows-first"])
def test_each_open_time_method_input_fault_prints_one_line(workspace, capsys, methods, files,
                                                          line, code):
    # 50 fine rows; the coarse and level files are given 40 rows, as --coarse and as --level 1.
    (workspace / "fine50.csv").write_text(
        "# kind: probabilities\nrose,tulip,bus,car\n" + "0.4,0.1,0.35,0.15\n" * 50)
    (workspace / "coarse40.csv").write_text("# kind: probabilities\nflower,vehicle\n"
                                            + "0.2,0.8\n" * 40)
    given = {"--fine": str(workspace / "fine50.csv"), "--coarse": str(workspace / "coarse40.csv"),
             "--level": f"1={workspace / 'coarse40.csv'}"}
    argv = ["compare", "--hierarchy", str(workspace / "hierarchy.json"), "--labels",
            str(workspace / "labels.txt"), "--methods", methods, "--k", "1"]
    for flag in files:
        argv += [flag, given[flag]]
    assert run(argv) == code
    assert capsys.readouterr() == ("", line.format(ws=workspace) + "\n")


@pytest.mark.parametrize("command", ["infer", "eval"])
@pytest.mark.parametrize("shape", [(0, 2), (1, 0)], ids=["no-rows", "no-columns"])
def test_a_hies_file_with_no_rows_or_no_columns_is_named(workspace, capsys, command, shape):
    # The --fine file is good and the --coarse file is empty: the line says which one.
    rows, cols = shape
    coarse = workspace / "coarse.hies"
    coarse.write_bytes(struct.pack("<4sBBII", b"HIES", 1, 1, rows, cols) + bytes(8 * rows * cols))
    (workspace / "coarse.hies.names.json").write_text(
        json.dumps({"class_names": ["flower", "vehicle"][:cols]}))
    hierarchy, fine, labels = paths(workspace, "hierarchy.json", "fine.csv", "labels.txt")
    argv = [command, "--hierarchy", hierarchy, "--fine", fine, "--coarse", str(coarse),
            "--method", "hie"]
    argv += ["--out", str(workspace / "s.hies")] if command == "infer" else ["--labels", labels]
    assert run(argv) == 2
    assert capsys.readouterr() == ("", f"InputError: {coarse}: score matrix has shape {shape}\n")


def _hies(kind_byte: int, rows: int, cols: int, version: int = 1) -> bytes:
    return struct.pack("<4sBBII", b"HIES", version, kind_byte, rows, cols) + bytes(8 * rows * cols)


LEAF_NAMES = json.dumps({"class_names": SEVEN_NODE_LEAVES})
SIX_NAMES = json.dumps({"class_names": [f"c{i}" for i in range(6)]})
INFER = ["infer", "--hierarchy", "{ws}/hierarchy.json", "--out", "{ws}/s.hies", "--fine"]
COMPARE = ["compare", "--hierarchy", "{ws}/hierarchy.json", "--fine", "{ws}/fine.csv", "--labels",
           "{ws}/labels.txt", "--out", "{ws}/r.json"]
ROW = "0.4,0.1,0.35,0.15\n"


# (files written into the workspace, argv, the one stderr line); "{ws}" is the workspace.
@pytest.mark.parametrize("files, argv, line", [
    ({"f.hies": b"HIES\x01"}, [*INFER, "{ws}/f.hies"],
     "InputError: {ws}/f.hies: truncated binary header"),
    ({"f.hies": _hies(1, 1, 4, version=2), "f.hies.names.json": LEAF_NAMES},
     [*INFER, "{ws}/f.hies"], "InputError: {ws}/f.hies: unsupported format version 2"),
    ({"f.hies": _hies(1, 1, 4)}, [*INFER, "{ws}/f.hies"],
     "InputError: {ws}/f.hies: class-name sidecar {ws}/f.hies.names.json not found"),
    ({"f.hies": _hies(7, 1, 4), "f.hies.names.json": LEAF_NAMES}, [*INFER, "{ws}/f.hies"],
     "InputError: {ws}/f.hies: unknown kind byte 7"),
    ({"f.hies": _hies(0, 1, 4), "f.hies.names.json": LEAF_NAMES},
     [*INFER, "{ws}/f.hies", "--kind", "probs"],
     "InputError: {ws}/f.hies: file says logits, caller declared probabilities"),
    ({"f.hies": _hies(1, 1, 6), "f.hies.names.json": json.dumps({"class_names": ["c0"]})},
     [*INFER, "{ws}/f.hies"], "InputError: {ws}/f.hies.names.json: 1 class names for 6 columns"),
    ({"f.hies": _hies(1, 1, 4), "f.hies.names.json": json.dumps(SEVEN_NODE_LEAVES)},
     [*INFER, "{ws}/f.hies"], "InputError: {ws}/f.hies.names.json: invalid names sidecar: "
                              "list indices must be integers or slices, not str"),
    ({"f.hies": _hies(1, 0, 6), "f.hies.names.json": SIX_NAMES}, [*INFER, "{ws}/f.hies"],
     "InputError: {ws}/f.hies: score matrix has shape (0, 6)"),
    ({"f.csv": "# kind: weird\nrose,tulip,bus,car\n" + ROW}, [*INFER, "{ws}/f.csv"],
     "InputError: {ws}/f.csv:1: unknown kind 'weird'"),
    ({"f.csv": "# kind: logits\nrose,tulip,bus,car\n" + ROW},
     [*INFER, "{ws}/f.csv", "--kind", "probs"],
     "InputError: {ws}/f.csv: file says logits, caller declared probabilities"),
    ({"f.csv": "rose,,bus,car\n" + ROW}, [*INFER, "{ws}/f.csv"],
     "InputError: {ws}/f.csv:1: empty class name in header"),
    ({}, [*COMPARE, "--methods", "argmax", "--k", "0"],
     "InputError: --k values must be positive integers, got '0'"),
    ({}, [*COMPARE, "--methods", ",", "--k", "1"], "InputError: --methods must list at least one method"),
    ({}, [*COMPARE, "--methods", "cascade", "--k", "1", "--level", "1"],
     "InputError: --level expects depth=path, got '1'"),
    ({}, ["synth", "--branching", "0,2", "--noise", "1,1", "--n-samples", "4", "--out-dir",
          "{ws}/inst"], "InputError: branching factors must be positive: (0, 2)"),
], ids=["truncated-header", "version", "no-sidecar", "kind-byte", "kind-conflict",
        "sidecar-count", "sidecar-list", "no-rows", "text-kind", "text-kind-conflict",
        "text-empty-name", "k-zero", "no-methods", "level-no-path", "branching-zero"])
def test_an_input_fault_exits_2_in_one_line_and_writes_nothing(workspace, capsys, files, argv,
                                                               line):
    for name, content in files.items():
        (workspace / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    before = sorted(os.listdir(workspace))
    assert run([arg.format(ws=workspace) for arg in argv]) == 2
    assert capsys.readouterr() == ("", line.format(ws=workspace) + "\n")
    assert sorted(os.listdir(workspace)) == before


@pytest.mark.parametrize("order", [[1, 2], [2, 1]], ids=["depth-order", "reversed"])
def test_a_short_level_file_is_named_by_its_path_and_depth(tmp_path, capsys, order):
    # Two instances of one tree: 50 rows, and 40 rows whose depth-2 file is given.
    for name, n in [("ok", 50), ("short", 40)]:
        assert run(["synth", "--branching", "3,3,4", "--noise", "1.0,0.5,2.0", "--n-samples",
                    str(n), "--seed", "5", "--out-dir", str(tmp_path / name)]) == 0
    ok, short = tmp_path / "ok", tmp_path / "short"
    level = {1: f"1={ok}/level_d1.hies", 2: f"2={short}/level_d2.hies"}
    argv = ["infer", "--hierarchy", f"{ok}/hierarchy.json", "--fine", f"{ok}/fine.hies",
            "--kind", "logits", "--method", "cascade", "--out", str(tmp_path / "s.hies")]
    capsys.readouterr()
    assert run(argv + [arg for d in order for arg in ("--level", level[d])]) == 3
    assert capsys.readouterr().err == (f"DataError: {short}/level_d2.hies: --level 2 has "
                                       "40 samples, --fine has 50\n")
    assert not (tmp_path / "s.hies").exists()


@pytest.mark.parametrize("flag, value", [
    ("--fine", "{ws}/fine.csv"), ("--coarse", "{ws}/missing.csv"), ("--level", "1={ws}/coarse.csv"),
    ("--kind", "probs"),
], ids=["fine", "coarse", "level", "kind"])
def test_eval_of_predictions_refuses_score_file_flags(workspace, capsys, flag, value):
    # A predictions file is evaluated alone: no score file is opened, hashed or echoed.
    (workspace / "preds.txt").write_text("bus\n")
    hierarchy, labels = paths(workspace, "hierarchy.json", "labels.txt")
    code = run(["eval", "--hierarchy", hierarchy, "--preds", str(workspace / "preds.txt"),
                "--labels", labels, "--k", "1", flag, value.format(ws=workspace),
                "--out", str(workspace / "r.json")])
    assert code == 2
    assert capsys.readouterr() == ("", f"InputError: --preds takes no {flag}\n")
    assert not (workspace / "r.json").exists()


@pytest.fixture
def unleveled(tmp_path):
    """Leaf a under the root beside leaves b and c a level lower; a NaN row and an unknown label."""
    nodes = [{"name": "r", "parent": None}, {"name": "a", "parent": "r"},
             {"name": "g", "parent": "r"}, {"name": "b", "parent": "g"},
             {"name": "c", "parent": "g"}]
    (tmp_path / "hierarchy.json").write_text(json.dumps({"nodes": nodes}))
    (tmp_path / "fine.csv").write_text("# kind: probabilities\na,b,c\nnan,0.5,0.5\n")
    (tmp_path / "level1.csv").write_text("# kind: probabilities\na,g\n0.5,0.5\n")
    (tmp_path / "labels.txt").write_text("zzz\n")
    return tmp_path


def test_validate_reports_an_unleveled_tree(unleveled, capsys):
    assert run(["validate", "--hierarchy", str(unleveled / "hierarchy.json")]) == 0
    assert capsys.readouterr().out == "nodes=5 leaves=3 coarse=2 depth=2 leveled=no\n"


@pytest.mark.parametrize("command", ["compare", "infer"])
def test_cascading_an_unleveled_tree_exits_3_before_any_row(unleveled, capsys, command):
    # Reading the labels or the fine row would fail with exit 2 instead.
    flags = {"compare": ["--methods", "argmax,cascade", "--labels", str(unleveled / "labels.txt"),
                         "--k", "1"],
             "infer": ["--method", "cascade", "--out", str(unleveled / "out.hies")]}[command]
    assert run([command, *flags, "--hierarchy", str(unleveled / "hierarchy.json"),
                "--fine", str(unleveled / "fine.csv"),
                "--level", f"1={unleveled / 'level1.csv'}"]) == 3
    std = capsys.readouterr()
    assert (std.out, std.err) == (
        "", "DataError: leaves sit at depths [1, 2]; cascading by depth is undefined\n")
    assert not (unleveled / "out.hies").exists()


def test_crm_infer_then_eval_matches_compare_row(tmp_path, capsys):
    # negated risks written by infer must rank identically downstream
    d = str(tmp_path / "inst")
    assert run(["synth", "--branching", "4,4", "--noise", "0.5,2.0",
                "--n-samples", "300", "--seed", "9", "--out-dir", d]) == 0
    base = ["--hierarchy", f"{d}/hierarchy.json", "--fine", f"{d}/fine.hies",
            "--kind", "logits"]
    risks_out = str(tmp_path / "risks.hies")
    assert run(["infer", *base, "--method", "crm", "--out", risks_out]) == 0
    capsys.readouterr()
    fine = softmax_rows(read_scores(f"{d}/fine.hies", declared_kind="logits"))
    t = load_hierarchy(f"{d}/hierarchy.json")
    written = read_scores(risks_out).values
    assert np.array_equal(written, crm_rerank(fine, t).values)
    np.testing.assert_allclose(written, -dense_expected_costs(fine.values, t), rtol=0, atol=1e-12)
    piped = str(tmp_path / "piped.json")
    assert run(["eval", "--hierarchy", f"{d}/hierarchy.json", "--fine", risks_out,
                "--labels", f"{d}/labels.txt", "--k", "1,5", "--out", piped]) == 0
    direct = str(tmp_path / "direct.json")
    assert run(["eval", *base, "--labels", f"{d}/labels.txt", "--method", "crm",
                "--k", "1,5", "--out", direct]) == 0
    a, b = (json.loads(Path(path).read_text()) for path in (piped, direct))
    assert a["top1_accuracy"] == b["top1_accuracy"]
    assert a["hier_dist_at_k"] == b["hier_dist_at_k"]


@pytest.fixture(scope="module")
def every_method_table(tmp_path_factory):
    """A three-level instance, the flags every method needs, and one compare over all of them."""
    d = tmp_path_factory.mktemp("every_method")
    inst = d / "inst"
    assert run(["synth", "--branching", "3,3,4", "--noise", "1.0,0.5,2.0",
                "--n-samples", "200", "--seed", "5", "--out-dir", str(inst)]) == 0
    base = ["--hierarchy", f"{inst}/hierarchy.json", "--fine", f"{inst}/fine.hies",
            "--coarse", f"{inst}/level_d2.hies", "--level", f"1={inst}/level_d1.hies",
            "--level", f"2={inst}/level_d2.hies", "--labels", f"{inst}/labels.txt",
            "--kind", "logits", "--k", "1,5"]
    table = d / "table.json"
    assert run(["compare", *base, "--methods", ",".join(METHODS), "--out", str(table)]) == 0
    return d, base, json.loads(table.read_text())["reports"]


@pytest.mark.parametrize("method", list(METHODS))
def test_compare_report_equals_eval_report(every_method_table, method):
    d, base, reports = every_method_table
    out = d / f"{method}.json"
    assert run(["eval", *base, "--method", method, "--out", str(out)]) == 0
    assert reports[list(METHODS).index(method)] == json.loads(out.read_text())


def test_compare_reports_match_the_library_composition(every_method_table):
    d, _, reports = every_method_table
    inst = d / "inst"
    t = load_hierarchy(str(inst / "hierarchy.json"))
    fine, d1, d2 = (softmax_rows(read_scores(str(inst / name), declared_kind="logits"))
                    for name in ("fine.hies", "level_d1.hies", "level_d2.hies"))
    pmap = parent_index_map(t)
    hie = hie_combine(fine, [(d2, pmap)])
    sources = {
        "argmax": fine,
        "hie": hie,
        "hie-self": hie_self(fine, pmap, t.n_coarse),
        "crm": crm_rerank(fine, t),
        "hie-crm": crm_rerank(hie, t),
        "cascade": hie_combine(fine, [(d1, ancestor_index_map(t, 1)),
                                      (d2, ancestor_index_map(t, 2))]),
    }
    gt = load_labels(str(inst / "labels.txt"), t)
    for report, (method, source) in zip(reports, sources.items()):
        expected = eval_report(top_k(source, 5), gt, t, [1, 5], method)
        assert report["method"] == method
        assert report["top1_accuracy"] == expected.top1_accuracy, method
        assert report["avg_mistake_severity"] == expected.avg_mistake_severity, method
        assert report["hier_dist_at_k"] == {str(k): v for k, v in expected.hier_dist_at_k.items()}



def test_eval_and_compare_never_build_the_cost_matrix(every_method_table, monkeypatch):
    # Each LCA-height lookup pairs a row's top 5 classes with its label, never a
    # row with all 36 leaves, as even one block of the leaf-by-leaf matrix would.
    lca_heights, calls = taxonomy.lca_heights, []

    def guarded(t, a, b):
        heights = lca_heights(t, a, b)
        calls.append(heights.shape)
        assert heights.shape[-1] < t.n_leaves, "leaf-by-leaf LCA heights on the eval/compare path"
        return heights

    monkeypatch.setattr(taxonomy, "lca_heights", guarded)
    d, base, reports = every_method_table
    assert run(["eval", *base, "--method", "crm", "--out", str(d / "guard.json")]) == 0
    assert json.loads((d / "guard.json").read_text()) == reports[list(METHODS).index("crm")]
    assert run(["compare", *base, "--methods", ",".join(METHODS),
                "--out", str(d / "guard_table.json")]) == 0
    assert json.loads((d / "guard_table.json").read_text())["reports"] == reports
    assert calls  # the guard sat on the path the reports came from


def test_synth_noiseless_compare_all_perfect(tmp_path, capsys):
    d = str(tmp_path / "inst")
    assert run(["synth", "--branching", "2,2", "--noise", "0,0",
                "--n-samples", "25", "--seed", "3", "--out-dir", d]) == 0
    capsys.readouterr()
    code = run(["compare", "--hierarchy", f"{d}/hierarchy.json",
                "--fine", f"{d}/fine.hies", "--coarse", f"{d}/level_d1.hies",
                "--labels", f"{d}/labels.txt", "--kind", "logits",
                "--methods", "argmax,hie,hie-self,crm,hie-crm", "--k", "1"])
    assert code == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(lines) == 5
    for line in lines:
        cells = line.split("\t")
        assert cells[1] == "0.000000"  # top-1 error
        assert cells[2] == "-"         # no mistakes, severity absent
        assert cells[3] == "0.000000"  # hd@1


# ------------------------------------------------------------ heap settings

# glibc's M_TRIM_THRESHOLD and M_MMAP_THRESHOLD, each raised to 32 MiB.
HEAP_SETTINGS = [(-1, 32 << 20), (-3, 32 << 20)]


def fake_libc(calls):
    def mallopt(param, value):
        calls.append((param, value))
        return 1

    return SimpleNamespace(mallopt=mallopt)


def test_run_keeps_freed_memory_in_the_heap(workspace, monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(ctypes, "CDLL", lambda name: fake_libc(calls))
    assert run(["validate", "--hierarchy", str(workspace / "hierarchy.json")]) == 0
    assert calls == HEAP_SETTINGS


def test_run_skips_the_heap_setting_where_mallopt_is_missing(workspace, monkeypatch, capsys):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: object())
    assert run(["validate", "--hierarchy", str(workspace / "hierarchy.json")]) == 0
    assert capsys.readouterr().out.startswith("nodes=7 leaves=4 coarse=2")


def test_importing_the_package_leaves_the_heap_alone():
    # In a fresh interpreter, a spy on ctypes.CDLL sees mallopt looked up only
    # once the CLI sets the heap up, not while the package is imported.
    script = """if True:
        import ctypes
        looked_up = []

        class Spy(ctypes.CDLL):
            def __getattr__(self, name):
                looked_up.append(name)
                return super().__getattr__(name)

        ctypes.CDLL = Spy
        import hieval, hieval.cli, hieval.commands
        before = looked_up.count("mallopt")
        hieval.cli._keep_freed_memory()
        print(before, looked_up.count("mallopt"))
    """
    done = subprocess.run([sys.executable, "-c", script], env=_child_env(), capture_output=True,
                          text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "1"]


# ------------------------------------------------------------ process entry
#
# cli.main ends the process from an atexit handler, so it runs only in child
# processes here; calling it in-process would end the test run.


def _child_env():
    src = str(Path(cli.__file__).resolve().parent.parent)
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.mark.parametrize("argv, code", [
    (["validate", "--hierarchy", "hierarchy.json"], 0),
    (["compare", "--hierarchy", "hierarchy.json", "--fine", "fine.csv", "--coarse", "coarse.csv",
      "--labels", "labels.txt", "--methods", "argmax,hie", "--k", "1,2"], 0),
    (["validate", "--hierarchy", "absent.json"], 2),
    (["eval", "--hierarchy", "hierarchy.json", "--fine", "fine.csv", "--labels", "labels.txt",
      "--k", "9"], 3),
], ids=["validate", "compare", "missing-file", "k-too-large"])
def test_main_exits_as_run_returns(workspace, capsys, monkeypatch, argv, code):
    monkeypatch.chdir(workspace)
    assert run(argv) == code
    in_process = capsys.readouterr()
    done = subprocess.run([sys.executable, "-m", "hieval", *argv], cwd=workspace, env=_child_env(),
                          capture_output=True, text=True)
    assert (done.returncode, done.stdout, done.stderr) == (code, in_process.out, in_process.err)


def test_the_retired_costs_command_is_a_usage_error_that_writes_nothing(workspace):
    # The leaf-by-leaf matrix is one taxonomy.lca_heights call; no command writes it.
    before = sorted(os.listdir(workspace))
    done = subprocess.run([sys.executable, "-m", "hieval", "costs", "--hierarchy", "hierarchy.json",
                           "--out", "c.hies"], cwd=workspace, env=_child_env(), capture_output=True, text=True)
    assert done.returncode == 2
    assert "Traceback" not in done.stderr
    last = done.stderr.splitlines()[-1]
    assert last.startswith("hieval: error: argument command: invalid choice: 'costs' (choose from ")
    assert last.replace("'", "").endswith("(choose from validate, infer, eval, compare, synth)")
    assert sorted(os.listdir(workspace)) == before


def test_main_skips_teardown_and_run_keeps_it(workspace):
    # A handler registered before the command runs at teardown only.
    script = """if True:
        import atexit, sys
        from hieval import cli
        atexit.register(print, "teardown")
        sys.exit(getattr(cli, sys.argv[1])(["validate", "--hierarchy", "hierarchy.json"]))
    """
    for entry, lines in [("run", ["nodes=7", "teardown"]), ("main", ["nodes=7"])]:
        done = subprocess.run([sys.executable, "-c", script, entry], cwd=workspace, env=_child_env(),
                              capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert [line.split()[0] for line in done.stdout.splitlines()] == lines


def test_profiler_output_is_written_before_the_exit(workspace):
    profile = workspace / "validate.prof"
    done = subprocess.run([sys.executable, "-m", "cProfile", "-o", str(profile), "-m", "hieval",
                           "validate", "--hierarchy", "absent.json"],
                          cwd=workspace, env=_child_env(), capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stderr.startswith("InputError: cannot read absent.json")
    assert pstats.Stats(str(profile)).total_calls > 0


@pytest.mark.parametrize("unbuffered", ["", "1"])
@pytest.mark.parametrize("stdout, message", [
    ("closed-pipe", "Broken pipe"),
    ("/dev/full", "No space left on device"),
])
def test_an_unwritable_stdout_exits_2_in_one_line(workspace, stdout, message, unbuffered):
    if stdout == "/dev/full" and not os.path.exists(stdout):
        pytest.skip("no /dev/full")
    env = dict(_child_env(), PYTHONUNBUFFERED=unbuffered)
    argv = [sys.executable, "-m", "hieval", "validate", "--hierarchy", "hierarchy.json"]
    if stdout == "closed-pipe":
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(argv, cwd=workspace, env=env, stdout=write_end,
                                  stderr=subprocess.PIPE, text=True)
        finally:
            os.close(write_end)
    else:
        with open(stdout, "w") as full:
            done = subprocess.run(argv, cwd=workspace, env=env, stdout=full,
                                  stderr=subprocess.PIPE, text=True)
    assert done.returncode == 2
    assert done.stderr == f"InputError: cannot write standard output: {message}\n"


def test_a_process_started_without_stdout_prints_nothing(workspace):
    # With descriptor 1 closed, sys.stdout is None; print() would skip it too.
    done = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", sys.executable, "-m", "hieval",
                           "validate", "--hierarchy", "hierarchy.json"],
                          cwd=workspace, env=_child_env(), stderr=subprocess.PIPE, text=True)
    assert (done.returncode, done.stderr) == (0, "")


# ---------------------------------------------------------- numpy's SIMD dispatch
#
# numpy picks each loop's kernel when it loads, by what the CPU supports. On x86 the
# AVX-512 kernels of exp and log round some entries differently from the AVX2 ones,
# so score files may differ in their last bits between hosts; a ranking, a report
# and a predictions file must not. The largest gap seen on this instance is 9 ulp
# (x86 with AVX-512, numpy 2.4).
ULP_BOUND = 16


def _dispatch_above_x86_v3() -> list[str]:
    """The dispatch targets above X86_V3 (AVX2 and FMA3) that this CPU runs."""
    umath = pytest.importorskip("numpy._core._multiarray_umath")
    targets = umath.__cpu_dispatch__
    if "X86_V3" in targets:
        above = targets[targets.index("X86_V3") + 1:]
    else:  # numpy before 2.4 names the AVX-512 groups alone
        above = [t for t in targets if t.startswith("AVX512")]
    return [t for t in above if umath.__cpu_features__.get(t)]


def _synth_compare_infer(workdir: Path, env: dict) -> tuple[bytes, dict[str, bytes]]:
    """A seeded synth, a five-method compare and a cascade infer; their stdout and files."""
    workdir.mkdir()
    argvs = [
        ["synth", "--branching", "8,9,14", "--noise", "0.5,1.0,2.0", "--n-samples", "600",
         "--seed", "3", "--out-dir", "inst"],
        ["compare", "--hierarchy", "inst/hierarchy.json", "--fine", "inst/fine.hies",
         "--kind", "logits", "--coarse", "inst/level_d2.hies", "--labels", "inst/labels.txt",
         "--k", "1,5,20", "--methods", ",".join(m for m in METHODS if m != "cascade"),
         "--out", "table.json"],
        ["infer", "--hierarchy", "inst/hierarchy.json", "--fine", "inst/fine.hies",
         "--kind", "logits", "--level", "1=inst/level_d1.hies", "--level", "2=inst/level_d2.hies",
         "--method", "cascade", "--out", "cascade.hies"],
    ]
    stdout = b""
    for argv in argvs:
        done = subprocess.run([sys.executable, "-m", "hieval", *argv], cwd=workdir, env=env,
                              capture_output=True)
        assert (done.returncode, done.stderr) == (0, b""), done.stderr
        stdout += done.stdout
    files = {str(p.relative_to(workdir)): p.read_bytes() for p in workdir.rglob("*") if p.is_file()}
    return stdout, files


def test_outputs_agree_under_both_simd_dispatches(tmp_path):
    below = _dispatch_above_x86_v3()
    if not below:
        pytest.skip("this CPU runs no numpy dispatch target above X86_V3")
    as_is = _synth_compare_infer(tmp_path / "as-is", _child_env())
    env = dict(_child_env(), NPY_DISABLE_CPU_FEATURES=" ".join(below))
    stdout, files = _synth_compare_infer(tmp_path / "below", env)
    assert stdout == as_is[0]
    assert sorted(files) == sorted(as_is[1])
    for name, data in files.items():
        if not name.endswith(".hies"):
            assert data == as_is[1][name], name
            continue
        a, b = read_scores(tmp_path / "as-is" / name), read_scores(tmp_path / "below" / name)
        assert (a.kind, a.class_names, a.values.shape) == (b.kind, b.class_names, b.values.shape)
        assert np.array_equal(np.sign(a.values), np.sign(b.values)), name
        gap = np.abs(a.values.view(np.int64) - b.values.view(np.int64)).max()
        assert gap <= ULP_BOUND, f"{name}: {gap} ulp"


# ------------------------------------------------------- faults through the entry point


@pytest.fixture(scope="module")
def workers_instance(tmp_path_factory):
    """2000 rows of 1008 leaves: 31 blocks, enough for a worker per CPU up to 4."""
    d = tmp_path_factory.mktemp("workers")
    assert run(["synth", "--branching", "8,9,14", "--noise", "0.5,1.0,2.0",
                "--n-samples", "2000", "--seed", "3", "--out-dir", str(d)]) == 0
    return d


def _first_cpu_only():
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:1])


def test_an_infer_in_workers_whose_sidecar_path_is_a_directory_leaves_no_output(
        workers_instance, tmp_path):
    # Refused before any row is read, in every process count.
    sidecar = tmp_path / "scores.hies.names.json"
    sidecar.mkdir()
    done = subprocess.run([sys.executable, "-m", "hieval", "infer",
                           "--hierarchy", str(workers_instance / "hierarchy.json"),
                           "--fine", str(workers_instance / "fine.hies"), "--kind", "logits",
                           "--out", str(tmp_path / "scores.hies")],
                          env=_child_env(), capture_output=True, text=True)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == f"InputError: cannot write {sidecar}: Is a directory\n"
    assert os.listdir(tmp_path) == [sidecar.name]
    assert os.listdir(sidecar) == []


@pytest.mark.parametrize("cpus", ["all", "one"])
def test_eval_refuses_labels_from_a_pipe_in_one_line(workers_instance, cpus):
    # eval hashes its inputs apart from reading them: on several CPUs a hashing process
    # would drain the pipe first, and on one CPU the report would echo an empty input's digest.
    if cpus == "one" and not hasattr(os, "sched_setaffinity"):
        pytest.skip("no CPU affinity here")
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, (workers_instance / "labels.txt").read_bytes())  # fits a pipe's buffer
        os.close(write_end)
        labels = f"/dev/fd/{read_end}"
        done = subprocess.run([sys.executable, "-m", "hieval", "eval",
                               "--hierarchy", str(workers_instance / "hierarchy.json"),
                               "--fine", str(workers_instance / "fine.hies"), "--kind", "logits",
                               "--labels", labels],
                              env=_child_env(), capture_output=True, text=True, pass_fds=[read_end],
                              preexec_fn=_first_cpu_only if cpus == "one" else None)
    finally:
        os.close(read_end)
        with contextlib.suppress(OSError):
            os.close(write_end)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == (f"InputError: --labels {labels} is not a regular file; eval reads "
                           "each input twice, to hash it and to use it\n")
