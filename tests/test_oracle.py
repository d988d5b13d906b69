"""One oracle for the command line: drawn inputs, run three ways.

Hypothesis draws a hierarchy (``conftest.taxonomies()`` or a leveled tree
with unequal fan-out and unary levels), score files (text or '.hies',
logits or probabilities, columns in a drawn order, values rich in ties,
-0.0 and rows whose products fall under 1e-300), labels, a method set and
``--k``. ``infer``, ``eval`` and ``compare`` then run through ``cli.run`` at
a reference configuration (one process, one block) and at two drawn ones
(1-, 2- or 7-row blocks, 2 or 3 processes). Each must print, exit and write
exactly what the reference does, starting the processes its block count
calls for, and the reference must be what whole matrices give: the combine
kernels as first written (``conftest``), ``crm_rerank``, stable argsorts and
LCA heights from parent walks. ``eval --preds`` on each method's ``infer``
predictions must give ``compare``'s top-1 counts, and both must write the
same at the drawn configuration with the most blocks. The same draws, up to 70
rows, with faults in up to three files must give the one line of the first
faulty row (within it, files fine, coarse, levels, then each product in
method order), and no output file.

Tier-1 runs the same examples every time; ``HIEVAL_ORACLE_DEEP=1`` runs ten
times as many, drawn afresh.
"""

import hashlib
import io
import json
import os
import shutil
import struct
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from conftest import (NO_MASS, add_at_marginals, copy_product, count_forks, dense_lca_heights,
                      read_scores, save_matrix, taxonomies, use_block_rows)
from hieval.cli import run
from hieval.commands import METHODS, summary_header, summary_row
from hieval.errors import DataError
from hieval.fileio import (column_order, save_hierarchy, write_labels, write_report,
                           write_report_list)
from hieval.metrics import EvalReport
from hieval.risk import crm_rerank
from hieval.scores import LOGITS, PROBABILITIES, ScoreMatrix, as_probabilities
from hieval.taxonomy import ancestor_index_map, build_taxonomy, level_order, parent_index_map

DEEP = bool(os.environ.get("HIEVAL_ORACLE_DEEP"))


def oracle(examples: int) -> settings:
    """``examples`` the same every tier-1 run; ten times as many, drawn afresh, when deep."""
    return settings(max_examples=examples * (10 if DEEP else 1), derandomize=not DEEP,
                    deadline=None, database=None,
                    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large])


# ------------------------------------------------------------------ draws


@st.composite
def leveled_taxonomies(draw):
    """Every leaf at one depth (1-3), each node with 1-3 children, so some levels are unary."""
    parents, level = {"r": None}, ["r"]
    for _ in range(draw(st.integers(1, 3))):
        level = [f"{p}.{i}" for p in level for i in range(draw(st.integers(1, 3)))]
        parents |= {name: name.rpartition(".")[0] for name in level}
    return build_taxonomy(parents)


TIES = np.array([-1.0, -0.0, 0.0, 0.25, 0.5])
TINY_LOGITS = np.array([0.0, -1.0, -350.0, -400.0, -700.0])  # e^-400 squared is below 1e-300
WEIGHTS = np.array([-0.0, 0.0, 0.25, 0.5, 1.0])
TINY_WEIGHTS = np.array([1.0, 0.0, 1e-160, 1e-200, 1e-310])


def drawn_rows(rng, n: int, m: int, kind: str) -> np.ndarray:
    """``n`` rows of ``m`` scores, each row tie-rich, continuous or tiny; probability rows may
    hold entries down to -1e-6 and sum to 1 within 1e-6."""
    out = np.empty((n, m))
    for row, style in zip(out, rng.integers(0, 3, n)):
        if kind == LOGITS:
            row[:] = (rng.choice(TIES, m), rng.normal(0.0, 3.0, m), rng.choice(TINY_LOGITS, m))[style]
            continue
        w = (rng.choice(WEIGHTS, m), rng.random(m), rng.choice(TINY_WEIGHTS, m))[style]
        w[rng.integers(m)] = 1.0  # some mass
        row[:] = w / w.sum()
        if rng.random() < 0.5:  # as loose as FILE_TOL allows
            loose = row * (1.0 + rng.uniform(-9e-7, 9e-7))
            zeros = np.flatnonzero(loose == 0)[:rng.integers(m + 1)]
            loose[zeros] = -rng.uniform(0.0, 1e-6, zeros.size)
            if abs(loose[None].sum(axis=1)[0] - 1.0) <= 1e-6 and loose.max() <= 1.0 + 1e-6:
                row[:] = loose
    return out


def uniform(kind: str, m: int) -> np.ndarray:
    return np.zeros(m) if kind == LOGITS else np.full(m, 1.0 / m)


@dataclass(eq=False)
class Score:
    """One score file: its flag, the level it binds to, and its values in the level's order."""

    flag: str  # "fine", "coarse" or the depth of a --level file
    level: object  # column_order's level selector
    names: tuple  # the level's classes, in its order
    kind: str
    suffix: str
    order: np.ndarray  # file column j holds the level's column order[j]
    values: np.ndarray
    path: str = ""
    lines: list = None  # a text file's data rows, as written


@dataclass
class Case:
    t: object
    n: int
    scores: list  # fine first, then coarse (if any), then each distinct --level file
    levels: list  # (depth, Score) in command-line order; a Score may be the coarse file
    labels: np.ndarray
    kind_flag: str | None
    methods: list
    eval_method: str
    infer_method: str
    ks: list
    out_suffix: str
    dir: Path = None

    @property
    def fine(self) -> Score:
        return self.scores[0]

    @property
    def coarse(self):
        return next((s for s in self.scores if s.flag == "coarse"), None)

    def sources(self) -> dict:
        """Each level source's upper files, in the order the product takes them."""
        out = {}
        if self.coarse:
            out["coarse"] = [self.coarse]
        if self.levels:
            out["levels"] = [s for _, s in self.levels]
        return out


@st.composite
def cases(draw, max_rows=40):
    t = draw(st.one_of(taxonomies(), leveled_taxonomies()))
    n = draw(st.integers(1, max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    depths = []
    if t.is_leveled():
        depths = draw(st.lists(st.integers(0, t.max_depth - 1), unique=True, max_size=3))
    with_coarse = draw(st.booleans())
    shared = with_coarse and t.max_depth - 1 in depths and draw(st.booleans())

    def score(flag, level, names):
        kind = draw(st.sampled_from([LOGITS, PROBABILITIES]))
        order = np.array(draw(st.permutations(range(len(names)))))
        if draw(st.booleans()):  # the level's own order, as often as not
            order = np.arange(len(names))
        return Score(flag, level, names, kind, draw(st.sampled_from([".csv", ".hies"])), order,
                     drawn_rows(rng, n, len(names), kind))

    scores = [score("fine", "leaf", t.leaf_names())]
    if with_coarse:
        scores.append(score("coarse", "coarse", t.coarse_names()))
    levels = []
    for d in depths:
        if shared and d == t.max_depth - 1:
            levels.append((d, scores[1]))
        else:
            levels.append((d, score(d, d, tuple(t.names[i] for i in level_order(t, d)))))
            scores.append(levels[-1][1])
    kinds = {s.kind for s in scores}
    kind_flag = None
    if len(kinds) == 1 and draw(st.booleans()):
        kind_flag = "logits" if kinds == {LOGITS} else "probs"
    usable = [m for m, (source, _) in METHODS.items()
              if source in (None, "self") or (source == "coarse" and with_coarse)
              or (source == "levels" and levels)]
    methods = draw(st.lists(st.sampled_from(usable), min_size=1, max_size=len(usable), unique=True))
    return Case(t, n, scores, levels, rng.integers(0, t.n_leaves, n), kind_flag, methods,
                draw(st.sampled_from(methods)), draw(st.sampled_from(methods)),
                draw(st.lists(st.integers(1, t.n_leaves), min_size=1, max_size=3, unique=True)),
                draw(st.sampled_from([".hies", ".csv"])))


# Two configurations beside the reference: rows a block, processes.
CONFIGS = st.lists(st.tuples(st.sampled_from([1, 2, 7]), st.sampled_from([2, 3])),
                   min_size=2, max_size=2)

# ------------------------------------------------------------ input files


def file_values(s: Score) -> np.ndarray:
    return s.values[:, s.order]


def write_inputs(case: Case) -> None:
    """The hierarchy, the labels and every score file."""
    d = case.dir
    save_hierarchy(case.t, str(d / "hierarchy.json"))
    names = case.t.leaf_names()
    (d / "labels.txt").write_text("".join(names[i] + "\n" for i in case.labels))
    for s in case.scores:
        s.path = str(d / f"{s.flag if s.flag in ('fine', 'coarse') else f'level{s.flag}'}{s.suffix}")
        rewrite(s)


def rewrite(s: Score) -> None:
    """Write ``s`` from its values."""
    s.lines = [",".join(map(repr, map(float, row))).encode() for row in file_values(s)]
    write_score(s)


def write_score(s: Score, values=None) -> None:
    """``s`` as text (``s.lines``) or as '.hies' (``values`` in the file's order, else its own),
    written by hand: a fault is no ScoreMatrix."""
    names = [s.names[j] for j in s.order]
    if s.suffix == ".csv":
        head = f"# kind: {s.kind}\n{','.join(names)}\n".encode()
        Path(s.path).write_bytes(head + b"".join(line + b"\n" for line in s.lines))
    else:
        values = file_values(s) if values is None else values
        Path(s.path).write_bytes(struct.pack("<4sBBII", b"HIES", 1, s.kind == PROBABILITIES,
                                             *values.shape) + values.astype("<f8").tobytes())
        Path(f"{s.path}.names.json").write_text(json.dumps({"class_names": names}))


def base_args(case: Case) -> list:
    args = ["--hierarchy", str(case.dir / "hierarchy.json"), "--fine", case.fine.path]
    if case.coarse:
        args += ["--coarse", case.coarse.path]
    for d, s in case.levels:
        args += ["--level", f"{d}={s.path}"]
    return args + (["--kind", case.kind_flag] if case.kind_flag else [])


# --------------------------------------------------------- the whole matrices


def probabilities(case: Case, s: Score, level) -> ScoreMatrix:
    """The file as read whole, bound to ``level`` and softmaxed where it holds logits."""
    m = read_scores(s.path, {"logits": LOGITS, "probs": PROBABILITIES}.get(case.kind_flag))
    perm, names = column_order(m.class_names, case.t, level)
    return as_probabilities(ScoreMatrix(m.values if perm is None else m.values[:, perm],
                                        m.kind, names))


def ranked_whole(case: Case) -> dict:
    """Each method's ranked scores from whole matrices; DataError where a row has no mass."""
    t = case.t
    fine = probabilities(case, case.fine, "leaf")
    pmap = parent_index_map(t)
    products = {None: fine.values,
                "self": copy_product(fine.values, [(add_at_marginals(fine.values, pmap,
                                                                     t.n_coarse), pmap)])}
    if case.coarse:
        coarse = probabilities(case, case.coarse, "coarse")
        products["coarse"] = copy_product(fine.values, [(coarse.values, pmap)])
    if case.levels:
        products["levels"] = copy_product(fine.values, [
            (probabilities(case, s, d).values, ancestor_index_map(t, d)) for d, s in case.levels])
    out = {}
    for m, (source, rule) in METHODS.items():
        if source in products:
            p = ScoreMatrix(products[source], PROBABILITIES, t.leaf_names())
            out[m] = p if rule == "score" else crm_rerank(p, t)
    return out


def with_mass_in_every_row(case: Case) -> dict:
    """``ranked_whole``, once each row that has no combined mass has uniform upper levels."""
    while True:
        try:
            return ranked_whole(case)
        except DataError as e:  # "row <r>: ..."
            row = int(str(e).partition(":")[0].removeprefix("row "))
            for s in case.scores[1:]:
                s.values[row] = uniform(s.kind, s.values.shape[1])
                rewrite(s)


def ranking(ranked: ScoreMatrix, k: int) -> np.ndarray:
    return np.argsort(-ranked.values, axis=1, kind="stable")[:, :k]


def config_echo(case: Case) -> dict:
    roles = [("hierarchy", str(case.dir / "hierarchy.json")), ("fine", case.fine.path)]
    roles += [("coarse", case.coarse.path)] if case.coarse else []
    roles += [("labels", str(case.dir / "labels.txt"))]
    roles += [(f"level{d}", s.path) for d, s in case.levels]
    inputs = {role: "sha256:" + hashlib.sha256(Path(p).read_bytes()).hexdigest()
              for role, p in roles}
    return {"kind": case.kind_flag or "auto", "levels": [d for d, _ in case.levels],
            "inputs": inputs, "ks": case.ks}


def report_whole(case: Case, ranked: dict, method: str, echo: dict) -> EvalReport:
    h = dense_lca_heights(case.t)[ranking(ranked[method], max(case.ks)), case.labels[:, None]]
    return EvalReport(method, case.n, int((ranking(ranked[method], 1)[:, 0] != case.labels).sum()),
                      int(h[:, 0].sum()), {k: int(h[:, :k].sum()) for k in case.ks},
                      {"method": method, **echo})


# ------------------------------------------------------------------- runs


def commands(case: Case, out: Path) -> list:
    args, k = base_args(case), ["--labels", str(case.dir / "labels.txt"),
                                "--k", ",".join(map(str, case.ks))]
    return [["infer", *args, "--method", case.infer_method, "--out", str(out / f"s{case.out_suffix}")],
            ["eval", *args, *k, "--method", case.eval_method, "--out", str(out / "report.json")],
            ["compare", *args, *k, "--methods", ",".join(case.methods),
             "--out", str(out / "table.json")]]


def outcomes(argvs: list, out: Path, block: int, workers: int, n_cols: int):
    """Each command's (exit code, stdout, stderr), run in order into the emptied ``out``, and
    the files they leave there; then the processes each started (``conftest.count_forks``)."""
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    got, started = [], []
    with pytest.MonkeyPatch.context() as mp:
        use_block_rows(mp, block, n_cols)
        forks = count_forks(mp)
        for argv in argvs:
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = run(argv, workers=workers)
            got.append((code, stdout.getvalue(), stderr.getvalue()))
            started.append(forks[:])
            forks.clear()
    return (got, {p.name: p.read_bytes() for p in out.iterdir()}), started


def processes(case: Case, command: str, block: int, workers: int) -> list:
    """What a run that succeeds starts: eval and compare spawn a hasher where more than one
    process may run, and every command but a text infer forks a worker per 8 blocks after
    the first, up to ``workers`` processes in all."""
    forked = min(workers, 1 + (-(-case.n // block) - 1) // 8) - 1
    return (["spawn"] * (command != "infer" and workers > 1)
            + ["fork"] * forked * (command != "infer" or case.out_suffix == ".hies"))


def files_whole(case: Case, ranked: ScoreMatrix, path: Path) -> dict:
    """What infer writes at ``path`` for ``ranked``, by file name."""
    save_matrix(ranked, path)
    top = ranking(ranked, 1)[:, 0]
    write_labels(case.t, lambda write: write(top), f"{path}.preds.txt")
    return {p.name: p.read_bytes() for p in path.parent.iterdir() if p.name.startswith(path.name)}


@oracle(12)
@given(cases(), CONFIGS)
def test_every_configuration_writes_what_whole_matrices_give(case, configs):
    with tempfile.TemporaryDirectory() as tmp:
        case.dir = Path(tmp)
        write_inputs(case)
        ranked = with_mass_in_every_row(case)
        out, n_cols = case.dir / "out", case.t.n_leaves
        argvs = commands(case, out)
        reference, _ = outcomes(argvs, out, case.n, 1, n_cols)
        for block, workers in configs:
            got, started = outcomes(argvs, out, block, workers, n_cols)
            assert got == reference, (block, workers)
            assert started == [processes(case, argv[0], block, workers) for argv in argvs]

        echo = config_echo(case)
        reports = [report_whole(case, ranked, m, echo) for m in case.methods]
        report = report_whole(case, ranked, case.eval_method, echo)
        lib = case.dir / "lib"
        lib.mkdir()
        expected = files_whole(case, ranked[case.infer_method], lib / f"s{case.out_suffix}")
        write_report(report, str(lib / "report.json"))
        write_report_list(reports, str(lib / "table.json"))
        expected |= {name: (lib / name).read_bytes() for name in ("report.json", "table.json")}
        s = out / f"s{case.out_suffix}"
        printed = [f"wrote {s} and {s}.preds.txt\n", summary_row(report) + "\n",
                   "".join(f"{line}\n" for line in [summary_header(case.ks),
                                                    *map(summary_row, reports)])]
        assert reference == ([(0, p, "") for p in printed], expected)

        # Every method's infer, then eval --preds on its predictions, which must give
        # compare's top-1 counts: both break ties toward the lowest column.
        every = case.dir / "every"
        argvs = [["infer", *base_args(case), "--method", m,
                  "--out", str(every / f"{m}{case.out_suffix}")] for m in case.methods]
        argvs += [["eval", "--hierarchy", str(case.dir / "hierarchy.json"),
                   "--labels", str(case.dir / "labels.txt"),
                   "--preds", str(every / f"{m}{case.out_suffix}.preds.txt"), "--k", "1",
                   "--out", str(every / f"{m}.json")] for m in case.methods]
        (got, files), _ = outcomes(argvs, every, case.n, 1, n_cols)
        assert [code for code, _, _ in got] == [0] * len(argvs)
        # Again at the drawn configuration with the most blocks, so that cascade and crm
        # infer to '.hies' fork workers too where the rows allow it.
        block, workers = min(configs)
        again, started = outcomes(argvs, every, block, workers, n_cols)
        assert again == (got, files), (block, workers)
        n = len(case.methods)
        assert started == [processes(case, "infer", block, workers)] * n + [["spawn"]] * n
        table = {r["method"]: r for r in json.loads(reference[1]["table.json"])["reports"]}
        for m in case.methods:
            assert files_whole(case, ranked[m], lib / f"{m}{case.out_suffix}") == {
                name: b for name, b in files.items() if name.startswith(f"{m}{case.out_suffix}")}
            if case.out_suffix == ".hies":  # the kind byte: logits for negated costs
                assert files[f"{m}.hies"][5] == (METHODS[m][1] == "score"), m
            preds, compared = json.loads(files[f"{m}.json"]), table[m]
            for key in ("n_samples", "n_mistakes", "top1_accuracy", "avg_mistake_severity"):
                assert preds[key] == compared[key], (m, key)
            if "1" in compared["hier_dist_at_k"]:
                assert preds["hier_dist_at_k"]["1"] == compared["hier_dist_at_k"]["1"], m


# ----------------------------------------------------------------- faults

ROW_FAULTS = {"non-finite": "any", "token": ".csv", "fields": ".csv", "utf-8": ".csv",
              "negative": PROBABILITIES, "sum": PROBABILITIES, "above": PROBABILITIES}
TOKENS = ["x", "", "1_0", "0x1", "1e"]


def hosts(draw, case: Case, fault: str) -> list:
    """The score files that will hold faults, the first of them ``fault``, given the suffix or
    kind that fault needs before any file is written: up to three files for a row fault, up to
    two upper files for rows with no mass."""
    if fault == "labels":
        return []
    if fault == "no-mass":  # upper files with a column to empty and one to keep
        wide = [s for s in case.scores[1:] if s.values.shape[1] > 1]
        assume(wide)
        return draw(st.permutations(wide))[:min(draw(st.sampled_from([2, 1])), case.n)]
    s = draw(st.sampled_from(case.scores))
    if fault == "short" or ROW_FAULTS[fault] == ".csv":
        s.suffix = ".hies" if fault == "short" else ".csv"
    elif ROW_FAULTS[fault] == PROBABILITIES and s.kind == LOGITS:
        e = np.exp(s.values - s.values.max(axis=1, keepdims=True))
        s.kind, s.values, case.kind_flag = PROBABILITIES, e / e.sum(axis=1, keepdims=True), None
    others = [f for f in case.scores if f is not s and fault != "short"]
    return [s, *draw(st.permutations(others))[:draw(st.sampled_from([1, 2, 0]))]]


def row_fault(draw, s: Score, values: np.ndarray, r: int, kind: str) -> str:
    """Put fault ``kind`` in row ``r`` of ``s`` (``values`` in the file's order); the line it gives."""
    m, row, where = values.shape[1], values[r], f"{s.path}:{r + 3}"  # after kind and header
    cols = sorted(draw(st.lists(st.integers(0, m - 1), min_size=1, max_size=2, unique=True)))
    c = cols[0]  # a non-finite or negative value may have a second one after it in its row
    if kind == "non-finite":
        row[cols] = [draw(st.sampled_from([np.nan, np.inf, -np.inf])) for _ in cols]
    elif kind == "negative":
        row[cols] = -draw(st.sampled_from([0.25, 2e-6]))
    elif kind == "sum":
        row[c] += 0.1
    elif kind == "above":  # the row sums to 1 within FILE_TOL where it has two columns
        row[:] = 0.0
        row[(c + 1) % m] = -1e-6
        row[c] = 1.0 + 1.5e-6
    tokens = [repr(float(v)) for v in row]
    if kind == "token":
        tokens[c] = draw(st.sampled_from(TOKENS))
    elif kind == "fields":
        tokens = tokens[:-1] if m > 1 and draw(st.booleans()) else tokens + ["0.0"]
    line = ",".join(tokens).encode()
    if kind == "utf-8":
        at = draw(st.integers(0, len(line)))
        line = line[:at] + b"\xff" + line[at:]
    s.lines[r] = line
    if kind == "non-finite":
        return f"InputError: {s.path}: non-finite value at row {r}, column {c}"
    if kind == "token":
        return f"InputError: {where}: not a number: {tokens[c].strip()!r}"
    if kind == "fields":
        return f"InputError: {where}: {len(tokens)} fields, header has {m}"
    if kind == "utf-8":
        try:
            line.decode("utf-8")
        except UnicodeDecodeError as e:
            return f"InputError: {where}: not valid UTF-8: {e}"
    if kind == "negative":
        return f"InputError: {s.path}: negative entry at row {r}, column {c}"
    return f"InputError: {s.path}: row {r} sums to {float(row[None].sum(axis=1)[0])!r}, expected 1"


def inject(draw, case: Case, fault: str, faulty: list) -> dict:
    """Put faults in the files ``faulty`` (or the labels); the exit code and line each command
    must give, by command.

    Each file gets row faults in one to three rows: ``fault`` in the first file's first, then
    any kind the file can hold. The first faulty row's line is reported, of the first of its
    files in ``case.scores`` order. For no mass, each file gives one row no mass. A labels
    fault and a '.hies' payload cut short are each the only fault.
    """
    t, n = case.t, case.n

    def rows(size=None):  # one to three distinct rows, or ``size``, in order
        return sorted(draw(st.lists(st.integers(0, n - 1), min_size=size or 1, max_size=size or 3,
                                    unique=True)))

    if fault in ROW_FAULTS:
        lines = []  # (row, file position, line)
        for s in faulty:
            values = file_values(s)
            kinds = [k for k, needs in ROW_FAULTS.items() if needs in ("any", s.suffix, s.kind)]
            for r in rows():
                kind = draw(st.sampled_from(kinds)) if lines else fault
                lines.append((r, case.scores.index(s), row_fault(draw, s, values, r, kind)))
            write_score(s, values)
        return dict.fromkeys(["infer", "eval", "compare"], (2, min(lines)[2]))
    if fault == "labels":  # eval and compare read them, infer does not
        path, names, bad = case.dir / "labels.txt", [t.leaf_names()[i] for i in case.labels], rows()
        for r in bad:
            names[r] = draw(st.sampled_from([*(set(t.names) - set(t.leaf_names())), "nope"]))
        path.write_text("".join(f"{name}\n" for name in names))
        line = f"InputError: {path}:{bad[0] + 1}: {names[bad[0]]!r} is not a leaf class"
        return dict.fromkeys(["eval", "compare"], (2, line))
    if fault == "short":
        [s] = faulty
        size = 14 + 8 * s.values.size
        cut = draw(st.integers(1, 8 * s.values.size))
        os.truncate(s.path, size - cut)
        line = f"InputError: {s.path}: payload is {size - cut} bytes, expected {size}"
        return dict.fromkeys(["infer", "eval", "compare"], (2, line))
    # No mass: in row r, the fine file is one-hot at leaf a, the upper file s drawn for r gives
    # a's ancestor nothing, and every other upper file is uniform.
    dead = dict(zip(rows(len(faulty)), faulty))  # the files come in a drawn order
    for r, s in dead.items():
        a = draw(st.integers(0, t.n_leaves - 1))
        col = (parent_index_map(t) if s.flag == "coarse" else ancestor_index_map(t, s.level))[a]
        for f in case.scores:
            row = f.values[r]
            if f is case.fine:
                row[:] = -1000.0 if f.kind == LOGITS else 0.0
                row[a] = 0.0 if f.kind == LOGITS else 1.0
            elif f is s:
                row[:] = 0.0 if f.kind == LOGITS else 1.0 / (row.size - 1)
                row[col] = -1000.0 if f.kind == LOGITS else 0.0
            else:
                row[:] = uniform(f.kind, row.size)
    for f in case.scores:
        rewrite(f)
    sources = case.sources()
    dying = {s: [m for m, (source, _) in METHODS.items()
                 if any(f is s for f in sources.get(source, []))] for s in faulty}
    for s in faulty:  # compare takes a product of each emptied file
        if not set(case.methods) & set(dying[s]):
            case.methods.append(draw(st.sampled_from(dying[s])))
    either = st.sampled_from(sorted({m for ms in dying.values() for m in ms}))
    case.infer_method, case.eval_method = draw(either), draw(either)

    def no_mass(methods):  # the first dead row a product takes, named by the first such product
        for r, s in sorted(dead.items()):
            source = next((METHODS[m][0] for m in methods if m in dying[s]), None)
            if source:
                paths = ", ".join(f.path for f in [case.fine, *sources[source]])
                return 3, f"DataError: {paths}: row {r}: {NO_MASS}"

    return {"infer": no_mass([case.infer_method]), "eval": no_mass([case.eval_method]),
            "compare": no_mass(case.methods)}


@pytest.mark.parametrize("fault", [*ROW_FAULTS, "labels", "short", "no-mass"])
@oracle(6)
@given(cases(70), st.data(), CONFIGS)
def test_a_fault_in_one_file_gives_one_line_and_no_file_in_every_configuration(fault, case, data,
                                                                               configs):
    faulty = hosts(data.draw, case, fault)
    with tempfile.TemporaryDirectory() as tmp:
        case.dir = Path(tmp)
        write_inputs(case)
        with_mass_in_every_row(case)
        expect = inject(data.draw, case, fault, faulty)
        out, n_cols = case.dir / "out", case.t.n_leaves
        argvs = [argv for argv in commands(case, out) if argv[0] in expect]
        reference, _ = outcomes(argvs, out, case.n, 1, n_cols)
        assert reference == ([(code, "", f"{line}\n") for code, line in
                              (expect[argv[0]] for argv in argvs)], {})
        for block, workers in configs:
            assert outcomes(argvs, out, block, workers, n_cols)[0] == reference, (block, workers)
