"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import errno
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from hieval import cli, scores
from hieval.errors import DataError
from hieval.fileio import ScoreReader, save_scores
from hieval.scores import ScoreMatrix
from hieval.synth import gen_instance, gen_taxonomy
from hieval.taxonomy import Taxonomy, build_taxonomy

# Four leaves under two groups; column order pinned to rose,tulip,bus,car so
# that score-matrix fixtures read naturally.
SEVEN_NODE_PARENTS = {
    "entity": None,
    "rose": "flower",
    "tulip": "flower",
    "bus": "vehicle",
    "car": "vehicle",
    "flower": "entity",
    "vehicle": "entity",
}
SEVEN_NODE_LEAVES = ["rose", "tulip", "bus", "car"]


@pytest.fixture(autouse=True)
def no_child_process_outlives_a_test():
    """Fail a test that leaves a child process running or unreaped (eval and compare fork)."""
    yield
    try:
        pid, _ = os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return
    pytest.fail(f"a child process was left {'running' if pid == 0 else f'unreaped (pid {pid})'}")


def count_forks(monkeypatch) -> list:
    """How each child process (``procs.Child``) this process starts from now on was started:
    "spawn" for a run's hasher (``hashing.hasher_argv``), "fork" for a row worker."""
    forks = []

    def counted(name, how):
        real = getattr(os, name)

        def call(*args, **kwargs):
            pid = real(*args, **kwargs)
            if pid:
                forks.append(how)
            return pid

        monkeypatch.setattr(os, name, call)

    counted("fork", "fork")
    counted("posix_spawn", "spawn")
    return forks


def fail_call(monkeypatch, name: str, n: int) -> list:
    """Make the ``n``-th call of ``os.<name>`` from now on fail as when no process can start.

    Returns the list that gets an entry per call.
    """
    real, calls = getattr(os, name), []

    def failing(*args, **kwargs):
        calls.append(name)
        if len(calls) == n:
            raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
        return real(*args, **kwargs)

    monkeypatch.setattr(os, name, failing)
    return calls


def save_matrix(m: ScoreMatrix, path) -> None:
    """Write ``m`` to ``path`` as ``save_scores``' one block."""
    save_scores(lambda write: write(m), str(path))


def read_scores(path, declared_kind=None) -> ScoreMatrix:
    """Every row of the score file at ``path`` as one matrix, its columns in the file's order."""
    with ScoreReader(str(path), declared_kind) as reader:
        return reader.read(0, reader.n_rows)


def use_block_rows(monkeypatch, rows: int, n_cols: int) -> None:
    """Have the commands read ``rows`` rows a block from files of ``n_cols`` columns."""
    monkeypatch.setattr(scores, "BLOCK_ENTRIES", rows * n_cols)


def entry_point_env() -> dict:
    """The environment for ``python -m hieval`` to import this checkout's package."""
    src = str(Path(cli.__file__).resolve().parent.parent)
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="session")
def flower_vehicle() -> Taxonomy:
    return build_taxonomy(SEVEN_NODE_PARENTS, leaf_order=SEVEN_NODE_LEAVES)


def random_taxonomy(rng: np.random.Generator, n_nodes: int) -> Taxonomy:
    """Random rooted tree: node i attaches below a uniformly chosen earlier node."""
    parents = {f"v{i}": f"v{int(rng.integers(0, i))}" for i in range(1, n_nodes)}
    return build_taxonomy({"v0": None} | parents)


def star(n: int) -> Taxonomy:
    """A root over ``n`` leaves, whose LCA-height costs are the 0/1 costs ``1 - I``."""
    return build_taxonomy({"hub": None} | {f"leaf{i}": "hub" for i in range(n)})


@st.composite
def taxonomies(draw, max_nodes=40):
    """Random trees (unleveled, unary chains, leaves under the root) plus fixed edge shapes."""
    shape = draw(st.sampled_from(["random", "chain", "star", "root-leaves"]))
    if shape == "random":
        seed = draw(st.integers(0, 2**32 - 1))
        return random_taxonomy(np.random.default_rng(seed), draw(st.integers(2, max_nodes)))
    n = draw(st.integers(1, 8))
    if shape == "chain":  # a unary chain n edges long, beside one leaf under the root
        parents = {"c0": None, "near": "c0"} | {f"c{i + 1}": f"c{i}" for i in range(n)}
    elif shape == "star":
        return star(n)
    else:  # leaves directly under the root next to a two-level subtree
        parents = {"root": None, "mid": "root", "deep0": "mid", "deep1": "mid"}
        parents |= {f"top{i}": "root" for i in range(n)}
    return build_taxonomy(parents)


def stack(blocks) -> ScoreMatrix:
    """One whole ScoreMatrix from a stream of row blocks, in row order."""
    blocks = list(blocks)
    return ScoreMatrix(np.vstack([b.values for b in blocks]), blocks[0].kind, blocks[0].class_names)


def synth_instance(cfg):
    """``gen_instance`` with each level stacked whole: (taxonomy, labels, fine, uppers)."""
    t = gen_taxonomy(cfg)
    labels, levels = gen_instance(cfg, t)
    matrices = [stack(blocks) for blocks in levels]
    return t, labels, matrices[-1], matrices[:-1]


# ------------------------------------------------- brute-force tree oracles
#
# Scalar walks over node ids, one parent step at a time: slow and obviously
# right, the reference for the vectorised lookups in ``hieval.taxonomy``.


def ancestor_at_depth(t: Taxonomy, node: int, d: int) -> int:
    """The ancestor of ``node`` at depth ``d`` (``node`` itself at its own depth)."""
    for _ in range(t.depth[node] - d):
        node = t.parent[node]
    return node


def lca_height(t: Taxonomy, a: int, b: int) -> int:
    """Height of the deepest common ancestor of nodes ``a`` and ``b``."""
    d = min(t.depth[a], t.depth[b])
    a, b = ancestor_at_depth(t, a, d), ancestor_at_depth(t, b, d)
    while a != b:
        a, b = t.parent[a], t.parent[b]
    return t.height[a]


def dense_lca_heights(t: Taxonomy) -> np.ndarray:
    """The leaf-by-leaf LCA heights in ``leaf_order`` convention, one walk per pair."""
    leaves = t.leaf_order
    return np.array([[lca_height(t, a, b) for b in leaves] for a in leaves], dtype=np.int64)


def dense_expected_costs(p: np.ndarray, t: Taxonomy) -> np.ndarray:
    """Each row's expected LCA-height cost of every leaf, by its definition (``risk``'s reference)."""
    return p @ dense_lca_heights(t).T


# ------------------------------------------------- bitwise kernel oracles
#
# The combine kernels as first written: an unbuffered np.add.at for parent
# marginals, and a copy of the fine block times fancy-indexed gathers for the
# product. ``hieval.ensemble``'s kernels must give the same bits.


def add_at_marginals(values: np.ndarray, pmap, n_coarse: int) -> np.ndarray:
    out = np.zeros((values.shape[0], n_coarse), dtype=np.float64)
    rows = np.broadcast_to(np.arange(values.shape[0])[:, None], values.shape)
    cols = np.broadcast_to(np.asarray(pmap)[None, :], values.shape)
    np.add.at(out, (rows, cols), values)
    return out


NO_MASS = ("once negative entries count as 0, no fine-times-coarse product reaches 1e-300; "
           "inputs carry no usable probability mass")


def copy_product(fine: np.ndarray, factors, limit: float = 1e-300) -> np.ndarray:
    """Renormalised fine * gathered factors, DataError "row <r>: NO_MASS" as the package
    raises it; the log-space redo weighs a negative entry (as FILE_TOL allows) as 0."""
    u = fine.copy()
    for values, col_map in factors:
        u *= values[:, col_map]
    low = u < limit
    dead = low.all(axis=1)
    if dead.any():
        raise DataError(f"row {int(np.argmax(dead))}: {NO_MASS}")
    u /= u.sum(axis=1, keepdims=True)
    redo = low.any(axis=1)
    if redo.any():
        with np.errstate(divide="ignore"):
            logs = np.log(fine[redo].clip(min=0.0))
            for values, col_map in factors:
                logs += np.log(values[redo][:, col_map].clip(min=0.0))
        for row, row_logs in zip(np.flatnonzero(redo), logs):
            if np.isneginf(row_logs).all():
                raise DataError(f"row {int(row)}: {NO_MASS}")
        peak = logs.max(axis=1, keepdims=True)
        w = np.where(np.isneginf(logs), 0.0, np.exp(logs - peak))
        u[redo] = w / w.sum(axis=1, keepdims=True)
    assert np.isfinite(u).all()
    return u


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool((a.view(np.uint64) == b.view(np.uint64)).all())


def random_prob_rows(rng: np.random.Generator, n: int, k: int) -> np.ndarray:
    rows = rng.random((n, k)) + 1e-9
    return rows / rows.sum(axis=1, keepdims=True)


# A handful of levels, -0.0 beside 0.0, so ties inside rows and across the
# k-th position are the common case rather than the rare one.
TIE_LEVELS = (-1.0, -0.0, 0.0, 0.25, 0.5)


@st.composite
def tied_matrix_and_k(draw):
    """A small float matrix rich in ties (some rows constant) and a k at an edge."""
    n = draw(st.integers(1, 6))
    c = draw(st.integers(1, 9))
    rows = [
        [draw(st.sampled_from(TIE_LEVELS))] * c
        if draw(st.booleans())
        else draw(st.lists(st.sampled_from(TIE_LEVELS), min_size=c, max_size=c))
        for _ in range(n)
    ]
    k = draw(st.sampled_from(sorted({1, min(2, c), max(c - 1, 1), c})))
    return np.array(rows, dtype=np.float64), k


# ------------------------------------------------------- acceptance summary
#
# test_acceptance.py wraps each criterion in the `criterion` context manager;
# the terminal summary hook prints one PASS/FAIL line per criterion at the
# end of the run regardless of output capturing.

ACCEPTANCE_RESULTS: list[tuple[int, str, bool, str]] = []


@contextmanager
def criterion(number: int, description: str):
    detail = {"text": ""}
    try:
        yield detail
    except BaseException:
        ACCEPTANCE_RESULTS.append((number, description, False, detail["text"]))
        raise
    else:
        ACCEPTANCE_RESULTS.append((number, description, True, detail["text"]))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number, description, ok, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        terminalreporter.write_line(f"[criterion {number:2d}] {status} - {description}{suffix}")
