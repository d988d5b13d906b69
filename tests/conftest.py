"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import strategies as st

from hieval.taxonomy import Taxonomy, build_taxonomy

# Four leaves under two groups; column order pinned to rose,tulip,bus,car so
# that score-matrix fixtures read naturally.
SEVEN_NODE_EDGES = [
    ("rose", "flower"),
    ("tulip", "flower"),
    ("bus", "vehicle"),
    ("car", "vehicle"),
    ("flower", "entity"),
    ("vehicle", "entity"),
]
SEVEN_NODE_LEAVES = ["rose", "tulip", "bus", "car"]


@pytest.fixture(scope="session")
def flower_vehicle() -> Taxonomy:
    return build_taxonomy(SEVEN_NODE_EDGES, leaf_order=SEVEN_NODE_LEAVES)


def random_tree_edges(rng: np.random.Generator, n_nodes: int) -> list[tuple[str, str]]:
    """Random rooted tree: node i attaches below a uniformly chosen earlier node."""
    return [(f"v{i}", f"v{int(rng.integers(0, i))}") for i in range(1, n_nodes)]


def random_taxonomy(rng: np.random.Generator, n_nodes: int) -> Taxonomy:
    return build_taxonomy(random_tree_edges(rng, n_nodes))


@st.composite
def taxonomies(draw, max_nodes=40):
    """Random trees (unleveled, unary chains, leaves under the root) plus fixed edge shapes."""
    shape = draw(st.sampled_from(["random", "chain", "star", "root-leaves"]))
    if shape == "random":
        seed = draw(st.integers(0, 2**32 - 1))
        return random_taxonomy(np.random.default_rng(seed), draw(st.integers(2, max_nodes)))
    n = draw(st.integers(1, 8))
    if shape == "chain":  # a unary chain n edges long, beside one leaf under the root
        edges = [(f"c{i + 1}", f"c{i}") for i in range(n)] + [("near", "c0")]
    elif shape == "star":
        edges = [(f"leaf{i}", "hub") for i in range(n)]
    else:  # leaves directly under the root next to a two-level subtree
        edges = [(f"top{i}", "root") for i in range(n)]
        edges += [("mid", "root"), ("deep0", "mid"), ("deep1", "mid")]
    return build_taxonomy(edges)


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
