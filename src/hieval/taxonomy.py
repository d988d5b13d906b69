"""Label-hierarchy construction and queries.

A taxonomy is a rooted tree over class names. Its leaves are the fine-grained
classes and the distinct parents of leaves form the coarse level. Node height
counts edges on the longest downward path to a descendant leaf (every leaf has
height 0), so the height of two leaves' lowest common ancestor measures how
bad it is to confuse one for the other: 0 for a correct prediction, 1 for a
sibling mix-up, up to the root's height for maximally distant classes.

``leaf_order`` and ``coarse_order`` fix the column conventions that score
matrices are bound to. They default to lexicographic name order and can be
overridden explicitly when a hierarchy file says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    CycleDetected,
    DepthOutOfRange,
    EmptyInput,
    MultipleRoots,
    NodeWithTwoParents,
    NonLeveledTree,
    OrderMismatch,
)


@dataclass(frozen=True, eq=False)
class Taxonomy:
    """Immutable label hierarchy. Build with :func:`build_taxonomy`.

    Node ids are dense integers in ``[0, n_nodes)`` assigned in sorted name
    order; they are stable for the lifetime of the instance.
    """

    names: tuple[str, ...]
    parent: tuple[Optional[int], ...]
    root: int
    leaf_order: tuple[int, ...]
    coarse_order: tuple[int, ...]
    depth: tuple[int, ...]
    height: tuple[int, ...]
    _cache: dict = field(default_factory=dict, repr=False)

    @property
    def n_nodes(self) -> int:
        return len(self.names)

    @property
    def n_leaves(self) -> int:
        return len(self.leaf_order)

    @property
    def n_coarse(self) -> int:
        return len(self.coarse_order)

    @property
    def max_depth(self) -> int:
        return max(self.depth)

    def is_leveled(self) -> bool:
        """True when every leaf sits at the same depth."""
        depths = {self.depth[n] for n in self.leaf_order}
        return len(depths) == 1

    def leaf_names(self) -> tuple[str, ...]:
        return tuple(self.names[n] for n in self.leaf_order)

    def coarse_names(self) -> tuple[str, ...]:
        return tuple(self.names[n] for n in self.coarse_order)


def build_taxonomy(
    edges: Sequence[tuple[str, str]],
    leaf_order: Sequence[str] | None = None,
    coarse_order: Sequence[str] | None = None,
) -> Taxonomy:
    """Build and validate a taxonomy from (child_name, parent_name) edges.

    The root is the one name that never appears as a child. Orderings default
    to lexicographic; explicit overrides must be permutations of the actual
    leaf set and parent-of-leaf set.

    Raises EmptyInput, NodeWithTwoParents, MultipleRoots, CycleDetected, or
    OrderMismatch, each naming the offending node(s).
    """
    if not edges:
        raise EmptyInput("edge list is empty")
    # Checked in bulk; on any doubt the edge walk names the first faulty edge
    # (or accepts repeated equal edges).
    try:
        parent_name = dict(edges)
    except (TypeError, ValueError):
        parent_name = {}
    if (
        len(parent_name) != len(edges)
        or "" in parent_name
        or "" in parent_name.values()
        or {*map(type, parent_name), *map(type, parent_name.values())} != {str}
    ):
        parent_name = _parent_names(edges)
    roots = {*parent_name.values()}.difference(parent_name)

    # Children first in edge order: files list nodes in name order, and
    # sorting a sorted run is one pass.
    all_names = sorted([*parent_name, *roots])
    roots = sorted(roots)
    if not roots:
        raise CycleDetected(
            "every node has a parent; cycle through: "
            + ", ".join(repr(x) for x in _find_cycle(parent_name, all_names[0]))
        )
    if len(roots) > 1:
        raise MultipleRoots("multiple root nodes: " + ", ".join(repr(r) for r in roots))

    n = len(all_names)
    ids = dict(zip(all_names, range(n)))
    parent = list(map(ids.get, map(parent_name.get, all_names)))
    root = ids[roots[0]]
    children: list[list[int]] = [[] for _ in range(n)]
    for child, par in enumerate(parent):
        if par is not None:
            children[par].append(child)

    # Breadth-first from the root (the list grows as it is read); any node
    # left out sits on a cycle.
    order = [root]
    for node in order:
        order.extend(children[node])
    depth = [-1] * n
    depth[root] = 0
    for node in order[1:]:
        depth[node] = depth[parent[node]] + 1
    if len(order) < n:
        raise CycleDetected(
            "nodes unreachable from the root (cycle): "
            + ", ".join(repr(all_names[i]) for i in range(n) if depth[i] < 0)
        )

    # Heights bottom-up: reversed breadth-first order has children first.
    height = [0] * n
    for node in reversed(order[1:]):
        if height[parent[node]] <= height[node]:
            height[parent[node]] = height[node] + 1

    # Ids follow name order, so sorted ids are the lexicographic orders.
    leaves = [i for i in range(n) if not children[i]]
    coarse = sorted({parent[leaf] for leaf in leaves})
    return Taxonomy(
        names=tuple(all_names),
        parent=tuple(parent),
        root=root,
        leaf_order=_resolve_order(leaf_order, leaves, all_names, ids, "leaf_order"),
        coarse_order=_resolve_order(coarse_order, coarse, all_names, ids, "coarse_order"),
        depth=tuple(depth),
        height=tuple(height),
    )


def _parent_names(edges) -> dict[str, str]:
    parent_name: dict[str, str] = {}
    for child, parent in edges:
        if not isinstance(child, str) or not isinstance(parent, str) or not child or not parent:
            raise EmptyInput(f"edge ({child!r}, {parent!r}) has an empty or non-string name")
        prior = parent_name.get(child)
        if prior is not None and prior != parent:
            raise NodeWithTwoParents(
                f"node {child!r} has parents {prior!r} and {parent!r}"
            )
        parent_name[child] = parent
    return parent_name


def _find_cycle(parent_name: dict[str, str], start: str) -> list[str]:
    seen: dict[str, int] = {}
    node, step = start, 0
    while node not in seen:
        seen[node] = step
        node, step = parent_name[node], step + 1
    cycle = [n for n, s in seen.items() if s >= seen[node]]
    return sorted(cycle)


def _resolve_order(requested, canonical, all_names, ids, label) -> tuple[int, ...]:
    """``requested`` names as ids, checked to be a permutation of the sorted ids ``canonical``."""
    if requested is None:
        return tuple(canonical)
    try:
        resolved = tuple(map(ids.__getitem__, requested))
    except (KeyError, TypeError):
        resolved = None
    if resolved is None or sorted(resolved) != canonical:
        want = [all_names[i] for i in canonical]
        got = sorted(requested)
        want_set, got_set = set(want), set(got)
        extra = [x for x in got if x not in want_set]
        missing = [x for x in want if x not in got_set]
        repeated = sorted({x for x, y in zip(got, got[1:]) if x == y} & want_set)
        raise OrderMismatch(
            f"{label} is not a permutation of the node set"
            + (f"; unexpected: {extra}" if extra else "")
            + (f"; missing: {missing}" if missing else "")
            + (f"; repeated: {repeated}" if repeated else "")
        )
    return resolved


def cached(t: Taxonomy, key, build):
    """``build()``, computed once per taxonomy and ``key`` and kept on the taxonomy.

    Hierarchy-derived arrays are built once per run this way, however many
    blocks of rows use them. Arrays come back read-only, since callers share them.
    """
    cache = t._cache
    if key not in cache:
        value = build()
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        cache[key] = value
    return cache[key]


def ancestor_table(t: Taxonomy) -> np.ndarray:
    """Each leaf's path from the root, one row per leaf in ``leaf_order`` convention.

    Entry ``[i, d]`` is the ancestor of leaf column ``i`` at depth ``d``; below
    a shallower leaf it repeats the leaf, so two rows agree at a depth exactly
    when their leaves share an ancestor there. Shape ``(n_leaves, max_depth + 1)``;
    cached on the taxonomy, read-only.
    """
    return cached(t, "ancestor_table", lambda: _build_ancestor_table(t))


def _build_ancestor_table(t: Taxonomy) -> np.ndarray:
    parent = np.array([-1 if p is None else p for p in t.parent], dtype=np.int64)
    node = np.array(t.leaf_order, dtype=np.int64)
    depth = np.asarray(t.depth, dtype=np.int64)[node]
    rows = np.arange(t.n_leaves)
    table = np.repeat(node[:, None], t.max_depth + 1, axis=1)
    while rows.size:
        table[rows, depth] = node
        up = depth > 0
        rows, node, depth = rows[up], parent[node[up]], depth[up] - 1
    return table


def lca_heights(t: Taxonomy, a, b) -> np.ndarray:
    """LCA heights of leaf columns ``a`` and ``b``, index arrays broadcast together.

    Equals ``cost_matrix(t)[a, b]`` without building the matrix: the LCA is
    the deepest depth at which both leaves' ancestors agree. O(size * depth),
    reading the ancestor table's columns below the root and their heights,
    each contiguous and cached on the taxonomy.
    """
    a, b = np.asarray(a), np.asarray(b)
    if a.size < b.size:  # heights are gathered through the smaller one
        a, b = b, a
    out = np.full(np.broadcast_shapes(a.shape, b.shape), t.height[t.root], dtype=np.int64)
    for col, height in zip(*cached(t, "lca_columns", lambda: _build_lca_columns(t))):
        np.copyto(out, height[b], where=col[a] == col[b])
    return out


def _build_lca_columns(t: Taxonomy) -> np.ndarray:
    """``[ancestor columns, their heights]``, one row per depth 1 .. max_depth."""
    cols = ancestor_table(t).T[1:]
    return np.stack([cols, np.asarray(t.height, dtype=np.int64)[cols]])


def cost_matrix(t: Taxonomy) -> np.ndarray:
    """Leaf-by-leaf LCA-height costs in ``leaf_order`` convention.

    Symmetric with a zero diagonal; off-diagonal entries are at least 1.
    The array is cached on the taxonomy and returned read-only.
    """

    def build():
        cols = np.arange(t.n_leaves)
        return lca_heights(t, cols[:, None], cols)

    return cached(t, "cost_matrix", build)


def _positions(t: Taxonomy, order: Sequence[int]) -> np.ndarray:
    """Node id -> column in ``order`` (-1 for nodes not in it)."""
    pos = np.full(t.n_nodes, -1, dtype=np.int64)
    pos[list(order)] = np.arange(len(order))
    return pos


def parent_index_map(t: Taxonomy) -> np.ndarray:
    """For each leaf column, the column of its parent in ``coarse_order``; cached, read-only."""

    def build():
        leaf_depth = np.asarray(t.depth, dtype=np.int64)[list(t.leaf_order)]
        parents = ancestor_table(t)[np.arange(t.n_leaves), leaf_depth - 1]
        return _positions(t, t.coarse_order)[parents]

    return cached(t, "parent_index_map", build)


def level_order(t: Taxonomy, d: int) -> tuple[int, ...]:
    """Canonical column order for the nodes at depth ``d``.

    Matches ``leaf_order`` / ``coarse_order`` when the tree is leveled and
    ``d`` addresses those levels, so explicit ordering overrides carry through
    to depth-indexed lookups; other depths order lexicographically by name.
    """
    if not 0 <= d <= t.max_depth:
        raise DepthOutOfRange(f"depth {d} outside [0, {t.max_depth}]")
    at_depth = [i for i in range(t.n_nodes) if t.depth[i] == d]
    if t.is_leveled():
        leaf_depth = t.depth[t.leaf_order[0]]
        if d == leaf_depth:
            return t.leaf_order
        if d == leaf_depth - 1 and set(at_depth) == set(t.coarse_order):
            return t.coarse_order
    return tuple(sorted(at_depth, key=lambda i: t.names[i]))


def ancestor_index_map(t: Taxonomy, d: int) -> np.ndarray:
    """For each leaf column, the column of its depth-``d`` ancestor in ``level_order``.

    Requires all leaves at equal depth; raises NonLeveledTree otherwise.
    Cached per depth, read-only.
    """

    def build():
        if not t.is_leveled():
            depths = sorted({t.depth[n] for n in t.leaf_order})
            raise NonLeveledTree(f"leaves sit at depths {depths}; cascading by depth is undefined")
        return _positions(t, level_order(t, d))[ancestor_table(t)[:, d]]

    return cached(t, ("ancestor_index_map", d), build)
