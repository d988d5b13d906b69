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

    parent_name: dict[str, str] = {}
    seen: dict[str, None] = {}
    for child, parent in edges:
        if not isinstance(child, str) or not isinstance(parent, str) or not child or not parent:
            raise EmptyInput(f"edge ({child!r}, {parent!r}) has an empty or non-string name")
        prior = parent_name.get(child)
        if prior is not None and prior != parent:
            raise NodeWithTwoParents(
                f"node {child!r} has parents {prior!r} and {parent!r}"
            )
        parent_name[child] = parent
        seen[child] = None
        seen[parent] = None

    all_names = sorted(seen)
    roots = [n for n in all_names if n not in parent_name]
    if not roots:
        raise CycleDetected(
            "every node has a parent; cycle through: "
            + ", ".join(repr(x) for x in _find_cycle(parent_name, all_names[0]))
        )
    if len(roots) > 1:
        raise MultipleRoots("multiple root nodes: " + ", ".join(repr(r) for r in roots))

    ids = {name: i for i, name in enumerate(all_names)}
    n = len(all_names)
    parent: list[Optional[int]] = [None] * n
    children: list[list[int]] = [[] for _ in range(n)]
    for child, par in parent_name.items():
        parent[ids[child]] = ids[par]
        children[ids[par]].append(ids[child])
    root = ids[roots[0]]

    # Depth by BFS from the root; any node left unvisited sits on a cycle.
    depth = [-1] * n
    depth[root] = 0
    queue = [root]
    while queue:
        node = queue.pop()
        for ch in children[node]:
            depth[ch] = depth[node] + 1
            queue.append(ch)
    unreachable = [all_names[i] for i in range(n) if depth[i] < 0]
    if unreachable:
        raise CycleDetected(
            "nodes unreachable from the root (cycle): "
            + ", ".join(repr(x) for x in unreachable)
        )

    # Heights bottom-up: process nodes deepest first.
    height = [0] * n
    for node in sorted(range(n), key=lambda i: -depth[i]):
        if children[node]:
            height[node] = 1 + max(height[ch] for ch in children[node])

    leaves = [i for i in range(n) if not children[i]]
    leaf_ids = _resolve_order(leaf_order, leaves, all_names, ids, "leaf_order")
    coarse_set = sorted({parent[lf] for lf in leaves})
    coarse_ids = _resolve_order(coarse_order, coarse_set, all_names, ids, "coarse_order")

    return Taxonomy(
        names=tuple(all_names),
        parent=tuple(parent),
        root=root,
        leaf_order=tuple(leaf_ids),
        coarse_order=tuple(coarse_ids),
        depth=tuple(depth),
        height=tuple(height),
    )


def _find_cycle(parent_name: dict[str, str], start: str) -> list[str]:
    seen: dict[str, int] = {}
    node, step = start, 0
    while node not in seen:
        seen[node] = step
        node, step = parent_name[node], step + 1
    cycle = [n for n, s in seen.items() if s >= seen[node]]
    return sorted(cycle)


def _resolve_order(requested, node_set, all_names, ids, label):
    canonical = sorted(node_set, key=lambda i: all_names[i])
    if requested is None:
        return canonical
    want = sorted(all_names[i] for i in node_set)
    got = sorted(requested)
    if got != want:
        extra = [x for x in got if x not in set(want)]
        missing = [x for x in want if x not in set(got)]
        raise OrderMismatch(
            f"{label} is not a permutation of the node set"
            + (f"; unexpected: {extra}" if extra else "")
            + (f"; missing: {missing}" if missing else "")
        )
    return [ids[name] for name in requested]


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
    the deepest depth at which both leaves' ancestors agree. O(size * depth).
    """
    table = ancestor_table(t)
    height = np.asarray(t.height, dtype=np.int64)
    a, b = np.asarray(a), np.asarray(b)
    out = np.full(np.broadcast_shapes(a.shape, b.shape), height[t.root], dtype=np.int64)
    for d in range(1, table.shape[1]):
        x = table[a, d]
        np.copyto(out, height[x], where=x == table[b, d])
    return out


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
