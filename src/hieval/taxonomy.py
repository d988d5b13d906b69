"""Label-hierarchy construction and queries.

A taxonomy is a rooted tree over class names. Its leaves are the fine-grained
classes and the distinct parents of leaves form the coarse level. Node height
counts edges on the longest downward path to a descendant leaf (every leaf has
height 0), so the height of two leaves' lowest common ancestor measures how
bad it is to confuse one for the other: 0 for a correct prediction, 1 for a
sibling mix-up, up to the root's height for maximally distant classes.

A taxonomy is built from a map of each node name to its parent's name, the
table a hierarchy file holds; :func:`build_taxonomy` is the one place its tree
is checked. ``leaf_order`` and ``coarse_order`` fix the column conventions that score
matrices are bound to. They default to lexicographic name order and can be
overridden explicitly when a hierarchy file says so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .errors import DataError, InputError


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
    parents: Mapping[str, str | None],
    leaf_order: Sequence[str] | None = None,
    coarse_order: Sequence[str] | None = None,
) -> Taxonomy:
    """Build and validate a taxonomy from a map of each node name to its parent name.

    The one place a hierarchy's tree is checked. The root's parent is None.
    Orderings default to lexicographic; explicit overrides must be
    permutations of the actual leaf set and parent-of-leaf set. Raises
    InputError on an empty or non-string name or parent, more than one root, a
    parent that is no node, no edge, a cycle or an order that is no
    permutation, each naming the offending node(s).
    """
    for name, parent in parents.items():
        if not (isinstance(name, str) and name and (parent is None or isinstance(parent, str) and parent)):
            raise InputError(f"node {name!r} with parent {parent!r} has an empty or non-string name")
    roots = [name for name, parent in parents.items() if parent is None]
    if len(roots) > 1:
        raise InputError("multiple null-parent nodes: " + ", ".join(map(repr, sorted(roots))))
    undeclared = sorted({*parents.values()}.difference(parents, [None]))
    if undeclared:
        raise InputError(
            "parent names never declared as nodes: " + ", ".join(map(repr, undeclared))
        )
    if len(parents) < 2:
        raise InputError(f"{len(parents)} node(s); a hierarchy needs a root and a node below it")

    # Files list nodes in name order, and sorting a sorted run is one pass.
    all_names = sorted(parents)
    if not roots:
        raise InputError(
            "every node has a parent; cycle through: "
            + ", ".join(map(repr, _find_cycle(parents, all_names[0])))
        )

    n = len(all_names)
    ids = dict(zip(all_names, range(n)))
    parent = list(map(ids.get, map(parents.__getitem__, all_names)))
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
        raise InputError(
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


def _find_cycle(parents: Mapping[str, str], start: str) -> list[str]:
    seen: dict[str, int] = {}
    node, step = start, 0
    while node not in seen:
        seen[node] = step
        node, step = parents[node], step + 1
    cycle = [n for n, s in seen.items() if s >= seen[node]]
    return sorted(cycle)


def _resolve_order(requested, canonical, all_names, ids, label) -> tuple[int, ...]:
    """``requested`` names as ids, checked to be a permutation of the sorted ids ``canonical``."""
    if requested is None:
        return tuple(canonical)
    try:
        requested = list(requested)
    except TypeError:  # not iterable: a lone unexpected entry
        requested = [requested]
    try:
        resolved = tuple(map(ids.__getitem__, requested))
    except (KeyError, TypeError):
        resolved = None
    if resolved is None or sorted(resolved) != canonical:
        want = [all_names[i] for i in canonical]
        got = sorted(requested, key=str)  # str keys sort an order of mixed types
        want_set = set(want)
        known = [x for x in got if isinstance(x, str) and x in want_set]
        extra = [x for x in got if not (isinstance(x, str) and x in want_set)]
        missing = sorted(want_set.difference(known))
        repeated = sorted({x for x, y in zip(known, known[1:]) if x == y})
        raise InputError(
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

    The one routine that computes them: the height at the deepest depth where
    both leaves' ancestors agree. O(size * depth), reading the ancestor table's
    columns below the root and their heights, each contiguous and cached on the
    taxonomy.
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
    ``d`` must lie in ``[0, t.max_depth]``, as every ``--level`` depth is checked to.
    """
    if t.is_leveled():
        leaf_depth = t.depth[t.leaf_order[0]]
        if d == leaf_depth:
            return t.leaf_order
        if d == leaf_depth - 1:  # in a leveled tree these nodes are the leaves' parents
            return t.coarse_order
    at_depth = [i for i in range(t.n_nodes) if t.depth[i] == d]
    return tuple(sorted(at_depth, key=lambda i: t.names[i]))


def ancestor_index_map(t: Taxonomy, d: int) -> np.ndarray:
    """For each leaf column, the column of its depth-``d`` ancestor in ``level_order``.

    Requires all leaves at equal depth; raises DataError otherwise.
    Cached per depth, read-only.
    """

    def build():
        if not t.is_leveled():
            depths = sorted({t.depth[n] for n in t.leaf_order})
            raise DataError(f"leaves sit at depths {depths}; cascading by depth is undefined")
        return _positions(t, level_order(t, d))[ancestor_table(t)[:, d]]

    return cached(t, ("ancestor_index_map", d), build)
