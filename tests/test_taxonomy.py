import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SEVEN_NODE_EDGES, ancestor_at_depth, lca_height, random_taxonomy, taxonomies
from hieval.errors import (
    CycleDetected,
    DepthOutOfRange,
    EmptyInput,
    MultipleRoots,
    NodeWithTwoParents,
    NonLeveledTree,
    OrderMismatch,
)
from hieval.taxonomy import (
    ancestor_index_map,
    ancestor_table,
    build_taxonomy,
    cost_matrix,
    lca_heights,
    level_order,
    parent_index_map,
)


@st.composite
def tree_edges(draw, max_nodes=60):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    return [(f"v{i}", f"v{p}") for i, p in enumerate(parents, start=1)]


# ------------------------------------------------------------- construction


def test_seven_node_fixture(flower_vehicle):
    t = flower_vehicle
    assert t.n_nodes == 7
    assert t.names[t.root] == "entity"
    assert t.n_leaves == 4
    assert t.leaf_names() == ("rose", "tulip", "bus", "car")
    assert t.coarse_names() == ("flower", "vehicle")
    assert t.height[t.root] == 2
    assert t.depth[t.names.index("rose")] == 2


def test_default_orders_are_lexicographic():
    t = build_taxonomy(SEVEN_NODE_EDGES)
    assert t.leaf_names() == ("bus", "car", "rose", "tulip")
    assert t.coarse_names() == ("flower", "vehicle")


def test_empty_edges_rejected():
    with pytest.raises(EmptyInput):
        build_taxonomy([])
    with pytest.raises(EmptyInput):
        build_taxonomy([("", "x")])


def test_two_parents_rejected():
    with pytest.raises(NodeWithTwoParents, match="'a'"):
        build_taxonomy([("a", "p"), ("a", "q")])


def test_multiple_roots_rejected():
    with pytest.raises(MultipleRoots, match="r1"):
        build_taxonomy([("a", "r1"), ("b", "r2")])


def test_cycles_rejected():
    with pytest.raises(CycleDetected):
        build_taxonomy([("a", "b"), ("b", "a")])
    # cycle in a side component, root still present
    with pytest.raises(CycleDetected, match="'a'"):
        build_taxonomy([("x", "root"), ("a", "b"), ("b", "a")])
    with pytest.raises(CycleDetected):
        build_taxonomy([("a", "a"), ("b", "a")])


# Each fault's type and whole message. When several edges are faulty, the
# first one in edge order is named.
@pytest.mark.parametrize("edges, orders, error, message", [
    ([("", "x")], {}, EmptyInput, "edge ('', 'x') has an empty or non-string name"),
    ([("a", "r"), (1, "r")], {}, EmptyInput, "edge (1, 'r') has an empty or non-string name"),
    ([("a", "r"), (["b"], "r")], {}, EmptyInput, "edge (['b'], 'r') has an empty or non-string name"),
    ([("a", "r"), ("b", {})], {}, EmptyInput, "edge ('b', {}) has an empty or non-string name"),
    ([("a", "p"), ("a", "q"), ("", "x")], {}, NodeWithTwoParents, "node 'a' has parents 'p' and 'q'"),
    ([("", "x"), ("a", "p"), ("a", "q")], {}, EmptyInput,
     "edge ('', 'x') has an empty or non-string name"),
    ([("a", "r2"), ("b", "r1"), ("c", "r3")], {}, MultipleRoots,
     "multiple root nodes: 'r1', 'r2', 'r3'"),
    ([("b", "a"), ("a", "c"), ("c", "b")], {}, CycleDetected,
     "every node has a parent; cycle through: 'a', 'b', 'c'"),
    ([("x", "r"), ("b", "a"), ("a", "b"), ("c", "a")], {}, CycleDetected,
     "nodes unreachable from the root (cycle): 'a', 'b', 'c'"),
    (SEVEN_NODE_EDGES, {"leaf_order": ["rose", "tulip", "bus"]}, OrderMismatch,
     "leaf_order is not a permutation of the node set; missing: ['car']"),
    (SEVEN_NODE_EDGES, {"leaf_order": ["rose", "tulip", "bus", "car", "car"]}, OrderMismatch,
     "leaf_order is not a permutation of the node set; repeated: ['car']"),
    (SEVEN_NODE_EDGES, {"leaf_order": ["rose", "bus", "car", "flower"]}, OrderMismatch,
     "leaf_order is not a permutation of the node set; unexpected: ['flower']; missing: ['tulip']"),
    (SEVEN_NODE_EDGES, {"coarse_order": ["vehicle", "entity"]}, OrderMismatch,
     "coarse_order is not a permutation of the node set; unexpected: ['entity']; missing: ['flower']"),
], ids=["empty-name", "int-name", "list-name", "dict-parent", "two-parents-first",
        "empty-name-first", "roots", "cycle-only", "cycle-beside-root", "leaf-missing",
        "leaf-repeated", "leaf-internal", "coarse-root"])
def test_build_faults_name_the_problem(edges, orders, error, message):
    with pytest.raises(error) as caught:
        build_taxonomy(edges, **orders)
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_duplicate_edges_tolerated():
    t = build_taxonomy([("a", "r"), ("a", "r"), ("b", "r")])
    assert t.n_nodes == 3


def test_order_override_must_be_permutation():
    with pytest.raises(OrderMismatch):
        build_taxonomy(SEVEN_NODE_EDGES, leaf_order=["rose", "tulip", "bus"])
    with pytest.raises(OrderMismatch, match="weed"):
        build_taxonomy(SEVEN_NODE_EDGES, leaf_order=["rose", "tulip", "bus", "weed"])


def test_single_child_chain_allowed():
    # Internal nodes with one child shift depths but not parent-of-leaf maps.
    t = build_taxonomy([("leaf", "mid"), ("mid", "root")])
    assert t.n_leaves == 1
    assert t.depth[t.names.index("leaf")] == 2
    assert t.coarse_names() == ("mid",)


# ------------------------------------------------------------------ queries


def test_parent_of(flower_vehicle):
    t = flower_vehicle
    assert t.parent[t.names.index("rose")] == t.names.index("flower")
    assert t.parent[t.root] is None


def test_lca_height_examples(flower_vehicle):
    t = flower_vehicle
    rose, tulip, bus = t.names.index("rose"), t.names.index("tulip"), t.names.index("bus")
    assert lca_height(t, rose, rose) == 0
    assert lca_height(t, rose, tulip) == 1
    assert lca_height(t, rose, bus) == 2
    assert lca_height(t, bus, rose) == 2
    # leaf columns rose, tulip, bus, car are 0 .. 3
    assert lca_heights(t, [0, 0, 0, 2], [0, 1, 2, 0]).tolist() == [0, 1, 2, 2]


def test_cost_matrix_fixture(flower_vehicle):
    expected = [[0, 1, 2, 2], [1, 0, 2, 2], [2, 2, 0, 1], [2, 2, 1, 0]]
    costs = cost_matrix(flower_vehicle)
    assert costs.tolist() == expected
    # cached and read-only
    assert cost_matrix(flower_vehicle) is costs
    with pytest.raises(ValueError):
        costs[0, 0] = 1


def test_hierarchy_maps_are_cached_read_only(flower_vehicle):
    from hieval import risk

    t = flower_vehicle
    for build in (parent_index_map, lambda t: ancestor_index_map(t, 1), risk._path_layout):
        first = build(t)
        assert build(t) is first
    for array in (parent_index_map(t), ancestor_index_map(t, 1)):
        with pytest.raises(ValueError):
            array[0] = 1
    uneven = build_taxonomy([("a", "r"), ("b", "m"), ("c", "m"), ("m", "r")])
    for _ in range(2):  # a failed build is not cached
        with pytest.raises(NonLeveledTree):
            ancestor_index_map(uneven, 1)


def test_lca_caches_stay_apart_across_interleaved_taxonomies():
    # Six leaves each: a star, two groups of three, and an unleveled tree.
    shapes = [
        build_taxonomy([(f"l{i}", "r") for i in range(6)]),
        build_taxonomy([(f"l{i}", f"g{i // 3}") for i in range(6)] + [("g0", "r"), ("g1", "r")]),
        build_taxonomy([("l0", "r"), ("l1", "r"), ("m", "r"), ("l2", "m"), ("n", "m"),
                        ("l3", "n"), ("l4", "n"), ("l5", "n")]),
    ]
    rng = np.random.default_rng(5)
    for _ in range(3):
        for t in shapes:
            a, b = rng.integers(0, 6, (4, 3)), rng.integers(0, 6, (4, 1))
            heights = lca_heights(t, a, b)
            assert heights.tolist() == cost_matrix(t)[a, b].tolist()
            assert lca_heights(t, b, a).tolist() == heights.tolist()
            for (i, j), h in np.ndenumerate(heights):
                assert h == lca_height(t, t.leaf_order[a[i, j]], t.leaf_order[b[i, 0]])
    for t in shapes:
        cached = [v for v in t._cache.values() if isinstance(v, np.ndarray)]
        assert len(cached) >= 3 and not any(v.flags.writeable for v in cached)


def test_cost_matrix_star():
    t = build_taxonomy([(f"leaf{i}", "hub") for i in range(5)])
    costs = cost_matrix(t)
    assert (np.diag(costs) == 0).all()
    off = costs[~np.eye(5, dtype=bool)]
    assert (off == 1).all()


def test_parent_index_map(flower_vehicle):
    assert parent_index_map(flower_vehicle).tolist() == [0, 0, 1, 1]
    star = build_taxonomy([(f"leaf{i}", "hub") for i in range(3)])
    assert parent_index_map(star).tolist() == [0, 0, 0]


def test_ancestor_at_depth(flower_vehicle):
    t = flower_vehicle
    rose = t.names.index("rose")
    assert ancestor_at_depth(t, rose, 0) == t.root
    assert ancestor_at_depth(t, rose, 1) == t.names.index("flower")
    assert ancestor_at_depth(t, rose, 2) == rose
    assert ancestor_table(t)[0].tolist() == [t.root, t.names.index("flower"), rose]


def test_level_orders_match_conventions(flower_vehicle):
    t = flower_vehicle
    assert level_order(t, 2) == t.leaf_order
    assert level_order(t, 1) == t.coarse_order
    assert level_order(t, 0) == (t.root,)
    with pytest.raises(DepthOutOfRange):
        level_order(t, 3)


def test_ancestor_index_map(flower_vehicle):
    amap = ancestor_index_map(flower_vehicle, 1)
    assert amap.tolist() == parent_index_map(flower_vehicle).tolist()
    assert ancestor_index_map(flower_vehicle, 2).tolist() == [0, 1, 2, 3]
    uneven = build_taxonomy([("a", "r"), ("b", "mid"), ("mid", "r")])
    with pytest.raises(NonLeveledTree):
        ancestor_index_map(uneven, 1)


def test_ancestor_table_repeats_a_shallow_leaf(flower_vehicle):
    t = flower_vehicle
    table = ancestor_table(t)
    assert [[t.names[n] for n in row] for row in table] == [
        ["entity", "flower", "rose"],
        ["entity", "flower", "tulip"],
        ["entity", "vehicle", "bus"],
        ["entity", "vehicle", "car"],
    ]
    assert ancestor_table(t) is table
    uneven = build_taxonomy([("a", "r"), ("b", "mid"), ("mid", "r")])
    assert [[uneven.names[n] for n in row] for row in ancestor_table(uneven)] == [
        ["r", "a", "a"],
        ["r", "mid", "b"],
    ]


# --------------------------------------------------------------- properties


@settings(max_examples=100, deadline=None)
@given(taxonomies(), st.integers(1, 6), st.integers(1, 4), st.data())
def test_lca_heights_match_the_cost_matrix_and_bruteforce(t, n, k, data):
    cols = st.integers(0, t.n_leaves - 1)
    a = np.array(data.draw(st.lists(cols, min_size=n * k, max_size=n * k))).reshape(n, k)
    b = np.array(data.draw(st.lists(cols, min_size=n, max_size=n))).reshape(n, 1)
    heights = lca_heights(t, a, b)
    assert heights.shape == (n, k)
    assert heights.tolist() == cost_matrix(t)[a, b].tolist()
    for (i, j), h in np.ndenumerate(heights):
        assert h == _brute_force_lca_height(t, t.leaf_order[a[i, j]], t.leaf_order[b[i, 0]])
    assert lca_heights(t, a[:, 0], b[:, 0]).tolist() == heights[:, 0].tolist()


@settings(max_examples=100, deadline=None)
@given(taxonomies())
def test_index_maps_match_the_ancestor_walk(t):
    table = ancestor_table(t)
    for i, leaf in enumerate(t.leaf_order):
        for d in range(t.max_depth + 1):
            assert table[i, d] == ancestor_at_depth(t, leaf, min(d, t.depth[leaf]))
    coarse = {c: i for i, c in enumerate(t.coarse_order)}
    assert parent_index_map(t).tolist() == [coarse[t.parent[leaf]] for leaf in t.leaf_order]
    if t.is_leveled():
        for d in range(t.max_depth + 1):
            pos = {node: i for i, node in enumerate(level_order(t, d))}
            expected = [pos[ancestor_at_depth(t, leaf, d)] for leaf in t.leaf_order]
            assert ancestor_index_map(t, d).tolist() == expected


@settings(max_examples=100, deadline=None)
@given(taxonomies())
def test_depths_and_heights_match_parent_walks(t):
    depth, height = [0] * t.n_nodes, [0] * t.n_nodes
    for node in range(t.n_nodes):
        up = node
        while t.parent[up] is not None:
            up, depth[node] = t.parent[up], depth[node] + 1
    for leaf in t.leaf_order:
        node, h = leaf, 0
        while node is not None:
            height[node] = max(height[node], h)
            node, h = t.parent[node], h + 1
    assert t.depth == tuple(depth)
    assert t.height == tuple(height)
    assert t.parent[t.root] is None and list(t.names) == sorted(t.names)
    assert set(t.leaf_order) == set(range(t.n_nodes)) - set(t.parent)


def _brute_force_lca_height(t, a, b):
    """Independent oracle: intersect full ancestor sets, take the deepest."""

    def ancestors(x):
        out = {x}
        while t.parent[x] is not None:
            x = t.parent[x]
            out.add(x)
        return out

    common = ancestors(a) & ancestors(b)
    deepest = max(common, key=lambda n: t.depth[n])
    return t.height[deepest]


@settings(max_examples=50, deadline=None)
@given(tree_edges(max_nodes=50))
def test_cost_matrix_matches_bruteforce(edges):
    t = build_taxonomy(edges)
    costs = cost_matrix(t)
    for i, a in enumerate(t.leaf_order):
        for j, b in enumerate(t.leaf_order):
            assert costs[i, j] == _brute_force_lca_height(t, a, b)


@settings(max_examples=60, deadline=None)
@given(tree_edges(max_nodes=60), st.data())
def test_lca_symmetric_bounded_ultrametric(edges, data):
    t = build_taxonomy(edges)
    pick = st.integers(min_value=0, max_value=t.n_leaves - 1)
    a, b, c = (data.draw(pick) for _ in range(3))
    hab = lca_heights(t, a, b)
    assert hab == lca_heights(t, b, a)
    assert 0 <= hab <= t.height[t.root]
    # ultrametric: the two largest of the three pairwise heights are equal,
    # hence each is bounded by the max of the other two
    assert hab <= max(lca_heights(t, a, c), lca_heights(t, c, b))


def test_large_random_trees_lca_properties():
    rng = np.random.default_rng(7)
    for _ in range(5):
        t = random_taxonomy(rng, 500)
        leaves = np.array(t.leaf_order)
        top = t.height[t.root]
        a, b = rng.integers(0, t.n_leaves, size=(2, 200))
        h = lca_heights(t, a, b)
        assert h.tolist() == lca_heights(t, b, a).tolist()
        assert h.tolist() == [lca_height(t, x, y) for x, y in zip(leaves[a], leaves[b])]
        assert ((0 <= h) & (h <= top)).all()
