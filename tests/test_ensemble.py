import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    add_at_marginals,
    copy_product,
    random_prob_rows,
    random_taxonomy,
    same_bits,
)
from hieval.ensemble import hie_combine, hie_self, marginalize_to_parents
from hieval.errors import DimensionMismatch, KindConflict, ZeroDenominator
from hieval.scores import LOGITS, PROBABILITIES, ScoreMatrix, validate_probabilities
from hieval.taxonomy import ancestor_index_map, build_taxonomy, parent_index_map

LEAVES = ("rose", "tulip", "bus", "car")
COARSE = ("flower", "vehicle")
PMAP = np.array([0, 0, 1, 1])


def fine(rows):
    return ScoreMatrix(np.atleast_2d(rows), PROBABILITIES, LEAVES)

def coarse(rows):
    return ScoreMatrix(np.atleast_2d(rows), PROBABILITIES, COARSE)

FIG_Q = [0.40, 0.10, 0.35, 0.15]
FIG_R = [0.2, 0.8]


# -------------------------------------------------------------- hie_combine


def test_combine_flips_prediction_to_bus():
    out = hie_combine(fine(FIG_Q), [(coarse(FIG_R), PMAP)])
    np.testing.assert_allclose(out.values[0], [0.16, 0.04, 0.56, 0.24], atol=1e-12)
    assert int(np.argmax(FIG_Q)) == 0          # fine alone says rose
    assert int(np.argmax(out.values[0])) == 2  # combined says bus
    assert out.class_names == LEAVES


def test_combine_uniform_coarse_is_identity():
    q = fine(FIG_Q)
    out = hie_combine(q, [(coarse([0.5, 0.5]), PMAP)])
    # power-of-two sizes and an exactly unit row make this exact
    assert out.values.tolist() == q.values.tolist()


def test_combine_one_hot_fine_stays_one_hot():
    out = hie_combine(fine([1.0, 0.0, 0.0, 0.0]), [(coarse([0.3, 0.7]), PMAP)])
    assert out.values.tolist() == [[1.0, 0.0, 0.0, 0.0]]


def test_combine_rows_sum_to_one():
    rng = np.random.default_rng(0)
    q, r = random_prob_rows(rng, 50, 4), random_prob_rows(rng, 50, 2)
    validate_probabilities(hie_combine(fine(q), [(coarse(r), PMAP)]), tol=1e-9)


def test_combine_shape_errors():
    with pytest.raises(DimensionMismatch):
        hie_combine(fine(FIG_Q), [(coarse([[0.5, 0.5], [0.5, 0.5]]), PMAP)])
    with pytest.raises(DimensionMismatch):
        hie_combine(fine(FIG_Q), [(coarse(FIG_R), [0, 0, 1])])
    with pytest.raises(DimensionMismatch):
        hie_combine(fine(FIG_Q), [(coarse(FIG_R), [0, 0, 1, 2])])
    with pytest.raises(KindConflict):
        hie_combine(ScoreMatrix([FIG_Q], LOGITS, LEAVES), [(coarse(FIG_R), PMAP)])


# True at both raise sites: every product under the limit, or none positive once clamped.
NO_MASS = "once negative entries count as 0, no fine-times-coarse product reaches 1e-300"


def test_combine_zero_denominator():
    with pytest.raises(ZeroDenominator) as exc:
        hie_combine(fine([1.0, 0.0, 0.0, 0.0]), [(coarse([0.0, 1.0]), PMAP)])
    assert exc.value.row == 0
    assert NO_MASS in str(exc.value)


def test_combine_zero_denominator_when_only_negative_entries_meet():
    # Row 1's products are 1e-14, -1e-7 and 0.0: under the limit but not all,
    # so the row is redone in log space, where each weighs as 0.
    q = ScoreMatrix([[0.5, 0.5, 0.0], [-1e-7, 1 + 1e-7, 0.0]], PROBABILITIES, ("a", "b", "c"), 40)
    r = ScoreMatrix([[0.5, 0.5], [-1e-7, 1 + 1e-7]], PROBABILITIES, ("x", "y"))
    with pytest.raises(ZeroDenominator) as exc:
        hie_combine(q, [(r, [0, 0, 1])])
    assert exc.value.row == 41
    assert NO_MASS in str(exc.value)


def test_log_path_agrees_with_direct():
    # One product lands just under the underflow limit: the row is redone in
    # log space but remains representable directly for the oracle.
    q = np.array([[2e-305, 0.4, 0.3, 0.3 - 2e-305]])
    r = np.array([[0.5, 0.5]])
    out = hie_combine(fine(q), [(coarse(r), PMAP)])
    u = q[0] * r[0][PMAP]
    direct = u / u.sum()
    np.testing.assert_allclose(out.values[0], direct, rtol=1e-10)


def test_mixed_underflow_rows_match_each_row_alone():
    # Normal rows interleaved with rows that take the log-space path: each
    # row of the combined block must equal, bit for bit, that row combined
    # on its own, so neither path can leak into or reorder the other.
    rng = np.random.default_rng(8)
    q = random_prob_rows(rng, 12, 4)
    r = random_prob_rows(rng, 12, 2)
    q[1::3] = [2e-305, 0.4, 0.3, 0.3 - 2e-305]
    q[2::3, 0] = 0.0
    r[2::3] = [1e-290, 1.0 - 1e-290]
    out = hie_combine(fine(q), [(coarse(r), PMAP)]).values
    for i in range(q.shape[0]):
        alone = hie_combine(fine(q[i]), [(coarse(r[i]), PMAP)]).values[0]
        assert out[i].tobytes() == alone.tobytes(), i


def test_within_subtree_order_preserved():
    rng = np.random.default_rng(42)
    q = random_prob_rows(rng, 200, 4)
    r = random_prob_rows(rng, 200, 2)
    s = hie_combine(fine(q), [(coarse(r), PMAP)]).values
    for i, j in [(0, 1), (2, 3)]:  # sibling pairs
        assert (np.sign(s[:, i] - s[:, j]) == np.sign(q[:, i] - q[:, j])).all()


# ------------------------------------------------------------ marginalizing


def test_marginalize_fixture():
    out = marginalize_to_parents(fine(FIG_Q), PMAP, 2)
    assert out.values.tolist() == [[0.5, 0.5]]
    assert out.kind == PROBABILITIES


def test_marginalize_one_hot():
    out = marginalize_to_parents(fine([1.0, 0.0, 0.0, 0.0]), PMAP, 2)
    assert out.values.tolist() == [[1.0, 0.0]]


def test_marginalize_preserves_row_mass():
    rng = np.random.default_rng(9)
    q = random_prob_rows(rng, 100, 4)
    out = marginalize_to_parents(fine(q), PMAP, 2)
    np.testing.assert_allclose(out.values.sum(axis=1), q.sum(axis=1), rtol=0, atol=1e-12)
    # regrouping the fixture is exact
    exact = marginalize_to_parents(fine(FIG_Q), PMAP, 2)
    assert exact.values.sum() == np.asarray(FIG_Q).sum()


def test_marginalize_scattered_groups():
    # group membership need not be contiguous
    out = marginalize_to_parents(
        ScoreMatrix([[0.1, 0.2, 0.3, 0.4]], PROBABILITIES, LEAVES), [1, 0, 1, 0], 2
    )
    np.testing.assert_allclose(out.values[0], [0.6, 0.4], atol=1e-15)


# ----------------------------------------------------------------- hie_self


def test_hie_self_uniform_marginals_is_identity():
    out = hie_self(fine(FIG_Q), PMAP, 2)
    assert out.values.tolist() == [list(FIG_Q)]


def test_hie_self_hand_example():
    out = hie_self(fine([0.50, 0.10, 0.30, 0.10]), PMAP, 2)
    np.testing.assert_allclose(
        out.values[0], [0.5769, 0.1154, 0.2308, 0.0769], atol=1e-4
    )


def test_hie_self_one_hot_identity():
    q = [0.0, 0.0, 1.0, 0.0]
    assert hie_self(fine(q), PMAP, 2).values.tolist() == [q]


def test_hie_self_equals_composition_bitwise():
    rng = np.random.default_rng(21)
    q = fine(random_prob_rows(rng, 64, 4))
    composed = hie_combine(q, [(marginalize_to_parents(q, PMAP, 2), PMAP)])
    assert hie_self(q, PMAP, 2).values.tolist() == composed.values.tolist()


# ------------------------------------------------------------------ cascade


def test_cascade_empty_uppers_is_fine_unchanged():
    q = fine(FIG_Q)
    assert hie_combine(q, []) is q


def test_cascade_uniform_uppers_is_identity():
    q = fine(FIG_Q)
    r1 = coarse([0.5, 0.5])
    out = hie_combine(q, [(r1, PMAP), (r1, PMAP)])
    assert out.values.tolist() == q.values.tolist()


def test_cascade_three_levels_matches_bruteforce():
    # root -> 2 mids -> 4 leaves, plus a synthetic extra level equal to mids
    rng = np.random.default_rng(4)
    n = 40
    q = random_prob_rows(rng, n, 4)
    r_mid = random_prob_rows(rng, n, 2)
    r_top = random_prob_rows(rng, n, 2)
    out = hie_combine(fine(q), [(coarse(r_top), PMAP), (coarse(r_mid), PMAP)]).values
    for row in range(n):
        u = np.array(
            [q[row, i] * r_top[row, PMAP[i]] * r_mid[row, PMAP[i]] for i in range(4)]
        )
        np.testing.assert_allclose(out[row], u / u.sum(), rtol=1e-12)


def test_cascade_via_real_three_level_tree():
    rng = np.random.default_rng(14)
    edges = [("m0", "r"), ("m1", "r")] + [
        (f"leaf{i}", f"m{i // 2}") for i in range(4)
    ]
    t = build_taxonomy(edges)
    amap1 = ancestor_index_map(t, 1)
    amap2 = ancestor_index_map(t, 2)
    assert amap2.tolist() == [0, 1, 2, 3]
    q = ScoreMatrix(random_prob_rows(rng, 10, 4), PROBABILITIES, t.leaf_names())
    r = ScoreMatrix(random_prob_rows(rng, 10, 2), PROBABILITIES, t.coarse_names())
    out = hie_combine(q, [(r, amap1)])
    expected = hie_combine(q, [(r, parent_index_map(t))])
    assert out.values.tolist() == expected.values.tolist()


def test_combine_works_on_uneven_trees():
    # leaves at different depths still have well-defined parents, so the
    # two-level combination stays available even when cascading would not be
    t = build_taxonomy([("shallow", "r"), ("deep", "mid"), ("deep2", "mid"), ("mid", "r")])
    pmap = parent_index_map(t)
    assert t.coarse_names() == ("mid", "r")
    q = ScoreMatrix([[0.2, 0.3, 0.5]], PROBABILITIES, t.leaf_names())
    r = ScoreMatrix([[0.9, 0.1]], PROBABILITIES, t.coarse_names())
    out = hie_combine(q, [(r, pmap)])
    np.testing.assert_allclose(out.values.sum(axis=1), 1.0, atol=1e-12)


# --------------------------------------------------- gain of the true class


def gain(q_row, r_row, pmap, goal):
    """Factor by which combining one row changes the goal class's probability, s_g / q_g."""
    q = ScoreMatrix(np.atleast_2d(q_row), PROBABILITIES, [f"q{i}" for i in range(len(q_row))])
    r = ScoreMatrix(np.atleast_2d(r_row), PROBABILITIES, [f"r{i}" for i in range(len(r_row))])
    return hie_combine(q, [(r, pmap)]).values[0, goal] / q.values[0, goal]


def test_gain_fixture_value():
    assert gain(FIG_Q, FIG_R, PMAP, 2) == pytest.approx(1.6, rel=1e-12)


def test_gain_uniform_coarse_is_one():
    for g in range(4):
        assert gain(FIG_Q, [0.5, 0.5], PMAP, g) == pytest.approx(1.0, abs=1e-15)


def test_gain_below_one_when_coarse_wrong():
    # coarse argmax is not the goal's parent, so the guarantee's premise fails
    g = gain([0.1, 0.1, 0.7, 0.1], [0.9, 0.1], PMAP, 2)
    oracle = (0.07 / 0.26) / 0.7
    assert g == pytest.approx(oracle, rel=1e-12)
    assert g < 1


def test_gain_at_least_one_when_coarse_correct():
    rng = np.random.default_rng(100)
    for _ in range(500):
        t = random_taxonomy(rng, int(rng.integers(4, 40)))
        pmap = parent_index_map(t)
        q = random_prob_rows(rng, 1, t.n_leaves)[0]
        r = random_prob_rows(rng, 1, t.n_coarse)[0]
        top_coarse = int(np.argmax(r))
        candidates = np.flatnonzero(pmap == top_coarse)
        goal = int(rng.choice(candidates))
        assert gain(q, r, pmap, goal) >= 1 - 1e-12


# ------------------------------------- bitwise against the first kernels
#
# hie_combine's product and marginalize_to_parents' sums are rewritten
# kernels; conftest keeps the first versions, and the outputs must be the
# same bits, so that no output file changes.

# Entry scales: products of the tiny ones fall under UNDERFLOW_LIMIT and take
# the log path; mixing 1 with 1e-8 and 1e-16 makes sums depend on their order.
SCALES = (1.0, 1.0, 1.0, 1e-8, 1e-16, 1e-170, 1e-320, 0.0)


def block_values(rng, n, c):
    return rng.random((n, c)) * rng.choice(SCALES, size=(n, c))


def group_map(rng, n_fine, shape):
    """A column -> group map and the group count: uneven groups, single-member
    groups and empty ones for "random"."""
    if shape == "one-group":
        return np.zeros(n_fine, dtype=np.int64), 1
    if shape == "singletons":
        return rng.permutation(n_fine), n_fine
    n_groups = int(rng.integers(1, n_fine + 2))
    return rng.integers(0, n_groups, size=n_fine), n_groups


def outcome(compute):
    try:
        return compute()
    except ZeroDenominator as e:
        return f"{type(e).__name__}: {e}"


def names(k):
    return tuple(f"c{i}" for i in range(k))


KERNEL_CASES = dict(
    seed=st.integers(0, 2**32 - 1),
    n=st.sampled_from([1, 2, 7]),
    n_fine=st.integers(1, 12),
    shape=st.sampled_from(["random", "random", "one-group", "singletons"]),
)


@settings(max_examples=300, deadline=None)
@given(**KERNEL_CASES, negatives=st.booleans())
def test_marginals_match_add_at_bitwise(seed, n, n_fine, shape, negatives):
    rng = np.random.default_rng(seed)
    pmap, n_groups = group_map(rng, n_fine, shape)
    values = block_values(rng, n, n_fine)
    if negatives:  # -0.0 and small negatives, as a file may hold within FILE_TOL
        values[rng.random(values.shape) < 0.3] *= -1e-7
    q = ScoreMatrix(values, PROBABILITIES, names(n_fine))
    marginals = add_at_marginals(values, pmap, n_groups)
    assert same_bits(marginalize_to_parents(q, pmap, n_groups).values, marginals)
    expected = outcome(lambda: copy_product(values, [(marginals, pmap)]))
    got = outcome(lambda: hie_self(q, pmap, n_groups).values)
    assert got == expected if isinstance(expected, str) else same_bits(got, expected)


# Wide and narrow groups, equal and skewed sizes, and empty groups; 201 groups
# of about 3 are shaped like tieredImageNet-H's 608 leaves.
@pytest.mark.parametrize("sizes", [
    [3000] + [1] * 1000, [2000, 2000], [10000], [500] + [1] * 500, [14] * 72,
    list(range(100, 0, -1)), [40, 40, 3, 2, 2, 1, 0, 0], [3] * 196 + [4] * 5,
], ids=["3000+1000x1", "2x2000", "10000", "500+500x1", "72x14", "staircase-100", "mixed",
        "201x3"])
def test_marginals_match_add_at_bitwise_on_wide_groups(sizes):
    rng = np.random.default_rng(len(sizes))
    pmap = rng.permutation(np.repeat(np.arange(len(sizes)), sizes))
    values = block_values(rng, 5, pmap.size)
    values[rng.random(values.shape) < 0.1] = -0.0
    values[0, pmap == 0] = -0.0  # np.add.at sums an all -0.0 group to 0.0
    got = marginalize_to_parents(ScoreMatrix(values, PROBABILITIES, names(pmap.size)), pmap,
                                 len(sizes))
    assert same_bits(got.values, add_at_marginals(values, pmap, len(sizes)))


def test_marginal_plans_stay_apart_across_interleaved_maps():
    # Equal lengths, different groupings and group counts, and one map
    # changed in place between calls: each call must sum by its own map.
    rng = np.random.default_rng(9)
    maps = [(np.array([0, 0, 1, 1, 2, 2, 2, 0]), 3), (np.array([2, 1, 0, 0, 0, 1, 3, 3]), 4),
            (np.array([0, 1, 0, 1, 0, 1, 0, 1]), 3)]
    for round_ in range(3):
        for pmap, n_groups in maps:
            values = block_values(rng, 4, pmap.size)
            got = marginalize_to_parents(ScoreMatrix(values, PROBABILITIES, names(pmap.size)),
                                         pmap, n_groups)
            assert same_bits(got.values, add_at_marginals(values, pmap, n_groups))
        maps[2][0][round_] = 2


def test_a_parent_map_out_of_range_is_refused_not_summed_into_the_next_row():
    values = np.full((2, 4), 0.25)
    for pmap in ([0, 0, 1, 2], [0, -1, 1, 1]):
        with pytest.raises(DimensionMismatch, match="parent index map entries must lie in"):
            marginalize_to_parents(ScoreMatrix(values, PROBABILITIES, LEAVES), pmap, 2)


@settings(max_examples=300, deadline=None)
@given(**KERNEL_CASES, n_levels=st.integers(1, 3), negatives=st.booleans())
def test_product_matches_copy_and_gather_bitwise(seed, n, n_fine, shape, n_levels, negatives):
    rng = np.random.default_rng(seed)
    fine_values = block_values(rng, n, n_fine)
    if negatives:  # weighed as 0 in rows redone in log space
        fine_values[rng.random(fine_values.shape) < 0.3] *= -1e-7
    factors = []
    for _ in range(n_levels):
        col_map, n_upper = group_map(rng, n_fine, shape)
        factors.append((block_values(rng, n, n_upper), col_map))
    uppers = [(ScoreMatrix(v, PROBABILITIES, names(v.shape[1])), m) for v, m in factors]
    expected = outcome(lambda: copy_product(fine_values, factors))
    got = outcome(lambda: hie_combine(ScoreMatrix(fine_values, PROBABILITIES, names(n_fine)),
                                      uppers).values)
    assert got == expected if isinstance(expected, str) else same_bits(got, expected)


@pytest.mark.parametrize("n_levels", [1, 2, 3])
def test_product_matches_copy_and_gather_on_underflow_rows(n_levels):
    # Row 0 is ordinary; in rows 1-2 some products fall under 1e-300, and
    # row 2 keeps a single usable column.
    rng = np.random.default_rng(n_levels)
    q = random_prob_rows(rng, 3, 6)
    q[1, :3] = [1e-170, 1e-200, 0.0]
    q[2] = [1e-180, 1e-160, 0.0, 1e-300, 1e-310, 0.5]
    col_map = np.array([0, 1, 1, 2, 2, 0])
    factors = [(random_prob_rows(rng, 3, 3), col_map) for _ in range(n_levels)]
    factors[0][0][1:, 1] *= 1e-150
    expected = copy_product(q, factors)
    uppers = [(ScoreMatrix(v, PROBABILITIES, ("a", "b", "c")), m) for v, m in factors]
    got = hie_combine(ScoreMatrix(q, PROBABILITIES, names(6)), uppers).values
    assert same_bits(got, expected)
    products = q * np.prod([v[:, m] for v, m in factors], axis=0)
    assert (products < 1e-300).any(axis=1).tolist() == [False, True, True]
