import tracemalloc

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (dense_expected_costs, dense_lca_heights, random_prob_rows, random_taxonomy, star,
                      taxonomies, tied_matrix_and_k)
from hieval import scores
from hieval.ensemble import hie_combine
from hieval.risk import _tree_expected_costs, crm_rerank
from hieval.scores import LOGITS, PROBABILITIES, ScoreMatrix, top_k
from hieval.synth import SynthConfig, gen_taxonomy

# The leaves of conftest's flower_vehicle taxonomy, in its leaf order.
LEAVES = ("rose", "tulip", "bus", "car")
PMAP = np.array([0, 0, 1, 1])


def probs(rows, names=LEAVES):
    return ScoreMatrix(np.atleast_2d(rows), PROBABILITIES, names)


def order(ranking):
    """The full ranking, every class of each row."""
    return top_k(ranking, ranking.n_classes)


def sorted_risks(ranking):
    return np.take_along_axis(-ranking.values, order(ranking), axis=1)


def combine_then_rerank(fine, coarse, t):
    return crm_rerank(hie_combine(fine, [(coarse, PMAP)]), t)


def test_risks_on_fixture(flower_vehicle):
    ranking = crm_rerank(probs([0.40, 0.10, 0.35, 0.15]), flower_vehicle)
    # expected costs per class: rose 1.10, tulip 1.40, bus 1.15, car 1.35;
    # plain argmax also picks rose here, while combining flips to bus, so the
    # two corrections genuinely differ
    assert top_k(ranking, 1)[:, 0].tolist() == [0]
    assert order(ranking)[0].tolist() == [0, 2, 3, 1]
    np.testing.assert_allclose(-ranking.values[0], [1.10, 1.40, 1.15, 1.35], atol=1e-12)
    np.testing.assert_allclose(sorted_risks(ranking)[0], [1.10, 1.15, 1.35, 1.40], atol=1e-12)


def test_one_hot_has_zero_risk(flower_vehicle):
    for i in range(4):
        row = np.zeros(4)
        row[i] = 1.0
        ranking = crm_rerank(probs(row), flower_vehicle)
        assert top_k(ranking, 1)[0, 0] == i
        assert -ranking.values[0, i] == 0.0


def test_uniform_star_ties_break_to_class_zero():
    t = star(5)
    ranking = crm_rerank(probs(np.full(5, 0.2), names=t.leaf_names()), t)
    assert top_k(ranking, 1)[0, 0] == 0
    assert order(ranking)[0].tolist() == [0, 1, 2, 3, 4]
    np.testing.assert_allclose(-ranking.values[0], 4 / 5, atol=1e-12)


def test_risks_are_non_decreasing_and_orders_are_permutations(flower_vehicle):
    rng = np.random.default_rng(8)
    ranking = crm_rerank(probs(random_prob_rows(rng, 100, 4)), flower_vehicle)
    assert (np.diff(sorted_risks(ranking), axis=1) >= 0).all()
    for row in order(ranking):
        assert sorted(row.tolist()) == [0, 1, 2, 3]


# ------------------------------------------------------- tree risk kernel


@settings(max_examples=200, deadline=None)
@given(taxonomies(), st.integers(1, 12), st.integers(0, 2**32 - 1))
def test_tree_risk_matches_the_dense_product(t, n, seed):
    p = random_prob_rows(np.random.default_rng(seed), n, t.n_leaves)
    tree = -crm_rerank(probs(p, names=t.leaf_names()), t).values
    np.testing.assert_allclose(tree, dense_expected_costs(p, t), rtol=0, atol=1e-12)


def test_tree_risk_on_fixture_and_one_hot_rows(flower_vehicle):
    ranking = crm_rerank(probs([0.40, 0.10, 0.35, 0.15]), flower_vehicle)
    np.testing.assert_allclose(-ranking.values[0], [1.10, 1.40, 1.15, 1.35], atol=1e-12)
    one_hot = -crm_rerank(probs(np.eye(4)), flower_vehicle).values
    assert one_hot.tolist() == dense_lca_heights(flower_vehicle).T.tolist()


def test_tree_risk_rows_do_not_depend_on_the_block_size(monkeypatch):
    rng = np.random.default_rng(43)
    t = random_taxonomy(rng, 300)
    m = probs(random_prob_rows(rng, 37, t.n_leaves), names=t.leaf_names())
    whole = crm_rerank(m, t).values
    monkeypatch.setattr(scores, "BLOCK_ENTRIES", 1)
    assert np.array_equal(crm_rerank(m, t).values, whole)
    alone = crm_rerank(probs(m.values[5], names=m.class_names), t).values
    assert np.array_equal(alone[0], whole[5])


def test_tree_risk_allocates_two_blocks_at_peak():
    # One block, 13 rows of 5000 leaves: the output, and the permuted leaf masses,
    # which then take the leaf-drop products; the 50 upper nodes' masses are small.
    t = gen_taxonomy(SynthConfig((50, 100), 1, (1.0, 1.0), 0))
    p = random_prob_rows(np.random.default_rng(44), scores.block_rows(t.n_leaves), t.n_leaves)
    _tree_expected_costs(p, t)  # builds the path layout, cached on t
    tracemalloc.start()
    try:
        _tree_expected_costs(p, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * p.nbytes


def test_hie_then_crm_fixture(flower_vehicle):
    fine = probs([0.40, 0.10, 0.35, 0.15])
    coarse = ScoreMatrix([[0.2, 0.8]], PROBABILITIES, ("flower", "vehicle"))
    ranking = combine_then_rerank(fine, coarse, flower_vehicle)
    # combined scores are [0.16, 0.04, 0.56, 0.24]; dotting with the cost
    # rows gives risks rose 1.64, tulip 1.76, bus 0.64, car 0.96
    assert top_k(ranking, 1)[:, 0].tolist() == [2]
    assert order(ranking)[0].tolist() == [2, 3, 0, 1]
    np.testing.assert_allclose(sorted_risks(ranking)[0], [0.64, 0.96, 1.64, 1.76], atol=1e-12)


def test_hie_then_crm_uniform_coarse_matches_plain_crm(flower_vehicle):
    rng = np.random.default_rng(17)
    fine = probs(random_prob_rows(rng, 50, 4))
    coarse = ScoreMatrix(np.full((50, 2), 0.5), PROBABILITIES, ("f", "v"))
    assert (
        order(combine_then_rerank(fine, coarse, flower_vehicle)).tolist()
        == order(crm_rerank(fine, flower_vehicle)).tolist()
    )


def test_one_hot_fine_unchanged_by_crm(flower_vehicle):
    rng = np.random.default_rng(23)
    coarse_rows = random_prob_rows(rng, 4, 2)
    for i in range(4):
        row = np.zeros(4)
        row[i] = 1.0
        ranking = combine_then_rerank(
            probs(row), ScoreMatrix(coarse_rows[i : i + 1], PROBABILITIES, ("f", "v")),
            flower_vehicle,
        )
        assert top_k(ranking, 1)[0, 0] == i


def test_prediction_matches_bruteforce_argmin():
    rng = np.random.default_rng(31)
    for _ in range(200):
        t = random_taxonomy(rng, int(rng.integers(3, 20)))
        if t.n_leaves > 10:
            continue
        costs = dense_lca_heights(t)
        p = random_prob_rows(rng, 1, t.n_leaves)
        ranking = crm_rerank(probs(p, names=t.leaf_names()), t)
        best, best_risk = 0, float("inf")
        for i in range(t.n_leaves):
            r = sum(costs[i, j] * p[0, j] for j in range(t.n_leaves))
            if r < best_risk:
                best, best_risk = i, r
        assert top_k(ranking, 1)[0, 0] == best


def test_zero_one_costs_reduce_to_descending_probability():
    # A star's LCA-height costs are the 0/1 costs 1 - I.
    rng = np.random.default_rng(37)
    t = star(6)
    p = random_prob_rows(rng, 40, 6)
    ranking = crm_rerank(probs(p, names=t.leaf_names()), t)
    descending = np.argsort(-p, axis=1, kind="stable")
    assert order(ranking).tolist() == descending.tolist()


def test_ranking_order_is_scale_invariant(flower_vehicle):
    rng = np.random.default_rng(41)
    p = random_prob_rows(rng, 30, 4)
    base = order(crm_rerank(probs(p), flower_vehicle))
    for c in (0.5, 2.0, 3.7):
        scaled = order(crm_rerank(probs(p * c), flower_vehicle))
        assert scaled.tolist() == base.tolist()


@settings(max_examples=300, deadline=None)
@given(tied_matrix_and_k())
def test_top_matches_full_order_on_tied_risks(case):
    # crm_rerank's convention: top_k of the negated risks is the stable
    # ascending order of the risks, -0.0 tied with 0.0.
    risks, k = case
    ranking = ScoreMatrix(-risks, LOGITS, tuple(f"c{i}" for i in range(risks.shape[1])))
    full = np.argsort(risks, axis=1, kind="stable")
    assert order(ranking).tolist() == full.tolist()
    assert top_k(ranking, k).tolist() == full[:, :k].tolist()
    assert top_k(ranking, 1)[:, 0].tolist() == np.argmin(risks, axis=1).tolist()


def test_crm_rerank_is_negated_expected_costs_as_logits(flower_vehicle):
    p = random_prob_rows(np.random.default_rng(5), 6, 4)
    fine = ScoreMatrix(p, PROBABILITIES, LEAVES, 40)
    ranking = crm_rerank(fine, flower_vehicle)
    assert isinstance(ranking, ScoreMatrix)
    assert (ranking.kind, ranking.class_names, ranking.first_row) == (LOGITS, LEAVES, 40)
    assert ranking.values.flags.c_contiguous and not ranking.values.flags.writeable
    np.testing.assert_allclose(-ranking.values, dense_expected_costs(p, flower_vehicle),
                               rtol=0, atol=1e-12)
