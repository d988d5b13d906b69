import numpy as np
import pytest

from conftest import random_prob_rows, random_taxonomy
from hieval.ensemble import hie_combine
from hieval.errors import EmptyInput, KTooLarge, LengthMismatch
from hieval.metrics import (
    avg_mistake_severity,
    eval_report,
    hier_dist_at_k,
    top1_accuracy,
)
from hieval.scores import PROBABILITIES, ScoreMatrix, top_k
from hieval.taxonomy import build_taxonomy, cost_matrix, parent_index_map


@pytest.fixture(scope="module")
def star8():
    return build_taxonomy([(f"leaf{i}", "hub") for i in range(8)])


def idx(t, *names):
    pos = {name: i for i, name in enumerate(t.leaf_names())}
    return np.array([pos[n] for n in names])


# ----------------------------------------------------------------- top-1


def test_top1_examples(flower_vehicle):
    t = flower_vehicle
    assert top1_accuracy(idx(t, "rose", "bus"), idx(t, "bus", "bus")) == 0.5
    assert top1_accuracy([1, 2, 3], [1, 2, 3]) == 1.0
    assert top1_accuracy([0, 0], [1, 2]) == 0.0


def test_top1_errors():
    with pytest.raises(LengthMismatch):
        top1_accuracy([0, 1], [0])
    with pytest.raises(EmptyInput):
        top1_accuracy([], [])


# -------------------------------------------------------------- severity


def test_severity_examples(flower_vehicle):
    t = flower_vehicle
    assert avg_mistake_severity(idx(t, "rose", "bus"), idx(t, "bus", "bus"), t) == 2.0
    assert avg_mistake_severity(idx(t, "rose"), idx(t, "rose"), t) is None
    assert avg_mistake_severity(idx(t, "tulip"), idx(t, "rose"), t) == 1.0


def test_severity_length_mismatch(flower_vehicle):
    with pytest.raises(LengthMismatch):
        avg_mistake_severity([0, 1], [0], flower_vehicle)


# -------------------------------------------------------------- dist@k


def test_hier_dist_at_1_examples(flower_vehicle):
    t = flower_vehicle
    pred = idx(t, "rose", "bus").reshape(-1, 1)
    gt = idx(t, "bus", "bus")
    assert hier_dist_at_k(pred, gt, t, 1) == 1.0
    perfect = gt.reshape(-1, 1)
    assert hier_dist_at_k(perfect, gt, t, 1) == 0.0


def test_hier_dist_star_full_k(star8):
    t = star8
    rng = np.random.default_rng(2)
    ranking = np.stack([rng.permutation(8) for _ in range(20)])
    gt = rng.integers(0, 8, size=20)
    # every non-true class sits at LCA height 1, so any full ranking scores (m-1)/m
    assert hier_dist_at_k(ranking, gt, t, 8) == 7 / 8


def test_hier_dist_k_too_large(flower_vehicle):
    with pytest.raises(KTooLarge):
        hier_dist_at_k(np.zeros((2, 2), dtype=int), [0, 1], flower_vehicle, 3)


# ------------------------------------------------------------ eval_report


def test_eval_report_combined_fixture(flower_vehicle):
    t = flower_vehicle
    fine = ScoreMatrix([[0.40, 0.10, 0.35, 0.15]], PROBABILITIES, t.leaf_names())
    coarse = ScoreMatrix([[0.2, 0.8]], PROBABILITIES, t.coarse_names())
    combined = hie_combine(fine, [(coarse, parent_index_map(t))])
    gt = idx(t, "bus")

    r = eval_report(top_k(combined, 1), gt, t, [1], "hie")
    assert r.top1_accuracy == 1.0
    assert r.avg_mistake_severity is None
    assert r.hier_dist_at_k[1] == 0.0
    assert r.n_mistakes == 0

    r = eval_report(top_k(fine, 1), gt, t, [1], "argmax")
    assert r.top1_accuracy == 0.0
    assert r.avg_mistake_severity == 2.0
    assert r.hier_dist_at_k[1] == 2.0


def test_eval_report_k_columns(flower_vehicle):
    rng = np.random.default_rng(3)
    t = build_taxonomy(
        [(f"s{i:04d}", f"g{i % 72:02d}") for i in range(1010)]
        + [(f"g{j:02d}", "root") for j in range(72)]
    )
    m = ScoreMatrix(random_prob_rows(rng, 5, 1010), PROBABILITIES, t.leaf_names())
    ranking = top_k(m, 20)
    r = eval_report(ranking, rng.integers(0, 1010, size=5), t, [1, 5, 20], "argmax")
    assert sorted(r.hier_dist_at_k) == [1, 5, 20]
    with pytest.raises(KTooLarge):
        eval_report(ranking, [0] * 5, t, [21], "argmax")


def test_decomposition_identity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        t = random_taxonomy(rng, int(rng.integers(3, 30)))
        n = int(rng.integers(1, 60))
        pred = rng.integers(0, t.n_leaves, size=n)
        gt = rng.integers(0, t.n_leaves, size=n)
        if (pred == gt).all():
            continue
        acc = top1_accuracy(pred, gt)
        sev = avg_mistake_severity(pred, gt, t)
        hd1 = hier_dist_at_k(pred.reshape(-1, 1), gt, t, 1)
        assert abs(hd1 - (1 - acc) * sev) <= 1e-9


def test_metrics_match_direct_loop_oracle():
    rng = np.random.default_rng(6)
    for _ in range(30):
        t = random_taxonomy(rng, int(rng.integers(4, 24)))
        if t.n_leaves > 16:
            continue
        n = int(rng.integers(1, 100))
        k = int(rng.integers(1, t.n_leaves + 1))
        ranking = np.stack([rng.permutation(t.n_leaves) for _ in range(n)])
        gt = rng.integers(0, t.n_leaves, size=n)
        costs = cost_matrix(t)

        correct = sum(1 for i in range(n) if ranking[i, 0] == gt[i])
        sev_total, mistakes = 0, 0
        hd_total = 0
        for i in range(n):
            if ranking[i, 0] != gt[i]:
                mistakes += 1
                sev_total += int(costs[ranking[i, 0], gt[i]])
            for j in range(k):
                hd_total += int(costs[ranking[i, j], gt[i]])

        assert top1_accuracy(ranking[:, 0], gt) == correct / n
        if mistakes:
            assert avg_mistake_severity(ranking[:, 0], gt, t) == sev_total / mistakes
        else:
            assert avg_mistake_severity(ranking[:, 0], gt, t) is None
        assert hier_dist_at_k(ranking, gt, t, k) == hd_total / (n * k)


def test_hier_dist_bounded_by_root_height():
    rng = np.random.default_rng(9)
    for _ in range(50):
        t = random_taxonomy(rng, int(rng.integers(3, 60)))
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, t.n_leaves + 1))
        ranking = np.stack([rng.permutation(t.n_leaves) for _ in range(n)])
        gt = rng.integers(0, t.n_leaves, size=n)
        hd = hier_dist_at_k(ranking, gt, t, k)
        assert 0.0 <= hd <= t.height[t.root]


def test_metrics_invariant_under_relabeling():
    rng = np.random.default_rng(7)
    edges = [(f"l{i}", f"m{i // 3}") for i in range(9)] + [
        (f"m{j}", "root") for j in range(3)
    ]
    base_order = [f"l{i}" for i in range(9)]
    perm = rng.permutation(9)
    t1 = build_taxonomy(edges, leaf_order=base_order)
    t2 = build_taxonomy(edges, leaf_order=[base_order[p] for p in perm])
    inv = np.empty(9, dtype=int)
    inv[perm] = np.arange(9)  # position of t1-leaf i inside t2's order

    n = 50
    pred = rng.integers(0, 9, size=n)
    gt = rng.integers(0, 9, size=n)
    assert top1_accuracy(pred, gt) == top1_accuracy(inv[pred], inv[gt])
    assert avg_mistake_severity(pred, gt, t1) == avg_mistake_severity(
        inv[pred], inv[gt], t2
    )
    assert hier_dist_at_k(pred.reshape(-1, 1), gt, t1, 1) == hier_dist_at_k(
        inv[pred].reshape(-1, 1), inv[gt], t2, 1
    )


def test_eval_report_matches_manual_top_k(flower_vehicle):
    rng = np.random.default_rng(8)
    t = flower_vehicle
    m = ScoreMatrix(random_prob_rows(rng, 30, 4), PROBABILITIES, t.leaf_names())
    gt = rng.integers(0, 4, size=30)
    ranking = top_k(m, 2)
    r = eval_report(ranking, gt, t, [1, 2], "argmax")
    assert r.hier_dist_at_k[2] == hier_dist_at_k(ranking, gt, t, 2)
    assert r.n_samples == 30
