import numpy as np
import pytest

from conftest import dense_lca_heights, random_prob_rows, random_taxonomy
from hieval.ensemble import hie_combine
from hieval.metrics import eval_report
from hieval.scores import PROBABILITIES, ScoreMatrix, top_k
from hieval.taxonomy import build_taxonomy, parent_index_map


@pytest.fixture(scope="module")
def star8():
    return build_taxonomy({"hub": None} | {f"leaf{i}": "hub" for i in range(8)})


def idx(t, *names):
    pos = {name: i for i, name in enumerate(t.leaf_names())}
    return np.array([pos[n] for n in names])


def report(ranking, gt, t, ks=(1,)):
    """``eval_report`` of a ranking, or of a prediction vector as a one-column ranking."""
    return eval_report(np.asarray(ranking).reshape(len(gt), -1), gt, t, ks, "m")


# ----------------------------------------------------------------- top-1


def test_top1_examples(flower_vehicle):
    t = flower_vehicle
    assert report(idx(t, "rose", "bus"), idx(t, "bus", "bus"), t).top1_accuracy == 0.5
    assert report([1, 2, 3], [1, 2, 3], t).top1_accuracy == 1.0
    assert report([0, 0], [1, 2], t).top1_accuracy == 0.0


# -------------------------------------------------------------- severity


def test_severity_examples(flower_vehicle):
    t = flower_vehicle
    assert report(idx(t, "rose", "bus"), idx(t, "bus", "bus"), t).avg_mistake_severity == 2.0
    assert report(idx(t, "rose"), idx(t, "rose"), t).avg_mistake_severity is None
    assert report(idx(t, "tulip"), idx(t, "rose"), t).avg_mistake_severity == 1.0


# -------------------------------------------------------------- dist@k


def test_hier_dist_at_1_examples(flower_vehicle):
    t = flower_vehicle
    pred = idx(t, "rose", "bus").reshape(-1, 1)
    gt = idx(t, "bus", "bus")
    assert report(pred, gt, t).hier_dist_at_k[1] == 1.0
    perfect = gt.reshape(-1, 1)
    assert report(perfect, gt, t).hier_dist_at_k[1] == 0.0


def test_hier_dist_star_full_k(star8):
    t = star8
    rng = np.random.default_rng(2)
    ranking = np.stack([rng.permutation(8) for _ in range(20)])
    gt = rng.integers(0, 8, size=20)
    # every non-true class sits at LCA height 1, so any full ranking scores (m-1)/m
    assert report(ranking, gt, t, [8]).hier_dist_at_k[8] == 7 / 8


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
        {f"s{i:04d}": f"g{i % 72:02d}" for i in range(1010)}
        | {f"g{j:02d}": "root" for j in range(72)} | {"root": None}
    )
    m = ScoreMatrix(random_prob_rows(rng, 5, 1010), PROBABILITIES, t.leaf_names())
    ranking = top_k(m, 20)
    r = eval_report(ranking, rng.integers(0, 1010, size=5), t, [1, 5, 20], "argmax")
    assert sorted(r.hier_dist_at_k) == [1, 5, 20]


def test_decomposition_identity():
    rng = np.random.default_rng(5)
    for _ in range(200):
        t = random_taxonomy(rng, int(rng.integers(3, 30)))
        n = int(rng.integers(1, 60))
        pred = rng.integers(0, t.n_leaves, size=n)
        gt = rng.integers(0, t.n_leaves, size=n)
        if (pred == gt).all():
            continue
        r = report(pred[:, None], gt, t)
        acc, sev, hd1 = r.top1_accuracy, r.avg_mistake_severity, r.hier_dist_at_k[1]
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
        costs = dense_lca_heights(t)
        # One call for several ks, the largest first and each usually below
        # the ranking's width, so every k reads its own prefix of the ranking.
        ks = list(dict.fromkeys([k, 1, (k + 1) // 2]))

        correct = sum(1 for i in range(n) if ranking[i, 0] == gt[i])
        sev_total, mistakes = 0, 0
        hd_total = dict.fromkeys(ks, 0)
        for i in range(n):
            if ranking[i, 0] != gt[i]:
                mistakes += 1
                sev_total += int(costs[ranking[i, 0], gt[i]])
            for kk in ks:
                for j in range(kk):
                    hd_total[kk] += int(costs[ranking[i, j], gt[i]])

        r = report(ranking, gt, t, ks)
        assert r.top1_accuracy == correct / n
        assert r.n_mistakes == mistakes
        if mistakes:
            assert r.avg_mistake_severity == sev_total / mistakes
        else:
            assert r.avg_mistake_severity is None
        assert r.hier_dist_at_k == {kk: hd_total[kk] / (n * kk) for kk in ks}


def test_hier_dist_bounded_by_root_height():
    rng = np.random.default_rng(9)
    for _ in range(50):
        t = random_taxonomy(rng, int(rng.integers(3, 60)))
        n = int(rng.integers(1, 40))
        k = int(rng.integers(1, t.n_leaves + 1))
        ranking = np.stack([rng.permutation(t.n_leaves) for _ in range(n)])
        gt = rng.integers(0, t.n_leaves, size=n)
        hd = report(ranking, gt, t, [k]).hier_dist_at_k[k]
        assert 0.0 <= hd <= t.height[t.root]


def test_metrics_invariant_under_relabeling():
    rng = np.random.default_rng(7)
    parents = {f"l{i}": f"m{i // 3}" for i in range(9)} | {f"m{j}": "root" for j in range(3)}
    parents["root"] = None
    base_order = [f"l{i}" for i in range(9)]
    perm = rng.permutation(9)
    t1 = build_taxonomy(parents, leaf_order=base_order)
    t2 = build_taxonomy(parents, leaf_order=[base_order[p] for p in perm])
    inv = np.empty(9, dtype=int)
    inv[perm] = np.arange(9)  # position of t1-leaf i inside t2's order

    n = 50
    pred = rng.integers(0, 9, size=n)
    gt = rng.integers(0, 9, size=n)
    r1, r2 = report(pred[:, None], gt, t1), report(inv[pred][:, None], inv[gt], t2)
    assert r1.top1_accuracy == r2.top1_accuracy
    assert r1.avg_mistake_severity == r2.avg_mistake_severity
    assert r1.hier_dist_at_k[1] == r2.hier_dist_at_k[1]


def test_eval_report_matches_manual_top_k(flower_vehicle):
    rng = np.random.default_rng(8)
    t = flower_vehicle
    m = ScoreMatrix(random_prob_rows(rng, 30, 4), PROBABILITIES, t.leaf_names())
    gt = rng.integers(0, 4, size=30)
    ranking = top_k(m, 2)
    r = eval_report(ranking, gt, t, [1, 2], "argmax")
    costs = dense_lca_heights(t)
    hd2 = sum(int(costs[ranking[i, j], gt[i]]) for i in range(30) for j in range(2))
    assert r.hier_dist_at_k[2] == hd2 / 60
    assert r.n_samples == 30


def test_block_reports_add_up_to_the_whole_report():
    # The CLI evaluates block by block; the sum must equal one call on all rows, bit for bit.
    rng = np.random.default_rng(10)
    for _ in range(30):
        t = random_taxonomy(rng, int(rng.integers(3, 30)))
        n = int(rng.integers(1, 80))
        ranking = np.stack([rng.permutation(t.n_leaves) for _ in range(n)])
        gt = rng.integers(0, t.n_leaves, size=n)
        ks = sorted({1, int(rng.integers(1, t.n_leaves + 1))})
        whole = eval_report(ranking, gt, t, ks, "m")
        cuts = [0, *sorted(rng.choice(np.arange(1, n), size=min(3, n - 1), replace=False)), n]
        blocks = [eval_report(ranking[a:b], gt[a:b], t, ks, "m") for a, b in zip(cuts, cuts[1:])]
        total = sum(blocks[1:], blocks[0])
        assert total == whole  # every count and sum, hence every metric
