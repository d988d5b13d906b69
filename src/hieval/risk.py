"""Expected-cost reranking of fine-class probabilities.

The risk of predicting class i is the expectation of the cost of confusing
it with the true class under the model's own probabilities,
risk_i = sum_j C[i, j] * p_j. ``crm_rerank`` returns -risk as logits, so
``scores.top_k`` puts the minimum-expected-cost prediction first and gives a
cost-aware ordering for top-k metrics. Composes after probability combining,
which is a different correction: combining moves mass between subtrees,
reranking trades probability against cost.

C is the LCA height, so the risk comes from the tree alone: it telescopes
over the path from the root to leaf i,

    risk_i = h(root) * M(root) - sum over b on the path, b != root,
             of (h(parent of b) - h(b)) * M(b),

where M(b) is the probability mass of b's subtree. That costs
O(N * C * depth) time and no C x C matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import scores
from . import taxonomy as tx
from .scores import LOGITS, ScoreMatrix


@dataclass(frozen=True)
class _PathLayout:
    """The taxonomy's paths arranged for the tree kernel; D is the deepest depth.

    ``perm`` orders the leaf columns so that every subtree's leaves are
    contiguous; depth d's nodes are then the runs of equal entries in column
    d of the ancestor table. For d = 0 .. D-1, ``sums[d]`` are the
    ``np.add.reduceat`` indices that sum depth d+1's masses (the permuted
    leaves' for d = D-1) into depth d's. For d = 1 .. D-1, ``counts[d-1]``
    is how many depth-d nodes each depth d-1 node holds and ``drops[d-1]``
    each depth-d node's height drop from its parent. Leaf column i takes the
    risk of depth D-1 node ``group[i]`` minus ``leaf_drop[i]`` times its mass.
    """

    perm: np.ndarray
    sums: list
    counts: list
    drops: list
    root_height: float
    group: np.ndarray
    leaf_drop: np.ndarray


def _path_layout(t: tx.Taxonomy) -> _PathLayout:
    return tx.cached(t, "path_layout", lambda: _build_path_layout(t))


def _build_path_layout(t: tx.Taxonomy) -> _PathLayout:
    table = tx.ancestor_table(t)
    perm = np.lexsort(table.T[::-1])
    path = table[perm]
    height = np.asarray(t.height, dtype=np.float64)
    # Depth d's nodes start where column d changes; at the deepest depth every leaf does.
    starts = [np.flatnonzero(np.r_[True, col[1:] != col[:-1]]) for col in path.T]
    drops = [height[path[s, d - 1]] - height[path[s, d]] for d, s in enumerate(starts) if d]
    sums = [np.searchsorted(fine, coarse) for coarse, fine in zip(starts, starts[1:])]
    counts = [np.diff(np.r_[idx, s.size]) for idx, s in zip(sums, starts[1:-1])]
    group = np.empty_like(perm)
    group[perm] = np.searchsorted(starts[-2], np.arange(perm.size), side="right") - 1
    leaf_drop = np.empty(perm.size)
    leaf_drop[perm] = drops.pop()
    return _PathLayout(perm, sums, counts, drops, float(height[t.root]), group, leaf_drop)


def _tree_expected_costs(p: np.ndarray, t: tx.Taxonomy) -> np.ndarray:
    """Each row's expected LCA-height cost of every leaf, by subtree masses, a block at a time.

    Blocks keep the per-depth mass arrays (rows x nodes) small when a whole
    matrix comes in.
    """
    lay = _path_layout(t)
    out = np.empty_like(p)
    step = scores.block_rows(p.shape[1])
    for r in range(0, p.shape[0], step):
        block = p[r : r + step]
        masses = [np.take(block, lay.perm, axis=1)]
        for idx in reversed(lay.sums):  # bottom-up; masses[-1] ends as the root's
            masses.append(np.add.reduceat(masses[-1], idx, axis=1))
        risk = masses.pop() * lay.root_height
        for counts, drop in zip(lay.counts, lay.drops):  # top-down, depth 1 .. D-1
            mass = masses.pop()
            mass *= drop
            risk = np.repeat(risk, counts, axis=1)
            risk -= mass
        o = out[r : r + step]
        # group is in range, and the default mode="raise" would buffer out=.
        np.take(risk, lay.group, axis=1, out=o, mode="clip")
        # masses[0], the permuted leaf masses, is read by now: it takes the product.
        o -= np.multiply(block, lay.leaf_drop, out=masses[0])
    return out


def crm_rerank(probs: ScoreMatrix, t: tx.Taxonomy) -> ScoreMatrix:
    """Each leaf's negated expected LCA-height cost under ``probs``, as logits: higher is better.

    ``probs`` holds probabilities over ``t``'s leaves in leaf order; that is not checked here.
    """
    risks = _tree_expected_costs(probs.values, t)
    np.negative(risks, out=risks)
    return ScoreMatrix(risks, LOGITS, probs.class_names, probs.first_row)
