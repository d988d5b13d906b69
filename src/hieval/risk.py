"""Expected-cost reranking of fine-class probabilities.

Given a leaf-by-leaf cost matrix (LCA heights from the taxonomy), the risk of
predicting class i is the expectation of the cost under the model's own
probabilities, risk_i = sum_j C[i, j] * p_j. Ranking classes by ascending
risk yields the minimum-expected-cost prediction at position 0 and a
cost-aware ordering for top-k metrics. Composes after probability combining,
which is a different correction: combining moves mass between subtrees,
reranking trades probability against cost.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, KindConflict
from .scores import PROBABILITIES, ScoreMatrix, rank_rows


@dataclass(frozen=True, eq=False)
class RiskRanking:
    """Classes ranked by ascending expected cost, per sample.

    ``expected_costs[n, i]`` is the risk of predicting class ``i``, in column
    order. ``top(k)`` ranks only the k lowest risks per row, ties broken by
    ascending class index; it is what evaluation reads. ``order`` is the full
    permutation under the same rule, computed on demand.
    """

    expected_costs: np.ndarray

    def top(self, k: int) -> np.ndarray:
        return rank_rows(self.expected_costs, k)

    @property
    def order(self) -> np.ndarray:
        return self.top(self.expected_costs.shape[1])

    @property
    def predictions(self) -> np.ndarray:
        return self.top(1)[:, 0]


def _check_costs(costs, n_classes: int) -> np.ndarray:
    c = np.asarray(costs, dtype=np.float64)
    if c.ndim != 2 or c.shape[0] != c.shape[1]:
        raise DimensionMismatch(f"cost matrix must be square, got shape {c.shape}")
    if c.shape[0] != n_classes:
        raise DimensionMismatch(
            f"cost matrix side {c.shape[0]} does not match {n_classes} classes"
        )
    return c


def expected_costs(probs: ScoreMatrix, costs) -> np.ndarray:
    """Per-sample, per-class risk: probs @ costs transposed."""
    if probs.kind != PROBABILITIES:
        raise KindConflict(f"expected probabilities, got kind {probs.kind!r}")
    c = _check_costs(costs, probs.n_classes)
    return probs.values @ c.T


def crm_rerank(probs: ScoreMatrix, costs) -> RiskRanking:
    """Rank classes by ascending expected cost under ``probs``."""
    risks = expected_costs(probs, costs)
    risks.setflags(write=False)
    return RiskRanking(expected_costs=risks)
