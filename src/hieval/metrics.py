"""Hierarchy-aware evaluation: top-1 accuracy, mistake severity, distance@k.

Severity of a single mistake is the LCA height between the predicted and true
leaves. Averaging over mistakes only gives avg_mistake_severity; averaging
LCA heights of the top-k ranked classes over all samples gives
hier_dist_at_k, whose k=1 case decomposes exactly as
(1 - top1_accuracy) * avg_mistake_severity. Heights are looked up for the
scored pairs only (``taxonomy.lca_heights``), never through the leaf-by-leaf
cost matrix.

All sums are accumulated over integer LCA heights with a single final
division, so results are reproducible bit for bit regardless of sample order
grouping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

import numpy as np

from . import taxonomy as tx
from .errors import EmptyInput, InvalidIndex, KTooLarge, LengthMismatch
from .scores import RiskRanking, ScoreMatrix, top_k


@dataclass
class EvalReport:
    """One method's metrics on one labeled score set."""

    method: str
    top1_accuracy: float
    avg_mistake_severity: Optional[float]
    hier_dist_at_k: dict[int, float]
    n_samples: int
    n_mistakes: int
    config: dict = field(default_factory=dict)


def _as_index_vector(v, what: str, n_classes: int) -> np.ndarray:
    arr = np.asarray(v, dtype=np.int64)
    if arr.ndim != 1:
        raise LengthMismatch(f"{what} must be 1-d, got shape {arr.shape}")
    if arr.size == 0:
        raise EmptyInput(f"{what} is empty")
    if arr.min() < 0 or arr.max() >= n_classes:
        raise InvalidIndex(f"{what} entries must lie in [0, {n_classes})")
    return arr


def top1_accuracy(pred, gt) -> float:
    """Fraction of samples whose prediction equals the ground truth."""
    p = np.asarray(pred, dtype=np.int64)
    g = np.asarray(gt, dtype=np.int64)
    if p.shape != g.shape:
        raise LengthMismatch(f"{p.shape[0]} predictions vs {g.shape[0]} labels")
    if p.size == 0:
        raise EmptyInput("no samples")
    return int((p == g).sum()) / p.size


def avg_mistake_severity(pred, gt, t: tx.Taxonomy) -> Optional[float]:
    """Mean LCA height between prediction and truth over the mistakes only.

    None when every prediction is correct, rather than 0, so that error-free
    rows do not deflate severity columns in comparison tables.
    """
    p = _as_index_vector(pred, "predictions", t.n_leaves)
    g = _as_index_vector(gt, "labels", t.n_leaves)
    if p.shape != g.shape:
        raise LengthMismatch(f"{p.shape[0]} predictions vs {g.shape[0]} labels")
    wrong = p != g
    n_mistakes = int(wrong.sum())
    if n_mistakes == 0:
        return None
    return int(tx.lca_heights(t, p[wrong], g[wrong]).sum()) / n_mistakes


def hier_dist_at_k(ranking, gt, t: tx.Taxonomy, k: int) -> float:
    """Mean LCA height between the truth and each of the top-k classes, over all samples."""
    r = np.asarray(ranking, dtype=np.int64)
    if r.ndim != 2:
        raise LengthMismatch(f"ranking must be 2-d, got shape {r.shape}")
    if not 1 <= k <= r.shape[1]:
        raise KTooLarge(f"k={k} outside [1, {r.shape[1]}]")
    g = _as_index_vector(gt, "labels", t.n_leaves)
    if r.shape[0] != g.shape[0]:
        raise LengthMismatch(f"{r.shape[0]} ranking rows vs {g.shape[0]} labels")
    if r.min() < 0 or r.max() >= t.n_leaves:
        raise InvalidIndex(f"ranking entries must lie in [0, {t.n_leaves})")
    heights = tx.lca_heights(t, r[:, :k], g[:, None])
    return int(heights.sum()) / (g.size * k)


def eval_report(
    scores_or_ranking: Union[ScoreMatrix, RiskRanking, np.ndarray],
    gt,
    t: tx.Taxonomy,
    ks: Sequence[int],
    method: str,
    config: dict | None = None,
) -> EvalReport:
    """Bundle all three metrics for one method into a report.

    Accepts a probability matrix (ranked by top_k), a risk ranking, or a
    precomputed index ranking with at least max(ks) columns.
    """
    ks = [int(k) for k in ks]
    if not ks:
        raise EmptyInput("no k values requested")
    if isinstance(scores_or_ranking, (ScoreMatrix, RiskRanking)):
        ranking = top_k(scores_or_ranking, max(ks))
    else:
        ranking = np.asarray(scores_or_ranking, dtype=np.int64)
        if ranking.ndim != 2:
            raise LengthMismatch(f"ranking must be 2-d, got shape {ranking.shape}")
    g = _as_index_vector(gt, "labels", t.n_leaves)
    pred = ranking[:, 0]
    acc = top1_accuracy(pred, g)
    severity = avg_mistake_severity(pred, g, t)
    dists = {k: hier_dist_at_k(ranking, g, t, k) for k in ks}
    return EvalReport(
        method=method,
        top1_accuracy=acc,
        avg_mistake_severity=severity,
        hier_dist_at_k=dists,
        n_samples=int(g.size),
        n_mistakes=int((np.asarray(pred) != g).sum()),
        config=dict(config or {}),
    )
