"""Hierarchy-aware evaluation: top-1 accuracy, mistake severity, distance@k.

``eval_report`` is the one entry point. Severity of a single mistake is the
LCA height between the predicted and true leaves; averaging it over the
mistakes gives the average mistake severity, and averaging the LCA heights of
the top-k ranked classes over all samples gives hierarchical distance@k, whose
k=1 case decomposes exactly as (1 - top-1 accuracy) * severity. All three are
read off one table of LCA heights, each row's top max(ks) classes against its
label (``taxonomy.lca_heights``), never through the leaf-by-leaf cost matrix.

All sums are accumulated over integer LCA heights with a single final
division, so results are reproducible bit for bit regardless of sample order
grouping.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import taxonomy as tx
from .errors import EmptyInput, InvalidIndex, KTooLarge, LengthMismatch
# Rankings come from ``scores.top_k``; perfbench's tracer checks that it
# wraps this binding too, so the name stays bound here.
from .scores import top_k  # noqa: F401


@dataclass
class EvalReport:
    """One method's metrics on one labeled score set.

    ``avg_mistake_severity`` is None when every prediction is correct, rather
    than 0, so that error-free rows do not deflate severity columns in
    comparison tables.
    """

    method: str
    top1_accuracy: float
    avg_mistake_severity: Optional[float]
    hier_dist_at_k: dict[int, float]
    n_samples: int
    n_mistakes: int
    config: dict = field(default_factory=dict)


def eval_report(
    ranking,
    gt,
    t: tx.Taxonomy,
    ks: Sequence[int],
    method: str,
    config: dict | None = None,
) -> EvalReport:
    """Top-1 accuracy, mistake severity and distance@k for every k in ``ks``.

    ``ranking`` holds leaf columns, best first, with at least max(ks) columns
    per row, e.g. ``scores.top_k(combined, max(ks))``; ``gt`` holds one leaf
    column per row.
    """
    ks = [int(k) for k in ks]
    if not ks:
        raise EmptyInput("no k values requested")
    ranking, gt = np.asarray(ranking, dtype=np.int64), np.asarray(gt, dtype=np.int64)
    if ranking.ndim != 2 or gt.ndim != 1:
        raise LengthMismatch(f"need a 2-d ranking and 1-d labels, got {ranking.shape}, {gt.shape}")
    n = gt.size
    if ranking.shape[0] != n:
        raise LengthMismatch(f"{ranking.shape[0]} predictions vs {n} labels")
    if n == 0:
        raise EmptyInput("no samples")
    for k in ks:
        if not 1 <= k <= ranking.shape[1]:
            raise KTooLarge(f"k={k} outside [1, {ranking.shape[1]}]")
    ranking = ranking[:, :max(ks)]
    if min(ranking.min(), gt.min()) < 0 or max(ranking.max(), gt.max()) >= t.n_leaves:
        raise InvalidIndex(f"ranking and label entries must lie in [0, {t.n_leaves})")
    h = tx.lca_heights(t, ranking, gt[:, None])
    n_mistakes = int((ranking[:, 0] != gt).sum())
    return EvalReport(
        method=method,
        top1_accuracy=(n - n_mistakes) / n,
        avg_mistake_severity=int(h[:, 0].sum()) / n_mistakes if n_mistakes else None,
        hier_dist_at_k={k: int(h[:, :k].sum()) / (n * k) for k in ks},
        n_samples=n,
        n_mistakes=n_mistakes,
        config=dict(config or {}),
    )
