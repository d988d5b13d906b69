"""Hierarchy-aware evaluation: top-1 accuracy, mistake severity, distance@k.

``eval_report`` is the one entry point. Severity of a single mistake is the
LCA height between the predicted and true leaves; averaging it over the
mistakes gives the average mistake severity, and averaging the LCA heights of
the top-k ranked classes over all samples gives hierarchical distance@k, whose
k=1 case decomposes exactly as (1 - top-1 accuracy) * severity. All three are
read off one table of LCA heights, each row's top max(ks) classes against its
label (``taxonomy.lca_heights``); no leaf-by-leaf table is built.

A report holds integer counts and sums of LCA heights, and each metric is one
division of them. Reports of disjoint row sets add up exactly, so a score set
can be evaluated one block of rows at a time, and the metrics come out bit for
bit the same whatever the blocks; a whole matrix is the one-block case.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from . import taxonomy as tx
# Rankings come from ``scores.top_k``; perfbench's tracer checks that it
# wraps this binding too, so the name stays bound here.
from .scores import top_k  # noqa: F401


@dataclass
class EvalReport:
    """One method's counts on one labeled score set; the metrics derive from them.

    ``hd_sums[k]`` sums the LCA heights of every row's top k classes, and
    ``severity_sum`` those of every top-1 class. ``avg_mistake_severity`` is
    None when every prediction is correct, rather than 0, so that error-free
    rows do not deflate severity columns in comparison tables.
    """

    method: str
    n_samples: int
    n_mistakes: int
    severity_sum: int
    hd_sums: dict[int, int]
    config: dict = field(default_factory=dict)

    @property
    def top1_accuracy(self) -> float:
        return (self.n_samples - self.n_mistakes) / self.n_samples

    @property
    def avg_mistake_severity(self) -> Optional[float]:
        return self.severity_sum / self.n_mistakes if self.n_mistakes else None

    @property
    def hier_dist_at_k(self) -> dict[int, float]:
        return {k: s / (self.n_samples * k) for k, s in self.hd_sums.items()}

    def __add__(self, other: "EvalReport") -> "EvalReport":
        """The report of both row sets, with this one's method and config."""
        return replace(
            self,
            n_samples=self.n_samples + other.n_samples,
            n_mistakes=self.n_mistakes + other.n_mistakes,
            severity_sum=self.severity_sum + other.severity_sum,
            hd_sums={k: s + other.hd_sums[k] for k, s in self.hd_sums.items()},
        )


def eval_report(
    ranking,
    gt,
    t: tx.Taxonomy,
    ks: Sequence[int],
    method: str,
) -> EvalReport:
    """Counts for top-1 accuracy, mistake severity and distance@k for every k in ``ks``.

    ``ranking`` holds leaf columns, best first, one row per entry of ``gt``
    and at least max(ks) columns, e.g. ``scores.top_k(combined, max(ks))``;
    ``gt`` holds one leaf column per row, and ``ks`` at least one k. None of
    that is checked here: ``commands.parse_ks``, ``top_k`` and
    ``fileio.load_labels`` give only such values, and the commands check the
    row counts and max(ks). Call it once per block of rows and add the reports.
    """
    ks = [int(k) for k in ks]
    ranking, gt = np.asarray(ranking, dtype=np.int64), np.asarray(gt, dtype=np.int64)
    ranking = ranking[:, :max(ks)]
    h = tx.lca_heights(t, ranking, gt[:, None])
    return EvalReport(
        method=method,
        n_samples=gt.size,
        n_mistakes=int((ranking[:, 0] != gt).sum()),
        severity_sum=int(h[:, 0].sum()),
        hd_sums={k: int(h[:, :k].sum()) for k in ks},
    )
