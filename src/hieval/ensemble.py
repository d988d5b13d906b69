"""Combining fine and coarse probabilities into reweighted fine scores.

The core rule multiplies each fine-class probability by the probability its
ancestor received from a coarser classifier, then renormalizes the row:

    s_i = q_i * r_parent(i) / sum_j q_j * r_parent(j)

``hie_combine`` applies one coarse level, ``hie_self`` derives that level from
the fine row itself by marginalization, and ``cascade_combine`` stacks any
number of ancestor levels. Whenever the coarse argmax hits the true class's
parent, the true class's reweighted probability can only go up; see
:func:`combine_gain` for the per-sample diagnostic of that guarantee.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidIndex,
    KindConflict,
    ZeroDenominator,
)
from .scores import PROBABILITIES, ScoreMatrix

# Below this, per-row products are recomputed in log space so that underflow
# in long cascades cannot silently drop probability mass.
UNDERFLOW_LIMIT = 1e-300

METHOD_HIE = "hie"
METHOD_HIE_SELF = "hie_self"
METHOD_CASCADE = "cascade"


@dataclass(frozen=True, eq=False)
class CombinedScores:
    """Reweighted fine-class probabilities plus how they were produced."""

    scores: ScoreMatrix
    method: str
    levels_used: tuple

    @property
    def values(self) -> np.ndarray:
        return self.scores.values


def _as_col_map(pmap, n_fine: int, n_upper: int, what: str) -> np.ndarray:
    m = np.asarray(pmap, dtype=np.int64)
    if m.ndim != 1 or m.shape[0] != n_fine:
        raise DimensionMismatch(f"{what} has length {m.shape}, expected ({n_fine},)")
    if m.size and (m.min() < 0 or m.max() >= n_upper):
        raise DimensionMismatch(
            f"{what} entries must lie in [0, {n_upper}); got range "
            f"[{int(m.min())}, {int(m.max())}]"
        )
    return m


def _require_probabilities(m: ScoreMatrix, what: str) -> None:
    if m.kind != PROBABILITIES:
        raise KindConflict(f"{what} must hold probabilities, got kind {m.kind!r}")


def _product_normalize(fine: np.ndarray, factors: list[tuple[np.ndarray, np.ndarray]],
                       first_row: int = 0) -> np.ndarray:
    """Rows of fine * product of gathered factor columns, renormalized to sum 1.

    Rows where any product dips under UNDERFLOW_LIMIT are redone by summing
    logs and exponentiating around the row maximum; rows with no mass at all
    raise ZeroDenominator, naming the row counted from ``first_row``.
    """
    u = fine.copy()
    for values, col_map in factors:
        u *= values[:, col_map]
    low = u < UNDERFLOW_LIMIT
    dead = low.all(axis=1)
    if dead.any():
        raise ZeroDenominator(first_row + int(np.argmax(dead)))
    u /= u.sum(axis=1, keepdims=True)
    redo = low.any(axis=1)
    if redo.any():
        with np.errstate(divide="ignore"):
            logs = np.log(fine[redo])
            for values, col_map in factors:
                logs += np.log(values[redo][:, col_map])
        peak = logs.max(axis=1, keepdims=True)
        w = np.where(np.isneginf(logs), 0.0, np.exp(logs - peak))
        u[redo] = w / w.sum(axis=1, keepdims=True)
    return u


def hie_combine(fine: ScoreMatrix, coarse: ScoreMatrix, pmap) -> CombinedScores:
    """Reweight fine probabilities by each column's parent probability.

    ``pmap[i]`` is the coarse column holding the parent of fine column ``i``
    (see ``taxonomy.parent_index_map``). Column order of the result matches
    ``fine``.
    """
    _require_probabilities(fine, "fine scores")
    _require_probabilities(coarse, "coarse scores")
    if fine.n_samples != coarse.n_samples:
        raise DimensionMismatch(
            f"fine has {fine.n_samples} samples, coarse has {coarse.n_samples}"
        )
    col_map = _as_col_map(pmap, fine.n_classes, coarse.n_classes, "parent index map")
    values = _product_normalize(fine.values, [(coarse.values, col_map)], fine.first_row)
    return CombinedScores(
        ScoreMatrix(values, PROBABILITIES, fine.class_names, fine.first_row),
        METHOD_HIE,
        ("parent",),
    )


def marginalize_to_parents(fine: ScoreMatrix, pmap, n_coarse: int,
                           class_names: Sequence[str] | None = None) -> ScoreMatrix:
    """Sum fine probabilities within each parent group.

    Pure regrouping: row mass is preserved, column ``j`` of the result holds
    the total probability of leaves with ``pmap[i] == j``.
    """
    _require_probabilities(fine, "fine scores")
    col_map = _as_col_map(pmap, fine.n_classes, n_coarse, "parent index map")
    out = np.zeros((fine.n_samples, n_coarse), dtype=np.float64)
    # Unbuffered scatter-add walks entries in row-major order, which keeps
    # the summation order fixed regardless of grouping layout.
    rows = np.broadcast_to(np.arange(fine.n_samples)[:, None], fine.values.shape)
    cols = np.broadcast_to(col_map[None, :], fine.values.shape)
    np.add.at(out, (rows, cols), fine.values)
    if class_names is None:
        class_names = tuple(f"group{j}" for j in range(n_coarse))
    return ScoreMatrix(out, PROBABILITIES, class_names, fine.first_row)


def hie_self(fine: ScoreMatrix, pmap, n_coarse: int) -> CombinedScores:
    """Single-model variant: the coarse row is the fine row marginalized."""
    marginals = marginalize_to_parents(fine, pmap, n_coarse)
    combined = hie_combine(fine, marginals, pmap)
    return CombinedScores(combined.scores, METHOD_HIE_SELF, ("self-marginal",))


def cascade_combine(fine: ScoreMatrix, uppers: Sequence[tuple[ScoreMatrix, Sequence[int]]],
                    levels: Sequence | None = None) -> CombinedScores:
    """Multiply probabilities from several ancestor levels into the fine row.

    ``uppers`` pairs each upper-level matrix with a map from fine columns to
    its columns (see ``taxonomy.ancestor_index_map``). An empty list returns
    the fine scores untouched.
    """
    _require_probabilities(fine, "fine scores")
    factors = []
    for i, (matrix, amap) in enumerate(uppers):
        _require_probabilities(matrix, f"upper level {i}")
        if matrix.n_samples != fine.n_samples:
            raise DimensionMismatch(
                f"upper level {i} has {matrix.n_samples} samples, fine has {fine.n_samples}"
            )
        col_map = _as_col_map(amap, fine.n_classes, matrix.n_classes, f"level {i} ancestor map")
        factors.append((matrix.values, col_map))
    used = tuple(levels) if levels is not None else tuple(range(1, len(factors) + 1))
    if not factors:
        return CombinedScores(fine, METHOD_CASCADE, used)
    values = _product_normalize(fine.values, factors, fine.first_row)
    return CombinedScores(
        ScoreMatrix(values, PROBABILITIES, fine.class_names, fine.first_row),
        METHOD_CASCADE,
        used,
    )


def combine_gain(q_row, r_row, pmap, goal: int) -> float:
    """Factor by which combining changes the goal class's probability, s_g / q_g.

    At least 1 whenever ``argmax(r_row) == pmap[goal]``: a correct coarse
    prediction can never shrink the true class's share. A goal probability of
    exactly zero returns 1 by convention.
    """
    q = np.asarray(q_row, dtype=np.float64).reshape(1, -1)
    r = np.asarray(r_row, dtype=np.float64).reshape(1, -1)
    if not 0 <= goal < q.shape[1]:
        raise InvalidIndex(f"goal index {goal} outside [0, {q.shape[1]})")
    col_map = _as_col_map(pmap, q.shape[1], r.shape[1], "parent index map")
    if q[0, goal] == 0.0:
        return 1.0
    s = _product_normalize(q, [(r, col_map)])
    return float(s[0, goal] / q[0, goal])
