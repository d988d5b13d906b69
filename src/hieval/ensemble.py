"""Combining fine and coarse probabilities into reweighted fine scores.

The core rule multiplies each fine-class probability by the probability its
ancestor received from a coarser classifier, then renormalizes the row:

    s_i = q_i * r_parent(i) / sum_j q_j * r_parent(j)

``hie_combine`` is the one entry point: it takes a list of (upper-level
matrix, fine-column -> upper-column map) pairs and multiplies every level's
factor in, so plain HiE passes the coarse level alone and a cascade passes
one pair per ancestor depth. ``hie_self`` feeds it the fine row's own parent
marginals. Whenever the coarse argmax hits the true class's parent, the true
class's reweighted probability can only go up: combining never shrinks
``fine.values[n, g]`` for the true class ``g`` of row ``n``.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .errors import DimensionMismatch, KindConflict, ZeroDenominator
from .scores import PROBABILITIES, ScoreMatrix

# Below this, per-row products are recomputed in log space so that underflow
# in long cascades cannot silently drop probability mass.
UNDERFLOW_LIMIT = 1e-300


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


def hie_combine(fine: ScoreMatrix,
                uppers: Sequence[tuple[ScoreMatrix, Sequence[int]]]) -> ScoreMatrix:
    """Multiply each fine probability by its ancestors' probabilities, then renormalize.

    ``uppers`` pairs each upper-level matrix with a map from fine columns to
    its columns: ``[(coarse, taxonomy.parent_index_map(t))]`` for plain HiE,
    one ``taxonomy.ancestor_index_map(t, d)`` per depth for a cascade. Column
    order of the result matches ``fine``; an empty list returns ``fine``.
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
    if not factors:
        return fine
    values = _product_normalize(fine.values, factors, fine.first_row)
    return ScoreMatrix(values, PROBABILITIES, fine.class_names, fine.first_row)


def marginalize_to_parents(fine: ScoreMatrix, pmap, n_coarse: int) -> ScoreMatrix:
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
    names = tuple(f"group{j}" for j in range(n_coarse))
    return ScoreMatrix(out, PROBABILITIES, names, fine.first_row)


def hie_self(fine: ScoreMatrix, pmap, n_coarse: int) -> ScoreMatrix:
    """Single-model variant: the upper level is the fine row marginalized to parents."""
    return hie_combine(fine, [(marginalize_to_parents(fine, pmap, n_coarse), pmap)])
