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

import functools
from typing import Sequence

import numpy as np

from .errors import DataError
from .scores import PROBABILITIES, ScoreMatrix

# Below this, per-row products are recomputed in log space so that underflow
# in long cascades cannot silently drop probability mass.
UNDERFLOW_LIMIT = 1e-300

# The fault of a row whose products all fall under UNDERFLOW_LIMIT.
NO_MASS = ("once negative entries count as 0, no fine-times-coarse product reaches 1e-300; "
           "inputs carry no usable probability mass")


def _product_normalize(fine: np.ndarray, factors: list[tuple[np.ndarray, np.ndarray]],
                       first_row: int = 0) -> np.ndarray:
    """Rows of fine * product of gathered factor columns, renormalized to sum 1.

    Rows where any product dips under UNDERFLOW_LIMIT are redone by summing
    logs and exponentiating around the row maximum, each entry clamped at 0
    (files may hold entries down to -FILE_TOL); rows with no mass at all
    raise DataError, naming the row counted from ``first_row``.
    """
    # fine * f0 * f1 * ... in that order; u = f0 * fine first is the same bits.
    u = np.take(*factors[0], axis=1)
    u *= fine
    for values, col_map in factors[1:]:
        u *= np.take(values, col_map, axis=1)
    low = u < UNDERFLOW_LIMIT
    dead = low.all(axis=1)
    if dead.any():
        raise DataError(f"row {first_row + int(np.argmax(dead))}: {NO_MASS}")
    u /= u.sum(axis=1, keepdims=True)
    redo = low.any(axis=1)
    if redo.any():
        with np.errstate(divide="ignore"):
            logs = np.log(np.maximum(fine[redo], 0.0))
            for values, col_map in factors:
                logs += np.log(np.maximum(values[redo][:, col_map], 0.0))
        peak = logs.max(axis=1, keepdims=True)
        dead = np.isneginf(peak[:, 0])
        if dead.any():
            row = first_row + int(np.flatnonzero(redo)[np.argmax(dead)])
            raise DataError(f"row {row}: {NO_MASS}")
        w = np.exp(logs - peak)  # peak is finite, so a -inf log gives exactly 0.0
        u[redo] = w / w.sum(axis=1, keepdims=True)
    return u


def hie_combine(fine: ScoreMatrix,
                uppers: Sequence[tuple[ScoreMatrix, Sequence[int]]]) -> ScoreMatrix:
    """Multiply each fine probability by its ancestors' probabilities, then renormalize.

    ``uppers`` pairs each upper-level matrix with a map from fine columns to
    its columns: ``[(coarse, taxonomy.parent_index_map(t))]`` for plain HiE,
    one ``taxonomy.ancestor_index_map(t, d)`` per depth for a cascade. Column
    order of the result matches ``fine``; an empty list returns ``fine``. Every
    matrix holds probabilities for the same rows, and every map's entries are
    columns of its matrix, as ``commands.load_method_inputs`` binds them: none
    of that is checked here.
    """
    if not uppers:
        return fine
    factors = [(matrix.values, amap) for matrix, amap in uppers]
    values = _product_normalize(fine.values, factors, fine.first_row)
    return ScoreMatrix(values, PROBABILITIES, fine.class_names, fine.first_row)


@functools.lru_cache(maxsize=8)
def _group_names(n_coarse: int) -> tuple[str, ...]:
    return tuple(f"group{i}" for i in range(n_coarse))


def marginalize_to_parents(fine: ScoreMatrix, pmap, n_coarse: int) -> ScoreMatrix:
    """Sum fine probabilities within each parent group, in ``np.add.at`` order.

    One ``np.bincount`` over bins ``row * n_coarse + pmap[i]`` adds members to 0.0 by column
    (all -0.0 sums to 0.0). ``pmap``'s entries must lie in ``[0, n_coarse)``, as
    ``taxonomy.parent_index_map``'s do, or a bin would spill into the next row.
    """
    bins = (np.arange(fine.n_samples)[:, None] * n_coarse + pmap).ravel()
    sums = np.bincount(bins, fine.values.ravel(), fine.n_samples * n_coarse).reshape(-1, n_coarse)
    return ScoreMatrix(sums, PROBABILITIES, _group_names(n_coarse), fine.first_row)


def hie_self(fine: ScoreMatrix, pmap, n_coarse: int) -> ScoreMatrix:
    """Single-model variant: the upper level is the fine row marginalized to parents."""
    return hie_combine(fine, [(marginalize_to_parents(fine, pmap, n_coarse), pmap)])
