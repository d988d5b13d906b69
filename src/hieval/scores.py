"""Per-level score matrices: softmax, validation, deterministic top-k ranking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptyInput,
    KindConflict,
    KTooLarge,
    NegativeEntry,
    NonFiniteValue,
    RowSumViolation,
)

LOGITS = "logits"
PROBABILITIES = "probabilities"

# Probability tolerance for matrices produced in-process (softmax, combining).
INTERNAL_TOL = 1e-9
# Looser tolerance for user-supplied files, which may come from 32-bit exporters.
FILE_TOL = 1e-6

# Row-local work (reading, softmax, combining, risk, ranking) runs over blocks
# of rows holding about this many entries, so its buffers stay small whatever
# the row count; every row is computed on its own, so results do not depend
# on where blocks start.
BLOCK_ENTRIES = 1 << 16


def block_rows(n_cols: int) -> int:
    """Rows per block of a matrix ``n_cols`` wide: about BLOCK_ENTRIES entries, at least one."""
    return max(1, BLOCK_ENTRIES // n_cols)


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """An n_samples x n_classes block of 64-bit scores at one hierarchy level.

    ``kind`` says whether values are raw logits or probabilities;
    ``class_names`` binds columns to taxonomy nodes. Values are stored
    read-only and must be finite. ``first_row`` is the row of the whole score
    set where this block starts, so that errors name rows of the file.
    """

    values: np.ndarray
    kind: str
    class_names: tuple[str, ...]
    first_row: int = 0

    def __post_init__(self):
        if self.kind not in (LOGITS, PROBABILITIES):
            raise KindConflict(f"unknown score kind {self.kind!r}")
        # C order: row sums (softmax, combining) then run the same way whatever
        # layout the caller built, e.g. the column-permuted copy alignment makes.
        arr = np.array(self.values, dtype=np.float64, order="C", copy=True)
        if arr.ndim != 2:
            raise DimensionMismatch(f"expected a 2-d array, got shape {arr.shape}")
        if arr.shape[0] < 1 or arr.shape[1] < 1:
            raise EmptyInput(f"score matrix has shape {arr.shape}")
        names = tuple(self.class_names)
        if len(names) != arr.shape[1]:
            raise DimensionMismatch(
                f"{len(names)} class names for {arr.shape[1]} columns"
            )
        bad = ~np.isfinite(arr)
        if bad.any():
            r, c = np.argwhere(bad)[0]
            raise NonFiniteValue(self.first_row + int(r), int(c))
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "class_names", names)

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]


def softmax_rows(m: ScoreMatrix) -> ScoreMatrix:
    """Row-wise softmax of a logits matrix, stabilized by the row maximum."""
    if m.kind != LOGITS:
        raise KindConflict(f"softmax_rows expects logits, got {m.kind}")
    e = np.exp(m.values - m.values.max(axis=1, keepdims=True))
    e /= e.sum(axis=1, keepdims=True)
    return ScoreMatrix(e, PROBABILITIES, m.class_names, m.first_row)


def rank_rows(values: np.ndarray, k: int) -> np.ndarray:
    """Per row, the indices of the k smallest entries, ascending.

    Equal to ``np.argsort(values, axis=1, kind="stable")[:, :k]`` (ties broken
    by ascending column index) without sorting whole rows: partial selection
    of k candidates, then a stable sort of those alone. Rows where a tie
    straddles the k-th position fall back to the full stable sort.
    """
    n_cols = values.shape[1]
    if not 1 <= k <= n_cols:
        raise KTooLarge(f"k={k} outside [1, {n_cols}]")
    if k == 1:
        # argmin returns the first index among equal minima.
        return values.argmin(axis=1)[:, None]
    cand = np.argpartition(values, k - 1, axis=1)[:, :k]
    cand.sort(axis=1)
    cand_values = np.take_along_axis(values, cand, axis=1)
    top = np.take_along_axis(cand, np.argsort(cand_values, axis=1, kind="stable"), axis=1)
    # The candidates are exactly the entries <= the k-th value unless a tie
    # crosses the boundary, when other equal entries may precede them by index.
    kth = cand_values.max(axis=1, keepdims=True)
    straddle = (values <= kth).sum(axis=1) > k
    if straddle.any():
        top[straddle] = np.argsort(values[straddle], axis=1, kind="stable")[:, :k]
    return top


@dataclass(frozen=True, eq=False)
class RiskRanking:
    """Classes ranked by ascending expected cost, per sample (see ``risk.crm_rerank``).

    ``expected_costs[n, i]`` is the risk of predicting class ``i``, in column
    order. ``top(k)`` ranks only the k lowest risks per row, ties broken by
    ascending class index; ``top(1)[:, 0]`` is the prediction.
    """

    expected_costs: np.ndarray

    def top(self, k: int) -> np.ndarray:
        return rank_rows(self.expected_costs, k)


def top_k(m: ScoreMatrix | RiskRanking, k: int) -> np.ndarray:
    """Per row, the indices of the k best classes: largest probability first,
    or lowest risk first for a RiskRanking.

    Ties are broken by ascending class index, the same rule as a stable sort
    of the whole row, though only the top k are ranked.
    """
    if isinstance(m, RiskRanking):
        return m.top(k)
    if m.kind != PROBABILITIES:
        raise KindConflict(f"top_k expects probabilities, got {m.kind}")
    if k == 1:
        # argmax returns the first index among equal maxima.
        return m.values.argmax(axis=1)[:, None]
    return rank_rows(-m.values, k)


def validate_probabilities(m: ScoreMatrix, tol: float = INTERNAL_TOL) -> None:
    """Check that every row is a probability vector within ``tol``.

    Raises NegativeEntry or RowSumViolation naming the first offending row.
    """
    neg = m.values < -tol
    if neg.any():
        r, c = np.argwhere(neg)[0]
        raise NegativeEntry(m.first_row + int(r), int(c))
    sums = m.values.sum(axis=1)
    off = np.abs(sums - 1.0) > tol
    if off.any():
        r = int(np.argmax(off))
        raise RowSumViolation(m.first_row + r, float(sums[r]))
    # With non-negative entries and unit row sums this can only trip when a
    # large entry is balanced by many slightly negative ones under big n.
    high = m.values > 1.0 + tol
    if high.any():
        r = int(np.argwhere(high)[0][0])
        raise RowSumViolation(m.first_row + r, float(sums[r]))


def as_probabilities(m: ScoreMatrix) -> ScoreMatrix:
    """Softmax a logits matrix; a probability matrix passes through as it is."""
    return softmax_rows(m) if m.kind == LOGITS else m
