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

# Probability tolerance for user-supplied files, which may come from 32-bit exporters.
FILE_TOL = 1e-6

# Row-local work (reading, softmax, combining, risk, ranking) runs over blocks
# of rows holding about this many entries, so its buffers stay small whatever
# the row count; every row is computed on its own, so results do not depend
# on where blocks start.
BLOCK_ENTRIES = 1 << 16


def block_rows(n_cols: int) -> int:
    """Rows per block of a matrix ``n_cols`` wide: about BLOCK_ENTRIES entries, at least one."""
    return max(1, BLOCK_ENTRIES // n_cols)


def check_finite(values: np.ndarray, first_row: int) -> None:
    """Raise NonFiniteValue naming the first NaN or infinity, counting rows from ``first_row``."""
    finite = np.isfinite(values)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise NonFiniteValue(first_row + int(r), int(c))


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """An n_samples x n_classes block of 64-bit scores at one hierarchy level.

    ``kind`` says whether values are raw logits or probabilities;
    ``class_names`` binds columns to taxonomy nodes. Values are stored
    read-only, C-contiguous and finite. ``first_row`` is the row of the whole
    score set where this block starts, so that errors name rows of the file.
    The constructor copies and checks the caller's array; ``_adopt`` takes an
    array the package has just allocated as it is, checking its layout only,
    since ``fileio.ScoreReader`` checks values where they enter.
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
        check_finite(arr, self.first_row)
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "class_names", names)

    @classmethod
    def _adopt(cls, values: np.ndarray, kind: str, class_names: tuple, first_row: int = 0):
        """Wrap ``values`` without a copy; it becomes read-only. See the class docstring."""
        if not (values.ndim == 2 and values.dtype == np.float64 and values.flags.c_contiguous
                and values.shape[1] == len(class_names)):
            raise ValueError(f"cannot adopt a {values.dtype} array of shape {values.shape}")
        values.setflags(write=False)
        m = object.__new__(cls)
        m.__dict__.update(values=values, kind=kind, class_names=class_names, first_row=first_row)
        return m

    @property
    def n_samples(self) -> int:
        return self.values.shape[0]

    @property
    def n_classes(self) -> int:
        return self.values.shape[1]


def softmax_rows(m: ScoreMatrix, *, _in_place: bool = False) -> ScoreMatrix:
    """Row-wise softmax of a logits matrix, stabilized by the row maximum; a new matrix.

    ``_in_place`` overwrites ``m``'s buffer instead, for a block no caller can see.
    """
    if m.kind != LOGITS:
        raise KindConflict(f"softmax_rows expects logits, got {m.kind}")
    v = m.values
    e = v if _in_place else np.empty_like(v)
    e.setflags(write=True)  # an adopted buffer is read-only
    np.subtract(v, v.max(axis=1, keepdims=True), out=e)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return ScoreMatrix._adopt(e, PROBABILITIES, m.class_names, m.first_row)


def top_k(m: ScoreMatrix, k: int) -> np.ndarray:
    """Per row, the indices of the k largest values, best first, for any kind.

    Probabilities, logits and ``risk.crm_rerank``'s negated expected costs
    all rank this way. Equal to ``np.argsort(-m.values, axis=1,
    kind="stable")[:, :k]`` (ties broken by ascending class index) without
    sorting whole rows: one partial selection puts the (k+1)-th largest value
    at position ``n_cols - k - 1`` and the k largest after it, and a stable
    sort of those k candidates alone orders them. A tie straddles the
    boundary exactly when the (k+1)-th value equals the smallest candidate;
    such rows fall back to the full stable sort.
    """
    values = m.values
    n, n_cols = values.shape
    if not 1 <= k <= n_cols:
        raise KTooLarge(f"k={k} outside [1, {n_cols}]")
    if k == 1:
        # argmax returns the first index among equal maxima.
        return values.argmax(axis=1)[:, None]
    if k == n_cols:
        return np.argsort(-values, axis=1, kind="stable")
    part = np.argpartition(values, n_cols - k - 1, axis=1)
    rows = np.arange(n)[:, None]
    cand = np.sort(part[:, n_cols - k:], axis=1)
    cand_values = values[rows, cand]
    straddle = values[rows[:, 0], part[:, n_cols - k - 1]] == cand_values.min(axis=1)
    top = cand[rows, np.argsort(-cand_values, axis=1, kind="stable")]
    if straddle.any():
        top[straddle] = np.argsort(-values[straddle], axis=1, kind="stable")[:, :k]
    return top


def validate_probabilities(m: ScoreMatrix, tol: float) -> None:
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


def as_probabilities(m: ScoreMatrix, *, _in_place: bool = False) -> ScoreMatrix:
    """As :func:`softmax_rows` (``_in_place`` too) for logits; probabilities pass through."""
    return softmax_rows(m, _in_place=_in_place) if m.kind == LOGITS else m
