"""Per-level score matrices: softmax, validation, deterministic top-k ranking."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError, InputError

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


def check_finite(values: np.ndarray, first_row: int, where: str = "") -> None:
    """Raise InputError naming the first NaN or infinity, counting rows from ``first_row``;
    ``where`` (a file's path and ": ") starts the message."""
    finite = np.isfinite(values)
    if not finite.all():
        r, c = np.argwhere(~finite)[0]
        raise InputError(f"{where}non-finite value at row {first_row + int(r)}, column {int(c)}")


@dataclass(frozen=True, eq=False)
class ScoreMatrix:
    """An n_samples x n_classes block of 64-bit scores at one hierarchy level.

    ``kind`` says whether values are raw logits or probabilities;
    ``class_names`` binds columns to taxonomy nodes. ``first_row`` is the row
    of the whole score set where this block starts, so that errors name rows
    of the file. Values are stored C-ordered and read-only: a C-ordered
    float64 array is taken as it is, not copied, and any other is copied
    into one. The constructor checks layout only, that values are 2-d and
    as wide as the names; ``fileio.ScoreReader`` checks values where they
    enter, and the functions that take a matrix do not check it again.
    """

    values: np.ndarray
    kind: str
    class_names: tuple[str, ...]
    first_row: int = 0

    def __post_init__(self):
        # C order: row sums (softmax, combining) then run the same way whatever
        # layout the caller built, e.g. the column-permuted copy alignment makes.
        values = np.ascontiguousarray(self.values, dtype=np.float64)
        names = tuple(self.class_names)
        if values.ndim != 2 or values.shape[1] != len(names):
            raise DataError(f"{len(names)} class names for an array of shape {values.shape}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "class_names", names)

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
    v = m.values
    e = v if _in_place else np.empty_like(v)
    e.setflags(write=True)  # a matrix's buffer is read-only
    np.subtract(v, v.max(axis=1, keepdims=True), out=e)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return ScoreMatrix(e, PROBABILITIES, m.class_names, m.first_row)


def top_k(m: ScoreMatrix, k: int) -> np.ndarray:
    """Per row, the indices of the k largest values, best first, for any kind.

    Probabilities, logits and ``risk.crm_rerank``'s negated expected costs
    all rank this way. Equal to ``np.argsort(-m.values, axis=1,
    kind="stable")[:, :k]`` (ties broken by ascending class index) without
    sorting whole rows: one partial selection puts the (k+1)-th largest value
    at position ``n_cols - k - 1`` and the k largest after it, and a stable
    sort of those k candidates alone orders them. A tie straddles the
    boundary exactly when the (k+1)-th value equals the smallest candidate;
    such rows fall back to the full stable sort. ``k`` must lie in
    ``[1, m.n_classes]``; the commands check it against the leaf count.
    """
    values = m.values
    n, n_cols = values.shape
    if k == 1:
        # argmax returns the first index among equal maxima.
        return values.argmax(axis=1)[:, None]
    part = np.argpartition(values, n_cols - k - 1, axis=1)
    rows = np.arange(n)[:, None]
    cand = np.sort(part[:, n_cols - k:], axis=1)
    cand_values = values[rows, cand]
    straddle = values[rows[:, 0], part[:, n_cols - k - 1]] == cand_values.min(axis=1)
    top = cand[rows, np.argsort(-cand_values, axis=1, kind="stable")]
    if straddle.any():
        top[straddle] = np.argsort(-values[straddle], axis=1, kind="stable")[:, :k]
    return top


def validate_probabilities(m: ScoreMatrix, tol: float, where: str = "") -> None:
    """Check that every row is a probability vector within ``tol``.

    Raises InputError naming the first offending row (and column, for a
    negative entry); ``where`` (a file's path and ": ") starts the message.
    """
    neg = m.values < -tol
    if neg.any():
        r, c = np.argwhere(neg)[0]
        raise InputError(f"{where}negative entry at row {m.first_row + int(r)}, column {int(c)}")
    sums = m.values.sum(axis=1)
    off = np.abs(sums - 1.0) > tol
    if off.any():
        r = int(np.argmax(off))
        raise InputError(f"{where}row {m.first_row + r} sums to {float(sums[r])!r}, expected 1")
    # With non-negative entries and unit row sums this can only trip when a
    # large entry is balanced by many slightly negative ones under big n.
    high = m.values > 1.0 + tol
    if high.any():
        r = int(np.argwhere(high)[0][0])
        raise InputError(f"{where}row {m.first_row + r} sums to {float(sums[r])!r}, expected 1")


def as_probabilities(m: ScoreMatrix, *, _in_place: bool = False) -> ScoreMatrix:
    """As :func:`softmax_rows` (``_in_place`` too) for logits; probabilities pass through."""
    return softmax_rows(m, _in_place=_in_place) if m.kind == LOGITS else m
