"""Exception types shared across the package.

Two branches matter to the command line: ``InputError`` covers anything wrong
with user-supplied files, flags, or structure (exit code 2), while
``DataError`` covers shape and semantic mismatches between otherwise valid
inputs (exit code 3).
"""

from __future__ import annotations


class HievalError(Exception):
    """Base class for all errors raised by this package."""


class InputError(HievalError):
    """Bad input: unparseable files, invalid structure, unusable flags."""


class DataError(HievalError):
    """Valid inputs that do not fit together: shape or semantic mismatch."""


# ---------------------------------------------------------------- taxonomy

class EmptyInput(InputError):
    pass


class CycleDetected(InputError):
    pass


class MultipleRoots(InputError):
    pass


class OrderMismatch(InputError):
    """An explicit leaf or coarse ordering is not a permutation of the set."""


class DepthOutOfRange(DataError):
    pass


class NonLeveledTree(DataError):
    """Leaves sit at differing depths, so depth-indexed maps are undefined."""


# ------------------------------------------------------------ score spaces

class NonFiniteValue(InputError):
    def __init__(self, row: int, col: int):
        super().__init__(f"non-finite value at row {row}, column {col}")
        self.row = row
        self.col = col


class RowSumViolation(InputError):
    def __init__(self, row: int, row_sum: float):
        super().__init__(f"row {row} sums to {row_sum!r}, expected 1")
        self.row = row
        self.row_sum = row_sum


class NegativeEntry(InputError):
    def __init__(self, row: int, col: int):
        super().__init__(f"negative entry at row {row}, column {col}")
        self.row = row
        self.col = col


class KTooLarge(DataError):
    pass


class KindConflict(InputError):
    pass


# --------------------------------------------------------------- ensembles

class DimensionMismatch(DataError):
    pass


class ZeroDenominator(DataError):
    def __init__(self, row: int):
        super().__init__(
            f"row {row}: once negative entries count as 0, no fine-times-coarse "
            "product reaches 1e-300; inputs carry no usable probability mass"
        )
        self.row = row


class InvalidIndex(DataError):
    pass


# ----------------------------------------------------------------- metrics

class LengthMismatch(DataError):
    pass


# --------------------------------------------------------------------- I/O

class ParseError(InputError):
    pass


class ColumnMismatch(InputError):
    pass


class UnknownClass(InputError):
    pass


class MissingClass(InputError):
    pass


class DuplicateClass(InputError):
    pass


class UnknownLeaf(InputError):
    def __init__(self, path: str, name: str, line: int):
        super().__init__(f"{path}:{line}: {name!r} is not a leaf class")
        self.name = name
        self.line = line


# --------------------------------------------------------------------- CLI

class DuplicateMethod(InputError):
    pass
