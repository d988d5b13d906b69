"""The package's two exception types, one per exit code of the command line.

``InputError`` covers anything wrong with user-supplied files, flags, or
structure (exit code 2), while ``DataError`` covers shape and semantic
mismatches between otherwise valid inputs (exit code 3). Each message names
its problem, and the file, row and column where they are known.
"""

from __future__ import annotations


class InputError(Exception):
    """Bad input: unparseable files, invalid structure, unusable flags."""


class DataError(Exception):
    """Valid inputs that do not fit together: shape or semantic mismatch."""
