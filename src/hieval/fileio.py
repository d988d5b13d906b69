"""File formats: hierarchies, score matrices, label lists, reports.

Hierarchies and reports are JSON. Score matrices come in two interchangeable
forms: a delimited text format for human-scale fixtures, and a binary format
for bulk data that round-trips values bit for bit:

    magic "HIES" | version u8 = 1 | kind u8 (0 = logits, 1 = probabilities)
    | rows u32 LE | cols u32 LE | row-major float64 LE values

Binary files carry their class names in a JSON sidecar at ``<path>.names.json``.
Score columns are always bound to taxonomy levels by class name, never by
position, so a misordered file is a detectable error instead of silent
corruption. A :class:`ScoreReader` checks a file's header once and then reads
any range of rows in the file's column order; :func:`column_order` binds the
columns to a level by name once, at open, for one ``np.take`` a block.
``save_scores`` writes row blocks as they come, so callers can stream score
sets of any length. Every write goes to a temp file, renamed into place when
its :func:`renamed_together` block ends, together with the other files of that
block; a writer given no block opens one of its own.
"""

from __future__ import annotations

import codecs
import contextlib
import json
import math
import os
import struct
from operator import itemgetter
from typing import Sequence

import numpy as np

from . import taxonomy as tx
from .cli import real
from .errors import (
    ColumnMismatch,
    DuplicateClass,
    EmptyInput,
    InputError,
    KindConflict,
    MissingClass,
    MultipleRoots,
    NegativeEntry,
    NonFiniteValue,
    ParseError,
    RowSumViolation,
    UnknownClass,
    UnknownLeaf,
)
from .hashing import sha256_digest  # noqa: F401  (the benchmark tracer's target for hashing)
from .metrics import EvalReport
from .scores import (FILE_TOL, LOGITS, PROBABILITIES, ScoreMatrix, check_finite,
                     validate_probabilities)

BINARY_MAGIC = b"HIES"
BINARY_VERSION = 1
_KIND_BYTE = {LOGITS: 0, PROBABILITIES: 1}
_BYTE_KIND = {0: LOGITS, 1: PROBABILITIES}
_HEADER = struct.Struct("<4sBBII")


@contextlib.contextmanager
def renamed_together():
    """A list to pass as ``staged`` to writers: their files replace their paths
    only once the block exits normally, in the order the files were opened.

    On an exception in the block no path is touched and no temp file is left.
    If a rename fails, the files this block already renamed are removed too,
    so no new file is left.
    """
    staged: list[tuple[str, str]] = []  # (temp, path) pairs awaiting their renames
    renamed: list[str] = []
    try:
        yield staged
        for tmp, path in staged:
            try:
                os.replace(tmp, path)
            except OSError as e:
                raise _cannot_write(path, e) from e
            renamed.append(path)
    except BaseException:
        for path in renamed + [tmp for tmp, _ in staged]:  # a renamed temp is gone already
            with contextlib.suppress(OSError):
                os.remove(path)
        raise


def _staging(staged: list | None):
    """``staged`` itself, or, where it is None, a ``renamed_together`` block of its own."""
    return renamed_together() if staged is None else contextlib.nullcontext(staged)


@contextlib.contextmanager
def _atomic_file(path: str, staged: list | None = None):
    """A new binary file that replaces ``path`` when ``renamed_together``'s
    block for ``staged`` ends, or, without ``staged``, when this block does.

    An OSError becomes InputError naming ``path``.
    """
    # A unique temp name beside the target keeps concurrent writers apart and
    # the final rename on one file system.
    tmp = f"{path}.{os.getpid()}-{os.urandom(4).hex()}.tmp"
    with _staging(staged) as staged:
        try:
            with open(tmp, "xb") as f:
                staged.append((tmp, path))
                yield f
        except OSError as e:
            raise _cannot_write(path, e) from e


def _cannot_write(path: str, e: OSError) -> InputError:
    return InputError(f"cannot write {path}: {e.strerror or e}")


def _write_at(fd: int, data: np.ndarray, offset: int) -> None:
    """All of ``data`` at byte ``offset``; ``os.pwrite`` leaves the file's offset alone."""
    view = memoryview(data).cast("B")
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e


def write_json(doc: dict, path: str, staged: list | None = None) -> None:
    with _atomic_file(path, staged) as f:
        f.write((json.dumps(doc, indent=2) + "\n").encode("utf-8"))


# ------------------------------------------------------------- hierarchies

def load_hierarchy(path: str) -> tx.Taxonomy:
    """Parse a hierarchy JSON file and build the validated taxonomy.

    The file lists every node with its parent name (null for the root) and
    may pin explicit leaf and coarse column orders.
    """
    raw = _read_bytes(path)
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        line = getattr(e, "lineno", "?")
        col = getattr(e, "colno", "?")
        raise ParseError(f"{path}:{line}:{col}: {getattr(e, 'msg', e)}") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise ParseError(f"{path}: expected an object with a 'nodes' list")
    nodes = doc["nodes"]

    # Checked in bulk; JSON values have exact types, so the type sets say what
    # isinstance would. On any fault the node walk names the first faulty node.
    try:
        parents = {node["name"]: node["parent"] for node in nodes}
    except (KeyError, TypeError):
        parents = {}
    if (
        len(parents) != len(nodes)
        or "" in parents
        or not {*map(type, parents)} <= {str}
        or "" in parents.values()
        or not {*map(type, parents.values())} <= {str, type(None)}
    ):
        _raise_node_fault(path, nodes)

    edges = [*filter(itemgetter(1), parents.items())]  # all but the null-parent nodes
    if len(edges) < len(parents) - 1:
        roots = sorted(n for n, p in parents.items() if p is None)
        raise MultipleRoots(
            f"{path}: multiple null-parent nodes: " + ", ".join(repr(r) for r in roots)
        )
    undeclared = sorted({*parents.values()}.difference(parents, [None]))
    if undeclared:
        raise ParseError(
            f"{path}: parent names never declared as nodes: "
            + ", ".join(repr(u) for u in undeclared)
        )
    for key in ("leaf_order", "coarse_order"):
        if key in doc and not (isinstance(doc[key], list) and {*map(type, doc[key])} <= {str}):
            raise ParseError(f"{path}: {key} must be a list of names")
    return tx.build_taxonomy(
        edges,
        leaf_order=doc.get("leaf_order"),
        coarse_order=doc.get("coarse_order"),
    )


def _raise_node_fault(path: str, nodes: list) -> None:
    names: set[str] = set()
    for i, node in enumerate(nodes):
        if not isinstance(node, dict) or "name" not in node or "parent" not in node:
            raise ParseError(f"{path}: nodes[{i}] must have 'name' and 'parent'")
        name, parent = node["name"], node["parent"]
        if not isinstance(name, str) or not name:
            raise ParseError(f"{path}: nodes[{i}] has an invalid name {name!r}")
        if name in names:
            raise ParseError(f"{path}: duplicate node name {name!r}")
        if parent is not None and (not isinstance(parent, str) or not parent):
            raise ParseError(f"{path}: nodes[{i}] has an invalid parent {parent!r}")
        names.add(name)


def save_hierarchy(t: tx.Taxonomy, path: str, staged: list | None = None) -> None:
    """Write a taxonomy as hierarchy JSON, orders pinned explicitly."""
    # Node ids follow name order, so the nodes are listed sorted by name.
    nodes = [
        {"name": name, "parent": None if p is None else t.names[p]}
        for name, p in zip(t.names, t.parent)
    ]
    doc = {
        "nodes": nodes,
        "leaf_order": list(t.leaf_names()),
        "coarse_order": list(t.coarse_names()),
    }
    write_json(doc, path, staged)


# ------------------------------------------------------------ score files

def _names_sidecar(path: str) -> str:
    return path + ".names.json"


class ScoreReader:
    """An open score file whose header, kind and class names have been checked.

    Opening reads no payload (a text file is scanned once for its line count
    and its UTF-8). :meth:`read` then reads any range of rows into a fresh
    array, which the matrix it returns adopts. ``declared_kind`` cross-checks
    the file's own kind marker (KindConflict on disagreement) and supplies it
    for plain text files without one. Close the reader, or use it as a context
    manager.
    """

    def __init__(self, path: str, declared_kind: str | None = None):
        self.path = path
        try:
            self._file = open(path, "rb")
        except OSError as e:
            raise ParseError(f"cannot read {path}: {e}") from e
        try:
            if self._file.read(4) == BINARY_MAGIC:
                self._open_binary(declared_kind)
            else:
                self._open_text(declared_kind)
        except BaseException as e:
            self._file.close()
            if isinstance(e, OSError):
                raise ParseError(f"cannot read {path}: {e}") from e
            raise

    def close(self) -> None:
        self._file.close()

    def reopen(self) -> None:
        """Re-open the checked file by path, as a forked worker must: a fork
        shares each open file's offset. A text file rewinds on its next read."""
        try:
            f = open(self.path, "rb")
        except OSError as e:
            raise ParseError(f"cannot read {self.path}: {e}") from e
        same = os.path.samestat(os.fstat(f.fileno()), os.fstat(self._file.fileno()))
        self._file.close()  # this process's descriptor only; the offset is left alone
        self._file, self._next_row = f, self.n_rows
        if not same:
            raise InputError(f"{self.path} was replaced after it was checked")

    def __enter__(self) -> "ScoreReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _open_binary(self, declared_kind) -> None:
        path, f = self.path, self._file
        f.seek(0)
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ParseError(f"{path}: truncated binary header")
        _, version, kind_byte, rows, cols = _HEADER.unpack(head)
        if version != BINARY_VERSION:
            raise ParseError(f"{path}: unsupported format version {version}")
        if kind_byte not in _BYTE_KIND:
            raise ParseError(f"{path}: unknown kind byte {kind_byte}")
        kind = _BYTE_KIND[kind_byte]
        if declared_kind is not None and declared_kind != kind:
            raise KindConflict(f"{path}: file says {kind}, caller declared {declared_kind}")
        size = os.fstat(f.fileno()).st_size
        expected_len = _HEADER.size + rows * cols * 8
        if size != expected_len:
            raise ParseError(f"{path}: payload is {size} bytes, expected {expected_len}")
        sidecar = _names_sidecar(path)
        if not os.path.exists(sidecar):
            raise ParseError(f"{path}: class-name sidecar {sidecar} not found")
        try:
            class_names = json.loads(_read_bytes(sidecar).decode("utf-8"))["class_names"]
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as e:
            raise ParseError(f"{sidecar}: invalid names sidecar: {e}") from e
        if not isinstance(class_names, list) or len(class_names) != cols:
            count = len(class_names) if isinstance(class_names, list) else "no list of"
            raise ColumnMismatch(f"{sidecar}: {count} class names for {cols} columns")
        if not {*map(type, class_names)} <= {str} or "" in class_names:
            bad = next(c for c in class_names if type(c) is not str or not c)
            raise ParseError(f"{sidecar}: invalid names sidecar: class name {bad!r}")
        if rows < 1 or cols < 1:
            raise EmptyInput(f"score matrix has shape {(rows, cols)}")
        self.kind, self.class_names, self.n_rows = kind, tuple(class_names), rows
        self._read_rows = self._read_binary

    def _read_binary(self, start: int, stop: int) -> np.ndarray:
        values = np.empty((stop - start, len(self.class_names)), dtype="<f8")
        self._file.seek(_HEADER.size + start * values.shape[1] * 8)
        if self._file.readinto(values) != values.nbytes:
            raise ParseError(f"{self.path}: payload ended before row {stop}")
        check_finite(values, start)
        return values.astype(np.float64, copy=False)

    def _open_text(self, declared_kind) -> None:
        path, f = self.path, self._file
        f.seek(0)
        decoder = codecs.getincrementaldecoder("utf-8")()
        newlines, last = 0, b""
        try:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                decoder.decode(chunk)
                newlines += chunk.count(b"\n")
                last = chunk[-1:]
            decoder.decode(b"", final=True)
        except UnicodeDecodeError as e:
            # Decoding the whole file gives the offending byte's position in the file.
            try:
                _read_bytes(path).decode("utf-8")
            except UnicodeDecodeError as whole:
                e = whole
            raise ParseError(f"{path}: not valid UTF-8: {e}") from e
        # As str.split("\n") with a trailing empty piece dropped.
        n_lines = newlines + (last not in (b"", b"\n"))
        f.seek(0)
        file_kind = None
        body_start = n_lines
        for i in range(n_lines):
            line = self._next_line()
            if not line.startswith("#"):
                body_start = i
                break
            stripped = line[1:].strip()
            if stripped.startswith("kind:"):
                file_kind = stripped.split(":", 1)[1].strip()
                if file_kind not in (LOGITS, PROBABILITIES):
                    raise ParseError(f"{path}:{i + 1}: unknown kind {file_kind!r}")
        if declared_kind is not None and file_kind is not None and declared_kind != file_kind:
            raise KindConflict(f"{path}: file says {file_kind}, caller declared {declared_kind}")
        if n_lines - body_start < 2:
            raise EmptyInput(f"{path}: need a header row and at least one data row")
        class_names = [c.strip() for c in line.split(",")]
        if any(not c for c in class_names):
            raise ParseError(f"{path}:{body_start + 1}: empty class name in header")
        self.kind = declared_kind or file_kind or PROBABILITIES
        self.class_names, self.n_rows = tuple(class_names), n_lines - body_start - 1
        self._body_start, self._data_offset, self._next_row = body_start, f.tell(), 0
        self._read_rows = self._read_text

    def _next_line(self) -> str:
        return self._file.readline().decode("utf-8").removesuffix("\n")

    def _read_text(self, start: int, stop: int) -> np.ndarray:
        if start < self._next_row:
            self._file.seek(self._data_offset)
            self._next_row = 0
        for _ in range(self._next_row, start):
            self._file.readline()
        self._next_row = self.n_rows  # unknown until this block is read; the next read rewinds
        n_cols = len(self.class_names)
        values = np.empty((stop - start, n_cols), dtype=np.float64)
        for r in range(start, stop):
            fields = self._next_line().split(",")
            if len(fields) != n_cols:
                raise ColumnMismatch(f"{self._where(r)}: {len(fields)} fields, header has {n_cols}")
            try:
                row = [*map(real, fields)]
            except ValueError:
                row = None
            if row is None or not all(map(math.isfinite, row)):
                self._raise_token_fault(r, fields)
            values[r - start] = row
        self._next_row = stop
        return values

    def _where(self, row: int) -> str:
        return f"{self.path}:{self._body_start + row + 2}"

    def _raise_token_fault(self, row: int, fields: list[str]) -> None:
        """The row's first bad token: ParseError if it is no number, else NonFiniteValue."""
        for c, token in enumerate(fields):
            try:
                v = real(token)
            except ValueError:
                raise ParseError(f"{self._where(row)}: not a number: {token.strip()!r}") from None
            if not math.isfinite(v):
                raise NonFiniteValue(row, c)

    def read(self, start: int, stop: int) -> ScoreMatrix:
        """Rows ``[start, stop)``: finite values, and probability rows validated within FILE_TOL.

        Errors name rows and columns of the file. Values are checked here, once.
        """
        if not 0 <= start < stop <= self.n_rows:
            raise ValueError(f"rows [{start}, {stop}) outside [0, {self.n_rows})")
        try:
            m = ScoreMatrix._adopt(self._read_rows(start, stop), self.kind, self.class_names, start)
            if m.kind == PROBABILITIES:
                validate_probabilities(m, FILE_TOL)
        except OSError as e:
            raise ParseError(f"cannot read {self.path}: {e}") from e
        except (NonFiniteValue, NegativeEntry, RowSumViolation) as e:
            e.args = (f"{self.path}: {e}",)  # type and row/column attributes stay
            raise
        return m


def save_scores(m, path: str, staged: list | None = None) -> None:
    """Write a score matrix; '.hies' paths get the binary format, others text.

    ``m`` is a ScoreMatrix, an iterable of one matrix's row blocks in order,
    or a function that passes its blocks to the ``write`` it is given, in
    order, except that '.hies' blocks go to their own rows (``first_row``), so
    processes it forks after its first block may write theirs. A '.hies'
    file and its '.names.json' sidecar are renamed together: when ``staged``'s
    block ends, or, without ``staged``, when this call does.
    """
    binary, first = path.endswith(".hies"), None
    with _staging(staged) as staged, _atomic_file(path, staged) as f:
        def write(block):
            nonlocal first
            try:
                if first is None:
                    first = block
                    if binary:  # the row count is filled in after the last block
                        f.write(_HEADER.pack(BINARY_MAGIC, BINARY_VERSION, 0, 0, block.n_classes))
                    else:
                        header = f"# kind: {block.kind}\n{','.join(block.class_names)}\n"
                        f.write(header.encode("utf-8"))
                values = np.ascontiguousarray(block.values, dtype="<f8")
                if not binary:
                    f.write("".join(",".join(repr(float(v)) for v in row) + "\n"
                                    for row in block.values).encode("utf-8"))
                elif callable(m):
                    _write_at(f.fileno(), values, _HEADER.size + block.first_row * values[0].nbytes)
                else:
                    f.write(values)
            except OSError as e:  # named here, not by an output whose block encloses m(write)
                raise _cannot_write(path, e) from e

        if callable(m):
            m(write)
        else:
            for block in [m] if isinstance(m, ScoreMatrix) else m:
                write(block)
        if first is None:
            raise EmptyInput(f"{path}: no rows to write")
        if binary:
            rows = (f.seek(0, os.SEEK_END) - _HEADER.size) // (8 * first.n_classes)
            f.seek(0)
            f.write(_HEADER.pack(
                BINARY_MAGIC, BINARY_VERSION, _KIND_BYTE[first.kind], rows, first.n_classes
            ))
            write_json({"class_names": list(first.class_names)}, _names_sidecar(path), staged)


def column_order(names: Sequence[str], t: tx.Taxonomy, level) -> tuple[np.ndarray | None, tuple]:
    """How columns named ``names`` bind to ``level``'s classes: ``(perm, canonical names)``.

    ``level`` is "leaf", "coarse", or an integer depth. ``np.take(values, perm,
    axis=1)`` puts a block's columns into the canonical order; ``perm`` is None
    when they are in it already. Raises DuplicateClass, UnknownClass or
    MissingClass, so a file's columns are bound once, before any row is read.
    """
    if level == "leaf":
        canonical = t.leaf_names()
    elif level == "coarse":
        canonical = t.coarse_names()
    elif isinstance(level, int):
        canonical = tuple(t.names[i] for i in tx.level_order(t, level))
    else:
        raise ParseError(f"unknown level selector {level!r}")
    got = tuple(names)
    if got == canonical:
        return None, canonical
    seen: set[str] = set()
    for name in got:
        if name in seen:
            raise DuplicateClass(f"duplicate column {name!r}")
        seen.add(name)
    canonical_set = set(canonical)
    for name in got:
        if name not in canonical_set:
            raise UnknownClass(f"column {name!r} is not a class at this level")
    for name in canonical:
        if name not in seen:
            raise MissingClass(f"class {name!r} has no column")
    col = {name: i for i, name in enumerate(got)}
    return np.array([col[name] for name in canonical], dtype=np.intp), canonical


# ------------------------------------------------------------ label files

def load_labels(path: str, t: tx.Taxonomy) -> np.ndarray:
    """Read one leaf name per line into leaf_order indices."""
    try:
        text = _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not valid UTF-8: {e}") from e
    if "\r\n" in text:
        raise ParseError(f"{path}: CRLF line endings; labels must be LF-terminated")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise EmptyInput(f"{path}: no labels")
    pos = {t.names[leaf]: i for i, leaf in enumerate(t.leaf_order)}
    out = np.empty(len(lines), dtype=np.int64)
    for i, name in enumerate(lines):
        if name not in pos:
            raise UnknownLeaf(path, name, i + 1)
        out[i] = pos[name]
    return out


@contextlib.contextmanager
def write_labels(t: tx.Taxonomy, path: str, staged: list | None = None):
    """A file of leaf names, one per line (labels or predictions), written block by block.

    Yields ``write(indices)``, which appends the leaf_order indices of the
    next block of rows as it comes. The file replaces ``path`` when the
    ``with`` block exits normally; on an exception, no file is left behind.
    """
    lines = [name + "\n" for name in t.leaf_names()]
    with _atomic_file(path, staged) as f:
        def write(indices):
            f.write("".join(lines[i] for i in np.asarray(indices).tolist()).encode("utf-8"))

        yield write


# ---------------------------------------------------------------- reports

def report_to_dict(r: EvalReport) -> dict:
    return {
        "method": r.method,
        "top1_accuracy": r.top1_accuracy,
        "avg_mistake_severity": r.avg_mistake_severity,
        "hier_dist_at_k": {str(k): v for k, v in sorted(r.hier_dist_at_k.items())},
        "n_samples": r.n_samples,
        "n_mistakes": r.n_mistakes,
        "config": r.config,
    }


def write_report(r: EvalReport, path: str) -> None:
    write_json(report_to_dict(r), path)


def write_report_list(reports: Sequence[EvalReport], path: str) -> None:
    write_json({"reports": [report_to_dict(r) for r in reports]}, path)
