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
any range of rows in the file's column order, by position in either format (a
text file's line starts are found at open); :func:`column_order` binds the
columns to a level by name once, at open, for one ``np.take`` a block.
``save_scores`` and ``write_labels`` stream: ``fill(write)`` passes ``write`` one
block of rows at a time, and a '.hies' block goes to its own rows by position.
Every write goes to a temp file, renamed into place when its
:func:`renamed_together` block ends, together with the other files of that
block; a writer given no block opens one of its own.
"""

from __future__ import annotations

import codecs
import contextlib
import errno
import json
import math
import os
import stat
import struct
from operator import itemgetter
from typing import Sequence

import numpy as np

from . import hashing
from . import taxonomy as tx
from .cli import real
from .errors import InputError
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
    If a rename fails, the files this block renamed are removed and the files
    they replaced (kept under hard links until the block ends) are put back.
    """
    staged: list[tuple[str, str]] = []  # (temp, path) pairs awaiting their renames
    renamed: list[tuple[str, str | None]] = []  # (path, link to the file it replaced, or None)
    try:
        yield staged
        for tmp, path in staged:
            kept = None  # a link, so that a reader sees the old file or the new one, never neither
            with contextlib.suppress(OSError):  # no file there (one failed call), or a directory
                os.link(path, f"{tmp}.old", follow_symlinks=False)
                kept = f"{tmp}.old"
            try:
                os.replace(tmp, path)
            except OSError as e:
                raise _cannot_write(path, e) from e
            renamed.append((path, kept))
    except BaseException:
        for path, kept in reversed(renamed):
            with contextlib.suppress(OSError):
                if kept:
                    os.replace(kept, path)
                else:
                    os.remove(path)
        for tmp, _ in staged:  # a renamed temp is gone already, and so is a link put back
            for name in (tmp, f"{tmp}.old"):
                with contextlib.suppress(OSError):
                    os.remove(name)
        raise
    for _, kept in filter(itemgetter(1), renamed):
        with contextlib.suppress(OSError):
            os.remove(kept)


def _staging(staged: list | None):
    """``staged`` itself, or, where it is None, a ``renamed_together`` block of its own."""
    return renamed_together() if staged is None else contextlib.nullcontext(staged)


def check_outputs(args, outputs: dict[str, str]) -> None:
    """Refuse, before any row is read, an output that writing cannot or would wrongly replace.

    ``outputs`` maps each path a command writes to how the command line gives
    it. An existing one must not be a directory, which no rename replaces (a
    link to a directory is replaced), and must otherwise be a regular file: a
    FIFO, a device, or a link to one would be replaced by a file. Nor may it
    be, by ``(st_dev, st_ino)``, an input of ``args`` or a score input's
    class-name sidecar, whatever the spelling of either path.
    """
    inputs = {}  # (st_dev, st_ino) of each input there is, and how it is given
    for path, role in hashing.given_roles(args).items():
        given = hashing.flag(role, path)
        named = {path: given}
        if role not in ("hierarchy", "labels", "preds"):
            named[_names_sidecar(path)] = f"{given}'s class-name sidecar"
        for p, name in named.items():
            with contextlib.suppress(OSError):
                st = os.stat(p)
                inputs.setdefault((st.st_dev, st.st_ino), name)
    for path, name in outputs.items():
        try:
            st, own = os.stat(path), os.lstat(path)
        except OSError:  # nothing there yet, or a fault the write names
            continue
        if stat.S_ISDIR(own.st_mode):
            raise InputError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
        if stat.S_IFMT(st.st_mode) not in (stat.S_IFREG, stat.S_IFDIR):
            raise InputError(f"cannot write {path}: not a regular file, which writing replaces")
        if (st.st_dev, st.st_ino) in inputs:
            raise InputError(f"{name} would overwrite the input {inputs[st.st_dev, st.st_ino]}")


@contextlib.contextmanager
def _atomic_file(path: str, staged: list | None = None):
    """A new binary file that replaces ``path`` when ``renamed_together``'s
    block for ``staged`` ends, or, without ``staged``, when this block does.

    An OSError becomes InputError naming ``path``. Commands first refuse what
    the rename must not replace (:func:`check_outputs`).
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


def _write_at(fd: int, data, offset: int) -> None:
    """All of ``data`` (any buffer) at byte ``offset``; ``os.pwrite`` moves no file offset."""
    view = memoryview(data).cast("B")
    while view:
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e


def write_json(doc: dict, path: str, staged: list | None = None) -> None:
    with _atomic_file(path, staged) as f:
        f.write((json.dumps(doc, indent=2) + "\n").encode("utf-8"))


# ------------------------------------------------------------- hierarchies

def load_hierarchy(path: str) -> tx.Taxonomy:
    """Parse a hierarchy JSON file and build the validated taxonomy.

    The file lists every node with its parent name (null for the root) and
    may pin explicit leaf and coarse column orders. Every fault names the file.
    """
    parents, leaf_order, coarse_order = _read_hierarchy(path)
    try:
        return tx.build_taxonomy(parents, leaf_order, coarse_order)
    except InputError as e:
        raise InputError(f"{path}: {e}") from e


def _read_hierarchy(path: str):
    """The file's ``(parents, leaf_order, coarse_order)``, each checked as JSON only:
    the tree is for ``taxonomy.build_taxonomy`` to check."""
    raw = _read_bytes(path)
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        line = getattr(e, "lineno", "?")
        col = getattr(e, "colno", "?")
        raise InputError(f"{path}:{line}:{col}: {getattr(e, 'msg', e)}") from e
    if not isinstance(doc, dict) or not isinstance(doc.get("nodes"), list):
        raise InputError(f"{path}: expected an object with a 'nodes' list")
    nodes = doc["nodes"]

    # Checked in bulk; JSON values have exact types, so the type sets say what
    # isinstance would. On any fault the node walk names the first faulty node.
    try:
        parents = {node["name"]: node["parent"] for node in nodes}
        "".join(parents).encode("utf-8")  # JSON allows a lone surrogate; no UTF-8 file holds one
    except (KeyError, TypeError, UnicodeEncodeError):
        parents = {}
    if (
        len(parents) != len(nodes)
        or "" in parents
        or not {*map(type, parents)} <= {str}
        or "" in parents.values()
        or not {*map(type, parents.values())} <= {str, type(None)}
    ):
        _raise_node_fault(path, nodes)
    for key in ("leaf_order", "coarse_order"):
        if key in doc and not (isinstance(doc[key], list) and {*map(type, doc[key])} <= {str}):
            raise InputError(f"{path}: {key} must be a list of names")
    return parents, doc.get("leaf_order"), doc.get("coarse_order")


def _raise_node_fault(path: str, nodes: list) -> None:
    names: set[str] = set()
    for i, node in enumerate(nodes):
        if not isinstance(node, dict) or "name" not in node or "parent" not in node:
            raise InputError(f"{path}: nodes[{i}] must have 'name' and 'parent'")
        name, parent = node["name"], node["parent"]
        if not isinstance(name, str) or not name or _lone_surrogate(name):
            raise InputError(f"{path}: nodes[{i}] has an invalid name {name!r}")
        if name in names:
            raise InputError(f"{path}: duplicate node name {name!r}")
        if parent is not None and (not isinstance(parent, str) or not parent):
            raise InputError(f"{path}: nodes[{i}] has an invalid parent {parent!r}")
        names.add(name)


def _lone_surrogate(name: str) -> bool:
    """Whether ``name`` holds a lone UTF-16 surrogate, which JSON allows and no UTF-8 file holds."""
    return any("\ud800" <= c <= "\udfff" for c in name)


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

    Opening reads no payload: a text file is scanned once for where each line
    starts (8 B a line), and only its comment and header lines are decoded.
    :meth:`read` then reads any range of rows into a fresh array, which the
    matrix it returns takes, decoding only the text rows it returns; it reads
    by position and moves no cursor, so a forked process reads through the
    reader it inherits. ``declared_kind`` cross-checks the file's own kind
    marker (InputError on disagreement) and supplies it for plain text files
    without one. Close the reader, or use it as a context manager.
    """

    def __init__(self, path: str, declared_kind: str | None = None):
        self.path = path
        try:
            self._file = open(path, "rb")
        except OSError as e:
            raise InputError(f"cannot read {path}: {e}") from e
        try:
            if self._file.read(4) == BINARY_MAGIC:
                self._open_binary(declared_kind)
            else:
                self._open_text(declared_kind)
        except BaseException as e:
            self._file.close()
            if isinstance(e, OSError):
                raise InputError(f"cannot read {path}: {e}") from e
            raise

    def close(self) -> None:
        self._file.close()

    def __enter__(self) -> "ScoreReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def _open_binary(self, declared_kind) -> None:
        path, f = self.path, self._file
        f.seek(0)
        head = f.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise InputError(f"{path}: truncated binary header")
        _, version, kind_byte, rows, cols = _HEADER.unpack(head)
        if version != BINARY_VERSION:
            raise InputError(f"{path}: unsupported format version {version}")
        if kind_byte not in _BYTE_KIND:
            raise InputError(f"{path}: unknown kind byte {kind_byte}")
        kind = _BYTE_KIND[kind_byte]
        if declared_kind is not None and declared_kind != kind:
            raise InputError(f"{path}: file says {kind}, caller declared {declared_kind}")
        size = os.fstat(f.fileno()).st_size
        expected_len = _HEADER.size + rows * cols * 8
        if size != expected_len:
            raise InputError(f"{path}: payload is {size} bytes, expected {expected_len}")
        sidecar = _names_sidecar(path)
        if not os.path.exists(sidecar):
            raise InputError(f"{path}: class-name sidecar {sidecar} not found")
        try:
            class_names = json.loads(_read_bytes(sidecar).decode("utf-8"))["class_names"]
        except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as e:
            raise InputError(f"{sidecar}: invalid names sidecar: {e}") from e
        if not isinstance(class_names, list) or len(class_names) != cols:
            count = len(class_names) if isinstance(class_names, list) else "no list of"
            raise InputError(f"{sidecar}: {count} class names for {cols} columns")
        if not {*map(type, class_names)} <= {str} or "" in class_names:
            bad = next(c for c in class_names if type(c) is not str or not c)
            raise InputError(f"{sidecar}: invalid names sidecar: class name {bad!r}")
        if rows < 1 or cols < 1:
            raise InputError(f"{path}: score matrix has shape {(rows, cols)}")
        self.kind, self.class_names, self.n_rows = kind, tuple(class_names), rows
        self._read_rows = self._read_binary

    def _read_binary(self, start: int, stop: int) -> np.ndarray:
        values = np.empty((stop - start, len(self.class_names)), dtype="<f8")
        row_bytes = values[0].nbytes
        got = os.preadv(self._file.fileno(), [values], _HEADER.size + start * row_bytes)
        if got != values.nbytes:  # named by the first row the file no longer holds
            raise InputError(f"{self.path}: payload ended before row {start + got // row_bytes}")
        check_finite(values, start, f"{self.path}: ")
        return values

    def _open_text(self, declared_kind) -> None:
        path, f = self.path, self._file
        f.seek(0)
        size = 3 if f.read(3) == codecs.BOM_UTF8 else 0  # a byte-order mark is no part of line 1
        f.seek(size)
        # Where each line starts, one int64 a line, then where the last one ends.
        bounds, last = [[size]], b""
        for chunk in iter(lambda: f.read(1 << 20), b""):
            bounds.append(np.flatnonzero(np.frombuffer(chunk, np.uint8) == ord("\n")) + (size + 1))
            size, last = size + len(chunk), chunk[-1:]
        if last not in (b"", b"\n"):  # a last line that no "\n" ends
            bounds.append([size])
        self._bounds = np.concatenate(bounds)
        n_lines = len(self._bounds) - 1
        file_kind, body_start = None, n_lines
        for i in range(n_lines):
            [line] = self._lines(i, i + 1)
            if not line.startswith("#"):
                body_start = i
                break
            stripped = line[1:].strip()
            if stripped.startswith("kind:"):
                file_kind = stripped.split(":", 1)[1].strip()
                if file_kind not in (LOGITS, PROBABILITIES):
                    raise InputError(f"{path}:{i + 1}: unknown kind {file_kind!r}")
        if declared_kind is not None and file_kind is not None and declared_kind != file_kind:
            raise InputError(f"{path}: file says {file_kind}, caller declared {declared_kind}")
        if n_lines - body_start < 2:
            raise InputError(f"{path}: need a header row and at least one data row")
        class_names = [c.strip() for c in line.split(",")]
        if any(not c for c in class_names):
            raise InputError(f"{path}:{body_start + 1}: empty class name in header")
        self.kind = declared_kind or file_kind or PROBABILITIES
        self.class_names, self.n_rows = tuple(class_names), n_lines - body_start - 1
        self._body_start, self._read_rows = body_start, self._read_text

    def _lines(self, i: int, j: int) -> list[str]:
        """Lines ``[i, j)`` in one read by position, each decoded without its "\\n";
        a line the file no longer holds reads as ""."""
        start = int(self._bounds[i])
        lines = os.pread(self._file.fileno(), int(self._bounds[j]) - start, start).split(b"\n")
        del lines[j - i:]
        for k, line in enumerate(lines):
            try:
                lines[k] = line.decode("utf-8")
            except UnicodeDecodeError as e:
                raise InputError(f"{self.path}:{i + k + 1}: not valid UTF-8: {e}") from e
        return lines + [""] * (j - i - len(lines))

    def _read_text(self, start: int, stop: int) -> np.ndarray:
        n_cols, first = len(self.class_names), self._body_start + 1
        values = np.empty((stop - start, n_cols), dtype=np.float64)
        for r, line in enumerate(self._lines(first + start, first + stop), start):
            fields = line.split(",")
            if len(fields) != n_cols:
                raise InputError(f"{self._where(r)}: {len(fields)} fields, header has {n_cols}")
            try:
                row = [*map(real, fields)]
            except ValueError:
                row = None
            if row is None or not all(map(math.isfinite, row)):
                self._raise_token_fault(r, fields)
            values[r - start] = row
        return values

    def _where(self, row: int) -> str:
        return f"{self.path}:{self._body_start + row + 2}"

    def _raise_token_fault(self, row: int, fields: list[str]) -> None:
        """The row's first bad token: no number, or not finite."""
        for c, token in enumerate(fields):
            try:
                v = real(token)
            except ValueError:
                raise InputError(f"{self._where(row)}: not a number: {token.strip()!r}") from None
            if not math.isfinite(v):
                raise InputError(f"{self.path}: non-finite value at row {row}, column {c}")

    def read(self, start: int, stop: int) -> ScoreMatrix:
        """Rows ``[start, stop)``: finite values, and probability rows validated within FILE_TOL.

        ``0 <= start < stop <= n_rows``, as the block loops give; the range is not
        checked. Errors name rows and columns of the file. Values are checked here, once.
        A block is checked one kind of fault at a time (a text block's UTF-8
        first), so the fault raised is the first faulty row's only in a one-row
        block; ``commands.run_methods`` halves a faulty block down to one.
        """
        try:
            m = ScoreMatrix(self._read_rows(start, stop), self.kind, self.class_names, start)
        except OSError as e:
            raise InputError(f"cannot read {self.path}: {e}") from e
        if m.kind == PROBABILITIES:
            validate_probabilities(m, FILE_TOL, f"{self.path}: ")
        return m


def save_scores(fill, path: str, staged: list | None = None) -> None:
    """Write the row blocks that ``fill(write)`` passes to ``write``; '.hies' paths
    get the binary format, others text.

    Text blocks must come in row order. Each '.hies' block goes to its own rows
    (``first_row``), so they may come in any order, and processes that ``fill``
    forks may write theirs; the header is written once ``fill`` returns. A '.hies'
    file and its '.names.json' sidecar are renamed together: when ``staged``'s
    block ends, or, without ``staged``, when this call does.
    """
    binary, first = path.endswith(".hies"), None
    with _staging(staged) as staged, _atomic_file(path, staged) as f:
        def write(block):
            nonlocal first
            first = first or block
            try:
                if binary:
                    values = np.ascontiguousarray(block.values, dtype="<f8")
                    _write_at(f.fileno(), values, _HEADER.size + block.first_row * values[0].nbytes)
                    return
                if not f.tell():  # the header comes before the first block's rows
                    _check_header_names(block.class_names, path)
                    header = f"# kind: {block.kind}\n{','.join(block.class_names)}\n"
                    f.write(header.encode("utf-8"))
                f.write("".join(",".join(repr(float(v)) for v in row) + "\n"
                                for row in block.values).encode("utf-8"))
            except OSError as e:  # named here, not by an output whose block encloses fill(write)
                raise _cannot_write(path, e) from e

        fill(write)
        if first is None:
            raise InputError(f"{path}: no rows to write")
        if binary:
            fd, cols = f.fileno(), first.n_classes
            rows = (os.fstat(fd).st_size - _HEADER.size) // (8 * cols)
            _write_at(fd, _HEADER.pack(BINARY_MAGIC, BINARY_VERSION, _KIND_BYTE[first.kind], rows,
                                       cols), 0)
            write_json({"class_names": list(first.class_names)}, _names_sidecar(path), staged)


def _check_header_names(names: Sequence[str], path: str) -> None:
    """Refuse names that a text header would not give back: ``_open_text`` splits
    the header at commas, strips each name, refuses an empty one and skips a first
    line starting '#'; and a lone surrogate, which UTF-8 cannot encode."""
    for i, name in enumerate(names):
        if (not name or name != name.strip() or any(c in name for c in ",\n\r")
                or i == 0 and name.startswith("#") or _lone_surrogate(name)):
            raise InputError(f"cannot write {path}: class name {name!r} cannot be read back from "
                             "a text header; write a .hies file instead")


def column_order(names: Sequence[str], t: tx.Taxonomy, level) -> tuple[np.ndarray | None, tuple]:
    """How columns named ``names`` bind to ``level``'s classes: ``(perm, canonical names)``.

    ``level`` is "leaf", "coarse", or an integer depth. ``np.take(values, perm,
    axis=1)`` puts a block's columns into the canonical order; ``perm`` is None
    when they are in it already. Raises InputError on a duplicate, unknown or
    missing class, so a file's columns are bound once, before any row is read.
    """
    if level == "leaf":
        canonical = t.leaf_names()
    elif level == "coarse":
        canonical = t.coarse_names()
    elif isinstance(level, int):
        canonical = tuple(t.names[i] for i in tx.level_order(t, level))
    else:
        raise InputError(f"unknown level selector {level!r}")
    got = tuple(names)
    if got == canonical:
        return None, canonical
    seen: set[str] = set()
    for name in got:
        if name in seen:
            raise InputError(f"duplicate column {name!r}")
        seen.add(name)
    canonical_set = set(canonical)
    for name in got:
        if name not in canonical_set:
            raise InputError(f"column {name!r} is not a class at this level")
    for name in canonical:
        if name not in seen:
            raise InputError(f"class {name!r} has no column")
    col = {name: i for i, name in enumerate(got)}
    return np.array([col[name] for name in canonical], dtype=np.intp), canonical


# ------------------------------------------------------------ label files

def load_labels(path: str, t: tx.Taxonomy) -> np.ndarray:
    """Read one leaf name per line into leaf_order indices."""
    try:
        text = _read_bytes(path).decode("utf-8").removeprefix("\ufeff")  # a byte-order mark is no label
    except UnicodeDecodeError as e:
        raise InputError(f"{path}: not valid UTF-8: {e}") from e
    if "\r\n" in text:
        raise InputError(f"{path}: CRLF line endings; labels must be LF-terminated")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise InputError(f"{path}: no labels")
    pos = {t.names[leaf]: i for i, leaf in enumerate(t.leaf_order)}
    out = np.empty(len(lines), dtype=np.int64)
    for i, name in enumerate(lines):
        if name not in pos:
            raise InputError(f"{path}:{i + 1}: {name!r} is not a leaf class")
        out[i] = pos[name]
    return out


def write_labels(t: tx.Taxonomy, fill, path: str, staged: list | None = None) -> None:
    """A file of leaf names, one per line (labels or predictions), written block by block.

    ``fill(write)`` passes ``write`` the leaf_order indices of each block of
    rows, in row order, and each is appended as it comes. The file replaces
    ``path`` once ``fill`` returns (or, given ``staged``, when its block ends);
    if ``fill`` raises, no file is left behind.
    """
    for name in t.leaf_names():
        fault = ("holds a line break" if "\n" in name or "\r" in name else
                 "holds a lone surrogate" if _lone_surrogate(name) else
                 "starts with a byte-order mark" if name.startswith("\ufeff") else None)
        if fault:  # load_labels drops a byte-order mark that starts line 1
            raise InputError(f"cannot write {path}: leaf name {name!r} {fault}")
    lines = [name + "\n" for name in t.leaf_names()]
    with _atomic_file(path, staged) as f:
        fill(lambda indices: f.write(
            "".join(lines[i] for i in np.asarray(indices).tolist()).encode("utf-8")))


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
