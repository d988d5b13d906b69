"""File formats: hierarchies, score matrices, label lists, reports.

Hierarchies and reports are JSON. Score matrices come in two interchangeable
forms: a delimited text format for human-scale fixtures, and a binary format
for bulk data that round-trips values bit for bit:

    magic "HIES" | version u8 = 1 | kind u8 (0 = logits, 1 = probabilities)
    | rows u32 LE | cols u32 LE | row-major float64 LE values

Binary files carry their class names in a JSON sidecar at ``<path>.names.json``.
Score columns are always bound to taxonomy levels by class name, never by
position, so a misordered file is a detectable error instead of silent
corruption. All writes go through a temp file and rename.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import secrets
import struct
from typing import Sequence

import numpy as np

from . import taxonomy as tx
from .errors import (
    ColumnMismatch,
    DuplicateClass,
    EmptyInput,
    InputError,
    KindConflict,
    MissingClass,
    MultipleRoots,
    NonFiniteValue,
    ParseError,
    UnknownClass,
    UnknownLeaf,
)
from .metrics import EvalReport
from .scores import FILE_TOL, LOGITS, PROBABILITIES, ScoreMatrix, validate_probabilities

BINARY_MAGIC = b"HIES"
BINARY_VERSION = 1
_KIND_BYTE = {LOGITS: 0, PROBABILITIES: 1}
_BYTE_KIND = {0: LOGITS, 1: PROBABILITIES}
_HEADER = struct.Struct("<4sBBII")


def _atomic_write_bytes(path: str, data: bytes) -> None:
    # A unique temp name beside the target keeps concurrent writers apart and
    # the final rename on one file system.
    tmp = f"{path}.{os.getpid()}-{secrets.token_hex(4)}.tmp"
    try:
        with open(tmp, "xb") as f:
            f.write(data)
        os.replace(tmp, path)
    except OSError as e:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise InputError(f"cannot write {path}: {e.strerror or e}") from e


def _atomic_write_text(path: str, text: str) -> None:
    _atomic_write_bytes(path, text.encode("utf-8"))


def _read_bytes(path: str) -> bytes:
    try:
        with open(path, "rb") as f:
            return f.read()
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e


def sha256_digest(path: str) -> str:
    return "sha256:" + hashlib.sha256(_read_bytes(path)).hexdigest()


def write_json(doc: dict, path: str) -> None:
    _atomic_write_text(path, json.dumps(doc, indent=2) + "\n")


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

    names: set[str] = set()
    parents: dict[str, str | None] = {}
    for i, node in enumerate(doc["nodes"]):
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
        parents[name] = parent

    roots = sorted(n for n, p in parents.items() if p is None)
    if len(roots) > 1:
        raise MultipleRoots(
            f"{path}: multiple null-parent nodes: " + ", ".join(repr(r) for r in roots)
        )
    undeclared = sorted({p for p in parents.values() if p is not None and p not in names})
    if undeclared:
        raise ParseError(
            f"{path}: parent names never declared as nodes: "
            + ", ".join(repr(u) for u in undeclared)
        )

    edges = [(child, parent) for child, parent in parents.items() if parent is not None]
    for key in ("leaf_order", "coarse_order"):
        if key in doc and not (
            isinstance(doc[key], list) and all(isinstance(x, str) for x in doc[key])
        ):
            raise ParseError(f"{path}: {key} must be a list of names")
    return tx.build_taxonomy(
        edges,
        leaf_order=doc.get("leaf_order"),
        coarse_order=doc.get("coarse_order"),
    )


def save_hierarchy(t: tx.Taxonomy, path: str) -> None:
    """Write a taxonomy as hierarchy JSON, orders pinned explicitly."""
    nodes = [
        {"name": t.names[i], "parent": None if t.parent[i] is None else t.names[t.parent[i]]}
        for i in sorted(range(t.n_nodes), key=lambda i: t.names[i])
    ]
    doc = {
        "nodes": nodes,
        "leaf_order": list(t.leaf_names()),
        "coarse_order": list(t.coarse_names()),
    }
    write_json(doc, path)


# ------------------------------------------------------------ score files

def _names_sidecar(path: str) -> str:
    return path + ".names.json"


def load_scores(
    path: str,
    declared_kind: str | None = None,
    expected_names: Sequence[str] | None = None,
) -> ScoreMatrix:
    """Load a score matrix, sniffing binary vs text by the magic bytes.

    ``declared_kind`` cross-checks the file's own kind marker (KindConflict on
    disagreement) and supplies it for plain text files without one.
    ``expected_names`` enforces an exact header order (ColumnMismatch at the
    first divergence).
    """
    raw = _read_bytes(path)
    if raw[:4] == BINARY_MAGIC:
        m = _parse_binary(path, raw, declared_kind)
    else:
        m = _parse_text(path, raw, declared_kind)
    if expected_names is not None:
        _check_expected(path, m.class_names, expected_names)
    if m.kind == PROBABILITIES:
        validate_probabilities(m, FILE_TOL)
    return m


def _check_expected(path, got, expected):
    expected = list(expected)
    got = list(got)
    if got == expected:
        return
    if len(got) != len(expected):
        raise ColumnMismatch(
            f"{path}: {len(got)} columns where {len(expected)} were expected"
        )
    for i, (g, w) in enumerate(zip(got, expected)):
        if g != w:
            raise ColumnMismatch(f"{path}: column {i} is {g!r}, expected {w!r}")


def _parse_binary(path: str, raw: bytes, declared_kind) -> ScoreMatrix:
    if len(raw) < _HEADER.size:
        raise ParseError(f"{path}: truncated binary header")
    magic, version, kind_byte, rows, cols = _HEADER.unpack_from(raw)
    if version != BINARY_VERSION:
        raise ParseError(f"{path}: unsupported format version {version}")
    if kind_byte not in _BYTE_KIND:
        raise ParseError(f"{path}: unknown kind byte {kind_byte}")
    kind = _BYTE_KIND[kind_byte]
    if declared_kind is not None and declared_kind != kind:
        raise KindConflict(f"{path}: file says {kind}, caller declared {declared_kind}")
    expected_len = _HEADER.size + rows * cols * 8
    if len(raw) != expected_len:
        raise ParseError(f"{path}: payload is {len(raw)} bytes, expected {expected_len}")
    values = np.frombuffer(raw, dtype="<f8", offset=_HEADER.size).reshape(rows, cols)
    sidecar = _names_sidecar(path)
    if not os.path.exists(sidecar):
        raise ParseError(f"{path}: class-name sidecar {sidecar} not found")
    try:
        names_doc = json.loads(_read_bytes(sidecar).decode("utf-8"))
        class_names = names_doc["class_names"]
    except (UnicodeDecodeError, json.JSONDecodeError, KeyError, TypeError) as e:
        raise ParseError(f"{sidecar}: invalid names sidecar: {e}") from e
    if not isinstance(class_names, list) or len(class_names) != cols:
        raise ColumnMismatch(
            f"{sidecar}: {len(class_names)} class names for {cols} columns"
        )
    return ScoreMatrix(values, kind, tuple(class_names))


def _parse_text(path: str, raw: bytes, declared_kind) -> ScoreMatrix:
    try:
        text = raw.decode("utf-8")
    except UnicodeDecodeError as e:
        raise ParseError(f"{path}: not valid UTF-8: {e}") from e
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    file_kind = None
    body_start = 0
    for i, line in enumerate(lines):
        if not line.startswith("#"):
            body_start = i
            break
        stripped = line[1:].strip()
        if stripped.startswith("kind:"):
            file_kind = stripped.split(":", 1)[1].strip()
            if file_kind not in (LOGITS, PROBABILITIES):
                raise ParseError(f"{path}:{i + 1}: unknown kind {file_kind!r}")
    else:
        body_start = len(lines)
    if declared_kind is not None and file_kind is not None and declared_kind != file_kind:
        raise KindConflict(f"{path}: file says {file_kind}, caller declared {declared_kind}")
    kind = declared_kind or file_kind or PROBABILITIES
    body = lines[body_start:]
    if len(body) < 2:
        raise EmptyInput(f"{path}: need a header row and at least one data row")
    class_names = [c.strip() for c in body[0].split(",")]
    if any(not c for c in class_names):
        raise ParseError(f"{path}:{body_start + 1}: empty class name in header")
    n_cols = len(class_names)
    values = np.empty((len(body) - 1, n_cols), dtype=np.float64)
    for r, line in enumerate(body[1:]):
        fields = line.split(",")
        if len(fields) != n_cols:
            raise ColumnMismatch(
                f"{path}:{body_start + r + 2}: {len(fields)} fields, header has {n_cols}"
            )
        for c, token in enumerate(fields):
            try:
                v = float(token)
            except ValueError:
                raise ParseError(
                    f"{path}:{body_start + r + 2}: not a number: {token.strip()!r}"
                ) from None
            if not np.isfinite(v):
                raise NonFiniteValue(r, c)
            values[r, c] = v
    return ScoreMatrix(values, kind, tuple(class_names))


def save_scores(m: ScoreMatrix, path: str) -> None:
    """Write a score matrix; '.hies' paths get the binary format, others text."""
    if path.endswith(".hies"):
        header = _HEADER.pack(
            BINARY_MAGIC, BINARY_VERSION, _KIND_BYTE[m.kind], m.n_samples, m.n_classes
        )
        payload = np.ascontiguousarray(m.values, dtype="<f8").tobytes()
        _atomic_write_bytes(path, header + payload)
        write_json({"class_names": list(m.class_names)}, _names_sidecar(path))
        return
    out = [f"# kind: {m.kind}", ",".join(m.class_names)]
    for row in m.values:
        out.append(",".join(repr(float(v)) for v in row))
    _atomic_write_text(path, "\n".join(out) + "\n")


def align_columns(m: ScoreMatrix, t: tx.Taxonomy, level) -> ScoreMatrix:
    """Permute columns into the taxonomy's canonical order for ``level``.

    ``level`` is "leaf", "coarse", or an integer depth. Already-canonical
    input is returned as-is, so alignment is idempotent.
    """
    if level == "leaf":
        canonical = list(t.leaf_names())
    elif level == "coarse":
        canonical = list(t.coarse_names())
    elif isinstance(level, int):
        canonical = [t.names[i] for i in tx.level_order(t, level)]
    else:
        raise ParseError(f"unknown level selector {level!r}")
    got = list(m.class_names)
    if got == canonical:
        return m
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
    perm = [col[name] for name in canonical]
    return ScoreMatrix(m.values[:, perm], m.kind, tuple(canonical))


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
            raise UnknownLeaf(name, i + 1)
        out[i] = pos[name]
    return out


def write_labels(t: tx.Taxonomy, indices, path: str) -> None:
    """Write leaf_order indices as one leaf name per line (labels or predictions)."""
    leaf_names = t.leaf_names()
    lines = [leaf_names[int(i)] for i in np.asarray(indices)]
    _atomic_write_text(path, "\n".join(lines) + "\n")


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


def report_from_dict(doc: dict) -> EvalReport:
    try:
        return EvalReport(
            method=doc["method"],
            top1_accuracy=doc["top1_accuracy"],
            avg_mistake_severity=doc["avg_mistake_severity"],
            hier_dist_at_k={int(k): v for k, v in doc["hier_dist_at_k"].items()},
            n_samples=doc["n_samples"],
            n_mistakes=doc["n_mistakes"],
            config=doc.get("config", {}),
        )
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"invalid report document: {e}") from e


def write_report(r: EvalReport, path: str) -> None:
    write_json(report_to_dict(r), path)


def load_report(path: str) -> EvalReport:
    try:
        doc = json.loads(_read_bytes(path).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise ParseError(f"{path}: {e}") from e
    return report_from_dict(doc)


def write_report_list(reports: Sequence[EvalReport], path: str) -> None:
    write_json({"reports": [report_to_dict(r) for r in reports]}, path)
