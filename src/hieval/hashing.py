"""The sha256 digests that ``eval`` and ``compare`` reports echo for their inputs.

This module imports neither numpy nor, until a digest is computed, hashlib,
whose OpenSSL pages would otherwise be a run's peak memory. When the run may
use more than one process, ``cli.run`` computes :func:`digests` in a
``procs.Child`` forked before numpy loads, so that the calling process never
loads OpenSSL and the hashing overlaps the run. Where that child cannot start,
ends first or meets an unreadable input, the calling process hashes them itself.
Each input is read twice, to hash it and to use it, so :func:`check_regular`
first refuses one that is not a regular file, such as a pipe.
"""

from __future__ import annotations

import os
import stat

from .errors import InputError, ParseError


def sha256_digest(path: str) -> str:
    """``"sha256:<hex>"`` of the file's bytes; ParseError if it cannot be read."""
    import hashlib  # loads OpenSSL, which only hashing needs

    h = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 16), b""):
                h.update(chunk)
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    return "sha256:" + h.hexdigest()


def input_roles(args, levels) -> list[tuple[str, str]]:
    """(role, path) of each given input of an ``eval`` or ``compare`` run, in report order;
    ``levels`` are the ``--level`` (depth, path) pairs, each in role ``level<depth>``."""
    roles = [(role, getattr(args, role, None)) for role in ("hierarchy", "fine", "coarse", "labels")]
    roles += [(f"level{depth}", path) for depth, path in levels]
    roles.append(("preds", getattr(args, "preds", None)))
    return [(role, path) for role, path in roles if path]


def _given_roles(args) -> dict[str, str]:
    """Each distinct input path and the first role it is given in. ``--level``
    entries are taken as given, before ``commands.parse_levels`` checks them."""
    levels = [entry.partition("=")[::2] for entry in args.level or []]
    roles: dict[str, str] = {}
    for role, path in input_roles(args, levels):
        roles.setdefault(path, role)
    return roles


def check_regular(args) -> None:
    """Refuse an input that exists but is not a regular file, naming its flag.

    A pipe's bytes can be read once, by the hashing or by the command, and the
    other would see none. Each distinct path is stat'ed once, before any process
    reads it; a path that cannot be stat'ed is left for its reader to name.
    """
    for path, role in _given_roles(args).items():
        try:
            mode = os.stat(path).st_mode
        except OSError:
            continue
        if not stat.S_ISREG(mode):
            given = f"--level {role[5:]}={path}" if role.startswith("level") else f"--{role} {path}"
            raise InputError(f"{given} is not a regular file; {args.command} "
                             "reads each input twice, to hash it and to use it")


def digests(args) -> dict[str, str]:
    """The digest of each distinct input path; raises the first unreadable one's ParseError."""
    return {path: sha256_digest(path) for path in _given_roles(args)}
