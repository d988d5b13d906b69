"""The sha256 digests that ``eval`` and ``compare`` reports echo for their inputs.

This module imports neither numpy nor, until a digest is computed, hashlib,
whose OpenSSL pages would otherwise be a run's peak memory. When the run may
use more than one process, ``cli.run`` spawns :func:`hasher_argv` as a
``procs.Child`` before numpy loads, so that the calling process never loads
OpenSSL nor forks before numpy loads, and the hashing overlaps the run. Where it
cannot start, fails or sends anything but one digest per input, :func:`digests`
hashes them in the calling process.
Each input is read twice, to hash it and to use it, so :func:`check_regular`
first refuses one that is not a regular file, such as a pipe.
"""

from __future__ import annotations

import os
import stat
import sys

from .errors import InputError


def sha256_digest(path: str) -> str:
    """``"sha256:<hex>"`` of the file's bytes; InputError if it cannot be read."""
    import hashlib  # loads OpenSSL, which only hashing needs

    h = hashlib.sha256()
    try:
        with open(path, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 16), b""):
                h.update(chunk)
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from e
    return "sha256:" + h.hexdigest()


def input_roles(args, levels) -> list[tuple[str, str]]:
    """(role, path) of each given input of an ``eval`` or ``compare`` run, in report order;
    ``levels`` are the ``--level`` (depth, path) pairs, each in role ``level<depth>``."""
    roles = [(role, getattr(args, role, None)) for role in ("hierarchy", "fine", "coarse", "labels")]
    roles += [(f"level{depth}", path) for depth, path in levels]
    roles.append(("preds", getattr(args, "preds", None)))
    return [(role, path) for role, path in roles if path]


def given_roles(args) -> dict[str, str]:
    """Each distinct input path and the first role it is given in. ``--level``
    entries are taken as given, before ``commands.parse_levels`` checks them."""
    levels = [entry.partition("=")[::2] for entry in getattr(args, "level", None) or []]
    roles: dict[str, str] = {}
    for role, path in input_roles(args, levels):
        roles.setdefault(path, role)
    return roles


def flag(role: str, path: str) -> str:
    """How the command line gives ``path`` in ``role``: ``--fine PATH``, ``--level D=PATH``."""
    return f"--level {role[5:]}={path}" if role.startswith("level") else f"--{role} {path}"


def check_regular(args) -> None:
    """Refuse an input that exists but is not a regular file, naming its flag.

    A pipe's bytes can be read once, by the hashing or by the command, and the
    other would see none. Each distinct path is stat'ed once, before any process
    reads it; a path that cannot be stat'ed is left for its reader to name.
    """
    for path, role in given_roles(args).items():
        try:
            mode = os.stat(path).st_mode
        except OSError:
            continue
        if not stat.S_ISREG(mode):
            raise InputError(f"{flag(role, path)} is not a regular file; {args.command} "
                             "reads each input twice, to hash it and to use it")


def digests(args, hasher=None) -> dict[str, str]:
    """Each distinct input path's digest: as ``hasher``, a ``procs.Child`` on :func:`hasher_argv`,
    sent them where it sent one ``sha256:<hex>`` line per path; else hashed here, raising
    the first unreadable path's InputError."""
    import re  # argparse has loaded it here; the hasher, which imports this module, need not

    paths = list(given_roles(args))
    try:
        sent = hasher.result() if hasher else b""
    except EOFError:  # it did not start, failed or sent nothing
        sent = b""
    if re.fullmatch(rb"(sha256:[0-9a-f]{64}\n){%d}" % len(paths), sent):
        return dict(zip(paths, sent.decode().split()))
    return {path: sha256_digest(path) for path in paths}


# ``python -I -S -c _STUB <package parent> <path>...`` prints each path's digest on a line.
_STUB = ("import sys; sys.path.insert(0, sys.argv[1]); from hieval.hashing import sha256_digest; "
         "print(*map(sha256_digest, sys.argv[2:]), sep='\\n')")


def hasher_argv(args) -> list:
    """``python -I -S [-B] -c _STUB <package parent> <path>...``, ``-B`` where this process
    writes no bytecode, each distinct input path as bytes in :func:`digests`' order."""
    parent = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    return [sys.executable, "-I", "-S", *["-B"] * sys.dont_write_bytecode, "-c", _STUB,
            *map(os.fsencode, [parent, *given_roles(args)])]
