"""The sha256 digests that ``eval`` and ``compare`` reports echo for their inputs.

This module imports neither numpy nor, until a digest is computed, hashlib,
whose OpenSSL pages would otherwise be a run's peak memory. When the run may
use more than one process, ``cli.run`` computes :func:`digests` in a spawned
:class:`Hasher`, so that the calling process never loads OpenSSL nor forks before
numpy loads, and the hashing overlaps the run. Where it cannot start, fails or
sends anything but one digest per input, the calling process hashes them itself.
Each input is read twice, to hash it and to use it, so :func:`check_regular`
first refuses one that is not a regular file, such as a pipe.
"""

from __future__ import annotations

import os
import stat
import sys

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


# ``python -I -S -c _STUB <package parent> <path>...`` prints each path's digest on a line.
_STUB = ("import sys; sys.path.insert(0, sys.argv[1]); from hieval.hashing import sha256_digest; "
         "print(*map(sha256_digest, sys.argv[2:]), sep='\\n')")


class Hasher:
    """:func:`digests` in a spawned ``python -I -S`` (``-B`` too where this process writes no
    bytecode): it starts without a copy of this process's pages, takes each path as bytes and
    sends its stderr to ``/dev/null``. Where it cannot start, ``pid`` is 0 and no pipe end is
    left open."""

    def __init__(self, args):
        self.paths, self.pid, self._pipe = list(_given_roles(args)), 0, None
        parent = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        argv = [sys.executable, "-I", "-S", *["-B"] * sys.dont_write_bytecode, "-c", _STUB,
                *map(os.fsencode, [parent, *self.paths])]
        fds = []
        try:
            fds += os.pipe()
            if sys.executable:  # empty where the interpreter cannot tell its own path
                self.pid = os.posix_spawn(sys.executable, argv, os.environ, file_actions=[
                    (os.POSIX_SPAWN_DUP2, fds[1], 1),  # stdout: the pipe
                    (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])
        except OSError:  # no process can start
            pass
        for fd in fds[bool(self.pid):]:  # both ends, or the write end only once spawned
            os.close(fd)
        self._pipe = open(fds[0], "rb") if self.pid else None

    def result(self) -> dict[str, str]:
        """Each path's digest; EOFError unless the hasher exited 0 after one line per path."""
        import re  # argparse has loaded it here; the hasher, which imports this module, need not

        if self._pipe is None:
            raise EOFError("no hasher started")
        sent, status = self._pipe.read(), os.waitpid(self.pid, 0)[1]
        self.pid = 0
        if status or not re.fullmatch(rb"(sha256:[0-9a-f]{64}\n){%d}" % len(self.paths), sent):
            raise EOFError("the hasher sent no digest of each input")
        return dict(zip(self.paths, sent.decode().split()))

    def close(self) -> None:
        if self._pipe is not None:
            self._pipe.close()
            self._pipe = None
        if self.pid:
            os.kill(self.pid, 9)  # SIGKILL, as procs.Child.close: no import of signal
            os.waitpid(self.pid, 0)
            self.pid = 0
