"""The sha256 digests that ``eval`` and ``compare`` reports echo for their inputs.

This module imports neither numpy nor, until a digest is computed, hashlib,
whose OpenSSL pages would otherwise be a run's peak memory. ``cli.run``
starts a :class:`Hasher` before numpy loads, when the run may use more than
one process, so that the calling process never loads OpenSSL and the
hashing overlaps the run instead of following it.
"""

from __future__ import annotations

import marshal
import os

from .errors import ParseError


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


def input_paths(args) -> list[str]:
    """Each distinct input path of an ``eval`` or ``compare`` run, in role order."""
    paths = [getattr(args, role, None) for role in ("hierarchy", "fine", "coarse", "labels")]
    paths += [entry.partition("=")[2] for entry in getattr(args, "level", None) or []]
    paths.append(getattr(args, "preds", None))
    return list(dict.fromkeys(p for p in paths if p))


class Hasher:
    """``sha256_digest`` of each of ``paths``, computed in a process forked on creation.

    The process sends each digest, or its ParseError's message, through a
    pipe and ends with ``os._exit``; it never returns into its caller.
    :meth:`digest` waits for the result. Where no process could start, or
    it ended without a complete result, ``digest`` returns None and the
    caller hashes the path itself. :meth:`close` kills and reaps the process.
    """

    def __init__(self, paths: list[str]):
        self.paths, self.pid, self._pipe, self._results = paths, 0, None, None
        fds = []
        try:
            fds += os.pipe()
            self.pid = os.fork()
        except OSError:  # no process can start: the caller hashes
            for fd in fds:
                os.close(fd)
            self._results = {}
            return
        self._pipe, write_end = fds
        if self.pid == 0:
            try:
                results = []
                for path in paths:
                    try:
                        results.append((True, sha256_digest(path)))
                    except ParseError as e:
                        results.append((False, str(e)))
                with open(write_end, "wb") as pipe:
                    pipe.write(marshal.dumps(results))
            finally:
                os._exit(0)
        os.close(write_end)

    def digest(self, path: str) -> str | None:
        """The digest of ``path``, or None where the process gave none; raises its ParseError."""
        if self._results is None:
            fd, self._pipe = self._pipe, None
            with open(fd, "rb") as pipe:
                sent = pipe.read()
            try:
                results = marshal.loads(sent)
            except (EOFError, ValueError):  # cut short
                results = []
            self._results = dict(zip(self.paths, results)) if len(results) == len(self.paths) else {}
        if path not in self._results:
            return None
        ok, text = self._results[path]
        if not ok:
            raise ParseError(text)
        return text

    def close(self) -> None:
        if self._pipe is not None:
            os.close(self._pipe)
            self._pipe = None
        if self.pid:
            os.kill(self.pid, 9)  # SIGKILL; importing signal adds to every run's peak RSS
            os.waitpid(self.pid, 0)
            self.pid = 0
