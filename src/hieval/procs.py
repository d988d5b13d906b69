"""The one way the package starts a child process: a :class:`Child`, which sends bytes back.

``commands`` forks its row workers after numpy loads, so that each inherits the
open readers; ``cli.run`` spawns the input hasher (``hashing.hasher_argv``) before
numpy loads, so that it copies none of the caller's pages. One rule covers both:
where a child cannot start, ends first, exits non-zero or sends nothing, its
caller does the work and meets any fault itself.
"""

from __future__ import annotations

import os


class Child:
    """``fn()``, which returns bytes, run in a process forked on creation; or, given
    ``argv``, that program spawned with its stdout on the pipe and its stderr on
    ``/dev/null``.

    A forked child exits 0 once ``fn``'s bytes are written and 1 where ``fn`` raises.
    Where the pipe or the start fails, or ``argv[0]`` is empty, ``pid`` is 0 and no
    pipe end is left open. :meth:`close` kills and reaps the child.
    """

    def __init__(self, fn=None, argv=None):
        self.pid, self._pipe = 0, None
        fds = []
        try:
            fds += os.pipe()
            if argv is None:
                self.pid = os.fork()
                if self.pid == 0:
                    code = 1
                    try:
                        with open(fds[1], "wb") as pipe:
                            pipe.write(fn())
                        code = 0
                    finally:
                        os._exit(code)
            elif argv[0]:  # empty where the interpreter cannot tell its own path
                self.pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=[
                    (os.POSIX_SPAWN_DUP2, fds[1], 1),
                    (os.POSIX_SPAWN_OPEN, 2, os.devnull, os.O_WRONLY, 0)])
        except OSError:  # no process can start
            pass
        for fd in fds[bool(self.pid):]:  # both ends, or the write end only once started
            os.close(fd)
        if self.pid:
            self._pipe = open(fds[0], "rb")

    def result(self) -> bytes:
        """What the child sent, once it has exited; EOFError unless it sent bytes and exited 0."""
        if not self.pid:
            raise EOFError("no child process running")
        sent, status = self._pipe.read(), os.waitpid(self.pid, 0)[1]
        self.pid = 0
        if status or not sent:
            raise EOFError("the child process sent no whole result")
        return sent

    def close(self) -> None:
        if self._pipe is not None:
            self._pipe.close()
            self._pipe = None
        if self.pid:
            os.kill(self.pid, 9)  # SIGKILL; importing signal adds ~0.1 MB to every run's peak RSS
            os.waitpid(self.pid, 0)
            self.pid = 0
