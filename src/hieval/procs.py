"""A forked child process that runs one function and sends back its result.

``commands`` runs its row workers in them, forked after numpy loads so that each
inherits the open readers (``hashing.Hasher`` spawns the input hasher instead).
A child sends what its function returns and nothing else: where it cannot start,
ends first or meets a fault, its caller does the work and meets any fault itself.
"""

from __future__ import annotations

import os
import pickle


class Child:
    """``fn()`` run in a process forked on creation.

    The child pickles what ``fn`` returns, sends it through a pipe and ends with
    ``os._exit``; where ``fn`` raises, it sends nothing. Where the pipe or the fork
    fails, ``pid`` is 0 and no pipe end is left open. :meth:`close` kills and reaps it.
    """

    def __init__(self, fn):
        self.pid, self._pipe = 0, None
        fds = []
        try:
            fds += os.pipe()
            self.pid = os.fork()
        except OSError:  # no process can start
            for fd in fds:
                os.close(fd)
            return
        read_end, write_end = fds
        if self.pid == 0:
            try:
                sent = pickle.dumps(fn(), pickle.HIGHEST_PROTOCOL)  # whole before any byte is sent
                with open(write_end, "wb") as pipe:
                    pipe.write(sent)
            finally:
                os._exit(0)
        os.close(write_end)
        self._pipe = open(read_end, "rb")

    def result(self):
        """What ``fn`` returned; EOFError where the child sent nothing whole."""
        if self._pipe is None:
            raise EOFError("no child process started")
        try:
            return pickle.load(self._pipe)
        except pickle.UnpicklingError as e:  # cut short
            raise EOFError(str(e)) from None

    def close(self) -> None:
        if self._pipe is not None:
            self._pipe.close()
            self._pipe = None
        if self.pid:
            os.kill(self.pid, 9)  # SIGKILL; importing signal adds ~0.1 MB to every run's peak RSS
            os.waitpid(self.pid, 0)
            self.pid = 0
