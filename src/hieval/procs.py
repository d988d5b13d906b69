"""A forked child process that runs one function and sends back its result.

``cli`` hashes a run's inputs in one and ``commands`` runs row workers in them;
where a child cannot start or ends without a result, its caller does the work.
This module imports no numpy, so that a child forked before numpy loads is small.
"""

from __future__ import annotations

import io
import os
import pickle


def _rebuilt(kind, args, attributes):
    error = kind.__new__(kind, *args)
    error.__dict__.update(attributes)
    return error


class _Pickler(pickle.Pickler):
    # An exception unpickles by default as a call of its class with its args, which
    # fails or differs where __init__ takes other arguments (NonFiniteValue(row, col)).
    def reducer_override(self, obj):
        if isinstance(obj, BaseException):
            return _rebuilt, (type(obj), obj.args, vars(obj))
        return NotImplemented


class Child:
    """``fn()`` run in a process forked on creation.

    The child pickles what ``fn`` returns or the exception it raises, every
    exception in it as its type, args and attributes, sends that through a pipe
    and ends with ``os._exit``. Where the pipe or the fork fails, ``pid`` is 0
    and no pipe end is left open. :meth:`close` kills and reaps the child.
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
                sent = io.BytesIO()  # whole before any byte is sent: a value may fail to pickle
                try:
                    _Pickler(sent, pickle.HIGHEST_PROTOCOL).dump((True, fn()))
                except BaseException as e:
                    sent = io.BytesIO()
                    _Pickler(sent, pickle.HIGHEST_PROTOCOL).dump((False, e))
                with open(write_end, "wb") as pipe:
                    pipe.write(sent.getvalue())
            finally:
                os._exit(0)
        os.close(write_end)
        self._pipe = open(read_end, "rb")

    def result(self):
        """What ``fn`` returned, or its exception raised here; EOFError where it gave neither."""
        if self._pipe is None:
            raise EOFError("no child process started")
        try:
            ok, value = pickle.load(self._pipe)
        except pickle.UnpicklingError as e:  # cut short
            raise EOFError(str(e)) from None
        if not ok:
            raise value
        return value

    def close(self) -> None:
        if self._pipe is not None:
            self._pipe.close()
            self._pipe = None
        if self.pid:
            os.kill(self.pid, 9)  # SIGKILL; importing signal adds ~0.1 MB to every run's peak RSS
            os.waitpid(self.pid, 0)
            self.pid = 0
