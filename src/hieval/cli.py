"""Command-line interface: validate, infer, eval, compare, costs, synth.

Exit codes are a stable contract: 0 on success, 2 for input or usage
problems and for an allocation that fails, 3 for shape or semantic mismatches
between otherwise valid inputs; a command's summary is printed once it is
done, and a closed or full standard output exits 2. Output files are
byte-identical across repeated runs; to keep that true regardless of the
host's BLAS threading configuration, the entry point pins numerical
libraries to one thread before numpy is first imported. It also has glibc
keep the memory each block of rows frees for the next block, rather than
return it to the system and fault it back in; importing the package changes
neither setting.

:func:`main`, the process entry, runs ``eval``, ``compare`` and ``infer`` on every
usable CPU and exits without teardown when done; :func:`run` runs in-process and returns.
Every process besides the caller is a ``procs.Child``: where one cannot start, ends
without a result or meets a fault, the caller does its work and raises any fault itself.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import ctypes
import io
import os
import sys

from . import hashing, procs
from .errors import DataError, InputError

_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)


def _pin_single_threaded_math() -> None:
    # Only effective if numpy has not been imported yet; library users who
    # import the package normally are unaffected.
    if "numpy" in sys.modules:
        return
    for var in _THREAD_VARS:
        os.environ[var] = "1"


def _keep_freed_memory() -> None:
    # By default glibc returns a block's freed buffers to the system, and the
    # next block faults them back in. Raise M_TRIM_THRESHOLD (-1) and
    # M_MMAP_THRESHOLD (-3) to 32 MiB, both: setting one alone freezes glibc's
    # adaptive value of the other. A no-op where the C library has no mallopt.
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    for param in (-1, -3):
        mallopt(param, 32 << 20)


def integer(text: str) -> int:
    """``int(text)``, refusing the PEP 515 ``_`` and the other scripts' digits ``int`` takes."""
    if "_" in text or not text.isascii():
        raise ValueError(f"invalid literal for int(): {text!r}")
    return int(text)


integer.__name__ = "int"  # as argparse and commands name the type: "invalid int value: '1_0'"


def real(text: str) -> float:
    """``float(text)``, refusing what :func:`integer` refuses; a score file has no ``_`` either."""
    if "_" in text or not text.isascii():
        raise ValueError(f"could not convert string to float: {text!r}")
    return float(text)


real.__name__ = "float"  # "--noise must be a comma list of float values, got '1_0,1'"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hieval",
        description=(
            "Combine fine- and coarse-grained classifier scores over a label "
            "hierarchy and evaluate hierarchy-aware metrics."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, labels=False, ks=False, method=False, outfile=False):
        p.add_argument("--hierarchy", required=True, help="hierarchy JSON file")
        p.add_argument("--fine", help="fine-level score file")
        p.add_argument("--coarse", help="coarse-level score file")
        p.add_argument(
            "--level",
            action="append",
            metavar="DEPTH=PATH",
            help="upper-level score file for cascading; repeatable",
        )
        p.add_argument("--kind", choices=["logits", "probs"], help="how to read score values")
        if labels:
            p.add_argument("--labels", required=True, help="ground-truth leaf names, one per line")
        if ks:
            p.add_argument("--k", default="1,5,20", help="comma list of k values")
        if method:
            p.add_argument("--method", help="decision rule; an unknown name lists the valid ones")
        if outfile:
            p.add_argument("--out", help="output file path")

    p = sub.add_parser("validate", help="check a hierarchy file and print its shape")
    p.add_argument("--hierarchy", required=True)

    p = sub.add_parser("infer", help="apply a decision rule and write scores plus predictions")
    add_common(p, method=True, outfile=True)
    p.add_argument("--preds-out", help="predictions path (default: OUT.preds.txt)")

    p = sub.add_parser("eval", help="evaluate one method against labels")
    add_common(p, labels=True, ks=True, method=True, outfile=True)
    p.add_argument("--preds", help="evaluate an existing predictions file instead of scores")

    p = sub.add_parser("compare", help="evaluate several methods into one table")
    add_common(p, labels=True, ks=True, outfile=True)
    p.add_argument("--methods", required=True, help="comma list of methods")

    p = sub.add_parser("costs", help="write the leaf-by-leaf LCA-height cost matrix")
    p.add_argument("--hierarchy", required=True)
    p.add_argument("--out", required=True)

    p = sub.add_parser("synth", help="generate a seeded synthetic instance on disk")
    p.add_argument("--branching", required=True, help="comma list, e.g. 8,8")
    p.add_argument("--noise", required=True, help="comma list of per-level noise scales")
    p.add_argument("--n-samples", type=integer, required=True)
    p.add_argument("--seed", type=integer, default=0)
    p.add_argument("--out-dir", required=True)
    return parser


def run(argv=None, workers: int = 1) -> int:
    """Run one command in this process and return its exit code; ``eval``, ``compare``
    and ``infer`` spread their rows over up to ``workers`` processes, this one included.

    ``eval`` and ``compare`` first refuse an input that is not a regular file
    (``hashing.check_regular``); with ``workers > 1``, they then hash their inputs
    in a child process of their own (``hashing.digests``), killed and reaped on return.
    """
    _pin_single_threaded_math()
    _keep_freed_memory()
    args = build_parser().parse_args(argv)
    args.workers, args.digests = workers, None
    try:
        if args.command in ("eval", "compare"):
            hashing.check_regular(args)
            if workers > 1:  # forked before numpy loads: small, and this process never loads OpenSSL
                args.digests = procs.Child(lambda: hashing.digests(args))
        from . import commands

        # infer requires --out even though other commands treat it as optional
        if args.command == "infer" and not args.out:
            raise InputError("infer requires --out")
        out = io.StringIO()
        code = getattr(commands, f"cmd_{args.command}")(args, out)
        try:
            if sys.stdout is not None:  # None when started without one, as print() allows
                sys.stdout.write(out.getvalue())
                sys.stdout.flush()
        except OSError as e:
            raise InputError(f"cannot write standard output: {e.strerror or e}") from e
        return code
    except InputError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except DataError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 3
    except MemoryError as e:  # numpy's names the allocation it could not make
        print(f"MemoryError: {e or 'out of memory'}", file=sys.stderr)
        return 2
    finally:
        if args.digests:
            args.digests.close()


def main(argv=None) -> int:
    """:func:`run`, then an exit without interpreter teardown.

    When ``run`` returns, every output is closed and renamed, so the final
    garbage collection and module teardown only cost time. The exit is an
    atexit handler, which runs first as the last one registered, so that
    ``python -m cProfile -o FILE -m hieval ...`` still writes FILE. When
    ``run`` raises, nothing is registered. Each CPU this process may use
    (``taskset`` narrows them) gets a worker.
    """
    usable = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else [0]
    code = run(argv, workers=len(usable))
    atexit.register(_exit_without_teardown, code)
    return code


def _exit_without_teardown(code: int) -> None:
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            # A fault here was already reported: run() flushed its output.
            with contextlib.suppress(OSError):
                stream.flush()
    os._exit(code)
