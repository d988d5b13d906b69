"""Run one hieval CLI command in-process with a span around each layer call.

    python3 traced.py SPANS_JSON -- <hieval arguments>

The spans are recorded from outside the package: after import, every binding
of a traced function in any ``hieval`` module is replaced by a wrapper. That
includes names bound with ``from ... import`` (``commands.eval_report``,
``metrics.top_k``, ...), which patching only the home module would miss.
Each span records its name, start, end, parent span and the process's RSS
high-water mark when it ends. The command's exit code is this process's
exit code, and the command writes the same files it writes untraced.
"""

from __future__ import annotations

import inspect
import json
import os
import resource
import sys
import time

# The CLI pins BLAS to one thread only while numpy is not yet loaded, and
# importing the modules to wrap them loads numpy, so the runner pins first.
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "BLIS_NUM_THREADS",
)

MB = 1 << 20

IMPORT_SPAN = "cli.import"

# (home module, function, span name). Several functions may share a span.
TARGETS = (
    ("fileio", "load_hierarchy", "fileio.load_hierarchy"),
    ("fileio", "load_scores", "fileio.load_scores"),
    ("fileio", "align_columns", "fileio.align_columns"),
    ("fileio", "load_labels", "fileio.load_labels"),
    ("fileio", "sha256_digest", "fileio.sha256_digest"),
    ("fileio", "save_scores", "fileio.save_scores"),
    ("fileio", "write_labels", "fileio.write_labels"),
    ("fileio", "write_report", "fileio.write_report"),
    ("fileio", "write_report_list", "fileio.write_report_list"),
    ("scores", "as_probabilities", "scores.as_probabilities"),
    ("scores", "top_k", "scores.top_k"),
    ("ensemble", "hie_combine", "ensemble.combine"),
    ("ensemble", "hie_self", "ensemble.combine"),
    ("ensemble", "cascade_combine", "ensemble.combine"),
    ("taxonomy", "cost_matrix", "taxonomy.cost_matrix"),
    ("risk", "expected_costs", "risk.expected_costs"),
    ("risk", "crm_rerank", "risk.crm_rerank"),
    ("metrics", "eval_report", "metrics.eval_report"),
    ("synth", "gen_taxonomy", "synth.gen_taxonomy"),
    ("synth", "gen_instance", "synth.gen_instance"),
)

SPAN_NAMES = tuple(dict.fromkeys(name for _, _, name in TARGETS))

# Counts computed from argument shapes and file sizes, not measured.
COUNTERS = ("fileio.read_mb", "fileio.write_mb", "taxonomy.cost_matrix_mb", "risk.expected_costs_gflop")


def _size_mb(path: str) -> float:
    return os.path.getsize(path) / MB if os.path.exists(path) else 0.0


class Tracer:
    """Spans and computed counters of one traced process."""

    def __init__(self):
        self.spans: list[dict] = []
        self.counters = dict.fromkeys(COUNTERS, 0.0)
        self.bindings: dict[str, list[str]] = {name: [] for name in SPAN_NAMES}
        self._stack: list[int] = []
        self._cost_matrices: list = []  # every build seen, kept alive for identity checks

    def begin(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append({"name": name, "parent": parent, "start": time.perf_counter()})
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        span = self.spans[index]
        span["end"] = time.perf_counter()
        span["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        self._stack.pop()

    def count(self, name: str, args: dict, result) -> None:
        c = self.counters
        if name in ("fileio.load_hierarchy", "fileio.load_labels", "fileio.sha256_digest"):
            c["fileio.read_mb"] += _size_mb(args["path"])
        elif name == "fileio.load_scores":
            c["fileio.read_mb"] += _size_mb(args["path"]) + _size_mb(args["path"] + ".names.json")
        elif name == "fileio.save_scores":
            c["fileio.write_mb"] += _size_mb(args["path"]) + _size_mb(args["path"] + ".names.json")
        elif name in ("fileio.write_labels", "fileio.write_report", "fileio.write_report_list"):
            c["fileio.write_mb"] += _size_mb(args["path"])
        elif name == "taxonomy.cost_matrix":
            # The matrix is cached on the taxonomy; a new array is a new build.
            if not any(result is m for m in self._cost_matrices):
                self._cost_matrices.append(result)
                c["taxonomy.cost_matrix_mb"] += 8 * args["t"].n_leaves ** 2 / MB
        elif name == "risk.expected_costs":
            n, k = args["probs"].values.shape
            c["risk.expected_costs_gflop"] += 2 * n * k * k / 1e9

    def wrap(self, fn, name: str):
        signature = inspect.signature(fn)

        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            self.count(name, signature.bind(*args, **kwargs).arguments, result)
            return result

        return traced

    def install(self) -> None:
        """Replace every binding of each target in the loaded hieval modules.

        A target the package no longer defines is skipped and reports no calls.
        """
        modules = {n: m for n, m in sys.modules.items() if n == "hieval" or n.startswith("hieval.")}
        for home, attr, name in TARGETS:
            original = getattr(modules.get(f"hieval.{home}"), attr, None)
            if original is None:
                continue
            wrapper = self.wrap(original, name)
            for mod_name, module in sorted(modules.items()):
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self.bindings[name].append(f"{mod_name.removeprefix('hieval.')}.{key}")


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: traced.py SPANS_JSON -- <hieval arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS thread variables were set")
    for var in THREAD_VARS:
        os.environ[var] = "1"

    tracer = Tracer()
    start = time.perf_counter()
    index = tracer.begin(IMPORT_SPAN)
    from hieval import cli, commands  # noqa: F401  (commands imports every layer)
    tracer.end(index)
    unpinned = [v for v in getattr(cli, "_THREAD_VARS", ()) if os.environ.get(v) != "1"]
    if unpinned:
        raise RuntimeError(f"CLI thread variables not pinned by the runner: {unpinned}")
    tracer.install()
    code = cli.run(cli_args)
    wall = time.perf_counter() - start

    doc = {
        "exit_code": code,
        "wall_s": wall,
        "hieval_file": sys.modules["hieval"].__file__,
        "spans": tracer.spans,
        "counters": tracer.counters,
        "bindings": tracer.bindings,
    }
    with open(out_path, "w") as f:
        json.dump(doc, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
