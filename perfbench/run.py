"""hieval benchmark: real CLI invocations on seeded synthetic workloads.

Run from the repository root:

    python3 perfbench/run.py --workload compare-inat --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py            # every workload, seed 1, untraced

Load model: one closed-loop client. The harness starts one
``python -m hieval ...`` child at a time from ``src/`` and waits for it; the
CLI pins BLAS to one thread. Per run:

1. Set-up: ``hieval synth`` writes the workload's inputs from ``--seed``,
   several times; ``setup_s`` is the median. The program sees only these
   generated files.
2. One untimed invocation warms the page cache (the benchmark never drops
   it: that changes machine-wide state) and fixes the reference outputs.
3. Timed invocations follow back to back until ``--seconds`` have passed.
   Wall time, user+sys time and peak RSS come from ``os.wait4`` on each
   child's own pid.

Correctness gate: an invocation fails when it exits non-zero, when its
outputs differ by one byte from the warm-up's, or when the warm-up's outputs
break an invariant or differ from the digests stored in
``references.json`` for this seed. The invariants hold for every seed: each
report has ``hd@1 == (1 - top1_accuracy) * severity`` within 1e-12 and
echoes the sha256 of its inputs; ``combined.hies`` rows sum to 1 within 1e-9;
the predictions file has one line per sample, the argmax of its row.

With ``--trace 1`` the run then repeats set-up and the workload once each
under ``traced.py``, which wraps the package's layer functions from outside
``src/``, and reports per-layer self times, call counts and computed counts
instead of the end-to-end metrics. Traced outputs must be byte-identical to
the untraced ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. MB means 2**20 bytes.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import struct
import subprocess
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import traced  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
REFERENCES = os.path.join(HERE, "references.json")

DEFAULT_SEED = 1
DEFAULT_SECONDS = 25
SETUP_REPEATS = 5
CHILD_TIMEOUT_S = 60.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    synth: tuple[str, ...]  # synth options other than --seed and --out-dir
    command: tuple[str, ...]  # hieval arguments; inputs under in/, outputs under out/
    outputs: tuple[str, ...]

    @property
    def rows(self) -> int:
        return int(self.synth[self.synth.index("--n-samples") + 1])

    def input_roles(self) -> dict[str, str]:
        """Input paths by the role name a report's config echoes them under."""
        roles = {}
        for flag, value in zip(self.command, self.command[1:]):
            if flag in ("--hierarchy", "--fine", "--coarse", "--labels"):
                roles[flag[2:]] = value
            elif flag == "--level":
                depth, _, path = value.partition("=")
                roles[f"level{depth}"] = path
        return roles


# Sizes keep one invocation near 1.5-2.5 s on a 2-core machine, so that a 25 s
# run holds 10-20 samples and a whole run with set-up stays near 35 s.
_COMMON = ("--hierarchy", "in/hierarchy.json", "--fine", "in/fine.hies", "--kind", "logits")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="compare-inat",
            why="Headline compare of all 5 methods on 1008 iNat19-like leaves: ranking-bound, "
            "with the redundant hashing, risk and combine work the method pipeline targets.",
            synth=("--branching", "8,9,14", "--noise", "0.5,1.0,2.0", "--n-samples", "2000"),
            command=("compare", *_COMMON, "--coarse", "in/level_d2.hies", "--labels", "in/labels.txt",
                     "--methods", "argmax,hie,hie-self,crm,hie-crm", "--k", "1,5,20",
                     "--out", "out/table.json"),
            outputs=("out/table.json",),
        ),
        Workload(
            name="crm-5k",
            why="CRM eval on 5,000 leaves: the dense n-squared cost matrix and risk matmul dominate "
            "time and RSS, where hierarchy-native kernels should win.",
            synth=("--branching", "10,10,50", "--noise", "0.5,1.0,2.0", "--n-samples", "100"),
            command=("eval", *_COMMON, "--labels", "in/labels.txt", "--method", "crm",
                     "--k", "1,5,20", "--out", "out/report.json"),
            outputs=("out/report.json",),
        ),
        Workload(
            name="cascade-tall",
            why="Four-level cascade infer over many narrow rows: file reads and writes, softmax and "
            "combine; no hashing or cost matrix, so it bypasses those changes.",
            synth=("--branching", "4,4,4,4", "--noise", "0.5,1.0,1.5,2.0", "--n-samples", "40000"),
            command=("infer", *_COMMON, "--level", "1=in/level_d1.hies", "--level", "2=in/level_d2.hies",
                     "--level", "3=in/level_d3.hies", "--method", "cascade", "--out", "out/combined.hies"),
            outputs=("out/combined.hies", "out/combined.hies.names.json",
                     "out/combined.hies.preds.txt"),
        ),
    )
}

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("wall_s_tail", "s"),
    ("cpu_s", "s"),
    ("rows_per_s", "rows/s"),
    ("peak_rss_mb", "MB"),
)

_UNIT_BY_SUFFIX = {"_s": "s", "_calls": "count", "_mb": "MB", "_gflop": "GFLOP"}


def per_layer_names() -> list[str]:
    names = [f"{span}{suffix}" for span in traced.SPAN_NAMES for suffix in ("_s", "_calls")]
    names += ["cli.import_s", "commands.untraced_s", "trace.wall_s", "trace.overhead_s"]
    return names + list(traced.COUNTERS)


def unit_of(metric: str) -> str:
    return next(u for suffix, u in _UNIT_BY_SUFFIX.items() if metric.endswith(suffix))


class BenchError(Exception):
    """The workload could not be set up or run at all; no result is printed."""


@dataclass
class Invocation:
    wall_s: float
    cpu_s: float
    rss_mb: float
    exit_code: int


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


def invoke(argv: list[str], cwd: str, log_path: str) -> Invocation:
    """Run one child to completion; rusage comes from wait4 on its own pid."""
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=_child_env(), stdout=log, stderr=subprocess.STDOUT)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, proc.returncode)


def hieval_argv(args) -> list[str]:
    return [sys.executable, "-m", "hieval", *args]


def traced_argv(spans_path: str, args) -> list[str]:
    return [sys.executable, os.path.join(HERE, "traced.py"), spans_path, "--", *args]


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return "sha256:" + h.hexdigest()


def digests(root: str, rel_paths) -> dict[str, str | None]:
    out = {}
    for rel in rel_paths:
        path = os.path.join(root, rel)
        out[rel] = sha256_file(path) if os.path.exists(path) else None
    return out


def input_files(work: str) -> list[str]:
    return sorted(os.path.join("in", n) for n in os.listdir(os.path.join(work, "in")))


def reset_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def clear_outputs(w: Workload, work: str) -> None:
    for rel in w.outputs:
        path = os.path.join(work, rel)
        if os.path.exists(path):
            os.remove(path)


def load_references() -> dict:
    with open(REFERENCES) as f:
        return json.load(f)


# ------------------------------------------------------------- invariants

def _check_report(doc: dict, w: Workload, input_digests: dict) -> list[str]:
    problems = []
    name = doc.get("method", "?")
    if doc["n_samples"] != w.rows:
        problems.append(f"{name}: n_samples {doc['n_samples']} != {w.rows}")
    hd1 = doc["hier_dist_at_k"]["1"]
    severity = doc["avg_mistake_severity"]
    expected = 0.0 if severity is None else (1.0 - doc["top1_accuracy"]) * severity
    if abs(hd1 - expected) > 1e-12:
        problems.append(f"{name}: hd@1 {hd1!r} != (1 - top1) * severity {expected!r}")
    want = {role: input_digests[path] for role, path in w.input_roles().items()}
    if doc["config"]["inputs"] != want:
        problems.append(f"{name}: config.inputs does not match the input files' sha256")
    return problems


def _read_hies(path: str):
    with open(path, "rb") as f:
        raw = f.read()
    magic, version, kind, rows, cols = struct.unpack_from("<4sBBII", raw)
    if (magic, version) != (b"HIES", 1) or len(raw) != 14 + 8 * rows * cols:
        raise ValueError(f"{path}: not a version-1 HIES file of {rows}x{cols}")
    with open(path + ".names.json") as f:
        names = json.load(f)["class_names"]
    return kind, np.frombuffer(raw, dtype="<f8", offset=14).reshape(rows, cols), names


def check_outputs(w: Workload, work: str, input_digests: dict) -> list[str]:
    """Invariants every seed's outputs satisfy; returns the problems found."""
    problems = []
    combined = {}
    for rel in w.outputs:
        path = os.path.join(work, rel)
        if rel.endswith(".json") and not rel.endswith(".names.json"):
            with open(path) as f:
                doc = json.load(f)
            for report in doc.get("reports", [doc]):
                problems += _check_report(report, w, input_digests)
        elif rel.endswith(".hies"):
            kind, values, names = _read_hies(path)
            combined[rel] = (values, names)
            if kind != 1 or values.shape[0] != w.rows or len(names) != values.shape[1]:
                problems.append(f"{rel}: kind {kind}, shape {values.shape}, {len(names)} names")
            worst = float(np.abs(values.sum(axis=1) - 1.0).max())
            if worst > 1e-9:
                problems.append(f"{rel}: a row sums to 1 {worst:+.3g}")
        elif rel.endswith(".preds.txt"):
            values, names = combined[rel.removesuffix(".preds.txt")]
            with open(path) as f:
                lines = f.read().split("\n")
            if lines[-1] != "" or len(lines) - 1 != w.rows:
                problems.append(f"{rel}: {len(lines) - 1} lines for {w.rows} samples")
            elif lines[:-1] != [names[i] for i in values.argmax(axis=1)]:
                problems.append(f"{rel}: predictions differ from the argmax of each combined row")
    return problems


# ------------------------------------------------------------- statistics

def tail(samples: list[float]) -> tuple[float, str]:
    """The highest percentile with at least ten samples beyond it, but never below the median.

    Fewer than 21 samples support no percentile above the median, so the tail is then the median.
    """
    xs = sorted(samples)
    n = len(xs)
    if n >= 21:
        i = n - 11
        return xs[i], f"p{100 * i / (n - 1):.0f} of {n} samples, ten beyond it"
    return statistics.median(xs), f"median of {n} samples; no higher percentile has ten beyond it"


def layer_metrics(doc: dict, synth_doc: dict, traced_wall: float, untraced_wall: float) -> dict:
    """Self time and calls per span name, plus import, uncovered time and counters."""

    def self_times(d):
        spans = d["spans"]
        covered = [0.0] * len(spans)
        for s in spans:
            if s["parent"] is not None:
                covered[s["parent"]] += s["end"] - s["start"]
        totals: dict[str, list] = {}
        for s, child in zip(spans, covered):
            entry = totals.setdefault(s["name"], [0.0, 0])
            entry[0] += s["end"] - s["start"] - child
            entry[1] += 1
        return totals

    work, setup = self_times(doc), self_times(synth_doc)
    out = {}
    for span in traced.SPAN_NAMES:
        self_s, calls = (setup if span.startswith("synth.") else work).get(span, (0.0, 0))
        out[f"{span}_s"], out[f"{span}_calls"] = self_s, calls
    top_level = sum(s["end"] - s["start"] for s in doc["spans"] if s["parent"] is None)
    out["cli.import_s"] = work[traced.IMPORT_SPAN][0]
    out["commands.untraced_s"] = doc["wall_s"] - top_level
    out["trace.wall_s"] = traced_wall
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out.update(doc["counters"])
    return out


def top_level_share(doc: dict) -> float:
    return sum(s["end"] - s["start"] for s in doc["spans"] if s["parent"] is None) / doc["wall_s"]


# ------------------------------------------------------------------- runs

def setup(w: Workload, seed: int, work: str, repeats: int = SETUP_REPEATS) -> list[float]:
    """Generate the inputs ``repeats`` times; returns the synth wall times."""
    times, first = [], None
    for _ in range(repeats):
        reset_dir(os.path.join(work, "in"))
        args = ["synth", *w.synth, "--seed", str(seed), "--out-dir", "in"]
        inv = invoke(hieval_argv(args), work, os.path.join(work, "synth.log"))
        if inv.exit_code != 0:
            raise BenchError(f"{w.name}: synth exited {inv.exit_code}; see {work}/synth.log")
        times.append(inv.wall_s)
        current = digests(work, input_files(work))
        if first is not None and current != first:
            raise BenchError(f"{w.name}: synth wrote different inputs for the same seed")
        first = current
    return times


def run_traced(w: Workload, seed: int, work: str, untraced_wall: float) -> tuple[dict, dict, float]:
    """Set-up and the workload once each under traced.py; returns (workload doc, synth doc, wall)."""
    synth_spans = os.path.join(work, "synth_spans.json")
    reset_dir(os.path.join(work, "trace_in"))
    args = ["synth", *w.synth, "--seed", str(seed), "--out-dir", "trace_in"]
    if invoke(traced_argv(synth_spans, args), work, os.path.join(work, "trace.log")).exit_code != 0:
        raise BenchError(f"{w.name}: traced synth failed; see {work}/trace.log")
    spans = os.path.join(work, "spans.json")
    clear_outputs(w, work)
    inv = invoke(traced_argv(spans, w.command), work, os.path.join(work, "trace.log"))
    if inv.exit_code != 0:
        raise BenchError(f"{w.name}: traced run failed; see {work}/trace.log")
    docs = []
    for path in (spans, synth_spans):
        with open(path) as f:
            docs.append(json.load(f))
    if not docs[0]["hieval_file"].startswith(SRC + os.sep):
        raise BenchError(f"traced run imported hieval from {docs[0]['hieval_file']}, not {SRC}")
    return docs[0], docs[1], inv.wall_s


def run_workload(w: Workload, seed: int, seconds: float, trace: bool, out) -> dict:
    if not os.path.isdir(os.path.join(SRC, "hieval")):
        raise BenchError(f"no hieval package under {SRC}")
    work = os.path.join(WORK, w.name)
    reset_dir(work)
    os.makedirs(os.path.join(work, "out"))
    setup_times = setup(w, seed, work)
    input_digests = digests(work, input_files(work))
    log = os.path.join(work, "run.log")

    warm = invoke(hieval_argv(w.command), work, log)
    if warm.exit_code != 0:
        raise BenchError(f"{w.name}: warm-up invocation exited {warm.exit_code}; see {log}")
    expected = digests(work, w.outputs)
    problems = check_outputs(w, work, input_digests)
    reference = load_references().get(w.name, {}).get(str(seed))
    if reference is not None and reference != expected:
        bad = sorted(k for k in expected if expected[k] != reference.get(k))
        problems.append(f"outputs differ from the stored reference for seed {seed}: {bad}")

    runs, failed = [], 0
    deadline = time.perf_counter() + seconds
    while not runs or time.perf_counter() < deadline:
        clear_outputs(w, work)
        inv = invoke(hieval_argv(w.command), work, log)
        runs.append(inv)
        if problems or inv.exit_code != 0 or digests(work, w.outputs) != expected:
            failed += 1

    attempted = len(runs)
    wall = statistics.median(r.wall_s for r in runs)
    tail_s, tail_note = tail([r.wall_s for r in runs])
    print(f"workload {w.name}  seed {seed}  rows {w.rows}  trace {int(trace)}", file=out)
    if reference is None:
        print(f"  no stored reference digests for seed {seed}; invariants checked", file=out)

    if trace:
        doc, synth_doc, traced_wall = run_traced(w, seed, work, wall)
        attempted += 1
        traced_inputs = digests(work, [p.replace("in/", "trace_in/", 1) for p in input_digests])
        if list(traced_inputs.values()) != list(input_digests.values()):
            problems.append("traced synth wrote different inputs than untraced synth")
        if digests(work, w.outputs) != expected:
            problems.append("traced outputs differ from the untraced ones")
        if problems:
            failed += 1
        metrics = layer_metrics(doc, synth_doc, traced_wall, wall)
        print(f"  top-level spans cover {100 * top_level_share(doc):.1f}% of the traced wall time",
              file=out)
        print("  counts marked MB and GFLOP are computed from shapes and file sizes", file=out)
    else:
        metrics = {
            "setup_s": statistics.median(setup_times),
            "wall_s": wall,
            "wall_s_tail": tail_s,
            "cpu_s": statistics.median(r.cpu_s for r in runs),
            "rows_per_s": w.rows / wall,
            "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        }
        print(f"  wall_s_tail is the {tail_note}", file=out)
        print(f"  setup_s is the median of {len(setup_times)} synth runs", file=out)
    for p in problems:
        print(f"  FAILED CHECK: {p}", file=out)
    print(f"  failed_ratio {failed}/{attempted} = {failed / attempted:.4g}", file=out)
    units = dict(END_TO_END)
    result = {name: {"value": value, "unit": units.get(name) or unit_of(name)}
              for name, value in metrics.items()}
    for name, m in result.items():
        print(f"  {name:<34} {m['value']:>14.6g} {m['unit']}", file=out)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": result}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so that the running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {n: run_workload(WORKLOADS[n], args.seed, args.seconds, bool(args.trace), sys.stdout)
                   for n in names}
    except BenchError as e:
        print(f"benchmark error: {e}", file=sys.stderr)
        return 1
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
