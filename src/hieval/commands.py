"""Implementations behind the command-line subcommands.

Keeps the file plumbing in one place: open and check inputs, then read,
align, combine and rank them one block of rows at a time, evaluate, and write
outputs. Score files are softmaxed when they carry logits, and every output
write is atomic. Table rows report top-1 error rather than accuracy; report
files keep accuracy at full precision.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, replace

import numpy as np

from . import ensemble, fileio, hashing, procs, risk, synth
from . import taxonomy as tx
from .cli import integer, real
from .errors import (DimensionMismatch, DuplicateMethod, InputError, KTooLarge, LengthMismatch,
                     NonFiniteValue, ZeroDenominator)
from .metrics import EvalReport, _counts, eval_report
from .scores import (
    LOGITS,
    PROBABILITIES,
    ScoreMatrix,
    as_probabilities,
    block_rows,
    top_k,
)

# Every decision rule is a level source (where the coarse factor comes from)
# times a rank rule (order classes by score or by expected LCA cost).
METHODS = {
    "argmax": (None, "score"),
    "hie": ("coarse", "score"),
    "hie-self": ("self", "score"),
    "crm": (None, "cost"),
    "hie-crm": ("coarse", "cost"),
    "cascade": ("levels", "score"),
}

_KIND_FLAG = {"logits": LOGITS, "probs": PROBABILITIES, None: None}


def parse_ks(text: str) -> list[int]:
    try:
        ks = [integer(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise InputError(f"--k must be a comma list of integers, got {text!r}") from None
    if not ks or any(k < 1 for k in ks):
        raise InputError(f"--k values must be positive integers, got {text!r}")
    for k in ks:  # a table has a column per value, a report an entry per distinct one
        if ks.count(k) > 1:
            raise InputError(f"--k value {k} given twice")
    return ks


def parse_levels(entries) -> list[tuple[int, str]]:
    out = []
    for entry in entries or []:
        depth, sep, path = entry.partition("=")
        if not sep or not path:
            raise InputError(f"--level expects depth=path, got {entry!r}")
        try:
            d = integer(depth)
        except ValueError:
            raise InputError(f"--level depth must be an integer, got {depth!r}") from None
        if any(d == seen for seen, _ in out):
            # Cascading would multiply that level's factor in twice.
            raise InputError(f"--level depth {d} given twice")
        out.append((d, path))
    return out


def check_methods(methods: list[str]) -> None:
    if not methods:
        raise InputError("--methods must list at least one method")
    seen = set()
    for m in methods:
        if m in seen:
            raise DuplicateMethod(f"method {m!r} listed twice")
        seen.add(m)
        if m not in METHODS:
            raise InputError(f"unknown method {m!r}; choose from {', '.join(METHODS)}")


@dataclass
class MethodInputs:
    """The taxonomy and every given score file, opened and checked once.

    ``columns`` maps each reader to its ``fileio.column_order``, bound at open.
    ``uppers`` maps each level source the methods use, in method order, to the
    (reader, fine-column map) pairs multiplied into the fine row: the coarse
    file for ``"coarse"``, each ``--level`` file for ``"levels"``, none for
    ``None`` and ``"self"``. The files stay open for block-by-block reading;
    ``close`` (or leaving a ``with`` block) closes them.
    """

    taxonomy: tx.Taxonomy
    fine: fileio.ScoreReader
    uppers: dict[str | None, list[tuple[fileio.ScoreReader, np.ndarray]]]
    columns: dict[fileio.ScoreReader, tuple]

    def readers(self) -> list:
        return list(self.columns)  # opened in the order fine, coarse, levels

    def close(self) -> None:
        for reader in self.readers():
            reader.close()

    def __enter__(self) -> "MethodInputs":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def read(self, start: int, stop: int) -> dict:
        """Rows ``[start, stop)`` of every file as probabilities, by reader.

        Each block is read and checked, put in the taxonomy's column order
        as bound at open, and softmaxed (logits), file by file in the order
        fine, coarse, levels.
        """
        blocks = {}
        for reader, (perm, names) in self.columns.items():
            m = reader.read(start, stop)
            if perm is not None:  # np.take's copy is C-ordered, unlike m.values[:, perm]
                m = ScoreMatrix._adopt(np.take(m.values, perm, axis=1), m.kind, names, start)
            # Validated as read; no caller sees the block, so softmax it in place.
            blocks[reader] = as_probabilities(m, _in_place=True)
        return blocks


def load_method_inputs(args, methods: list[str]) -> MethodInputs:
    """Open every given score file and check everything that needs no rows.

    That is each file's header, kind and columns, bound to the taxonomy here
    once, the inputs each of ``methods`` needs, in method order (cascading
    needs a leveled tree), and that every file has the fine file's row count;
    rows are read only once all of that holds. Every given file is read,
    used or not.
    """
    t = fileio.load_hierarchy(args.hierarchy)
    level_paths = parse_levels(getattr(args, "level", None))
    for depth, _ in level_paths:
        if not 0 <= depth <= t.max_depth:
            raise InputError(f"--level depth {depth} outside [0, {t.max_depth}]")
        if depth == t.max_depth:
            # The deepest level holds only leaves; cascading it would square the fine row.
            raise InputError(f"--level depth {depth} is the leaf depth; leaf scores go in --fine")
    kind, columns = _KIND_FLAG[getattr(args, "kind", None)], {}

    with contextlib.ExitStack() as stack:
        def open_checked(path, level, flag):
            if path:
                reader = stack.enter_context(fileio.ScoreReader(path, kind))
                try:
                    columns[reader] = fileio.column_order(reader.class_names, t, level)
                except InputError as e:  # DuplicateClass, UnknownClass or MissingClass
                    what = f"depth-{level}" if isinstance(level, int) else level
                    e.args = (f"{path}: {e} ({flag} takes the {what} classes)",)
                    raise
                return reader

        fine = open_checked(getattr(args, "fine", None), "leaf", "--fine")
        coarse = open_checked(getattr(args, "coarse", None), "coarse", "--coarse")
        levels = [(d, open_checked(path, d, f"--level {d}")) for d, path in level_paths]
        if fine is None:
            raise InputError(f"method {methods[0]} requires --fine")
        uppers = {}
        for method in methods:
            source = METHODS[method][0]
            if source == "coarse":
                if coarse is None:
                    raise InputError(f"method {method} requires --coarse")
                uppers[source] = [(coarse, tx.parent_index_map(t))]
            elif source == "levels":
                if not levels:
                    raise InputError(f"method {method} requires at least one --level depth=path")
                # ancestor_index_map raises NonLeveledTree for unleveled trees
                uppers[source] = [(r, tx.ancestor_index_map(t, d)) for d, r in levels]
            else:
                uppers[source] = []
        if coarse is not None and coarse.n_rows != fine.n_rows:
            raise DimensionMismatch(f"fine has {fine.n_rows} samples, coarse has {coarse.n_rows}")
        for i, (_, reader) in enumerate(levels):
            if reader.n_rows != fine.n_rows:
                raise DimensionMismatch(
                    f"upper level {i} has {reader.n_rows} samples, fine has {fine.n_rows}"
                )
        stack.pop_all()
    return MethodInputs(t, fine, uppers, columns)


def run_methods(methods: list[str], inputs: MethodInputs, start: int = 0, stop: int | None = None):
    """Yield ``(method, ranked)`` in row order for each block of rows ``[start, stop)`` and method.

    ``ranked`` is a ScoreMatrix that ``top_k`` ranks: probabilities for
    score-ranked methods, negated expected costs (logits, see
    ``risk.crm_rerank``) for cost-ranked ones. A block holds about
    ``scores.BLOCK_ENTRIES`` fine entries. Each file's block is read once,
    and each level source in ``inputs.uppers`` is combined once per block and
    shared by its methods, so memory holds one block of each, never a whole matrix.
    """
    t, n = inputs.taxonomy, inputs.fine.n_rows if stop is None else stop
    step = block_rows(len(inputs.fine.class_names))
    for lo in range(start, n, step):
        blocks = inputs.read(lo, min(lo + step, n))
        fine = blocks[inputs.fine]
        for source, uppers in inputs.uppers.items():
            try:
                if source is None:
                    probs = fine
                elif source == "self":
                    probs = ensemble.hie_self(fine, tx.parent_index_map(t), t.n_coarse)
                else:
                    probs = ensemble.hie_combine(fine, [(blocks[r], amap) for r, amap in uppers])
            except ZeroDenominator as e:  # the fault is the product's: name each file in it
                e.args = (", ".join(r.path for r in [inputs.fine] + [r for r, _ in uppers])
                          + f": {e}",)
                raise
            for m in methods:
                if METHODS[m][0] == source:
                    yield m, probs if METHODS[m][1] == "score" else risk.crm_rerank(probs, t)


def _config_echo(args, ks) -> dict:
    """The config every report of one run shares; each input is hashed once.

    The digests come from the run's hashing child (``args.digests``), or,
    where it gave none, from ``hashing.digests`` here. A report's config is
    ``{"method": name, **echo}``.
    """
    levels, digests = parse_levels(getattr(args, "level", None)), None
    if args.digests:
        with contextlib.suppress(EOFError):  # it did not start, met a fault or ended first
            digests = args.digests.result()
    digests = digests or hashing.digests(args)
    inputs = {role: digests[path] for role, path in hashing.input_roles(args, levels)}
    kind = getattr(args, "kind", None) or "auto"
    return {"kind": kind, "levels": [d for d, _ in levels], "inputs": inputs, "ks": list(ks)}


def _fmt(x) -> str:
    return "-" if x is None else f"{x:.6f}"


def summary_row(r: EvalReport) -> str:
    cells = [r.method, _fmt(1.0 - r.top1_accuracy), _fmt(r.avg_mistake_severity)]
    cells += [_fmt(v) for _, v in sorted(r.hier_dist_at_k.items())]
    return "\t".join(cells)


def summary_header(ks) -> str:
    return "\t".join(["method", "top1_err", "severity"] + [f"hd@{k}" for k in sorted(ks)])


# ----------------------------------------------------------------- commands

def cmd_validate(args, out) -> int:
    t = fileio.load_hierarchy(args.hierarchy)
    leveled = "yes" if t.is_leveled() else "no"
    print(
        f"nodes={t.n_nodes} leaves={t.n_leaves} coarse={t.n_coarse} "
        f"depth={t.max_depth} leveled={leveled}",
        file=out,
    )
    return 0


def cmd_infer(args, out) -> int:
    """Write the method's ranked scores to ``--out`` and each row's top-1 leaf to the predictions.

    Rows are shared out as in ``_evaluate``; every process writes its blocks
    of a '.hies' file by position. Top-1 leaves are written as they pass
    while every earlier row's are, the rest in row order once all blocks are
    done. Text rows have no fixed width, so text stays in one process.
    """
    method = args.method or "argmax"
    check_methods([method])
    preds_path = args.preds_out or args.out + ".preds.txt"
    binary = args.out.endswith(".hies")
    taken = [args.out, fileio._names_sidecar(args.out)] if binary else [args.out]
    if os.path.abspath(preds_path) in map(os.path.abspath, taken):
        raise InputError(f"--preds-out {preds_path} would overwrite what --out {args.out} writes")
    with load_method_inputs(args, [method]) as inputs, fileio.renamed_together() as staged:
        caller, written = os.getpid(), 0  # rows whose predictions are written

        def write_all(write):
            with fileio.write_labels(inputs.taxonomy, preds_path, staged) as write_preds:
                def rows(start, stop):
                    nonlocal written
                    tops = []  # those not written yet; int32, 4 B a row through a worker's pipe
                    for _, ranked in run_methods([method], inputs, start, stop):
                        write(ranked)
                        top = top_k(ranked, 1)[:, 0]
                        if os.getpid() == caller and ranked.first_row == written:
                            write_preds(top)
                            written += ranked.n_samples
                        else:
                            tops.append(top.astype(np.int32))
                    return tops

                for tops in _in_workers(rows, inputs, args.workers if binary else 1):
                    for top in tops:
                        write_preds(top)

        fileio.save_scores(write_all, args.out, staged)
    print(f"wrote {args.out} and {preds_path}", file=out)
    return 0


# Enough that the processes finish close together, few enough that the results kept stay small;
# at most _MAX_RANGES 4-byte indices, which fit a pipe's smallest buffer, one page.
_RANGES_PER_PROCESS, _MAX_RANGES = 32, 1024


def _in_workers(work, inputs: MethodInputs, workers: int) -> list:
    """``work(start, stop)`` for block 0, then each row range after it; the results in row order.

    Block 0 runs first, so that the workers forked after it inherit its caches.
    A range is as many consecutive blocks as keep the ranges to
    ``_RANGES_PER_PROCESS`` a process and ``_MAX_RANGES`` in all. This process
    (its first range before any fork) and up to ``workers - 1`` workers
    (``procs.Child``), one per 8 blocks after block 0, take the ranges in order
    from a pipe of their indices, so a process that gets less CPU time takes
    fewer; a worker first re-opens the readers (``ScoreReader.reopen``), and where
    it cannot, takes none. A process stops at its first error and empties the
    queue; a worker then sends what it has. Ranges that no worker sent back run
    here in row order, up to this process's own first error, so the error raised
    is the first a single process meets. Every worker is killed and reaped.
    """
    n = inputs.fine.n_rows
    step = block_rows(len(inputs.fine.class_names))
    left = -(-n // step) - 1  # blocks after block 0
    n_procs = min(workers, 1 + left // 8)
    span = step * (-(-left // min(_MAX_RANGES, _RANGES_PER_PROCESS * n_procs)) or 1)
    ranges = [(0, min(step, n))] + [(lo, min(n, lo + span)) for lo in range(step, n, span)]
    done = {0: work(*ranges[0])}
    queue, fill = os.pipe()
    os.write(fill, np.arange(1, len(ranges), dtype="<u4").tobytes())
    os.close(fill)

    def take(first=b""):
        results = {}
        while index := first or os.read(queue, 4):
            first, i = b"", int.from_bytes(index, "little")
            try:
                results[i] = work(*ranges[i])
            except Exception as e:
                while os.read(queue, 4 * _MAX_RANGES):
                    pass
                return results, (i, e)
        return results, None

    def worker():
        for reader in inputs.readers():
            reader.reopen()  # where this raises, the worker takes no range and sends nothing
        return take()[0]

    children = []
    try:
        first = os.read(queue, 4)
        for _ in range(n_procs - 1):
            child = procs.Child(worker)
            if not child.pid:  # no process can start: those running take every range left
                break
            children.append(child)
        mine, fault = take(first)
        done.update(mine)
        if fault and fault[0] == len(done):  # this process ran every range before it
            raise fault[1]
        for child in children:
            with contextlib.suppress(EOFError):  # it met a fault or ended without a result
                done.update(child.result())
        end, error = fault or (len(ranges), None)
        for i in range(end):
            if i not in done:  # a worker took it and sent no result for it
                done[i] = work(*ranges[i])
        if error is not None:
            raise error
        return [done[i] for i in range(len(ranges))]
    finally:
        os.close(queue)
        for child in children:  # a worker whose result was read has nothing left to do
            child.close()


def _evaluate(args, methods: list[str], ks) -> list[EvalReport]:
    """One report per method, in the order given; inputs are hashed once.

    The labels are read and counted before any row; then each block's top
    max(ks) classes per row are ranked, scored and added to its method's report,
    in the processes that ``_in_workers`` shares the blocks out to.
    """
    k, totals = max(ks), {}
    with load_method_inputs(args, methods) as inputs:
        t, n = inputs.taxonomy, inputs.fine.n_rows
        gt = fileio.load_labels(args.labels, t)
        if gt.size != n:
            raise LengthMismatch(f"{n} predictions vs {gt.size} labels")

        def tally(start, stop):
            part = {}
            for m, ranked in run_methods(methods, inputs, start, stop):
                rows = gt[ranked.first_row:ranked.first_row + ranked.n_samples]
                block = _counts(top_k(ranked, k), rows, t, ks, m)
                part[m] = part[m] + block if m in part else block
            return part

        for part in _in_workers(tally, inputs, args.workers):
            for m, block in part.items():
                totals[m] = totals[m] + block if m in totals else block
    echo = _config_echo(args, ks)
    return [replace(totals[m], config={"method": m, **echo}) for m in methods]


def cmd_eval(args, out) -> int:
    if args.method:
        check_methods([args.method])
    ks = parse_ks(args.k)
    if getattr(args, "preds", None):
        for flag in ("fine", "coarse", "level", "kind"):  # a predictions file is read alone
            if getattr(args, flag, None) is not None:
                raise InputError(f"--preds takes no --{flag}")
        if max(ks) > 1:
            raise KTooLarge(
                f"k={max(ks)} needs a ranking, but predictions file {args.preds} "
                "ranks one class per row, so only k=1 applies"
            )
        t = fileio.load_hierarchy(args.hierarchy)
        gt = fileio.load_labels(args.labels, t)
        pred = fileio.load_labels(args.preds, t)
        method = args.method or "preds"
        config = {"method": method, **_config_echo(args, ks)}
        report = eval_report(pred.reshape(-1, 1), gt, t, ks, method, config=config)
    else:
        [report] = _evaluate(args, [args.method or "argmax"], ks)
    if args.out:
        fileio.write_report(report, args.out)
    print(summary_row(report), file=out)
    return 0


def cmd_compare(args, out) -> int:
    ks = parse_ks(args.k)
    methods = [m.strip() for m in args.methods.split(",") if m.strip()]
    check_methods(methods)
    reports = _evaluate(args, methods, ks)
    print(summary_header(ks), file=out)
    for r in reports:
        print(summary_row(r), file=out)
    if args.out:
        fileio.write_report_list(reports, args.out)
    return 0


def cmd_costs(args, out) -> int:
    t = fileio.load_hierarchy(args.hierarchy)
    names, step = t.leaf_names(), block_rows(t.n_leaves)

    def block(lo):  # rows [lo, lo + step); no whole matrix is held
        return ScoreMatrix._adopt(tx.cost_matrix(t, slice(lo, lo + step)).astype(np.float64),
                                  LOGITS, names, lo)

    fileio.save_scores(map(block, range(0, t.n_leaves, step)), args.out)
    print(f"wrote {args.out}", file=out)
    return 0


def _comma_list(text: str, parse, flag: str) -> tuple:
    try:
        return tuple(parse(x) for x in text.split(","))
    except ValueError:
        raise InputError(
            f"{flag} must be a comma list of {parse.__name__} values, got {text!r}"
        ) from None


def cmd_synth(args, out) -> int:
    cfg = synth.SynthConfig(
        branching=_comma_list(args.branching, integer, "--branching"),
        n_samples=args.n_samples,
        noise=_comma_list(args.noise, real, "--noise"),
        seed=args.seed,
    )
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as e:
        raise InputError(f"cannot create --out-dir {args.out_dir!r}: {e.strerror or e}") from e
    t = synth.gen_taxonomy(cfg)
    labels, levels = synth.gen_instance(cfg, t)

    paths = {"hierarchy": "hierarchy.json", "labels": "labels.txt", "fine": "fine.hies"}
    paths.update((f"level{d}", f"level_d{d}.hies") for d in range(1, cfg.n_levels))
    manifest = {
        "branching": list(cfg.branching),
        "noise": list(cfg.noise),
        "n_samples": cfg.n_samples,
        "seed": cfg.seed,
        "margin": synth.MARGIN,
        "rng": synth.RNG_ALGORITHM,
        "files": paths,
    }
    # Nothing is renamed into place until every file is written, the manifest
    # last, so a failure leaves no new file in the directory.
    with fileio.renamed_together() as staged:
        fileio.save_hierarchy(t, os.path.join(args.out_dir, paths["hierarchy"]), staged)
        step = block_rows(t.n_leaves)
        with fileio.write_labels(t, os.path.join(args.out_dir, paths["labels"]), staged) as write:
            for start in range(0, cfg.n_samples, step):
                write(labels[start:start + step])
        # Each level's blocks are written as they are drawn, topmost level first.
        for depth, blocks in enumerate(levels, start=1):
            name = paths["fine"] if depth == cfg.n_levels else paths[f"level{depth}"]
            path = os.path.join(args.out_dir, name)
            try:
                fileio.save_scores(blocks, path, staged)
            except NonFiniteValue as e:  # a huge noise scale can overflow
                e.args = (f"{path}: {e}",)
                raise
        fileio.write_json(manifest, os.path.join(args.out_dir, "manifest.json"), staged)
    print(f"wrote synthetic instance to {args.out_dir}", file=out)
    return 0
