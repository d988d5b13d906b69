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

from . import ensemble, fileio, risk, synth
from . import taxonomy as tx
from .errors import (DimensionMismatch, DuplicateMethod, InputError, KTooLarge, LengthMismatch,
                     ZeroDenominator)
from .metrics import EvalReport, eval_report
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
        ks = [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise InputError(f"--k must be a comma list of integers, got {text!r}") from None
    if not ks or any(k < 1 for k in ks):
        raise InputError(f"--k values must be positive integers, got {text!r}")
    return ks


def parse_levels(entries) -> list[tuple[int, str]]:
    out = []
    for entry in entries or []:
        depth, sep, path = entry.partition("=")
        if not sep or not path:
            raise InputError(f"--level expects depth=path, got {entry!r}")
        try:
            d = int(depth)
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

    The files stay open for block-by-block reading; ``close`` (or leaving a
    ``with`` block) closes them.
    """

    taxonomy: tx.Taxonomy
    fine: fileio.ScoreReader | None
    coarse: fileio.ScoreReader | None
    levels: list[tuple[int, fileio.ScoreReader]]

    def close(self) -> None:
        for reader in [self.fine, self.coarse] + [r for _, r in self.levels]:
            if reader is not None:
                reader.close()

    def __enter__(self) -> "MethodInputs":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def read(self, start: int, stop: int):
        """Rows ``[start, stop)`` of every file as probabilities: (fine, coarse, [(depth, m)]).

        Each block is read, checked, aligned to the taxonomy and softmaxed
        (logits), file by file in the order fine, coarse, levels.
        """
        t = self.taxonomy

        def block(reader, level):
            if reader is None:
                return None
            raw = fileio.load_scores(reader.path, rows=(start, stop), reader=reader)
            # Validated as read; no caller sees the block, so softmax it in place.
            return as_probabilities(fileio.align_columns(raw, t, level), _in_place=True)

        return (
            block(self.fine, "leaf"),
            block(self.coarse, "coarse"),
            [(d, block(r, d)) for d, r in self.levels],
        )


def load_method_inputs(args, methods: list[str]) -> MethodInputs:
    """Open every given score file and check everything that needs no rows.

    That is each file's header, kind and columns, the inputs ``methods``
    need, and that every file has the fine file's row count; rows are read
    only once all of that holds. Every given file is read, used or not.
    """
    t = fileio.load_hierarchy(args.hierarchy)
    level_paths = parse_levels(getattr(args, "level", None))
    for depth, _ in level_paths:
        if not 0 <= depth <= t.max_depth:
            raise InputError(f"--level depth {depth} outside [0, {t.max_depth}]")
        if depth == t.max_depth:
            # The deepest level holds only leaves; cascading it would square the fine row.
            raise InputError(f"--level depth {depth} is the leaf depth; leaf scores go in --fine")
    kind = _KIND_FLAG[getattr(args, "kind", None)]

    with contextlib.ExitStack() as stack:
        def open_checked(path, level):
            if path:
                reader = stack.enter_context(fileio.ScoreReader(path, kind))
                fileio.column_order(reader.class_names, t, level)
                return reader

        fine = open_checked(getattr(args, "fine", None), "leaf")
        coarse = open_checked(getattr(args, "coarse", None), "coarse")
        levels = [(d, open_checked(path, d)) for d, path in level_paths]
        inputs = MethodInputs(t, fine, coarse, levels)
        _check_sources(methods, inputs)
        stack.pop_all()
    return inputs


def _check_sources(methods: list[str], inputs: MethodInputs) -> None:
    t, fine = inputs.taxonomy, inputs.fine
    if fine is None:
        raise InputError(f"method {methods[0]} requires --fine")
    for method in methods:
        source = METHODS[method][0]
        if source == "coarse" and inputs.coarse is None:
            raise InputError(f"method {method} requires --coarse")
        if source == "levels":
            if not inputs.levels:
                raise InputError(f"method {method} requires at least one --level depth=path")
            for d, _ in inputs.levels:
                tx.ancestor_index_map(t, d)  # raises NonLeveledTree for unleveled trees
    if inputs.coarse is not None and inputs.coarse.n_rows != fine.n_rows:
        raise DimensionMismatch(
            f"fine has {fine.n_rows} samples, coarse has {inputs.coarse.n_rows}"
        )
    for i, (_, reader) in enumerate(inputs.levels):
        if reader.n_rows != fine.n_rows:
            raise DimensionMismatch(
                f"upper level {i} has {reader.n_rows} samples, fine has {fine.n_rows}"
            )


def _combined(source, t: tx.Taxonomy, fine, coarse, levels) -> ScoreMatrix:
    """One block's fine probabilities combined with the factor that ``source`` names."""
    if source is None:
        return fine
    if source == "self":
        return ensemble.hie_self(fine, tx.parent_index_map(t), t.n_coarse)
    if source == "coarse":
        return ensemble.hie_combine(fine, [(coarse, tx.parent_index_map(t))])
    return ensemble.hie_combine(fine, [(m, tx.ancestor_index_map(t, d)) for d, m in levels])


def run_methods(methods: list[str], inputs: MethodInputs):
    """Yield ``(method, ranked)`` for every block of rows, in row order, and every method.

    ``ranked`` is a ScoreMatrix that ``top_k`` ranks: probabilities for
    score-ranked methods, negated expected costs (logits, see
    ``risk.crm_rerank``) for cost-ranked ones. A block holds about
    ``scores.BLOCK_ENTRIES`` fine entries. Each file's block is read once,
    and each level source is combined once per block and shared by its
    methods, so memory holds one block of each, never a whole matrix.
    """
    t, n = inputs.taxonomy, inputs.fine.n_rows
    sources = dict.fromkeys(METHODS[m][0] for m in methods)
    step = block_rows(len(inputs.fine.class_names))
    for start in range(0, n, step):
        fine, coarse, levels = inputs.read(start, min(start + step, n))
        for source in sources:
            try:
                probs = _combined(source, t, fine, coarse, levels)
            except ZeroDenominator as e:  # the fault is the product's: name each file in it
                uppers = {"self": [], "coarse": [inputs.coarse]}.get(
                    source, [r for _, r in inputs.levels])
                e.args = (", ".join(r.path for r in [inputs.fine, *uppers]) + f": {e}",)
                raise
            for m in methods:
                if METHODS[m][0] == source:
                    yield m, probs if METHODS[m][1] == "score" else risk.crm_rerank(probs, t)


def _config_echo(args, ks) -> dict:
    """The config every report of one run shares; each input is hashed once.

    A report's config is ``{"method": name, **echo}``.
    """
    levels = parse_levels(getattr(args, "level", None))
    inputs = {}
    for role in ("hierarchy", "fine", "coarse", "labels"):
        path = getattr(args, role, None)
        if path:
            inputs[role] = fileio.sha256_digest(path)
    for depth, path in levels:
        inputs[f"level{depth}"] = fileio.sha256_digest(path)
    preds = getattr(args, "preds", None)
    if preds:
        inputs["preds"] = fileio.sha256_digest(preds)
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
    method = args.method or "argmax"
    check_methods([method])
    preds_path = args.preds_out or args.out + ".preds.txt"
    with load_method_inputs(args, [method]) as inputs, contextlib.ExitStack() as undo:
        def blocks():
            with fileio.write_labels(inputs.taxonomy, preds_path) as write_preds:
                for _, ranked in run_methods([method], inputs):
                    write_preds(top_k(ranked, 1)[:, 0])
                    yield ranked
            # Renamed into place before the scores file, and removed again if
            # that fails, so a failing write of either leaves neither behind.
            undo.callback(os.remove, preds_path)

        # Closed on a failed scores write, which removes the predictions' temp file.
        with contextlib.closing(blocks()) as stream:
            fileio.save_scores(stream, args.out)
        undo.pop_all()
    print(f"wrote {args.out} and {preds_path}", file=out)
    return 0


def _evaluate(args, methods: list[str], ks) -> list[EvalReport]:
    """One report per method, in the order given; inputs are hashed once.

    The labels are read and counted before any row; then each block's top
    max(ks) classes per row are ranked, scored and added to its method's report.
    """
    k, totals = max(ks), {}
    with load_method_inputs(args, methods) as inputs:
        t, n = inputs.taxonomy, inputs.fine.n_rows
        gt = fileio.load_labels(args.labels, t)
        if gt.size != n:
            raise LengthMismatch(f"{n} predictions vs {gt.size} labels")
        for m, ranked in run_methods(methods, inputs):
            rows = gt[ranked.first_row:ranked.first_row + ranked.n_samples]
            block = eval_report(top_k(ranked, k), rows, t, ks, m)
            totals[m] = totals[m] + block if m in totals else block
    echo = _config_echo(args, ks)
    return [replace(totals[m], config={"method": m, **echo}) for m in methods]


def cmd_eval(args, out) -> int:
    if args.method:
        check_methods([args.method])
    ks = parse_ks(args.k)
    if getattr(args, "preds", None):
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
    costs = tx.cost_matrix(t)
    matrix = ScoreMatrix(costs.astype(np.float64), LOGITS, t.leaf_names())
    fileio.save_scores(matrix, args.out)
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
        branching=_comma_list(args.branching, int, "--branching"),
        n_samples=args.n_samples,
        noise=_comma_list(args.noise, float, "--noise"),
        seed=args.seed,
    )
    try:
        os.makedirs(args.out_dir, exist_ok=True)
    except OSError as e:
        raise InputError(f"cannot create --out-dir {args.out_dir!r}: {e.strerror or e}") from e
    t = synth.gen_taxonomy(cfg)
    labels, levels = synth.gen_instance(cfg, t)

    paths = {"hierarchy": "hierarchy.json", "labels": "labels.txt", "fine": "fine.hies"}
    fileio.save_hierarchy(t, os.path.join(args.out_dir, paths["hierarchy"]))
    step = block_rows(t.n_leaves)
    with fileio.write_labels(t, os.path.join(args.out_dir, paths["labels"])) as write:
        for start in range(0, cfg.n_samples, step):
            write(labels[start:start + step])
    paths.update((f"level{d}", f"level_d{d}.hies") for d in range(1, cfg.n_levels))
    # Each level's blocks are written as they are drawn, topmost level first.
    for depth, blocks in enumerate(levels, start=1):
        name = paths["fine"] if depth == cfg.n_levels else paths[f"level{depth}"]
        fileio.save_scores(blocks, os.path.join(args.out_dir, name))

    manifest = {
        "branching": list(cfg.branching),
        "noise": list(cfg.noise),
        "n_samples": cfg.n_samples,
        "seed": cfg.seed,
        "margin": synth.MARGIN,
        "rng": synth.RNG_ALGORITHM,
        "files": paths,
    }
    fileio.write_json(manifest, os.path.join(args.out_dir, "manifest.json"))
    print(f"wrote synthetic instance to {args.out_dir}", file=out)
    return 0
