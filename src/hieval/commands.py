"""Implementations behind the command-line subcommands.

Keeps the file plumbing in one place: load and align inputs, apply a decision
rule, evaluate, and write outputs. Score files are softmaxed when they carry
logits, and every output write is atomic. Table rows report top-1 error
rather than accuracy; report files keep accuracy at full precision.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from . import ensemble, fileio, risk, synth
from . import taxonomy as tx
from .errors import DuplicateMethod, InputError, KTooLarge
from .metrics import EvalReport, eval_report
from .scores import LOGITS, PROBABILITIES, ScoreMatrix, argmax_rows, as_probabilities

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
    """Everything a decision rule may need, loaded and aligned once."""

    taxonomy: tx.Taxonomy
    fine: ScoreMatrix | None
    coarse: ScoreMatrix | None
    levels: list[tuple[int, ScoreMatrix]]


def load_method_inputs(args) -> MethodInputs:
    t = fileio.load_hierarchy(args.hierarchy)
    level_paths = parse_levels(getattr(args, "level", None))
    for depth, _ in level_paths:
        if depth == t.max_depth:
            # The deepest level holds only leaves; cascading it would square the fine row.
            raise InputError(f"--level depth {depth} is the leaf depth; leaf scores go in --fine")
    kind = _KIND_FLAG[getattr(args, "kind", None)]

    def load(path, level):
        if path:
            raw = fileio.load_scores(path, declared_kind=kind)
            return as_probabilities(fileio.align_columns(raw, t, level))

    fine = load(getattr(args, "fine", None), "leaf")
    coarse = load(getattr(args, "coarse", None), "coarse")
    return MethodInputs(t, fine, coarse, [(d, load(path, d)) for d, path in level_paths])


def _combined(source, method: str, inputs: MethodInputs) -> ScoreMatrix:
    """The fine probabilities combined with the factor that ``source`` names."""
    t, fine = inputs.taxonomy, inputs.fine
    if source is None:
        return fine
    if source == "self":
        return ensemble.hie_self(fine, tx.parent_index_map(t), t.n_coarse).scores
    if source == "coarse":
        if inputs.coarse is None:
            raise InputError(f"method {method} requires --coarse")
        return ensemble.hie_combine(fine, inputs.coarse, tx.parent_index_map(t)).scores
    if not inputs.levels:
        raise InputError(f"method {method} requires at least one --level depth=path")
    uppers = [(m, tx.ancestor_index_map(t, d)) for d, m in inputs.levels]
    return ensemble.cascade_combine(fine, uppers, levels=[d for d, _ in inputs.levels]).scores


def run_methods(methods: list[str], inputs: MethodInputs, emit) -> None:
    """Call ``emit(method, ranked)`` for each method, grouped by level source.

    ``ranked`` is a probability matrix for score-ranked methods and a
    RiskRanking for cost-ranked ones. Each source is combined once and shared
    by its methods, then dropped before the next source is built, so only one
    source's matrices are alive at a time.
    """
    if inputs.fine is None:
        raise InputError(f"method {methods[0]} requires --fine")
    for source in dict.fromkeys(METHODS[m][0] for m in methods):
        group = [m for m in methods if METHODS[m][0] == source]
        probs = _combined(source, group[0], inputs)
        for m in group:
            if METHODS[m][1] == "score":
                emit(m, probs)
            else:
                emit(m, risk.crm_rerank(probs, inputs.taxonomy))
        del probs


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
    inputs = load_method_inputs(args)
    preds_path = args.preds_out or args.out + ".preds.txt"

    def write(_, ranked):
        if isinstance(ranked, risk.RiskRanking):
            # Negated risks as logits: generic descending-score ranking
            # downstream reproduces the ascending-risk order.
            neg_risks = ScoreMatrix(-ranked.expected_costs, LOGITS, inputs.fine.class_names)
            fileio.save_scores(neg_risks, args.out)
            pred = ranked.predictions
        else:
            fileio.save_scores(ranked, args.out)
            pred = argmax_rows(ranked)
        fileio.write_labels(inputs.taxonomy, pred, preds_path)

    run_methods([method], inputs, write)
    print(f"wrote {args.out} and {preds_path}", file=out)
    return 0


def _evaluate(args, methods: list[str], ks) -> list[EvalReport]:
    """One report per method, in the order given; inputs are hashed once."""
    inputs = load_method_inputs(args)
    gt = fileio.load_labels(args.labels, inputs.taxonomy)
    echo = _config_echo(args, ks)
    reports = {}

    def report(method, ranked):
        reports[method] = eval_report(
            ranked, gt, inputs.taxonomy, ks, method, config={"method": method, **echo}
        )

    run_methods(methods, inputs, report)
    return [reports[m] for m in methods]


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


def cmd_synth(args, out) -> int:
    cfg = synth.SynthConfig(
        branching=tuple(int(b) for b in args.branching.split(",")),
        n_samples=args.n_samples,
        noise=tuple(float(s) for s in args.noise.split(",")),
        seed=args.seed,
    )
    os.makedirs(args.out_dir, exist_ok=True)
    t = synth.gen_taxonomy(cfg)
    labels, fine, uppers = synth.gen_instance(cfg)

    paths = {"hierarchy": "hierarchy.json", "labels": "labels.txt", "fine": "fine.hies"}
    fileio.save_hierarchy(t, os.path.join(args.out_dir, paths["hierarchy"]))
    fileio.write_labels(t, labels, os.path.join(args.out_dir, paths["labels"]))
    fileio.save_scores(fine, os.path.join(args.out_dir, paths["fine"]))
    for depth, matrix in enumerate(uppers, start=1):
        name = f"level_d{depth}.hies"
        paths[f"level{depth}"] = name
        fileio.save_scores(matrix, os.path.join(args.out_dir, name))

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
