"""Post-hoc hierarchical ensembling and hierarchy-aware evaluation.

Operates on exported score matrices and a label hierarchy, never on models:
combine fine-grained probabilities with coarse-grained ones, rerank by
expected LCA-height cost, and score predictions with hierarchy-aware metrics.

Submodules are imported lazily so that the command-line entry point can
configure numerical libraries before numpy loads.
"""

from __future__ import annotations

__version__ = "0.1.0"

_EXPORTS = {
    "Taxonomy": "taxonomy",
    "build_taxonomy": "taxonomy",
    "cost_matrix": "taxonomy",
    "parent_index_map": "taxonomy",
    "ancestor_index_map": "taxonomy",
    "level_order": "taxonomy",
    "ScoreMatrix": "scores",
    "LOGITS": "scores",
    "PROBABILITIES": "scores",
    "softmax_rows": "scores",
    "top_k": "scores",
    "validate_probabilities": "scores",
    "hie_combine": "ensemble",
    "hie_self": "ensemble",
    "marginalize_to_parents": "ensemble",
    "crm_rerank": "risk",
    "EvalReport": "metrics",
    "eval_report": "metrics",
    "SynthConfig": "synth",
    "gen_taxonomy": "synth",
    "gen_instance": "synth",
}

__all__ = sorted(_EXPORTS) + ["errors", "fileio"]


def __getattr__(name):
    if name in _EXPORTS:
        import importlib

        module = importlib.import_module(f".{_EXPORTS[name]}", __name__)
        return getattr(module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
