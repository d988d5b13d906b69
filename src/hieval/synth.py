"""Seeded synthetic taxonomies and per-level classifier scores.

Emulates a stack of classifiers of controllable quality on a complete
leveled tree: the true class's logit gets a fixed margin of 1.0 and every
logit receives Gaussian noise whose scale is that level's accuracy knob
(0 = perfect, larger = worse). Streams come from a PCG64 generator seeded
from the config, drawn in a fixed order (labels first, then levels top-down),
so equal configs give bitwise-equal outputs on any platform. Each level is
drawn in row blocks as it is written, the same bits as one whole draw, so
``hieval synth`` holds the labels and one block, whatever the sample count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import taxonomy as tx
from .errors import InputError
from .scores import LOGITS, ScoreMatrix, block_rows

MARGIN = 1.0
RNG_ALGORITHM = "pcg64"


@dataclass(frozen=True)
class SynthConfig:
    """Branching factor, noise scale per level (top-down, fine last), sample count, seed."""

    branching: tuple[int, ...]
    n_samples: int
    noise: tuple[float, ...]
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "branching", tuple(int(b) for b in self.branching))
        object.__setattr__(self, "noise", tuple(float(s) for s in self.noise))
        if len(self.branching) < 1:
            raise InputError("branching must list at least one level")
        if len(self.noise) != len(self.branching):
            raise InputError(
                f"{len(self.noise)} noise scales for {len(self.branching)} levels"
            )
        if any(b < 1 for b in self.branching):
            raise InputError(f"branching factors must be positive: {self.branching}")
        if not all(math.isfinite(s) and s >= 0 for s in self.noise):
            raise InputError(f"noise scales must be finite and non-negative: {self.noise}")
        if self.n_samples < 1:
            raise InputError(f"n_samples must be positive: {self.n_samples}")
        if self.seed < 0:
            raise InputError(f"seed must be a non-negative integer: {self.seed}")

    @property
    def n_levels(self) -> int:
        return len(self.branching)

    @property
    def n_leaves(self) -> int:
        out = 1
        for b in self.branching:
            out *= b
        return out


def gen_taxonomy(cfg: SynthConfig) -> tx.Taxonomy:
    """Complete leveled tree for the config; node names are ``n{level}_{index}``."""
    parents = {"n0_0": None}
    for level, b in enumerate(cfg.branching, start=1):
        width = 1
        for factor in cfg.branching[: level - 1]:
            width *= factor
        for i in range(width * b):
            parents[f"n{level}_{i}"] = f"n{level - 1}_{i // b}"
    return tx.build_taxonomy(parents)


def gen_instance(cfg: SynthConfig, t: tx.Taxonomy):
    """Ground-truth labels, then every level's noisy logits in row blocks.

    ``t`` is ``gen_taxonomy(cfg)``. Returns ``(labels, levels)``: labels
    index ``leaf_order``, and ``levels`` yields one iterator per depth 1 ..
    n_levels (topmost first, the leaf level last) over that level's logits,
    ``scores.block_rows(width)`` rows per ScoreMatrix, columns in the
    taxonomy's canonical order. A block is drawn only when it is read, so
    memory holds one block, not a matrix; all draws share one stream, so read
    the levels in order, each to its end. A huge noise scale can overflow to
    infinity; ``hieval synth`` refuses such a block, naming its file.
    """
    rng = np.random.Generator(np.random.PCG64(cfg.seed))
    labels = rng.integers(0, cfg.n_leaves, size=cfg.n_samples)

    def level(depth):
        names = tuple(t.names[i] for i in tx.level_order(t, depth))
        amap = tx.ancestor_index_map(t, depth)
        step = block_rows(len(names))
        for start in range(0, cfg.n_samples, step):
            rows = min(step, cfg.n_samples - start)
            # Row blocks of one normal draw are the same bits as the whole draw.
            logits = rng.normal(0.0, cfg.noise[depth - 1], size=(rows, len(names)))
            logits[np.arange(rows), amap[labels[start:start + rows]]] += MARGIN
            yield ScoreMatrix(logits, LOGITS, names, start)

    return labels, (level(depth) for depth in range(1, cfg.n_levels + 1))
