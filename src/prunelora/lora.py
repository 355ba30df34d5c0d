"""Rank-varied low-rank adapters for the attention projections.

Each block's Q, K, V and output projections get an (A, B) pair sized for
the block's (possibly pruned) projection: A maps in_dim -> r, B maps
r -> out_dim, so the delta folded at merge time is A @ B. A starts
Gaussian, B starts at exactly zero, so fresh adapters leave every logit
untouched. Blocks ranked more important by the head-importance map get
the higher rank.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor
from .checkpoint import (
    CheckpointError,
    read_checkpoint,
    write_checkpoint,
)
from .model import TransformerWeights
from .schema import Record, field_types, parse_section

# adapter target -> the Block projection it attaches to
TARGETS = {"q": "wq", "k": "wk", "v": "wv", "o": "wo"}
ADAPTER_INIT_STD = 0.02


@dataclass
class RankPlan(Record):
    block_rank: list[int]
    n_high: int
    rank_high: int
    rank_low: int
    source_importance: list[float] = field(default_factory=list)


def make_rank_plan(
    block_importance,
    n_high: int,
    rank_high: int,
    rank_low: int,
) -> RankPlan:
    """Give the n_high most important blocks rank_high, the rest rank_low.

    Ties break toward giving the lower block index the higher rank.
    """
    imp = [float(v) for v in block_importance]
    num_layers = len(imp)
    if not (0 <= n_high <= num_layers):
        raise ValueError(f"n_high {n_high} out of range [0, {num_layers}]")
    if not (rank_high >= rank_low >= 1):
        raise ValueError(
            f"need rank_high >= rank_low >= 1, got {rank_high}/{rank_low}"
        )
    order = sorted(range(num_layers), key=lambda l: (-imp[l], l))
    ranks = [rank_low] * num_layers
    for l in order[:n_high]:
        ranks[l] = rank_high
    return RankPlan(
        block_rank=ranks,
        n_high=n_high,
        rank_high=rank_high,
        rank_low=rank_low,
        source_importance=imp,
    )


def _target_dims(weights: TransformerWeights, layer: int, target: str):
    """(in_dim, out_dim) of the target projection in this block."""
    return getattr(weights.blocks[layer], TARGETS[target]).data.shape


@dataclass
class LoraAdapters:
    # per block: {"q": (A, B), "k": ..., "v": ..., "o": ...}
    pairs: list[dict]
    plan: RankPlan
    seed: int
    scaling: float = 1.0

    def for_block(self, layer: int) -> dict:
        return self.pairs[layer]

    def by_part(self, layer: int) -> dict:
        """Block part name ("wq", ...) -> (A, B, scaling) in this block."""
        return {TARGETS[t]: (a, b, self.scaling)
                for t, (a, b) in self.pairs[layer].items()}

    def named_tensors(self):
        for l, targets in enumerate(self.pairs):
            for t in TARGETS:
                a, b = targets[t]
                yield f"block{l}.{t}.a", a
                yield f"block{l}.{t}.b", b

    def all_tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors()]

    def num_params(self) -> int:
        return sum(t.data.size for t in self.all_tensors())


def init_adapters(
    weights: TransformerWeights,
    plan: RankPlan,
    seed: int = 0,
    scaling: float = 1.0,
) -> LoraAdapters:
    """A ~ Normal(0, 0.02^2) from a seeded generator, B exactly zero.

    Shapes follow the current (possibly pruned) projection shapes, so
    adapters created for a sliced model fit that model only.
    """
    if len(plan.block_rank) != weights.config.num_layers:
        raise ValueError(
            f"rank plan covers {len(plan.block_rank)} blocks, model has "
            f"{weights.config.num_layers}"
        )
    rng = np.random.default_rng(seed)
    pairs = []
    for l, r in enumerate(plan.block_rank):
        targets = {}
        for t in TARGETS:
            in_dim, out_dim = _target_dims(weights, l, t)
            a = Tensor(rng.normal(0.0, ADAPTER_INIT_STD, size=(in_dim, r)),
                       requires_grad=True)
            b = Tensor(np.zeros((r, out_dim)), requires_grad=True)
            targets[t] = (a, b)
        pairs.append(targets)
    return LoraAdapters(pairs=pairs, plan=plan, seed=seed, scaling=scaling)


def merge(w: Tensor, a: Tensor, b: Tensor, scaling: float = 1.0) -> Tensor:
    """w + scaling * (a @ b) as a fresh tensor; w is untouched."""
    if a.data.shape[0] != w.data.shape[0] or b.data.shape[1] != w.data.shape[1] \
            or a.data.shape[1] != b.data.shape[0]:
        raise ValueError(
            f"merge: shapes do not compose: w {w.data.shape}, "
            f"a {a.data.shape}, b {b.data.shape}"
        )
    return Tensor(w.data + scaling * (a.data @ b.data))


def merge_adapters(weights: TransformerWeights, adapters: LoraAdapters) -> TransformerWeights:
    """Fold every adapter delta into a copy of the base weights."""
    validate_against(adapters, weights)
    out = weights.clone()
    for l, blk in enumerate(out.blocks):
        targets = adapters.for_block(l)
        for t, attr in TARGETS.items():
            a, b = targets[t]
            merged = merge(getattr(blk, attr), a, b, adapters.scaling)
            setattr(blk, attr, merged)
    return out


def validate_against(adapters: LoraAdapters, weights: TransformerWeights) -> None:
    """Check every adapter pair composes with its target projection."""
    if len(adapters.pairs) != weights.config.num_layers:
        raise ValueError(
            f"adapters cover {len(adapters.pairs)} blocks, model has "
            f"{weights.config.num_layers}"
        )
    for l in range(weights.config.num_layers):
        for t in TARGETS:
            a, b = adapters.for_block(l)[t]
            in_dim, out_dim = _target_dims(weights, l, t)
            if a.data.shape[0] != in_dim or b.data.shape[1] != out_dim \
                    or a.data.shape[1] != b.data.shape[0]:
                raise ValueError(
                    f"block {l} target {t}: adapter shapes "
                    f"{a.data.shape}x{b.data.shape} do not fit projection "
                    f"({in_dim}, {out_dim})"
                )


# ---------------------------------------------------------------------------
# adapter checkpoints


def save_adapters(path, adapters: LoraAdapters) -> None:
    header = {
        "kind": "adapters",
        "rank_plan": adapters.plan.to_dict(),
        "seed": adapters.seed,
        "scaling": adapters.scaling,
    }
    write_checkpoint(path, header, ((n, t.data) for n, t in adapters.named_tensors()))


def load_adapters(path, weights: TransformerWeights | None = None) -> LoraAdapters:
    """Load adapters; when `weights` is given, validate shapes against it."""
    manifest, arrays = read_checkpoint(path)
    if manifest.get("kind") != "adapters":
        raise CheckpointError(f"{path}: expected an adapter checkpoint")
    try:
        plan = RankPlan.from_dict(manifest["rank_plan"], "rank_plan")
        header = parse_section({key: manifest[key] for key in ("seed", "scaling")},
                               "adapter manifest", field_types(LoraAdapters))
        scaling = float(header["scaling"])
        if not math.isfinite(scaling):
            raise ValueError(f"scaling {scaling} is not finite")
    except (KeyError, ValueError, OverflowError) as e:  # float(10 ** 400)
        raise CheckpointError(f"{path}: bad adapter manifest: {e!r}") from e
    pairs = []
    for l, r in enumerate(plan.block_rank):
        targets = {}
        for t in TARGETS:
            try:
                a = arrays[f"block{l}.{t}.a"]
                b = arrays[f"block{l}.{t}.b"]
            except KeyError as e:
                raise CheckpointError(f"{path}: missing adapter tensor {e}")
            if a.shape[1] != r or b.shape[0] != r:
                raise CheckpointError(
                    f"{path}: block {l} target {t} rank {a.shape[1]} != plan {r}"
                )
            targets[t] = (Tensor(a), Tensor(b))
        pairs.append(targets)
    adapters = LoraAdapters(
        pairs=pairs,
        plan=plan,
        seed=header["seed"],
        scaling=scaling,
    )
    if weights is not None:
        validate_against(adapters, weights)
    return adapters
