"""Rank-varied low-rank adapters for the attention projections.

Each block's Q, K, V and output projections get an (A, B) pair sized for
the block's (possibly pruned) projection: A maps in_dim -> r, B maps
r -> out_dim, so the delta folded at merge time is A @ B. A starts
Gaussian, B starts at exactly zero, so fresh adapters leave every logit
untouched. Blocks ranked more important by the head-importance map get
the higher rank.

Each adapter tensor's name and shape is declared once, by
`adapter_shapes` from the model and the rank plan: `init_adapters` draws
over it, `validate_against` compares against it, and `load_adapters`
accepts an adapter checkpoint only if it holds exactly those tensors, each
of its declared shape (`checkpoint.check_tensors`, the same check a model
checkpoint passes).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .autograd import Tensor, place
from .checkpoint import (
    CheckpointError,
    check_finite,
    check_tensors,
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


def _pair_names(layer: int, target: str) -> tuple[str, str]:
    """Checkpoint names of one adapter pair's A and B."""
    return f"block{layer}.{target}.a", f"block{layer}.{target}.b"


def adapter_shapes(weights: TransformerWeights, plan: RankPlan) -> dict:
    """Adapter tensor name -> shape, in checkpoint order.

    Per block, for each target in TARGETS, A (`block{l}.{t}.a`) is
    (in_dim, rank) and B (`block{l}.{t}.b`) is (rank, out_dim), where
    (in_dim, out_dim) is the shape of the block's (possibly pruned)
    projection and rank is the plan's rank for the block.
    """
    if len(plan.block_rank) != len(weights.blocks):
        raise ValueError(
            f"rank plan covers {len(plan.block_rank)} blocks, model has "
            f"{len(weights.blocks)}"
        )
    shapes = {}
    for l, (blk, r) in enumerate(zip(weights.blocks, plan.block_rank)):
        for t, part in TARGETS.items():
            in_dim, out_dim = getattr(blk, part).data.shape
            a, b = _pair_names(l, t)
            shapes[a], shapes[b] = (in_dim, r), (r, out_dim)
    return shapes


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
                yield from zip(_pair_names(l, t), targets[t])

    @classmethod
    def from_named(cls, tensors: dict, plan: RankPlan, seed: int,
                   scaling: float) -> "LoraAdapters":
        """Inverse of named_tensors: adapters from a {name: Tensor} map."""
        pairs = [{t: tuple(tensors[name] for name in _pair_names(l, t))
                  for t in TARGETS}
                 for l in range(len(plan.block_rank))]
        return cls(pairs=pairs, plan=plan, seed=seed, scaling=scaling)

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

    Shapes follow `adapter_shapes`, so adapters created for a sliced
    model fit that model only. The A matrices are drawn in checkpoint
    order. Every adapter tensor below `autograd.ARENA_LIMIT` elements
    lives in one arena (`autograd.place`).
    """
    rng = np.random.default_rng(seed)
    tensors = place(adapter_shapes(weights, plan))
    for name, t in tensors.items():
        if name.endswith(".a"):
            # the bits of rng.normal(0, ADAPTER_INIT_STD), drawn in place
            rng.standard_normal(out=t.data)
            t.data *= ADAPTER_INIT_STD
        else:
            t.data.fill(0.0)
        t.requires_grad = True
    return LoraAdapters.from_named(tensors, plan, seed, scaling)


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
            w = getattr(blk, attr)
            # written into the clone's tensor, which keeps its arena place
            w.data[...] = merge(w, a, b, adapters.scaling).data
    return out


def validate_against(adapters: LoraAdapters, weights: TransformerWeights) -> None:
    """Check the adapters hold exactly the tensors `adapter_shapes`
    declares for this model and their rank plan."""
    expected = adapter_shapes(weights, adapters.plan)
    shapes = {name: t.data.shape for name, t in adapters.named_tensors()}
    for name in sorted(expected.keys() | shapes.keys()):
        if shapes.get(name) != expected.get(name):
            raise ValueError(
                f"adapters do not fit the model: {name} has shape "
                f"{shapes.get(name)}, expected {expected.get(name)}"
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


def load_adapters(path, weights: TransformerWeights) -> LoraAdapters:
    """Load adapters made for `weights`: the file must hold exactly the
    tensors `adapter_shapes` declares for that model and the file's rank
    plan, else CheckpointError."""
    adapters = None

    def into(manifest, found):
        nonlocal adapters
        if manifest.get("kind") != "adapters":
            raise CheckpointError(f"{path}: expected an adapter checkpoint")
        try:
            plan = RankPlan.from_dict(manifest["rank_plan"], "rank_plan")
            header = parse_section(
                {key: manifest[key] for key in ("seed", "scaling")},
                "adapter manifest", field_types(LoraAdapters))
            shapes = adapter_shapes(weights, plan)
        except (KeyError, ValueError) as e:
            raise CheckpointError(f"{path}: bad adapter manifest: {e!r}") from e
        check_tensors(path, found, shapes)
        adapters = LoraAdapters.from_named(place(shapes), plan, header["seed"],
                                           float(header["scaling"]))
        return {name: t.data for name, t in adapters.named_tensors()}

    read_checkpoint(path, into=into)
    check_finite(adapters.all_tensors())
    return adapters
