"""Importance-oriented structured head pruning.

Two numerically equivalent modes. Mask mode zeroes the pruned heads'
Q/K/V column slices (weights and biases) and the matching output-projection
row slices, keeping all shapes; slice mode physically removes those slices
and records which original heads survive. Logits must agree between modes
for any plan, including blocks that lose every head.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autograd import Tensor
from .model import HEAD_AXES, HeadMask, TransformerWeights, tensor_layout
from .schema import Record


@dataclass
class PrunePlan(Record):
    keep: np.ndarray          # (L, H) bool, True = head survives; 0/1 on disk
    keep_count: int
    source_map_digest: str = ""

    def __post_init__(self):
        keep = np.asarray(self.keep)
        if keep.ndim != 2 or keep.dtype != bool and not (
                keep.dtype.kind in "iu" and np.isin(keep, (0, 1)).all()):
            raise ValueError("keep must be an (L, H) matrix of 0/1 entries")
        self.keep = keep.astype(bool)
        if int(self.keep.sum()) != self.keep_count:
            raise ValueError(
                f"plan keeps {int(self.keep.sum())} heads, expected {self.keep_count}"
            )

    def kept_per_block(self) -> list[int]:
        return [int(row.sum()) for row in self.keep]

    def kept_indices(self, layer: int) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.keep[layer])]

    def pruned_count(self) -> int:
        return int(self.keep.size) - self.keep_count

    def to_dict(self) -> dict:
        return super().to_dict() | {"keep": self.keep.astype(int).tolist()}


def select_heads(importance, keep_count: int, digest: str | None = None) -> PrunePlan:
    """Keep the `keep_count` highest-importance heads.

    Ties break toward keeping the lower (layer, head) index. `importance`
    is an ImportanceMap or a bare (L, H) score matrix; a score that is not
    finite raises ValueError naming its (layer, head).
    """
    if hasattr(importance, "final"):
        final = importance.final
        if digest is None:
            digest = importance.digest()
    else:
        final = np.asarray(importance, dtype=np.float64)
    num_layers, num_heads = final.shape
    if not np.isfinite(final).all():
        l, h = np.argwhere(~np.isfinite(final))[0]
        raise ValueError(f"importance of head ({l}, {h}) is not finite")
    total = num_layers * num_heads
    if not (0 <= keep_count <= total):
        raise ValueError(f"keep_count {keep_count} out of range [0, {total}]")

    order = sorted(
        ((l, h) for l in range(num_layers) for h in range(num_heads)),
        key=lambda lh: (-final[lh], lh[0], lh[1]),
    )
    keep = np.zeros((num_layers, num_heads), dtype=bool)
    for l, h in order[:keep_count]:
        keep[l, h] = True
    return PrunePlan(keep=keep, keep_count=keep_count,
                     source_map_digest=digest or "")


def _check_plan(weights: TransformerWeights, plan: PrunePlan) -> None:
    cfg = weights.config
    if plan.keep.shape != (cfg.num_layers, cfg.num_heads):
        raise ValueError(
            f"plan shape {plan.keep.shape} != ({cfg.num_layers}, {cfg.num_heads})"
        )


def _positions(slots, head_dim: int) -> np.ndarray:
    """Indices along a head axis covered by the heads at these slots."""
    slots = np.asarray(slots, dtype=np.int64)
    return (slots[:, None] * head_dim + np.arange(head_dim)).ravel()


def apply_mask_prune(weights: TransformerWeights, plan: PrunePlan):
    """Zero pruned heads' weight slices; returns (weights', mask).

    Shapes are unchanged. The returned mask has 0 at pruned heads and 1
    elsewhere (gradients disabled; this is an inference artifact).
    """
    _check_plan(weights, plan)
    out = weights.clone()
    for l, blk in enumerate(out.blocks):
        kept = out.head_index_map[l]  # heads sliced away already stay away
        drop = _positions([j for j, h in enumerate(kept) if not plan.keep[l, h]],
                          out.config.head_dim)
        for part, axis in HEAD_AXES.items():
            np.moveaxis(getattr(blk, part).data, axis, 0)[drop] = 0.0
    return out, HeadMask(Tensor(plan.keep.astype(np.float64), requires_grad=False))


def apply_slice_prune(weights: TransformerWeights, plan: PrunePlan) -> TransformerWeights:
    """Physically remove pruned heads' slices; records kept original indices.

    Q/K/V lose the pruned column slices (weights and biases together, so
    masked and sliced forwards stay equivalent); the output projection
    loses the matching rows but keeps its bias whole. Kept heads preserve
    their original order. Re-applying the same plan is a no-op.
    """
    _check_plan(weights, plan)
    takes = []
    for l, kept in enumerate(weights.head_index_map):
        # heads must already exist in this block (supports re-slicing)
        missing = [h for h in plan.kept_indices(l) if h not in kept]
        if missing:
            raise ValueError(
                f"block {l}: plan keeps heads {missing} already pruned away"
            )
        takes.append(_positions([j for j, h in enumerate(kept) if plan.keep[l, h]],
                                weights.config.head_dim))
    out = TransformerWeights.empty(
        weights.config,
        [[h for h in kept if plan.keep[l, h]]
         for l, kept in enumerate(weights.head_index_map)])
    # every tensor is copied once, into its place in `out`
    for (_, layer, part, _), (_, src), (_, dst) in zip(
            tensor_layout(weights.config, weights.head_index_map),
            weights.named_tensors(), out.named_tensors()):
        if part.head_axis is None:
            np.copyto(dst.data, src.data)
        else:
            np.take(src.data, takes[layer], axis=part.head_axis, out=dst.data)
    return out
