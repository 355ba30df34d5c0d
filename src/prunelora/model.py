"""Transformer encoder classifier with per-head mask scalars.

Post-norm residual blocks (BERT ordering): MHA -> add&norm -> FFN ->
add&norm, first-token pooling through a tanh dense layer, then a linear
classifier head. Every projection is one `autograd.linear` node (its LoRA
adapter, when one is attached, and its activation, the FFN's ReLU or the
pooler's tanh, ride inside it), a block's attention, all kept heads
together, is one `autograd.attention` node, and each add&norm, the
embedding sum's included, is one `autograd.layernorm` node over the
terms it adds. Every attention head output is multiplied by its mask
scalar before concatenation, so head saliency is one backward pass away.

The pooler reads only the first (CLS) position of the last block's
output, so the last block computes only that row: its K and V project
every position, while its Q, its attention queries, output projection,
LayerNorms and FFN run on the CLS row, `(b, hidden)` instead of
`(b, s, hidden)`. The CLS-row select (`autograd.first_token`) sits at that
block's input, and the pooler reads the block's output directly. The
logits are those of the same blocks computed over every position, up to
summation order (well below 1e-10). `accounting.estimate_flops` counts the
same CLS-row terms, so a head costs less in the last block than in the
others, and a bare keep count (no per-block plan) is costed with its heads
spread evenly, the extras in the earliest blocks.

Weights may be head-pruned: per block, Q/K/V keep a column slice per kept
head and the output projection keeps the matching row slice. The original
indices of kept heads live in `head_index_map` (identity when unpruned).
A block that lost every head holds `(hidden, 0)` Q/K/V and `(0, hidden)`
output tensors and runs the same path: its projections and attention are
zero wide, so its MHA output is the output bias.
Each tensor's shape, init and head axis is declared once, in BLOCK_LAYOUT
and the two tables around it. The tensors of each trainable group
(`tensor_group`) below `autograd.ARENA_LIMIT` elements are views of one
arena: `TransformerWeights.empty` places them, and init, clone, load and
slice write each element there once.
"""

from __future__ import annotations

from dataclasses import dataclass, field, make_dataclass
from typing import NamedTuple

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .schema import Record

PAD_SCORE = -1e9  # additive attention bias on padded key positions


@dataclass(frozen=True)
class ModelConfig(Record):
    num_layers: int = 4
    num_heads: int = 4
    hidden: int = 64
    ffn_dim: int = 256
    vocab_size: int = 32
    max_positions: int = 64
    type_vocab: int = 1
    num_classes: int = 2
    layernorm_eps: float = 1e-12
    # 0.02 matches the pretrained-baseline convention; training from
    # scratch at desk scale wants a larger scale (~0.1 for hidden 64)
    init_std: float = 0.02

    @property
    def head_dim(self) -> int:
        return self.hidden // self.num_heads

    def __post_init__(self):
        for name in ("num_layers", "num_heads", "hidden", "ffn_dim", "vocab_size",
                     "max_positions", "type_vocab"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.hidden % self.num_heads != 0:
            raise ValueError(
                f"hidden ({self.hidden}) must be divisible by "
                f"num_heads ({self.num_heads})"
            )
        if self.num_classes < 0:
            raise ValueError("num_classes must be >= 0 (0 = no classifier head)")
        # `not x > 0` also rejects NaN
        if not self.layernorm_eps > 0:
            raise ValueError("layernorm_eps must be positive")
        if not self.init_std > 0:
            raise ValueError("init_std must be positive")

    @classmethod
    def reference(cls, **overrides) -> "ModelConfig":
        """bert-base geometry; headless so totals match published counts."""
        base = dict(
            num_layers=12, num_heads=12, hidden=768, ffn_dim=3072,
            vocab_size=30522, max_positions=512, type_vocab=2,
            num_classes=0,
        )
        base.update(overrides)
        return cls(**base)


class Part(NamedTuple):
    """Layout of one tensor: its shape in named dimensions and its init."""

    # ModelConfig field names, or "heads": kept heads x head_dim
    shape: tuple[str, ...]
    init: str  # "normal" (N(0, init_std)), "zeros" or "ones"

    @property
    def head_axis(self) -> int | None:
        """The axis holding one head_dim slice per kept head, if any."""
        return self.shape.index("heads") if "heads" in self.shape else None


# every per-block tensor, in checkpoint order
BLOCK_LAYOUT = {
    "wq": Part(("hidden", "heads"), "normal"),
    "bq": Part(("heads",), "zeros"),
    "wk": Part(("hidden", "heads"), "normal"),
    "bk": Part(("heads",), "zeros"),
    "wv": Part(("hidden", "heads"), "normal"),
    "bv": Part(("heads",), "zeros"),
    "wo": Part(("heads", "hidden"), "normal"),
    "bo": Part(("hidden",), "zeros"),
    "w_up": Part(("hidden", "ffn_dim"), "normal"),
    "b_up": Part(("ffn_dim",), "zeros"),
    "w_down": Part(("ffn_dim", "hidden"), "normal"),
    "b_down": Part(("hidden",), "zeros"),
    "ln1_gamma": Part(("hidden",), "ones"),
    "ln1_beta": Part(("hidden",), "zeros"),
    "ln2_gamma": Part(("hidden",), "ones"),
    "ln2_beta": Part(("hidden",), "zeros"),
}
BLOCK_PARTS = tuple(BLOCK_LAYOUT)
# the head-sliced parts (Q/K/V weights and biases, output rows) -> head axis
HEAD_AXES = {part: spec.head_axis for part, spec in BLOCK_LAYOUT.items()
             if spec.head_axis is not None}

Block = make_dataclass("Block", [(part, Tensor) for part in BLOCK_PARTS])
Block.__module__ = __name__

# the tensors around the blocks: checkpoint name -> (TransformerWeights
# attribute, layout); a headless config (num_classes 0) has no classifier
_EMBEDDING_TENSORS = {
    "embeddings.token": ("tok_emb", Part(("vocab_size", "hidden"), "normal")),
    "embeddings.position": ("pos_emb", Part(("max_positions", "hidden"), "normal")),
    "embeddings.type": ("type_emb", Part(("type_vocab", "hidden"), "normal")),
    "embeddings.ln_gamma": ("emb_ln_gamma", Part(("hidden",), "ones")),
    "embeddings.ln_beta": ("emb_ln_beta", Part(("hidden",), "zeros")),
}
_HEAD_TENSORS = {
    "pooler.w": ("pooler_w", Part(("hidden", "hidden"), "normal")),
    "pooler.b": ("pooler_b", Part(("hidden",), "zeros")),
    "classifier.w": ("classifier_w", Part(("hidden", "num_classes"), "normal")),
    "classifier.b": ("classifier_b", Part(("num_classes",), "zeros")),
}


def tensor_group(name: str) -> str:
    """The trainable group of a model tensor: "layernorm", "classifier" or
    "base". A freeze policy trains or freezes each group as a whole
    (`training.freeze_policy`), so each group's small tensors share an
    arena."""
    if name.split(".")[1].startswith("ln"):
        return "layernorm"
    return "classifier" if name.startswith("classifier.") else "base"


def _checkpoint_order(num_layers: int):
    """(name, block index or None, attribute, Part) for every tensor slot."""
    for name, (attr, part) in _EMBEDDING_TENSORS.items():
        yield name, None, attr, part
    for l in range(num_layers):
        for attr, part in BLOCK_LAYOUT.items():
            yield f"block{l}.{attr}", l, attr, part
    for name, (attr, part) in _HEAD_TENSORS.items():
        yield name, None, attr, part


def tensor_layout(config: ModelConfig, head_index_map=None):
    """(name, block index or None, Part, shape) for every tensor, in
    checkpoint order.

    Without `head_index_map` every block keeps all of its heads.
    """
    hmap = head_index_map or [range(config.num_heads)] * config.num_layers
    for name, layer, _, part in _checkpoint_order(config.num_layers):
        heads = config.num_heads if layer is None else len(hmap[layer])
        shape = tuple(heads * config.head_dim if dim == "heads"
                      else getattr(config, dim) for dim in part.shape)
        if layer is None and 0 in shape:
            continue  # num_classes 0: no classifier tensors
        yield name, layer, part, shape


def tensor_shapes(config: ModelConfig, head_index_map=None) -> dict:
    """Every tensor name -> shape implied by config + kept heads."""
    return {name: shape for name, _, _, shape in tensor_layout(config, head_index_map)}


@dataclass
class TransformerWeights:
    config: ModelConfig
    tok_emb: Tensor
    pos_emb: Tensor
    type_emb: Tensor
    emb_ln_gamma: Tensor
    emb_ln_beta: Tensor
    blocks: list[Block]
    pooler_w: Tensor
    pooler_b: Tensor
    classifier_w: Tensor | None
    classifier_b: Tensor | None
    # per block: original indices of kept heads, in original order
    head_index_map: list[list[int]] = field(default_factory=list)

    def __post_init__(self):
        if not self.head_index_map:
            self.head_index_map = [
                list(range(self.config.num_heads)) for _ in self.blocks
            ]

    def named_tensors(self):
        """Yield (name, tensor) in a fixed, checkpoint-stable order."""
        for name, layer, attr, _ in _checkpoint_order(len(self.blocks)):
            t = getattr(self if layer is None else self.blocks[layer], attr)
            if t is not None:
                yield name, t

    @classmethod
    def from_named(cls, config: ModelConfig, tensors: dict,
                   head_index_map=None) -> "TransformerWeights":
        """Inverse of named_tensors: weights from a {name: Tensor} map.

        Classifier entries may be absent (headless model).
        """
        return cls(
            config=config,
            blocks=[
                Block(**{part: tensors[f"block{l}.{part}"]
                         for part in BLOCK_PARTS})
                for l in range(config.num_layers)
            ],
            head_index_map=head_index_map or [],
            **{attr: tensors.get(name) for name, (attr, _)
               in (_EMBEDDING_TENSORS | _HEAD_TENSORS).items()},
        )

    def all_tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors()]

    def layernorm_tensors(self) -> list[Tensor]:
        return [t for name, t in self.named_tensors()
                if tensor_group(name) == "layernorm"]

    def set_requires_grad(self, flag: bool):
        for t in self.all_tensors():
            t.requires_grad = flag

    def num_params(self) -> int:
        return sum(t.data.size for t in self.all_tensors())

    @classmethod
    def empty(cls, config: ModelConfig,
              head_index_map=None) -> "TransformerWeights":
        """Every tensor of `config` (with the kept heads of
        `head_index_map`, all heads without it), uninitialised: the caller
        writes every element. Each group's tensors below
        `autograd.ARENA_LIMIT` elements are views of one arena
        (`autograd.place`, groups by `tensor_group`), in checkpoint
        order."""
        tensors = ag.place(tensor_shapes(config, head_index_map), tensor_group)
        return cls.from_named(config, tensors,
                              [list(row) for row in head_index_map or []])

    def clone(self) -> "TransformerWeights":
        """Deep copy into fresh arenas: no gradient state or graph links."""
        out = self.empty(self.config, self.head_index_map)
        for (_, src), (_, dst) in zip(self.named_tensors(), out.named_tensors()):
            np.copyto(dst.data, src.data)
        return out


@dataclass
class HeadMask:
    """Per-head multiplicative scalars; gradient-enabled for saliency runs."""

    xi: Tensor

    @classmethod
    def ones(cls, config: ModelConfig, requires_grad: bool = True) -> "HeadMask":
        return cls(Tensor(
            np.ones((config.num_layers, config.num_heads)),
            requires_grad=requires_grad,
        ))

    @property
    def values(self) -> np.ndarray:
        return self.xi.data


def init_weights(config: ModelConfig, seed: int = 0) -> TransformerWeights:
    """Every tensor at its layout's init: N(0, init_std), zeros or ones."""
    rng = np.random.default_rng(seed)
    weights = TransformerWeights.empty(config)
    tensors = dict(weights.named_tensors())
    # RNG draw order: the blocks first, then the tensors around them (a
    # stable sort on "not in a block"). Every seed's weights depend on it;
    # test_golden_logits_pinned pins it. Each draw is written straight into
    # the tensor's place: standard_normal scaled by init_std has the bits
    # of rng.normal(0, init_std).
    layout = sorted(tensor_layout(config), key=lambda e: e[1] is None)
    for name, _, part, _ in layout:
        data = tensors[name].data
        if part.init == "normal":
            rng.standard_normal(out=data)
            data *= config.init_std
        else:
            data.fill(1.0 if part.init == "ones" else 0.0)
    return weights


def forward(
    weights: TransformerWeights,
    batch,
    mask: HeadMask | None = None,
    adapters=None,
) -> Tensor:
    """Run the encoder classifier; returns logits of shape (batch, classes).

    `batch` carries integer `token_ids` (b, s) and `attention_mask` (b, s)
    with 1 on real tokens. Padded key positions receive an additive bias of
    PAD_SCORE before the softmax. When `mask` is given, head i of block l
    is scaled by xi[l, i] (original head index, also for pruned weights).
    """
    cfg = weights.config
    if cfg.num_classes < 1:
        raise ValueError("forward needs a classifier head (num_classes >= 1)")
    ids = np.asarray(batch.token_ids, dtype=np.int64)
    att = np.asarray(batch.attention_mask, dtype=np.int64)
    if ids.ndim != 2 or att.shape != ids.shape:
        raise ValueError(
            f"batch shapes disagree: ids {ids.shape}, attention {att.shape}"
        )
    s = ids.shape[1]
    if s > cfg.max_positions:
        raise ValueError(
            f"sequence length {s} exceeds max_positions {cfg.max_positions}"
        )
    if np.any(ids < 0) or np.any(ids >= cfg.vocab_size):
        raise ValueError(f"token id out of range for vocab {cfg.vocab_size}")
    if mask is not None and mask.xi.data.shape != (cfg.num_layers, cfg.num_heads):
        raise ValueError(
            f"mask shape {mask.xi.data.shape} != "
            f"({cfg.num_layers}, {cfg.num_heads})"
        )

    # (b, 1, s): broadcast over query positions
    attn_bias = ((1 - att) * PAD_SCORE).astype(np.float64)[:, None, :]

    x = ag.layernorm((ag.embedding(weights.tok_emb, ids),
                      ag.embedding(weights.pos_emb, np.arange(s)),
                      ag.embedding(weights.type_emb, np.zeros(1, dtype=np.int64))),
                     weights.emb_ln_gamma, weights.emb_ln_beta, cfg.layernorm_eps)

    last = len(weights.blocks) - 1
    for l, blk in enumerate(weights.blocks):
        # Block part name -> (A, B, scaling) of each adapted projection
        adapted = {} if adapters is None else adapters.by_part(l)
        # the pooler reads only the CLS row of the last block's output, so
        # that block's queries, and everything after its attention, run
        # on the CLS row alone: (b, d) rows instead of (b, s, d)
        rows = ag.first_token(x) if l == last else x
        q = ag.linear(rows, blk.wq, blk.bq, adapted.get("wq"))
        k = ag.linear(x, blk.wk, blk.bk, adapted.get("wk"))
        v = ag.linear(x, blk.wv, blk.bv, adapted.get("wv"))
        heads = ag.attention(q, k, v, attn_bias, cfg.head_dim,
                             xi=None if mask is None else mask.xi,
                             heads=(l, weights.head_index_map[l]))
        mha = ag.linear(heads, blk.wo, blk.bo, adapted.get("wo"))
        x = ag.layernorm((rows, mha), blk.ln1_gamma, blk.ln1_beta,
                         cfg.layernorm_eps)
        up = ag.linear(x, blk.w_up, blk.b_up, act="relu")
        ff = ag.linear(up, blk.w_down, blk.b_down)
        x = ag.layernorm((x, ff), blk.ln2_gamma, blk.ln2_beta,
                         cfg.layernorm_eps)

    pooled = ag.linear(x, weights.pooler_w, weights.pooler_b, act="tanh")
    return ag.linear(pooled, weights.classifier_w, weights.classifier_b)
