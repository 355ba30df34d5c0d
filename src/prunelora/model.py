"""Transformer encoder classifier with per-head mask scalars.

Post-norm residual blocks (BERT ordering): MHA -> add&norm -> FFN ->
add&norm, first-token pooling through a tanh dense layer, then a linear
classifier head. Every attention head output is multiplied by its mask
scalar before concatenation, so head saliency is one backward pass away.

Weights may be head-pruned: per block, Q/K/V keep a column slice per kept
head and the output projection keeps the matching row slice. The original
indices of kept heads live in `head_index_map` (identity when unpruned).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

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
        if self.hidden % self.num_heads != 0:
            raise ValueError(
                f"hidden ({self.hidden}) must be divisible by "
                f"num_heads ({self.num_heads})"
            )
        for name in ("num_layers", "num_heads", "hidden", "ffn_dim", "vocab_size",
                     "max_positions", "type_vocab"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.num_classes < 0:
            raise ValueError("num_classes must be >= 0 (0 = no classifier head)")
        if self.layernorm_eps <= 0:
            raise ValueError("layernorm_eps must be positive")
        if self.init_std <= 0:
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


@dataclass
class Block:
    wq: Tensor
    bq: Tensor
    wk: Tensor
    bk: Tensor
    wv: Tensor
    bv: Tensor
    wo: Tensor
    bo: Tensor
    w_up: Tensor
    b_up: Tensor
    w_down: Tensor
    b_down: Tensor
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor


# per-block tensor names, in checkpoint order
BLOCK_PARTS = tuple(f.name for f in fields(Block))

# (checkpoint name, TransformerWeights attribute) around the blocks
_EMBEDDING_TENSORS = (
    ("embeddings.token", "tok_emb"),
    ("embeddings.position", "pos_emb"),
    ("embeddings.type", "type_emb"),
    ("embeddings.ln_gamma", "emb_ln_gamma"),
    ("embeddings.ln_beta", "emb_ln_beta"),
)
_HEAD_TENSORS = (
    ("pooler.w", "pooler_w"),
    ("pooler.b", "pooler_b"),
    ("classifier.w", "classifier_w"),
    ("classifier.b", "classifier_b"),
)


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
        for name, attr in _EMBEDDING_TENSORS:
            yield name, getattr(self, attr)
        for l, blk in enumerate(self.blocks):
            for part in BLOCK_PARTS:
                yield f"block{l}.{part}", getattr(blk, part)
        for name, attr in _HEAD_TENSORS:
            if getattr(self, attr) is not None:
                yield name, getattr(self, attr)

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
            **{attr: tensors.get(name)
               for name, attr in _EMBEDDING_TENSORS + _HEAD_TENSORS},
        )

    def all_tensors(self) -> list[Tensor]:
        return [t for _, t in self.named_tensors()]

    def layernorm_tensors(self) -> list[Tensor]:
        return [t for name, t in self.named_tensors()
                if name.split(".")[1].startswith("ln")]

    def set_requires_grad(self, flag: bool):
        for t in self.all_tensors():
            t.requires_grad = flag

    def num_params(self) -> int:
        return sum(t.data.size for t in self.all_tensors())

    def clone(self) -> "TransformerWeights":
        """Deep copy: fresh tensors, no gradient state or graph links."""
        return self.from_named(
            self.config,
            {name: Tensor(t.data.copy()) for name, t in self.named_tensors()},
            [list(row) for row in self.head_index_map],
        )


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
    """Gaussian(0, init_std) projections and embeddings, identity LayerNorms."""
    rng = np.random.default_rng(seed)
    d, d_f = config.hidden, config.ffn_dim

    def w(*shape):
        return Tensor(rng.normal(0.0, config.init_std, size=shape))

    def zeros(*shape):
        return Tensor(np.zeros(shape))

    def ones(*shape):
        return Tensor(np.ones(shape))

    blocks = []
    for _ in range(config.num_layers):
        blocks.append(Block(
            wq=w(d, d), bq=zeros(d), wk=w(d, d), bk=zeros(d),
            wv=w(d, d), bv=zeros(d), wo=w(d, d), bo=zeros(d),
            w_up=w(d, d_f), b_up=zeros(d_f), w_down=w(d_f, d), b_down=zeros(d),
            ln1_gamma=ones(d), ln1_beta=zeros(d),
            ln2_gamma=ones(d), ln2_beta=zeros(d),
        ))
    has_head = config.num_classes > 0
    return TransformerWeights(
        config=config,
        tok_emb=w(config.vocab_size, d),
        pos_emb=w(config.max_positions, d),
        type_emb=w(config.type_vocab, d),
        emb_ln_gamma=ones(d),
        emb_ln_beta=zeros(d),
        blocks=blocks,
        pooler_w=w(d, d),
        pooler_b=zeros(d),
        classifier_w=w(d, config.num_classes) if has_head else None,
        classifier_b=zeros(config.num_classes) if has_head else None,
    )


def _projected(x: Tensor, w: Tensor, b: Tensor, adapter) -> Tensor:
    """x @ w + b, plus the low-rank adapter delta when one is attached."""
    out = ag.matmul(x, w)
    if adapter is not None:
        a_t, b_t, scaling = adapter
        delta = ag.matmul(ag.matmul(x, a_t), b_t)
        if scaling != 1.0:
            delta = ag.mul(delta, scaling)
        out = ag.add(out, delta)
    return ag.add(out, b)


def _block_adapter(adapters, layer: int, target: str):
    if adapters is None:
        return None
    pair = adapters.for_block(layer).get(target)
    if pair is None:
        return None
    return pair[0], pair[1], adapters.scaling


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
    b, s = ids.shape
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

    d_h = cfg.head_dim
    inv_sqrt_dh = 1.0 / math.sqrt(d_h)
    # (b, 1, s): broadcast over query positions
    attn_bias = ((1 - att) * PAD_SCORE).astype(np.float64)[:, None, :]

    x = ag.add(
        ag.add(
            ag.embedding(weights.tok_emb, ids),
            ag.embedding(weights.pos_emb, np.arange(s)),
        ),
        ag.embedding(weights.type_emb, np.zeros(1, dtype=np.int64)),
    )
    x = ag.layernorm(x, weights.emb_ln_gamma, weights.emb_ln_beta, cfg.layernorm_eps)

    for l, blk in enumerate(weights.blocks):
        kept = weights.head_index_map[l]
        if kept:
            q = _projected(x, blk.wq, blk.bq, _block_adapter(adapters, l, "q"))
            k = _projected(x, blk.wk, blk.bk, _block_adapter(adapters, l, "k"))
            v = _projected(x, blk.wv, blk.bv, _block_adapter(adapters, l, "v"))
            heads = []
            for j, orig_i in enumerate(kept):
                lo, hi = j * d_h, (j + 1) * d_h
                scores = ag.mul(
                    ag.matmul(
                        ag.narrow_lastdim(q, lo, hi),
                        ag.transpose_last2(ag.narrow_lastdim(k, lo, hi)),
                    ),
                    inv_sqrt_dh,
                )
                attn = ag.softmax_lastdim(ag.add(scores, attn_bias))
                head = ag.matmul(attn, ag.narrow_lastdim(v, lo, hi))
                if mask is not None:
                    head = ag.mul(head, ag.pick(mask.xi, (l, orig_i)))
                heads.append(head)
            hcat = ag.concat_lastdim(heads)
            mha = _projected(hcat, blk.wo, blk.bo, _block_adapter(adapters, l, "o"))
        else:
            # every head pruned: MHA reduces to its output bias
            mha = ag.add(Tensor(np.zeros((b, s, cfg.hidden))), blk.bo)
        x = ag.layernorm(ag.add(x, mha), blk.ln1_gamma, blk.ln1_beta,
                         cfg.layernorm_eps)
        ff = ag.add(
            ag.matmul(
                ag.relu(ag.add(ag.matmul(x, blk.w_up), blk.b_up)),
                blk.w_down,
            ),
            blk.b_down,
        )
        x = ag.layernorm(ag.add(x, ff), blk.ln2_gamma, blk.ln2_beta,
                         cfg.layernorm_eps)

    pooled = ag.tanh(ag.add(ag.matmul(ag.first_token(x), weights.pooler_w),
                            weights.pooler_b))
    return ag.add(ag.matmul(pooled, weights.classifier_w), weights.classifier_b)
