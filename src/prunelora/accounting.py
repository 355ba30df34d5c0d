"""Closed-form parameter, FLOPs and weight-memory accounting.

Counts are exact integer arithmetic over the model geometry, never a walk
over materialized arrays (tests cross-check against such walks). FLOPs use
the 1 MAC = 2 FLOPs convention; per-element costs of non-matmul ops are
fixed documented constants (softmax 5/element over the score matrices,
layernorm 8/element, embedding 2 adds/element). The FLOPs follow the
forward pass, whose last block computes only the CLS row past its K/V
projections (`estimate_flops`). Every prune plan is read as one list of
kept heads per block, a bare keep count as the placement
`spread_keep_count` gives it, so parameters and FLOPs describe the same
model.

Externally reported figures for the bert-base-uncased setup these formulas
mirror are kept here for side-by-side reporting; the closed-form counts
intentionally differ where the slicing arithmetic says so.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .lora import RankPlan
from .model import ModelConfig
from .pruning import PrunePlan
from .schema import Record

# reported reference figures for the unpruned/pruned bert-base setup
REPORTED_FULL_PARAMS = "109.48 M"
REPORTED_PRUNED_PARAMS = "101.29 M"
REPORTED_LORA_TRAINABLE = "259.6 K"
REPORTED_PRUNE_LORA_TRAINABLE = "308.7 K"
REPORTED_FULL_MEMORY_MB = 418.7

SOFTMAX_FLOPS_PER_CELL = 5
LAYERNORM_FLOPS_PER_CELL = 8
EMBEDDING_FLOPS_PER_CELL = 2


def per_head_params(config: ModelConfig) -> int:
    """Parameters removed by pruning one head: Q/K/V slices (weight+bias)
    plus the output-projection row slice."""
    d, d_h = config.hidden, config.head_dim
    return 3 * (d * d_h + d_h) + d_h * d


def spread_keep_count(config: ModelConfig, keep_count: int) -> list[int]:
    """Kept heads per block for a bare keep count: spread evenly, the
    extras in the earliest blocks (10 over 4 blocks -> [3, 3, 2, 2])."""
    base, extra = divmod(keep_count, config.num_layers)
    return [base + (l < extra) for l in range(config.num_layers)]


def _whole(value) -> int | None:
    """`value` as an int if it is a whole number, else None (2.7, NaN, "3")."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return whole if whole == value else None


def _keep_count(prune_plan) -> int | None:
    """A bare keep count of any integer type (`operator.index`), else None."""
    try:
        return operator.index(prune_plan)
    except TypeError:
        return None


def _per_block(config: ModelConfig, values, what: str, low: int, high=None) -> list[int]:
    """One int per block, each a whole number at least `low` and, if
    given, at most `high`."""
    values = list(values)
    if len(values) != config.num_layers:
        raise ValueError(
            f"{what} plan covers {len(values)} blocks, model has {config.num_layers}"
        )
    out = []
    for l, v in enumerate(values):
        whole = _whole(v)
        if whole is None:
            raise ValueError(f"block {l}: {what} {v!r}, want a whole number")
        if whole < low or (high is not None and whole > high):
            span = f">= {low}" if high is None else f"[{low}, {high}]"
            raise ValueError(f"block {l}: {what} {v}, want {span}")
        out.append(whole)
    return out


def _normalize_kept(config: ModelConfig, prune_plan) -> list[int]:
    """Kept heads per block for any prune plan: None (every head), a
    PrunePlan, a kept-per-block list, or a bare keep count of any integer
    type, which is spread by `spread_keep_count`."""
    if prune_plan is None:
        return [config.num_heads] * config.num_layers
    if isinstance(prune_plan, PrunePlan):
        prune_plan = prune_plan.kept_per_block()
    keep = _keep_count(prune_plan)
    if keep is not None:
        total = config.num_layers * config.num_heads
        if not (0 <= keep <= total):
            raise ValueError(f"keep_count {keep} out of range [0, {total}]")
        return spread_keep_count(config, keep)
    return _per_block(config, prune_plan, "kept heads", 0, config.num_heads)


def _normalize_ranks(config: ModelConfig, rank_plan):
    if rank_plan is None:
        return None
    ranks = rank_plan.block_rank if isinstance(rank_plan, RankPlan) else rank_plan
    return _per_block(config, ranks, "rank", 1)


@dataclass
class ParamReport(Record):
    total_params: int
    trainable_params: int
    trainable_fraction: float
    components: dict
    forward_flops_per_token: int
    weight_bytes_f64: int
    weight_bytes_f32: int


def count_params(
    config: ModelConfig,
    prune_plan=None,
    rank_plan=None,
    seq_len: int = 128,
) -> ParamReport:
    """Exact parameter accounting for (config, prune plan, rank plan).

    `prune_plan` may be a PrunePlan, a kept-heads-per-block list, a bare
    keep count or None; components and FLOPs alike read a bare count as
    the placement `spread_keep_count` gives it.
    `rank_plan` (RankPlan or per-block rank list) adds adapter counts and
    switches `trainable_params` to the adapter freeze policy: LayerNorms +
    adapters + classifier. Without one, everything trains. Adapter counts
    depend on where the kept heads sit, so a rank plan with a bare count
    that prunes heads is refused.
    """
    d, d_f, d_h = config.hidden, config.ffn_dim, config.head_dim
    kept = _normalize_kept(config, prune_plan)
    ranks = _normalize_ranks(config, rank_plan)
    keep = _keep_count(prune_plan)
    if (ranks is not None and keep is not None
            and keep != config.num_layers * config.num_heads):
        raise ValueError(
            "adapter counts on a pruned model need the per-block plan, "
            "not a bare keep count"
        )

    components: dict = {}
    components["embeddings"] = (
        config.vocab_size * d + config.max_positions * d
        + config.type_vocab * d + 2 * d
    )
    ffn = d * d_f + d_f + d_f * d + d
    for l, k in enumerate(kept):
        w = k * d_h
        components[f"block{l}.mha"] = 3 * (d * w + w) + w * d + d
        components[f"block{l}.ffn"] = ffn
        components[f"block{l}.layernorm"] = 4 * d
    components["pooler"] = d * d + d
    components["classifier"] = (
        d * config.num_classes + config.num_classes if config.num_classes else 0
    )

    adapter_params = 0
    if ranks is not None:
        # per block: Q/K/V are in=d,out=k*d_h; O is in=k*d_h,out=d
        adapter_params = sum(4 * r * (d + k * d_h) for r, k in zip(ranks, kept))
        components["adapters"] = adapter_params

    total = sum(components.values())
    layernorm_total = 2 * d + config.num_layers * 4 * d
    if ranks is not None:
        trainable = layernorm_total + adapter_params + components["classifier"]
    else:
        trainable = total

    flops = estimate_flops(config, kept, seq_len)
    return ParamReport(
        total_params=total,
        trainable_params=trainable,
        trainable_fraction=trainable / total,
        components=components,
        forward_flops_per_token=flops.total_flops // seq_len,
        weight_bytes_f64=total * 8,
        weight_bytes_f32=total * 4,
    )


@dataclass
class FlopsReport:
    seq_len: int
    mha_matmul_flops: int
    ffn_matmul_flops: int
    head_matmul_flops: int
    embedding_flops: int
    layernorm_flops: int
    softmax_flops: int
    other_flops: int

    @property
    def matmul_flops(self) -> int:
        return self.mha_matmul_flops + self.ffn_matmul_flops + self.head_matmul_flops

    @property
    def total_flops(self) -> int:
        return (self.matmul_flops + self.embedding_flops + self.layernorm_flops
                + self.softmax_flops + self.other_flops)


def estimate_flops(config: ModelConfig, prune_plan=None, seq_len: int = 128) -> FlopsReport:
    """Analytic single-example forward cost at the given sequence length.

    Every term mirrors the forward pass (the instrumented engine counter
    reproduces the matmul terms to the FLOP). Attention is computed over
    all `seq_len` positions, padded ones included, as the forward pass
    does; `data.batches` pads each batch only to its longest row, so
    there `seq_len` is that row's length. The pooler reads only the CLS
    row of the last block, so that block projects K and V for every
    position but computes its Q, its scores (one query against `seq_len`
    keys), its output projection, LayerNorms, FFN, biases and residual
    adds for the CLS row alone. MHA cost is linear in the kept head count
    of each block.

    Since the last block costs less per head than the others, the count
    depends on where the kept heads sit. A bare keep count is spread by
    `spread_keep_count`; only a per-block plan (a PrunePlan or a
    kept-per-block list) reconciles exactly with the engine.
    """
    if seq_len < 1:
        raise ValueError("seq_len must be >= 1")
    d, d_f, d_h = config.hidden, config.ffn_dim, config.head_dim
    s, num_layers, classes = seq_len, config.num_layers, config.num_classes
    kept = _normalize_kept(config, prune_plan)

    mha_macs = ffn_macs = score_cells = ln_cells = other = 0
    for l, heads in enumerate(kept):
        w = heads * d_h  # the block's projection width
        r = 1 if l == num_layers - 1 else s  # query rows: CLS in the last
        # MACs: Q over r rows, K/V over s, scores and attention*V for r
        # queries against s keys, output projection over r rows
        mha_macs += (2 * s + 2 * r) * d * w + 2 * r * s * w
        ffn_macs += 2 * r * d * d_f
        cells = r * s * heads
        score_cells += cells
        ln_cells += 2 * r * d
        other += (
            (2 * s + r) * w      # Q/K/V bias adds
            + r * d              # output-projection bias
            + 2 * cells          # score scaling + padding bias add
            + r * (d_f + d)      # FFN biases
            + r * d_f            # relu
            + 2 * r * d          # residual adds
        )
    ln_cells += s * d  # embedding LayerNorm
    other += d + d + classes  # pooler bias + tanh, classifier bias
    head_macs = d * d + d * classes
    return FlopsReport(
        seq_len=s,
        mha_matmul_flops=2 * mha_macs,
        ffn_matmul_flops=2 * ffn_macs,
        head_matmul_flops=2 * head_macs,
        embedding_flops=EMBEDDING_FLOPS_PER_CELL * s * d,
        layernorm_flops=LAYERNORM_FLOPS_PER_CELL * ln_cells,
        softmax_flops=SOFTMAX_FLOPS_PER_CELL * score_cells,
        other_flops=other,
    )


# ---------------------------------------------------------------------------
# presentation


def human_count(n: int) -> str:
    if n >= 1_000_000:
        return f"{n / 1e6:.2f} M"
    if n >= 1_000:
        return f"{n / 1e3:.1f} K"
    return str(n)


def format_report_table(rows) -> str:
    """Aligned text table; rows are (name, ParamReport) pairs."""
    header = ["", "Model Param", "Trainable Param", "Proportion", "Memory (f32)"]
    table = [header]
    for name, rep in rows:
        table.append([
            name,
            human_count(rep.total_params),
            human_count(rep.trainable_params),
            f"{100 * rep.trainable_fraction:.2f}%",
            f"{rep.weight_bytes_f32 / 2**20:.1f} MB",
        ])
    widths = [max(len(r[i]) for r in table) for i in range(len(header))]
    lines = []
    for r in table:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(r, widths)).rstrip())
    return "\n".join(lines) + "\n"
