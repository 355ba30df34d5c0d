import math

import numpy as np
import pytest

from prunelora import autograd as ag
from prunelora import (
    ModelConfig,
    PrunePlan,
    apply_slice_prune,
    count_params,
    estimate_flops,
    forward,
    init_adapters,
    make_rank_plan,
)
from prunelora.accounting import (
    format_report_table,
    human_count,
    per_head_params,
    spread_keep_count,
)
from prunelora.data import SyntheticTaskSpec, generate
from prunelora.model import tensor_shapes

REFERENCE_TOTAL = 109_482_240
REFERENCE_PRUNED_TOTAL = 100_823_040


def test_reference_total_parameter_count():
    rep = count_params(ModelConfig.reference())
    assert rep.total_params == REFERENCE_TOTAL
    assert rep.components["embeddings"] == 23_837_184
    per_block = sum(v for k, v in rep.components.items()
                    if k.startswith("block0."))
    assert per_block == 7_087_872
    assert rep.components["pooler"] == 590_592
    assert rep.components["classifier"] == 0  # headless reference preset
    assert rep.trainable_params == REFERENCE_TOTAL  # full finetune
    assert sum(rep.components.values()) == rep.total_params


def test_reference_pruned_total_44_heads():
    cfg = ModelConfig.reference()
    assert per_head_params(cfg) == 196_800
    rep = count_params(cfg, prune_plan=100)
    assert rep.total_params == REFERENCE_PRUNED_TOTAL
    assert rep.total_params == REFERENCE_TOTAL - 44 * 196_800


def test_reference_weight_memory_within_one_percent_of_reported():
    rep = count_params(ModelConfig.reference())
    mb = rep.weight_bytes_f32 / 2**20
    assert abs(mb - 418.7) / 418.7 < 0.01
    assert rep.weight_bytes_f64 == 2 * rep.weight_bytes_f32


def test_reference_adapter_trainable_fraction():
    cfg = ModelConfig.reference()
    ranks = [8] * 4 + [4] * 8
    rep = count_params(cfg, rank_plan=ranks)
    assert rep.components["adapters"] == 393_216
    assert rep.trainable_params == 393_216 + 38_400  # adapters + layernorms
    assert rep.trainable_fraction < 0.01
    assert rep.total_params == REFERENCE_TOTAL + 393_216


def test_toy_counts_match_materialized_walk(toy_config, toy_weights):
    rep = count_params(toy_config)
    assert rep.total_params == toy_weights.num_params()
    assert sum(rep.components.values()) == rep.total_params


def test_pruned_counts_match_sliced_walk(toy_config, toy_weights):
    rng = np.random.default_rng(0)
    keep = rng.random((4, 4)) > 0.4
    plan = PrunePlan(keep=keep, keep_count=int(keep.sum()))
    sliced = apply_slice_prune(toy_weights, plan)
    rep = count_params(toy_config, prune_plan=plan)
    assert rep.total_params == sliced.num_params()


def test_adapter_counts_match_tensor_walk(toy_config, toy_weights):
    rng = np.random.default_rng(1)
    keep = rng.random((4, 4)) > 0.3
    plan = PrunePlan(keep=keep, keep_count=int(keep.sum()))
    sliced = apply_slice_prune(toy_weights, plan)
    # minimal ranks: every target still costs in_dim + out_dim
    rank_plan = make_rank_plan([1.0] * 4, n_high=0, rank_high=1, rank_low=1)
    adapters = init_adapters(sliced, rank_plan, seed=0)
    rep = count_params(toy_config, prune_plan=plan, rank_plan=rank_plan)
    assert rep.components["adapters"] == adapters.num_params()
    assert rep.total_params == sliced.num_params() + adapters.num_params()
    expected_trainable = (
        sum(t.data.size for t in sliced.layernorm_tensors())
        + sliced.classifier_w.data.size + sliced.classifier_b.data.size
        + adapters.num_params()
    )
    assert rep.trainable_params == expected_trainable


def test_bare_keep_count_with_ranks_needs_distribution():
    cfg = ModelConfig.reference()
    with pytest.raises(ValueError, match="per-block"):
        count_params(cfg, prune_plan=100, rank_plan=[4] * 12)


@pytest.mark.parametrize("plan, ranks, message", [
    ([9, 9, 9, 9], None, "block 0: kept heads 9"),
    ([4, 4, 4, -1], None, "block 3: kept heads -1"),
    (None, [-3, 4, 4, 4], "block 0: rank -3"),
    ([2, 2, 2, 2], [4, 4, 0, 4], "block 2: rank 0"),
    ([2.7, 4, 4, 4], None, "block 0: kept heads 2.7, want a whole number"),
    ([4, 4, 4, float("nan")], None, "block 3: kept heads nan"),
    (None, [4, 4, 1.5, 4], "block 2: rank 1.5, want a whole number"),
])
def test_out_of_range_plan_entries_name_the_block(plan, ranks, message):
    with pytest.raises(ValueError, match=message):
        count_params(ModelConfig(), prune_plan=plan, rank_plan=ranks)
    if ranks is None:
        with pytest.raises(ValueError, match=message):
            estimate_flops(ModelConfig(), plan)


def test_integer_types_and_whole_floats_read_as_ints():
    cfg = ModelConfig()
    want = count_params(cfg, [2, 4, 4, 4], rank_plan=[8, 8, 4, 4])
    for plan, ranks in (([2.0, 4, 4, 4], [8.0, 8, 4, 4]),
                        (np.array([2, 4, 4, 4]), np.array([8, 8, 4, 4]))):
        assert count_params(cfg, plan, rank_plan=ranks) == want
    # a bare keep count of any integer type is spread like an int
    for keep in (np.int64(12), np.int32(12), np.uint8(12)):
        assert count_params(cfg, keep) == count_params(cfg, 12)
        assert estimate_flops(cfg, keep, 16) == estimate_flops(cfg, 12, 16)
    with pytest.raises(ValueError, match="per-block"):
        count_params(cfg, np.int64(12), rank_plan=[4] * 4)
    with pytest.raises(ValueError, match="keep_count 17 out of range"):
        count_params(cfg, np.int64(17))


def test_flops_match_instrumented_forward(toy_config, toy_weights):
    spec = SyntheticTaskSpec(kind="parity", seq_len=8, vocab_size=16, seed=0,
                             train_size=2, eval_size=2)
    train, _ = generate(spec)
    single = train.slice(0, 1)
    seq_len = single.token_ids.shape[1]
    with ag.no_grad():
        with ag.count_macs() as counter:
            forward(toy_weights, single)
    rep = estimate_flops(toy_config, seq_len=seq_len)
    assert rep.matmul_flops == counter.flops


def test_flops_match_instrumented_forward_pruned(toy_config, toy_weights):
    rng = np.random.default_rng(2)
    keep = rng.random((4, 4)) > 0.5
    keep[3, :] = False
    plan = PrunePlan(keep=keep, keep_count=int(keep.sum()))
    sliced = apply_slice_prune(toy_weights, plan)
    spec = SyntheticTaskSpec(kind="parity", seq_len=8, vocab_size=16, seed=0,
                             train_size=2, eval_size=2)
    train, _ = generate(spec)
    single = train.slice(0, 1)
    with ag.no_grad():
        with ag.count_macs() as counter:
            forward(sliced, single)
    rep = estimate_flops(toy_config, prune_plan=plan,
                         seq_len=single.token_ids.shape[1])
    assert rep.matmul_flops == counter.flops


def test_closed_form_equals_layout_walk(toy_config):
    rng = np.random.default_rng(0)
    for _ in range(10):
        head_map = [sorted(rng.choice(4, size=rng.integers(0, 5), replace=False))
                    for _ in range(toy_config.num_layers)]
        walked = sum(map(math.prod, tensor_shapes(toy_config, head_map).values()))
        closed = count_params(toy_config, prune_plan=[len(k) for k in head_map])
        assert closed.total_params == walked


def test_pruning_half_the_heads_halves_mha_flops(toy_config):
    full = estimate_flops(toy_config, seq_len=16)
    half = estimate_flops(toy_config, prune_plan=[2, 2, 2, 2], seq_len=16)
    assert half.mha_matmul_flops * 2 == full.mha_matmul_flops
    assert half.ffn_matmul_flops == full.ffn_matmul_flops


def test_last_block_costs_one_query_row(toy_config):
    """The last block computes Q, scores, output projection, FFN and
    LayerNorms for the CLS row only; K and V still cover every position."""
    s, d, d_f, d_h = 16, toy_config.hidden, toy_config.ffn_dim, toy_config.head_dim
    early = estimate_flops(toy_config, prune_plan=[1, 0, 0, 0], seq_len=s)
    last = estimate_flops(toy_config, prune_plan=[0, 0, 0, 1], seq_len=s)
    assert early.mha_matmul_flops == 2 * (4 * s * d * d_h + 2 * s * s * d_h)
    assert last.mha_matmul_flops == 2 * ((2 * s + 2) * d * d_h + 2 * s * d_h)
    assert early.softmax_flops == 5 * s * s and last.softmax_flops == 5 * s
    full = estimate_flops(toy_config, seq_len=s)
    assert full.ffn_matmul_flops == 2 * (3 * s + 1) * 2 * d * d_f
    assert full.layernorm_flops == 8 * ((2 * 3 + 1) * s + 2) * d


def test_bare_keep_count_spreads_heads_from_the_first_block(toy_config):
    assert spread_keep_count(toy_config, 10) == [3, 3, 2, 2]
    assert spread_keep_count(toy_config, 16) == [4, 4, 4, 4]
    assert spread_keep_count(toy_config, 1) == [1, 0, 0, 0]
    for keep in (0, 5, 10, 16):
        assert estimate_flops(toy_config, keep, 16) == estimate_flops(
            toy_config, spread_keep_count(toy_config, keep), 16)
    # parameters read a bare count as the same placement as the FLOPs
    for keep in range(17):
        assert count_params(toy_config, keep, seq_len=16) == count_params(
            toy_config, spread_keep_count(toy_config, keep), seq_len=16)
    # where the kept heads sit changes the count: the last block's are cheaper
    assert (estimate_flops(toy_config, [2, 2, 3, 3], 16).total_flops
            < estimate_flops(toy_config, 10, 16).total_flops)


def test_zero_head_model_has_zero_mha_flops(toy_config):
    rep = estimate_flops(toy_config, prune_plan=0, seq_len=16)
    assert rep.mha_matmul_flops == 0
    assert rep.softmax_flops == 0
    assert rep.ffn_matmul_flops == estimate_flops(toy_config, seq_len=16).ffn_matmul_flops


def test_flops_per_token_reported(toy_config):
    rep = count_params(toy_config, seq_len=16)
    flops = estimate_flops(toy_config, seq_len=16)
    assert rep.forward_flops_per_token == flops.total_flops // 16


def test_human_count_and_table():
    assert human_count(REFERENCE_TOTAL) == "109.48 M"
    assert human_count(431_616) == "431.6 K"
    assert human_count(42) == "42"
    rep = count_params(ModelConfig.reference())
    table = format_report_table([("full_finetune", rep)])
    assert "Model Param" in table and "109.48 M" in table
    assert "100.00%" in table
