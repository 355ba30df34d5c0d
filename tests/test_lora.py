import numpy as np
import pytest

from prunelora import autograd as ag
from prunelora import (
    ModelConfig,
    PrunePlan,
    apply_slice_prune,
    forward,
    freeze_policy,
    init_adapters,
    init_weights,
    make_rank_plan,
    merge_adapters,
)
from prunelora.autograd import Tensor
from prunelora.lora import (
    RankPlan,
    TARGETS,
    load_adapters,
    merge,
    save_adapters,
    validate_against,
)
from prunelora.training import AdamW


def perturb(adapters, scale=0.05):
    rng = np.random.default_rng(99)
    for l in range(len(adapters.pairs)):
        for t in TARGETS:
            a, b = adapters.for_block(l)[t]
            b.data += rng.normal(0, scale, b.data.shape)
    return adapters


def test_rank_plan_picks_most_important_blocks():
    plan = make_rank_plan([0.9, 0.1, 0.5, 0.2], n_high=2, rank_high=8, rank_low=4)
    assert plan.block_rank == [8, 4, 8, 4]


def test_rank_plan_n_high_zero_is_uniform_low():
    plan = make_rank_plan([0.9, 0.1, 0.5], n_high=0, rank_high=8, rank_low=4)
    assert plan.block_rank == [4, 4, 4]


def test_rank_plan_matches_brute_force_sort():
    rng = np.random.default_rng(0)
    for _ in range(20):
        imp = rng.integers(0, 4, 8).astype(float)  # ties likely
        n_high = int(rng.integers(0, 9))
        plan = make_rank_plan(imp, n_high, 16, 2)
        order = np.lexsort((np.arange(8), -imp))
        expected_high = set(map(int, order[:n_high]))
        got_high = {l for l, r in enumerate(plan.block_rank) if r == 16}
        if n_high < 8:  # rank_high == rank_low never happens here
            assert got_high == expected_high


def test_rank_plan_validation():
    with pytest.raises(ValueError, match="n_high"):
        make_rank_plan([1.0, 2.0], n_high=3, rank_high=8, rank_low=4)
    with pytest.raises(ValueError, match="rank_high"):
        make_rank_plan([1.0, 2.0], n_high=1, rank_high=2, rank_low=4)


def test_fresh_adapters_change_no_logit(toy_weights, parity_batch):
    batch = parity_batch.slice(0, 8)
    plan = make_rank_plan([1.0, 0.5, 0.2, 0.8], n_high=2, rank_high=8, rank_low=4)
    adapters = init_adapters(toy_weights, plan, seed=3)
    base = forward(toy_weights, batch)
    with_adapters = forward(toy_weights, batch, adapters=adapters)
    assert np.array_equal(base.data, with_adapters.data)  # exact, B == 0


def test_adapter_init_is_seed_deterministic(toy_weights):
    plan = make_rank_plan([1.0, 0.5, 0.2, 0.8], n_high=1, rank_high=8, rank_low=4)
    a1 = init_adapters(toy_weights, plan, seed=11)
    a2 = init_adapters(toy_weights, plan, seed=11)
    a3 = init_adapters(toy_weights, plan, seed=12)
    for (n1, t1), (n2, t2) in zip(a1.named_tensors(), a2.named_tensors()):
        assert n1 == n2 and np.array_equal(t1.data, t2.data)
    assert not np.array_equal(
        next(a1.named_tensors())[1].data, next(a3.named_tensors())[1].data
    )


def test_adapter_shapes_follow_pruned_projections():
    # d_h = 8; keep 2 of 4 heads in block 0 -> projection width 16
    cfg = ModelConfig(num_layers=2, num_heads=4, hidden=32, ffn_dim=64,
                      vocab_size=8, max_positions=8)
    weights = init_weights(cfg, seed=0)
    keep = np.ones((2, 4), dtype=bool)
    keep[0, 1] = keep[0, 3] = False
    pruned = apply_slice_prune(weights, PrunePlan(keep=keep, keep_count=6))
    adapters = init_adapters(pruned, RankPlan([4, 4], 0, 4, 4), seed=0)
    a_q, b_q = adapters.for_block(0)["q"]
    assert a_q.data.shape == (32, 4)
    assert b_q.data.shape == (4, 16)
    a_o, b_o = adapters.for_block(0)["o"]
    assert a_o.data.shape == (16, 4)
    assert b_o.data.shape == (4, 32)
    # B starts at exactly zero
    assert np.all(b_q.data == 0) and np.all(b_o.data == 0)


def test_adapter_forward_equals_merged_matmul(toy_weights, parity_batch):
    """A scaled side path equals the base forward with scaling * A @ B
    folded into every projection."""
    batch = parity_batch.slice(0, 8)
    plan = make_rank_plan([0.3, 0.9, 0.1, 0.5], n_high=2, rank_high=8, rank_low=4)
    adapters = perturb(init_adapters(toy_weights, plan, seed=4, scaling=0.7))
    folded = toy_weights.clone()
    for l, blk in enumerate(folded.blocks):
        for t, attr in TARGETS.items():
            a, b = adapters.for_block(l)[t]
            getattr(blk, attr).data += 0.7 * (a.data @ b.data)
    side = forward(toy_weights, batch, adapters=adapters)
    assert np.abs(side.data - forward(folded, batch).data).max() < 1e-10


def test_merge_zero_b_is_bit_exact():
    rng = np.random.default_rng(4)
    w = Tensor(rng.uniform(-1, 1, (5, 4)))
    merged = merge(w, Tensor(rng.uniform(-1, 1, (5, 2))),
                   Tensor(np.zeros((2, 4))))
    assert np.array_equal(merged.data, w.data)
    assert merged is not w


def test_merge_shape_mismatch():
    with pytest.raises(ValueError, match="compose"):
        merge(Tensor(np.zeros((5, 4))), Tensor(np.zeros((5, 2))),
              Tensor(np.zeros((3, 4))))


def test_end_to_end_merge_equivalence(toy_weights, parity_batch):
    batch = parity_batch.slice(0, 16)
    plan = make_rank_plan([0.3, 0.9, 0.1, 0.5], n_high=2, rank_high=8, rank_low=4)
    adapters = perturb(init_adapters(toy_weights, plan, seed=5))
    merged = merge_adapters(toy_weights, adapters)
    via_adapters = forward(toy_weights, batch, adapters=adapters)
    via_merged = forward(merged, batch)
    assert np.abs(via_adapters.data - via_merged.data).max() < 1e-10
    # base stays untouched
    fresh = forward(toy_weights, batch)
    base_plain = forward(toy_weights, batch)
    assert np.array_equal(fresh.data, base_plain.data)


def test_double_merge_adds_delta_twice(toy_weights):
    plan = make_rank_plan([1.0] * 4, n_high=0, rank_high=8, rank_low=4)
    adapters = perturb(init_adapters(toy_weights, plan, seed=6))
    once = merge_adapters(toy_weights, adapters)
    twice = merge_adapters(once, adapters)
    delta = once.blocks[0].wq.data - toy_weights.blocks[0].wq.data
    delta2 = twice.blocks[0].wq.data - toy_weights.blocks[0].wq.data
    assert np.abs(delta2 - 2 * delta).max() < 1e-12


def test_rank_r_embeds_into_rank_r_plus_one(toy_weights, parity_batch):
    """Padding A with a zero column and B with a zero row changes nothing."""
    batch = parity_batch.slice(0, 8)
    plan = make_rank_plan([0.4, 0.6, 0.2, 0.8], n_high=2, rank_high=6, rank_low=3)
    adapters = perturb(init_adapters(toy_weights, plan, seed=7))
    out_r = forward(toy_weights, batch, adapters=adapters)

    padded_plan = RankPlan([r + 1 for r in plan.block_rank], plan.n_high,
                           plan.rank_high + 1, plan.rank_low + 1)
    padded = init_adapters(toy_weights, padded_plan, seed=7)
    for l in range(4):
        for t in TARGETS:
            a, b = adapters.for_block(l)[t]
            pa, pb = padded.for_block(l)[t]
            pa.data[...] = np.concatenate(
                [a.data, np.zeros((a.data.shape[0], 1))], axis=1)
            pb.data[...] = np.concatenate(
                [b.data, np.zeros((1, b.data.shape[1]))], axis=0)
    out_r1 = forward(toy_weights, batch, adapters=padded)
    # the zero row/column contributes exact zeros; BLAS may still block
    # the longer inner dimension differently, so allow summation noise
    assert np.abs(out_r.data - out_r1.data).max() < 1e-12


def test_trainable_count_matches_closed_form(toy_config, toy_weights):
    plan = make_rank_plan([0.4, 0.6, 0.2, 0.8], n_high=1, rank_high=8, rank_low=4)
    adapters = init_adapters(toy_weights, plan, seed=8)
    d = toy_config.hidden
    expected = sum(4 * r * (d + d) for r in plan.block_rank)
    assert adapters.num_params() == expected


def test_adapter_checkpoint_roundtrip(toy_weights, tmp_path):
    plan = make_rank_plan([0.4, 0.6, 0.2, 0.8], n_high=2, rank_high=8, rank_low=4)
    adapters = perturb(init_adapters(toy_weights, plan, seed=9, scaling=0.5))
    path = tmp_path / "adapters.ckpt"
    save_adapters(path, adapters)
    loaded = load_adapters(path, weights=toy_weights)
    assert loaded.plan.block_rank == plan.block_rank
    assert loaded.seed == 9 and loaded.scaling == 0.5
    for (n1, t1), (n2, t2) in zip(adapters.named_tensors(),
                                  loaded.named_tensors()):
        assert n1 == n2 and np.array_equal(t1.data, t2.data)


def test_adapters_validate_against_model(toy_weights):
    other = init_weights(ModelConfig(num_layers=4, num_heads=4, hidden=32,
                                     ffn_dim=64, vocab_size=8,
                                     max_positions=8), seed=0)
    plan = make_rank_plan([1.0] * 4, n_high=0, rank_high=4, rank_low=4)
    adapters = init_adapters(other, plan, seed=0)
    with pytest.raises(ValueError, match="do not fit"):
        validate_against(adapters, toy_weights)


# ---------------------------------------------------------------------------
# a block that lost every head: zero-wide projections, same path


def test_empty_block_zero_b_adapters_are_bit_identical(empty_block_weights,
                                                       parity_batch):
    batch = parity_batch.slice(0, 8)
    plan = make_rank_plan([0.4, 0.3, 0.2, 0.1], n_high=2, rank_high=8, rank_low=4)
    adapters = init_adapters(empty_block_weights, plan, seed=3)
    assert adapters.for_block(2)["q"][1].data.shape == (4, 0)
    assert np.array_equal(
        forward(empty_block_weights, batch, adapters=adapters).data,
        forward(empty_block_weights, batch).data)


def test_empty_block_merge_is_exact(empty_block_weights, parity_batch):
    batch = parity_batch.slice(0, 16)
    plan = make_rank_plan([0.4, 0.3, 0.2, 0.1], n_high=2, rank_high=8, rank_low=4)
    adapters = perturb(init_adapters(empty_block_weights, plan, seed=5))
    merged = merge_adapters(empty_block_weights, adapters)
    assert merged.blocks[2].wo.data.shape == (0, 64)
    via_adapters = forward(empty_block_weights, batch, adapters=adapters)
    assert np.abs(via_adapters.data - forward(merged, batch).data).max() < 1e-10


def test_empty_block_adapters_decay_without_changing_logits(
        empty_block_weights, parity_batch):
    """The emptied block's adapters get zero (Q/K/V A, output B) or empty
    gradients, so weight decay shrinks its Q/K/V A matrices; they multiply
    a B with no columns, so no logit moves."""
    batch = parity_batch.slice(0, 8)
    weights = empty_block_weights
    plan = make_rank_plan([0.4, 0.3, 0.2, 0.1], n_high=2, rank_high=8, rank_low=4)
    adapters = perturb(init_adapters(weights, plan, seed=6))
    freeze_policy(weights, adapters, "prune_lora")
    before = forward(weights, batch, adapters=adapters).data.copy()
    ag.backward(ag.cross_entropy(forward(weights, batch, adapters=adapters),
                                 batch.labels))
    pairs = adapters.for_block(2)
    for target, (a, b) in pairs.items():
        assert a.grad.shape == a.data.shape and b.grad.shape == b.data.shape
        assert not a.grad.any() and not b.grad.any(), target
    a_q = pairs["q"][0].data.copy()
    opt = AdamW([t for pair in pairs.values() for t in pair],
                lr=0.1, weight_decay=0.5)
    opt.step()
    assert np.array_equal(pairs["q"][0].data, a_q * (1.0 - 0.1 * 0.5))
    assert np.array_equal(forward(weights, batch, adapters=adapters).data, before)
