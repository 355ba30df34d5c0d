import json

import numpy as np
import pytest

from prunelora import (
    PrunePlan,
    RankPlan,
    apply_mask_prune,
    apply_slice_prune,
    forward,
    init_weights,
    select_heads,
)
from prunelora.accounting import per_head_params
from prunelora.autograd import Tensor
from prunelora.model import HeadMask
from prunelora.schema import ConfigError


def random_plan(rng, shape=(4, 4), zero_block=None):
    keep = rng.random(shape) > 0.35
    if zero_block is not None:
        keep[zero_block, :] = False
    return PrunePlan(keep=keep, keep_count=int(keep.sum()))


def test_keep_all_heads():
    plan = select_heads(np.random.default_rng(0).random((4, 4)), 16)
    assert plan.keep.all()
    assert plan.pruned_count() == 0


def test_keep_count_out_of_range():
    scores = np.zeros((4, 4))
    with pytest.raises(ValueError, match="out of range"):
        select_heads(scores, 17)
    with pytest.raises(ValueError, match="out of range"):
        select_heads(scores, -1)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_score_is_refused_and_named(value):
    """A NaN sorts as neither above nor below 0.9, so it used to be kept
    in place of the best head."""
    with pytest.raises(ValueError, match=r"head \(0, 1\) is not finite"):
        select_heads(np.array([[0.5, value], [0.2, 0.9]]), 2)


def test_reference_geometry_prunes_44_heads():
    rng = np.random.default_rng(1)
    plan = select_heads(rng.random((12, 12)), 100)
    assert plan.keep_count == 100
    assert plan.pruned_count() == 44


def test_selection_matches_brute_force_sort():
    rng = np.random.default_rng(2)
    for trial in range(20):
        scores = rng.integers(0, 6, (4, 4)).astype(float)  # many ties
        k = int(rng.integers(0, 17))
        plan = select_heads(scores, k)
        # independent path: numpy lexsort, most-significant key last
        flat_l, flat_h = np.divmod(np.arange(16), 4)
        order = np.lexsort((flat_h, flat_l, -scores.ravel()))
        expected = set(map(int, order[:k]))
        got = {int(l * 4 + h) for l, h in zip(*np.nonzero(plan.keep))}
        assert got == expected


def test_tie_break_prefers_lower_layer_then_head():
    plan = select_heads(np.ones((2, 2)), 2)
    assert plan.keep.tolist() == [[True, True], [False, False]]


def test_mask_prune_empty_set_is_identity(toy_weights):
    plan = PrunePlan(keep=np.ones((4, 4), dtype=bool), keep_count=16)
    pruned, mask = apply_mask_prune(toy_weights, plan)
    for (_, a), (_, b) in zip(toy_weights.named_tensors(),
                              pruned.named_tensors()):
        assert np.array_equal(a.data, b.data)
    assert np.all(mask.values == 1.0)


def test_mask_prune_zeroes_the_right_slices(toy_weights):
    keep = np.ones((4, 4), dtype=bool)
    keep[1, 2] = False
    plan = PrunePlan(keep=keep, keep_count=15)
    pruned, mask = apply_mask_prune(toy_weights, plan)
    d_h = toy_weights.config.head_dim
    sl = slice(2 * d_h, 3 * d_h)
    blk = pruned.blocks[1]
    assert np.all(blk.wq.data[:, sl] == 0) and np.all(blk.bq.data[sl] == 0)
    assert np.all(blk.wk.data[:, sl] == 0) and np.all(blk.wv.data[:, sl] == 0)
    assert np.all(blk.wo.data[sl, :] == 0)
    assert mask.values[1, 2] == 0.0
    # untouched neighbours
    assert np.array_equal(blk.w_up.data, toy_weights.blocks[1].w_up.data)
    assert not np.all(blk.wq.data[:, :2 * d_h] == 0)


def test_masked_prune_equals_masking_original(toy_weights, parity_batch):
    batch = parity_batch.slice(0, 8)
    rng = np.random.default_rng(3)
    plan = random_plan(rng)
    pruned, mask = apply_mask_prune(toy_weights, plan)
    via_prune = forward(pruned, batch, mask=mask)
    via_mask_only = forward(
        toy_weights, batch,
        mask=HeadMask(Tensor(plan.keep.astype(float), requires_grad=False)),
    )
    assert np.abs(via_prune.data - via_mask_only.data).max() < 1e-12


def test_slice_keep_all_is_numerically_identical(toy_weights, parity_batch):
    plan = PrunePlan(keep=np.ones((4, 4), dtype=bool), keep_count=16)
    sliced = apply_slice_prune(toy_weights, plan)
    assert sliced.blocks[0].wq.data.shape == (64, 64)
    batch = parity_batch.slice(0, 4)
    assert np.array_equal(forward(sliced, batch).data,
                          forward(toy_weights, batch).data)


def test_zero_head_block_reduces_to_output_bias(toy_weights, parity_batch):
    batch = parity_batch.slice(0, 8)
    keep = np.ones((4, 4), dtype=bool)
    keep[2, :] = False
    plan = PrunePlan(keep=keep, keep_count=12)
    sliced = apply_slice_prune(toy_weights, plan)
    assert sliced.blocks[2].wq.data.shape == (64, 0)

    # reference: block 2's MHA replaced by a bias broadcast (zeroed weights)
    reference = toy_weights.clone()
    blk = reference.blocks[2]
    for t in (blk.wq, blk.bq, blk.wk, blk.bk, blk.wv, blk.bv, blk.wo):
        t.data[...] = 0.0
    assert np.abs(forward(sliced, batch).data
                  - forward(reference, batch).data).max() < 1e-12


def test_mask_slice_equivalence_random_plans(toy_weights, parity_batch):
    batch = parity_batch.slice(0, 8)
    rng = np.random.default_rng(4)
    for trial in range(5):
        plan = random_plan(rng, zero_block=trial % 4 if trial else None)
        masked, mask = apply_mask_prune(toy_weights, plan)
        sliced = apply_slice_prune(toy_weights, plan)
        lm = forward(masked, batch, mask=mask).data
        ls = forward(sliced, batch).data
        assert np.abs(lm - ls).max() < 1e-9


def test_param_count_drops_exactly_per_head(toy_config, toy_weights):
    rng = np.random.default_rng(5)
    cost = per_head_params(toy_config)
    assert cost == 3 * (64 * 16 + 16) + 16 * 64
    previous = toy_weights.num_params()
    for pruned_heads in (1, 5, 9, 16):
        keep = np.ones(16, dtype=bool)
        keep[rng.choice(16, size=pruned_heads, replace=False)] = False
        plan = PrunePlan(keep=keep.reshape(4, 4),
                         keep_count=16 - pruned_heads)
        sliced = apply_slice_prune(toy_weights, plan)
        assert sliced.num_params() == toy_weights.num_params() - pruned_heads * cost
        assert sliced.num_params() < previous
        previous = sliced.num_params()


def test_reslicing_same_plan_is_noop(toy_weights):
    rng = np.random.default_rng(6)
    plan = random_plan(rng)
    once = apply_slice_prune(toy_weights, plan)
    twice = apply_slice_prune(once, plan)
    assert twice.head_index_map == once.head_index_map
    for (_, a), (_, b) in zip(once.named_tensors(), twice.named_tensors()):
        assert np.array_equal(a.data, b.data)


def test_slicing_cannot_resurrect_pruned_heads(toy_weights):
    keep = np.ones((4, 4), dtype=bool)
    keep[0, 0] = False
    sliced = apply_slice_prune(toy_weights,
                               PrunePlan(keep=keep, keep_count=15))
    with pytest.raises(ValueError, match="already pruned"):
        apply_slice_prune(sliced,
                          PrunePlan(keep=np.ones((4, 4), dtype=bool),
                                    keep_count=16))


def test_plan_json_roundtrip(tmp_path):
    plan = random_plan(np.random.default_rng(7))
    plan.source_map_digest = "abc123"
    path = tmp_path / "plan.json"
    plan.save(path)
    loaded = PrunePlan.load(path)
    assert np.array_equal(loaded.keep, plan.keep)
    assert loaded.keep_count == plan.keep_count
    assert loaded.source_map_digest == "abc123"


GOOD_PLANS = {
    PrunePlan: {"keep": [[1, 0], [0, 1]], "keep_count": 2,
                "source_map_digest": "abc"},
    RankPlan: {"block_rank": [8, 4], "n_high": 1, "rank_high": 8,
               "rank_low": 4, "source_importance": [0.9, 0.1]},
}
PLAN_DAMAGE = {
    "prune list": (PrunePlan, lambda d: [1]),
    "prune no keep_count": (PrunePlan, lambda d: without(d, "keep_count")),
    "prune unknown key": (PrunePlan, lambda d: {**d, "extra": 1}),
    "prune keep_count str": (PrunePlan, lambda d: {**d, "keep_count": "2"}),
    "prune keep 2": (PrunePlan, lambda d: {**d, "keep": [[2, 0], [0, 1]]}),
    "prune keep str": (PrunePlan, lambda d: {**d, "keep": [["a", 0], [0, 1]]}),
    "prune keep 0.5": (PrunePlan, lambda d: {**d, "keep": [[0.5, 0], [0, 1]]}),
    "prune keep 1-D": (PrunePlan, lambda d: {**d, "keep": [1, 0, 0, 1]}),
    "rank list": (RankPlan, lambda d: [1]),
    "rank no n_high": (RankPlan, lambda d: without(d, "n_high")),
    "rank unknown key": (RankPlan, lambda d: {**d, "extra": 1}),
    "rank n_high 1.5": (RankPlan, lambda d: {**d, "n_high": 1.5}),
    "rank block_rank true": (RankPlan, lambda d: {**d, "block_rank": [True]}),
    "rank block_rank str": (RankPlan, lambda d: {**d, "block_rank": ["4"]}),
    "rank importance bool": (RankPlan,
                             lambda d: {**d, "source_importance": [False]}),
}


def without(d, key):
    return {k: v for k, v in d.items() if k != key}


@pytest.mark.parametrize("damage", list(PLAN_DAMAGE))
def test_malformed_plan_file_is_config_error(tmp_path, damage):
    cls, change = PLAN_DAMAGE[damage]
    path = tmp_path / "damaged_plan.json"
    path.write_text(json.dumps(GOOD_PLANS[cls]))
    assert cls.load(path).to_dict() == GOOD_PLANS[cls]
    path.write_text(json.dumps(change(GOOD_PLANS[cls])))
    with pytest.raises(ConfigError, match="damaged_plan.json"):
        cls.load(path)


@pytest.mark.parametrize("cls", [PrunePlan, RankPlan])
def test_plan_file_that_is_not_json_is_config_error(tmp_path, cls):
    path = tmp_path / "damaged_plan.json"
    path.write_text(json.dumps(GOOD_PLANS[cls])[:-1])
    with pytest.raises(ConfigError, match="damaged_plan.json"):
        cls.load(path)


def test_plan_inconsistent_count_rejected():
    with pytest.raises(ValueError, match="keeps"):
        PrunePlan(keep=np.ones((2, 2), dtype=bool), keep_count=3)


def test_kept_head_order_is_preserved(toy_config):
    weights = init_weights(toy_config, seed=2)
    keep = np.array([[True, False, True, False]] * 4)
    plan = PrunePlan(keep=keep, keep_count=8)
    sliced = apply_slice_prune(weights, plan)
    assert sliced.head_index_map == [[0, 2]] * 4
    d_h = toy_config.head_dim
    # kept slices are the original columns, in original order
    assert np.array_equal(sliced.blocks[0].wq.data[:, :d_h],
                          weights.blocks[0].wq.data[:, :d_h])
    assert np.array_equal(sliced.blocks[0].wq.data[:, d_h:],
                          weights.blocks[0].wq.data[:, 2 * d_h:3 * d_h])
