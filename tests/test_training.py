import math
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from prunelora import autograd as ag
from prunelora import training
from prunelora import (
    SyntheticTaskSpec,
    TransformerWeights,
    forward,
    freeze_policy,
    generate,
    init_adapters,
    init_weights,
    make_rank_plan,
    run_regime,
    train,
)
from prunelora.autograd import Tensor
from prunelora.training import (
    ADAMW_BETA1,
    ADAMW_BETA2,
    ADAMW_EPS,
    AdamW,
    TrainConfig,
    TrainingDiverged,
    evaluate,
)

from conftest import weighted_sum


def small_task(kind="majority-token", train_size=128, eval_size=64, seed=0):
    spec = SyntheticTaskSpec(kind=kind, seq_len=9, vocab_size=16, seed=seed,
                             train_size=train_size, eval_size=eval_size)
    return generate(spec)


def uniform_plan(num_layers=4, rank=4):
    return make_rank_plan([1.0] * num_layers, n_high=0, rank_high=rank,
                          rank_low=rank)


def test_full_finetune_trains_everything(toy_weights):
    trainable = freeze_policy(toy_weights, None, "full_finetune")
    assert set(map(id, trainable)) == set(map(id, toy_weights.all_tensors()))
    assert all(t.requires_grad for t in trainable)


def test_adapter_regime_trainable_set_is_exact(toy_weights):
    adapters = init_adapters(toy_weights, uniform_plan(), seed=0)
    trainable = freeze_policy(toy_weights, adapters, "lora")
    expected = (toy_weights.layernorm_tensors()
                + [toy_weights.classifier_w, toy_weights.classifier_b]
                + adapters.all_tensors())
    assert set(map(id, trainable)) == set(map(id, expected))
    # exhaustive: everything else is frozen
    for name, t in toy_weights.named_tensors():
        frozen = not ("ln" in name or name.startswith("classifier"))
        assert t.requires_grad != frozen, name


def test_regime_adapter_mismatch_rejected(toy_weights):
    with pytest.raises(ValueError, match="disagree"):
        freeze_policy(toy_weights, None, "lora")
    adapters = init_adapters(toy_weights, uniform_plan(), seed=0)
    with pytest.raises(ValueError, match="disagree"):
        freeze_policy(toy_weights, adapters, "full_finetune")


def test_frozen_base_gets_no_gradient(toy_weights, parity_batch):
    batch = parity_batch.slice(0, 8)
    adapters = init_adapters(toy_weights, uniform_plan(), seed=0)
    freeze_policy(toy_weights, adapters, "lora")
    loss = ag.cross_entropy(forward(toy_weights, batch, adapters=adapters),
                            batch.labels)
    ag.backward(loss)
    assert toy_weights.blocks[0].wq.grad is None
    assert toy_weights.blocks[0].ln1_gamma.grad is not None
    a, b = adapters.for_block(0)["q"]
    assert a.grad is not None and b.grad is not None


# ---------------------------------------------------------------------------
# AdamW


def test_adamw_pure_decay_step():
    w = Tensor(np.array(1.0), requires_grad=True)
    w.grad = np.array(0.0)
    opt = AdamW([w], lr=0.1, weight_decay=0.01)
    opt.step()
    assert float(w.data) == pytest.approx(0.999, abs=1e-15)


def test_adamw_single_step_matches_hand_computation():
    w = Tensor(np.array(2.0), requires_grad=True)
    g = 0.5
    w.grad = np.array(g)
    lr, eps = 0.01, ADAMW_EPS
    opt = AdamW([w], lr=lr, weight_decay=0.0)
    opt.step()
    # bias-corrected first step: m_hat = g, v_hat = g^2
    expected = 2.0 - lr * g / (abs(g) + eps)
    assert float(w.data) == pytest.approx(expected, abs=1e-12)


def reference_step(p, m, v, g, t, lr, wd):
    """AdamW step `t` of the reference expression, as new (p, m, v): the
    decay as one factor, then the moments, then the step with lr/bc1 and
    1/sqrt(bc2) folded into two scalars,
        p -= m / ((sqrt(v) + eps*sqrt(bc2)) * bc1/(lr*sqrt(bc2)))
    which is lr*(m/bc1) / (sqrt(v/bc2) + eps)."""
    bc1, bc2 = 1.0 - ADAMW_BETA1 ** t, 1.0 - ADAMW_BETA2 ** t
    p = p * (1.0 - lr * wd)
    m = ADAMW_BETA1 * m + (1.0 - ADAMW_BETA1) * g
    v = ADAMW_BETA2 * v + (1.0 - ADAMW_BETA2) * (g * g)
    s = (np.sqrt(v) + ADAMW_EPS * math.sqrt(bc2)) * (bc1 / (lr * math.sqrt(bc2)))
    return p - m / s, m, v


def test_adamw_steps_match_the_reference_expression():
    rng = np.random.default_rng(3)
    shapes = [(5, 4), (7,), ()]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    lr, wd = 1e-2, 0.1
    opt = AdamW(params, lr=lr, weight_decay=wd)
    ref = [p.data.copy() for p in params]
    m = [np.zeros(s) for s in shapes]
    v = [np.zeros(s) for s in shapes]
    for t in range(1, 4):
        grads = [rng.normal(size=s) for s in shapes]
        for p, g in zip(params, grads):
            p.grad = g.copy()
        opt.step()
        for i, g in enumerate(grads):
            ref[i], m[i], v[i] = reference_step(ref[i], m[i], v[i], g, t, lr, wd)
            assert np.array_equal(params[i].data, ref[i])
            assert np.array_equal(params[i].grad, g)  # grad left as given


def test_adamw_folded_step_is_the_textbook_step():
    # the reference expression against AdamW as written in the paper
    # (Loshchilov & Hutter 2019), over 200 steps
    rng = np.random.default_rng(13)
    lr, wd, b1, b2 = 1e-2, 0.1, ADAMW_BETA1, ADAMW_BETA2
    p = ref = rng.normal(size=64)
    m = v = tm = tv = np.zeros(64)
    for t in range(1, 201):
        g = rng.normal(size=64)
        ref, m, v = reference_step(ref, m, v, g, t, lr, wd)
        p = p - lr * wd * p
        tm = b1 * tm + (1.0 - b1) * g
        tv = b2 * tv + (1.0 - b2) * (g * g)
        p = p - lr * (tm / (1.0 - b1 ** t)) / (np.sqrt(tv / (1.0 - b2 ** t))
                                                + ADAMW_EPS)
    assert np.abs(ref - p).max() < 1e-12


@pytest.fixture
def small_chunk(monkeypatch):
    """AdamW.step updates tensors in row blocks of at most 8 elements, or
    one row where a row is wider."""
    monkeypatch.setattr(training, "ADAMW_CHUNK", 8)
    return 8


def transposed(a):
    """The same values as `a` in a non-contiguous (transposed) layout."""
    return np.ascontiguousarray(a.T).T


def check_adamw_against_reference(params, wd, grad_layout=None, steps=3):
    """Run `steps` AdamW steps and compare every parameter, bit for bit, with
    the reference expression. grad_layout[i], if given, re-lays out each
    gradient of params[i] (e.g. `transposed`)."""
    rng = np.random.default_rng(11)
    lr = 1e-2
    layout = grad_layout or [None] * len(params)
    opt = AdamW(params, lr=lr, weight_decay=wd)
    ref = [p.data.copy() for p in params]
    m = [np.zeros(p.data.shape) for p in params]
    v = [np.zeros(p.data.shape) for p in params]
    for t in range(1, steps + 1):
        grads = [rng.normal(size=p.data.shape) for p in params]
        grads = [f(g) if f else g for f, g in zip(layout, grads)]
        for p, g in zip(params, grads):
            p.grad = g
        opt.step()
        for i, g in enumerate(grads):
            ref[i], m[i], v[i] = reference_step(ref[i], m[i], v[i], g, t, lr, wd)
            assert np.array_equal(params[i].data, ref[i]), (t, i)


@pytest.mark.parametrize("wd", [0.0, 0.1])
def test_adamw_chunked_step_matches_the_reference_expression(small_chunk, wd):
    rng = np.random.default_rng(4)
    # below, at and above one chunk, a 3-D tensor over several chunks, rows
    # wider than a chunk, and a scalar
    shapes = [(small_chunk - 1,), (small_chunk,), (small_chunk + 5,),
              (3, 4, 5), (2, small_chunk + 3), ()]
    params = [Tensor(rng.normal(size=s), requires_grad=True) for s in shapes]
    check_adamw_against_reference(params, wd)


@pytest.mark.parametrize("wd", [0.0, 0.1])
@pytest.mark.parametrize("shape", [(12, 5), (2, 3)], ids=["large", "small"])
def test_adamw_updates_a_non_contiguous_parameter_in_place(small_chunk, wd,
                                                           shape):
    rng = np.random.default_rng(5)
    p = Tensor(rng.normal(size=shape), requires_grad=True)
    p.data = p.data.T  # a transposed view
    assert not p.data.flags.c_contiguous
    data = p.data
    check_adamw_against_reference([p], wd)
    assert p.data is data


def test_adamw_non_contiguous_gradient(small_chunk):
    rng = np.random.default_rng(6)
    params = [Tensor(rng.normal(size=(5, 12)), requires_grad=True),
              Tensor(rng.normal(size=(13,)), requires_grad=True)]
    check_adamw_against_reference(params, 0.1,
                                  grad_layout=[transposed, None])


@pytest.mark.parametrize("others", [[], [(3,)], [(20,)]],
                         ids=["alone", "small", "chunked"])
def test_adamw_size_zero_parameter(small_chunk, others):
    # a sliced block that lost every head keeps (hidden, 0) projections
    rng = np.random.default_rng(7)
    params = [Tensor(np.zeros((4, 0)), requires_grad=True)]
    params += [Tensor(rng.normal(size=s), requires_grad=True) for s in others]
    check_adamw_against_reference(params, 0.1)
    assert params[0].data.shape == (4, 0)


def step_scratch_peak(opt):
    """Peak bytes allocated by one `opt.step()`."""
    tracemalloc.start()
    try:
        opt.step()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_adamw_step_scratch_stays_within_three_chunks():
    size = 8 * training.ADAMW_CHUNK
    rng = np.random.default_rng(8)
    p = Tensor(rng.normal(size=(size // 64, 64)), requires_grad=True)
    p.grad = rng.normal(size=p.data.shape)
    opt = AdamW([p], lr=1e-3, weight_decay=0.01)
    # two scratch arrays the size of the tensor would make 16 chunk-sizes
    assert step_scratch_peak(opt) < 3 * training.ADAMW_CHUNK * 8


def test_adamw_step_allocates_no_scratch(toy_config):
    # one step over every toy tensor; scratch made per tensor would take 256 KiB
    rng = np.random.default_rng(10)
    weights = init_weights(toy_config, seed=0)
    params = freeze_policy(weights, None, "full_finetune")
    for p in params:
        p.grad = rng.normal(size=p.data.shape)
    opt = AdamW(params, lr=1e-3, weight_decay=0.01)
    assert step_scratch_peak(opt) < 16 * 1024


def test_adamw_row_tracked_step_scratch_stays_within_three_chunks():
    # every row looked up: every chunk gets the full update
    size = 8 * training.ADAMW_CHUNK
    rng = np.random.default_rng(8)
    table = Tensor(rng.normal(size=(size // 64, 64)), requires_grad=True)
    ag.backward(weighted_sum(ag.embedding(table, np.arange(size // 64)), 1.0))
    assert table.grad_rows.all()
    opt = AdamW([table], lr=1e-3, weight_decay=0.01)
    assert step_scratch_peak(opt) < 3 * training.ADAMW_CHUNK * 8
    assert opt.live[0].all()


def test_adamw_leaves_pages_of_chunks_without_live_rows_unmapped():
    """One step on a 32 MiB table whose 32 looked-up rows lie in its first
    2 of 128 chunks maps the gradient and moment pages of those chunks
    only. A dense step, on a same-size table with a looked-up row in every
    chunk, maps all three arrays: about 41 k faults with 4 KiB pages and
    2.7 k where numpy's arrays get transparent huge pages. The sparse step
    took 0.016-0.019 of the dense step's faults with 4 KiB pages and
    0.18-0.21 with huge pages (x86-64 Linux, numpy 2.4); a step that stops
    skipping chunks maps what the dense step maps."""
    resource = pytest.importorskip("resource")
    rng = np.random.default_rng(9)
    rows_per_chunk = training.ADAMW_CHUNK // 64

    def one_step(draw_ids):
        table = Tensor(rng.normal(size=(1 << 16, 64)), requires_grad=True)
        opt = AdamW([table], lr=1e-3, weight_decay=0.01)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        ag.backward(weighted_sum(ag.embedding(table, draw_ids()), 1.0))
        opt.step()
        return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before, opt

    sparse, sparse_opt = one_step(
        lambda: rng.integers(0, 2 * rows_per_chunk, size=(2, 16)))
    # the sparse step's arrays stay alive, so the dense step maps fresh pages
    dense, dense_opt = one_step(
        lambda: np.arange(0, 1 << 16, rows_per_chunk))
    assert np.count_nonzero(sparse_opt.live[0]) <= 32
    assert np.count_nonzero(dense_opt.live[0]) == 128
    assert sparse < 2000
    assert sparse < 0.5 * dense


# ids looked up at each step: row 4 at step 1 only, row 5 first at step 3,
# row 10 at step 4 only, row 3 first at step 5
ROW_STEPS = [[[0, 4], [2, 2]], [0, 1, 1], [[5, 0], [2, 5]], [1, 10], [3, 0]]


def train_table(wd, contribute, shape=(16, 3)):
    """Train a table of `shape` with AdamW, one step per entry of ROW_STEPS,
    and compare it and both moments, bit for bit, with the dense reference
    expression after every step. `contribute(table, ids, step, rng)` runs
    the step's forward and backward. Returns the optimizer."""
    rng = np.random.default_rng(12)
    table = Tensor(rng.normal(size=shape), requires_grad=True)
    lr = 1e-2
    opt = AdamW([table], lr=lr, weight_decay=wd)
    ref = table.data.copy()
    m, v = np.zeros(ref.shape), np.zeros(ref.shape)
    for t, ids in enumerate(ROW_STEPS, start=1):
        contribute(table, np.array(ids), t, rng)
        g = table.grad.copy()
        opt.step()
        opt.zero_grad()
        ref, m, v = reference_step(ref, m, v, g, t, lr, wd)
        assert np.array_equal(table.data, ref), t
        assert np.array_equal(opt.m[0], m), t
        assert np.array_equal(opt.v[0], v), t
    return opt


def lookup(table, ids, step, rng):
    out = ag.embedding(table, ids)
    ag.backward(weighted_sum(out, rng.normal(size=out.data.shape)))
    assert np.array_equal(np.flatnonzero(table.grad_rows), np.unique(ids))


# 8-element chunks. 3-wide rows go two to a block: block 2 (rows 4-5) is
# live from step 1 through row 4, block 5 (rows 10-11) from step 4 on,
# blocks 3, 4, 6 and 7 never are. 1-wide rows go eight to a block: blocks
# 2-5 never hold a live row. Rows 20 and 9 wide are wider than a chunk, so
# each is a block of its own.
@pytest.mark.parametrize("wd", [0.0, 0.1])
@pytest.mark.parametrize("shape", [(16, 3), (48, 1), (12, 20), (11, 9)],
                         ids=["straddling-rows", "narrow-rows", "wide-rows",
                              "rows-past-a-chunk"])
def test_adamw_row_tracked_table_matches_the_reference_expression(small_chunk,
                                                                  wd, shape):
    opt = train_table(wd, lookup, shape)
    # the table stayed row-tracked, with the rows looked up so far live
    assert np.array_equal(np.flatnonzero(opt.live[0]), [0, 1, 2, 3, 4, 5, 10])


@pytest.mark.parametrize("wd", [0.0, 0.1])
@pytest.mark.parametrize("dense_runs", ["first", "last"])
def test_adamw_table_with_a_dense_contribution_falls_back_to_dense(
        small_chunk, wd, dense_runs):
    def contribute(table, ids, step, rng):
        rows, width = table.data.shape

        def dense_term():
            # the table as a projection weight: a gradient on every row
            x = Tensor(rng.normal(size=ids.shape + (rows,)))
            return ag.linear(x, table, Tensor(np.zeros(width)))

        # backward runs nodes in reverse creation order
        if dense_runs == "last":
            dense = dense_term()
        looked_up = ag.embedding(table, ids)
        if dense_runs == "first":
            dense = dense_term()
        out = ag.layernorm((looked_up, dense), Tensor(np.ones(width)),
                           Tensor(np.zeros(width)))
        ag.backward(weighted_sum(out, rng.normal(size=out.data.shape)))
        assert table.grad_rows is None

    opt = train_table(wd, contribute)
    assert opt.live[0] is None


@pytest.mark.parametrize("wd", [0.0, 0.1])
def test_adamw_hand_assigned_grad_is_dense(small_chunk, wd):
    def contribute(table, ids, step, rng):
        lookup(table, ids, step, rng)
        if step == 2:
            # every row, not only the looked-up ones, has a gradient now
            table.grad = table.grad + rng.normal(size=table.data.shape)
            assert table.grad_rows is None

    opt = train_table(wd, contribute)
    assert opt.live[0] is None


@pytest.mark.parametrize("wd", [0.0, 0.1])
def test_adamw_zero_grad_clears_the_row_set(small_chunk, wd):
    grads = []

    def contribute(table, ids, step, rng):
        assert table.grad is None and table.grad_rows is None
        # the previous step's gradient is freed, row set and all
        assert all(ref() is None for ref in grads)
        lookup(table, ids, step, rng)
        grads.append(weakref.ref(table.grad))

    opt = train_table(wd, contribute)
    assert opt.live[0] is not None


def test_adamw_refuses_a_gradient_of_another_shape(toy_config):
    rng = np.random.default_rng(14)
    params = [Tensor(rng.normal(size=(3,)), requires_grad=True),
              Tensor(rng.normal(size=(5, 4)), requires_grad=True)]
    params[0].grad = rng.normal(size=(3,))
    params[1].grad = rng.normal(size=(4,))  # would broadcast over every row
    before = [p.data.copy() for p in params]
    opt = AdamW(params, lr=0.1, weight_decay=0.1)
    with pytest.raises(ValueError, match=r"parameter 1: gradient shape \(4,\) "
                                         r"differs from the parameter's \(5, 4\)"):
        opt.step()
    # a refused step updates nothing
    assert all(np.array_equal(p.data, b) for p, b in zip(params, before))
    # an arena tensor's gradient, assigned by hand, is checked as well
    weights = init_weights(toy_config, seed=0)
    params = freeze_policy(weights, None, "full_finetune")
    for p in params:
        p.grad = np.zeros(p.data.shape)
    params[5].grad = np.zeros(params[5].data.shape[-1:])
    with pytest.raises(ValueError, match="parameter 5: gradient shape"):
        AdamW(params, lr=0.1).step()


def arena_and_alone(weights):
    """The full_finetune parameters of `weights` (in arenas) and of a copy
    whose every tensor owns its array."""
    alone = TransformerWeights.from_named(
        weights.config,
        {name: Tensor(t.data.copy()) for name, t in weights.named_tensors()})
    return (freeze_policy(weights.clone(), None, "full_finetune"),
            freeze_policy(alone, None, "full_finetune"))


@pytest.mark.parametrize("wd", [0.0, 0.1])
def test_adamw_over_arenas_matches_adamw_per_tensor(toy_config, wd):
    """An arena's parameters are updated as flat runs of adjacent tensors
    with a gradient; the bits are those of one update per tensor, also on
    steps where some tensors have no gradient, after a gradient was
    assigned by hand (copied into its slot), and when only part of an
    arena is in the parameter list, out of arena order: the tensors left
    out stay as they were, though their slots hold gradients."""
    rng = np.random.default_rng(15)
    weights = init_weights(toy_config, seed=0)
    names = [name for name, _ in weights.named_tensors()]
    joined, alone = arena_and_alone(weights)
    whole = freeze_policy(weights.clone(), None, "full_finetune")
    before = [p.data.copy() for p in whole]
    # LayerNorms of blocks 0 and 2 and the classifier bias: gaps, two
    # arenas, listed in reverse
    picked = [i for i, name in enumerate(names)
              if name.startswith(("block0.ln", "block2.ln"))
              or name == "classifier.b"]
    part = [whole[i] for i in reversed(picked)]
    opts = [AdamW(ps, lr=1e-2, weight_decay=wd) for ps in (joined, alone, part)]
    # three arenas (base, LayerNorm, classifier), each one unit of all its
    # tensors; per tensor, one unit each; the part, one unit per arena, in
    # the order the list first names it, with its tensors in arena order
    assert [len(ts) == len(ts[0].arena.views) for ts in opts[0].units] == [True] * 3
    assert opts[1].units == [[p] for p in alone]
    assert opts[2].units == [[part[0]], [whole[i] for i in picked[:-1]]]
    for step in range(4):
        grads = [rng.normal(size=p.data.shape) for p in joined]
        skipped = set(rng.choice(len(joined), size=5)) if step == 2 else set()
        if step == 2:
            skipped.add(names.index("block0.ln2_gamma"))  # splits a run
        for ps in (joined, alone, whole):
            for i, (p, g) in enumerate(zip(ps, grads)):
                p.zero_grad()
                if i in skipped:
                    continue
                if step == 3 and i in (0, picked[0]):
                    p.grad = g  # by hand, not in its slot
                else:
                    p.accumulate_grad(g)
        assert (joined[0].grad is joined[0]._slot()) == (step < 3)
        for opt in opts:
            opt.step()
        for i, (a, b) in enumerate(zip(joined, alone)):
            assert np.array_equal(a.data, b.data), (step, i)
        for i, (p, b) in enumerate(zip(whole, before)):
            expected = alone[i].data if i in picked else b
            assert np.array_equal(p.data, expected), (step, names[i])


def test_adamw_step_copies_no_engine_gradient(toy_config, parity_batch):
    # the engine writes every gradient into its arena slot, so a step over
    # the toy model allocates nothing the size of a tensor
    weights = init_weights(toy_config, seed=0)
    params = freeze_policy(weights, None, "full_finetune")
    ag.backward(ag.cross_entropy(forward(weights, parity_batch),
                                 parity_batch.labels))
    assert all(p.grad is p._slot() for p in params)
    opt = AdamW(params, lr=1e-3, weight_decay=0.01)
    assert step_scratch_peak(opt) < 4 * 1024


def test_adamw_skips_parameters_without_gradients():
    w = Tensor(np.array(1.0), requires_grad=True)
    opt = AdamW([w], lr=0.1, weight_decay=0.5)
    opt.step()
    assert float(w.data) == 1.0


def test_training_is_deterministic(toy_config):
    train_data, eval_data = small_task(train_size=64, eval_size=32)
    cfg = TrainConfig(regime="full_finetune", epochs=2, learning_rate=1e-3,
                      batch_size=32, seed=0, eval_every=2)

    def run():
        weights = init_weights(toy_config, seed=0)
        freeze_policy(weights, None, "full_finetune")
        report = train(weights, cfg, train_data, eval_data, log=None)
        return weights, report

    w1, r1 = run()
    w2, r2 = run()
    for (_, a), (_, b) in zip(w1.named_tensors(), w2.named_tensors()):
        assert np.array_equal(a.data, b.data)
    assert r1.train_loss == r2.train_loss
    assert r1.eval_accuracy == r2.eval_accuracy


def test_training_steps_reuse_the_freed_heap(toy_config):
    """Each step's graph memory comes from the heap the previous step freed,
    so a second run of the same training maps next to no new pages (about
    19 k minor faults under glibc's adaptive malloc thresholds)."""
    resource = pytest.importorskip("resource")
    train_data, eval_data = small_task(train_size=128, eval_size=32)
    cfg = TrainConfig(regime="full_finetune", epochs=1, learning_rate=1e-3,
                      batch_size=32, seed=0)
    weights = init_weights(toy_config, seed=0)
    freeze_policy(weights, None, "full_finetune")
    train(weights, cfg, train_data, eval_data, log=None)  # heap at working size
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    train(weights, replace(cfg, epochs=2), train_data, eval_data, log=None)
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    if not ag._keep_freed_heap():
        pytest.skip("malloc thresholds are fixed on glibc only")
    assert faults < 1000


def test_zero_epochs_reports_initial_eval_only(toy_config):
    train_data, eval_data = small_task(train_size=32, eval_size=32)
    weights = init_weights(toy_config, seed=0)
    before = [t.data.copy() for t in weights.all_tensors()]
    freeze_policy(weights, None, "full_finetune")
    cfg = TrainConfig(regime="full_finetune", epochs=0, learning_rate=1e-3,
                      batch_size=32, seed=0)
    report = train(weights, cfg, train_data, eval_data, log=None)
    assert report.eval_epochs == [0]
    assert len(report.eval_accuracy) == 1
    assert report.step_count == 0
    assert report.train_loss == []
    for t, orig in zip(weights.all_tensors(), before):
        assert np.array_equal(t.data, orig)


def test_training_refuses_an_empty_split(toy_config):
    train_data, eval_data = small_task(train_size=32, eval_size=32)
    empty = train_data.take(slice(0, 0))
    weights = init_weights(toy_config, seed=0)
    freeze_policy(weights, None, "full_finetune")
    cfg = TrainConfig(regime="full_finetune", epochs=1, learning_rate=1e-3,
                      batch_size=32, seed=0)
    with pytest.raises(ValueError, match="non-empty training split"):
        train(weights, cfg, empty, eval_data, log=None)
    for epochs in (0, 1):
        with pytest.raises(ValueError, match="non-empty eval split"):
            train(weights, replace(cfg, epochs=epochs), train_data, empty,
                  log=None)
    # no epoch reads the training split
    report = train(weights, replace(cfg, epochs=0), empty, eval_data, log=None)
    assert report.step_count == 0 and report.train_loss == []


def test_loss_decreases_on_learnable_task(toy_config):
    train_data, eval_data = small_task()
    cfg = TrainConfig(regime="full_finetune", epochs=3, learning_rate=1e-3,
                      batch_size=32, seed=0, eval_every=3)
    weights = init_weights(toy_config, seed=0)
    freeze_policy(weights, None, "full_finetune")
    report = train(weights, cfg, train_data, eval_data, log=None)
    assert report.train_loss[2] < report.train_loss[0]


def test_frozen_tensors_bit_identical_after_training(toy_config):
    train_data, eval_data = small_task(train_size=64, eval_size=32)
    cfg = TrainConfig(regime="lora", epochs=2, learning_rate=2e-3,
                      batch_size=32, seed=0, eval_every=2, n_high=2)
    report, art = run_regime(toy_config, cfg, train_data, eval_data, log=None)
    fresh = init_weights(toy_config, seed=cfg.seed)
    for (name, trained), (_, orig) in zip(art.weights.named_tensors(),
                                          fresh.named_tensors()):
        if "ln" in name or name.startswith("classifier"):
            assert not np.array_equal(trained.data, orig.data), name
        else:
            assert np.array_equal(trained.data, orig.data), name


def test_divergence_aborts_with_diagnostic(toy_config):
    train_data, eval_data = small_task(train_size=32, eval_size=32)
    weights = init_weights(toy_config, seed=0)
    # saturate the pooler to all-ones, then overflow the classifier matmul
    weights.pooler_b.data[...] = 50.0
    weights.classifier_w.data[...] = 1e308
    freeze_policy(weights, None, "full_finetune")
    cfg = TrainConfig(regime="full_finetune", epochs=1, learning_rate=1e-3,
                      batch_size=32, seed=0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDiverged, match="non-finite"):
            train(weights, cfg, train_data, eval_data, log=None)


def test_unrelated_value_error_is_not_divergence(toy_config, monkeypatch):
    from prunelora import training

    train_data, eval_data = small_task(train_size=32, eval_size=32)
    weights = init_weights(toy_config, seed=0)
    freeze_policy(weights, None, "full_finetune")

    def broken_forward(*args, **kwargs):
        raise ValueError("non-finite in the message, yet not a NonFiniteError")

    monkeypatch.setattr(training, "forward", broken_forward)
    cfg = TrainConfig(regime="full_finetune", epochs=1, learning_rate=1e-3,
                      batch_size=32, seed=0)
    with pytest.raises(ValueError, match="not a NonFiniteError"):
        train(weights, cfg, train_data, eval_data, log=None)


def test_prune_lora_with_all_heads_matches_lora_structure(toy_config):
    train_data, eval_data = small_task(train_size=64, eval_size=32)
    base = dict(epochs=1, learning_rate=2e-3, batch_size=32, seed=0,
                eval_every=1, n_high=0, rank_high=4, rank_low=4)
    lora_rep, _ = run_regime(toy_config,
                             TrainConfig(regime="lora", **base),
                             train_data, eval_data, log=None)
    pl_rep, art = run_regime(toy_config,
                             TrainConfig(regime="prune_lora", keep_count=16,
                                         **base),
                             train_data, eval_data, log=None)
    assert art.prune_plan.pruned_count() == 0
    assert set(lora_rep.to_dict()) == set(pl_rep.to_dict())
    assert lora_rep.trainable_params == pl_rep.trainable_params
    assert lora_rep.total_params == pl_rep.total_params


def test_report_counts_match_tensor_walk(toy_config):
    train_data, eval_data = small_task(train_size=64, eval_size=32)
    cfg = TrainConfig(regime="prune_lora", epochs=1, learning_rate=2e-3,
                      batch_size=32, seed=0, keep_count=12, n_high=2)
    report, art = run_regime(toy_config, cfg, train_data, eval_data, log=None)
    assert report.total_params == art.weights.num_params() + art.adapters.num_params()
    expected_trainable = (
        sum(t.data.size for t in art.weights.layernorm_tensors())
        + art.weights.classifier_w.data.size
        + art.weights.classifier_b.data.size
        + art.adapters.num_params()
    )
    assert report.trainable_params == expected_trainable


def test_evaluate_counts_correct_predictions(toy_config):
    _, eval_data = small_task(eval_size=32)
    weights = init_weights(toy_config, seed=0)
    acc, loss = evaluate(weights, eval_data)
    assert 0.0 <= acc <= 1.0
    assert loss > 0


def test_invalid_train_config_rejected():
    with pytest.raises(ValueError, match="regime"):
        TrainConfig(regime="sparse")
    with pytest.raises(ValueError, match="epochs"):
        TrainConfig(epochs=-1)
    with pytest.raises(ValueError, match="batch_size"):
        TrainConfig(batch_size=0)
    for field, bad in (("learning_rate", -0.5), ("learning_rate", 0.0),
                       ("learning_rate", float("nan")), ("weight_decay", -3.0),
                       ("importance_sample_size", 0),
                       ("importance_sample_size", -3),
                       ("keep_count", -1),
                       ("n_high", -1), ("rank_low", 0), ("rank_high", 3)):
        with pytest.raises(ValueError, match=f"{field} must be"):
            TrainConfig(**{field: bad})
    TrainConfig(weight_decay=0.0, importance_sample_size=1, keep_count=0,
                n_high=0, rank_low=1, rank_high=1)


def test_benchmark_reference_loss_catches_a_wrong_relu_gradient(monkeypatch):
    """The benchmark's reference-loss gate (perfbench/reference.py,
    perfbench/checks.py) matches a correct run and fails one whose FFN
    ReLU backward drops its mask; the ReLU is reached through
    `autograd.linear`, the node the model calls for it."""
    from pathlib import Path

    monkeypatch.syspath_prepend(
        str(Path(__file__).resolve().parents[1] / "perfbench"))
    import checks
    import reference
    from workloads import WORKLOADS

    w = WORKLOADS["toy-train"]
    ref = checks.load_reference()
    expected = ref["final_train_loss"][w.name]["full_finetune"]
    report, _, _ = reference.reference_run(w, "full_finetune")
    assert checks.loss_matches_reference(report.train_loss[-1], expected,
                                         ref["rtol"])[0]

    project = ag.linear

    def linear_relu_without_mask(x, W, b, adapter=None, act=None):
        if act != "relu":
            return project(x, W, b, adapter, act)
        h = project(x, W, b, adapter)

        def bwd(g):
            h.accumulate_grad(g)

        return ag._from_op(np.maximum(h.data, 0.0), (h,), bwd)

    monkeypatch.setattr(ag, "linear", linear_relu_without_mask)
    broken, _, _ = reference.reference_run(w, "full_finetune")
    assert not checks.loss_matches_reference(broken.train_loss[-1], expected,
                                             ref["rtol"])[0]
