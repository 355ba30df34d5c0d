"""The paper's invariants as properties over drawn geometries, batches,
prune plans and rank plans, and finite differences through attention with
fewer queries than keys, through a projection with or without its
adapter, and through a LayerNorm over a sum of broadcast terms. Attention,
all heads in one batched product, matches a per-head loop. A batch cut to
its longest row (`data.batches`) and `predict`'s longest-first order give
the full-width results.

Configs have 1-3 blocks of 1-4 heads of width 1-8; batches have 1-4 rows
of 1-6 positions, right-padded, some with a row that holds only CLS; prune
plans may empty any block, the last one included; rank plans span
`make_rank_plan`'s range. Examples are derandomized, so every run draws
the same ones. The example budget comes from the hypothesis profile
(tests/conftest.py): a few per property in tier-1, more under
`pytest --hypothesis-profile=ci`.
"""

import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from prunelora import autograd as ag
from prunelora import (
    HeadMask,
    ModelConfig,
    PrunePlan,
    TokenBatch,
    apply_mask_prune,
    apply_slice_prune,
    count_params,
    estimate_flops,
    forward,
    freeze_policy,
    init_adapters,
    init_weights,
    make_rank_plan,
    merge_adapters,
)
from prunelora.autograd import Tensor
from prunelora.data import batches
from prunelora.lora import adapter_shapes, load_adapters, save_adapters
from prunelora.model import PAD_SCORE
from prunelora.training import AdamW, predict

from conftest import (
    attention_reference,
    finite_diff,
    reference_logits,
    rel_err,
    weighted_sum,
)

CLS = 2
VOCAB = 8
SEEDS = st.integers(0, 2**32 - 1)


def padded_batch(draw, rng, b, s, num_classes):
    """`b` right-padded rows of 1 to `s` tokens, maybe one of CLS alone."""
    lengths = draw(st.lists(st.integers(1, s), min_size=b, max_size=b))
    if draw(st.booleans()):
        lengths[-1] = 1  # a row that holds only CLS
    att = (np.arange(s) < np.array(lengths)[:, None]).astype(np.int64)
    ids = rng.integers(3, VOCAB, (b, s)) * att
    ids[:, 0] = CLS
    return TokenBatch(ids, att, rng.integers(0, num_classes, b))


@st.composite
def cases(draw):
    """(weights, batch, prune plan): random weights (biases and LayerNorm
    scales too), a right-padded batch, and any keep pattern."""
    heads = draw(st.integers(1, 4))
    cfg = ModelConfig(num_layers=draw(st.integers(1, 3)), num_heads=heads,
                      hidden=heads * draw(st.integers(1, 8)),
                      ffn_dim=draw(st.integers(1, 8)), vocab_size=VOCAB,
                      max_positions=6, num_classes=draw(st.integers(2, 3)))
    rng = np.random.default_rng(draw(SEEDS))
    weights = init_weights(cfg, seed=0)
    for _, t in weights.named_tensors():
        t.data[...] = rng.normal(0.0, 0.5, t.data.shape)

    b, s = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    batch = padded_batch(draw, rng, b, s, cfg.num_classes)

    keep = np.array(draw(st.lists(st.booleans(), min_size=cfg.num_layers * heads,
                                  max_size=cfg.num_layers * heads)))
    keep = keep.reshape(cfg.num_layers, heads)
    if draw(st.booleans()):
        keep[-1] = False  # the last block loses every head
    return weights, batch, PrunePlan(keep, int(keep.sum()))


@st.composite
def rank_plans(draw, num_layers):
    """`make_rank_plan` over its whole range: any importance, 0 to every
    block at the high rank, rank_high >= rank_low >= 1."""
    rank_low = draw(st.integers(1, 3))
    rank_high = draw(st.integers(rank_low, 4))
    importance = draw(st.lists(st.floats(0, 1), min_size=num_layers,
                               max_size=num_layers))
    return make_rank_plan(importance, draw(st.integers(0, num_layers)),
                          rank_high, rank_low)


@st.composite
def sliced_cases(draw):
    """(sliced weights, batch, prune plan, rank plan) from `cases`."""
    weights, batch, plan = draw(cases())
    return (apply_slice_prune(weights, plan), batch, plan,
            draw(rank_plans(weights.config.num_layers)))


def logits(weights, batch, **kw):
    with ag.no_grad():
        return forward(weights, batch, **kw).data


def adapters_for(weights, plan, seed, b_std=0.0):
    """Adapters on every projection at the plan's ranks; B is zero unless
    `b_std` is set."""
    adapters = init_adapters(weights, plan, seed=seed, scaling=1.5)
    rng = np.random.default_rng(seed)
    for _, t in adapters.named_tensors():
        if b_std and not t.data.any():
            t.data[...] = rng.normal(0.0, b_std, t.data.shape)
    return adapters


@given(cases())
def test_cls_row_last_block_matches_the_all_positions_reference(case):
    weights, batch, plan = case
    for w in (weights, apply_slice_prune(weights, plan)):
        assert np.abs(logits(w, batch) - reference_logits(w, batch)).max() < 1e-10


@given(cases())
def test_engine_macs_equal_batch_times_estimate_flops(case):
    weights, batch, plan = case
    b, s = batch.token_ids.shape
    for w, kept in ((weights, None),
                    (apply_slice_prune(weights, plan), plan.kept_per_block())):
        with ag.count_macs() as counter:
            logits(w, batch)
        flops = estimate_flops(w.config, kept, s).matmul_flops
        assert counter.macs == b * flops // 2


@given(cases())
def test_mask_prune_equals_slice_prune(case):
    weights, batch, plan = case
    masked, mask = apply_mask_prune(weights, plan)
    sliced = apply_slice_prune(weights, plan)
    assert np.abs(logits(masked, batch, mask=mask)
                  - logits(sliced, batch)).max() <= 1e-9


@given(sliced_cases(), SEEDS)
def test_zero_b_adapters_leave_logits_bit_identical(case, seed):
    sliced, batch, _, ranks = case
    adapters = adapters_for(sliced, ranks, seed)
    assert (logits(sliced, batch).tobytes()
            == logits(sliced, batch, adapters=adapters).tobytes())


@given(sliced_cases(), SEEDS)
def test_merge_is_exact(case, seed):
    sliced, batch, _, ranks = case
    adapters = adapters_for(sliced, ranks, seed, b_std=0.3)
    merged = merge_adapters(sliced, adapters)
    assert np.abs(logits(merged, batch)
                  - logits(sliced, batch, adapters=adapters)).max() <= 1e-10


@given(sliced_cases(), SEEDS, st.sampled_from(["full_finetune", "prune_lora"]))
def test_a_batch_cut_to_its_longest_row_gives_the_padded_results(case, seed,
                                                                 regime):
    """The batch padded to max_positions and `batches`' cut of it give the
    same logits, and the same gradients (head mask included) after one
    backward, to 1e-12."""
    sliced, batch, _, ranks = case
    pad = ((0, 0), (0, sliced.config.max_positions - batch.token_ids.shape[1]))
    padded = TokenBatch(np.pad(batch.token_ids, pad),
                        np.pad(batch.attention_mask, pad), batch.labels)
    (cut,) = batches(padded, padded.size)
    assert cut.token_ids.shape[1] == batch.attention_mask.sum(axis=1).max()

    def run(rows):
        weights = sliced.clone()
        adapters = (None if regime == "full_finetune"
                    else adapters_for(weights, ranks, seed, b_std=0.3))
        freeze_policy(weights, adapters, regime)
        mask = HeadMask.ones(weights.config)
        out = forward(weights, rows, mask=mask, adapters=adapters)
        ag.backward(ag.cross_entropy(out, rows.labels))
        tensors = [mask.xi] + weights.all_tensors() + (
            adapters.all_tensors() if adapters else [])
        return out.data, [np.zeros_like(t.data) if t.grad is None else t.grad
                          for t in tensors]

    (want, want_grads), (got, got_grads) = run(padded), run(cut)
    assert np.abs(got - want).max() <= 1e-12
    for g, w in zip(got_grads, want_grads):
        assert np.abs(g - w).max(initial=0.0) <= 1e-12


@given(cases(), st.data())
def test_predict_returns_submission_order_logits(case, data):
    """`predict` ranks rows longest first; each row still gets the logits
    of a full-width forward over its submission-order batch, to 1e-12,
    for the drawn rows and for the same rows already longest first. Rows
    already in that order run as `batches` cuts them, bit for bit."""
    weights, _, _ = case
    rng = np.random.default_rng(data.draw(SEEDS))
    drawn = padded_batch(data.draw, rng, data.draw(st.integers(1, 12)),
                         weights.config.max_positions, weights.config.num_classes)
    batch_size = data.draw(st.integers(1, 4))
    longest_first = drawn.take(np.argsort(-drawn.attention_mask.sum(axis=1),
                                          kind="stable"))
    for rows in (drawn, longest_first):
        want = np.concatenate([logits(weights, rows.slice(i, i + batch_size))
                               for i in range(0, rows.size, batch_size)])
        got = predict(weights, rows, batch_size=batch_size)
        assert got.shape == want.shape
        assert np.abs(got - want).max() <= 1e-12
    cut = np.concatenate([logits(weights, batch)
                          for batch in batches(longest_first, batch_size)])
    assert got.tobytes() == cut.tobytes()


@given(sliced_cases())
def test_count_params_equals_the_tensor_walk_with_adapters(case):
    sliced, _, plan, ranks = case
    adapters = init_adapters(sliced, ranks)
    report = count_params(sliced.config, plan, ranks)
    assert report.components["adapters"] == adapters.num_params()
    assert report.total_params == sliced.num_params() + adapters.num_params()
    trainable = freeze_policy(sliced, adapters, "prune_lora")
    assert report.trainable_params == sum(t.data.size for t in trainable)


@given(sliced_cases(), SEEDS)
def test_adapter_shapes_declare_init_and_the_checkpoint(case, seed):
    """Q/K/V adapters map hidden -> rank -> kept width, the output's kept
    width -> rank -> hidden; init and a save/load round trip follow."""
    sliced, _, plan, ranks = case
    cfg = sliced.config
    shapes = adapter_shapes(sliced, ranks)
    assert len(shapes) == 8 * cfg.num_layers
    for l, (kept, r) in enumerate(zip(plan.kept_per_block(), ranks.block_rank)):
        w = kept * cfg.head_dim
        for t in "qkv":
            assert shapes[f"block{l}.{t}.a"] == (cfg.hidden, r)
            assert shapes[f"block{l}.{t}.b"] == (r, w)
        assert shapes[f"block{l}.o.a"] == (w, r)
        assert shapes[f"block{l}.o.b"] == (r, cfg.hidden)

    adapters = adapters_for(sliced, ranks, seed, b_std=0.3)
    assert [(name, t.data.shape) for name, t in adapters.named_tensors()] \
        == list(shapes.items())
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "adapters.ckpt"
        save_adapters(path, adapters)
        loaded = load_adapters(path, sliced)
    assert (loaded.plan, loaded.seed, loaded.scaling) == (ranks, seed, 1.5)
    assert [(name, t.data.tobytes()) for name, t in loaded.named_tensors()] \
        == [(name, t.data.tobytes()) for name, t in adapters.named_tensors()]


@given(sliced_cases(), SEEDS, st.sampled_from(["full_finetune", "prune_lora"]))
def test_a_training_step_rerun_is_bit_identical(case, seed, regime):
    """Forward, backward and an AdamW step, run twice from the same
    state, leave the same bytes in every tensor."""
    sliced, batch, _, ranks = case

    def step():
        weights = sliced.clone()
        adapters = (None if regime == "full_finetune"
                    else adapters_for(weights, ranks, seed, b_std=0.3))
        opt = AdamW(freeze_policy(weights, adapters, regime), lr=0.01,
                    weight_decay=0.1)
        loss = ag.cross_entropy(forward(weights, batch, adapters=adapters),
                                batch.labels)
        ag.backward(loss)
        opt.step()
        tensors = weights.all_tensors() + (adapters.all_tensors() if adapters
                                           else [])
        return [loss.data.tobytes()] + [t.data.tobytes() for t in tensors]

    assert step() == step()


@given(st.data())
def test_linear_gradients_with_the_adapter_on_and_off(data):
    """x, W, b and the adapter's A and B against central differences, for
    2-D and 3-D inputs, the adapter on or off, and any mix of frozen and
    trainable tensors: a frozen one gets no gradient."""
    lead = tuple(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=2)))
    k, n, r = (data.draw(st.integers(1, 4)) for _ in range(3))
    names = ("x", "W", "b") + (("A", "B") if data.draw(st.booleans()) else ())
    trainable = data.draw(st.sets(st.sampled_from(names), min_size=1))
    scaling = data.draw(st.sampled_from([1.0, 0.5, 2.5]))
    rng = np.random.default_rng(data.draw(SEEDS))
    shapes = {"x": lead + (k,), "W": (k, n), "b": (n,), "A": (k, r), "B": (r, n)}
    t = {name: Tensor(rng.uniform(-1, 1, shapes[name]),
                      requires_grad=name in trainable) for name in names}

    def build():
        adapter = (t["A"], t["B"], scaling) if "A" in t else None
        return ag.linear(t["x"], t["W"], t["b"], adapter)

    g = rng.uniform(-1, 1, lead + (n,))
    ag.backward(weighted_sum(build(), g))

    def f():
        with ag.no_grad():
            return float(weighted_sum(build(), g).data)

    for name, x in t.items():
        if name in trainable:
            assert rel_err(finite_diff(f, x), x.grad, floor=1e-3) < 1e-6, name
        else:
            assert x.grad is None, name


@given(st.data())
def test_attention_gradients_with_fewer_queries_than_keys(data):
    """q, k, v and the head mask against central differences, for s_q of
    1 to s queries as (b, s_q, width) or one query per row as (b, width)."""
    b, s = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 6))
    s_q = data.draw(st.integers(0, s))  # 0: a (b, width) query
    d_h = data.draw(st.integers(1, 4))
    orig = data.draw(st.integers(1, 3))
    kept = sorted(data.draw(st.sets(st.integers(0, orig - 1), min_size=1)))
    lengths = data.draw(st.lists(st.integers(1, s), min_size=b, max_size=b))
    rng = np.random.default_rng(data.draw(SEEDS))
    w = len(kept) * d_h
    q_shape = (b, w) if s_q == 0 else (b, s_q, w)
    t = {"q": rng.uniform(-1, 1, q_shape), "k": rng.uniform(-1, 1, (b, s, w)),
         "v": rng.uniform(-1, 1, (b, s, w)), "xi": rng.uniform(0.5, 1.5, (2, orig))}
    t = {name: Tensor(x, requires_grad=True) for name, x in t.items()}
    bias = np.where(np.arange(s) < np.array(lengths)[:, None], 0.0, PAD_SCORE)
    bias = bias[:, None, :]

    def build():
        return ag.attention(t["q"], t["k"], t["v"], bias, d_h, xi=t["xi"],
                            heads=(1, kept))

    # the same queries among all s of them give the same rows
    q_all = rng.uniform(-1, 1, (b, s, w))
    q_all[:, :max(s_q, 1)] = t["q"].data.reshape(b, -1, w)
    full = ag.attention(q_all, t["k"].data, t["v"].data, bias, d_h,
                        xi=t["xi"].data, heads=(1, kept)).data
    out = build()
    assert out.data.shape == q_shape
    assert np.abs(out.data.reshape(b, -1, w) - full[:, :max(s_q, 1)]).max() < 1e-12

    with ag.count_macs() as counter:
        build()
    assert counter.macs == 2 * s * t["q"].data.size

    g = rng.uniform(-1, 1, q_shape)
    ag.backward(weighted_sum(out, g))

    def f():
        with ag.no_grad():
            return float(weighted_sum(build(), g).data)

    # entries below 1e-3 are held to 1e-9 absolute: central differences
    # leave about 1e-10, which a relative bound on a near-zero entry (a
    # saturated softmax) would not forgive
    for name, x in t.items():
        assert x.grad.shape == x.data.shape, name
        assert rel_err(finite_diff(f, x), x.grad, floor=1e-3) < 1e-6, name


@given(st.data())
def test_batched_attention_matches_a_per_head_loop(data):
    """The output and the q, k, v and head-mask gradients of `attention`
    equal a per-head loop's to 1e-12: 0 to 4 kept heads of up to 4, as
    many rows as kept heads in some draws, (b, s_q, width) or (b, width)
    queries, and a bias on keys (b, 1, s) or one per row and query
    (b, s_q, s). A mask of ones gives the unmasked output bit for bit."""
    n_kept = data.draw(st.integers(0, 4))
    kept = sorted(data.draw(st.sets(st.integers(0, 3), min_size=n_kept,
                                    max_size=n_kept)))
    b = n_kept if n_kept and data.draw(st.booleans()) else data.draw(st.integers(1, 3))
    s, d_h = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
    s_q = data.draw(st.integers(0, s))  # 0: a (b, width) query
    rng = np.random.default_rng(data.draw(SEEDS))
    w = n_kept * d_h
    q_shape = (b, w) if s_q == 0 else (b, s_q, w)
    if data.draw(st.booleans()):
        lengths = rng.integers(1, s + 1, b)
        bias = np.where(np.arange(s) < lengths[:, None], 0.0, PAD_SCORE)[:, None, :]
    else:
        bias = rng.normal(0.0, 2.0, (b, max(s_q, 1), s))
    masked = data.draw(st.booleans())
    t = {"q": rng.uniform(-1, 1, q_shape), "k": rng.uniform(-1, 1, (b, s, w)),
         "v": rng.uniform(-1, 1, (b, s, w))}
    if masked:
        t["xi"] = rng.uniform(0.5, 1.5, (2, 4))
    t = {name: Tensor(x, requires_grad=True) for name, x in t.items()}
    heads = (1, kept)
    g = rng.uniform(-1, 1, q_shape)

    out = ag.attention(t["q"], t["k"], t["v"], bias, d_h, t.get("xi"), heads)
    ag.backward(weighted_sum(out, g))
    want = attention_reference(t["q"].data, t["k"].data, t["v"].data, bias, d_h,
                               t["xi"].data if masked else None, heads, g)
    assert out.data.shape == q_shape
    assert np.abs(out.data - want[0]).max(initial=0.0) <= 1e-12
    for name, ref in zip(("q", "k", "v", "xi"), want[1:]):
        if name in t:
            assert np.abs(t[name].grad - ref).max(initial=0.0) <= 1e-12, name

    plain = ag.attention(t["q"].data, t["k"].data, t["v"].data, bias, d_h)
    ones = ag.attention(t["q"].data, t["k"].data, t["v"].data, bias, d_h,
                        np.ones((2, 4)), heads)
    assert ones.data.tobytes() == plain.data.tobytes()


@given(st.data())
def test_layernorm_gradients_over_broadcast_terms(data):
    """Each term, gamma and beta against central differences, for one to
    three terms of shape (b, s, d), (s, d) or (1, d) in any order, one of
    them maybe passed twice, each frozen or trainable: a frozen one gets no
    gradient, and no `.grad` shares memory with another."""
    b, s, d = (data.draw(st.integers(1, 3)) for _ in range(3))
    rng = np.random.default_rng(data.draw(SEEDS))
    broadcast = st.sampled_from([(b, s, d), (s, d), (1, d)])
    shapes = [(b, s, d)] + data.draw(st.lists(broadcast, max_size=2))
    leaves = [Tensor(rng.uniform(-1, 1, shape), requires_grad=data.draw(st.booleans()))
              for shape in shapes]
    terms = leaves + data.draw(st.lists(st.sampled_from(leaves), max_size=1))
    terms = data.draw(st.permutations(terms))
    gamma = Tensor(rng.uniform(0.5, 1.5, d), requires_grad=data.draw(st.booleans()))
    beta = Tensor(rng.uniform(-0.5, 0.5, d), requires_grad=data.draw(st.booleans()))
    leaves += [gamma, beta]

    def build():
        return ag.layernorm(terms, gamma, beta, 1e-8)

    total = sum((t.data for t in terms[1:]), terms[0].data)
    centered = total - total.mean(-1, keepdims=True)
    expected = (centered / np.sqrt((centered ** 2).mean(-1, keepdims=True) + 1e-8)
                * gamma.data + beta.data)
    out = build()
    assert np.abs(out.data - expected).max() < 1e-12

    g = rng.uniform(-1, 1, (b, s, d))
    ag.backward(weighted_sum(out, g))

    def f():
        with ag.no_grad():
            return float(weighted_sum(build(), g).data)

    for i, x in enumerate(leaves):
        if x.requires_grad:
            assert rel_err(finite_diff(f, x), x.grad, floor=1e-3) < 1e-6, i
            for other in leaves + [out]:
                if other is not x and other.grad is not None:
                    assert not np.shares_memory(x.grad, other.grad), i
        else:
            assert x.grad is None, i
