import numpy as np
import pytest

from prunelora import autograd as ag
from prunelora import (
    HeadMask,
    ModelConfig,
    PrunePlan,
    SyntheticTaskSpec,
    TokenBatch,
    apply_slice_prune,
    forward,
    freeze_policy,
    generate,
    init_adapters,
    init_weights,
    make_rank_plan,
)
from prunelora.autograd import Tensor
from prunelora.model import HEAD_AXES, tensor_layout, tensor_shapes

from conftest import finite_diff, rel_err

# pinned output of the toy model (vocab 16), seed 0, on the batch below
GOLDEN_TOKEN_IDS = [
    [2, 4, 4, 4, 6, 3, 11, 14, 10],
    [2, 3, 11, 3, 10, 3, 7, 3, 12],
    [2, 3, 5, 3, 4, 10, 3, 7, 3],
    [2, 11, 7, 3, 13, 8, 3, 15, 3],
]
GOLDEN_LOGITS = [
    [0.030694773227061274, 0.0087041588383329569],
    [0.031959915913425556, 0.0088771204658291449],
    [0.031853788272089248, 0.0088766752156390783],
    [0.031848640359035604, 0.0086724976438787744],
]


def golden_batch():
    spec = SyntheticTaskSpec(kind="parity", seq_len=8, vocab_size=16, seed=0,
                             train_size=4, eval_size=4)
    train, _ = generate(spec)
    batch = train.slice(0, 4)
    assert batch.token_ids.tolist() == GOLDEN_TOKEN_IDS
    return batch


def test_config_requires_divisible_hidden():
    with pytest.raises(ValueError, match="divisible"):
        ModelConfig(num_heads=3, hidden=64)


@pytest.mark.parametrize("field,value", [
    ("num_heads", 0), ("hidden", 0), ("num_layers", 0),
    ("layernorm_eps", float("nan")), ("init_std", float("nan")),
])
def test_config_rejects_zero_heads_and_nan_scales(field, value):
    # num_heads 0 is checked before `hidden % num_heads` divides by it
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        ModelConfig(**{field: value})


def test_config_reference_preset():
    cfg = ModelConfig.reference()
    assert (cfg.num_layers, cfg.num_heads, cfg.hidden) == (12, 12, 768)
    assert (cfg.ffn_dim, cfg.vocab_size) == (3072, 30522)
    assert (cfg.max_positions, cfg.type_vocab) == (512, 2)
    assert cfg.head_dim == 64


def test_init_weights_follows_the_layout(toy_config):
    weights = init_weights(toy_config, seed=3)
    named = list(weights.named_tensors())
    assert [(n, t.data.shape) for n, t in named] == \
        list(tensor_shapes(toy_config).items())
    for (name, _, part, _), (_, t) in zip(tensor_layout(toy_config), named):
        if part.init == "normal":
            std = toy_config.init_std
            assert 0.5 * std < t.data.std() < 1.5 * std, name
        else:
            assert np.all(t.data == (part.init == "ones")), name


def test_layout_head_axes_and_headless_shapes():
    assert HEAD_AXES == {"wq": 1, "bq": 0, "wk": 1, "bk": 0, "wv": 1, "bv": 0,
                         "wo": 0}
    cfg = ModelConfig(num_layers=2, num_heads=4, hidden=16, ffn_dim=8,
                      vocab_size=5, max_positions=6, num_classes=0)
    shapes = tensor_shapes(cfg, [[0, 2], []])
    assert not any(name.startswith("classifier") for name in shapes)
    assert shapes["block0.wq"] == (16, 8) and shapes["block0.wo"] == (8, 16)
    assert shapes["block1.bv"] == (0,) and shapes["block1.bo"] == (16,)
    assert shapes["block1.w_down"] == (8, 16)


def test_golden_logits_pinned(toy_weights):
    logits = forward(toy_weights, golden_batch())
    assert np.abs(logits.data - np.array(GOLDEN_LOGITS)).max() < 1e-10


def test_all_ones_mask_is_bit_identical_to_no_mask(toy_weights, parity_batch):
    batch = parity_batch.slice(0, 8)
    mask = HeadMask.ones(toy_weights.config, requires_grad=False)
    with_mask = forward(toy_weights, batch, mask=mask)
    without = forward(toy_weights, batch)
    assert np.array_equal(with_mask.data, without.data)


def test_zero_mask_row_equals_bias_only_block(toy_weights, parity_batch):
    """Zeroing a block's mask leaves only the output bias of that MHA."""
    batch = parity_batch.slice(0, 8)
    cfg = toy_weights.config
    xi = np.ones((cfg.num_layers, cfg.num_heads))
    xi[1, :] = 0.0
    masked = forward(toy_weights, batch,
                     mask=HeadMask(Tensor(xi, requires_grad=False)))

    reference = toy_weights.clone()
    blk = reference.blocks[1]
    for t in (blk.wq, blk.bq, blk.wk, blk.bk, blk.wv, blk.bv, blk.wo):
        t.data[...] = 0.0
    expected = forward(reference, batch)
    assert np.abs(masked.data - expected.data).max() < 1e-10


def test_head_output_linear_in_mask_scalar(toy_weights, parity_batch):
    """xi[l, h] scales head h's output exactly like scaling its V columns
    (bit-identical: 0.5 and 0 are exact scale factors)."""
    batch = parity_batch.slice(0, 4)
    cfg = toy_weights.config
    cols = slice(cfg.head_dim, 2 * cfg.head_dim)  # head 1
    for value in (0.5, 0.0):
        xi = np.ones((cfg.num_layers, cfg.num_heads))
        xi[2, 1] = value
        masked = forward(toy_weights, batch,
                         mask=HeadMask(Tensor(xi, requires_grad=False)))
        scaled = toy_weights.clone()
        scaled.blocks[2].wv.data[:, cols] *= value
        scaled.blocks[2].bv.data[cols] *= value
        assert np.array_equal(masked.data, forward(scaled, batch).data), value


def test_single_token_attention_returns_value_row(toy_weights, parity_batch):
    """Over a single key the softmax is exactly 1, so each head returns its
    value row and the logits cannot depend on the Q/K projections."""
    rows = parity_batch.slice(0, 3)
    one_token = TokenBatch(rows.token_ids[:, :1], rows.attention_mask[:, :1],
                           rows.labels)

    other_qk = toy_weights.clone()
    rng = np.random.default_rng(1)
    for blk in other_qk.blocks:
        for t in (blk.wq, blk.bq, blk.wk, blk.bk):
            t.data[...] = rng.uniform(-1, 1, t.data.shape)
    assert np.array_equal(forward(toy_weights, one_token).data,
                          forward(other_qk, one_token).data)


def test_zero_ffn_weights_reduce_to_bias_broadcast(toy_weights, parity_batch):
    """With FFN weights zeroed, the sublayer is LayerNorm(x + b_down)."""
    batch = parity_batch.slice(0, 4)
    cfg = toy_weights.config
    weights = toy_weights.clone()
    rng = np.random.default_rng(3)
    for blk in weights.blocks:
        blk.w_up.data[...] = 0.0
        blk.w_down.data[...] = 0.0
        blk.b_down.data[...] = rng.uniform(-0.1, 0.1, cfg.hidden)

    # replay the encoder manually with the FFN replaced by its bias
    ids, att = batch.token_ids, batch.attention_mask
    s = ids.shape[1]
    x = weights.tok_emb.data[ids] + weights.pos_emb.data[np.arange(s)] \
        + weights.type_emb.data[0]

    def ln(v, gamma, beta):
        mu = v.mean(-1, keepdims=True)
        var = ((v - mu) ** 2).mean(-1, keepdims=True)
        return (v - mu) / np.sqrt(var + cfg.layernorm_eps) * gamma + beta

    x = ln(x, weights.emb_ln_gamma.data, weights.emb_ln_beta.data)
    bias = ((1 - att) * -1e9)[:, None, :]
    d_h = cfg.head_dim
    for blk in weights.blocks:
        q = x @ blk.wq.data + blk.bq.data
        k = x @ blk.wk.data + blk.bk.data
        v = x @ blk.wv.data + blk.bv.data
        heads = []
        for i in range(cfg.num_heads):
            sl = slice(i * d_h, (i + 1) * d_h)
            scores = q[..., sl] @ k[..., sl].swapaxes(-1, -2) / np.sqrt(d_h) + bias
            e = np.exp(scores - scores.max(-1, keepdims=True))
            attn = e / e.sum(-1, keepdims=True)
            heads.append(attn @ v[..., sl])
        mha = np.concatenate(heads, axis=-1) @ blk.wo.data + blk.bo.data
        x = ln(x + mha, blk.ln1_gamma.data, blk.ln1_beta.data)
        x = ln(x + blk.b_down.data, blk.ln2_gamma.data, blk.ln2_beta.data)
    pooled = np.tanh(x[:, 0, :] @ weights.pooler_w.data + weights.pooler_b.data)
    expected = pooled @ weights.classifier_w.data + weights.classifier_b.data

    assert np.abs(forward(weights, batch).data - expected).max() < 1e-10


def test_input_validation(toy_weights, parity_batch):
    batch = parity_batch.slice(0, 2)
    bad_ids = batch.token_ids.copy()
    bad_ids[0, 1] = toy_weights.config.vocab_size

    class Raw:
        def __init__(self, ids, att):
            self.token_ids, self.attention_mask = ids, att

    with pytest.raises(ValueError, match="vocab"):
        forward(toy_weights, Raw(bad_ids, batch.attention_mask))
    long_ids = np.full((1, toy_weights.config.max_positions + 1), 2)
    with pytest.raises(ValueError, match="max_positions"):
        forward(toy_weights, Raw(long_ids, np.ones_like(long_ids)))
    with pytest.raises(ValueError, match="mask shape"):
        forward(toy_weights, batch,
                mask=HeadMask(Tensor(np.ones((2, 2)), requires_grad=False)))


def test_headless_config_cannot_classify():
    cfg = ModelConfig.reference(num_layers=1, num_heads=2, hidden=8, ffn_dim=16,
                                vocab_size=8, max_positions=4)
    weights = init_weights(cfg, seed=0)

    class Raw:
        token_ids = np.array([[2, 3]])
        attention_mask = np.array([[1, 1]])

    with pytest.raises(ValueError, match="classifier"):
        forward(weights, Raw())


def test_end_to_end_gradients_every_trainable_scalar(micro_config, micro_batch):
    """Reverse-mode vs central differences over all ~1.5K model scalars."""
    weights = init_weights(micro_config, seed=5)
    weights.set_requires_grad(True)
    loss = ag.cross_entropy(forward(weights, micro_batch), micro_batch.labels)
    ag.backward(loss)

    def f():
        with ag.no_grad():
            return float(ag.cross_entropy(forward(weights, micro_batch),
                                          micro_batch.labels).data)

    worst = 0.0
    for _, t in weights.named_tensors():
        grad = t.grad if t.grad is not None else np.zeros_like(t.data)
        worst = max(worst, rel_err(finite_diff(f, t), grad, floor=1e-6))
    assert worst < 1e-4


def test_mask_gradients_flow_with_frozen_weights(toy_weights, parity_batch):
    batch = parity_batch.slice(0, 8)
    toy_weights.set_requires_grad(False)
    mask = HeadMask.ones(toy_weights.config)
    loss = ag.cross_entropy(forward(toy_weights, batch, mask=mask), batch.labels)
    ag.backward(loss)
    assert mask.xi.grad is not None
    assert mask.xi.grad.shape == (4, 4)
    assert np.any(mask.xi.grad != 0)
    assert toy_weights.blocks[0].wq.grad is None


def graph_nodes(loss):
    """Op nodes (tensors holding a backward closure) reachable from `loss`."""
    seen, stack, count = set(), [loss], 0
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is not None:
            count += 1
            stack.extend(node._parents)
    return count


def test_graph_node_counts_at_toy_geometry(toy_config, parity_batch):
    """Each block records one node per projection, one for its attention
    and five more (two residual adds, two LayerNorms, the ReLU)."""
    batch = parity_batch.slice(0, 8)
    keep = np.ones((4, 4), dtype=bool)
    keep[[0, 1, 2, 3], [3, 0, 2, 1]] = False  # every block keeps 3 heads
    plan = make_rank_plan([0.4, 0.3, 0.2, 0.1], 2, 8, 4)

    def count(regime, mask=None):
        weights = init_weights(toy_config, seed=0)
        adapters = None
        if regime == "prune_lora":
            weights = apply_slice_prune(weights, PrunePlan(keep, 12))
        if regime in ("lora", "prune_lora"):
            adapters = init_adapters(weights, plan, seed=0)
        if regime == "importance":
            weights.set_requires_grad(False)
        else:
            freeze_policy(weights, adapters, regime)
        return graph_nodes(ag.cross_entropy(
            forward(weights, batch, mask=mask, adapters=adapters), batch.labels))

    # full_finetune: 4 x 12 block nodes, 6 embedding nodes, pooler and
    # classifier (first_token, linear, tanh, linear) and the loss
    assert count("full_finetune") == 59
    # frozen embeddings record only their LayerNorm
    assert count("lora") == 54
    assert count("prune_lora") == 54
    # only the head mask is trainable: block 0 starts at its attention
    assert count("importance", HeadMask.ones(toy_config)) == 50
