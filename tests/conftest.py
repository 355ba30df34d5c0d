import os

# One BLAS/OpenMP thread unless the caller set otherwise, before numpy is
# imported: a multi-threaded GEMM slows down several times over when the
# other core is busy, and criterion 11 compares wall-clock epoch times.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import json  # noqa: E402
import math  # noqa: E402
import struct  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402
from hypothesis import settings  # noqa: E402

from prunelora import (  # noqa: E402
    ModelConfig,
    PrunePlan,
    SyntheticTaskSpec,
    apply_slice_prune,
    generate,
    init_weights,
)
from prunelora import autograd as ag  # noqa: E402
from prunelora.checkpoint import MAGIC  # noqa: E402
from prunelora.model import PAD_SCORE  # noqa: E402

# Example budgets of the property tests (tests/test_properties.py); tests
# that set their own budget keep it. Tier-1 runs "tier1";
# `pytest --hypothesis-profile=ci` runs the larger budget. Both are
# derandomized: every run of a profile draws the same examples.
settings.register_profile("tier1", max_examples=10, derandomize=True,
                          deadline=None, database=None)
settings.register_profile("ci", max_examples=100, derandomize=True,
                          deadline=None, database=None)
settings.load_profile("tier1")


def finite_diff(f, tensor, h=1e-5):
    """Central differences of a scalar function wrt every tensor entry."""
    g = np.zeros_like(tensor.data)
    it = np.nditer(tensor.data, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        orig = tensor.data[idx]
        tensor.data[idx] = orig + h
        fp = f()
        tensor.data[idx] = orig - h
        fm = f()
        tensor.data[idx] = orig
        g[idx] = (fp - fm) / (2 * h)
    return g


def assert_arena_layout(named, group=lambda name: None):
    """`named` ((name, Tensor) pairs in checkpoint order) is laid out as
    `autograd.place` lays it out: per `group(name)`, the tensors below
    `autograd.ARENA_LIMIT` elements are C-contiguous views, in that order,
    of one arena's buffer, each starting on its own 64-byte cache line with
    zeros after it up to the next, their gradient slots the same ranges of
    its gradient buffer; each larger tensor owns its array."""
    groups = {}
    for name, t in named:
        if t.data.size < ag.ARENA_LIMIT:
            groups.setdefault(group(name), []).append(t)
        else:
            assert t.arena is None and t.data.base is None, name
    for members in groups.values():
        arena = members[0].arena
        assert arena is not None and all(t.arena is arena for t in members)
        assert len(arena.bounds) == len(members) + 1
        slots = arena.slots()
        for buffer in (arena.data, arena.grad):
            assert buffer.size == arena.bounds[-1]
            assert buffer.ctypes.data % 64 == 0
        for i, (t, view, slot) in enumerate(zip(members, arena.views, slots)):
            a, b = arena.bounds[i:i + 2]
            assert t.data is view and t._slot() is slot
            assert a % 8 == 0 and t.data.size <= b - a < t.data.size + 8
            for v, buffer in ((view, arena.data), (slot, arena.grad)):
                assert v.shape == t.data.shape and v.flags.c_contiguous
                # (numpy may place an empty view anywhere)
                assert not v.size or v.ctypes.data == buffer.ctypes.data + 8 * a
                assert not buffer[a + v.size:b].any()
    arenas = [ms[0].arena for ms in groups.values()]
    assert len({id(a) for a in arenas}) == len(arenas)


def weighted_sum(out, w):
    """The 0-d loss sum(out * w) for a constant `w` broadcastable to `out`:
    d loss / d out is `w`, so a random `w` exercises the whole Jacobian."""
    w = np.broadcast_to(np.asarray(w, dtype=np.float64), out.data.shape)

    def bwd(g):
        if out.requires_grad:
            out.accumulate_grad(g * w, fresh=True)

    return ag._from_op(np.asarray((out.data * w).sum()), (out,), bwd)


def attention_reference(q, k, v, bias, d_h, xi=None, heads=None, g=None):
    """`autograd.attention` as a loop over heads, on numpy arrays.

    Returns the output; given the upstream gradient `g`, returns
    `(out, dq, dk, dv, dxi)`, `dxi` None without a mask.
    """
    one_query = q.ndim == 2
    if one_query:
        q, g = q[:, None], None if g is None else g[:, None]
    layer, kept = heads if heads is not None else (None, range(k.shape[-1] // d_h))
    out, dq = np.zeros(q.shape), np.zeros(q.shape)
    dk, dv = np.zeros(k.shape), np.zeros(k.shape)
    dxi = None if xi is None else np.zeros(xi.shape)
    for j, orig in enumerate(kept):
        cols = slice(j * d_h, (j + 1) * d_h)
        qj, kj, vj = q[..., cols], k[..., cols], v[..., cols]
        scores = qj @ kj.swapaxes(-1, -2) / math.sqrt(d_h) + bias
        p = np.exp(scores - scores.max(axis=-1, keepdims=True))
        p /= p.sum(axis=-1, keepdims=True)
        head = p @ vj
        scale = 1.0 if xi is None else xi[layer, orig]
        out[..., cols] = head * scale
        if g is None:
            continue
        gj = g[..., cols]
        if xi is not None:
            dxi[layer, orig] = (gj * head).sum()
        gj = gj * scale
        dv[..., cols] = p.swapaxes(-1, -2) @ gj
        gp = gj @ vj.swapaxes(-1, -2)
        ds = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) / math.sqrt(d_h)
        dq[..., cols] = ds @ kj
        dk[..., cols] = ds.swapaxes(-1, -2) @ qj
    if one_query:
        out, dq = out[:, 0], dq[:, 0]
    return out if g is None else (out, dq, dk, dv, dxi)


def write_config(path, **overrides):
    """Write the toy prune_lora run config, with each override merged into
    its section (or replacing it, for a non-dict value), to `path`."""
    cfg = {
        "seed": 0,
        "model": {"num_layers": 4, "num_heads": 4, "hidden": 64,
                  "ffn_dim": 256, "vocab_size": 16, "max_positions": 16,
                  "num_classes": 2},
        "task": {"kind": "parity", "seq_len": 8, "train_size": 96,
                 "eval_size": 64},
        "importance": {"sample_size": 64, "batch_size": 32, "epsilon": 1e-12},
        "prune": {"keep_count": 12},
        "rank": {"n_high": 2, "rank_high": 8, "rank_low": 4},
        "train": {"regime": "prune_lora", "epochs": 2, "learning_rate": 2e-3,
                  "weight_decay": 0.01, "batch_size": 32, "eval_every": 1},
    }
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return path


def reference_logits(weights, batch):
    """The encoder classifier in numpy, every block over every position."""
    cfg = weights.config
    d_h = cfg.head_dim

    def ln(v, gamma, beta):
        mu = v.mean(-1, keepdims=True)
        var = ((v - mu) ** 2).mean(-1, keepdims=True)
        return (v - mu) / np.sqrt(var + cfg.layernorm_eps) * gamma.data + beta.data

    ids, s = batch.token_ids, batch.token_ids.shape[1]
    x = ln(weights.tok_emb.data[ids] + weights.pos_emb.data[:s]
           + weights.type_emb.data[0], weights.emb_ln_gamma, weights.emb_ln_beta)
    bias = ((1 - batch.attention_mask) * PAD_SCORE)[:, None, :]
    for blk in weights.blocks:
        q, k, v = (x @ w.data + b.data for w, b in
                   ((blk.wq, blk.bq), (blk.wk, blk.bk), (blk.wv, blk.bv)))
        heads = [np.zeros(x.shape[:-1] + (0,))]
        for j in range(q.shape[-1] // d_h):
            cols = slice(j * d_h, (j + 1) * d_h)
            scores = q[..., cols] @ k[..., cols].swapaxes(-1, -2) / math.sqrt(d_h)
            p = np.exp(scores + bias - (scores + bias).max(-1, keepdims=True))
            heads.append(p / p.sum(-1, keepdims=True) @ v[..., cols])
        mha = np.concatenate(heads, axis=-1) @ blk.wo.data + blk.bo.data
        x = ln(x + mha, blk.ln1_gamma, blk.ln1_beta)
        ff = (np.maximum(x @ blk.w_up.data + blk.b_up.data, 0.0) @ blk.w_down.data
              + blk.b_down.data)
        x = ln(x + ff, blk.ln2_gamma, blk.ln2_beta)
    pooled = np.tanh(x[:, 0] @ weights.pooler_w.data + weights.pooler_b.data)
    return pooled @ weights.classifier_w.data + weights.classifier_b.data


def repack_checkpoint(path, edit_manifest):
    """Checkpoint bytes re-packed after editing the manifest dict in place."""
    data = path.read_bytes()
    (mlen,) = struct.unpack("<Q", data[8:16])
    manifest = json.loads(data[16:16 + mlen])
    edit_manifest(manifest)
    payload = json.dumps(manifest).encode()
    return (MAGIC + data[4:8] + struct.pack("<Q", len(payload)) + payload
            + data[16 + mlen:])


def rel_err(a, b, floor=1e-8):
    denom = np.maximum(np.maximum(np.abs(a), np.abs(b)), floor)
    return float((np.abs(a - b) / denom).max())


@pytest.fixture
def micro_config():
    """Small enough for exhaustive finite-difference sweeps."""
    return ModelConfig(num_layers=2, num_heads=2, hidden=8, ffn_dim=16,
                       vocab_size=13, max_positions=8, num_classes=2)


@pytest.fixture
def toy_config():
    return ModelConfig(vocab_size=16, max_positions=16)


@pytest.fixture
def toy_weights(toy_config):
    return init_weights(toy_config, seed=0)


@pytest.fixture
def empty_block_weights(toy_weights):
    """The toy weights sliced so that block 2 keeps no head (12 kept)."""
    keep = np.ones((4, 4), dtype=bool)
    keep[2, :] = False
    weights = apply_slice_prune(toy_weights, PrunePlan(keep, 12))
    assert weights.head_index_map[2] == []
    assert weights.blocks[2].wq.data.shape == (64, 0)
    assert weights.blocks[2].wo.data.shape == (0, 64)
    return weights


@pytest.fixture
def parity_batch():
    spec = SyntheticTaskSpec(kind="parity", seq_len=8, vocab_size=16, seed=0,
                             train_size=32, eval_size=8)
    train, _ = generate(spec)
    return train


@pytest.fixture
def micro_batch():
    spec = SyntheticTaskSpec(kind="parity", seq_len=4, vocab_size=13, seed=2,
                             train_size=8, eval_size=4)
    train, _ = generate(spec)
    return train.slice(0, 4)
