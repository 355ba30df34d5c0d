import re

import numpy as np
import pytest

from prunelora import autograd as ag
from prunelora import (
    HeadMask,
    block_importance,
    estimate_importance,
    forward,
)
from prunelora.autograd import Tensor
from prunelora.data import TokenBatch
from prunelora.importance import (
    ImportanceMap,
    csv_to_matrix,
    estimate_raw_importance,
    export_importance,
    import_importance_csv,
    l2_normalize,
    matrix_to_csv,
    minmax_normalize,
    write_ppm,
)
from prunelora.schema import ConfigError


def make_map(final, raw=None):
    final = np.asarray(final, dtype=np.float64)
    raw = final if raw is None else np.asarray(raw, dtype=np.float64)
    return ImportanceMap(raw=raw, l2_normalized=raw, final=final,
                         token_count=1, sample_size=1, epsilon=1e-12)


def test_dead_head_has_zero_importance(toy_weights, parity_batch):
    """Zeroed output-projection rows cut the head's influence entirely."""
    d_h = toy_weights.config.head_dim
    toy_weights.blocks[1].wo.data[2 * d_h:3 * d_h, :] = 0.0
    raw, _ = estimate_raw_importance(toy_weights, parity_batch.slice(0, 16))
    assert raw[1, 2] == 0.0
    assert np.all(raw >= 0)


def test_raw_importance_matches_mask_finite_differences(toy_weights, parity_batch):
    batch = parity_batch.slice(0, 16)
    raw, tokens = estimate_raw_importance(toy_weights, batch, batch_size=16)

    def loss_at(xi):
        mask = HeadMask(Tensor(xi, requires_grad=False))
        with ag.no_grad():
            return float(ag.cross_entropy(
                forward(toy_weights, batch, mask=mask), batch.labels).data)

    h = 1e-4
    cfg = toy_weights.config
    for l in range(cfg.num_layers):
        for i in range(cfg.num_heads):
            xi = np.ones((cfg.num_layers, cfg.num_heads))
            xi[l, i] = 1 + h
            up = loss_at(xi)
            xi[l, i] = 1 - h
            down = loss_at(xi)
            fd = abs((up - down) / (2 * h)) / tokens
            assert abs(fd - raw[l, i]) / max(fd, 1e-12) < 1e-3


def test_duplicating_the_sample_leaves_raw_unchanged(toy_weights, parity_batch):
    sample = parity_batch.slice(0, 16)
    doubled = TokenBatch(
        np.concatenate([sample.token_ids, sample.token_ids]),
        np.concatenate([sample.attention_mask, sample.attention_mask]),
        np.concatenate([sample.labels, sample.labels]),
    )
    raw1, t1 = estimate_raw_importance(toy_weights, sample, batch_size=16)
    raw2, t2 = estimate_raw_importance(toy_weights, doubled, batch_size=16)
    assert t2 == 2 * t1
    assert np.array_equal(raw1, raw2)


def test_importance_same_with_weight_gradients_enabled(toy_weights, parity_batch):
    """The map does not depend on the caller's requires_grad flags, which
    come back as they were, and no weight picks up a gradient."""
    sample = parity_batch.slice(0, 16)
    frozen, _ = estimate_raw_importance(toy_weights, sample)
    tensors = toy_weights.all_tensors()
    flags = [i % 3 == 0 for i in range(len(tensors))]
    for t, flag in zip(tensors, flags):
        t.requires_grad = flag
    hot, _ = estimate_raw_importance(toy_weights, sample)
    assert np.array_equal(frozen, hot)
    assert [t.requires_grad for t in tensors] == flags
    assert all(t.grad is None for t in tensors)


def test_empty_sample_rejected(toy_weights):
    empty = TokenBatch(np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ValueError, match="non-empty"):
        estimate_raw_importance(toy_weights, empty)


def test_estimate_is_deterministic(toy_weights, parity_batch):
    sample = parity_batch.slice(0, 16)
    m1 = estimate_importance(toy_weights, sample)
    m2 = estimate_importance(toy_weights, sample)
    assert np.array_equal(m1.raw, m2.raw)
    assert np.array_equal(m1.final, m2.final)
    assert m1.digest() == m2.digest()


# ---------------------------------------------------------------------------
# normalization


def test_l2_normalize_all_zero_stays_zero():
    assert np.array_equal(l2_normalize(np.zeros((2, 3))), np.zeros((2, 3)))


def test_l2_normalize_single_entry_near_one():
    raw = np.zeros((2, 2))
    raw[1, 0] = 7.0
    out = l2_normalize(raw)
    assert out[1, 0] == pytest.approx(1.0, abs=1e-9)
    assert out[0, 0] == 0.0


def test_l2_normalize_three_four_five():
    out = l2_normalize(np.array([[3.0, 4.0]]))
    assert np.abs(out - [[0.6, 0.8]]).max() < 1e-9


def test_minmax_degenerate_goes_to_zero():
    assert np.array_equal(minmax_normalize(np.full((1, 3), 0.2)),
                          np.zeros((1, 3)))


def test_minmax_two_values():
    assert minmax_normalize(np.array([[1.0, 3.0]])).tolist() == [[0.0, 1.0]]


def test_minmax_invariant_under_positive_scaling():
    rng = np.random.default_rng(0)
    for _ in range(20):
        raw = rng.uniform(0, 5, (4, 4))
        scale = float(rng.uniform(0.01, 100))
        base = minmax_normalize(l2_normalize(raw))
        scaled = minmax_normalize(l2_normalize(scale * raw))
        assert np.abs(base - scaled).max() < 1e-12


def test_final_map_attains_zero_and_one(toy_weights, parity_batch):
    imap = estimate_importance(toy_weights, parity_batch.slice(0, 16))
    assert imap.final.min() == 0.0
    assert imap.final.max() == 1.0


def test_block_importance_is_row_mean():
    imap = make_map([[0.0, 1.0, 0.0, 1.0], [0.25, 0.25, 0.25, 0.25]])
    assert block_importance(imap).tolist() == [0.5, 0.25]
    assert np.array_equal(block_importance(make_map(np.zeros((3, 2)))),
                          np.zeros(3))


# ---------------------------------------------------------------------------
# files


def test_csv_roundtrip_exact(tmp_path):
    imap = make_map([[0.0, 1.0], [0.5, 0.25]])
    path = tmp_path / "imp.csv"
    export_importance(imap, path)
    back = import_importance_csv(path)
    assert np.array_equal(back, imap.final)


def test_csv_roundtrip_exact_on_awkward_floats(tmp_path):
    rng = np.random.default_rng(1)
    m = rng.uniform(0, 1, (3, 5))
    assert np.array_equal(csv_to_matrix(matrix_to_csv(m)), m)


@pytest.mark.parametrize("text, error", [
    ("0.5,1\n0,0.25,1\n", "line 2 holds 3 values, line 1 2"),
    ("\n0.5,1\n\n0,x\n", "line 4: could not convert string to float: 'x'"),
    ("", "holds no rows"),
    ("\n \n", "holds no rows"),
])
def test_malformed_csv_names_the_file_and_line(tmp_path, text, error):
    path = tmp_path / "imp.csv"
    path.write_text(text)
    with pytest.raises(ConfigError, match="^" + re.escape(f"{path}: {error}")):
        import_importance_csv(path)


def test_ppm_all_ones_is_all_255(tmp_path):
    path = tmp_path / "map.ppm"
    write_ppm(np.ones((2, 3)), path)
    raw = path.read_bytes()
    header, pixels = raw.split(b"255\n", 1)
    assert header == b"P6\n3 2\n"
    assert pixels == b"\xff" * (2 * 3 * 3)


def test_map_invariants_enforced():
    with pytest.raises(ValueError, match="token_count"):
        ImportanceMap(raw=np.zeros((1, 1)), l2_normalized=np.zeros((1, 1)),
                      final=np.zeros((1, 1)), token_count=0, sample_size=1,
                      epsilon=1e-12)
    with pytest.raises(ValueError, match="non-negative"):
        make_map([[0.5]], raw=[[-1.0]])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        make_map([[1.5]])


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_map_rejects_non_finite_values(value):
    with pytest.raises(ValueError, match="finite"):
        make_map([[0.5]], raw=[[value]])
    with pytest.raises(ValueError, match=r"\[0, 1\]"):
        make_map([[value]], raw=[[0.5]])


@pytest.mark.parametrize("epsilon", [np.nan, np.inf])
def test_l2_normalize_needs_a_finite_epsilon(epsilon):
    with pytest.raises(ValueError, match="epsilon"):
        l2_normalize(np.ones((2, 2)), epsilon)


@pytest.mark.parametrize("sample_size", [0, -3])
def test_estimate_importance_refuses_a_sample_size_below_one(
        toy_weights, parity_batch, sample_size):
    with pytest.raises(ValueError, match="sample_size"):
        estimate_importance(toy_weights, parity_batch.slice(0, 16),
                            sample_size=sample_size)


def test_estimate_importance_refuses_a_nan_epsilon(toy_weights, parity_batch):
    with pytest.raises(ValueError, match="epsilon"):
        estimate_importance(toy_weights, parity_batch.slice(0, 4),
                            epsilon=np.nan)
