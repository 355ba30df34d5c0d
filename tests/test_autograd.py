import math
import tracemalloc

import numpy as np
import pytest

from prunelora import autograd as ag
from prunelora.autograd import Tensor
from prunelora.model import PAD_SCORE

from conftest import attention_reference, finite_diff, rel_err, weighted_sum


# ---------------------------------------------------------------------------
# linear, on both forward GEMM shapes


@pytest.fixture(params=["flattened", "batched"])
def matmul_path(request, monkeypatch):
    """`linear` with a frozen zero bias, on each of its forward GEMM shapes
    (rows flattened to one 2-D GEMM, or numpy's batched matmul), whatever
    the weight size."""
    limit = 0 if request.param == "flattened" else math.inf
    monkeypatch.setattr(ag, "FLAT_MIN_WEIGHT", limit)

    def project(a, b):
        return ag.linear(a, b, Tensor(np.zeros(b.data.shape[-1])))

    return project


def check_matmul_gradients(a, b, product):
    """Forward equals np.matmul; trainable inputs match finite differences."""
    rng = np.random.default_rng(0)
    out = product(a, b)
    assert np.abs(out.data - np.matmul(a.data, b.data)).max() < 1e-12
    w = rng.uniform(-1, 1, out.data.shape)
    ag.backward(weighted_sum(out, w))

    def f():
        with ag.no_grad():
            return float(weighted_sum(product(a, b), w).data)

    for t in (a, b):
        if t.requires_grad:
            assert rel_err(finite_diff(f, t), t.grad) < 1e-6
        else:
            assert t.grad is None


def test_matmul_4d_by_2d_gradients(matmul_path):
    rng = np.random.default_rng(2)
    check_matmul_gradients(
        Tensor(rng.uniform(-1, 1, (2, 3, 5, 4)), requires_grad=True),
        Tensor(rng.uniform(-1, 1, (4, 2)), requires_grad=True),
        matmul_path,
    )


@pytest.mark.parametrize("trainable", ["a", "b"])
def test_matmul_3d_by_2d_one_side_trainable(matmul_path, trainable):
    rng = np.random.default_rng(3)
    check_matmul_gradients(
        Tensor(rng.uniform(-1, 1, (2, 3, 4)), requires_grad=trainable == "a"),
        Tensor(rng.uniform(-1, 1, (4, 5)), requires_grad=trainable == "b"),
        matmul_path,
    )


def test_matmul_non_contiguous_inputs(matmul_path):
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, (3, 2, 4))
    w = rng.uniform(-1, 1, (5, 4))
    a = Tensor(x.swapaxes(0, 1), requires_grad=True)
    b = Tensor(w.T, requires_grad=True)
    assert not a.data.flags.c_contiguous and not b.data.flags.c_contiguous
    check_matmul_gradients(a, b, matmul_path)


def test_matmul_empty_inner_dimension(matmul_path):
    # numpy accepts empty products; the flattened path must reshape them too
    a = Tensor(np.zeros((2, 3, 0)), requires_grad=True)
    b = Tensor(np.zeros((0, 4)), requires_grad=True)
    out = matmul_path(a, b)
    assert out.data.shape == (2, 3, 4) and not out.data.any()
    ag.backward(weighted_sum(out, 1.0))
    assert a.grad.shape == (2, 3, 0) and b.grad.shape == (0, 4)


# ---------------------------------------------------------------------------
# gradient accumulation never aliases


def assert_grads_unaliased(leaves, others):
    """No leaf grad shares memory with another tensor's grad."""
    for leaf in leaves:
        for t in leaves + others:
            if t is not leaf and t.grad is not None:
                assert not np.shares_memory(leaf.grad, t.grad)


def unit_scale(d):
    """Frozen LayerNorm gamma and beta of width d: ones and zeros."""
    return Tensor(np.ones(d)), Tensor(np.zeros(d))


def test_layernorm_same_tensor_as_two_terms():
    x = Tensor(np.arange(1.0, 7.0).reshape(2, 3) ** 2, requires_grad=True)
    # the sum x + x as a single term
    doubled = Tensor(x.data + x.data, requires_grad=True)
    out = ag.layernorm((x, x), *unit_scale(3))
    single = ag.layernorm((doubled,), *unit_scale(3))
    assert np.array_equal(out.data, single.data)
    w = np.linspace(-1, 1, 6).reshape(2, 3)
    ag.backward(weighted_sum(out, w))
    ag.backward(weighted_sum(single, w))
    # the sum's gradient, once per term
    assert np.array_equal(x.grad, 2 * doubled.grad)
    assert_grads_unaliased([x, doubled], [out, single])


def test_layernorm_two_terms_get_separate_grads():
    rng = np.random.default_rng(1)
    x = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    y = Tensor(rng.uniform(-1, 1, (2, 3)), requires_grad=True)
    out = ag.layernorm((x, y), *unit_scale(3))
    ag.backward(weighted_sum(out, rng.uniform(-1, 1, (2, 3))))
    assert np.array_equal(x.grad, y.grad)
    assert_grads_unaliased([x, y], [out])
    upstream, y_grad = out.grad.copy(), y.grad.copy()
    x.grad += 1.0  # in-place writes to one grad must not reach the other
    assert np.array_equal(y.grad, y_grad)
    assert np.array_equal(out.grad, upstream)


def test_relu_output_and_gradient(monkeypatch):
    values = np.array([[-0.0, 0.0, -1.0, 2.0, -5e-324, 5e-324]])
    relu_bytes = np.array([[0.0, 0.0, 0.0, 2.0, 0.0, 5e-324]]).tobytes()
    x = Tensor(values, requires_grad=True)
    eye, zeros = Tensor(np.eye(6)), Tensor(np.zeros(6))
    out = ag.linear(x, eye, zeros, act="relu")
    # +0.0 wherever the projection is not positive
    assert out.data.tobytes() == relu_bytes
    ag.backward(weighted_sum(out, np.arange(1.0, 7.0)))
    assert np.array_equal(x.grad, [[0.0, 0.0, 0.0, 4.0, 0.0, 6.0]])
    # a GEMM here starts its sums at +0.0, so no projection above is -0.0;
    # with the product replaced by its input and a -0.0 bias, the first
    # output is -0.0 before the ReLU, and +0.0 after it
    monkeypatch.setattr(ag, "_project", lambda a, w: a.copy())
    out = ag.linear(values, eye, Tensor(np.full(6, -0.0)), act="relu")
    assert out.data.tobytes() == relu_bytes


def test_tensor_feeding_two_branches(matmul_path):
    rng = np.random.default_rng(5)
    x = Tensor(rng.uniform(-1, 1, (3, 3, 4)), requires_grad=True)
    wmat = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
    w = rng.uniform(-1, 1, (3, 3, 4))
    h = matmul_path(x, wmat)
    left = ag.first_token(h)  # a gradient for one slice of h
    # x and h feed two nodes each; left, (b, d), broadcasts over the
    # leading axis (b == s here)
    out = ag.layernorm((h, x, left), *unit_scale(4))
    ag.backward(weighted_sum(out, w))
    # D: the gradient wrt the LayerNorm's sum, from a leaf holding it
    total = Tensor(h.data + x.data + left.data, requires_grad=True)
    ag.backward(weighted_sum(ag.layernorm((total,), *unit_scale(4)), w))
    d = total.grad
    # dL/dh = D, plus left's share at position 0: D summed over the axis
    # left was broadcast along. dL/dx = dL/dh @ W^T + D, dL/dW = x2^T @ dL/dh
    gh = d.copy()
    gh[:, 0] += d.sum(axis=0)
    assert np.allclose(x.grad, gh @ wmat.data.T + d, rtol=1e-14)
    assert np.allclose(wmat.grad, x.data.reshape(9, 4).T @ gh.reshape(9, 4),
                       rtol=1e-14)
    assert_grads_unaliased([x, wmat], [h, left, out])


# ---------------------------------------------------------------------------
# softmax, through attention


def attention_weights(bias, q=None, k=None):
    """The softmax weights of one attention head of width s: with v the
    identity over keys, output row i is softmax(q_i . k / sqrt(s) + bias_i)."""
    b, s, _ = bias.shape
    zeros = Tensor(np.zeros((b, s, s)))
    v = Tensor(np.broadcast_to(np.eye(s), (b, s, s)).copy())
    return ag.attention(zeros if q is None else q, zeros if k is None else k,
                        v, bias, s)


def test_softmax_uniform():
    out = attention_weights(np.zeros((1, 3, 3)))
    assert np.allclose(out.data, 1 / 3, atol=1e-15)


def test_softmax_extreme_values_stay_finite():
    out = attention_weights(np.array([[[1000.0, 0.0], [0.0, 1000.0]]]))
    assert np.all(np.isfinite(out.data))
    assert out.data[0, 0, 0] == pytest.approx(1.0)
    assert out.data[0, 0, 1] == 0.0


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(2)
    out = attention_weights(rng.uniform(-5, 5, (4, 7, 7)))
    assert np.allclose(out.data.sum(axis=-1), 1.0, atol=1e-12)


def test_softmax_gradients_match_finite_differences():
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-1, 1, (2, 5, 5)), requires_grad=True)
    k = Tensor(rng.uniform(-1, 1, (2, 5, 5)))
    bias = rng.uniform(-1, 1, (2, 5, 5))
    w = rng.uniform(-1, 1, (2, 5, 5))
    ag.backward(weighted_sum(attention_weights(bias, x, k), w))

    def f():
        with ag.no_grad():
            return float(weighted_sum(attention_weights(bias, x, k), w).data)

    assert rel_err(finite_diff(f, x), x.grad) < 1e-6


# ---------------------------------------------------------------------------
# layernorm


def test_layernorm_constant_row_is_zero():
    x = Tensor([[2.5, 2.5, 2.5, 2.5]])
    out = ag.layernorm((x,), Tensor(np.ones(4)), Tensor(np.zeros(4)), eps=1e-12)
    assert np.allclose(out.data, 0.0, atol=1e-5)


def test_layernorm_standardizes_two_points():
    out = ag.layernorm((Tensor([[1.0, 3.0]]),), Tensor(np.ones(2)),
                       Tensor(np.zeros(2)), eps=1e-12)
    assert np.allclose(out.data, [[-1.0, 1.0]], atol=1e-3)


def test_layernorm_feature_mismatch():
    with pytest.raises(ValueError, match="feature size"):
        ag.layernorm((Tensor(np.zeros((2, 4))),), Tensor(np.ones(3)),
                     Tensor(np.zeros(3)))


@pytest.mark.parametrize("recorded", [False, True], ids=["no_grad", "backward"])
@pytest.mark.parametrize("layout", ["one", "twice", "small-first"])
def test_layernorm_leaves_its_terms_untouched(layout, recorded):
    rng = np.random.default_rng(13)
    x = Tensor(rng.uniform(-1, 1, (3, 2, 4)), requires_grad=True)
    row = Tensor(rng.uniform(-1, 1, (1, 4)), requires_grad=True)
    terms = {"one": (x,), "twice": (x, x), "small-first": (row, x)}[layout]
    gamma = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True)
    beta = Tensor(rng.uniform(-0.5, 0.5, 4), requires_grad=True)
    leaves = (x, row, gamma, beta)
    before = [t.data.tobytes() for t in leaves]
    if recorded:
        out = ag.layernorm(terms, gamma, beta)
        ag.backward(weighted_sum(out, rng.uniform(-1, 1, (3, 2, 4))))
    else:
        with ag.no_grad():
            out = ag.layernorm(terms, gamma, beta)
    assert out.data.shape == (3, 2, 4)
    assert [t.data.tobytes() for t in leaves] == before


def traced_peak(fn):
    """fn's result and the peak bytes allocated while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_layernorm_allocates_few_sum_sized_buffers():
    # two trainable (32, 10, 64) terms: forward allocates the normalized
    # sum and the output, backward dx and a copy of it for one term
    rng = np.random.default_rng(14)
    shape = (32, 10, 64)
    terms = [Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
             for _ in range(2)]
    gamma, beta = Tensor(np.ones(64)), Tensor(np.zeros(64))
    g = rng.uniform(-1, 1, shape)
    out, forward_peak = traced_peak(lambda: ag.layernorm(terms, gamma, beta))
    # the node's closure alone, on an upstream gradient allocated outside
    _, backward_peak = traced_peak(lambda: out._backward(g))
    assert forward_peak < 3 * g.nbytes
    assert backward_peak < 3 * g.nbytes
    assert not np.shares_memory(terms[0].grad, terms[1].grad)


def test_layernorm_gradients_match_finite_differences():
    rng = np.random.default_rng(4)
    x = Tensor(rng.uniform(-1, 1, (2, 4)), requires_grad=True)
    gamma = Tensor(rng.uniform(0.5, 1.5, 4), requires_grad=True)
    beta = Tensor(rng.uniform(-0.5, 0.5, 4), requires_grad=True)
    w = rng.uniform(-1, 1, (2, 4))
    ag.backward(weighted_sum(ag.layernorm((x,), gamma, beta, 1e-8), w))

    def f():
        with ag.no_grad():
            return float(weighted_sum(ag.layernorm((x,), gamma, beta, 1e-8), w).data)

    assert rel_err(finite_diff(f, gamma), gamma.grad) < 1e-5
    assert rel_err(finite_diff(f, beta), beta.grad) < 1e-5
    assert rel_err(finite_diff(f, x), x.grad) < 1e-5


# ---------------------------------------------------------------------------
# cross entropy


def test_cross_entropy_uniform_two_classes():
    loss = ag.cross_entropy(Tensor([[0.0, 0.0]]), [0])
    assert float(loss.data) == pytest.approx(math.log(2), abs=1e-12)


def test_cross_entropy_confident_no_overflow():
    loss = ag.cross_entropy(Tensor([[100.0, 0.0]]), [0])
    assert float(loss.data) == pytest.approx(0.0, abs=1e-10)


def test_cross_entropy_matches_direct_logsumexp():
    rng = np.random.default_rng(5)
    logits = rng.uniform(-3, 3, (4, 3))
    labels = rng.integers(0, 3, 4)
    loss = ag.cross_entropy(Tensor(logits), labels)
    # direct evaluation, no max subtraction
    expected = np.mean([
        np.log(np.exp(row).sum()) - row[y] for row, y in zip(logits, labels)
    ])
    assert abs(float(loss.data) - expected) < 1e-10


def test_cross_entropy_label_out_of_range():
    with pytest.raises(IndexError, match="label out of range"):
        ag.cross_entropy(Tensor([[0.0, 0.0]]), [2])


def test_cross_entropy_gradients_match_finite_differences():
    rng = np.random.default_rng(6)
    logits = Tensor(rng.uniform(-1, 1, (3, 4)), requires_grad=True)
    labels = [0, 3, 1]
    ag.backward(ag.cross_entropy(logits, labels))

    def f():
        with ag.no_grad():
            return float(ag.cross_entropy(logits, labels).data)

    assert rel_err(finite_diff(f, logits), logits.grad) < 1e-6


# ---------------------------------------------------------------------------
# structural ops


def test_embedding_gradient_scatters_to_rows():
    table = Tensor(np.arange(12.0).reshape(4, 3), requires_grad=True)
    out = ag.embedding(table, np.array([[1, 1], [3, 0]]))
    ag.backward(weighted_sum(out, 1.0))
    expected = np.array([[1.0] * 3, [2.0] * 3, [0.0] * 3, [1.0] * 3])
    assert np.array_equal(table.grad, expected)
    assert np.array_equal(np.flatnonzero(table.grad_rows), [0, 1, 3])


def test_embedding_table_looked_up_twice_sums_both_scatters():
    rng = np.random.default_rng(3)
    table = Tensor(rng.uniform(-1, 1, (5, 3)), requires_grad=True)
    w = rng.uniform(-1, 1, (2, 2, 3))
    held = []

    def build():
        first = ag.embedding(table, np.array([[1, 1], [3, 0]]))
        # (2, 3), broadcast over first's leading axis
        second = ag.embedding(table, np.array([1, 2]))
        out = ag.layernorm((first, second), *unit_scale(3))
        held[:] = first, second, out
        return weighted_sum(out, w)

    ag.backward(build())

    def f():
        with ag.no_grad():
            return float(build().data)

    assert rel_err(finite_diff(f, table), table.grad) < 1e-6
    assert not table.grad[4].any()  # row 4 is never looked up
    # the union of both lookups
    assert np.array_equal(np.flatnonzero(table.grad_rows), [0, 1, 2, 3])
    assert_grads_unaliased([table], held)
    assert not np.shares_memory(table.grad, table.data)


def test_embedding_id_out_of_range():
    with pytest.raises(IndexError, match="id out of range"):
        ag.embedding(Tensor(np.zeros((4, 3))), np.array([4]))


# ---------------------------------------------------------------------------
# fused block ops


def check_gradients(build, inputs):
    """Every trainable input of `build()` matches finite differences; frozen
    inputs get no gradient, and the held output keeps its upstream gradient
    as it was handed in."""
    rng = np.random.default_rng(0)
    out = build()
    w = rng.uniform(-1, 1, out.data.shape)
    ag.backward(weighted_sum(out, w))
    assert np.array_equal(out.grad, w)

    def f():
        with ag.no_grad():
            return float(weighted_sum(build(), w).data)

    for t in inputs:
        if t.requires_grad:
            assert rel_err(finite_diff(f, t), t.grad) < 1e-6
        else:
            assert t.grad is None


def linear_inputs(trainable):
    """x (2, 3, 4), W (4, 5), b (5,) and a rank-2 adapter pair A, B."""
    rng = np.random.default_rng(20)
    shapes = {"x": (2, 3, 4), "W": (4, 5), "b": (5,), "A": (4, 2), "B": (2, 5)}
    return {name: Tensor(rng.uniform(-1, 1, shape),
                         requires_grad=name in trainable)
            for name, shape in shapes.items()}


@pytest.mark.parametrize("trainable", [("x", "W", "b", "A", "B"), ("x",),
                                       ("W", "b"), ("A", "B"), ("A",), ("B",)])
@pytest.mark.parametrize("scaling", [1.0, 2.5])
def test_linear_with_adapter_gradients(matmul_path, trainable, scaling):
    t = linear_inputs(trainable)
    adapter = (t["A"], t["B"], scaling)
    expected = (t["x"].data @ t["W"].data
                + scaling * (t["x"].data @ t["A"].data) @ t["B"].data
                + t["b"].data)
    out = ag.linear(t["x"], t["W"], t["b"], adapter)
    assert np.abs(out.data - expected).max() < 1e-12
    check_gradients(lambda: ag.linear(t["x"], t["W"], t["b"], adapter),
                    list(t.values()))


ACTIVATIONS = {"relu": lambda z: np.maximum(z, 0.0), "tanh": np.tanh}


@pytest.mark.parametrize("act", sorted(ACTIVATIONS))
def test_linear_activation_gradients(matmul_path, act):
    t = linear_inputs(("x", "W", "b", "A", "B"))
    adapter = (t["A"], t["B"], 1.5)
    projection = ag.linear(t["x"], t["W"], t["b"], adapter)
    out = ag.linear(t["x"], t["W"], t["b"], adapter, act=act)
    assert out.data.tobytes() == ACTIVATIONS[act](projection.data).tobytes()
    check_gradients(lambda: ag.linear(t["x"], t["W"], t["b"], adapter, act=act),
                    list(t.values()))


def test_linear_refuses_an_unknown_activation():
    t = linear_inputs(())
    for act in ("gelu", "ReLU", "", 0):
        with pytest.raises(ValueError, match="unknown activation"):
            ag.linear(t["x"], t["W"], t["b"], act=act)


def test_no_grad_linear_activation_allocates_one_output():
    # the activation runs in place: no second output-sized array, no mask
    rng = np.random.default_rng(15)
    x = Tensor(rng.uniform(-1, 1, (32, 10, 64)))
    W = Tensor(rng.uniform(-1, 1, (64, 256)))
    b = Tensor(rng.uniform(-1, 1, 256))
    with ag.no_grad():
        out, peak = traced_peak(lambda: ag.linear(x, W, b, act="relu"))
    assert not (out.data < 0).any()
    assert peak < 1.5 * out.data.nbytes


def test_linear_2d_input_gradients():
    t = linear_inputs(("x", "W", "b", "A", "B"))
    x = Tensor(t["x"].data[0], requires_grad=True)
    adapter = (t["A"], t["B"], 0.5)
    check_gradients(lambda: ag.linear(x, t["W"], t["b"], adapter),
                    [x, t["W"], t["b"], t["A"], t["B"]])


def test_linear_zero_b_adapter_is_bit_identical(matmul_path):
    t = linear_inputs(())
    t["B"].data[...] = 0.0
    plain = ag.linear(t["x"], t["W"], t["b"])
    adapted = ag.linear(t["x"], t["W"], t["b"], (t["A"], t["B"], 2.5))
    assert plain.data.tobytes() == adapted.data.tobytes()


def test_linear_shape_errors():
    t = linear_inputs(())
    with pytest.raises(ValueError, match="inner dimensions"):
        ag.linear(t["x"], Tensor(np.zeros((3, 5))), t["b"])
    with pytest.raises(ValueError, match="bias shape"):
        ag.linear(t["x"], t["W"], Tensor(np.zeros(4)))
    with pytest.raises(ValueError, match="adapter shapes"):
        ag.linear(t["x"], t["W"], t["b"], (t["A"], Tensor(np.zeros((3, 5))), 1.0))


def attention_inputs(trainable, kept=(0, 2)):
    """q, k, v of shape (2, 4, len(kept) * 3), a (2, 3) head mask, and a
    key bias with PAD_SCORE on the last key of the second row."""
    rng = np.random.default_rng(21)
    shape = (2, 4, 3 * len(kept))
    t = {name: Tensor(rng.uniform(-1, 1, shape), requires_grad=name in trainable)
         for name in ("q", "k", "v")}
    t["xi"] = Tensor(rng.uniform(0.5, 1.5, (2, 3)), requires_grad="xi" in trainable)
    bias = np.zeros((2, 1, 4))
    bias[1, 0, -1] = PAD_SCORE
    return t, bias


@pytest.mark.parametrize("trainable", [("q", "k", "v", "xi"), ("q",), ("k",),
                                       ("v",), ("xi",), ("k", "xi")])
@pytest.mark.parametrize("kept", [(0, 2), (1,)])
def test_attention_gradients(trainable, kept):
    t, bias = attention_inputs(trainable, kept)

    def build():
        return ag.attention(t["q"], t["k"], t["v"], bias, 3, xi=t["xi"],
                            heads=(1, list(kept)))

    want = attention_reference(t["q"].data, t["k"].data, t["v"].data, bias, 3,
                               t["xi"].data, (1, kept))
    assert np.abs(build().data - want).max() < 1e-12
    check_gradients(build, list(t.values()))
    if t["xi"].grad is not None:
        # only the kept heads of the given layer carry a mask gradient
        touched = np.zeros((2, 3), dtype=bool)
        touched[1, list(kept)] = True
        assert not t["xi"].grad[~touched].any()


def test_attention_without_mask_and_shared_inputs():
    # self-attention straight on x: q, k and v are one tensor
    t, bias = attention_inputs(())
    x = Tensor(t["q"].data, requires_grad=True)
    out = ag.attention(x, x, x, bias, 3)
    assert np.abs(out.data - attention_reference(x.data, x.data, x.data, bias,
                                                 3)).max() < 1e-12
    check_gradients(lambda: ag.attention(x, x, x, bias, 3), [x])


def test_padded_keys_get_no_attention():
    t, bias = attention_inputs(("v",))
    out = ag.attention(t["q"], t["k"], t["v"], bias, 3)
    ag.backward(weighted_sum(out, 1.0))
    # the padded key's value feeds no output, so it gets no gradient
    assert not t["v"].grad[1, -1].any() and t["v"].grad[0, -1].all()


def test_attention_shape_errors():
    t, bias = attention_inputs(())
    with pytest.raises(ValueError, match="multiple of d_h"):
        ag.attention(t["q"], t["k"], t["v"], bias, 4)
    with pytest.raises(ValueError, match="kept heads"):
        ag.attention(t["q"], t["k"], t["v"], bias, 3, heads=(0, [0]))
    with pytest.raises(ValueError, match="needs `heads`"):
        ag.attention(t["q"], t["k"], t["v"], bias, 3, xi=t["xi"])
    with pytest.raises(ValueError, match="share one"):
        ag.attention(t["q"], t["k"], Tensor(np.zeros((2, 4, 3))), bias, 3)
    for q in (np.zeros((1, 4, 6)), np.zeros((2, 4, 3)), np.zeros((2, 6, 1, 1)),
              np.zeros((2, 3))):
        with pytest.raises(ValueError, match="share one"):
            ag.attention(q, t["k"], t["v"], bias, 3)


@pytest.mark.parametrize("trainable", [("q", "k", "v", "xi"), ("k",), ("xi",)])
def test_one_query_per_row_attends_like_the_first_of_all_queries(trainable):
    """A (b, width) query is one query per row: its output is row 0 of the
    all-query output and has q's shape; dq comes back in q's shape, dk and
    dv in k's, and the MAC count is 2 * s * q.size."""
    t, bias = attention_inputs(trainable)
    full = ag.attention(t["q"].data, t["k"].data, t["v"].data, bias, 3,
                        xi=t["xi"].data, heads=(1, [0, 2]))
    t["q"] = Tensor(t["q"].data[:, 0], requires_grad="q" in trainable)

    def build():
        return ag.attention(t["q"], t["k"], t["v"], bias, 3, xi=t["xi"],
                            heads=(1, [0, 2]))

    with ag.count_macs() as counter:
        out = build()
    assert out.data.shape == (2, 6)
    assert np.abs(out.data - full.data[:, 0]).max() < 1e-15
    assert counter.macs == 2 * 4 * 12
    check_gradients(build, list(t.values()))


def test_mac_counter_counts_fused_ops():
    t = linear_inputs(())
    a, bias = attention_inputs(())
    with ag.count_macs() as counter:
        ag.linear(t["x"], t["W"], t["b"], (t["A"], t["B"], 2.0))
    # x @ W, then x @ A and (x A) @ B over 6 rows
    assert counter.macs == 6 * 4 * 5 + 6 * 4 * 2 + 6 * 2 * 5
    assert counter.flops == 2 * counter.macs
    with ag.count_macs() as outer:
        ag.linear(t["x"], t["W"], t["b"])
        with ag.count_macs() as inner:
            ag.attention(a["q"], a["k"], a["v"], bias, 3)
        ag.linear(t["x"], t["W"], t["b"])
    # per head: scores (2 x 4 x 4) x 3, then (2 x 4 x 3) x 4
    assert inner.macs == 2 * (2 * 4 * 4 * 3 + 2 * 4 * 3 * 4)
    # nested counters both count; a closed one stops
    assert outer.macs == inner.macs + 2 * 6 * 4 * 5


# ---------------------------------------------------------------------------
# backward semantics


def test_backward_sum_gives_ones():
    w = Tensor(np.random.default_rng(8).uniform(-1, 1, (3, 2)),
               requires_grad=True)
    ag.backward(weighted_sum(w, 1.0))
    assert np.array_equal(w.grad, np.ones((3, 2)))


def test_backward_quadratic_gives_weights():
    # 0.5 * trace(w @ w), w both input and weight of one product: its
    # gradient is w^T, half from each side
    w = Tensor(np.random.default_rng(9).uniform(-1, 1, (4, 4)),
               requires_grad=True)
    ag.backward(weighted_sum(ag.linear(w, w, Tensor(np.zeros(4))),
                             0.5 * np.eye(4)))
    assert np.allclose(w.grad, w.data.T, atol=1e-15)


def test_backward_rejects_non_scalar():
    w = Tensor(np.ones((2, 2)), requires_grad=True)
    out = ag.linear(w, Tensor(np.eye(2)), Tensor(np.zeros(2)), act="relu")
    with pytest.raises(ValueError, match="scalar"):
        ag.backward(out)


def test_gradients_accumulate_until_zeroed():
    w = Tensor(np.ones(3), requires_grad=True)
    ag.backward(weighted_sum(w, 1.0))
    ag.backward(weighted_sum(w, 1.0))
    assert np.array_equal(w.grad, 2 * np.ones(3))
    w.zero_grad()
    ag.backward(weighted_sum(w, 1.0))
    assert np.array_equal(w.grad, np.ones(3))


def test_second_backward_through_consumed_graph_raises():
    w = Tensor(np.ones((1, 3)), requires_grad=True)
    hidden = ag.linear(w, Tensor(2 * np.eye(3)), Tensor(np.zeros(3)))
    loss = weighted_sum(hidden, 4.0)
    ag.backward(loss)
    assert np.array_equal(w.grad, np.full((1, 3), 8.0))
    with pytest.raises(ag.GraphConsumedError):
        ag.backward(loss)
    # a new graph on top of a consumed tensor reaches the consumed node too
    with pytest.raises(ag.GraphConsumedError):
        ag.backward(weighted_sum(hidden, 1.0))
    # the refused calls changed no gradient, and held tensors keep theirs
    assert np.array_equal(w.grad, np.full((1, 3), 8.0))
    assert np.array_equal(loss.grad, 1.0)
    assert np.array_equal(hidden.grad, np.full((1, 3), 4.0))


def projection_chain_loss(x, weighting, length=40):
    """weighted_sum over `length` frozen identity projections stacked on x;
    only the loss is held. Each projection's backward allocates the
    gradient it hands on."""
    n = x.data.shape[-1]
    eye, zeros = Tensor(np.eye(n)), Tensor(np.zeros(n))
    out = x
    for _ in range(length):
        out = ag.linear(out, eye, zeros)
    return weighted_sum(out, weighting)


def test_backward_frees_the_graph_as_it_runs():
    x = Tensor(np.ones((128, 128)), requires_grad=True)
    weighting = np.random.default_rng(12).uniform(-1, 1, (128, 128))
    loss = projection_chain_loss(x, weighting)
    _, peak = traced_peak(lambda: ag.backward(loss))
    # holding the whole graph would reach about 42 array-sizes
    assert peak < 8 * x.data.nbytes
    assert np.array_equal(x.grad, weighting)


def test_backward_hands_fresh_gradients_over_without_a_copy():
    x = Tensor(np.ones((128, 128)), requires_grad=True)
    loss = projection_chain_loss(x, np.ones((128, 128)))
    _, peak = traced_peak(lambda: ag.backward(loss))
    # each step holds the upstream gradient and the product it hands on;
    # a copy of that product would make three array-sizes
    assert peak < 2.5 * x.data.nbytes


def test_no_grad_mode_matches_recorded_forward():
    rng = np.random.default_rng(10)
    a = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
    b = Tensor(rng.uniform(-1, 1, (3, 3)), requires_grad=True)
    c = Tensor(np.zeros(3))
    recorded = ag.linear(a, b, c, act="relu")
    with ag.no_grad():
        silent = ag.linear(a, b, c, act="relu")
    assert np.array_equal(recorded.data, silent.data)
    assert silent._backward is None and not silent.requires_grad


def test_frozen_parents_get_no_gradient():
    a = Tensor(np.ones((2, 2)), requires_grad=True)
    b = Tensor(np.ones((2, 2)), requires_grad=False)
    ag.backward(weighted_sum(ag.linear(a, b, Tensor(np.zeros(2))), 1.0))
    assert a.grad is not None
    assert b.grad is None


def test_determinism_bit_identical_runs():
    def run():
        rng = np.random.default_rng(11)
        a = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
        b = Tensor(rng.uniform(-1, 1, (4, 4)), requires_grad=True)
        c = Tensor(rng.uniform(-1, 1, 4), requires_grad=True)
        out = ag.linear(ag.linear(a, b, c, act="relu"), b, c, act="tanh")
        ag.backward(weighted_sum(out, rng.uniform(-1, 1, (4, 4))))
        return out.data.copy(), a.grad.copy(), b.grad.copy(), c.grad.copy()

    first, second = run(), run()
    for x, y in zip(first, second):
        assert np.array_equal(x, y)


def test_non_finite_values_rejected():
    with pytest.raises(ValueError, match="non-finite"):
        Tensor([1.0, np.nan])
    # a sum of finite terms that overflows
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ag.NonFiniteError, match="non-finite"):
            ag.layernorm((Tensor([1e308]), Tensor([1e308])), *unit_scale(1))
