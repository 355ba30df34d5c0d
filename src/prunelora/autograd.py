"""Minimal dense-tensor engine with reverse-mode automatic differentiation.

Tensors hold float64 numpy arrays. Every differentiable op records its
parents and a backward closure on the output tensor; `backward(loss)`
replays closures in exact reverse creation order, which makes gradient
accumulation deterministic. Graphs live for one forward pass only:
`backward` consumes the graph as it runs. Each node is detached before its
closure runs, so once the closure has run nothing in the engine refers to
the node, and its activations, its gradient and the arrays its closure
captured are freed unless the caller still holds the tensor (a held tensor
keeps its `.data` and `.grad`). A second `backward` through a consumed node
raises `GraphConsumedError`; a fresh forward over the same leaves builds a
new graph, and its gradients add to the leaves' `.grad` as before.

Closures accumulate into parents directly and skip parents that do not
require gradients, so frozen weights cost nothing on the backward pass.
A parent's first gradient contribution is stored as a copy, later ones
are added in place, so no `.grad` ever aliases another array. `embedding`
scatters straight into its table's `.grad`, starting it at fresh zeros.

`matmul` of a `(..., k)` tensor by a 2-D `(k, n)` weight with at least
`FLAT_MIN_WEIGHT` entries flattens the rows to `(-1, k)` and runs one 2-D
GEMM forward. Backward, a frozen weight skips the weight-gradient GEMM; a
trainable one gets the single `(k, n)` GEMM `a2.T @ g2`, with no batched
`(b, k, n)` temporary and no reduction over batch dims. Smaller weights
(hidden 64 and below), batched 3-D @ 3-D products (attention) and 2-D @ 2-D
products use numpy's matmul broadcasting directly: there the batched
temporary is small, and flattening measured slower for some shapes and
turned single-threaded BLAS calls into multi-threaded ones.
"""

from __future__ import annotations

import itertools
import math
from contextlib import contextmanager

import numpy as np

_grad_enabled = True
_ids = itertools.count()
_mac_counters: list[list[int]] = []

# weights with fewer entries keep numpy's batched matmul (see module docstring)
FLAT_MIN_WEIGHT = 1 << 16


@contextmanager
def no_grad():
    """Disable graph recording inside the block (inference mode)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class NonFiniteError(ValueError):
    """A tensor value, given or computed, is NaN or infinite."""


class GraphConsumedError(RuntimeError):
    """`backward` reached a node whose closure an earlier backward already ran."""


def _consumed(g):
    # Marks a node whose closure has run; `backward` refuses to walk past it.
    raise GraphConsumedError("backward through a graph that was already consumed")


class MacCounter:
    """Accumulated multiply-accumulate count of every matmul executed."""

    def __init__(self):
        self.macs = 0

    @property
    def flops(self) -> int:
        # 1 MAC = 2 FLOPs
        return 2 * self.macs


@contextmanager
def count_macs():
    """Count matmul multiply-accumulates executed inside the block."""
    box: list[int] = [0]
    _mac_counters.append(box)
    counter = MacCounter()
    try:
        yield counter
    finally:
        _mac_counters.remove(box)
        counter.macs = box[0]


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_id")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor rejects non-finite values (NaN/Inf)")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None  # same-shape ndarray once populated
        self._parents = ()
        self._backward = None
        self._id = next(_ids)

    @property
    def shape(self):
        return self.data.shape

    def zero_grad(self):
        self.grad = None

    def accumulate_grad(self, g: np.ndarray):
        # The first contribution is stored as a C-ordered copy (one pass,
        # one allocation): closures hand the same `g` to several parents
        # and pass views of upstream gradients, so it is never aliased.
        if self.grad is None:
            self.grad = np.array(g, dtype=np.float64, order="C")
        else:
            self.grad += g

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _from_op(data: np.ndarray, parents, backward_fn) -> Tensor:
    """Wrap an op result; record the closure only if gradients can flow."""
    if not np.all(np.isfinite(data)):
        raise NonFiniteError("tensor rejects non-finite values (NaN/Inf)")
    out = Tensor.__new__(Tensor)
    out.data = data
    out.grad = None
    out._id = next(_ids)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    else:
        out.requires_grad = False
        out._parents = ()
        out._backward = None
    return out


def _reduce_to(g: np.ndarray, shape) -> np.ndarray:
    """Sum g over axes that were broadcast so it matches `shape`."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    keep = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if keep:
        g = g.sum(axis=keep, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise and linear-algebra ops


def add(a, b) -> Tensor:
    """Elementwise sum with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_reduce_to(g, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_reduce_to(g, b.data.shape))

    return _from_op(a.data + b.data, (a, b), bwd)


def mul(a, b) -> Tensor:
    """Elementwise product with numpy broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)

    def bwd(g):
        if a.requires_grad:
            a.accumulate_grad(_reduce_to(g * b.data, a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_reduce_to(g * a.data, b.data.shape))

    return _from_op(a.data * b.data, (a, b), bwd)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product; leading batch dims follow numpy matmul broadcasting.

    `(..., k) @ (k, n)` with a large weight runs as one 2-D GEMM over
    flattened rows, forward and backward (see the module docstring).
    """
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2 or a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul: inner dimensions disagree: {a.data.shape} x {b.data.shape}"
        )
    k = a.data.shape[-1]
    flat = a.data.ndim > 2 and b.data.ndim == 2 and b.data.size >= FLAT_MIN_WEIGHT
    if flat:
        # explicit row count: a (-1, 0) reshape is ambiguous for empty arrays
        rows, n = math.prod(a.data.shape[:-1]), b.data.shape[1]
        data = (a.data.reshape(rows, k) @ b.data).reshape(a.data.shape[:-1] + (n,))
    else:
        data = a.data @ b.data
    if _mac_counters:
        macs = int(data.size) * k
        for box in _mac_counters:
            box[0] += macs

    def bwd(g):
        if flat:
            g2 = g.reshape(rows, n)
            if a.requires_grad:
                a.accumulate_grad((g2 @ b.data.T).reshape(a.data.shape))
            if b.requires_grad:
                b.accumulate_grad(a.data.reshape(rows, k).T @ g2)
            return
        if a.requires_grad:
            a.accumulate_grad(_reduce_to(g @ b.data.swapaxes(-1, -2), a.data.shape))
        if b.requires_grad:
            b.accumulate_grad(_reduce_to(a.data.swapaxes(-1, -2) @ g, b.data.shape))

    return _from_op(data, (a, b), bwd)


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    mask = x.data > 0

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * mask)

    return _from_op(np.where(mask, x.data, 0.0), (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = np.tanh(x.data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * (1.0 - out * out))

    return _from_op(out, (x,), bwd)


def softmax_lastdim(x: Tensor) -> Tensor:
    """Row-stochastic softmax over the last axis, max-subtracted for stability."""
    x = _as_tensor(x)
    shifted = x.data - x.data.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=-1, keepdims=True)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(y * (g - (g * y).sum(axis=-1, keepdims=True)))

    return _from_op(y, (x,), bwd)


def layernorm(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-12) -> Tensor:
    """Standardize the last axis, then scale/shift by gamma/beta."""
    if eps <= 0:
        raise ValueError("layernorm: eps must be positive")
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    d = x.data.shape[-1]
    if gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ValueError(
            f"layernorm: feature size mismatch: x {x.data.shape}, "
            f"gamma {gamma.data.shape}, beta {beta.data.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    xc = x.data - mu
    var = (xc * xc).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv

    def bwd(g):
        if gamma.requires_grad:
            gamma.accumulate_grad(_reduce_to(g * xhat, gamma.data.shape))
        if beta.requires_grad:
            beta.accumulate_grad(_reduce_to(g, beta.data.shape))
        if x.requires_grad:
            dxhat = g * gamma.data
            x.accumulate_grad(
                inv
                * (
                    dxhat
                    - dxhat.mean(axis=-1, keepdims=True)
                    - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
                )
            )

    return _from_op(xhat * gamma.data + beta.data, (x, gamma, beta), bwd)


def cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log-softmax of the true class. Labels are class indices."""
    logits = _as_tensor(logits)
    y = np.asarray(labels, dtype=np.int64)
    b, c = logits.data.shape
    if y.shape != (b,):
        raise ValueError(f"cross_entropy: expected {b} labels, got shape {y.shape}")
    if np.any(y < 0) or np.any(y >= c):
        raise IndexError(f"cross_entropy: label out of range for {c} classes")
    m = logits.data.max(axis=-1, keepdims=True)
    e = np.exp(logits.data - m)
    lse = m[:, 0] + np.log(e.sum(axis=-1))
    loss = (lse - logits.data[np.arange(b), y]).mean()

    def bwd(g):
        if logits.requires_grad:
            p = e / e.sum(axis=-1, keepdims=True)
            p[np.arange(b), y] -= 1.0
            logits.accumulate_grad(p * (g / b))

    return _from_op(np.asarray(loss), (logits,), bwd)


# ---------------------------------------------------------------------------
# structural ops


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...]]."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if np.any(ids < 0) or np.any(ids >= table.data.shape[0]):
        raise IndexError(
            f"embedding: id out of range for table of {table.data.shape[0]} rows"
        )
    data = table.data[ids]

    def bwd(g):
        if table.requires_grad:
            if table.grad is None:
                table.grad = np.zeros(table.data.shape)
            # np.add.at applies updates sequentially: deterministic scatter-add
            np.add.at(table.grad, ids.reshape(-1), g.reshape(-1, table.data.shape[-1]))

    return _from_op(data, (table,), bwd)


def pick(x: Tensor, index: tuple) -> Tensor:
    """Extract one scalar entry as a 0-d tensor (keeps gradient flow)."""
    x = _as_tensor(x)
    data = np.asarray(x.data[index])

    def bwd(g):
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            buf[index] = g
            x.accumulate_grad(buf)

    return _from_op(data, (x,), bwd)


def concat_lastdim(tensors) -> Tensor:
    """Concatenate along the last axis."""
    ts = [_as_tensor(t) for t in tensors]
    sizes = [t.data.shape[-1] for t in ts]

    def bwd(g):
        start = 0
        for t, n in zip(ts, sizes):
            if t.requires_grad:
                t.accumulate_grad(g[..., start : start + n])
            start += n

    return _from_op(np.concatenate([t.data for t in ts], axis=-1), tuple(ts), bwd)


def narrow_lastdim(x: Tensor, start: int, stop: int) -> Tensor:
    """Slice [start:stop) of the last axis."""
    x = _as_tensor(x)

    def bwd(g):
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            buf[..., start:stop] = g
            x.accumulate_grad(buf)

    return _from_op(x.data[..., start:stop].copy(), (x,), bwd)


def transpose_last2(x: Tensor) -> Tensor:
    x = _as_tensor(x)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g.swapaxes(-1, -2))

    return _from_op(x.data.swapaxes(-1, -2).copy(), (x,), bwd)


def reshape(x: Tensor, shape) -> Tensor:
    x = _as_tensor(x)
    old = x.data.shape

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g.reshape(old))

    return _from_op(x.data.reshape(shape).copy(), (x,), bwd)


def first_token(x: Tensor) -> Tensor:
    """Select position 0 of a (batch, seq, dim) tensor -> (batch, dim)."""
    x = _as_tensor(x)

    def bwd(g):
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            buf[:, 0, :] = g
            x.accumulate_grad(buf)

    return _from_op(x.data[:, 0, :].copy(), (x,), bwd)


def tensor_sum(x: Tensor) -> Tensor:
    """Sum all entries to a 0-d tensor (sequential row-major reduction)."""
    x = _as_tensor(x)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(np.broadcast_to(g, x.data.shape).copy())

    return _from_op(np.asarray(x.data.sum()), (x,), bwd)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad tensor reachable from `loss`.

    Gradients accumulate additively across calls until zeroed. Recorded
    nodes run in exact reverse creation order, so accumulation order is
    fixed and repeat runs are bit-identical.

    The graph is consumed as it runs: each node's closure and parent links
    are dropped before its closure is called, so its activations, gradient
    and captured arrays are freed as soon as nothing else holds the tensor.
    Tensors the caller holds keep `.data` and `.grad`. Calling `backward`
    again through any consumed node raises `GraphConsumedError`.
    """
    if loss.data.shape != ():
        raise ValueError(
            f"backward requires a scalar loss, got shape {loss.data.shape}"
        )
    if loss._backward is None and not loss.requires_grad:
        return

    recorded = []
    seen = set()
    stack = [loss]
    while stack:
        node = stack.pop()
        if id(node) in seen:
            continue
        seen.add(id(node))
        if node._backward is _consumed:
            raise GraphConsumedError(
                "backward through a graph that was already consumed; "
                "run a new forward pass"
            )
        if node._backward is not None:
            recorded.append(node)
            stack.extend(node._parents)

    loss.accumulate_grad(np.ones_like(loss.data))
    recorded.sort(key=lambda n: n._id)
    while recorded:
        node = recorded.pop()
        fn = node._backward
        node._backward, node._parents = _consumed, ()
        fn(node.grad)
        # drop the last engine references so refcounting frees the node now
        del node, fn
