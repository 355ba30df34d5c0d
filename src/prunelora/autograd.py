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
new graph, and its gradients add to the leaves' `.grad` as before. The
first `backward` fixes glibc's malloc thresholds, so the next step reuses
the freed memory instead of faulting fresh pages in.

Closures accumulate into parents directly and skip parents that do not
require gradients, so frozen weights cost nothing on the backward pass.
A gradient the closure has just allocated for one parent is handed over
as it is (`fresh=True`); any other first contribution (the upstream
gradient, a view of it, an array shared by two parents) is stored as a
copy. Later contributions are added in place, so no `.grad` ever aliases
another array. `embedding` scatters straight into its table's `.grad`,
starting it at fresh zeros, and records the rows it scattered into next to
it (`Tensor.grad_rows`), so the optimizer can skip the moment update on
the parts of the table no lookup reached. The zeros of a large table are mapped lazily, so only the pages of
rows looked up are ever faulted in.

Small parameters live in arenas (`Arena`, `place`): their `.data` are
views of one flat buffer, and their gradients land in a matching buffer.
`linear` writes dW, db, dA and dB and `layernorm` dgamma and dbeta
straight into a parameter's slot there (`out=`), `embedding` scatters
into it, and any other first contribution is copied in, so an optimizer
updates a whole arena as one array and no step copies a parameter.

A transformer block is built from two fused ops, one graph node each:

- `linear(x, W, b, adapter)` is a projection `x @ W + b`, plus the LoRA
  side path `scaling * (x @ A) @ B` when an adapter is attached.
- `attention(q, k, v, bias, d_h, xi, heads)` is the scaled dot-product
  attention of every kept head of a block, each head optionally scaled by
  its head-mask scalar. The heads run as one batch: q, k and v are viewed
  as `(b, H, rows, d_h)`, and every product is one `(b, H, ., .)`
  matmul. Its queries need not be as many as its keys: `q`
  may be `(b, s_q, w)` or, one query per row, `(b, w)`, against `(b, s, w)`
  keys and values. The model's last block passes only the CLS row, and
  `accounting.estimate_flops` counts that block's terms for one query
  (spreading a bare keep count evenly over the blocks, the extras first).

Their backward passes are written out by hand (see each op). Both accept
width 0, so a block that lost every head needs no op of its own. The
other ops are the ones the model runs between them: `relu`, `tanh`,
`layernorm` (over a sum of terms: each residual sum is part of the
LayerNorm node that reads it), `embedding`, `first_token` (the CLS-row
select at the last block's input) and `cross_entropy`. `layernorm` runs
on one buffer: its row mean and variance are a GEMV and an `einsum`, it
centres and scales the summed terms in place into `xhat`, and its backward
reuses that buffer and hands its `dx` over as it is to one term.
`count_macs` counts the products of `linear` and `attention`.
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
from contextlib import contextmanager

import numpy as np

_grad_enabled = True
_ids = itertools.count()
_mac_counters: list[MacCounter] = []

# `linear` weights with fewer entries keep numpy's batched matmul forward
# (see `linear`)
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
    """Accumulated multiply-accumulate count of every matrix product executed."""

    def __init__(self):
        self.macs = 0

    @property
    def flops(self) -> int:
        # 1 MAC = 2 FLOPs
        return 2 * self.macs


@contextmanager
def count_macs():
    """Count the multiply-accumulates of every matrix product inside the block
    (`linear` and `attention`)."""
    counter = MacCounter()
    _mac_counters.append(counter)
    try:
        yield counter
    finally:
        _mac_counters.remove(counter)


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward", "_id",
                 "_grad_rows", "arena", "_arena_index")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.all(np.isfinite(arr)):
            raise NonFiniteError("tensor rejects non-finite values (NaN/Inf)")
        self.data = arr
        self.requires_grad = requires_grad
        self.grad = None  # same-shape ndarray once populated
        self._grad_rows = None  # (.grad, its row mask); see grad_rows
        self.arena = None  # the Arena whose buffer holds .data, if any
        self._parents = ()
        self._backward = None
        self._id = next(_ids)

    @property
    def shape(self):
        return self.data.shape

    @property
    def grad_rows(self):
        """Boolean mask of the only rows of `.grad` that can be non-zero, or
        None.

        Set when every contribution to `.grad` came from `embedding`
        lookups of this tensor (the union of their ids). None when there is
        no `.grad`, when it took any other contribution, and when `.grad` is
        not the array the lookups wrote (a caller assigned it): a row set
        describes only the array it was recorded with.
        """
        rec = self._grad_rows
        return rec[1] if rec is not None and rec[0] is self.grad else None

    def zero_grad(self):
        self.grad = None
        self._grad_rows = None

    def _slot(self):
        """This tensor's range of its arena's gradient buffer, or None
        outside an arena."""
        return None if self.arena is None else self.arena.slots()[self._arena_index]

    def _grad_out(self):
        """Where a closure writes its contribution to this tensor's gradient
        (`out=`) before handing it over with `fresh=True`: the tensor's slot
        in its arena's gradient buffer while it has no gradient, else None
        (numpy allocates)."""
        return self._slot() if self.grad is None else None

    def accumulate_grad(self, g: np.ndarray, fresh: bool = False):
        # `fresh`: the closure allocated `g` for this tensor alone, so the
        # first contribution is kept as it is. Otherwise it is stored as a
        # C-ordered copy: closures hand the same `g` to several parents and
        # pass views of upstream gradients, so it is never aliased. An arena
        # tensor's first contribution always ends up in its slot, so its
        # `.grad` is that slot until zeroed.
        self._grad_rows = None  # a dense contribution
        if self.grad is not None:
            self.grad += g
        elif (slot := self._slot()) is not None:
            if g is not slot:
                np.copyto(slot, g)
            self.grad = slot
        else:
            self.grad = (np.asarray(g) if fresh
                         else np.array(g, dtype=np.float64, order="C"))

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"


# A tensor of fewer elements lives in an arena (`place`); a larger one owns
# its array. The limit is one row block of `training.AdamW`: a tensor at
# least that large is updated in blocks of its own anyway.
ARENA_LIMIT = 1 << 15


# elements per cache line (64 bytes): where each arena tensor starts
_LINE = 8


class Arena:
    """Tensors laid out in order in one float64 buffer, with a gradient
    buffer of the same layout.

    Tensor i starts at element `bounds[i]`, a multiple of one 64-byte cache
    line from a buffer that starts on one, and zeros pad it to
    `bounds[i + 1]`: packed back to back at 8-byte offsets, the weights
    ran a toy-geometry eval 1.15x slower (one core of a 2-vCPU x86-64
    host, numpy 2.4 with OpenBLAS). Each tensor's `.data` is
    a C-contiguous view of `data` (`views[i]`), and its gradient lands in
    the same range of `grad` (`slots[i]`):
    closures write a first contribution there with `out=`, and
    `accumulate_grad` copies any other first contribution in, so `.grad`
    of an arena tensor is its slot until zeroed. The slots are disjoint, so
    no gradient aliases another. An optimizer can then update every tensor
    of an arena as one array (`training.AdamW`). The gradient buffer is
    allocated with the first gradient or optimizer (`slots`), so weights
    that are only read hold none. An arena tensor's `.data` is updated in
    place, never rebound. A tensor refers to its arena, and an arena to
    arrays only, so refcounting frees both.
    """

    __slots__ = ("data", "bounds", "views", "grad", "_slots")

    def __init__(self, shapes):
        sizes = [math.prod(shape) for shape in shapes]
        self.bounds = list(itertools.accumulate(
            (-(-n // _LINE) * _LINE for n in sizes), initial=0))
        # uninitialised but for the padding: `place`'s caller writes the data
        self.data = self._buffer(sizes)
        self.views = [self.data[a:a + n].reshape(shape)
                      for a, n, shape in zip(self.bounds, sizes, shapes)]
        self.grad = self._slots = None

    def _buffer(self, sizes) -> np.ndarray:
        """A buffer of the arena's layout that starts on a cache line:
        uninitialised but for the padding, which is zero."""
        raw = np.empty(self.bounds[-1] + _LINE - 1)
        start = -(raw.ctypes.data // 8) % _LINE
        buf = raw[start:start + self.bounds[-1]]
        for a, b, n in zip(self.bounds, self.bounds[1:], sizes):
            buf[a + n:b] = 0.0
        return buf

    def slots(self) -> list:
        """Each tensor's range of `grad`, in the tensor's shape. The first
        call allocates `grad`: a slot is read only once a gradient was
        written into it, and the padding stays zero, so an update of the
        whole buffer leaves the padding of `data` zero too."""
        if self._slots is None:
            self.grad = self._buffer([view.size for view in self.views])
            self._slots = [self.grad[a:a + view.size].reshape(view.shape)
                           for a, view in zip(self.bounds, self.views)]
        return self._slots


def place(shapes: dict, group=lambda name: None) -> dict:
    """Tensors of `shapes` (name -> shape), under the same names, over
    uninitialised memory: the caller writes every element before use.

    Tensors of fewer than `ARENA_LIMIT` elements share one `Arena` per
    `group(name)`, in the order of `shapes`; each larger one owns its array.
    Nothing is filled twice: loading, copying or drawing a model writes
    each element once.
    """
    groups = {}
    for name, shape in shapes.items():
        if math.prod(shape) < ARENA_LIMIT:
            groups.setdefault(group(name), []).append(name)
    placed = {}
    for names in groups.values():
        arena = Arena([shapes[n] for n in names])
        for i, (name, view) in enumerate(zip(names, arena.views)):
            t = placed[name] = _bare(view)
            t.arena, t._arena_index = arena, i
    return {name: placed[name] if name in placed else _bare(np.empty(shape))
            for name, shape in shapes.items()}


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _from_op(data: np.ndarray, parents, backward_fn) -> Tensor:
    """Wrap an op result; record the closure only if gradients can flow."""
    if not np.all(np.isfinite(data)):
        raise NonFiniteError("tensor rejects non-finite values (NaN/Inf)")
    out = _bare(data)
    if _grad_enabled and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward_fn
    return out


def _bare(data: np.ndarray) -> Tensor:
    """A leaf over `data` as it is: no conversion and no finiteness scan."""
    t = Tensor.__new__(Tensor)
    t.data = data
    t.requires_grad = False
    t.grad = t._grad_rows = t.arena = t._backward = None
    t._parents = ()
    t._id = next(_ids)
    return t


def _count_macs(macs: int) -> None:
    for counter in _mac_counters:
        counter.macs += macs


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
# elementwise ops, LayerNorm and the loss


def relu(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    mask = x.data > 0

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * mask, fresh=True)

    # branch-free, unlike np.where(mask, x, 0.0) on a random sign pattern
    # (13x slower at toy-geometry FFN width); -0.0 maps to 0.0 as well
    return _from_op(np.maximum(x.data, 0.0), (x,), bwd)


def tanh(x: Tensor) -> Tensor:
    x = _as_tensor(x)
    out = np.tanh(x.data)

    def bwd(g):
        if x.requires_grad:
            x.accumulate_grad(g * (1.0 - out * out), fresh=True)

    return _from_op(out, (x,), bwd)


def layernorm(terms, gamma: Tensor, beta: Tensor, eps: float = 1e-12) -> Tensor:
    """Standardize the last axis of the sum of `terms` (a tuple of tensors,
    added left to right with numpy broadcasting), then scale/shift by
    gamma/beta.

    One buffer carries the whole chain: the terms are summed into a fresh
    array of their broadcast shape, centred on the row mean (a GEMV against
    a `1/d` vector) and scaled by `1/sqrt(var + eps)` (the variance an
    `einsum` row dot product), all in place. The buffer is then `xhat`,
    which the closure keeps; the output `xhat * gamma + beta` is the one
    other array. No term's `.data` is written.

    Backward reduces `dgamma` and `dbeta` the same way, builds `dx = g *
    gamma` as its only new full-size array and finishes the standardization
    gradient in place, overwriting `xhat` (the node is consumed before its
    closure runs). The last trainable term of the full shape takes `dx` as
    it is; any other trainable term gets a copy, or `dx` summed over the
    axes it was broadcast along.
    """
    if eps <= 0:
        raise ValueError("layernorm: eps must be positive")
    terms = tuple(_as_tensor(t) for t in terms)
    gamma, beta = _as_tensor(gamma), _as_tensor(beta)
    shape = np.broadcast_shapes(*(t.data.shape for t in terms))
    d = shape[-1]
    if d < 1 or gamma.data.shape != (d,) or beta.data.shape != (d,):
        raise ValueError(
            f"layernorm: feature size mismatch: x {shape}, "
            f"gamma {gamma.data.shape}, beta {beta.data.shape}"
        )
    x = np.empty(shape)
    if len(terms) == 1:
        x[...] = terms[0].data
    else:
        np.add(terms[0].data, terms[1].data, out=x)
    for t in terms[2:]:
        x += t.data
    # explicit row count: a (-1, d) reshape is ambiguous for empty arrays
    rows = math.prod(shape[:-1])
    x2 = x.reshape(rows, d)  # a view: x is a fresh C-ordered array
    mean = np.full(d, 1.0 / d)
    x2 -= (x2 @ mean)[:, None]
    inv = 1.0 / np.sqrt(np.einsum("ri,ri->r", x2, x2) / d + eps)
    x2 *= inv[:, None]  # x is now xhat
    out = x * gamma.data
    out += beta.data

    def bwd(g):
        g2 = g.reshape(rows, d)
        if gamma.requires_grad:
            gamma.accumulate_grad(np.einsum("ri,ri->i", g2, x2,
                                            out=gamma._grad_out()), fresh=True)
        if beta.requires_grad:
            beta.accumulate_grad(np.matmul(np.ones(rows), g2,
                                           out=beta._grad_out()), fresh=True)
        if not any(t.requires_grad for t in terms):
            return
        dx = g2 * gamma.data
        a = dx @ mean
        c = np.einsum("ri,ri->r", dx, x2) / d
        np.multiply(x2, c[:, None], out=x2)  # xhat is not needed after this
        dx -= x2
        dx -= a[:, None]
        dx *= inv[:, None]
        dx = dx.reshape(shape)
        last = max((i for i, t in enumerate(terms)
                    if t.requires_grad and t.data.shape == shape), default=None)
        for i, t in enumerate(terms):
            if not t.requires_grad:
                continue
            if t.data.shape == shape:
                t.accumulate_grad(dx, fresh=i == last)
            else:
                t.accumulate_grad(_reduce_to(dx, t.data.shape), fresh=True)

    return _from_op(out, (*terms, gamma, beta), bwd)


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
            logits.accumulate_grad(p * (g / b), fresh=True)

    return _from_op(np.asarray(loss), (logits,), bwd)


# ---------------------------------------------------------------------------
# fused block ops


def _project(a: np.ndarray, w: np.ndarray) -> np.ndarray:
    """`a @ w` for a `(..., k)` input and a `(k, n)` weight.

    A weight with at least `FLAT_MIN_WEIGHT` entries multiplies the rows
    flattened to `(-1, k)` in one 2-D GEMM; smaller ones (hidden 64 and
    below) use numpy's batched matmul, where flattening measured slower for
    some shapes.
    """
    if a.ndim > 2 and w.size >= FLAT_MIN_WEIGHT:
        # explicit row count: a (-1, 0) reshape is ambiguous for empty arrays
        rows = math.prod(a.shape[:-1])
        return (a.reshape(rows, a.shape[-1]) @ w).reshape(a.shape[:-1] + w.shape[1:])
    return a @ w


def linear(x, W, b, adapter=None) -> Tensor:
    """Projection `x @ W + b` of a `(..., k)` input, as one graph node.

    `adapter` is an optional `(A, B, scaling)` low-rank pair, `A` of shape
    `(k, r)` and `B` of shape `(r, n)`: it adds `scaling * (x @ A) @ B`
    in place before the bias. The forward products follow `_project`.

    The adapter's `scaling` is applied once, to the small `(rows, r)`
    product `x @ A`, and in backward to its gradient.

    Backward runs every gradient product as a 2-D GEMM over the rows
    flattened to `(-1, k)`: dx, dW (skipped for a frozen W), and the
    adapter's dA and dB.
    """
    x, W, b = _as_tensor(x), _as_tensor(W), _as_tensor(b)
    shape = x.data.shape
    if x.data.ndim < 2 or W.data.ndim != 2 or shape[-1] != W.data.shape[0]:
        raise ValueError(
            f"linear: inner dimensions disagree: {shape} x {W.data.shape}"
        )
    k, n = W.data.shape
    if b.data.shape != (n,):
        raise ValueError(f"linear: bias shape {b.data.shape} != ({n},)")
    rows = math.prod(shape[:-1])
    parents = (x, W, b)
    out = _project(x.data, W.data)
    macs = rows * n * k
    if adapter is not None:
        A, B, scaling = adapter
        A, B = _as_tensor(A), _as_tensor(B)
        r = A.data.shape[-1]
        if A.data.shape != (k, r) or B.data.shape != (r, n):
            raise ValueError(
                f"linear: adapter shapes {A.data.shape}, {B.data.shape} do "
                f"not fit a ({k}, {n}) weight"
            )
        parents += (A, B)
        t = _project(x.data, A.data)
        t *= scaling
        out += _project(t, B.data)
        macs += rows * r * (k + n)
    out += b.data
    if _mac_counters:
        _count_macs(macs)

    def bwd(g):
        g2 = g.reshape(rows, n)
        x2 = x.data.reshape(rows, k)
        if b.requires_grad:
            b.accumulate_grad(np.sum(g2, axis=0, out=b._grad_out()), fresh=True)
        if W.requires_grad:
            W.accumulate_grad(np.matmul(x2.T, g2, out=W._grad_out()), fresh=True)
        dx = g2 @ W.data.T if x.requires_grad else None
        if adapter is not None:
            t2 = t.reshape(rows, r)
            if B.requires_grad:
                B.accumulate_grad(np.matmul(t2.T, g2, out=B._grad_out()),
                                  fresh=True)
            if A.requires_grad or dx is not None:
                dt = g2 @ B.data.T
                dt *= scaling
                if A.requires_grad:
                    A.accumulate_grad(np.matmul(x2.T, dt, out=A._grad_out()),
                                      fresh=True)
                if dx is not None:
                    dx += dt @ A.data.T
        if dx is not None:
            x.accumulate_grad(dx.reshape(shape), fresh=True)

    return _from_op(out, parents, bwd)


def attention(q, k, v, bias, d_h: int, xi=None, heads=None) -> Tensor:
    """Scaled dot-product attention of every kept head of a block, one node.

    `k` and `v` are `(b, s, H * d_h)`, head j in columns
    `[j * d_h, (j + 1) * d_h)`. `q` holds the queries, which need not be
    as many as the keys: `(b, s_q, H * d_h)`, or `(b, H * d_h)` for one
    query per row (the model's last block asks only for its CLS row).
    `bias` is added to every head's scores (shape broadcastable to
    `(b, s_q, s)`, e.g. a padding bias on keys). Returns the head outputs
    side by side, in q's shape.

    `heads` is `(layer, original index of each kept head)`; with a head
    mask `xi` of shape `(layers, original heads)`, head j's output is
    scaled by `xi[layer, heads[1][j]]`.

    All heads run together: q, k and v are viewed as `(b, H, rows, d_h)`,
    so the scores of every head are one `(b, H, s_q, s)` product, softmaxed
    in place, and the outputs one product with the values; it costs
    `2 * s * q.size` MACs. Backward is written out on the same buffers:
    the mask gradient `d xi[layer, j] = sum(g_j * head_j)` over the
    unmasked head output (kept only when xi needs a gradient), then the
    softmax backward `p * (g - sum(g * p))`, with each head's mask scalar
    applied to its score gradient and its dv; `dq` comes back in q's
    shape, `dk` and `dv` in k's.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    shape, q_shape = k.data.shape, q.data.shape
    if (len(shape) != 3 or v.data.shape != shape or len(q_shape) not in (2, 3)
            or q_shape[0] != shape[0] or q_shape[-1] != shape[-1]):
        raise ValueError(
            f"attention: k and v must share one (b, s, dim) shape, and q "
            f"its b and dim, got {q_shape}, {shape}, {v.data.shape}"
        )
    if d_h < 1 or shape[-1] % d_h:
        raise ValueError(f"attention: width {shape[-1]} is not a multiple of d_h {d_h}")
    n_heads = shape[-1] // d_h
    layer, kept = heads if heads is not None else (None, range(n_heads))
    if len(kept) != n_heads:
        raise ValueError(
            f"attention: {len(kept)} kept heads listed for {n_heads} in q"
        )
    parents = (q, k, v)
    if xi is not None:
        if heads is None:
            raise ValueError("attention: a head mask needs `heads`")
        xi = _as_tensor(xi)
        parents += (xi,)
    # the mask gradient needs the head outputs before the mask scaled them
    mask_grad = xi is not None and xi.requires_grad and _grad_enabled
    scale = 1.0 / math.sqrt(d_h)
    b, s = shape[:2]

    def split(a):
        # (b, rows, width) or, one row, (b, width) -> (b, H, rows, d_h) view
        rows = a.shape[1] if a.ndim == 3 else 1
        return a.reshape(b, rows, n_heads, d_h).transpose(0, 2, 1, 3)

    def product(x, y, like):
        # x @ y over (b, H), written into a new array shaped like `like`,
        # head j in its columns
        out = np.empty(like.shape)
        np.matmul(x, y, out=split(out))
        return out

    qh, kh, vh = split(q.data), split(k.data), split(v.data)
    bias = np.asarray(bias)
    if bias.ndim == 3:
        bias = bias[:, None]  # (b, s_q, s): one bias for every head
    p = qh @ kh.swapaxes(-1, -2)
    p *= scale
    p += bias
    # softmax over keys, max-subtracted
    p -= p.max(axis=-1, keepdims=True)
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    out = product(p, vh, q.data)
    if xi is not None:
        # xi[layer, kept], one scalar per head
        mask_row = xi.data[layer, kept][:, None, None]
        unmasked = out.copy() if mask_grad else None
        head = split(out)
        head *= mask_row
    if _mac_counters:
        # (b, H, s_q, d_h) @ (b, H, d_h, s), then (b, H, s_q, s) @ (b, H, s, d_h)
        _count_macs(2 * s * q.data.size)

    def bwd(g):
        gh = split(g)
        dq = dk = dv = dxi = None
        if mask_grad:
            dxi = np.zeros(xi.data.shape)
            dxi[layer, kept] = np.einsum("bhqd,bhqd->h", gh, split(unmasked))
        if q.requires_grad or k.requires_grad:
            # softmax backward, then the 1/sqrt(d_h) score scale and the
            # mask scalar (the softmax backward is linear in g)
            gp = gh @ vh.swapaxes(-1, -2)
            gp -= (gp * p).sum(axis=-1, keepdims=True)
            gp *= p
            gp *= scale if xi is None else scale * mask_row
            if q.requires_grad:
                dq = product(gp, kh, q.data)
            if k.requires_grad:
                dk = product(gp.swapaxes(-1, -2), qh, k.data)
            del gp  # its memory can take dv
        if v.requires_grad:
            dv = product(p.swapaxes(-1, -2), gh, k.data)
            if xi is not None:
                dvh = split(dv)
                dvh *= mask_row
        for t, grad in ((q, dq), (k, dk), (v, dv), (xi, dxi)):
            if grad is not None:
                t.accumulate_grad(grad, fresh=True)

    return _from_op(out, parents, bwd)


# ---------------------------------------------------------------------------
# structural ops


def embedding(table: Tensor, ids: np.ndarray) -> Tensor:
    """Row lookup: out[..., :] = table[ids[...]].

    Backward scatter-adds into the table's `.grad` (fresh zeros if it has
    none) and records the looked-up rows as its `grad_rows`: the union with
    the rows already recorded when the table was looked up before, none if
    `.grad` already held another contribution.
    """
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
                slot = table._slot()
                if slot is None:
                    table.grad = np.zeros(table.data.shape)
                else:
                    slot.fill(0.0)
                    table.grad = slot
                rows = np.zeros(table.data.shape[0], dtype=bool)
            else:
                rows = table.grad_rows  # None: .grad holds another contribution
            # np.add.at applies updates sequentially: deterministic scatter-add
            np.add.at(table.grad, ids.reshape(-1), g.reshape(-1, table.data.shape[-1]))
            if rows is not None:
                rows[ids] = True
                table._grad_rows = (table.grad, rows)

    return _from_op(data, (table,), bwd)


def first_token(x: Tensor) -> Tensor:
    """Select position 0 of a (batch, seq, dim) tensor -> (batch, dim).

    The model's last block runs on this CLS row; its backward writes
    zeros to every other position.
    """
    x = _as_tensor(x)

    def bwd(g):
        if x.requires_grad:
            buf = np.zeros_like(x.data)
            buf[:, 0, :] = g
            x.accumulate_grad(buf, fresh=True)

    return _from_op(x.data[:, 0, :].copy(), (x,), bwd)


# ---------------------------------------------------------------------------
# backward pass


@functools.cache
def _keep_freed_heap() -> bool:
    """Fix glibc's mmap and trim thresholds (32 and 64 MiB) for the process.

    `backward` frees the graph as it runs, so each training step ends with
    the top of the heap free. Under glibc's adaptive thresholds that top
    goes back to the OS after every step and the next forward faults it in
    again: about 20 k minor faults per toy-geometry epoch, 10-20 % of its
    time. With fixed thresholds the next step reuses it. Runs once, for the
    whole process; False where the C library is not glibc.
    """
    try:
        mallopt = ctypes.CDLL("libc.so.6").mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3
    return bool(mallopt(m_mmap_threshold, 32 << 20)
                and mallopt(m_trim_threshold, 64 << 20))


def backward(loss: Tensor) -> None:
    """Populate .grad on every requires_grad tensor reachable from `loss`.

    Gradients accumulate additively across calls until zeroed. Recorded
    nodes run in exact reverse creation order, so accumulation order is
    fixed and repeat runs are bit-identical.

    The graph is consumed as it runs: each node's closure and parent links
    are dropped before its closure is called, so its activations, gradient
    and captured arrays are freed as soon as nothing else holds the tensor.
    Tensors the caller holds keep `.data` and `.grad`. Calling `backward`
    again through any consumed node raises `GraphConsumedError`. The first
    call fixes the process's heap thresholds (`_keep_freed_heap`).
    """
    _keep_freed_heap()
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

    loss.accumulate_grad(np.ones_like(loss.data), fresh=True)
    recorded.sort(key=lambda n: n._id)
    while recorded:
        node = recorded.pop()
        fn = node._backward
        node._backward, node._parents = _consumed, ()
        fn(node.grad)
        # drop the last engine references so refcounting frees the node now
        del node, fn
