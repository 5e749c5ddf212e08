"""Dense tensors with reverse-mode automatic differentiation.

Ops recorded while a :class:`Tape` is active can be replayed backwards to
produce gradients. Reductions are plain sequential numpy reductions, so
two identical backward passes give bitwise-identical gradients. fp32 is
the training dtype; fp64 is used for finite-difference gradient checks.

Attention masking works with a finite -1e9 additive penalty: after the
max-subtracted softmax the masked probabilities underflow to exactly 0.0,
so masked positions contribute nothing, without NaN/Inf in any tensor.

Multi-head attention, linear layers (a weight product over the stacked
rows, plus an optional bias) and the feed-forward sublayer (linear, ReLU,
linear) are each one op with a hand-written backward, so a transformer
block records a few tape entries instead of one per elementary step.
Attention lays its scores out keys first, [Tk, B, H, Tq]: the softmax
then reduces over axis 0, in key order, rather than over many short rows,
and every batched product reads operands BLAS takes as they are.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "Gradients",
    "as_tensor",
    "add",
    "sub",
    "mul",
    "scale",
    "matmul",
    "linear",
    "feed_forward",
    "attention",
    "relu",
    "softmax",
    "layer_norm",
    "embedding",
    "reshape",
    "transpose",
    "sum_all",
    "mean_all",
    "cross_entropy",
    "dropout",
    "backward",
]

_ACTIVE: list["Tape"] = []


class Tensor:
    """A numpy buffer plus autodiff bookkeeping. Data is written once by
    the op that creates it and treated as immutable afterwards."""

    __slots__ = ("data", "requires_grad", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        arr = np.asarray(data)
        if arr.dtype not in (np.float32, np.float64):
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.name = name

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Tape:
    """Records ops in execution order; backward replays them in exact
    reverse order and consumes the tape. One forward/backward pass per tape."""

    def __init__(self):
        self.ops: list[tuple[Tensor, object]] = []
        self.consumed = False

    def __enter__(self) -> "Tape":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.pop()
        return False


def _apply(data: np.ndarray, inputs: tuple[Tensor, ...], bw) -> Tensor:
    track = bool(_ACTIVE) and any(t.requires_grad for t in inputs)
    out = Tensor(data, requires_grad=track)
    if track:
        _ACTIVE[-1].ops.append((out, bw))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class Gradients:
    """Gradients keyed by tensor identity, accumulated by a backward pass."""

    def __init__(self):
        self.by_id: dict[int, np.ndarray] = {}

    def add(self, t: Tensor, g: np.ndarray) -> None:
        if not t.requires_grad:
            return
        tid = id(t)
        if tid in self.by_id:
            self.by_id[tid] = self.by_id[tid] + g
        else:
            self.by_id[tid] = g

    def pop(self, t: Tensor) -> np.ndarray | None:
        return self.by_id.pop(id(t), None)


def backward(tape: Tape, loss: Tensor,
             into: dict[Tensor, np.ndarray] | None = None) -> Gradients:
    """Walk the tape in reverse from a scalar loss, accumulating gradients
    for every requires_grad tensor (fan-out contributions sum).

    The walk consumes the tape: each op is popped, run, and dropped along
    with the gradient of its output, so the activations it held are freed
    as the walk goes. Only the gradients of leaf tensors (those no op on
    this tape produced, such as parameters) are returned. A leaf that is a
    key of `into` has its gradient added in place to that array instead,
    once the walk is done.
    """
    if loss.data.shape != ():
        raise ValueError(f"loss must be a scalar, got shape {loss.data.shape}")
    if tape.consumed:
        raise ValueError("tape was already consumed by an earlier backward pass")
    if not any(out is loss for out, _ in reversed(tape.ops)):
        raise ValueError("loss was not produced under this tape")
    tape.consumed = True
    grads = Gradients()
    grads.add(loss, np.ones((), dtype=loss.data.dtype))
    ops = tape.ops
    while ops:
        out, bw = ops.pop()
        g = grads.pop(out)
        if g is not None:
            bw(g, grads)
    for leaf, acc in (into or {}).items():
        g = grads.pop(leaf)
        if g is not None:
            acc += g
    return grads


# ---------------------------------------------------------------------------
# Ops


def add(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g, acc):
        # constant operands (positions, attention biases) need no reduction
        if a.requires_grad:
            acc.add(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            acc.add(b, _unbroadcast(g, b.data.shape))

    return _apply(a.data + b.data, (a, b), bw)


def sub(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g, acc):
        acc.add(a, _unbroadcast(g, a.data.shape))
        acc.add(b, _unbroadcast(-g, b.data.shape))

    return _apply(a.data - b.data, (a, b), bw)


def mul(a, b) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)

    def bw(g, acc):
        acc.add(a, _unbroadcast(g * b.data, a.data.shape))
        acc.add(b, _unbroadcast(g * a.data, b.data.shape))

    return _apply(a.data * b.data, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    a = as_tensor(a)

    def bw(g, acc):
        acc.add(a, g * c)

    return _apply(a.data * c, (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    a, b = as_tensor(a), as_tensor(b)
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError(
            f"matmul operands must be at least 2-D, got {a.data.shape} x {b.data.shape}"
        )
    if a.data.shape[-1] != b.data.shape[-2]:
        raise ValueError(
            f"matmul inner dimensions differ: {a.data.shape} x {b.data.shape}"
        )
    try:
        data = np.matmul(a.data, b.data)
    except ValueError:
        raise ValueError(
            f"matmul batch dimensions not broadcastable: {a.data.shape} x {b.data.shape}"
        ) from None

    def bw(g, acc):
        acc.add(a, _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.data.shape))
        acc.add(b, _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.data.shape))

    return _apply(data, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) for x [..., k], w [k, n] and an optional bias b [n], as
    one product over the stacked rows of x; the backward forms every
    gradient from those rows too."""
    x, w = as_tensor(x), as_tensor(w)
    b = None if b is None else as_tensor(b)
    if (w.data.ndim != 2 or x.data.shape[-1:] != w.data.shape[:1]
            or (b is not None and b.data.shape != w.data.shape[1:])):
        raise ValueError(
            f"linear needs x [..., k], w [k, n] and b [n], got {x.data.shape} / "
            f"{w.data.shape} / {None if b is None else b.data.shape}"
        )
    k, n = w.data.shape
    rows = x.data.reshape(-1, k)
    data = rows @ w.data
    if b is not None:
        data += b.data

    def bw(g, acc):
        g = g.reshape(-1, n)
        if x.requires_grad:
            acc.add(x, (g @ w.data.T).reshape(x.data.shape))
        acc.add(w, rows.T @ g)
        if b is not None:
            acc.add(b, g.sum(axis=0))

    inputs = (x, w) if b is None else (x, w, b)
    return _apply(data.reshape(*x.data.shape[:-1], n), inputs, bw)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 for x [..., k], w1 [k, h], b1 [h],
    w2 [h, n] and b2 [n], as one op over the stacked rows of x. The ReLU
    runs in place on the hidden array, and the backward masks with
    hidden > 0, so it keeps no mask of its own."""
    x, w1, b1, w2, b2 = (as_tensor(a) for a in (x, w1, b1, w2, b2))
    if (w1.data.ndim != 2 or w2.data.ndim != 2 or x.data.shape[-1:] != w1.data.shape[:1]
            or b1.data.shape != w1.data.shape[1:] or w2.data.shape[:1] != w1.data.shape[1:]
            or b2.data.shape != w2.data.shape[1:]):
        raise ValueError(
            f"feed_forward needs x [..., k], w1 [k, h], b1 [h], w2 [h, n] and b2 [n], got "
            f"{x.data.shape} / {w1.data.shape} / {b1.data.shape} / {w2.data.shape} / "
            f"{b2.data.shape}"
        )
    k, n = w1.data.shape[0], w2.data.shape[1]
    rows = x.data.reshape(-1, k)
    h = rows @ w1.data
    h += b1.data
    np.maximum(h, 0, out=h)
    out = h @ w2.data
    out += b2.data

    def bw(g, acc):
        g = g.reshape(-1, n)
        dh = g @ w2.data.T
        acc.add(w2, h.T @ g)
        acc.add(b2, g.sum(axis=0))
        dh *= h > 0
        if x.requires_grad:
            acc.add(x, (dh @ w1.data.T).reshape(x.data.shape))
        acc.add(w1, rows.T @ dh)
        acc.add(b1, dh.sum(axis=0))

    return _apply(out.reshape(*x.data.shape[:-1], n), (x, w1, b1, w2, b2), bw)


def attention(q: Tensor, k: Tensor, v: Tensor, bias, n_heads: int) -> Tensor:
    """Multi-head scaled dot-product attention as one op.

    q is [B, Tq, d]; k and v are [B, Tk, d]; `bias` is a constant array
    added to the scores that broadcasts to [B, n_heads, Tq, Tk] (a -1e9
    key-padding [B, 1, 1, Tk] or causal [Tq, Tk] penalty). Each head
    attends over its d / n_heads features with scores scaled by
    1 / sqrt(d / n_heads); the heads' outputs are concatenated to
    [B, Tq, d].
    """
    q, k, v = as_tensor(q), as_tensor(k), as_tensor(v)
    bias = np.asarray(bias)
    if (q.data.ndim != 3 or k.data.ndim != 3 or k.data.shape != v.data.shape
            or q.data.shape[::2] != k.data.shape[::2]):
        raise ValueError(
            "attention needs q [B, Tq, d] and k, v [B, Tk, d], "
            f"got {q.data.shape} / {k.data.shape} / {v.data.shape}"
        )
    batch, tq, d = q.data.shape
    tk = k.data.shape[1]
    if n_heads < 1 or d % n_heads:
        raise ValueError(f"width {d} does not split into {n_heads} heads")
    dh = d // n_heads
    c = 1.0 / math.sqrt(dh)
    scores_shape = (batch, n_heads, tq, tk)
    try:
        fits = np.broadcast_shapes(bias.shape, scores_shape) == scores_shape
    except ValueError:
        fits = False
    if not fits:
        raise ValueError(f"bias {bias.shape} does not broadcast to scores {scores_shape}")

    dtype = np.result_type(q.data, k.data, v.data)

    def heads(a: np.ndarray, t: int) -> np.ndarray:  # [B, t, d] -> [B, H, t, dh] view
        return a.reshape(batch, t, n_heads, dh).transpose(0, 2, 1, 3)

    def heads_last(a: np.ndarray, t: int) -> np.ndarray:  # [B, t, d] -> [B, H, dh, t] copy
        return np.ascontiguousarray(a.reshape(batch, t, n_heads, dh).transpose(0, 2, 3, 1))

    def product(a: np.ndarray, b: np.ndarray, t: int) -> np.ndarray:
        """a @ b per head, [B, H, t, dh], written into a [B, t, d] array."""
        out = np.empty((batch, t, n_heads, dh), dtype=dtype)
        np.matmul(a, b, out=out.transpose(0, 2, 1, 3))
        return out.reshape(batch, t, d)

    def keys_first(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """a @ b per head, [B, H, Tk, Tq], written into a [Tk, B, H, Tq] array."""
        out = np.empty((tk, batch, n_heads, tq), dtype=dtype)
        np.matmul(a, b, out=out.transpose(1, 2, 0, 3))
        return out

    # scores keys first, p[j, b, h, i] = k_j . q_i, so that the softmax
    # reduces over axis 0 and sums in key order: masked keys, whose
    # probabilities are exactly 0.0, add nothing at the end of each sum
    qh, kh, vh = heads(q.data, tq), heads(k.data, tk), heads(v.data, tk)
    p = keys_first(kh, heads_last(q.data, tq))
    p *= c
    p += bias.reshape((1,) * (4 - bias.ndim) + bias.shape).transpose(3, 0, 1, 2)
    # max-subtracted softmax in place; masked keys underflow to exactly 0.0
    p -= p.max(axis=0)
    np.exp(p, out=p)
    p /= p.sum(axis=0)
    pt = p.transpose(1, 2, 3, 0)  # [B, H, Tq, Tk]

    def bw(g, acc):
        acc.add(v, product(pt.swapaxes(-1, -2), heads(g, tq), tk))
        ds = keys_first(vh, heads_last(g, tq))
        ds -= (ds * p).sum(axis=0)
        ds *= p
        ds *= c
        dst = ds.transpose(1, 2, 3, 0)
        acc.add(q, product(dst, kh, tq))
        acc.add(k, product(dst.swapaxes(-1, -2), qh, tk))

    return _apply(product(pt, vh, tq), (q, k, v), bw)


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    keep = a.data > 0

    def bw(g, acc):
        acc.add(a, g * keep)

    return _apply(np.maximum(a.data, 0), (a,), bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    a = as_tensor(a)
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ValueError(f"axis {axis} invalid for shape {a.data.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g, acc):
        inner = (g * y).sum(axis=axis, keepdims=True)
        acc.add(a, y * (g - inner))

    return _apply(y, (a,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Zero-mean unit-variance over the last axis (1/N variance plus 1e-5), then affine."""
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    dim = x.data.shape[-1]
    if gain.data.shape != (dim,) or bias.data.shape != (dim,):
        raise ValueError(
            f"gain/bias must have shape ({dim},), got {gain.data.shape} / {bias.data.shape}"
        )
    mu = x.data.sum(axis=-1, keepdims=True)
    mu /= dim
    xhat = x.data - mu
    var = np.square(xhat).sum(axis=-1, keepdims=True)
    var /= dim
    var += 1e-5
    inv = 1.0 / np.sqrt(var)
    xhat *= inv

    def bw(g, acc):
        rows = g.reshape(-1, dim)
        acc.add(gain, (rows * xhat.reshape(-1, dim)).sum(axis=0))
        acc.add(bias, rows.sum(axis=0))
        dx = g * gain.data
        m1 = dx.sum(axis=-1, keepdims=True)
        m1 /= dim
        m2 = (dx * xhat).sum(axis=-1, keepdims=True)
        m2 /= dim
        dx -= m1
        dx -= xhat * m2
        dx *= inv
        acc.add(x, dx)

    out = xhat * gain.data
    out += bias.data
    return _apply(out, (x, gain, bias), bw)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: out[i] = table[ids[i]]. Gradient scatter-adds rows."""
    table = as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(
            f"ids outside [0, {table.data.shape[0]}): min={ids.min()}, max={ids.max()}"
        )

    def bw(g, acc):
        dt = np.zeros_like(table.data)
        np.add.at(dt, ids, g)
        acc.add(table, dt)

    return _apply(table.data[ids], (table,), bw)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)

    def bw(g, acc):
        acc.add(a, g.reshape(a.data.shape))

    return _apply(a.data.reshape(shape), (a,), bw)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    a = as_tensor(a)
    inverse = np.argsort(axes)

    def bw(g, acc):
        acc.add(a, g.transpose(inverse))

    return _apply(a.data.transpose(axes), (a,), bw)


def sum_all(a: Tensor) -> Tensor:
    a = as_tensor(a)

    def bw(g, acc):
        acc.add(a, np.full_like(a.data, g))

    return _apply(a.data.sum(), (a,), bw)


def mean_all(a: Tensor) -> Tensor:
    a = as_tensor(a)
    n = a.data.size

    def bw(g, acc):
        acc.add(a, np.full_like(a.data, g / n))

    return _apply(a.data.mean(), (a,), bw)


def cross_entropy(logits: Tensor, target_ids) -> Tensor:
    """Mean over positions of -log softmax(logits)[target]."""
    logits = as_tensor(logits)
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be [positions, V], got {logits.data.shape}")
    targets = np.asarray(target_ids, dtype=np.int64)
    if targets.ndim != 1 or targets.shape[0] != logits.data.shape[0]:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits {logits.data.shape}"
        )
    vocab = logits.data.shape[1]
    bad = (targets < 0) | (targets >= vocab)
    if bad.any():
        raise IndexError(f"target id {targets[bad][0]} outside [0, {vocab})")
    n = len(targets)
    if n == 0:
        raise ValueError("no target positions")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    rows = np.arange(n)
    loss = -logp[rows, targets].sum() / n

    def bw(g, acc):
        dlogits = np.exp(logp)
        dlogits[rows, targets] -= 1.0
        acc.add(logits, dlogits * (g / n))

    return _apply(np.asarray(loss, dtype=logits.data.dtype), (logits,), bw)


def dropout(x: Tensor, p: float, rngs, lengths) -> Tensor:
    """Inverted dropout over a batch `x` [B, L, ...], with one generator
    and one length per row; draws a fresh mask on every call.

    Row b draws its mask from rngs[b] only over its first lengths[b]
    positions along axis 1, in the shape that part has on its own, and
    the rest of the row is dropped. A row's draws therefore do not depend
    on the other rows of the batch or on how far the row is padded.
    """
    if not 0 <= p < 1:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    x = as_tensor(x)
    if p == 0:
        return x
    if x.data.ndim < 2 or len(rngs) != len(x.data) or len(lengths) != len(x.data):
        raise ValueError(
            f"need one generator and length per row of a [batch, length, ...] tensor, "
            f"got shape {x.data.shape}, {len(rngs)} generators and {len(lengths)} lengths"
        )
    keep = np.zeros(x.data.shape, dtype=bool)
    for row, (gen, n) in enumerate(zip(rngs, lengths)):
        keep[row, :n] = gen.random((n, *x.data.shape[2:])) >= p
    keep = (keep / (1.0 - p)).astype(x.data.dtype)

    def bw(g, acc):
        acc.add(x, g * keep)

    return _apply(x.data * keep, (x,), bw)
