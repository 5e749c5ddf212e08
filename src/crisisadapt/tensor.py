"""Dense tensors with reverse-mode automatic differentiation.

Ops take :class:`Tensor` operands; only constants such as ids, attention
biases and dropout generators are plain values. A tensor holds the array
it is given. Ops recorded while a :class:`Tape` is active can be replayed
backwards by :func:`backward`, which adds each contribution to a
requested leaf's gradient into an array the caller passes, in walk order,
as it arrives; gradients are delivered nowhere else. Reductions are plain
sequential numpy reductions, so two identical backward passes give
bitwise-identical gradients. fp32 is the training dtype; fp64 is used for
finite-difference gradient checks.

Attention masking works with a finite -1e9 additive penalty: after the
max-subtracted softmax the masked probabilities underflow to exactly 0.0,
so masked positions contribute nothing, without NaN/Inf in any tensor.

Multi-head attention, linear layers (a weight product over the stacked
rows, plus an optional bias) and the feed-forward sublayer (linear, ReLU,
linear) are each one op with a hand-written backward, so a transformer
block records a few tape entries instead of one per elementary step. A
weight product of a single row has the bits that row gets in a product
of several. Attention lays its scores out keys first, [Tk, B, H, Tq]:
the softmax then reduces over axis 0, in key order, rather than over many
short rows, and every batched product reads operands BLAS takes as they
are.

A tape owns the memory of its passes. The ops the model calls write
their forward outputs, and the arrays they keep for the backward, into the
active tape's memory, which a training run reuses pass after pass instead
of having the heap hand the same pages back and forth; outside any tape,
as in evaluation, they use the heap. Backward temporaries always come from
the heap. :func:`mapped_empty` gives one array a mapping of its own, as a
training run does for its gradient vector.
"""

from __future__ import annotations

import math
import mmap

import numpy as np

__all__ = [
    "Tensor",
    "Tape",
    "mapped_empty",
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
        self.data = np.asarray(data)
        self.requires_grad = requires_grad
        self.name = name

    def __repr__(self):
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}{tag})"


# Byte alignment of each array a tape hands out: a cache line
_ALIGN = 64


class Tape:
    """Records ops in execution order; backward replays them in exact
    reverse order, popping each, so a tape whose op list is empty has been
    consumed (or recorded nothing).

    A tape is entered once per pass, pass after pass, and owns the memory
    of its passes' forward arrays: one anonymous memory mapping and a bump
    offset. Entering resets the offset, so each pass overwrites the arrays
    of the one before; the previous pass must have been consumed by
    :func:`backward` first, or entering raises ValueError. A request that
    does not fit gets a mapping of its own, and the next entry maps one
    region large enough for every request of the pass.
    No array comes from the heap: once glibc has raised its thresholds
    (after a checkpoint load, say), the heap keeps what it is given after
    release, so the heap arrays of a run's first pass would stay resident
    next to the region. The region belongs to the tape, so the allocator
    cannot trim it between passes and fault its pages in again;
    :meth:`release` (or dropping the tape once its arrays are gone)
    returns it to the system.
    """

    def __init__(self):
        self.ops: list[tuple[Tensor, object]] = []
        self.release()

    def __enter__(self) -> "Tape":
        if self.ops:
            raise ValueError("the tape's previous pass was not consumed by backward")
        if self._used > self._size:
            # a power of two, so that a run maps a few times at most; pages
            # past the largest pass are never touched and cost no memory
            self._size = 1 << (self._used - 1).bit_length()
            self._region = _mapping(self._size)
        self._used = 0
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc):
        _ACTIVE.pop()
        return False

    def _take(self, shape, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        start = self._used
        nbytes = math.prod(shape) * dtype.itemsize
        self._used = start + -(-nbytes // _ALIGN) * _ALIGN
        if self._used > self._size:
            return mapped_empty(shape, dtype)
        return np.ndarray(shape, dtype, self._region, start)

    def release(self) -> None:
        """Drop the region (unmapped once no array in it is left); the next
        entry maps anew."""
        self._region = None
        self._size = 0
        self._used = 0  # bytes the current pass has asked for


def _mapping(nbytes: int) -> mmap.mmap:
    """Private anonymous memory, faulted in on first touch and unmapped
    when the last array in it goes."""
    return mmap.mmap(-1, nbytes, flags=mmap.MAP_PRIVATE)


def mapped_empty(shape, dtype) -> np.ndarray:
    """An uninitialised array in a private mapping of its own, returned to
    the system when the last reference to it goes.

    For a large array that lives for a while and is then freed. Taken
    from the heap instead, an array above glibc's mmap threshold gets a
    mapping too, but freeing it raises that threshold to the array's
    size and the trim threshold to twice that; from then on, arrays
    below the new threshold come from the heap, and the heap keeps what
    they free instead of giving it back. Freeing an array from here
    leaves both thresholds where they were.
    """
    dtype = np.dtype(dtype)
    nbytes = math.prod(shape) * dtype.itemsize
    return np.ndarray(shape, dtype, _mapping(max(nbytes, 1)))


def _empty(shape, dtype) -> np.ndarray:
    """An uninitialised array for an op's forward output or saved values:
    from the active tape's memory, or from the heap outside any tape."""
    return _ACTIVE[-1]._take(shape, dtype) if _ACTIVE else np.empty(shape, dtype)


def _out(shape, *operands) -> np.ndarray | None:
    """As :func:`_empty`, for the `out=` of a numpy call on `operands`
    whose result has `shape`, typed as numpy types that result; but None
    outside any tape, so that numpy allocates the result itself, which
    costs less than a call to np.empty from here."""
    return _ACTIVE[-1]._take(shape, np.result_type(*operands)) if _ACTIVE else None


def _product(rows: np.ndarray, w: np.ndarray) -> np.ndarray:
    """rows @ w for rows [m, k], as :func:`_out` places it. numpy hands a
    single row to BLAS's matrix-vector kernel, whose sums can round
    differently from the same row's in a product of several rows (they do
    for k of 64 and more); so a single row is multiplied as two copies of
    itself, and the first result kept."""
    if len(rows) == 1:
        return _product(rows[[0, 0]], w)[:1]
    return np.matmul(rows, w, out=_out((len(rows), w.shape[1]), rows, w))


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


def backward(tape: Tape, loss: Tensor, into: dict[Tensor, np.ndarray]) -> None:
    """Walk the tape in reverse from a scalar loss and add the gradient of
    each leaf that is a key of `into` (a tensor no op on this tape
    produced, such as a parameter) in place to its array.

    Nothing else receives a gradient. Each op's backward receives its
    output's gradient and `acc(tensor, grad)`. A contribution to a leaf
    is added to its `into` array at once, so a leaf read by several ops
    gets ((array + c1) + c2) + ... in walk order, and a leaf the walk
    never reached leaves its array untouched. Contributions to an op's
    output sum in walk order (fan-out) until the walk reaches that op.
    The walk consumes the tape: each op is popped, run, and dropped along
    with the gradient of its output, so the activations it held are freed
    as the walk goes. A tape with no ops left raises ValueError.
    """
    if loss.data.shape != ():
        raise ValueError(f"loss must be a scalar, got shape {loss.data.shape}")
    ops = tape.ops
    if not ops:
        raise ValueError("tape holds no ops: already consumed by a backward pass, or empty")
    produced = {id(out) for out, _ in ops}
    if id(loss) not in produced:
        raise ValueError("loss was not produced under this tape")
    leaves = {id(t): arr for t, arr in into.items() if id(t) not in produced}
    grads: dict[int, np.ndarray] = {}

    def acc(t: Tensor, g: np.ndarray) -> None:
        if t.requires_grad:
            tid = id(t)
            arr = leaves.get(tid)
            if arr is not None:
                arr += g
            else:
                grads[tid] = grads[tid] + g if tid in grads else g

    acc(loss, np.ones((), dtype=loss.data.dtype))
    while ops:
        out, bw = ops.pop()
        g = grads.pop(id(out), None)
        if g is not None:
            bw(g, acc)


# ---------------------------------------------------------------------------
# Ops


def add(a: Tensor, b: Tensor) -> Tensor:
    def bw(g, acc):
        # constant operands (positions, attention biases) need no reduction
        if a.requires_grad:
            acc(a, _unbroadcast(g, a.data.shape))
        if b.requires_grad:
            acc(b, _unbroadcast(g, b.data.shape))

    shape = a.data.shape if a.data.shape == b.data.shape else np.broadcast(a.data, b.data).shape
    return _apply(np.add(a.data, b.data, out=_out(shape, a.data, b.data)), (a, b), bw)


def sub(a: Tensor, b: Tensor) -> Tensor:
    def bw(g, acc):
        acc(a, _unbroadcast(g, a.data.shape))
        acc(b, _unbroadcast(-g, b.data.shape))

    return _apply(a.data - b.data, (a, b), bw)


def mul(a: Tensor, b: Tensor) -> Tensor:
    def bw(g, acc):
        acc(a, _unbroadcast(g * b.data, a.data.shape))
        acc(b, _unbroadcast(g * a.data, b.data.shape))

    return _apply(a.data * b.data, (a, b), bw)


def scale(a: Tensor, c: float) -> Tensor:
    def bw(g, acc):
        acc(a, g * c)

    return _apply(np.multiply(a.data, c, out=_out(a.data.shape, a.data, c)), (a,), bw)


def matmul(a: Tensor, b: Tensor) -> Tensor:
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
        acc(a, _unbroadcast(np.matmul(g, b.data.swapaxes(-1, -2)), a.data.shape))
        acc(b, _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.data.shape))

    return _apply(data, (a, b), bw)


def linear(x: Tensor, w: Tensor, b: Tensor | None = None) -> Tensor:
    """x @ w (+ b) for x [..., k], w [k, n] and an optional bias b [n], as
    one product over the stacked rows of x; the backward forms every
    gradient from those rows too."""
    if (w.data.ndim != 2 or x.data.shape[-1:] != w.data.shape[:1]
            or (b is not None and b.data.shape != w.data.shape[1:])):
        raise ValueError(
            f"linear needs x [..., k], w [k, n] and b [n], got {x.data.shape} / "
            f"{w.data.shape} / {None if b is None else b.data.shape}"
        )
    k, n = w.data.shape
    rows = x.data.reshape(-1, k)
    data = _product(rows, w.data)
    if b is not None:
        data += b.data

    def bw(g, acc):
        g = g.reshape(-1, n)
        if x.requires_grad:
            acc(x, (g @ w.data.T).reshape(x.data.shape))
        acc(w, rows.T @ g)
        if b is not None:
            acc(b, g.sum(axis=0))

    inputs = (x, w) if b is None else (x, w, b)
    return _apply(data.reshape(*x.data.shape[:-1], n), inputs, bw)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor, b2: Tensor) -> Tensor:
    """relu(x @ w1 + b1) @ w2 + b2 for x [..., k], w1 [k, h], b1 [h],
    w2 [h, n] and b2 [n], as one op over the stacked rows of x. The ReLU
    runs in place on the hidden array, and the backward masks with
    hidden > 0, so it keeps no mask of its own."""
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
    h = _product(rows, w1.data)
    h += b1.data
    np.maximum(h, 0, out=h)
    out = _product(h, w2.data)
    out += b2.data

    def bw(g, acc):
        g = g.reshape(-1, n)
        dh = g @ w2.data.T
        acc(w2, h.T @ g)
        acc(b2, g.sum(axis=0))
        dh *= h > 0
        if x.requires_grad:
            acc(x, (dh @ w1.data.T).reshape(x.data.shape))
        acc(w1, rows.T @ dh)
        acc(b1, dh.sum(axis=0))

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

    def product(a: np.ndarray, b: np.ndarray, t: int, empty=np.empty) -> np.ndarray:
        """a @ b per head, [B, H, t, dh], written into a [B, t, d] array."""
        out = empty((batch, t, n_heads, dh), dtype)
        np.matmul(a, b, out=out.transpose(0, 2, 1, 3))
        return out.reshape(batch, t, d)

    def keys_first(a: np.ndarray, b: np.ndarray, empty=np.empty) -> np.ndarray:
        """a @ b per head, [B, H, Tk, Tq], written into a [Tk, B, H, Tq] array."""
        out = empty((tk, batch, n_heads, tq), dtype)
        np.matmul(a, b, out=out.transpose(1, 2, 0, 3))
        return out

    # scores keys first, p[j, b, h, i] = k_j . q_i, so that the softmax
    # reduces over axis 0 and sums in key order: masked keys, whose
    # probabilities are exactly 0.0, add nothing at the end of each sum
    qh, kh, vh = heads(q.data, tq), heads(k.data, tk), heads(v.data, tk)
    p = keys_first(kh, heads_last(q.data, tq), _empty)
    p *= c
    p += bias.reshape((1,) * (4 - bias.ndim) + bias.shape).transpose(3, 0, 1, 2)
    # max-subtracted softmax in place; masked keys underflow to exactly 0.0
    p -= p.max(axis=0)
    np.exp(p, out=p)
    p /= p.sum(axis=0)
    pt = p.transpose(1, 2, 3, 0)  # [B, H, Tq, Tk]

    def bw(g, acc):
        acc(v, product(pt.swapaxes(-1, -2), heads(g, tq), tk))
        ds = keys_first(vh, heads_last(g, tq))
        ds -= (ds * p).sum(axis=0)
        ds *= p
        ds *= c
        dst = ds.transpose(1, 2, 3, 0)
        acc(q, product(dst, kh, tq))
        acc(k, product(dst.swapaxes(-1, -2), qh, tk))

    return _apply(product(pt, vh, tq, _empty), (q, k, v), bw)


def relu(a: Tensor) -> Tensor:
    keep = a.data > 0

    def bw(g, acc):
        acc(a, g * keep)

    return _apply(np.maximum(a.data, 0), (a,), bw)


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    if not -a.data.ndim <= axis < a.data.ndim:
        raise ValueError(f"axis {axis} invalid for shape {a.data.shape}")
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / e.sum(axis=axis, keepdims=True)

    def bw(g, acc):
        inner = (g * y).sum(axis=axis, keepdims=True)
        acc(a, y * (g - inner))

    return _apply(y, (a,), bw)


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor) -> Tensor:
    """Zero-mean unit-variance over the last axis (1/N variance plus 1e-5), then affine."""
    dim = x.data.shape[-1]
    if gain.data.shape != (dim,) or bias.data.shape != (dim,):
        raise ValueError(
            f"gain/bias must have shape ({dim},), got {gain.data.shape} / {bias.data.shape}"
        )
    mu = x.data.sum(axis=-1, keepdims=True)
    mu /= dim
    xhat = np.subtract(x.data, mu, out=_out(x.data.shape, x.data, mu))
    var = np.square(xhat).sum(axis=-1, keepdims=True)
    var /= dim
    var += 1e-5
    inv = 1.0 / np.sqrt(var)
    xhat *= inv

    def bw(g, acc):
        rows = g.reshape(-1, dim)
        acc(gain, (rows * xhat.reshape(-1, dim)).sum(axis=0))
        acc(bias, rows.sum(axis=0))
        dx = g * gain.data
        m1 = dx.sum(axis=-1, keepdims=True)
        m1 /= dim
        m2 = (dx * xhat).sum(axis=-1, keepdims=True)
        m2 /= dim
        dx -= m1
        dx -= xhat * m2
        dx *= inv
        acc(x, dx)

    out = np.multiply(xhat, gain.data, out=_out(xhat.shape, xhat, gain.data))
    out += bias.data
    return _apply(out, (x, gain, bias), bw)


def embedding(table: Tensor, ids) -> Tensor:
    """Row lookup: out[i] = table[ids[i]]. Gradient scatter-adds rows."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.data.shape[0]):
        raise IndexError(
            f"ids outside [0, {table.data.shape[0]}): min={ids.min()}, max={ids.max()}"
        )

    def bw(g, acc):
        dt = np.zeros_like(table.data)
        np.add.at(dt, ids, g)
        acc(table, dt)

    # the ids are in range, so "clip" clips nothing; unlike "raise", it
    # writes straight into `out` without a buffer of its own
    out = _out(ids.shape + table.data.shape[1:], table.data)
    return _apply(np.take(table.data, ids, axis=0, out=out, mode="clip"), (table,), bw)


def reshape(a: Tensor, shape: tuple[int, ...]) -> Tensor:
    def bw(g, acc):
        acc(a, g.reshape(a.data.shape))

    return _apply(a.data.reshape(shape), (a,), bw)


def transpose(a: Tensor, axes: tuple[int, ...]) -> Tensor:
    inverse = np.argsort(axes)

    def bw(g, acc):
        acc(a, g.transpose(inverse))

    return _apply(a.data.transpose(axes), (a,), bw)


def sum_all(a: Tensor) -> Tensor:
    def bw(g, acc):
        acc(a, np.full_like(a.data, g))

    return _apply(a.data.sum(), (a,), bw)


def mean_all(a: Tensor) -> Tensor:
    n = a.data.size

    def bw(g, acc):
        acc(a, np.full_like(a.data, g / n))

    return _apply(a.data.mean(), (a,), bw)


def cross_entropy(logits: Tensor, target_ids) -> Tensor:
    """Mean over positions of -log softmax(logits)[target]."""
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
        acc(logits, dlogits * (g / n))

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
    # the survivors' scale, rounded to x's dtype, without a float64 array
    mask = _empty(x.data.shape, x.data.dtype)
    np.copyto(mask, keep)
    mask *= 1.0 / (1.0 - p)

    def bw(g, acc):
        acc(x, g * mask)

    return _apply(np.multiply(x.data, mask, out=_out(x.data.shape, x.data, mask)), (x,), bw)
