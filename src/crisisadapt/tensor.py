"""Dense tensors with reverse-mode automatic differentiation.

Ops recorded while a :class:`Tape` is active can be replayed backwards to
produce gradients. Reductions are plain sequential numpy reductions, so
two identical backward passes give bitwise-identical gradients. fp32 is
the training dtype; fp64 is used for finite-difference gradient checks.

Attention masking works with a finite -1e9 additive penalty: after the
max-subtracted softmax the masked probabilities underflow to exactly 0.0,
so masked positions contribute nothing, without NaN/Inf in any tensor.
"""

from __future__ import annotations

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
    "finite_diff_check",
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

    def __add__(self, other):
        return add(self, other)

    def __sub__(self, other):
        return sub(self, other)

    def __mul__(self, other):
        return mul(self, other)

    def __matmul__(self, other):
        return matmul(self, other)


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class Tape:
    """Records ops in execution order; backward replays them in exact
    reverse order and consumes the tape. One forward/backward pass per tape."""

    def __init__(self):
        self.ops: list[tuple[Tensor, object]] = []
        self.created: set[int] = set()
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
        tape = _ACTIVE[-1]
        tape.ops.append((out, bw))
        tape.created.add(id(out))
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to the operand's shape."""
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad


class _GradStore:
    def __init__(self):
        self.by_id: dict[int, np.ndarray] = {}
        self.tensors: dict[int, Tensor] = {}

    def add(self, t: Tensor, g: np.ndarray) -> None:
        if not t.requires_grad:
            return
        tid = id(t)
        if tid in self.by_id:
            self.by_id[tid] = self.by_id[tid] + g
        else:
            self.by_id[tid] = g
            self.tensors[tid] = t

    def pop(self, t: Tensor) -> np.ndarray | None:
        self.tensors.pop(id(t), None)
        return self.by_id.pop(id(t), None)


class Gradients:
    """Result of a backward pass: gradients addressable by tensor or name."""

    def __init__(self, store: _GradStore):
        self._by_id = store.by_id
        self._tensors = store.tensors
        self._by_name = {
            t.name: store.by_id[tid]
            for tid, t in store.tensors.items()
            if t.name is not None
        }

    def of(self, t: Tensor) -> np.ndarray:
        g = self._by_id.get(id(t))
        return g if g is not None else np.zeros_like(t.data)

    def __getitem__(self, name: str) -> np.ndarray:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def names(self):
        return self._by_name.keys()

    def items(self):
        return self._by_name.items()


def backward(tape: Tape, loss: Tensor) -> Gradients:
    """Walk the tape in reverse from a scalar loss, accumulating gradients
    for every requires_grad tensor (fan-out contributions sum).

    The walk consumes the tape: each op is popped, run, and dropped along
    with the gradient of its output, so the activations it held are freed
    as the walk goes. Only the gradients of leaf tensors (those no op on
    this tape produced, such as parameters) are returned.
    """
    if loss.data.shape != ():
        raise ValueError(f"loss must be a scalar, got shape {loss.data.shape}")
    if tape.consumed:
        raise ValueError("tape was already consumed by an earlier backward pass")
    if id(loss) not in tape.created:
        raise ValueError("loss was not produced under this tape")
    tape.consumed = True
    tape.created.clear()
    store = _GradStore()
    store.add(loss, np.ones((), dtype=loss.data.dtype))
    ops = tape.ops
    while ops:
        out, bw = ops.pop()
        g = store.pop(out)
        if g is not None:
            bw(g, store)
    return Gradients(store)


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
        if b.data.ndim == 2 < a.data.ndim:
            # a stack of inputs times one weight matrix: one product over
            # the stacked rows instead of one per input and a sum
            k, n = b.data.shape
            acc.add(b, a.data.reshape(-1, k).T @ g.reshape(-1, n))
        else:
            acc.add(b, _unbroadcast(np.matmul(a.data.swapaxes(-1, -2), g), b.data.shape))

    return _apply(data, (a, b), bw)


def relu(a: Tensor) -> Tensor:
    a = as_tensor(a)
    keep = a.data > 0

    def bw(g, acc):
        acc.add(a, g * keep)

    return _apply(np.where(keep, a.data, 0), (a,), bw)


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


def layer_norm(x: Tensor, gain: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Zero-mean unit-variance over the last axis (1/N variance), then affine."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    dim = x.data.shape[-1]
    if gain.data.shape != (dim,) or bias.data.shape != (dim,):
        raise ValueError(
            f"gain/bias must have shape ({dim},), got {gain.data.shape} / {bias.data.shape}"
        )
    mu = x.data.mean(axis=-1, keepdims=True)
    var = ((x.data - mu) ** 2).mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (x.data - mu) * inv

    def bw(g, acc):
        reduce_axes = tuple(range(g.ndim - 1))
        acc.add(gain, (g * xhat).sum(axis=reduce_axes))
        acc.add(bias, g.sum(axis=reduce_axes))
        dxhat = g * gain.data
        m1 = dxhat.mean(axis=-1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
        acc.add(x, inv * (dxhat - m1 - xhat * m2))

    return _apply(xhat * gain.data + bias.data, (x, gain, bias), bw)


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


def cross_entropy(logits: Tensor, target_ids, ignore_id: int = -100) -> Tensor:
    """Mean over non-ignored positions of -log softmax(logits)[target].

    Ignored positions contribute nothing to the loss or the gradient.
    """
    logits = as_tensor(logits)
    if logits.data.ndim != 2:
        raise ValueError(f"logits must be [positions, V], got {logits.data.shape}")
    targets = np.asarray(target_ids, dtype=np.int64)
    if targets.ndim != 1 or targets.shape[0] != logits.data.shape[0]:
        raise ValueError(
            f"targets shape {targets.shape} does not match logits {logits.data.shape}"
        )
    vocab = logits.data.shape[1]
    supervised = targets != ignore_id
    bad = supervised & ((targets < 0) | (targets >= vocab))
    if bad.any():
        raise IndexError(f"target id {targets[bad][0]} outside [0, {vocab})")
    n = int(supervised.sum())
    if n == 0:
        raise ValueError("no supervised positions: every target equals ignore_id")

    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    logp = shifted - logz
    rows = np.nonzero(supervised)[0]
    loss = -logp[rows, targets[rows]].sum() / n

    def bw(g, acc):
        dlogits = np.exp(logp)
        dlogits[rows, targets[rows]] -= 1.0
        dlogits[~supervised] = 0.0
        acc.add(logits, dlogits * (g / n))

    return _apply(np.asarray(loss, dtype=logits.data.dtype), (logits,), bw)


def dropout(x: Tensor, p: float, rng, lengths=None) -> Tensor:
    """Inverted dropout; draws a fresh mask from `rng` on every call.

    With `lengths`, `rng` is a sequence of generators, one per row of `x`
    (axis 0). Row b draws its mask only over its first lengths[b]
    positions along axis 1, in the shape that part has on its own, and
    the rest of the row is dropped. A row's draws therefore do not depend
    on the other rows of the batch or on how far the row is padded.
    """
    if not 0 <= p < 1:
        raise ValueError(f"dropout rate must be in [0, 1), got {p}")
    x = as_tensor(x)
    if p == 0:
        return x
    if lengths is None:
        keep = rng.random(x.data.shape) >= p
    else:
        if len(rng) != x.data.shape[0] or len(lengths) != x.data.shape[0]:
            raise ValueError(
                f"need one generator and length per row of {x.data.shape}, "
                f"got {len(rng)} and {len(lengths)}"
            )
        keep = np.zeros(x.data.shape, dtype=bool)
        for row, (gen, n) in enumerate(zip(rng, lengths)):
            keep[row, :n] = gen.random((n, *x.data.shape[2:])) >= p
    keep = (keep / (1.0 - p)).astype(x.data.dtype)

    def bw(g, acc):
        acc.add(x, g * keep)

    return _apply(x.data * keep, (x,), bw)


def finite_diff_check(f, x: Tensor, eps: float = 1e-5) -> float:
    """Compare f's analytic gradient at x against central differences.

    Returns the max over coordinates of |analytic - numeric| scaled by
    max(|analytic|, |numeric|, 1e-12). f must be deterministic: two
    baseline evaluations are compared bitwise first.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")

    def evaluate(arr: np.ndarray) -> float:
        out = f(Tensor(arr))
        if out.data.shape != ():
            raise ValueError(f"f must be scalar-valued, got shape {out.data.shape}")
        return float(out.data)

    base = evaluate(x.data.copy())
    if evaluate(x.data.copy()) != base:
        raise ValueError("f is non-deterministic: two baseline evaluations differ")

    probe = Tensor(x.data.copy(), requires_grad=True)
    with Tape() as tape:
        loss = f(probe)
    analytic = backward(tape, loss).of(probe)

    flat = x.data.copy().reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = evaluate(flat.reshape(x.data.shape))
        flat[i] = orig - eps
        lo = evaluate(flat.reshape(x.data.shape))
        flat[i] = orig
        numeric[i] = (hi - lo) / (2 * eps)
    numeric = numeric.reshape(x.data.shape)

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
    return float((np.abs(analytic - numeric) / denom).max())
