"""Properties of the tensor ops over drawn shapes and key-padding masks.

For each op: its fp64 gradients pass the finite-difference check, and
each batch row gets the output and gradients it gets when run alone.
The gradient of sum(out * r) is formed with `linear` and `reshape`, ops
the model itself uses, so that the check leans on nothing else.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crisisadapt import tensor as T

from conftest import finite_diff_check, grad_of

FD_TOL = 1e-6
# Drawn inputs put some gradient coordinates near zero, where central
# differences at eps=1e-5 are noise of about 1e-11 absolute; errors are
# scaled by at least this, so a wrong gradient still shows as O(1) error.
FD_FLOOR = 1e-3
ROW_TOL = 1e-12
# each example runs the finite-difference check on every operand; this
# many keep each test to about half a second
OP_PROPERTY = settings(deadline=None, max_examples=50)


def weighted_sum(out: T.Tensor, r: np.ndarray) -> T.Tensor:
    """sum(out * r) as a scalar tensor; its gradient into `out` is r."""
    flat = T.reshape(out, (1, out.data.size))
    return T.reshape(T.linear(flat, T.Tensor(r.reshape(-1, 1))), ())


def gradients(op, operands: list[np.ndarray], r: np.ndarray) -> tuple[np.ndarray, list]:
    """op(*operands) and the gradient of sum(op(...) * r) for each operand."""
    tensors = [T.Tensor(a, requires_grad=True) for a in operands]
    with T.Tape() as tape:
        out = op(*tensors)
        loss = weighted_sum(out, r)
    grads = T.backward(tape, loss)
    return out.data, [grad_of(grads, t) for t in tensors]


def assert_fd(op, operands: list[np.ndarray], r: np.ndarray) -> None:
    for i, x in enumerate(operands):
        def f(t, i=i):
            args = [T.Tensor(a) for a in operands]
            args[i] = t
            return weighted_sum(op(*args), r)

        assert finite_diff_check(f, T.Tensor(x), floor=FD_FLOOR) < FD_TOL, i


def close(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= ROW_TOL))


@st.composite
def attention_cases(draw):
    """q [B, Tq, d], k and v [B, Tk, d], a key-padding bias [B, 1, 1, Tk]
    that leaves each row at least one key, the head count and r."""
    batch, tq, tk = draw(st.integers(1, 4)), draw(st.integers(1, 6)), draw(st.integers(1, 6))
    heads, width = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random((batch, tk)) < 0.7
    mask[np.arange(batch), rng.integers(0, tk, batch)] = True
    bias = np.where(mask, 0.0, -1e9)[:, None, None, :]
    d = heads * width
    q, k, v, r = (rng.normal(size=(batch, t, d)) for t in (tq, tk, tk, tq))
    return [q, k, v], bias, heads, r


@OP_PROPERTY
@given(attention_cases())
def test_attention_gradients_and_rows(case):
    (q, k, v), bias, heads, r = case

    def op(q_, k_, v_, bias=bias):
        return T.attention(q_, k_, v_, bias, heads)

    assert_fd(op, [q, k, v], r)
    out, grads = gradients(op, [q, k, v], r)
    for b in range(len(q)):
        row = slice(b, b + 1)
        alone, alone_grads = gradients(lambda *a: op(*a, bias=bias[row]),
                                       [q[row], k[row], v[row]], r[row])
        assert close(out[row], alone), b
        for got, want in zip(grads, alone_grads):
            assert close(got[row], want), b


@st.composite
def feed_forward_cases(draw):
    """x [B, L, k], w1 [k, h], b1 [h], w2 [h, n], b2 [n] and r [B, L, n]."""
    batch, length = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    k, h, n = (draw(st.integers(1, 6)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shapes = [(batch, length, k), (k, h), (h,), (h, n), (n,)]
    # hidden units away from ReLU's kink, where central differences fail
    while True:
        x, w1, b1, w2, b2 = (rng.normal(size=s) for s in shapes)
        if np.abs(x @ w1 + b1).min() > 1e-3:
            return [x, w1, b1, w2, b2], rng.normal(size=(batch, length, n))


@OP_PROPERTY
@given(feed_forward_cases())
def test_feed_forward_gradients_and_rows(case):
    operands, r = case
    assert_fd(T.feed_forward, operands, r)
    x = operands[0]
    out, grads = gradients(T.feed_forward, operands, r)
    summed = [np.zeros_like(g) for g in grads[1:]]
    for b in range(len(x)):
        row = slice(b, b + 1)
        alone, alone_grads = gradients(T.feed_forward, [x[row], *operands[1:]], r[row])
        assert close(out[row], alone), b
        assert close(grads[0][row], alone_grads[0]), b
        for acc, g in zip(summed, alone_grads[1:]):
            acc += g
    # a weight's gradient sums its rows' gradients
    for got, want in zip(grads[1:], summed):
        assert close(got, want)


def test_feed_forward_is_bitwise_linear_relu_linear_fp32():
    rng = np.random.default_rng(7)
    operands = [rng.normal(size=s).astype(np.float32)
                for s in [(3, 5, 8), (8, 16), (16,), (16, 8), (8,)]]
    r = rng.normal(size=(3, 5, 8)).astype(np.float32)

    def composed(x, w1, b1, w2, b2):
        return T.linear(T.relu(T.linear(x, w1, b1)), w2, b2)

    out, grads = gradients(T.feed_forward, operands, r)
    want, want_grads = gradients(composed, operands, r)
    assert out.dtype == np.float32
    assert np.array_equal(out, want)
    for got, ref in zip(grads, want_grads):
        assert got.dtype == np.float32 and np.array_equal(got, ref)
