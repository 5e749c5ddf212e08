"""Properties of the tensor ops the model calls, over drawn shapes.

For each op: its fp64 gradients pass the finite-difference check, and
each batch row gets the output and gradients it gets when run alone; an
operand the rows share (a weight, a table) gets the sum of the rows'
gradients. `cross_entropy`, whose scalar output has no rows, is compared
with a numpy log-softmax instead. The gradient of sum(out * r) is formed
with `linear` and `reshape`, ops the model itself uses, so that the
check leans on nothing else.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from crisisadapt import tensor as T

from conftest import finite_diff_check, leaf_grads

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


def gradients(op, operands: list, r: np.ndarray, fixed=()) -> tuple[np.ndarray, list]:
    """op(*operands, *fixed) and the gradient of sum(op(...) * r) for each
    operand; `fixed` holds arguments that get no gradient."""
    tensors = [T.Tensor(a, requires_grad=True) for a in operands]
    with T.Tape() as tape:
        out = op(*tensors, *fixed)
        loss = weighted_sum(out, r)
    return out.data, leaf_grads(tape, loss, tensors)


def assert_fd(op, operands: list, r: np.ndarray, fixed=()) -> None:
    for i, x in enumerate(operands):
        def f(t, i=i):
            args = [T.Tensor(a) for a in operands]
            args[i] = t
            return weighted_sum(op(*args, *fixed), r)

        assert finite_diff_check(f, T.Tensor(x), floor=FD_FLOOR) < FD_TOL, i


def close(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and bool(np.all(np.abs(a - b) <= ROW_TOL))


def assert_op(op, batched: list, shared: list, r: np.ndarray, fixed=()) -> None:
    """op(*batched, *shared, *fixed) passes the finite-difference check on
    every operand. Run on row b alone, which takes row b of each batched
    operand, of each fixed argument and of r, and all of each shared
    operand, it gives row b of the output and of the batched operands'
    gradients; a shared operand's gradient is the sum of the rows'."""
    operands = [*batched, *shared]
    assert_fd(op, operands, r, fixed)
    out, grads = gradients(op, operands, r, fixed)
    summed = [np.zeros_like(g) for g in shared]
    for b in range(len(r)):
        row = slice(b, b + 1)
        alone, alone_grads = gradients(op, [a[row] for a in batched] + shared, r[row],
                                       [a[row] for a in fixed])
        assert close(out[row], alone), b
        for got, want in zip(grads, alone_grads[: len(batched)]):
            assert close(got[row], want), b
        for acc, g in zip(summed, alone_grads[len(batched):]):
            acc += g
    for got, want in zip(grads[len(batched):], summed):
        assert close(got, want)


def generator(draw) -> np.random.Generator:
    return np.random.default_rng(draw(st.integers(0, 2**32 - 1)))


def sizes(draw, *, batch=(1, 4), length=(1, 6), width=(1, 6)) -> tuple[int, int, int]:
    return draw(st.integers(*batch)), draw(st.integers(*length)), draw(st.integers(*width))


@st.composite
def attention_cases(draw):
    """q [B, Tq, d], k and v [B, Tk, d], the head count, r, and either a
    key-padding bias [B, 1, 1, Tk] that leaves each row at least one key
    or the decoder's causal bias [T, T] (Tq = Tk = T)."""
    causal = draw(st.booleans())
    batch, tq = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    tk = tq if causal else draw(st.integers(1, 6))
    heads, width = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    rng = generator(draw)
    if causal:
        bias = np.triu(np.full((tq, tk), -1e9), k=1)
    else:
        mask = rng.random((batch, tk)) < 0.7
        mask[np.arange(batch), rng.integers(0, tk, batch)] = True
        bias = np.where(mask, 0.0, -1e9)[:, None, None, :]
    d = heads * width
    q, k, v, r = (rng.normal(size=(batch, t, d)) for t in (tq, tk, tk, tq))
    return [q, k, v], causal, bias, heads, r


@OP_PROPERTY
@given(attention_cases())
def test_attention_gradients_and_rows(case):
    qkv, causal, bias, heads, r = case
    if causal:  # one bias for every row
        assert_op(lambda q, k, v: T.attention(q, k, v, bias, heads), qkv, [], r)
    else:
        assert_op(lambda q, k, v, bias: T.attention(q, k, v, bias, heads), qkv, [], r, [bias])


@st.composite
def feed_forward_cases(draw):
    """x [B, L, k], w1 [k, h], b1 [h], w2 [h, n], b2 [n] and r [B, L, n]."""
    batch, length, k = sizes(draw)
    h, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rng = generator(draw)
    shapes = [(batch, length, k), (k, h), (h,), (h, n), (n,)]
    # hidden units away from ReLU's kink, where central differences fail
    while True:
        x, w1, b1, w2, b2 = (rng.normal(size=s) for s in shapes)
        if np.abs(x @ w1 + b1).min() > 1e-3:
            return [x, w1, b1, w2, b2], rng.normal(size=(batch, length, n))


@OP_PROPERTY
@given(feed_forward_cases())
def test_feed_forward_gradients_and_rows(case):
    (x, *weights), r = case
    assert_op(T.feed_forward, [x], weights, r)


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


@st.composite
def linear_cases(draw):
    """x [B, L, k], w [k, n], b [n] or no bias, and r [B, L, n]."""
    batch, length, k = sizes(draw)
    n, has_bias = draw(st.integers(1, 6)), draw(st.booleans())
    rng = generator(draw)
    weights = [rng.normal(size=(k, n))] + ([rng.normal(size=n)] if has_bias else [])
    return rng.normal(size=(batch, length, k)), weights, rng.normal(size=(batch, length, n))


@OP_PROPERTY
@given(linear_cases())
def test_linear_gradients_and_rows(case):
    x, weights, r = case
    assert_op(T.linear, [x], weights, r)


@st.composite
def layer_norm_cases(draw):
    """x [B, L, d] whose rows are not nearly constant, gain and bias [d],
    and r [B, L, d]."""
    batch, length, d = sizes(draw)
    rng = generator(draw)
    # a nearly constant row has a variance near the 1e-5 floor, where
    # central differences at eps=1e-5 lose their accuracy
    while True:
        x = rng.normal(size=(batch, length, d))
        if d == 1 or x.std(axis=-1).min() > 0.1:
            break
    gain, bias, r = rng.normal(size=d), rng.normal(size=d), rng.normal(size=x.shape)
    return x, [gain, bias], r


@OP_PROPERTY
@given(layer_norm_cases())
def test_layer_norm_gradients_and_rows(case):
    x, affine, r = case
    assert_op(T.layer_norm, [x], affine, r)


@st.composite
def embedding_cases(draw):
    """A table [V, d], ids [B, L] with each row's last id repeating its
    first, and r [B, L, d]."""
    batch, length, d = sizes(draw, length=(2, 6))
    vocab = draw(st.integers(1, 5))
    rng = generator(draw)
    ids = rng.integers(0, vocab, size=(batch, length))
    ids[:, -1] = ids[:, 0]
    return rng.normal(size=(vocab, d)), ids, rng.normal(size=(batch, length, d))


@OP_PROPERTY
@given(embedding_cases())
def test_embedding_gradients_and_rows(case):
    table, ids, r = case
    assert_op(T.embedding, [], [table], r, [ids])


@st.composite
def dropout_cases(draw):
    """x [B, L, d], a rate in [0, 0.9), a generator seed and a length in
    [0, L] per row, and r [B, L, d]."""
    batch, length, d = sizes(draw)
    p = draw(st.sampled_from([0.0, 0.1, 0.5, 0.85]))
    rng = generator(draw)
    seeds = rng.integers(0, 2**32, size=batch)
    lengths = rng.integers(0, length + 1, size=batch)
    return rng.normal(size=(batch, length, d)), p, seeds, lengths, rng.normal(size=(batch, length, d))


@OP_PROPERTY
@given(dropout_cases())
def test_dropout_gradients_and_rows(case):
    x, p, seeds, lengths, r = case

    def op(x_, seeds_, lengths_):
        # fresh generators on every call, so that every run draws the same masks
        return T.dropout(x_, p, [np.random.default_rng(s) for s in seeds_], lengths_)

    assert_op(op, [x], [], r, [seeds, lengths])


@st.composite
def add_cases(draw):
    """x [B, L, d], and y as another [B, L, d] batch (the residual add),
    shared operands broadcast from [L, d], [1, d] and [d] (L >= 2, so
    every broadcast axis is summed), or a constant [L, d] table (the
    positional add); r [B, L, d]."""
    kind = draw(st.sampled_from(["residual", "broadcast", "constant"]))
    batch, length, d = sizes(draw, length=(2, 6) if kind == "broadcast" else (1, 6))
    rng = generator(draw)
    shapes = {"residual": [(batch, length, d)], "broadcast": [(length, d), (1, d), (d,)],
              "constant": [(length, d)]}[kind]
    x, r = rng.normal(size=(batch, length, d)), rng.normal(size=(batch, length, d))
    return kind, x, [rng.normal(size=s) for s in shapes], r


@OP_PROPERTY
@given(add_cases())
def test_add_gradients_and_rows(case):
    kind, x, ys, r = case
    if kind == "residual":
        assert_op(T.add, [x, *ys], [], r)
    elif kind == "constant":
        assert_op(lambda x_: T.add(x_, T.Tensor(ys[0])), [x], [], r)
    else:
        def op(x_, table, row, vector):
            return T.add(T.add(T.add(x_, table), row), vector)

        assert_op(op, [x], ys, r)


@st.composite
def scale_cases(draw):
    """x [B, L, d], a factor c and r [B, L, d]."""
    batch, length, d = sizes(draw)
    c = draw(st.floats(-8.0, 8.0, allow_nan=False))
    rng = generator(draw)
    return rng.normal(size=(batch, length, d)), c, rng.normal(size=(batch, length, d))


@OP_PROPERTY
@given(scale_cases())
def test_scale_gradients_and_rows(case):
    x, c, r = case
    assert_op(lambda x_: T.scale(x_, c), [x], [], r)


@st.composite
def reshape_cases(draw):
    """x [B, L, d], the shape each row takes, and r shaped like the output;
    the rows keep the leading axis."""
    batch, length, d = sizes(draw)
    tail = draw(st.sampled_from([(length * d,), (d, length), (length, d, 1), (1, length * d)]))
    rng = generator(draw)
    return rng.normal(size=(batch, length, d)), tail, rng.normal(size=(batch, *tail))


@OP_PROPERTY
@given(reshape_cases())
def test_reshape_gradients_and_rows(case):
    x, tail, r = case
    assert_op(lambda x_: T.reshape(x_, (len(x_.data), *tail)), [x], [], r)
    # the model's own use: [B, L, V] logits flattened to [B * L, V]
    flat = (x.shape[0] * x.shape[1], x.shape[2])
    assert_fd(lambda x_: T.reshape(x_, flat), [x], r.reshape(flat))


@st.composite
def cross_entropy_cases(draw):
    """logits [N, V], targets [N] (repeats allowed) and a weight r."""
    n, vocab = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    rng = generator(draw)
    return 2 * rng.normal(size=(n, vocab)), rng.integers(0, vocab, size=n), rng.normal()


@OP_PROPERTY
@given(cross_entropy_cases())
def test_cross_entropy_gradients_against_log_softmax(case):
    logits, targets, r = case
    r = np.asarray(r)
    assert_fd(T.cross_entropy, [logits], r, [targets])
    out, [grad] = gradients(T.cross_entropy, [logits], r, [targets])
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(len(targets))
    want_grad = np.exp(logp)
    want_grad[rows, targets] -= 1.0
    want_grad *= r / len(targets)
    assert close(out, np.asarray(-logp[rows, targets].mean()))
    assert close(grad, want_grad)
