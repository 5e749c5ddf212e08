"""Autodiff core: per-op gradient oracles, hand-computed cases, tape rules."""

import math
import mmap

import numpy as np
import pytest

from crisisadapt import tensor as T

from conftest import finite_diff_check, leaf_grads

FD_TOL = 1e-6


def fd_rng(tag: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(1000 + tag))


def random_shapes(rng, n=10, max_rank=3, max_dim=5):
    shapes = []
    for _ in range(n):
        rank = int(rng.integers(1, max_rank + 1))
        shapes.append(tuple(int(rng.integers(1, max_dim + 1)) for _ in range(rank)))
    return shapes


def check(f, x: np.ndarray, eps=1e-5) -> float:
    return finite_diff_check(f, T.Tensor(x.astype(np.float64)), eps=eps)


# ---------------------------------------------------------------------------
# Finite-difference oracle per differentiable op, 10 random shapes each


def test_fd_add_sub_mul_with_broadcasting():
    rng = fd_rng(1)
    for i, shape in enumerate(random_shapes(rng)):
        other = T.Tensor(rng.normal(size=shape).astype(np.float64))
        x = rng.normal(size=shape)
        w = T.Tensor(rng.normal(size=shape).astype(np.float64))
        for op in (T.add, T.sub, T.mul):
            err = check(lambda t, op=op: T.sum_all(T.mul(op(t, other), w)), x)
            assert err < FD_TOL, (op.__name__, shape, err)
        # broadcast against a scalar-shaped tensor
        sc = T.Tensor(np.array(1.7))
        err = check(lambda t: T.sum_all(T.mul(T.add(t, sc), w)), x)
        assert err < FD_TOL


def test_fd_broadcast_gradient_through_smaller_operand():
    rng = fd_rng(2)
    big = T.Tensor(rng.normal(size=(4, 3)).astype(np.float64))
    w = T.Tensor(rng.normal(size=(4, 3)).astype(np.float64))
    row = rng.normal(size=(1, 3))
    err = check(lambda t: T.sum_all(T.mul(T.add(big, t), w)), row)
    assert err < FD_TOL
    col = rng.normal(size=(4, 1))
    err = check(lambda t: T.sum_all(T.mul(T.mul(big, t), w)), col)
    assert err < FD_TOL


def test_fd_matmul_2d_and_batched():
    rng = fd_rng(4)
    for i in range(10):
        m, k, n = (int(rng.integers(1, 5)) for _ in range(3))
        a = rng.normal(size=(m, k))
        b = T.Tensor(rng.normal(size=(k, n)).astype(np.float64))
        w = T.Tensor(rng.normal(size=(m, n)).astype(np.float64))
        err = check(lambda t: T.sum_all(T.mul(T.matmul(t, b), w)), a)
        assert err < FD_TOL
        a_t = T.Tensor(a.astype(np.float64))
        err = check(lambda t: T.sum_all(T.mul(T.matmul(a_t, t), w)), rng.normal(size=(k, n)))
        assert err < FD_TOL
    # batched with broadcast over the batch dim
    a = rng.normal(size=(3, 2, 4))
    b = T.Tensor(rng.normal(size=(4, 2)).astype(np.float64))
    w = T.Tensor(rng.normal(size=(3, 2, 2)).astype(np.float64))
    assert check(lambda t: T.sum_all(T.mul(T.matmul(t, b), w)), a) < FD_TOL
    a_t = T.Tensor(a.astype(np.float64))
    assert check(lambda t: T.sum_all(T.mul(T.matmul(a_t, t), w)), b.data.copy()) < FD_TOL


def test_fd_relu_away_from_kinks():
    rng = fd_rng(5)
    for shape in random_shapes(rng):
        x = rng.normal(size=shape)
        x = np.where(np.abs(x) < 0.05, 0.5, x)  # keep eps window clear of 0
        w = T.Tensor(rng.normal(size=shape).astype(np.float64))
        err = check(lambda t: T.sum_all(T.mul(T.relu(t), w)), x)
        assert err < FD_TOL


def test_fd_softmax():
    rng = fd_rng(6)
    for i in range(10):
        rows, cols = int(rng.integers(1, 5)), int(rng.integers(2, 6))
        x = rng.normal(size=(rows, cols)) * 2
        w = T.Tensor(rng.normal(size=(rows, cols)).astype(np.float64))
        err = check(lambda t: T.sum_all(T.mul(T.softmax(t, axis=-1), w)), x)
        assert err < FD_TOL
    # non-default axis
    x = rng.normal(size=(3, 4, 2))
    w = T.Tensor(rng.normal(size=(3, 4, 2)).astype(np.float64))
    assert check(lambda t: T.sum_all(T.mul(T.softmax(t, axis=1), w)), x) < FD_TOL


# Attention over B=2, H=2 heads of width 3, with 3 queries and 5 keys. The
# key-padding bias masks the last two keys of the second example; the
# causal-style bias lets query i see keys 0..i.
ATT_B, ATT_H, ATT_TQ, ATT_TK, ATT_D = 2, 2, 3, 5, 6


def attention_biases():
    mask = np.ones((ATT_B, ATT_TK))
    mask[1, 3:] = 0.0
    key_padding = ((1.0 - mask) * -1e9).astype(np.float32)[:, None, None, :]
    causal = np.triu(np.full((ATT_TQ, ATT_TK), -1e9, dtype=np.float32), k=1)
    return {"key_padding": key_padding, "causal": causal}


def attention_inputs(rng):
    q = rng.normal(size=(ATT_B, ATT_TQ, ATT_D))
    k = rng.normal(size=(ATT_B, ATT_TK, ATT_D))
    v = rng.normal(size=(ATT_B, ATT_TK, ATT_D))
    return q, k, v


def unfused_attention(q, k, v, bias, n_heads):
    """The same attention composed from reshape/transpose/matmul/scale/add/softmax."""
    b, tq, d = q.data.shape
    tk = k.data.shape[1]
    dh = d // n_heads

    def heads(x, t):
        return T.transpose(T.reshape(x, (b, t, n_heads, dh)), (0, 2, 1, 3))

    scores = T.scale(T.matmul(heads(q, tq), T.transpose(heads(k, tk), (0, 1, 3, 2))),
                     1.0 / math.sqrt(dh))
    probs = T.softmax(T.add(scores, T.Tensor(bias)), axis=-1)
    ctx = T.matmul(probs, heads(v, tk))
    return T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, tq, d))


@pytest.mark.parametrize("bias_kind", ["key_padding", "causal"])
def test_attention_matches_unfused_reference_fp64(bias_kind):
    rng = fd_rng(13)
    bias = attention_biases()[bias_kind]
    r = T.Tensor(rng.normal(size=(ATT_B, ATT_TQ, ATT_D)))
    results = []
    for op in (T.attention, unfused_attention):
        q, k, v = (T.Tensor(a, requires_grad=True) for a in attention_inputs(fd_rng(14)))
        with T.Tape() as tape:
            out = op(q, k, v, bias, ATT_H)
            loss = T.sum_all(T.mul(out, r))
        results.append([out.data] + leaf_grads(tape, loss, [q, k, v]))
    for fused, reference in zip(*results):
        np.testing.assert_allclose(fused, reference, rtol=0, atol=1e-12)


def test_attention_masked_probabilities_are_exactly_zero():
    bias = attention_biases()["key_padding"]
    q, k, v = attention_inputs(fd_rng(15))
    out = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v), bias, ATT_H)
    v_changed = v.copy()
    v_changed[1, 3:] = 1e6  # values behind masked keys
    again = T.attention(T.Tensor(q), T.Tensor(k), T.Tensor(v_changed), bias, ATT_H)
    assert np.array_equal(out.data, again.data)


def test_attention_and_linear_shape_errors_name_shapes():
    q, k, v = (T.Tensor(a) for a in attention_inputs(fd_rng(16)))
    bias = attention_biases()["key_padding"]
    with pytest.raises(ValueError, match=r"\(2, 3, 6\) / \(2, 5, 6\) / \(2, 4, 6\)"):
        T.attention(q, k, T.Tensor(np.ones((2, 4, 6))), bias, ATT_H)
    with pytest.raises(ValueError, match=r"\(2, 3, 6\) / \(2, 5, 4\)"):
        T.attention(q, T.Tensor(np.ones((2, 5, 4))), T.Tensor(np.ones((2, 5, 4))), bias, ATT_H)
    with pytest.raises(ValueError, match=r"\(1, 3, 6\) / \(2, 5, 6\)"):
        T.attention(T.Tensor(np.ones((1, 3, 6))), k, v, bias, ATT_H)
    with pytest.raises(ValueError, match=r"bias \(3, 3\) .* scores \(2, 2, 3, 5\)"):
        T.attention(q, k, v, np.zeros((3, 3)), ATT_H)
    with pytest.raises(ValueError, match="6 does not split into 4 heads"):
        T.attention(q, k, v, bias, 4)
    x, w, b = T.Tensor(np.ones((2, 3, 4))), T.Tensor(np.ones((4, 5))), T.Tensor(np.ones(5))
    with pytest.raises(ValueError, match=r"\(2, 3, 4\) / \(5, 4\) / \(5,\)"):
        T.linear(x, T.Tensor(np.ones((5, 4))), b)
    with pytest.raises(ValueError, match=r"\(2, 3, 4\) / \(4, 5\) / \(4,\)"):
        T.linear(x, w, T.Tensor(np.ones(4)))
    with pytest.raises(ValueError, match=r"\(2, 3, 5\) / \(4, 5\) / None"):
        T.linear(T.Tensor(np.ones((2, 3, 5))), w)
    w2, b2 = T.Tensor(np.ones((5, 4))), T.Tensor(np.ones(4))
    with pytest.raises(ValueError, match=r"\(2, 3, 4\) / \(4, 5\) / \(5,\) / \(4, 4\) / \(4,\)"):
        T.feed_forward(x, w, b, T.Tensor(np.ones((4, 4))), b2)
    with pytest.raises(ValueError, match=r"\(2, 3, 4\) / \(4, 5\) / \(4,\) / \(5, 4\) / \(4,\)"):
        T.feed_forward(x, w, T.Tensor(np.ones(4)), w2, b2)
    with pytest.raises(ValueError, match=r"\(2, 3, 5\) / \(4, 5\) / \(5,\) / \(5, 4\) / \(5,\)"):
        T.feed_forward(T.Tensor(np.ones((2, 3, 5))), w, b, w2, T.Tensor(np.ones(5)))
    assert T.feed_forward(x, w, b, w2, b2).data.shape == (2, 3, 4)


@pytest.mark.parametrize("k", [16, 64, 128])
def test_one_row_product_has_the_bits_of_that_row_in_a_batch(k):
    """numpy hands a one-row product to BLAS's matrix-vector kernel, which
    rounds differently from a product of several rows once k reaches 64;
    `linear` and `feed_forward` give a single row its bits in a batch."""
    rng = fd_rng(k)
    x = rng.normal(size=(8, k)).astype(np.float32)
    w, w1, w2 = (T.Tensor(rng.normal(size=s).astype(np.float32))
                 for s in ((k, 4 * k), (k, 4 * k), (4 * k, k)))
    b1, b2 = (T.Tensor(rng.normal(size=n).astype(np.float32)) for n in (4 * k, k))

    def both(rows):
        x = T.Tensor(rows)
        return T.linear(x, w).data, T.feed_forward(x, w1, b1, w2, b2).data

    whole = both(x)
    for i in range(len(x)):
        for got, want in zip(both(x[i : i + 1]), whole):
            assert np.array_equal(got, want[i : i + 1]), i


def test_fd_reshape_transpose():
    rng = fd_rng(9)
    x = rng.normal(size=(3, 4, 2))
    w = T.Tensor(rng.normal(size=(4, 6)).astype(np.float64))
    err = check(lambda t: T.sum_all(T.mul(T.reshape(t, (4, 6)), w)), x)
    assert err < FD_TOL
    w2 = T.Tensor(rng.normal(size=(2, 3, 4)).astype(np.float64))
    err = check(lambda t: T.sum_all(T.mul(T.transpose(t, (2, 0, 1)), w2)), x)
    assert err < FD_TOL


def test_fd_mean_all():
    rng = fd_rng(10)
    x = rng.normal(size=(4, 5))
    assert check(lambda t: T.mean_all(t), x) < FD_TOL


# ---------------------------------------------------------------------------
# Closed-form gradient oracles


def test_grad_sum_is_ones():
    x = T.Tensor(np.arange(12, dtype=np.float64).reshape(3, 4), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(x)
    [g] = leaf_grads(tape, loss, [x])
    assert np.array_equal(g, np.ones((3, 4)))


def test_grad_sum_square_is_2x_exact():
    x_data = np.array([[1.5, -2.0], [0.25, 3.0]])
    x = T.Tensor(x_data, requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(T.mul(x, x))
    [g] = leaf_grads(tape, loss, [x])
    assert np.array_equal(g, 2 * x_data)


def test_grad_matmul_closed_form():
    rng = fd_rng(12)
    a_data = rng.normal(size=(3, 4))
    b_data = rng.normal(size=(4, 2))
    a = T.Tensor(a_data, requires_grad=True)
    b = T.Tensor(b_data, requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(T.matmul(a, b))
    grad_a, grad_b = leaf_grads(tape, loss, [a, b])
    ones = np.ones((3, 2))
    np.testing.assert_allclose(grad_a, ones @ b_data.T, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grad_b, a_data.T @ ones, rtol=1e-12, atol=1e-12)


def test_grad_fanout_accumulates():
    x = T.Tensor(np.array([2.0, 3.0]), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(T.add(T.mul(x, x), x))  # x^2 + x -> grad 2x + 1
    [g] = leaf_grads(tape, loss, [x])
    assert np.array_equal(g, np.array([5.0, 7.0]))


# ---------------------------------------------------------------------------
# Forward-value properties


def test_softmax_rows_sum_to_one():
    rng = fd_rng(13)
    for scale in (1.0, 10.0, 1000.0):
        x = T.softmax(T.Tensor(rng.normal(size=(6, 9)) * scale), axis=-1)
        np.testing.assert_allclose(x.data.sum(axis=-1), 1.0, atol=1e-6)
        assert np.isfinite(x.data).all()


MASKED = -1e9


def test_softmax_mask_penalty_zeroes_positions_exactly():
    logits = np.array([[1.0, 2.0, MASKED], [0.5, MASKED, MASKED]], dtype=np.float32)
    probs = T.softmax(T.Tensor(logits), axis=-1).data
    assert probs[0, 2] == 0.0
    assert probs[1, 1] == 0.0 and probs[1, 2] == 0.0
    assert probs[1, 0] == 1.0
    assert np.isfinite(probs).all()


def test_layer_norm_normalizes_rows():
    rng = fd_rng(14)
    x = rng.normal(size=(5, 16)) * 3 + 7
    gain = T.Tensor(np.ones(16))
    bias = T.Tensor(np.zeros(16))
    y = T.layer_norm(T.Tensor(x), gain, bias).data
    np.testing.assert_allclose(y.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(y.var(axis=-1), 1.0, atol=1e-4)  # 1/N variance, eps


def test_layer_norm_rejects_bad_eps_and_shapes():
    x = T.Tensor(np.ones((2, 4)))
    with pytest.raises(ValueError):
        T.layer_norm(x, T.Tensor(np.ones(3)), T.Tensor(np.zeros(4)))


def test_cross_entropy_hand_case_exact():
    logits = np.array([[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
    targets = np.array([2, 0], dtype=np.int64)
    loss = T.cross_entropy(T.Tensor(logits), targets)
    lse1 = math.log(math.exp(1.0) + math.exp(2.0) + math.exp(3.0))
    lse2 = math.log(3.0)
    expected = ((lse1 - 3.0) + (lse2 - 0.0)) / 2
    assert abs(float(loss.data) - expected) < 1e-12


def test_cross_entropy_large_margin_is_tiny():
    logits = np.zeros((1, 4))
    logits[0, 1] = 20.0
    loss = T.cross_entropy(T.Tensor(logits), np.array([1], dtype=np.int64))
    assert 0.0 < float(loss.data) < 1e-8


def test_cross_entropy_error_cases():
    logits = T.Tensor(np.zeros((2, 3)))
    with pytest.raises(ValueError, match="no target positions"):
        T.cross_entropy(T.Tensor(np.zeros((0, 3))), np.array([], dtype=np.int64))
    with pytest.raises(IndexError):
        T.cross_entropy(logits, np.array([0, 3], dtype=np.int64))
    with pytest.raises(IndexError):
        T.cross_entropy(logits, np.array([0, -100], dtype=np.int64))
    with pytest.raises(ValueError):
        T.cross_entropy(T.Tensor(np.zeros(3)), np.array([0], dtype=np.int64))


# ---------------------------------------------------------------------------
# Tape mechanics


def test_backward_requires_scalar_and_tape_membership():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with T.Tape() as tape:
        y = T.mul(x, x)
    with pytest.raises(ValueError):
        T.backward(tape, y, into={})  # not scalar
    with T.Tape() as other_tape:
        z = T.sum_all(T.mul(x, x))
    with pytest.raises(ValueError, match="not produced under this tape"):
        T.backward(tape, z, into={})


def test_second_backward_on_consumed_tape_raises():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(T.mul(x, x))
    assert np.array_equal(leaf_grads(tape, loss, [x])[0], 2 * np.ones(3))
    assert tape.ops == []
    with pytest.raises(ValueError, match="already consumed"):
        T.backward(tape, loss, into={})


def test_backward_on_a_tape_with_no_ops_raises():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with T.Tape() as tape:
        # no operand requires grad: nothing recorded
        T.mul(T.Tensor(np.ones(3)), T.Tensor(np.array(2.0)))
    assert tape.ops == []
    with pytest.raises(ValueError, match="already consumed"):
        T.backward(tape, T.Tensor(np.float32(1.0)), into={x: np.zeros(3)})


def test_tape_can_be_entered_again_once_it_holds_no_ops():
    """A tape is consumed when its op list is empty: after a backward, and
    also when nothing was recorded under it."""
    tape = T.Tape()
    x = T.Tensor(np.ones((2, 3), np.float32), requires_grad=True)
    with tape:
        loss = T.sum_all(T.scale(x, 2.0))
    T.backward(tape, loss, into={x: np.zeros((2, 3), np.float32)})
    assert tape.ops == []
    with tape:
        T.scale(T.Tensor(np.ones(2, np.float32)), 2.0)  # untracked
    assert tape.ops == []
    with tape:
        pass


def test_no_tracking_outside_tape():
    x = T.Tensor(np.ones(3), requires_grad=True)
    y = T.mul(x, x)  # no active tape: nothing recorded
    with T.Tape() as tape:
        z = T.sum_all(x)
    assert len(tape.ops) == 1
    [g] = leaf_grads(tape, z, [x])
    assert np.array_equal(g, np.ones(3))


def test_gradients_default_to_zeros_for_untouched_tensors():
    x = T.Tensor(np.ones(3), requires_grad=True)
    unused = T.Tensor(np.ones(2), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(x)
    assert np.array_equal(leaf_grads(tape, loss, [x, unused])[1], np.zeros(2))


def test_backward_adds_into_the_callers_arrays_and_returns_nothing():
    x = T.Tensor(np.array([1.0, 2.0]), requires_grad=True)
    unused = T.Tensor(np.ones(2), requires_grad=True)
    into = {x: np.full(2, 10.0), unused: np.full(2, 7.0)}
    with T.Tape() as tape:
        loss = T.sum_all(T.mul(x, x))
    assert T.backward(tape, loss, into=into) is None
    assert into[x].tolist() == [12.0, 14.0]  # 10 + 2x, added in place
    assert into[unused].tolist() == [7.0, 7.0]  # never reached: untouched
    with pytest.raises(TypeError):
        T.backward(T.Tape(), loss)  # `into` is required


def test_backward_twice_is_bitwise_identical():
    rng = fd_rng(15)
    x = T.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(4, 4)), requires_grad=True)

    def run():
        with T.Tape() as tape:
            h = T.relu(T.matmul(x, w))
            loss = T.mean_all(T.mul(h, h))
        return leaf_grads(tape, loss, [w])[0]

    assert np.array_equal(run(), run())


def test_leaf_gets_each_readers_gradient_added_to_its_array_in_walk_order():
    """A table read by two embeddings and a linear, as `embed.weight` is
    read, gets ((base + linear) + second) + first in fp32: each reader's
    contribution goes into its array as the walk reaches it, so the op
    recorded before them already sees the whole sum."""
    rng = fd_rng(40)
    table = T.Tensor(rng.normal(size=(6, 4)).astype(np.float32), requires_grad=True)
    u = T.Tensor(rng.normal(size=(3, 4)).astype(np.float32), requires_grad=True)
    ids1, ids2 = np.array([[0, 2, 2], [5, 1, 0]]), np.array([[3, 3, 4]])
    z = rng.normal(size=(2, 6)).astype(np.float32)
    r1, r2, r3 = (rng.normal(size=s).astype(np.float32) for s in ((2, 3, 4), (1, 3, 4), (2, 4)))
    into = {table: rng.normal(size=(6, 4)).astype(np.float32), u: np.zeros((3, 4), np.float32)}
    base = into[table].copy()
    seen = []

    def bw(g, acc):  # the backward of an op recorded before every reader of `table`
        seen.append(into[table].copy())
        acc(u, g)

    with T.Tape() as tape:
        probe = T._apply(u.data.copy(), (u,), bw)
        e1, e2 = T.embedding(table, ids1), T.embedding(table, ids2)
        y = T.linear(T.Tensor(z), table)
        parts = [T.sum_all(T.mul(t, T.Tensor(r)))
                 for t, r in ((e1, r1), (e2, r2), (y, r3), (probe, np.array(1.0)))]
        loss = T.add(T.add(T.add(parts[0], parts[1]), parts[2]), parts[3])
    T.backward(tape, loss, into=into)

    def scatter(ids, g):
        dt = np.zeros((6, 4), np.float32)
        np.add.at(dt, ids, g)
        return dt

    linear, second, first = z.T @ r3, scatter(ids2, r2), scatter(ids1, r1)
    want = ((base + linear) + second) + first
    assert want.dtype == np.float32
    assert np.array_equal(into[table], want)
    assert len(seen) == 1 and np.array_equal(seen[0], want)
    assert np.array_equal(into[u], np.ones((3, 4), np.float32))
    # the readers' sum added once gives other bits here, so the rule is pinned
    assert not np.array_equal(into[table], base + ((linear + second) + first))


def test_leaf_whose_readers_get_no_gradient_is_untouched():
    rng = fd_rng(41)
    x = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    skipped = T.Tensor(rng.normal(size=(2, 3)), requires_grad=True)
    into = {x: np.full((2, 3), 5.0), skipped: np.full((2, 3), 7.0)}
    with T.Tape() as tape:
        T.scale(skipped, 2.0)  # recorded, but nothing the loss reads
        T.scale(x, 3.0)  # a reader of x outside the loss
        loss = T.sum_all(T.scale(x, 2.0))
    T.backward(tape, loss, into=into)
    assert np.array_equal(into[skipped], np.full((2, 3), 7.0))
    # the reader the walk reached delivers at the end of the walk
    assert np.array_equal(into[x], np.full((2, 3), 7.0))


def test_workspace_reuses_its_region_pass_after_pass_with_the_heap_bits():
    """A tape's memory is reused pass after pass; each pass gives the
    bits of a fresh tape, and the forward output the bits of the same ops
    run outside any tape, on the heap."""
    rng = fd_rng(42)
    x = T.Tensor(rng.normal(size=(3, 5, 8)).astype(np.float32), requires_grad=True)
    w = T.Tensor(rng.normal(size=(8, 8)).astype(np.float32), requires_grad=True)
    gain, bias = (T.Tensor(rng.normal(size=8).astype(np.float32), requires_grad=True)
                  for _ in range(2))

    def forward():
        return T.layer_norm(T.linear(x, w), gain, bias)

    def run(tape):
        with tape:
            out = forward()
            loss = T.sum_all(T.mul(out, out))
        into = {t: np.zeros_like(t.data) for t in (x, w, gain)}
        T.backward(tape, loss, into=into)
        return out.data, into

    untaped = forward().data  # outside any tape: from the heap
    assert not isinstance(untaped.base, mmap.mmap)
    ref_out, ref_grads = run(T.Tape())
    assert ref_out.tobytes() == untaped.tobytes()
    tape = T.Tape()
    addresses = []
    for n in range(4):
        if n == 3:
            tape.release()
        out, grads = run(tape)
        assert isinstance(out.base, mmap.mmap)  # never from the heap
        addresses.append(out.__array_interface__["data"][0])
        assert out.tobytes() == ref_out.tobytes()
        for t, g in grads.items():
            assert g.tobytes() == ref_grads[t].tobytes()
    # the first pass sizes the region, and the passes after it reuse it
    assert addresses[1] == addresses[2]


def test_entering_a_tape_that_still_holds_ops_raises():
    tape = T.Tape()
    x = T.Tensor(np.ones((2, 3), np.float32), requires_grad=True)
    with tape:
        loss = T.sum_all(T.scale(x, 2.0))
    with pytest.raises(ValueError, match="not consumed"):
        with tape:
            pass
    assert not T._ACTIVE
    # the refused entry left the pass as it was
    into = {x: np.zeros((2, 3), np.float32)}
    T.backward(tape, loss, into=into)
    assert np.array_equal(into[x], np.full((2, 3), 2.0, np.float32))
    with tape:
        pass


def test_dropout_zero_rate_is_identity_and_validates():
    x = T.Tensor(np.ones((3, 3)))
    rngs = [np.random.Generator(np.random.PCG64(row)) for row in range(3)]
    assert T.dropout(x, 0.0, rngs, [3, 3, 3]) is x
    with pytest.raises(ValueError):
        T.dropout(x, 1.0, rngs, [3, 3, 3])
    with pytest.raises(ValueError):
        T.dropout(x, -0.1, rngs, [3, 3, 3])
    with pytest.raises(ValueError, match=r"shape \(3, 3\), 2 generators and 3 lengths"):
        T.dropout(x, 0.5, rngs[:2], [3, 3, 3])
    with pytest.raises(ValueError, match=r"shape \(3, 3\), 3 generators and 2 lengths"):
        T.dropout(x, 0.5, rngs, [3, 3])
    with pytest.raises(ValueError, match=r"shape \(3,\)"):
        T.dropout(T.Tensor(np.ones(3)), 0.5, rngs, [1, 1, 1])


def test_dropout_scales_survivors():
    x = T.Tensor(np.ones((100, 100)))
    rng = np.random.Generator(np.random.PCG64(5))
    y = T.dropout(x, 0.25, [rng] * 100, [100] * 100).data
    kept = y[y != 0]
    np.testing.assert_allclose(kept, 1 / 0.75)
    assert 0.70 < (y != 0).mean() < 0.80


@pytest.mark.parametrize("shape, p", [((2, 126, 128), 0.1), ((5, 51, 128), 0.1),
                                      ((16, 22, 64), 0.3)])
def test_dropout_mask_has_the_bits_of_the_float64_expression(shape, p):
    """The float32 scale, rounded once from 1 / (1 - p), equals
    (keep / (1 - p)).astype(float32), which goes through float64."""
    lengths = [shape[1] - 3 * (row % 4) for row in range(shape[0])]

    def gens():
        return [np.random.Generator(np.random.PCG64(row)) for row in range(shape[0])]

    y = T.dropout(T.Tensor(np.ones(shape, np.float32)), p, gens(), lengths).data
    keep = np.zeros(shape, dtype=bool)
    for row, (gen, n) in enumerate(zip(gens(), lengths)):
        keep[row, :n] = gen.random((n, *shape[2:])) >= p
    want = (keep / (1.0 - p)).astype(np.float32)
    assert y.dtype == np.float32 and np.array_equal(y, want)


def test_finite_diff_check_flags_nondeterminism():
    rng = np.random.Generator(np.random.PCG64(7))

    def noisy(t):
        return T.sum_all(T.dropout(t, 0.5, [rng, rng], [4, 4]))

    with pytest.raises(ValueError, match="non-deterministic"):
        finite_diff_check(noisy, T.Tensor(np.ones((2, 4))), eps=1e-5)


def test_finite_diff_check_validates_inputs():
    with pytest.raises(ValueError):
        finite_diff_check(lambda t: T.sum_all(t), T.Tensor(np.ones(2)), eps=0.0)
    with pytest.raises(ValueError, match="scalar"):
        finite_diff_check(lambda t: t, T.Tensor(np.ones(2)))


def test_matmul_shape_errors_name_shapes():
    a = T.Tensor(np.ones((2, 3)))
    b = T.Tensor(np.ones((4, 2)))
    with pytest.raises(ValueError, match="3"):
        T.matmul(a, b)
    with pytest.raises(ValueError):
        T.matmul(T.Tensor(np.ones(3)), T.Tensor(np.ones(3)))


def test_embedding_bounds_checked():
    table = T.Tensor(np.ones((4, 2)))
    with pytest.raises(IndexError):
        T.embedding(table, np.array([0, 4], dtype=np.int64))
    with pytest.raises(IndexError):
        T.embedding(table, np.array([-1], dtype=np.int64))
