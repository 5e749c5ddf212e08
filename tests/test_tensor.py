"""Autodiff core: per-op gradient oracles, hand-computed cases, tape rules."""

import math

import numpy as np
import pytest

from crisisadapt import tensor as T

from conftest import finite_diff_check, grad_of

FD_TOL = 1e-6
# Per-coordinate relative error is noisy when a true gradient coordinate is
# ~1e-5: central differences at eps=1e-5 bottom out near 1e-11 absolute. A
# wrong gradient still shows as O(1) relative error, so 5e-6 loses nothing.
NEAR_ZERO_TOL = 5e-6


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


def test_fd_scale():
    rng = fd_rng(3)
    for shape in random_shapes(rng):
        x = rng.normal(size=shape)
        err = check(lambda t: T.sum_all(T.scale(t, -2.5)), x)
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


def test_fd_layer_norm_x_gain_bias():
    rng = fd_rng(7)
    for i in range(10):
        rows, dim = int(rng.integers(1, 5)), int(rng.integers(2, 8))
        x = rng.normal(size=(rows, dim))
        gain = T.Tensor(rng.normal(size=(dim,)).astype(np.float64))
        bias = T.Tensor(rng.normal(size=(dim,)).astype(np.float64))
        w = T.Tensor(rng.normal(size=(rows, dim)).astype(np.float64))
        err = check(lambda t: T.sum_all(T.mul(T.layer_norm(t, gain, bias), w)), x)
        assert err < NEAR_ZERO_TOL, ("x", err)
        x_t = T.Tensor(x)
        err = check(
            lambda t: T.sum_all(T.mul(T.layer_norm(x_t, t, bias), w)), gain.data.copy()
        )
        assert err < NEAR_ZERO_TOL, ("gain", err)
        err = check(
            lambda t: T.sum_all(T.mul(T.layer_norm(x_t, gain, t), w)), bias.data.copy()
        )
        assert err < NEAR_ZERO_TOL, ("bias", err)


def test_fd_linear_3d_input_x_weight_bias():
    rng = fd_rng(11)
    x = rng.normal(size=(2, 3, 4))
    w = rng.normal(size=(4, 5))
    b = rng.normal(size=(5,))
    r = T.Tensor(rng.normal(size=(2, 3, 5)))
    x_t, w_t, b_t = T.Tensor(x), T.Tensor(w), T.Tensor(b)
    assert check(lambda t: T.sum_all(T.mul(T.linear(t, w_t, b_t), r)), x) < FD_TOL
    assert check(lambda t: T.sum_all(T.mul(T.linear(x_t, t, b_t), r)), w) < FD_TOL
    assert check(lambda t: T.sum_all(T.mul(T.linear(x_t, w_t, t), r)), b) < FD_TOL
    # without a bias: the bias-free projections of attention
    assert check(lambda t: T.sum_all(T.mul(T.linear(t, w_t), r)), x) < FD_TOL
    assert check(lambda t: T.sum_all(T.mul(T.linear(x_t, t), r)), w) < FD_TOL


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
    b, tq, d = q.shape
    tk = k.shape[1]
    dh = d // n_heads

    def heads(x, t):
        return T.transpose(T.reshape(x, (b, t, n_heads, dh)), (0, 2, 1, 3))

    scores = T.scale(T.matmul(heads(q, tq), T.transpose(heads(k, tk), (0, 1, 3, 2))),
                     1.0 / math.sqrt(dh))
    probs = T.softmax(T.add(scores, T.Tensor(bias)), axis=-1)
    ctx = T.matmul(probs, heads(v, tk))
    return T.reshape(T.transpose(ctx, (0, 2, 1, 3)), (b, tq, d))


@pytest.mark.parametrize("bias_kind", ["key_padding", "causal"])
def test_fd_attention_q_k_v(bias_kind):
    rng = fd_rng(12)
    bias = attention_biases()[bias_kind]
    q, k, v = attention_inputs(rng)
    r = T.Tensor(rng.normal(size=(ATT_B, ATT_TQ, ATT_D)))
    q_t, k_t, v_t = T.Tensor(q), T.Tensor(k), T.Tensor(v)

    def loss(q_, k_, v_):
        return T.sum_all(T.mul(T.attention(q_, k_, v_, bias, ATT_H), r))

    assert check(lambda t: loss(t, k_t, v_t), q) < FD_TOL
    assert check(lambda t: loss(q_t, t, v_t), k) < FD_TOL
    assert check(lambda t: loss(q_t, k_t, t), v) < FD_TOL


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
        grads = T.backward(tape, loss)
        results.append([out.data] + [grad_of(grads, t) for t in (q, k, v)])
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
    assert T.feed_forward(x, w, b, w2, b2).shape == (2, 3, 4)


def test_fd_embedding_with_repeated_ids():
    rng = fd_rng(8)
    table = rng.normal(size=(7, 4))
    ids = np.array([0, 3, 3, 6, 0], dtype=np.int64)
    w = T.Tensor(rng.normal(size=(5, 4)).astype(np.float64))
    err = check(lambda t: T.sum_all(T.mul(T.embedding(t, ids), w)), table)
    assert err < FD_TOL


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


def test_fd_cross_entropy_logits():
    rng = fd_rng(11)
    for i in range(10):
        pos, v = int(rng.integers(1, 6)), int(rng.integers(2, 8))
        logits = rng.normal(size=(pos, v)) * 2
        targets = rng.integers(0, v, size=pos).astype(np.int64)
        err = check(lambda t: T.cross_entropy(t, targets), logits)
        assert err < NEAR_ZERO_TOL


# ---------------------------------------------------------------------------
# Closed-form gradient oracles


def test_grad_sum_is_ones():
    x = T.Tensor(np.arange(12, dtype=np.float64).reshape(3, 4), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(x)
    g = grad_of(T.backward(tape, loss), x)
    assert np.array_equal(g, np.ones((3, 4)))


def test_grad_sum_square_is_2x_exact():
    x_data = np.array([[1.5, -2.0], [0.25, 3.0]])
    x = T.Tensor(x_data, requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(T.mul(x, x))
    g = grad_of(T.backward(tape, loss), x)
    assert np.array_equal(g, 2 * x_data)


def test_grad_matmul_closed_form():
    rng = fd_rng(12)
    a_data = rng.normal(size=(3, 4))
    b_data = rng.normal(size=(4, 2))
    a = T.Tensor(a_data, requires_grad=True)
    b = T.Tensor(b_data, requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(T.matmul(a, b))
    grads = T.backward(tape, loss)
    ones = np.ones((3, 2))
    np.testing.assert_allclose(grad_of(grads, a), ones @ b_data.T, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(grad_of(grads, b), a_data.T @ ones, rtol=1e-12, atol=1e-12)


def test_grad_fanout_accumulates():
    x = T.Tensor(np.array([2.0, 3.0]), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(T.add(T.mul(x, x), x))  # x^2 + x -> grad 2x + 1
    g = grad_of(T.backward(tape, loss), x)
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
        T.backward(tape, y)  # not scalar
    with T.Tape() as other_tape:
        z = T.sum_all(T.mul(x, x))
    with pytest.raises(ValueError, match="not produced under this tape"):
        T.backward(tape, z)


def test_second_backward_on_consumed_tape_raises():
    x = T.Tensor(np.ones(3), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(T.mul(x, x))
    assert np.array_equal(grad_of(T.backward(tape, loss), x), 2 * np.ones(3))
    assert tape.ops == []
    with pytest.raises(ValueError, match="already consumed"):
        T.backward(tape, loss)


def test_no_tracking_outside_tape():
    x = T.Tensor(np.ones(3), requires_grad=True)
    y = T.mul(x, x)  # no active tape: nothing recorded
    with T.Tape() as tape:
        z = T.sum_all(x)
    assert len(tape.ops) == 1
    g = grad_of(T.backward(tape, z), x)
    assert np.array_equal(g, np.ones(3))


def test_gradients_default_to_zeros_for_untouched_tensors():
    x = T.Tensor(np.ones(3), requires_grad=True)
    unused = T.Tensor(np.ones(2), requires_grad=True)
    with T.Tape() as tape:
        loss = T.sum_all(x)
    grads = T.backward(tape, loss)
    assert np.array_equal(grad_of(grads, unused), np.zeros(2))


def test_backward_twice_is_bitwise_identical():
    rng = fd_rng(15)
    x = T.Tensor(rng.normal(size=(4, 4)), requires_grad=True)
    w = T.Tensor(rng.normal(size=(4, 4)), requires_grad=True)

    def run():
        with T.Tape() as tape:
            h = T.relu(T.matmul(x, w))
            loss = T.mean_all(T.mul(h, h))
        return grad_of(T.backward(tape, loss), w).copy()

    assert np.array_equal(run(), run())


def test_non_float_input_coerced_to_float32():
    t = T.Tensor(np.array([1, 2, 3]))
    assert t.data.dtype == np.float32


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
