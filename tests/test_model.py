"""Transformer model: shapes, determinism, masking, decoding, gradients."""

import numpy as np
import pytest

import crisisadapt.tensor as T
from crisisadapt.model import (
    MASK_PENALTY,
    ModelConfig,
    ParameterStore,
    decode_logits,
    encode_source,
    example_loss,
    generate_greedy,
    init_params,
    named_config,
    score_sequence,
    shift_right,
)
from crisisadapt.tokenizer import EOS, PAD


def small_config(**overrides):
    base = dict(
        vocab_size=50, d_model=16, n_heads=2, d_ff=32,
        n_enc_layers=1, n_dec_layers=1, dropout=0.0,
        max_src_len=16, max_tgt_len=8,
    )
    return ModelConfig(**(base | overrides))


SRC = np.array([4, 9, 17, 33, 2, 7, 41, 28, 13, 6], dtype=np.int64)
MASK = np.ones(len(SRC), dtype=np.float32)
TGT = np.array([12, 7, 30, EOS], dtype=np.int64)


# ---------------------------------------------------------------------------
# Config validation and presets


def test_config_validation():
    with pytest.raises(ValueError, match="specials"):
        small_config(vocab_size=2)
    with pytest.raises(ValueError, match="divisible"):
        small_config(d_model=16, n_heads=3)
    with pytest.raises(ValueError, match="positive"):
        small_config(d_ff=0)
    with pytest.raises(ValueError, match="positive"):
        small_config(n_enc_layers=0)
    with pytest.raises(ValueError, match="dropout"):
        small_config(dropout=1.0)
    with pytest.raises(ValueError, match="dropout"):
        small_config(dropout=-0.1)
    assert small_config(dropout=0.0).head_dim == 8


def test_named_config_presets():
    tiny = named_config("tiny", vocab_size=100)
    assert (tiny.d_model, tiny.n_heads, tiny.d_ff) == (64, 4, 256)
    assert (tiny.n_enc_layers, tiny.n_dec_layers) == (2, 2)
    mini = named_config("mini", vocab_size=100)
    assert (mini.d_model, mini.n_heads, mini.d_ff) == (128, 4, 512)
    assert (mini.n_enc_layers, mini.n_dec_layers) == (4, 4)
    over = named_config("tiny", vocab_size=100, dropout=0.0, d_model=32)
    assert over.d_model == 32 and over.dropout == 0.0
    with pytest.raises(ValueError, match="unknown model size"):
        named_config("huge", vocab_size=100)


# ---------------------------------------------------------------------------
# Parameter store: init, naming, partition, counting


def test_init_deterministic_and_seed_sensitive():
    cfg = small_config()
    a, b = init_params(cfg, 9), init_params(cfg, 9)
    assert a.names() == b.names()
    for name in a.names():
        assert a[name].data.dtype == np.float32
        assert np.array_equal(a[name].data, b[name].data), name
    c = init_params(cfg, 10)
    assert any(not np.array_equal(a[n].data, c[n].data) for n in a.names())


def test_init_values_by_role():
    params = init_params(small_config(), 3)
    for name in params.names():
        arr = params[name].data
        if name.endswith(".gain"):
            assert np.array_equal(arr, np.ones_like(arr)), name
        elif name.endswith(".bias"):
            assert np.array_equal(arr, np.zeros_like(arr)), name
        else:
            assert arr.std() < 0.1, name  # N(0, 0.02) draws stay small


def test_attention_projections_have_no_bias():
    params = init_params(small_config(), 0)
    attn_bias = [n for n in params.names()
                 if ("self_attn" in n or "cross_attn" in n)
                 and n.endswith(".bias") and ".ln." not in n]
    assert attn_bias == []


def closed_form_count(cfg: ModelConfig) -> int:
    d, ff, v = cfg.d_model, cfg.d_ff, cfg.vocab_size
    attn = 4 * d * d + 2 * d  # four projections plus layer norm
    ffn = d * ff + ff + ff * d + d + 2 * d
    enc = cfg.n_enc_layers * (attn + ffn) + 2 * d
    dec = cfg.n_dec_layers * (2 * attn + ffn) + 2 * d
    return v * d + enc + dec + d * v + v


def test_parameter_count_closed_form():
    for cfg in (small_config(), named_config("tiny", vocab_size=120),
                small_config(n_enc_layers=3, n_dec_layers=2, d_ff=48)):
        assert init_params(cfg, 0).size() == closed_form_count(cfg)


def test_partition_split():
    params = init_params(small_config(), 1)
    enc = set(params.partition_names("encoder"))
    dec = set(params.partition_names("decoder"))
    assert enc | dec == set(params.names())
    assert not (enc & dec)
    assert "embed.weight" in enc
    assert "enc.final_ln.gain" in enc
    assert all(n.startswith(("dec.", "out_proj.")) for n in dec)
    assert "out_proj.bias" in dec
    with pytest.raises(ValueError, match="unknown partition"):
        params.partition_names("middle")


def test_load_arrays_shape_check():
    params = init_params(small_config(), 1)
    arrays = {n: a.copy() for n, a in params.arrays().items()}
    arrays["embed.weight"] = arrays["embed.weight"][:, :4]
    with pytest.raises(ValueError):
        params.load_arrays(arrays)


# ---------------------------------------------------------------------------
# Forward-pass structure: masking, causality, input checks


def test_pad_extension_leaves_logits_bitwise_identical():
    cfg = small_config()
    params = init_params(cfg, 7)
    dec_in = [PAD, 12, 7]
    base = decode_logits(params, encode_source(params, SRC[:5], MASK[:5], cfg),
                         MASK[:5], dec_in, cfg).data
    src2 = np.concatenate([SRC[:5], [PAD, PAD, PAD]])
    mask2 = np.concatenate([MASK[:5], np.zeros(3, dtype=np.float32)])
    ext = decode_logits(params, encode_source(params, src2, mask2, cfg),
                        mask2, dec_in, cfg).data
    assert np.array_equal(base, ext)


def test_causal_mask_is_bitwise():
    cfg = small_config()
    params = init_params(cfg, 7)
    enc = encode_source(params, SRC, MASK, cfg)
    a = decode_logits(params, enc, MASK, [PAD, 12, 7], cfg).data
    b = decode_logits(params, enc, MASK, [PAD, 12, 40], cfg).data
    assert np.array_equal(a[:2], b[:2])
    assert not np.array_equal(a[2], b[2])


def test_source_input_validation():
    cfg = small_config()
    params = init_params(cfg, 0)
    with pytest.raises(ValueError, match="no attendable source positions"):
        encode_source(params, SRC, np.zeros_like(MASK), cfg)
    with pytest.raises(ValueError, match="aligned 1-D"):
        encode_source(params, SRC, MASK[:4], cfg)
    with pytest.raises(ValueError, match="exceeds limit"):
        long_src = np.arange(3, 3 + cfg.max_src_len + 1, dtype=np.int64)
        encode_source(params, long_src, np.ones(len(long_src), np.float32), cfg)
    with pytest.raises(ValueError, match="needs an rng"):
        encode_source(params, SRC, MASK, small_config(dropout=0.5), train=True)


def test_decoder_input_validation():
    cfg = small_config()
    params = init_params(cfg, 0)
    enc = encode_source(params, SRC, MASK, cfg)
    with pytest.raises(ValueError, match="non-empty"):
        decode_logits(params, enc, MASK, [], cfg)
    with pytest.raises(ValueError, match="exceeds limit"):
        decode_logits(params, enc, MASK, [PAD] * (cfg.max_tgt_len + 2), cfg)
    with pytest.raises(ValueError, match=r"src_mask shape \(1,\) .* \(10, 16\)"):
        decode_logits(params, enc, MASK[:1], [PAD], cfg)
    with pytest.raises(ValueError, match="differ in batch"):
        decode_logits(params, T.reshape(enc, (1, 10, 16)), MASK[None], [PAD], cfg)


def test_logits_shape_and_finiteness():
    cfg = small_config()
    params = init_params(cfg, 5)
    enc = encode_source(params, SRC, MASK, cfg)
    logits = decode_logits(params, enc, MASK, [PAD, 12, 7], cfg).data
    assert logits.shape == (3, cfg.vocab_size)
    assert np.isfinite(logits).all()
    assert np.isfinite(enc.data).all()
    assert MASK_PENALTY == -1e9


# ---------------------------------------------------------------------------
# Decoding


def test_shift_right():
    assert shift_right([5, 6, EOS]).tolist() == [PAD, 5, 6]
    assert shift_right([EOS]).tolist() == [PAD]
    with pytest.raises(ValueError):
        shift_right([])
    with pytest.raises(ValueError):
        shift_right([[1, 2]])


def rigged_params(cfg, favored: dict[int, float]):
    """Force out_proj logits so decoding is controlled by `favored` biases."""
    params = init_params(cfg, 0)
    w = params["out_proj.weight"].data
    b = params["out_proj.bias"].data
    w[...] = 0.0
    b[...] = -10.0
    for tok, bias in favored.items():
        b[tok] = bias
    return params


def test_greedy_stops_at_eos():
    cfg = small_config()
    params = rigged_params(cfg, {EOS: 10.0})
    out = generate_greedy(params, SRC, MASK, cfg)
    assert out == [EOS]


def test_greedy_respects_max_steps():
    cfg = small_config()
    params = rigged_params(cfg, {7: 10.0})
    out = generate_greedy(params, SRC, MASK, cfg, max_steps=3)
    assert out == [7, 7, 7]
    full = generate_greedy(params, SRC, MASK, cfg)
    assert len(full) == cfg.max_tgt_len
    with pytest.raises(ValueError, match="positive"):
        generate_greedy(params, SRC, MASK, cfg, max_steps=0)


def test_greedy_tie_breaks_to_lowest_id():
    cfg = small_config()
    params = rigged_params(cfg, {6: 10.0, 5: 10.0})
    # identical weights and biases make the two logits bitwise equal
    out = generate_greedy(params, SRC, MASK, cfg, max_steps=2)
    assert out == [5, 5]


def test_score_sequence_matches_log_softmax_sum():
    cfg = small_config()
    params = init_params(cfg, 13)
    got = score_sequence(params, SRC, MASK, TGT, cfg)
    enc = encode_source(params, SRC, MASK, cfg)
    logits = decode_logits(params, enc, MASK, shift_right(TGT), cfg).data
    logz = np.logaddexp.reduce(logits.astype(np.float64), axis=1)
    want = sum(float(logits[i, t]) - float(logz[i]) for i, t in enumerate(TGT))
    # the model sums log-probs in fp32, the oracle in fp64
    assert got == pytest.approx(want, rel=1e-6)
    assert got < 0.0


def test_score_sequence_requires_eos():
    cfg = small_config()
    params = init_params(cfg, 13)
    with pytest.raises(ValueError, match="end token"):
        score_sequence(params, SRC, MASK, [12, 7], cfg)
    with pytest.raises(ValueError, match="end token"):
        score_sequence(params, SRC, MASK, [], cfg)


# ---------------------------------------------------------------------------
# Gradients through the whole model
#
# Micro model (about 900 parameters), seed and weight scale chosen so the
# smallest nonzero gradient coordinate sits well above the finite-difference
# noise floor. The fp32 backward pass is compared against central
# differences computed on the exact fp64 twin of the same function, since
# differencing an fp32-evaluated function has a noise floor far above the
# fp32 tolerance itself.

MICRO = ModelConfig(vocab_size=8, d_model=4, n_heads=1, d_ff=8,
                    n_enc_layers=1, n_dec_layers=1, dropout=0.0,
                    max_src_len=8, max_tgt_len=4)
MICRO_SRC = np.array([3, 5, 7, 2, 6], dtype=np.int64)
MICRO_MASK = np.ones(5, dtype=np.float32)
MICRO_TGT = np.array([4, EOS], dtype=np.int64)
MICRO_SEED, MICRO_SCALE = 116, 24.0


def micro_params(dtype):
    params = init_params(MICRO, MICRO_SEED)
    for name in params.names():
        arr = params[name].data.astype(np.float64)
        if name.endswith(".weight"):
            arr = arr * MICRO_SCALE
        params[name].data = arr if dtype == np.float64 else arr.astype(np.float32)
    return params


def micro_loss_fn(params, name):
    def f(t):
        saved = params._params[name]
        params._params[name] = t
        try:
            return example_loss(params, MICRO_SRC, MICRO_MASK, MICRO_TGT, MICRO)
        finally:
            params._params[name] = saved
    return f


def numeric_gradient(params, name, eps):
    base = params[name].data
    f = micro_loss_fn(params, name)
    flat = base.copy().reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(f(T.Tensor(flat.reshape(base.shape))).data)
        flat[i] = orig - eps
        lo = float(f(T.Tensor(flat.reshape(base.shape))).data)
        flat[i] = orig
        numeric[i] = (hi - lo) / (2 * eps)
    return numeric.reshape(base.shape)


def test_full_model_gradient_fp64():
    params = micro_params(np.float64)
    worst = 0.0
    for name in params.names():
        err = T.finite_diff_check(micro_loss_fn(params, name), params[name], eps=1e-5)
        worst = max(worst, err)
    assert worst < 1e-6, worst


def test_full_model_gradient_fp32():
    p32 = micro_params(np.float32)
    p64 = micro_params(np.float64)
    with T.Tape() as tape:
        loss = example_loss(p32, MICRO_SRC, MICRO_MASK, MICRO_TGT, MICRO)
    grads = T.backward(tape, loss)
    worst = 0.0
    for name in p32.names():
        analytic = grads.of(p32[name]).astype(np.float64)
        numeric = numeric_gradient(p64, name, eps=3e-5)
        rel = np.abs(analytic - numeric) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-3, worst


def test_example_loss_positive_scalar():
    cfg = small_config()
    params = init_params(cfg, 2)
    loss = example_loss(params, SRC, MASK, TGT, cfg)
    assert loss.data.shape == ()
    assert float(loss.data) > 0.0
