"""Transformer model: shapes, determinism, masking, decoding, gradients."""

from dataclasses import replace

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
from crisisadapt.train import pad_sources

from conftest import assert_views_of, finite_diff_check, leaf_grads


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
    with pytest.raises(ValueError, match="positive"):
        small_config(max_tgt_len=0)
    with pytest.raises(ValueError, match="dropout"):
        small_config(dropout=1.0)
    with pytest.raises(ValueError, match="dropout"):
        small_config(dropout=-0.1)
    with pytest.raises(ValueError, match="d_model must be an integer, got 16.0"):
        small_config(d_model=16.0)
    with pytest.raises(ValueError, match="n_heads must be an integer, got True"):
        small_config(n_heads=True)
    with pytest.raises(ValueError, match="dropout must be a number, got None"):
        small_config(dropout=None)
    cfg = small_config(dropout=0.0)
    assert cfg.d_model // cfg.n_heads == 8
    assert small_config(vocab_size=np.int64(12), dropout=0).vocab_size == 12


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
# Parameter store: init, naming, counting


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
        params = init_params(cfg, 0)
        assert sum(t.data.size for _, t in params.items()) == closed_form_count(cfg)


def test_load_arrays_shape_check():
    params = init_params(small_config(), 1)
    arrays = {n: a.copy() for n, a in params.arrays().items()}
    arrays["embed.weight"] = arrays["embed.weight"][:, :4]
    with pytest.raises(ValueError):
        params.load_arrays(arrays)


def test_parameters_are_views_into_one_flat_vector():
    params = init_params(small_config(), 4)
    assert params.flat.dtype == np.float32
    assert_views_of(params.arrays(), params.flat, params.names())
    params.flat[0] = 7.0
    assert params["embed.weight"].data[0, 0] == 7.0


def test_load_arrays_copies_into_the_flat_vector():
    params = init_params(small_config(), 1)
    other = init_params(small_config(), 2)
    params.load_arrays({n: a.astype(np.float64) for n, a in other.arrays().items()})
    assert_views_of(params.arrays(), params.flat, params.names())
    assert np.array_equal(params.flat, other.flat)


def test_mixed_dtype_store_raises_naming_the_tensors():
    tensors = {"a": T.Tensor(np.zeros(2, np.float32)), "b": T.Tensor(np.zeros(3, np.float64)),
               "c": T.Tensor(np.zeros(1, np.float32))}
    with pytest.raises(ValueError, match=r"float32 \(a, c\); float64 \(b\)"):
        ParameterStore(tensors)


def test_fp64_store_holds_one_fp64_vector():
    wide = ParameterStore({n: T.Tensor(a.astype(np.float64), requires_grad=True, name=n)
                           for n, a in init_params(small_config(), 5).arrays().items()})
    assert wide.flat.dtype == np.float64
    assert_views_of(wide.arrays(), wide.flat, wide.names())
    with pytest.raises(ValueError, match="flat buffer"):
        wide.views(np.zeros(3))


# ---------------------------------------------------------------------------
# Forward-pass structure: masking, causality, input checks


def test_pad_extension_leaves_logits_bitwise_identical():
    cfg = small_config()
    params = init_params(cfg, 7)
    dec_in = [[PAD, 12, 7]]
    base = decode_logits(params, encode_source(params, SRC[None, :5], MASK[None, :5], cfg),
                         dec_in, cfg).data
    src2 = np.concatenate([SRC[:5], [PAD, PAD, PAD]])[None]
    mask2 = np.concatenate([MASK[:5], np.zeros(3, dtype=np.float32)])[None]
    ext = decode_logits(params, encode_source(params, src2, mask2, cfg), dec_in, cfg).data
    assert np.array_equal(base, ext)


@pytest.mark.parametrize("layers", [1, 2])
def test_padding_leaves_states_and_logits_bitwise_identical(layers):
    """Right-padding a source to any width up to max_src_len leaves each
    decoder layer's cross-attention keys and values at its real positions
    and the decoder logits bitwise equal: attention's softmax sums run in
    key order, and the masked keys add exact zeros at the end."""
    cfg = small_config(n_enc_layers=layers, n_dec_layers=layers)
    dec_in = [[PAD, 12, 7]]
    cases = 0
    for seed in range(8):
        params = init_params(cfg, seed)
        for name in params.names():
            if name.endswith(".weight"):  # large enough that states depend on the source
                params[name].data *= 50.0
        for n in range(1, len(SRC) + 1):
            ids, mask = SRC[None, :n], MASK[None, :n]
            mem = encode_source(params, ids, mask, cfg)
            logits = decode_logits(params, mem, dec_in, cfg).data
            for width in range(n + 1, cfg.max_src_len + 1):
                ids_w = np.concatenate([SRC[:n], np.full(width - n, PAD)])[None]
                mask_w = np.concatenate([MASK[:n], np.zeros(width - n, dtype=np.float32)])[None]
                mem_w = encode_source(params, ids_w, mask_w, cfg)
                for kv, kv_w in zip(mem.kv, mem_w.kv, strict=True):
                    for a, a_w in zip(kv, kv_w):
                        assert np.array_equal(a_w.data[:, :n], a.data), (seed, n, width)
                got = decode_logits(params, mem_w, dec_in, cfg)
                assert np.array_equal(got.data, logits), (seed, n, width)
                cases += 1
    assert cases == 840


def test_causal_mask_is_bitwise():
    cfg = small_config()
    params = init_params(cfg, 7)
    mem = encode_source(params, SRC[None], MASK[None], cfg)
    a = decode_logits(params, mem, [[PAD, 12, 7]], cfg).data[0]
    b = decode_logits(params, mem, [[PAD, 12, 40]], cfg).data[0]
    assert np.array_equal(a[:2], b[:2])
    assert not np.array_equal(a[2], b[2])


def test_source_input_validation():
    cfg = small_config()
    params = init_params(cfg, 0)
    with pytest.raises(ValueError, match="no attendable source positions"):
        encode_source(params, SRC[None], np.zeros_like(MASK)[None], cfg)
    with pytest.raises(ValueError, match="aligned"):
        encode_source(params, SRC[None], MASK[None, :4], cfg)
    with pytest.raises(ValueError, match="exceeds limit"):
        long_src = np.arange(3, 3 + cfg.max_src_len + 1, dtype=np.int64)[None]
        encode_source(params, long_src, np.ones(long_src.shape, np.float32), cfg)


def test_decoder_input_validation():
    cfg = small_config()
    params = init_params(cfg, 0)
    mem = encode_source(params, SRC[None], MASK[None], cfg)
    with pytest.raises(ValueError, match="non-empty"):
        decode_logits(params, mem, [[]], cfg)
    with pytest.raises(ValueError, match="exceeds limit"):
        decode_logits(params, mem, [[PAD] * (cfg.max_tgt_len + 2)], cfg)
    with pytest.raises(ValueError, match="differ in batch"):
        decode_logits(params, mem, [[PAD], [PAD]], cfg)


def test_entry_points_reject_1d_inputs():
    cfg = small_config()
    params = init_params(cfg, 0)
    mem = encode_source(params, SRC[None], MASK[None], cfg)
    with pytest.raises(ValueError, match=r"got \(10,\) / \(10,\)"):
        encode_source(params, SRC, MASK, cfg)
    with pytest.raises(ValueError, match=r"decoder input .* got shape \(2,\)"):
        decode_logits(params, mem, [PAD, 12], cfg)
    with pytest.raises(ValueError, match=r"targets .* got shape \(4,\)"):
        example_loss(params, SRC[None], MASK[None], TGT, cfg)
    with pytest.raises(ValueError, match=r"targets .* got shape \(4,\)"):
        shift_right(TGT)
    with pytest.raises(ValueError, match=r"targets .* got shape \(4,\)"):
        score_sequence(params, mem, TGT, cfg)


def test_logits_shape_and_finiteness():
    cfg = small_config()
    params = init_params(cfg, 5)
    mem = encode_source(params, SRC[None], MASK[None], cfg)
    logits = decode_logits(params, mem, [[PAD, 12, 7]], cfg).data
    assert logits.shape == (1, 3, cfg.vocab_size)
    assert np.isfinite(logits).all()
    assert len(mem.kv) == cfg.n_dec_layers
    assert all(np.isfinite(a.data).all() for kv in mem.kv for a in kv)
    assert MASK_PENALTY == -1e9


# ---------------------------------------------------------------------------
# Decoding


def test_shift_right():
    assert shift_right([[5, 6, EOS]]).tolist() == [[PAD, 5, 6]]
    assert shift_right([[5, 6, EOS], [7, 8, 9]]).tolist() == [[PAD, 5, 6], [PAD, 7, 8]]
    assert shift_right([[EOS]]).tolist() == [[PAD]]
    with pytest.raises(ValueError):
        shift_right([[]])
    with pytest.raises(ValueError):
        shift_right([5, 6])


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
    out = generate_greedy(params, encode_source(params, SRC[None], MASK[None], cfg), cfg, [[12]])
    assert out == [[EOS]]


def test_greedy_stops_at_max_tgt_len():
    for limit in (3, 8):
        cfg = small_config(max_tgt_len=limit)
        params = rigged_params(cfg, {7: 10.0})
        mem = encode_source(params, SRC[None], MASK[None], cfg)
        assert generate_greedy(params, mem, cfg, [[7] * 9]) == [[7] * limit]


def test_greedy_tie_breaks_to_lowest_id():
    cfg = small_config(max_tgt_len=2)
    params = rigged_params(cfg, {6: 10.0, 5: 10.0})
    # identical weights and biases make the two logits bitwise equal
    out = generate_greedy(params, encode_source(params, SRC[None], MASK[None], cfg), cfg, [[5, 5]])
    assert out == [[5, 5]]


def test_greedy_stops_once_output_cannot_be_accepted():
    cfg = small_config()
    params = rigged_params(cfg, {7: 10.0})
    mem = encode_source(params, SRC[None], MASK[None], cfg)
    # the first token already leaves every accepted sequence
    assert generate_greedy(params, mem, cfg, [[12], [5, 7]]) == [[7]]
    # the second token does: [7, 7] is no prefix of [7, 12]
    assert generate_greedy(params, mem, cfg, [[7, 12]]) == [[7, 7]]
    assert generate_greedy(params, mem, cfg, []) == [[7]]


def test_greedy_drops_pads_before_matching_accepted_sequences():
    # PADs never leave an accepted prefix, so a PAD-emitting model decodes
    # to the length limit even when only [12] is accepted
    cfg = small_config(max_tgt_len=5)
    params = rigged_params(cfg, {PAD: 10.0})
    mem = encode_source(params, SRC[None], MASK[None], cfg)
    assert generate_greedy(params, mem, cfg, [[12]]) == [[PAD] * 5]


def test_score_sequence_matches_log_softmax_sum():
    cfg = small_config()
    params = init_params(cfg, 13)
    mem = encode_source(params, SRC[None], MASK[None], cfg)
    [[got]] = score_sequence(params, mem, TGT[None], cfg).tolist()
    logits = decode_logits(params, mem, shift_right(TGT[None]), cfg).data[0]
    logz = np.logaddexp.reduce(logits.astype(np.float64), axis=1)
    want = sum(float(logits[i, t]) - float(logz[i]) for i, t in enumerate(TGT))
    # the model sums log-probs in fp32, the oracle in fp64
    assert got == pytest.approx(want, rel=1e-6)
    assert got < 0.0


def test_score_sequence_rows_match_scoring_each_target_alone():
    """L targets scored in one pass get the same bits as each target
    scored on its own."""
    targets = np.array([[12, 7, EOS], [30, 30, EOS], [EOS, 5, EOS]], dtype=np.int64)
    for seed in range(4):
        cfg = small_config()
        params = init_params(cfg, seed)
        for name in params.names():
            if name.endswith(".weight"):  # spread the logits, as a trained model does
                params[name].data *= 20.0
        mem = encode_source(params, np.roll(SRC, seed)[None], MASK[None], cfg)
        alone = [score_sequence(params, mem, tgt[None], cfg)[0, 0] for tgt in targets]
        together = score_sequence(params, mem, targets, cfg)
        assert together.dtype == np.float64 and together.shape == (1, 3)
        assert together.tolist() == [alone]
        assert score_sequence(params, mem, targets[:2], cfg).tolist() == [alone[:2]]


def scaled_params(cfg, seed, factor):
    params = init_params(cfg, seed)
    for name in params.names():
        if name.endswith(".weight"):  # large enough that outputs depend on the source
            params[name].data *= factor
    return params


# sources of 1-7 tokens: padded to the longest, each row's encoder states
# keep their bits (see the padding test above)
MIXED = [np.roll(SRC, i)[:n] for i, n in enumerate((3, 7, 5, 1, 4, 6, 2, 7))]


def alone(params, cfg, src):
    """The memory of `src` encoded on its own, unpadded."""
    return encode_source(params, src[None], np.ones((1, len(src)), dtype=np.float32), cfg)


def test_batched_greedy_rows_match_each_row_decoded_alone():
    """Each row of a batched greedy decode stops on its own rule and gets
    the tokens it gets when decoded alone, unpadded."""
    cfg = small_config()
    ids, mask = pad_sources(MIXED, range(len(MIXED)))
    lengths = set()
    for seed in range(4):
        params = scaled_params(cfg, seed, 50.0)
        firsts = [generate_greedy(params, alone(params, cfg, src), cfg, [])[0][0]
                  for src in MIXED]
        # rows whose first token starts no accepted sequence stop after it
        accept = [[tok, 12] for tok in firsts[::2] if tok != PAD]
        want = [generate_greedy(params, alone(params, cfg, src), cfg, accept)[0]
                for src in MIXED]
        mem = encode_source(params, ids, mask, cfg)
        assert generate_greedy(params, mem, cfg, accept) == want, seed
        lengths.update(len(out) for out in want)
    # rows stopped after one token, after two, and at the length limit
    assert {1, 2, cfg.max_tgt_len} <= lengths


def test_batched_scores_match_each_source_scored_alone():
    """[B, L] scores of a padded batch have the bits of each source scored
    alone, also for any subset of the batch's rows."""
    cfg = small_config()
    targets = np.array([[12, 7, EOS], [30, 30, EOS], [EOS, 5, EOS]], dtype=np.int64)
    ids, mask = pad_sources(MIXED, range(len(MIXED)))
    rows = [1, 4, 6]
    for seed in range(4):
        params = scaled_params(cfg, seed, 20.0)
        want = [score_sequence(params, alone(params, cfg, src), targets, cfg)[0].tolist()
                for src in MIXED]
        mem = encode_source(params, ids, mask, cfg)
        got = score_sequence(params, mem, targets, cfg)
        assert got.dtype == np.float64 and got.shape == (len(MIXED), len(targets))
        assert got.tolist() == want, seed
        subset = score_sequence(params, mem.rows(rows), targets, cfg)
        assert subset.tolist() == [want[r] for r in rows], seed


def test_score_sequence_requires_eos():
    cfg = small_config()
    params = init_params(cfg, 13)
    mem = encode_source(params, SRC[None], MASK[None], cfg)
    with pytest.raises(ValueError, match="end token"):
        score_sequence(params, mem, [[12, 7]], cfg)
    with pytest.raises(ValueError, match="end token"):
        score_sequence(params, mem, [[5, EOS], [12, 7]], cfg)
    with pytest.raises(ValueError, match="end token"):
        score_sequence(params, mem, [[]], cfg)


# ---------------------------------------------------------------------------
# The whole model's gradient
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
MICRO_SRC = np.array([[3, 5, 7, 2, 6]], dtype=np.int64)
MICRO_MASK = np.ones((1, 5), dtype=np.float32)
MICRO_TGT = np.array([[4, EOS]], dtype=np.int64)
MICRO_SEED, MICRO_SCALE = 116, 24.0
# Two heads (same parameter shapes) on a padded batch of two: the second
# source is padded after three tokens.
MICRO_2H = replace(MICRO, n_heads=2)
MICRO_BATCH = (
    np.array([[3, 5, 7, 2, 6], [6, 2, 4, PAD, PAD]], dtype=np.int64),
    np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0]], dtype=np.float32),
    np.array([[4, EOS], [5, EOS]], dtype=np.int64),
)


def micro_params(dtype):
    params = init_params(MICRO, MICRO_SEED)
    for name in params.names():
        arr = params[name].data.astype(np.float64)
        if name.endswith(".weight"):
            arr = arr * MICRO_SCALE
        params[name].data = arr if dtype == np.float64 else arr.astype(np.float32)
    return params


def micro_loss_fn(params, name, config=MICRO, inputs=(MICRO_SRC, MICRO_MASK, MICRO_TGT)):
    def f(t):
        saved = params._params[name]
        params._params[name] = t
        try:
            return example_loss(params, *inputs, config)
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
    cases = {
        "one head, one example": (MICRO, (MICRO_SRC, MICRO_MASK, MICRO_TGT)),
        "two heads, padded batch": (MICRO_2H, MICRO_BATCH),
    }
    for case, (config, inputs) in cases.items():
        worst = 0.0
        for name in params.names():
            f = micro_loss_fn(params, name, config, inputs)
            worst = max(worst, finite_diff_check(f, params[name], eps=1e-5))
        assert worst < 1e-6, (case, worst)


def test_full_model_gradient_fp32():
    p32 = micro_params(np.float32)
    p64 = micro_params(np.float64)
    with T.Tape() as tape:
        loss = example_loss(p32, MICRO_SRC, MICRO_MASK, MICRO_TGT, MICRO)
    names = p32.names()
    grads = leaf_grads(tape, loss, [p32[name] for name in names])
    worst = 0.0
    for name, grad in zip(names, grads):
        analytic = grad.astype(np.float64)
        numeric = numeric_gradient(p64, name, eps=3e-5)
        rel = np.abs(analytic - numeric) / np.maximum(
            np.maximum(np.abs(analytic), np.abs(numeric)), 1e-12)
        worst = max(worst, float(rel.max()))
    assert worst < 1e-3, worst


def test_example_loss_positive_scalar():
    cfg = small_config()
    params = init_params(cfg, 2)
    loss = example_loss(params, SRC[None], MASK[None], TGT[None], cfg)
    assert loss.data.shape == ()
    assert float(loss.data) > 0.0
