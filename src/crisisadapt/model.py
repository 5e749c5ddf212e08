"""Encoder-decoder transformer over word ids, run on padded batches.

Pre-norm residual blocks with a final layer norm, sinusoidal absolute
positions, multi-head scaled dot-product attention. The input embedding
is shared between encoder and decoder; the output projection is its own
matrix. Decoding starts from the pad token (shift-right) and runs greedy
argmax with lowest-id tie-break.

Every entry point takes batches only: sources [B, S] with a mask that
is 0.0 at padding, and targets [B, T]; a 1-D input raises a ValueError.
Padded keys get a -1e9 score bias [B, 1, 1, S] and so are never
attended to. Greedy decoding and sequence scoring start from encoder
states and take any number of sources, each row as if it ran alone.

Each attention block is three bias-free projections, one
:func:`tensor.attention` op (head split, scaled scores, bias, softmax,
weighted values and head merge, with a hand-written backward) and the
output projection. Every projection, feed-forward and output layer is a
:func:`tensor.linear` op.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as T
from .errors import check_field_types
from .tokenizer import EOS, PAD

MASK_PENALTY = -1e9  # drives masked attention probs to exactly 0 after softmax


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 64
    n_heads: int = 4
    d_ff: int = 256
    n_enc_layers: int = 2
    n_dec_layers: int = 2
    dropout: float = 0.1
    max_src_len: int = 128
    max_tgt_len: int = 10

    def __post_init__(self):
        check_field_types(self, ValueError)
        if self.vocab_size < 3:
            raise ValueError(f"vocab_size must cover the specials, got {self.vocab_size}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if min(self.d_model, self.d_ff, self.n_enc_layers, self.n_dec_layers,
               self.max_src_len, self.max_tgt_len) < 1:
            raise ValueError("model dimensions and length limits must be positive")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")


def named_config(name: str, vocab_size: int, **overrides) -> ModelConfig:
    """The two stock sizes: `tiny` (2+2 layers, d=64) and `mini` (4+4, d=128)."""
    presets = {
        "tiny": dict(d_model=64, n_heads=4, d_ff=256, n_enc_layers=2, n_dec_layers=2),
        "mini": dict(d_model=128, n_heads=4, d_ff=512, n_enc_layers=4, n_dec_layers=4),
    }
    if name not in presets:
        raise ValueError(f"unknown model size {name!r}; expected one of {sorted(presets)}")
    kwargs = presets[name] | overrides
    return ModelConfig(vocab_size=vocab_size, **kwargs)


class ParameterStore:
    """Named parameter tensors in a fixed order."""

    def __init__(self, params: dict[str, T.Tensor]):
        self._params = dict(params)

    def __getitem__(self, name: str) -> T.Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def arrays(self) -> dict[str, np.ndarray]:
        return {n: t.data for n, t in self._params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Overwrite parameter values in place; names and shapes must match."""
        missing = set(self._params) - set(arrays)
        extra = set(arrays) - set(self._params)
        if missing or extra:
            raise ValueError(
                f"parameter names differ: missing={sorted(missing)}, extra={sorted(extra)}"
            )
        for name, t in self._params.items():
            arr = np.asarray(arrays[name], dtype=t.data.dtype)
            if arr.shape != t.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {arr.shape} vs {t.data.shape}"
                )
            self._params[name] = T.Tensor(arr, requires_grad=True, name=name)


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """The shape of each parameter of a model with `config`, by name."""
    d, ff, v = config.d_model, config.d_ff, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {"embed.weight": (v, d)}

    def block(prefix: str, cross: bool):
        attns = ["self_attn", "cross_attn"] if cross else ["self_attn"]
        for attn in attns:
            # attention projections carry no bias: a key-projection bias
            # shifts every score in a row equally, which softmax cancels
            for proj in ("wq", "wk", "wv", "wo"):
                shapes[f"{prefix}.{attn}.{proj}.weight"] = (d, d)
            shapes[f"{prefix}.{attn}.ln.gain"] = (d,)
            shapes[f"{prefix}.{attn}.ln.bias"] = (d,)
        shapes[f"{prefix}.ff.w1.weight"] = (d, ff)
        shapes[f"{prefix}.ff.w1.bias"] = (ff,)
        shapes[f"{prefix}.ff.w2.weight"] = (ff, d)
        shapes[f"{prefix}.ff.w2.bias"] = (d,)
        shapes[f"{prefix}.ff.ln.gain"] = (d,)
        shapes[f"{prefix}.ff.ln.bias"] = (d,)

    for i in range(config.n_enc_layers):
        block(f"enc.{i}", cross=False)
    shapes["enc.final_ln.gain"] = (d,)
    shapes["enc.final_ln.bias"] = (d,)
    for i in range(config.n_dec_layers):
        block(f"dec.{i}", cross=True)
    shapes["dec.final_ln.gain"] = (d,)
    shapes["dec.final_ln.bias"] = (d,)
    shapes["out_proj.weight"] = (d, v)
    shapes["out_proj.bias"] = (v,)
    return shapes


def init_params(config: ModelConfig, seed: int) -> ParameterStore:
    """Weight matrices ~ Normal(0, 0.02), biases 0, layer norm gains 1.

    Draws happen in a fixed name order from a PCG64 stream, so the same
    (config, seed) always yields the same initial parameters.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    params: dict[str, T.Tensor] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".gain"):
            arr = np.ones(shape, dtype=np.float32)
        elif name.endswith(".bias"):
            arr = np.zeros(shape, dtype=np.float32)
        else:
            arr = rng.normal(0.0, 0.02, size=shape).astype(np.float32)
        params[name] = T.Tensor(arr, requires_grad=True, name=name)
    return ParameterStore(params)


@lru_cache(maxsize=8)
def _sinusoid_table(n: int, d: int) -> np.ndarray:
    pos = np.arange(n, dtype=np.float64)[:, None]
    idx = np.arange(0, d, 2, dtype=np.float64)[None, :]
    angle = pos / np.power(10000.0, idx / d)
    table = np.zeros((n, d), dtype=np.float64)
    table[:, 0::2] = np.sin(angle)
    table[:, 1::2] = np.cos(angle[:, : table[:, 1::2].shape[1]])
    return table.astype(np.float32)


def _dropout(x: T.Tensor, config: ModelConfig, rngs, lengths) -> T.Tensor:
    return x if rngs is None else T.dropout(x, config.dropout, rngs, lengths)


def _embed(params, ids: np.ndarray, config: ModelConfig, rngs, lengths) -> T.Tensor:
    x = T.scale(T.embedding(params["embed.weight"], ids), math.sqrt(config.d_model))
    x = T.add(x, T.Tensor(_sinusoid_table(ids.shape[1], config.d_model)))
    return _dropout(x, config, rngs, lengths)


def _linear(params, name: str, x: T.Tensor) -> T.Tensor:
    return T.linear(x, params[f"{name}.weight"], params[f"{name}.bias"])


def _attention(params, prefix, q_in, kv_in, score_bias, config) -> T.Tensor:
    q = T.linear(q_in, params[f"{prefix}.wq.weight"])
    k = T.linear(kv_in, params[f"{prefix}.wk.weight"])
    v = T.linear(kv_in, params[f"{prefix}.wv.weight"])
    ctx = T.attention(q, k, v, score_bias, config.n_heads)
    return T.linear(ctx, params[f"{prefix}.wo.weight"])


def _ln(params, prefix: str, x: T.Tensor) -> T.Tensor:
    return T.layer_norm(x, params[f"{prefix}.gain"], params[f"{prefix}.bias"])


def _ff(params, prefix: str, x: T.Tensor) -> T.Tensor:
    return _linear(params, f"{prefix}.w2", T.relu(_linear(params, f"{prefix}.w1", x)))


def _residual(x: T.Tensor, sub: T.Tensor, config: ModelConfig, rngs, lengths) -> T.Tensor:
    return T.add(x, _dropout(sub, config, rngs, lengths))


def _key_bias(src_mask: np.ndarray) -> np.ndarray:
    # [B, 1, 1, S]: real positions add 0, padded keys get the penalty
    return ((1.0 - src_mask) * MASK_PENALTY).astype(np.float32)[:, None, None, :]


def _check_source(src_ids, src_mask, config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Validated ids and mask as [B, S] arrays."""
    ids = np.asarray(src_ids, dtype=np.int64)
    mask = np.asarray(src_mask, dtype=np.float32)
    if ids.ndim != 2 or mask.shape != ids.shape:
        raise ValueError(
            "source ids/mask must be aligned [batch, length] arrays, "
            f"got {ids.shape} / {mask.shape}"
        )
    if ids.shape[1] > config.max_src_len:
        raise ValueError(f"source length {ids.shape[1]} exceeds limit {config.max_src_len}")
    if mask.size == 0 or (mask.sum(axis=1) == 0).any():
        raise ValueError("no attendable source positions: mask is all zero")
    return ids, mask


def encode_source(
    params: ParameterStore,
    src_ids,
    src_mask,
    config: ModelConfig,
    rng: Sequence[np.random.Generator] | None = None,
) -> T.Tensor:
    """Run the encoder stack over ids [B, S]; returns states [B, S, d_model].

    `src_mask` is 1.0 at real positions, 0.0 at padding. Padded positions
    are never attended to, so extending a source with extra padding changes
    the states at real positions by float32 rounding only: attention's sums
    run over the padded width, where numpy and BLAS may add in another
    order. On the 16-dim test model the states stay bitwise equal below a
    padded width of 8 keys and differ by up to about 1e-6 from 8 keys on;
    wider models can differ at smaller widths too. Dropout runs only when
    `rng` is given, one generator per example. Each example draws its masks
    over its own length up to its last real position, so the draws do not
    depend on how examples are batched.
    """
    ids, mask = _check_source(src_ids, src_mask, config)
    # each example's length up to its last real position
    lengths = None if rng is None else mask.shape[1] - np.argmax(mask[:, ::-1] > 0, axis=1)
    bias = _key_bias(mask)
    x = _embed(params, ids, config, rng, lengths)
    for i in range(config.n_enc_layers):
        p = f"enc.{i}"
        normed = _ln(params, f"{p}.self_attn.ln", x)
        x = _residual(x, _attention(params, f"{p}.self_attn", normed, normed, bias, config),
                      config, rng, lengths)
        x = _residual(x, _ff(params, f"{p}.ff", _ln(params, f"{p}.ff.ln", x)),
                      config, rng, lengths)
    return _ln(params, "enc.final_ln", x)


def decode_logits(
    params: ParameterStore,
    enc_states: T.Tensor,
    src_mask,
    dec_input,
    config: ModelConfig,
    rng: Sequence[np.random.Generator] | None = None,
) -> T.Tensor:
    """Teacher-forced decoder pass over dec_input [B, T], with encoder
    states [B, S, d_model] and src_mask [B, S]; returns logits
    [B, T, vocab_size].

    `dec_input` is the shifted target (pad first). Position t may look at
    decoder positions <= t and at unmasked source positions only. `rng`
    is as for :func:`encode_source`, and continues its streams.
    """
    ids = np.asarray(dec_input, dtype=np.int64)
    mask = np.asarray(src_mask, dtype=np.float32)
    if ids.ndim != 2 or ids.shape[1] == 0:
        raise ValueError(
            f"decoder input must be a non-empty [batch, length] array, got shape {ids.shape}"
        )
    if ids.shape[1] > config.max_tgt_len + 1:
        raise ValueError(f"decoder length {ids.shape[1]} exceeds limit {config.max_tgt_len + 1}")
    if mask.ndim != 2 or mask.shape != enc_states.shape[:-1]:
        raise ValueError(
            f"src_mask shape {mask.shape} does not match encoder states {enc_states.shape}"
        )
    if len(mask) != len(ids):
        raise ValueError(f"decoder input {ids.shape} and src_mask {mask.shape} differ in batch")
    if mask.size == 0 or (mask.sum(axis=1) == 0).any():
        raise ValueError("no attendable source positions: mask is all zero")

    batch, t = ids.shape
    lengths = [t] * batch
    causal = np.triu(np.full((t, t), MASK_PENALTY, dtype=np.float32), k=1)
    cross_bias = _key_bias(mask)
    x = _embed(params, ids, config, rng, lengths)
    for i in range(config.n_dec_layers):
        p = f"dec.{i}"
        normed = _ln(params, f"{p}.self_attn.ln", x)
        x = _residual(x, _attention(params, f"{p}.self_attn", normed, normed, causal, config),
                      config, rng, lengths)
        x = _residual(
            x,
            _attention(params, f"{p}.cross_attn", _ln(params, f"{p}.cross_attn.ln", x),
                       enc_states, cross_bias, config),
            config, rng, lengths,
        )
        x = _residual(x, _ff(params, f"{p}.ff", _ln(params, f"{p}.ff.ln", x)),
                      config, rng, lengths)
    return _linear(params, "out_proj", _ln(params, "dec.final_ln", x))


def shift_right(target_ids) -> np.ndarray:
    """Decoder input for teacher forcing from targets [B, T]: each row is
    the pad token, then all but the last of its targets."""
    ids = np.asarray(target_ids, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] == 0:
        raise ValueError(f"targets must be non-empty [batch, length], got shape {ids.shape}")
    return np.concatenate((np.full((len(ids), 1), PAD, dtype=np.int64), ids[:, :-1]), axis=1)


def generate_greedy(
    params: ParameterStore,
    enc_states: T.Tensor,
    src_mask,
    config: ModelConfig,
    accept: Sequence[Sequence[int]],
) -> list[list[int]]:
    """Greedy decode from encoder states [B, S, d_model] with src_mask
    [B, S], as for :func:`decode_logits`: argmax at each step (ties break
    to the lowest id); returns one token list per row. `accept`
    lists the PAD-free id sequences the caller can use. A row stops at the
    end token, after `config.max_tgt_len` tokens, or as soon as its tokens
    so far, with PADs dropped, are no longer a prefix of an accepted
    sequence; decoding further could then not produce one. Its tokens up
    to the stop are returned, the last one included. Each decoder pass
    runs the rows that have not stopped, and the loop ends when every row
    has.

    A row's tokens do not depend on the other rows: padding and batch size
    change its logits by float32 rounding only, as for
    :func:`encode_source` (bitwise on the 16-dim test model below a padded
    width of 8 keys)."""
    accepted = [tuple(seq) for seq in accept]
    mask = np.asarray(src_mask, dtype=np.float32)
    outs: list[list[int]] = [[] for _ in range(len(mask))]
    live = np.arange(len(mask))  # the rows still decoding
    dec_input = np.full((len(mask), 1), PAD, dtype=np.int64)
    for _ in range(config.max_tgt_len):
        logits = decode_logits(params, enc_states, mask, dec_input, config)
        next_ids = np.argmax(logits.data[:, -1], axis=1)
        going = []
        for pos, (row, tok) in enumerate(zip(live.tolist(), next_ids.tolist())):
            out = outs[row]
            out.append(tok)
            if tok == EOS:
                continue
            kept = tuple(t for t in out if t != PAD)
            if tok == PAD or any(seq[: len(kept)] == kept for seq in accepted):
                going.append(pos)
        if not going:
            break
        if len(going) < len(live):
            live, mask, dec_input, next_ids = (a[going] for a in (live, mask, dec_input, next_ids))
            enc_states = T.Tensor(enc_states.data[going])
        dec_input = np.concatenate((dec_input, next_ids[:, None]), axis=1)
    return outs


def score_sequence(params: ParameterStore, enc_states: T.Tensor, src_mask, target_ids,
                   config: ModelConfig) -> np.ndarray:
    """Sums of log-probabilities of the L targets `target_ids` [L, T],
    each ending with the end token, under teacher forcing, for each of the
    B sources whose encoder states and mask are given as for
    :func:`decode_logits`; returns the [B, L] sums as float64. All B·L
    (source, target) pairs are scored in one decoder pass over L copies of
    each source's encoder states. Each sum has the bits of its target
    scored alone for its source alone, unpadded, as long as padding leaves
    the source's encoder states unchanged (see :func:`encode_source`)."""
    tgt = np.asarray(target_ids, dtype=np.int64)
    if tgt.ndim != 2 or tgt.size == 0 or (tgt[:, -1] != EOS).any():
        raise ValueError(
            f"targets must be a non-empty [L, T] array, each ending with the end token, "
            f"got shape {tgt.shape}"
        )
    batch, copies = len(enc_states.data), len(tgt)
    pairs = np.tile(tgt, (batch, 1))  # row b * L + l holds target l for source b
    logits = decode_logits(
        params, T.Tensor(np.repeat(enc_states.data, copies, axis=0)),
        np.repeat(np.asarray(src_mask, dtype=np.float32), copies, axis=0),
        shift_right(pairs), config,
    ).data
    shifted = logits - logits.max(axis=2, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=2, keepdims=True))
    picked = np.take_along_axis(logp, pairs[:, :, None], axis=2)[:, :, 0]
    return picked.sum(axis=1).astype(np.float64).reshape(batch, copies)


def example_loss(
    params: ParameterStore,
    src_ids,
    src_mask,
    target_ids,
    config: ModelConfig,
    rng: Sequence[np.random.Generator] | None = None,
) -> T.Tensor:
    """Mean over examples of each example's mean cross-entropy over its
    target positions. Sources are as for :func:`encode_source`; targets
    are [B, T], all of one length, so this is the mean over every target
    position of the batch."""
    tgt = np.asarray(target_ids, dtype=np.int64)
    enc = encode_source(params, src_ids, src_mask, config, rng=rng)
    logits = decode_logits(params, enc, src_mask, shift_right(tgt), config, rng=rng)
    return T.cross_entropy(T.reshape(logits, (tgt.size, config.vocab_size)), tgt.reshape(-1))
