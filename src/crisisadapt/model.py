"""Encoder-decoder transformer over word ids, run on padded batches.

Pre-norm residual blocks with a final layer norm, sinusoidal absolute
positions, multi-head scaled dot-product attention. The input embedding
is shared between encoder and decoder; the output projection is its own
matrix. Decoding starts from the pad token (shift-right) and runs greedy
argmax with lowest-id tie-break.

Every entry point takes batches only: sources [B, S] with a mask that
is 0.0 at padding, and targets [B, T]; a 1-D input raises a ValueError.
Padded keys get a -1e9 score bias [B, 1, 1, S] and so are never
attended to. The decoder reads encoded sources through a :class:`Memory`:
each layer's cross-attention keys and values, projected once per batch
by :func:`memory`, with the mask and its bias. Greedy decoding and
sequence scoring take a memory of any number of sources, each row as if
it ran alone, and select or repeat its rows without projecting again.

Each attention block is three bias-free projections, one
:func:`tensor.attention` op (head split, scaled scores, bias, softmax,
weighted values and head merge, with a hand-written backward) and the
output projection. Every projection and output layer is a
:func:`tensor.linear` op, and each feed-forward sublayer one
:func:`tensor.feed_forward` op.
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
    """Named parameter tensors in a fixed order, held in one flat vector.

    `flat` holds every parameter's values back to back in `names()` order,
    and each tensor's data is a view into it, so an optimizer can update
    them all in one pass over `flat`. The tensors must share one dtype.
    """

    def __init__(self, params: dict[str, T.Tensor]):
        self._params = dict(params)
        by_dtype: dict[np.dtype, list[str]] = {}
        for name, t in self._params.items():
            by_dtype.setdefault(t.data.dtype, []).append(name)
        if len(by_dtype) > 1:
            raise ValueError("parameters mix dtypes: " + "; ".join(
                f"{dtype} ({', '.join(names)})" for dtype, names in by_dtype.items()))
        dtype = next(iter(by_dtype), np.dtype(np.float32))
        self.flat = np.empty(sum(t.data.size for t in self._params.values()), dtype=dtype)
        for t, view in zip(self._params.values(), self.views(self.flat).values()):
            view[...] = t.data
            t.data = view

    def __getitem__(self, name: str) -> T.Tensor:
        return self._params[name]

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def arrays(self) -> dict[str, np.ndarray]:
        return {n: t.data for n, t in self._params.items()}

    def shapes(self) -> dict[str, tuple[int, ...]]:
        return {n: t.data.shape for n, t in self._params.items()}

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Views into `flat`, a vector laid out like `self.flat`, shaped
        and named like the parameters."""
        return flat_views(flat, self.shapes())

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy `arrays` into the parameters; names and shapes must match."""
        missing = set(self._params) - set(arrays)
        extra = set(arrays) - set(self._params)
        if missing or extra:
            raise ValueError(
                f"parameter names differ: missing={sorted(missing)}, extra={sorted(extra)}"
            )
        for name, t in self._params.items():
            if np.shape(arrays[name]) != t.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: {np.shape(arrays[name])} vs {t.data.shape}"
                )
        for name, t in self._params.items():
            t.data[...] = arrays[name]


def flat_views(flat: np.ndarray, shapes: dict[str, tuple[int, ...]]) -> dict[str, np.ndarray]:
    """Views into the vector `flat` that hold arrays of `shapes` back to
    back in its order, by name; `flat` must hold exactly that many values."""
    total = sum(math.prod(shape) for shape in shapes.values())
    if flat.shape != (total,):
        raise ValueError(f"flat buffer of shape {flat.shape}, expected {(total,)}")
    out, start = {}, 0
    for name, shape in shapes.items():
        size = math.prod(shape)
        out[name] = flat[start : start + size].reshape(shape)
        start += size
    return out


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


def _keys_values(params, prefix: str, x: T.Tensor) -> tuple[T.Tensor, T.Tensor]:
    return T.linear(x, params[f"{prefix}.wk.weight"]), T.linear(x, params[f"{prefix}.wv.weight"])


def _attention(params, prefix: str, q_in: T.Tensor, kv: tuple[T.Tensor, T.Tensor] | None,
               score_bias, config) -> T.Tensor:
    """The attention block `prefix` with queries from q_in, over the
    projected keys and values `kv`, or over q_in's own when it is None;
    q_in's projections are taken in the order q, k, v."""
    q = T.linear(q_in, params[f"{prefix}.wq.weight"])
    k, v = _keys_values(params, prefix, q_in) if kv is None else kv
    ctx = T.attention(q, k, v, score_bias, config.n_heads)
    return T.linear(ctx, params[f"{prefix}.wo.weight"])


def _ln(params, prefix: str, x: T.Tensor) -> T.Tensor:
    return T.layer_norm(x, params[f"{prefix}.gain"], params[f"{prefix}.bias"])


def _ff(params, prefix: str, x: T.Tensor) -> T.Tensor:
    return T.feed_forward(x, params[f"{prefix}.w1.weight"], params[f"{prefix}.w1.bias"],
                          params[f"{prefix}.w2.weight"], params[f"{prefix}.w2.bias"])


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
    are never attended to: their attention probabilities are exactly 0.0,
    and attention's sums run in key order, so they add zeros at the end.
    Extending a source with extra padding therefore leaves the states at
    real positions bitwise equal on the 16-dim test model, at every padded
    width up to `max_src_len`, as long as BLAS rounds each row of a
    product the same whatever the other rows. Dropout runs only when
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
        x = _residual(x, _attention(params, f"{p}.self_attn", normed, None, bias, config),
                      config, rng, lengths)
        x = _residual(x, _ff(params, f"{p}.ff", _ln(params, f"{p}.ff.ln", x)),
                      config, rng, lengths)
    return _ln(params, "enc.final_ln", x)


@dataclass(frozen=True)
class Memory:
    """What every decoder layer's cross-attention reads of B encoded
    sources: each layer's projected keys and values [B, S, d_model], in
    layer order, the source mask [B, S] and its score bias [B, 1, 1, S].

    :func:`memory` builds it from encoder states. `rows` and `repeat`
    select and copy whole sources; their tensors are constants, for
    decoding and scoring, which take no gradient."""

    kv: tuple[tuple[T.Tensor, T.Tensor], ...]
    mask: np.ndarray
    bias: np.ndarray

    def _map(self, f) -> "Memory":
        kv = tuple((T.Tensor(f(k.data)), T.Tensor(f(v.data))) for k, v in self.kv)
        return Memory(kv, f(self.mask), f(self.bias))

    def rows(self, index) -> "Memory":
        """The memory of the sources at `index` (row indices or a mask)."""
        return self._map(lambda a: a[index])

    def repeat(self, n: int) -> "Memory":
        """Each source n times in a row: row b * n + i holds source b."""
        return self._map(lambda a: np.repeat(a, n, axis=0))


def memory(params: ParameterStore, enc_states: T.Tensor, src_mask,
           config: ModelConfig) -> Memory:
    """The decoder's :class:`Memory` of encoder states [B, S, d_model] with
    src_mask [B, S] (1.0 at real positions). Each layer's keys are
    projected before its values, and the layers in order, so that under a
    tape the gradient of `enc_states` sums in a fixed order."""
    mask = np.asarray(src_mask, dtype=np.float32)
    if mask.ndim != 2 or mask.shape != enc_states.shape[:-1]:
        raise ValueError(
            f"src_mask shape {mask.shape} does not match encoder states {enc_states.shape}"
        )
    if mask.size == 0 or (mask.sum(axis=1) == 0).any():
        raise ValueError("no attendable source positions: mask is all zero")
    kv = tuple(_keys_values(params, f"dec.{i}.cross_attn", enc_states)
               for i in range(config.n_dec_layers))
    return Memory(kv, mask, _key_bias(mask))


def decode_logits(
    params: ParameterStore,
    mem: Memory,
    dec_input,
    config: ModelConfig,
    rng: Sequence[np.random.Generator] | None = None,
) -> T.Tensor:
    """Teacher-forced decoder pass over dec_input [B, T], attending to the
    B sources of `mem` (see :func:`memory`); returns logits
    [B, T, vocab_size].

    `dec_input` is the shifted target (pad first). Position t may look at
    decoder positions <= t and at unmasked source positions only. `rng`
    is as for :func:`encode_source`, and continues its streams.
    """
    ids = np.asarray(dec_input, dtype=np.int64)
    if ids.ndim != 2 or ids.shape[1] == 0:
        raise ValueError(
            f"decoder input must be a non-empty [batch, length] array, got shape {ids.shape}"
        )
    if ids.shape[1] > config.max_tgt_len + 1:
        raise ValueError(f"decoder length {ids.shape[1]} exceeds limit {config.max_tgt_len + 1}")
    if len(mem.mask) != len(ids):
        raise ValueError(
            f"decoder input {ids.shape} and src_mask {mem.mask.shape} differ in batch")

    batch, t = ids.shape
    lengths = [t] * batch
    causal = np.triu(np.full((t, t), MASK_PENALTY, dtype=np.float32), k=1)
    x = _embed(params, ids, config, rng, lengths)
    for i, kv in enumerate(mem.kv):
        p = f"dec.{i}"
        normed = _ln(params, f"{p}.self_attn.ln", x)
        x = _residual(x, _attention(params, f"{p}.self_attn", normed, None, causal, config),
                      config, rng, lengths)
        x = _residual(
            x,
            _attention(params, f"{p}.cross_attn", _ln(params, f"{p}.cross_attn.ln", x),
                       kv, mem.bias, config),
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
    mem: Memory,
    config: ModelConfig,
    accept: Sequence[Sequence[int]],
) -> list[list[int]]:
    """Greedy decode for the sources of `mem`, as for
    :func:`decode_logits`: argmax at each step (ties break to the lowest
    id); returns one token list per row. `accept`
    lists the PAD-free id sequences the caller can use. A row stops at the
    end token, after `config.max_tgt_len` tokens, or as soon as its tokens
    so far, with PADs dropped, are no longer a prefix of an accepted
    sequence; decoding further could then not produce one. Its tokens up
    to the stop are returned, the last one included. Each decoder pass
    runs the rows that have not stopped, and the loop ends when every row
    has.

    A row's tokens do not depend on the other rows, nor on how far its
    source is padded (see :func:`encode_source`)."""
    accepted = [tuple(seq) for seq in accept]
    outs: list[list[int]] = [[] for _ in range(len(mem.mask))]
    live = np.arange(len(mem.mask))  # the rows still decoding
    dec_input = np.full((len(mem.mask), 1), PAD, dtype=np.int64)
    for _ in range(config.max_tgt_len):
        logits = decode_logits(params, mem, dec_input, config)
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
            live, dec_input, next_ids = (a[going] for a in (live, dec_input, next_ids))
            mem = mem.rows(going)
        dec_input = np.concatenate((dec_input, next_ids[:, None]), axis=1)
    return outs


def score_sequence(params: ParameterStore, mem: Memory, target_ids,
                   config: ModelConfig) -> np.ndarray:
    """Sums of log-probabilities of the L targets `target_ids` [L, T],
    each ending with the end token, under teacher forcing, for each of the
    B sources of `mem`; returns the [B, L] sums as float64. All B·L
    (source, target) pairs are scored in one decoder pass over L copies of
    each source's memory rows. Each sum has the bits of its target scored
    alone for its source alone, unpadded (see :func:`encode_source`)."""
    tgt = np.asarray(target_ids, dtype=np.int64)
    if tgt.ndim != 2 or tgt.size == 0 or (tgt[:, -1] != EOS).any():
        raise ValueError(
            f"targets must be a non-empty [L, T] array, each ending with the end token, "
            f"got shape {tgt.shape}"
        )
    batch, copies = len(mem.mask), len(tgt)
    pairs = np.tile(tgt, (batch, 1))  # row b * L + l holds target l for source b
    logits = decode_logits(params, mem.repeat(copies), shift_right(pairs), config).data
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
    logits = decode_logits(params, memory(params, enc, src_mask, config), shift_right(tgt),
                           config, rng=rng)
    return T.cross_entropy(T.reshape(logits, (tgt.size, config.vocab_size)), tgt.reshape(-1))
