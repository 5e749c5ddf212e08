"""Encoder-decoder transformer over word ids, run on padded batches.

Pre-norm residual blocks with a final layer norm, sinusoidal absolute
positions, multi-head scaled dot-product attention. The input embedding
is shared between encoder and decoder; the output projection is its own
matrix. Decoding starts from the pad token (shift-right) and runs greedy
argmax with lowest-id tie-break.

The forward functions take a batch of sources [B, S] with a mask that is
0.0 at padding; padded keys get a -1e9 score bias [B, 1, 1, S] and so
are never attended to. A single example given as 1-D arrays runs the
same code as a batch of one, and its results come back without the
batch axis.

Parameters live in a :class:`ParameterStore` in a fixed name order;
:meth:`ParameterStore.partition` tells encoder-side names (the input
embedding included) from decoder-side ones (the output projection
included).
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import tensor as T
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
        if self.vocab_size < 3:
            raise ValueError(f"vocab_size must cover the specials, got {self.vocab_size}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(
                f"d_model {self.d_model} not divisible by n_heads {self.n_heads}"
            )
        if min(self.d_model, self.d_ff, self.n_enc_layers, self.n_dec_layers) < 1:
            raise ValueError("model dimensions must be positive")
        if not 0 <= self.dropout < 1:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")

    @property
    def head_dim(self) -> int:
        return self.d_model // self.n_heads


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
    """Named parameter tensors in a fixed order, partitioned encoder/decoder."""

    def __init__(self, params: dict[str, T.Tensor]):
        self._params = dict(params)

    def __getitem__(self, name: str) -> T.Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self) -> list[str]:
        return list(self._params)

    def items(self):
        return self._params.items()

    def tensors(self) -> list[T.Tensor]:
        return list(self._params.values())

    @staticmethod
    def partition(name: str) -> str:
        return "decoder" if name.startswith(("dec.", "out_proj.")) else "encoder"

    def partition_names(self, which: str) -> list[str]:
        if which not in ("encoder", "decoder"):
            raise ValueError(f"unknown partition {which!r}")
        return [n for n in self._params if self.partition(n) == which]

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

    def astype(self, dtype) -> "ParameterStore":
        return ParameterStore(
            {
                n: T.Tensor(t.data.astype(dtype), requires_grad=True, name=n)
                for n, t in self._params.items()
            }
        )

    def size(self) -> int:
        return sum(t.data.size for t in self._params.values())


def _param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
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
    for name, shape in _param_shapes(config).items():
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


def _dropout_rngs(rng, batch: int, train: bool, config: ModelConfig):
    """One dropout generator per example, or None when nothing drops."""
    if not (train and config.dropout > 0):
        return None
    if rng is None:
        raise ValueError("training forward pass needs an rng for dropout")
    return [rng] if isinstance(rng, np.random.Generator) else list(rng)


def _dropout(x: T.Tensor, config: ModelConfig, rngs, lengths) -> T.Tensor:
    return x if rngs is None else T.dropout(x, config.dropout, rngs, lengths)


def _embed(params, ids: np.ndarray, config: ModelConfig, rngs, lengths) -> T.Tensor:
    x = T.scale(T.embedding(params["embed.weight"], ids), math.sqrt(config.d_model))
    x = T.add(x, T.Tensor(_sinusoid_table(ids.shape[1], config.d_model)))
    return _dropout(x, config, rngs, lengths)


def _split_heads(x: T.Tensor, n_heads: int) -> T.Tensor:
    b, t, d = x.shape
    return T.transpose(T.reshape(x, (b, t, n_heads, d // n_heads)), (0, 2, 1, 3))


def _merge_heads(x: T.Tensor) -> T.Tensor:
    b, h, t, dh = x.shape
    return T.reshape(T.transpose(x, (0, 2, 1, 3)), (b, t, h * dh))


def _linear(params, name: str, x: T.Tensor) -> T.Tensor:
    return T.add(T.matmul(x, params[f"{name}.weight"]), params[f"{name}.bias"])


def _attention(params, prefix, q_in, kv_in, score_bias, config) -> T.Tensor:
    q = _split_heads(T.matmul(q_in, params[f"{prefix}.wq.weight"]), config.n_heads)
    k = _split_heads(T.matmul(kv_in, params[f"{prefix}.wk.weight"]), config.n_heads)
    v = _split_heads(T.matmul(kv_in, params[f"{prefix}.wv.weight"]), config.n_heads)
    scores = T.scale(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), 1.0 / math.sqrt(config.head_dim))
    scores = T.add(scores, T.Tensor(score_bias))
    ctx = T.matmul(T.softmax(scores, axis=-1), v)
    return T.matmul(_merge_heads(ctx), params[f"{prefix}.wo.weight"])


def _ln(params, prefix: str, x: T.Tensor) -> T.Tensor:
    return T.layer_norm(x, params[f"{prefix}.gain"], params[f"{prefix}.bias"])


def _ff(params, prefix: str, x: T.Tensor) -> T.Tensor:
    return _linear(params, f"{prefix}.w2", T.relu(_linear(params, f"{prefix}.w1", x)))


def _residual(x: T.Tensor, sub: T.Tensor, config: ModelConfig, rngs, lengths) -> T.Tensor:
    return T.add(x, _dropout(sub, config, rngs, lengths))


def _key_bias(src_mask: np.ndarray) -> np.ndarray:
    # [B, 1, 1, S]: real positions add 0, padded keys get the penalty
    return ((1.0 - src_mask) * MASK_PENALTY).astype(np.float32)[:, None, None, :]


def _reshaped(x: T.Tensor, shape: tuple[int, ...]) -> T.Tensor:
    return x if x.shape == shape else T.reshape(x, shape)


def _check_source(src_ids, src_mask, config: ModelConfig) -> tuple[np.ndarray, np.ndarray]:
    """Validated ids and mask as [B, S] arrays."""
    ids = np.asarray(src_ids, dtype=np.int64)
    mask = np.asarray(src_mask, dtype=np.float32)
    if ids.ndim not in (1, 2) or mask.shape != ids.shape:
        raise ValueError(
            "source ids/mask must be aligned 1-D or [batch, length], "
            f"got {ids.shape} / {mask.shape}"
        )
    if ids.shape[-1] > config.max_src_len:
        raise ValueError(f"source length {ids.shape[-1]} exceeds limit {config.max_src_len}")
    if mask.size == 0 or (mask.sum(axis=-1) == 0).any():
        raise ValueError("no attendable source positions: mask is all zero")
    return np.atleast_2d(ids), np.atleast_2d(mask)


def encode_source(
    params: ParameterStore,
    src_ids,
    src_mask,
    config: ModelConfig,
    train: bool = False,
    rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
) -> T.Tensor:
    """Run the encoder stack over ids [B, S]; returns states [B, S, d_model].
    One example may be given as ids [S], and then gets states [S, d_model].

    `src_mask` is 1.0 at real positions, 0.0 at padding. Padded positions
    are never attended to, so extending a source with extra padding leaves
    the states at real positions unchanged. For training with dropout,
    `rng` is one generator per example (or one generator for one example).
    Each example draws its masks over its own length up to its last real
    position, so the draws do not depend on how examples are batched.
    """
    ids, mask = _check_source(src_ids, src_mask, config)
    rngs = _dropout_rngs(rng, len(ids), train, config)
    # each example's length up to its last real position
    lengths = None if rngs is None else mask.shape[1] - np.argmax(mask[:, ::-1] > 0, axis=1)
    bias = _key_bias(mask)
    x = _embed(params, ids, config, rngs, lengths)
    for i in range(config.n_enc_layers):
        p = f"enc.{i}"
        normed = _ln(params, f"{p}.self_attn.ln", x)
        x = _residual(x, _attention(params, f"{p}.self_attn", normed, normed, bias, config),
                      config, rngs, lengths)
        x = _residual(x, _ff(params, f"{p}.ff", _ln(params, f"{p}.ff.ln", x)),
                      config, rngs, lengths)
    states = _ln(params, "enc.final_ln", x)
    return _reshaped(states, states.shape[1:]) if np.ndim(src_ids) == 1 else states


def decode_logits(
    params: ParameterStore,
    enc_states: T.Tensor,
    src_mask,
    dec_input,
    config: ModelConfig,
    train: bool = False,
    rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
) -> T.Tensor:
    """Teacher-forced decoder pass over dec_input [B, T]; returns logits
    [B, T, vocab_size]. One example (dec_input [T], src_mask [S],
    enc_states [S, d_model]) gets logits [T, vocab_size].

    `dec_input` is the shifted target (pad first). Position t may look at
    decoder positions <= t and at unmasked source positions only. `rng`
    is as for :func:`encode_source`, and continues its streams.
    """
    ids = np.asarray(dec_input, dtype=np.int64)
    mask = np.asarray(src_mask, dtype=np.float32)
    if ids.ndim not in (1, 2) or ids.shape[-1] == 0:
        raise ValueError(
            f"decoder input must be non-empty 1-D or [batch, length], got shape {ids.shape}"
        )
    if ids.shape[-1] > config.max_tgt_len + 1:
        raise ValueError(f"decoder length {ids.shape[-1]} exceeds limit {config.max_tgt_len + 1}")
    if mask.shape != enc_states.shape[:-1]:
        raise ValueError(
            f"src_mask shape {mask.shape} does not match encoder states {enc_states.shape}"
        )
    if mask.shape[:-1] != ids.shape[:-1]:
        raise ValueError(f"decoder input {ids.shape} and src_mask {mask.shape} differ in batch")
    if mask.size == 0 or (mask.sum(axis=-1) == 0).any():
        raise ValueError("no attendable source positions: mask is all zero")

    ids, mask = np.atleast_2d(ids), np.atleast_2d(mask)
    batch, t = ids.shape
    rngs = _dropout_rngs(rng, batch, train, config)
    lengths = [t] * batch
    enc = _reshaped(enc_states, (batch, *enc_states.shape[-2:]))
    causal = np.triu(np.full((t, t), MASK_PENALTY, dtype=np.float32), k=1)
    cross_bias = _key_bias(mask)
    x = _embed(params, ids, config, rngs, lengths)
    for i in range(config.n_dec_layers):
        p = f"dec.{i}"
        normed = _ln(params, f"{p}.self_attn.ln", x)
        x = _residual(x, _attention(params, f"{p}.self_attn", normed, normed, causal, config),
                      config, rngs, lengths)
        x = _residual(
            x,
            _attention(params, f"{p}.cross_attn", _ln(params, f"{p}.cross_attn.ln", x),
                       enc, cross_bias, config),
            config, rngs, lengths,
        )
        x = _residual(x, _ff(params, f"{p}.ff", _ln(params, f"{p}.ff.ln", x)),
                      config, rngs, lengths)
    logits = _linear(params, "out_proj", _ln(params, "dec.final_ln", x))
    return _reshaped(logits, logits.shape[1:]) if np.ndim(dec_input) == 1 else logits


def shift_right(target_ids) -> np.ndarray:
    """Decoder input for teacher forcing: pad token, then all but the last target."""
    ids = np.asarray(target_ids, dtype=np.int64)
    if ids.ndim != 1 or len(ids) == 0:
        raise ValueError("target must be a non-empty 1-D id sequence")
    return np.concatenate(([PAD], ids[:-1]))


def generate_greedy(
    params: ParameterStore,
    src_ids,
    src_mask,
    config: ModelConfig,
    max_steps: int | None = None,
    enc_states: T.Tensor | None = None,
) -> list[int]:
    """Greedy decode: argmax at each step (ties break to the lowest id),
    stopping at the end token or after max_steps tokens. `enc_states`,
    if given, are this source's encoder states, which are then not
    computed again."""
    limit = config.max_tgt_len if max_steps is None else max_steps
    if limit < 1:
        raise ValueError(f"max_steps must be positive, got {limit}")
    if enc_states is None:
        enc_states = encode_source(params, src_ids, src_mask, config)
    out: list[int] = []
    dec_input = [PAD]
    for _ in range(limit):
        logits = decode_logits(params, enc_states, src_mask, dec_input, config)
        next_id = int(np.argmax(logits.data[-1]))
        out.append(next_id)
        if next_id == EOS:
            break
        dec_input.append(next_id)
    return out


def score_sequence(params: ParameterStore, src_ids, src_mask, target_ids, config: ModelConfig,
                   enc_states: T.Tensor | None = None) -> float:
    """Sum of log-probabilities of `target_ids` (which must end with the
    end token) under teacher forcing. `enc_states` are as for
    :func:`generate_greedy`."""
    tgt = np.asarray(target_ids, dtype=np.int64)
    if len(tgt) == 0 or tgt[-1] != EOS:
        raise ValueError("target must be non-empty and end with the end token")
    if enc_states is None:
        enc_states = encode_source(params, src_ids, src_mask, config)
    logits = decode_logits(params, enc_states, src_mask, shift_right(tgt), config).data
    shifted = logits - logits.max(axis=1, keepdims=True)
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return float(logp[np.arange(len(tgt)), tgt].sum())


def example_loss(
    params: ParameterStore,
    src_ids,
    src_mask,
    target_ids,
    config: ModelConfig,
    train: bool = False,
    rng: np.random.Generator | Sequence[np.random.Generator] | None = None,
) -> T.Tensor:
    """Mean over examples of each example's mean cross-entropy over its
    target positions. Sources are as for :func:`encode_source`; targets
    are [B, T] (or [T] for one example), all of one length, so this is
    the mean over every target position of the batch."""
    tgt = np.asarray(target_ids, dtype=np.int64)
    dec_input = np.stack([shift_right(row) for row in np.atleast_2d(tgt)]).reshape(tgt.shape)
    enc = encode_source(params, src_ids, src_mask, config, train=train, rng=rng)
    logits = decode_logits(params, enc, src_mask, dec_input, config, train=train, rng=rng)
    return T.cross_entropy(_reshaped(logits, (tgt.size, config.vocab_size)), tgt.reshape(-1))
