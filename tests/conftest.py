from dataclasses import replace

import numpy as np
import pytest

import crisisadapt.tensor as T
from crisisadapt.corpus import CrisisRecord, EventDescriptor
from crisisadapt.tokenizer import (
    EOS,
    TEMPLATE_FORCED_TOKENS,
    Vocabulary,
    _digest,
    build_vocab,
    tokenize,
)


def make_record(i: int, event_id: str = "evt", text: str | None = None,
                label: str = "yes") -> CrisisRecord:
    return CrisisRecord(
        id=f"{event_id}:{i:04d}",
        text=text if text is not None else f"message number {i}",
        raw_label=label,
        event_id=event_id,
        unified_label=label if label in ("yes", "no") else None,
    )


def encode_text(text: str, vocab) -> np.ndarray:
    """`text` as an encoded source: its token ids (UNK for unknown words)
    then EOS, as `encode_augmented` encodes an input that fits."""
    return np.array([vocab.lookup(tok) for tok in tokenize(text)] + [EOS], dtype=np.int64)


def bare_vocab(text: str) -> Vocabulary:
    """The vocabulary of the words of `text` alone: what `build_vocab`
    makes of it at min_freq 1, less the template tokens `text` lacks, with
    its hash taken again."""
    vocab = build_vocab([text], min_freq=1)
    words = set(tokenize(text))
    tokens = tuple(t for t in vocab.id_to_token if t in words or t not in TEMPLATE_FORCED_TOKENS)
    return replace(vocab, id_to_token=tokens, token_to_id={t: i for i, t in enumerate(tokens)},
                   content_hash=_digest(tokens, vocab.min_freq, vocab.max_size))


def leaf_grads(tape: T.Tape, loss: T.Tensor, leaves: list) -> list:
    """Run `backward` from `loss` and return the gradient of each leaf,
    read through `into=` arrays of zeros: zeros for a leaf the walk never
    reached."""
    into = {t: np.zeros_like(t.data) for t in leaves}
    T.backward(tape, loss, into=into)
    return [into[t] for t in leaves]


def assert_views_of(arrays: dict, flat: np.ndarray, names: list) -> None:
    """Each named array is the slice of `flat` that follows those named
    before it, and together they cover `flat`."""
    start = 0
    for name in names:
        arr = arrays[name]
        assert arr.base is flat, name
        assert arr.__array_interface__["data"][0] == flat.ctypes.data + start * flat.itemsize
        start += arr.size
    assert start == flat.size


@pytest.fixture
def flood_event() -> EventDescriptor:
    return EventDescriptor("nq_flood", "Queensland", "Floods")


@pytest.fixture
def quake_event() -> EventDescriptor:
    return EventDescriptor("np_quake", "Nepal", "Earthquake")


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(20240817))


def scripted_decoder(decode_logits, script, rows=None):
    """Wrap a `model.decode_logits` so that greedy decoding emits the ids
    in `script` first: at position t, every row's logit for script[t] is
    raised by 100. Positions past the script keep the model's logits.
    With `rows`, only the rows where `rows(mask)` is true are scripted,
    `mask` being the memory's [B, S] source mask, true at real positions."""
    def scripted(params, memory, *args, **kwargs):
        logits = decode_logits(params, memory, *args, **kwargs)
        picked = slice(None) if rows is None else rows(memory.bias[:, 0, 0] == 0)
        for t, tok in enumerate(script[: logits.data.shape[1]]):
            logits.data[picked, t, tok] += 100.0
        return logits
    return scripted


def finite_diff_check(f, x: T.Tensor, eps: float = 1e-5, floor: float = 1e-12) -> float:
    """Compare f's analytic gradient at x against central differences.

    Returns the max over coordinates of |analytic - numeric| scaled by
    max(|analytic|, |numeric|, floor). f must be deterministic: two
    baseline evaluations are compared bitwise first.
    """
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")

    def evaluate(arr: np.ndarray) -> float:
        out = f(T.Tensor(arr))
        if out.data.shape != ():
            raise ValueError(f"f must be scalar-valued, got shape {out.data.shape}")
        return float(out.data)

    base = evaluate(x.data.copy())
    if evaluate(x.data.copy()) != base:
        raise ValueError("f is non-deterministic: two baseline evaluations differ")

    probe = T.Tensor(x.data.copy(), requires_grad=True)
    with T.Tape() as tape:
        loss = f(probe)
    [analytic] = leaf_grads(tape, loss, [probe])

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

    denom = np.maximum(np.maximum(np.abs(analytic), np.abs(numeric)), floor)
    return float((np.abs(analytic - numeric) / denom).max())
