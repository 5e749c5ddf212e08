"""Corpus-derived word-level vocabulary and bounded id-sequence codec.

The normalizer applies Unicode NFC, lowercases, splits on whitespace and
NUL, and peels each leading/trailing punctuation character (Unicode
category P*) off into its own token, so "Flood!" becomes ["flood", "!"].
No token holds a NUL, the separator of the vocabulary's content hash.

An augmented input encodes to a 1-D id array ending in EOS, which
:func:`train.pad_sources` pads and masks per batch. Truncation keeps the
template: tokens are dropped from the end of the message content only, so
the event description survives encoding.
"""

from __future__ import annotations

import hashlib
import unicodedata
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from .errors import VocabError
from .files import write_atomic
from .prompt import AugmentedInput

PAD, EOS, UNK = 0, 1, 2
PAD_TOKEN, EOS_TOKEN, UNK_TOKEN = "<pad>", "<eos>", "<unk>"
SPECIAL_TOKENS = (PAD_TOKEN, EOS_TOKEN, UNK_TOKEN)

DEFAULT_MIN_FREQ = 2
DEFAULT_MAX_SIZE = 8192

# Every word that can appear in a template, plus the target labels; these
# are forced into any vocabulary regardless of corpus frequency.
TEMPLATE_FORCED_TOKENS = frozenset(
    "content : . question is this message relevant to a event that occurred in ? "
    "yes no".split()
)


@lru_cache(maxsize=4096)
def _is_punct(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def tokenize(text: str) -> list[str]:
    """Normalize and split text into tokens."""
    text = unicodedata.normalize("NFC", text).lower().replace("\x00", " ")
    tokens: list[str] = []
    for chunk in text.split():
        lead: list[str] = []
        trail: list[str] = []
        while chunk and _is_punct(chunk[0]):
            lead.append(chunk[0])
            chunk = chunk[1:]
        while chunk and _is_punct(chunk[-1]):
            trail.append(chunk[-1])
            chunk = chunk[:-1]
        tokens.extend(lead)
        if chunk:
            tokens.append(chunk)
        tokens.extend(reversed(trail))
    return tokens


@dataclass(frozen=True)
class Vocabulary:
    """Immutable token<->id map with dense ids; specials occupy 0-2."""

    id_to_token: tuple[str, ...]
    token_to_id: dict[str, int]
    min_freq: int
    max_size: int
    content_hash: str  # 64-bit digest, 16 hex chars

    @property
    def size(self) -> int:
        return len(self.id_to_token)

    def lookup(self, token: str) -> int:
        """The id of `token`; UNK for a word outside the vocabulary and for
        the special strings, so that no text can encode to PAD or EOS."""
        i = self.token_to_id.get(token, UNK)
        return i if i >= len(SPECIAL_TOKENS) else UNK


def _digest(tokens: tuple[str, ...], min_freq: int, max_size: int) -> str:
    h = hashlib.sha256()
    h.update(f"{min_freq}\x00{max_size}\x00".encode("utf-8"))
    for tok in tokens:
        h.update(tok.encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:16]


def build_vocab(
    corpus: list[str],
    min_freq: int = DEFAULT_MIN_FREQ,
    max_size: int = DEFAULT_MAX_SIZE,
    forced: frozenset[str] | set[str] = TEMPLATE_FORCED_TOKENS,
) -> Vocabulary:
    """Build a vocabulary from raw texts.

    Tokens are ranked by (frequency desc, token asc); tokens below
    min_freq are dropped unless forced; the ranking is truncated to
    max_size with forced tokens always retained.
    """
    if not corpus:
        raise VocabError("cannot build a vocabulary from an empty corpus")
    forced = frozenset(forced)
    capacity = max_size - len(SPECIAL_TOKENS)
    if capacity < len(forced):
        raise VocabError(
            f"max_size={max_size} cannot hold {len(SPECIAL_TOKENS)} specials "
            f"plus {len(forced)} forced tokens"
        )

    freq: dict[str, int] = {}
    for text in corpus:
        for tok in tokenize(text):
            freq[tok] = freq.get(tok, 0) + 1

    candidates = [
        tok
        for tok in freq
        if (freq[tok] >= min_freq or tok in forced) and tok not in SPECIAL_TOKENS
    ]
    for tok in sorted(forced):
        if tok not in freq and tok not in SPECIAL_TOKENS:
            candidates.append(tok)
    candidates.sort(key=lambda t: (-freq.get(t, 0), t))

    if len(candidates) > capacity:
        budget = capacity - sum(1 for t in candidates if t in forced)
        kept = []
        for tok in candidates:
            if tok in forced:
                kept.append(tok)
            elif budget > 0:
                kept.append(tok)
                budget -= 1
        candidates = kept

    id_to_token = tuple(SPECIAL_TOKENS) + tuple(candidates)
    token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
    return Vocabulary(
        id_to_token=id_to_token,
        token_to_id=token_to_id,
        min_freq=min_freq,
        max_size=max_size,
        content_hash=_digest(id_to_token, min_freq, max_size),
    )


def encode_augmented(aug: AugmentedInput, vocab: Vocabulary, max_len: int) -> np.ndarray:
    """Encode an augmented input as at most `max_len` int64 ids ending in
    EOS (UNK for out-of-vocabulary tokens), truncating only the content.

    The template prefix and suffix around the content span are tokenized
    separately (split points fall on whitespace/punctuation boundaries, so
    the pieces tokenize identically to the whole). If prefix + suffix +
    EOS alone exceed max_len the template cannot be represented and a
    ValueError is raised rather than silently cutting the event phrase.
    """
    if max_len < 2:
        raise ValueError(f"max_len must be >= 2, got {max_len}")
    start, end = aug.content_span
    prefix_ids = [vocab.lookup(t) for t in tokenize(aug.text[:start])]
    content_ids = [vocab.lookup(t) for t in tokenize(aug.text[start:end])]
    suffix_ids = [vocab.lookup(t) for t in tokenize(aug.text[end:])]
    budget = max_len - 1 - len(prefix_ids) - len(suffix_ids)
    if budget < 0:
        raise ValueError(
            f"template alone needs {len(prefix_ids) + len(suffix_ids) + 1} tokens, "
            f"over max_len={max_len}"
        )
    return np.array(prefix_ids + content_ids[:budget] + suffix_ids + [EOS], dtype=np.int64)


def decode(ids, vocab: Vocabulary) -> str:
    """Ids back to text: drop PADs and everything at/after the first EOS,
    join the remaining tokens with single spaces."""
    tokens = []
    for i in ids:
        i = int(i)
        if not 0 <= i < vocab.size:
            raise IndexError(f"id {i} outside vocabulary of size {vocab.size}")
        if i == EOS:
            break
        if i == PAD:
            continue
        tokens.append(vocab.id_to_token[i])
    return " ".join(tokens)


# ---------------------------------------------------------------------------
# Vocabulary file: one token per line, ids in line order, after a fixed
# header of "# key=value" comment lines.


def save_vocab(vocab: Vocabulary, path: str | Path) -> None:
    lines = [
        f"# min_freq={vocab.min_freq}",
        f"# max_size={vocab.max_size}",
        f"# content_hash={vocab.content_hash}",
    ]
    lines.extend(vocab.id_to_token)
    write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _header_int(path, header: dict[str, str], key: str) -> int:
    value = header[key]
    try:
        return int(value)
    except ValueError:
        raise VocabError(
            f"{path}: vocabulary header {key} must be an integer, got {value!r}"
        ) from None


def load_vocab(path: str | Path) -> Vocabulary:
    try:
        lines = Path(path).read_text(encoding="utf-8").split("\n")
    except UnicodeDecodeError as exc:
        raise VocabError(f"{path}: malformed UTF-8: {exc}") from None
    if lines and lines[-1] == "":
        lines.pop()
    header: dict[str, str] = {}
    body_start = 0
    for line in lines:
        if line.startswith("# ") and "=" in line:
            key, _, value = line[2:].partition("=")
            header[key] = value
            body_start += 1
        else:
            break
    try:
        min_freq = _header_int(path, header, "min_freq")
        max_size = _header_int(path, header, "max_size")
        content_hash = header["content_hash"]
    except KeyError as exc:
        raise VocabError(f"{path}: vocabulary header missing {exc}") from None

    id_to_token = tuple(lines[body_start:])
    if id_to_token[: len(SPECIAL_TOKENS)] != SPECIAL_TOKENS:
        raise VocabError(f"{path}: vocabulary must start with {SPECIAL_TOKENS}")
    token_to_id: dict[str, int] = {}
    for i, tok in enumerate(id_to_token):
        if "\x00" in tok:  # else a newline turned NUL would keep the content hash
            raise VocabError(f"{path}: token {tok!r} at id {i} holds a NUL")
        if token_to_id.setdefault(tok, i) != i:
            raise VocabError(f"{path}: token {tok!r} repeated at ids {token_to_id[tok]} and {i}")
    if _digest(id_to_token, min_freq, max_size) != content_hash:
        raise VocabError(f"{path}: content_hash mismatch, file corrupted")
    return Vocabulary(
        id_to_token=id_to_token,
        token_to_id=token_to_id,
        min_freq=min_freq,
        max_size=max_size,
        content_hash=content_hash,
    )
