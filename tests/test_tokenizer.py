"""Tokenization, vocabulary construction, and bounded encoding."""

from dataclasses import replace

import numpy as np
import pytest

from crisisadapt.corpus import EventDescriptor
from crisisadapt.errors import VocabError
from crisisadapt.prompt import construct
from crisisadapt.tokenizer import (
    EOS,
    PAD,
    TEMPLATE_FORCED_TOKENS,
    UNK,
    Vocabulary,
    _digest,
    build_vocab,
    decode,
    encode_augmented,
    load_vocab,
    save_vocab,
    tokenize,
)
from conftest import make_record


# ---------------------------------------------------------------------------
# Tokenizer


@pytest.mark.parametrize(
    "text,expected",
    [
        ("water rising fast", ["water", "rising", "fast"]),
        ("Flood!", ["flood", "!"]),
        ("it's fine", ["it's", "fine"]),
        ("...wow...", [".", ".", ".", "wow", ".", ".", "."]),
        ("Content: hi.", ["content", ":", "hi", "."]),
        ("  spaced\tout \n lines ", ["spaced", "out", "lines"]),
        ("", []),
        ("?!", ["?", "!"]),
        ("CAPS and MiXeD", ["caps", "and", "mixed"]),
        ("don't-stop", ["don't-stop"]),  # inner punctuation stays attached
    ],
)
def test_tokenize_cases(text, expected):
    assert tokenize(text) == expected


def test_tokenize_applies_nfc():
    composed = "café"
    decomposed = "café"
    assert tokenize(decomposed) == tokenize(composed) == ["café"]


def test_template_tokens_all_tokenize_to_themselves():
    for tok in TEMPLATE_FORCED_TOKENS:
        assert tokenize(tok) == [tok]


# ---------------------------------------------------------------------------
# Vocabulary


def test_build_vocab_specials_and_ranking():
    vocab = build_vocab(["b b b a a c", "a"], min_freq=1, max_size=100, forced=set())
    assert vocab.id_to_token[:3] == ("<pad>", "<eos>", "<unk>")
    # frequency desc, then token asc
    assert vocab.id_to_token[3:] == ("a", "b", "c")
    assert vocab.lookup("a") == 3
    assert vocab.lookup("zzz") == UNK


def test_build_vocab_min_freq_drops_rare_tokens():
    vocab = build_vocab(["common common rare"], min_freq=2, forced=set())
    assert "common" in vocab
    assert "rare" not in vocab


def test_build_vocab_forced_tokens_survive_min_freq_and_max_size():
    corpus = [" ".join(f"w{i}" for i in range(50))] * 3
    vocab = build_vocab(corpus, min_freq=2, max_size=10, forced={"yes", "no"})
    assert "yes" in vocab and "no" in vocab
    assert vocab.size <= 10


def test_build_vocab_max_size_truncates():
    corpus = ["a a a b b c"]
    vocab = build_vocab(corpus, min_freq=1, max_size=5, forced=set())
    assert vocab.size == 5
    assert "a" in vocab and "b" in vocab and "c" not in vocab


def test_build_vocab_deterministic_hash():
    corpus = ["water rising fast", "roads cut off"]
    a = build_vocab(corpus, min_freq=1)
    b = build_vocab(corpus, min_freq=1)
    assert a.id_to_token == b.id_to_token
    assert a.content_hash == b.content_hash
    c = build_vocab(corpus + ["extra words here"], min_freq=1)
    assert c.content_hash != a.content_hash


def test_build_vocab_rejects_empty_corpus_and_tiny_max_size():
    with pytest.raises(VocabError):
        build_vocab([])
    with pytest.raises(VocabError, match="max_size"):
        build_vocab(["hi"], max_size=4, forced={"yes", "no"})


def test_default_forced_tokens_cover_templates():
    qld = EventDescriptor("nq_flood", "queensland", "floods")
    vocab = build_vocab(["filler"], min_freq=1)
    for scenario in ("postq", "variant1", "variant2", "variant3"):
        aug = construct(make_record(0, "nq_flood", "x"), scenario, qld)
        suffix = aug.text[aug.content_span[1]:]
        for tok in tokenize(suffix):
            if tok in ("queensland", "floods"):
                continue  # event names come from the corpus, not the template
            assert tok in vocab, (scenario, tok)


def test_vocab_round_trip(tmp_path):
    vocab = build_vocab(["water rising fast", "water falls"], min_freq=1)
    p = tmp_path / "vocab.txt"
    save_vocab(vocab, p)
    loaded = load_vocab(p)
    assert loaded.id_to_token == vocab.id_to_token
    assert loaded.content_hash == vocab.content_hash
    assert loaded.min_freq == vocab.min_freq
    assert loaded.max_size == vocab.max_size


def test_load_vocab_rejects_tampered_hash(tmp_path):
    vocab = build_vocab(["water rising"], min_freq=1)
    p = tmp_path / "vocab.txt"
    save_vocab(vocab, p)
    text = p.read_text(encoding="utf-8").replace("water", "later")
    p.write_text(text, encoding="utf-8")
    with pytest.raises(VocabError, match="hash"):
        load_vocab(p)


def test_load_vocab_rejects_repeated_token(tmp_path):
    """A repeated token is refused even under a matching content_hash;
    `lookup` would otherwise see only its last id."""
    vocab = build_vocab(["water rising"], min_freq=1)
    tokens = vocab.id_to_token + ("yes",)
    p = tmp_path / "vocab.txt"
    save_vocab(replace(vocab, id_to_token=tokens,
                       content_hash=_digest(tokens, vocab.min_freq, vocab.max_size)), p)
    with pytest.raises(VocabError, match=rf"vocab\.txt: token 'yes' repeated at ids "
                                         rf"{vocab.lookup('yes')} and {vocab.size}"):
        load_vocab(p)


@pytest.mark.parametrize("field, value", [("min_freq", "two"), ("max_size", "1e4")])
def test_load_vocab_rejects_non_integer_header(tmp_path, field, value):
    vocab = build_vocab(["water rising"], min_freq=1)
    p = tmp_path / "vocab.txt"
    save_vocab(vocab, p)
    text = p.read_text(encoding="utf-8")
    p.write_text(text.replace(f"# {field}={getattr(vocab, field)}\n", f"# {field}={value}\n"),
                 encoding="utf-8")
    with pytest.raises(VocabError, match=f"vocab\\.txt: vocabulary header {field} must be "
                                         f"an integer, got '{value}'"):
        load_vocab(p)


# ---------------------------------------------------------------------------
# Encoding


@pytest.fixture
def vocab() -> Vocabulary:
    corpus = ["alpha beta gamma delta epsilon zeta eta theta"]
    return build_vocab(corpus, min_freq=1)


def aug_vocab_and_input(text: str, vocab_text: str | None = None):
    """An augmented input of `text` and a vocabulary built over the
    augmented text, or over `vocab_text` plus the template words."""
    event = EventDescriptor("nq_flood", "Queensland", "Floods")
    aug = construct(make_record(0, "nq_flood", text), "postq", event)
    vocab = build_vocab([aug.text if vocab_text is None else vocab_text], min_freq=1)
    return vocab, aug


def test_encode_without_padding():
    vocab, aug = aug_vocab_and_input("water rising fast")
    ids = encode_augmented(aug, vocab, 64)
    # a 1-D id array ending in EOS; padding and mask come per batch
    assert ids.dtype == np.int64 and ids.shape == (len(tokenize(aug.text)) + 1,)
    assert ids[-1] == EOS and PAD not in ids.tolist()


def test_encode_truncates_tail_and_keeps_eos():
    """An over-long input keeps the head of its content: the content's
    tail is dropped, and EOS still ends the ids."""
    vocab, aug = aug_vocab_and_input("alpha beta gamma delta epsilon zeta")
    prefix = len(tokenize(aug.text[: aug.content_span[0]]))
    suffix = len(tokenize(aug.text[aug.content_span[1]:]))
    ids = encode_augmented(aug, vocab, prefix + 3 + suffix + 1).tolist()
    assert ids[prefix: prefix + 3] == [vocab.lookup(t) for t in ("alpha", "beta", "gamma")]
    assert vocab.lookup("delta") not in ids and ids[-1] == EOS


def test_encode_unknown_words_map_to_unk():
    vocab, aug = aug_vocab_and_input("water mystery", vocab_text="water")
    ids = encode_augmented(aug, vocab, 64).tolist()
    content = ids[len(tokenize(aug.text[: aug.content_span[0]])):][:2]
    assert content == [vocab.lookup("water"), UNK]


def test_special_token_text_encodes_as_unk():
    """Message text that spells a special token is an unknown word: it
    can neither pad a source nor end it early."""
    vocab, aug = aug_vocab_and_input("help <pad> <eos> now")
    ids = encode_augmented(aug, vocab, 64).tolist()
    assert PAD not in ids and ids.count(EOS) == 1 and ids[-1] == EOS
    content = ids[len(tokenize(aug.text[: aug.content_span[0]])):][:4]
    assert content == [vocab.lookup("help"), UNK, UNK, vocab.lookup("now")]
    assert [vocab.lookup(tok) for tok in ("<pad>", "<eos>", "<unk>")] == [UNK] * 3


def test_encode_rejects_tiny_max_len():
    vocab, aug = aug_vocab_and_input("water")
    with pytest.raises(ValueError, match="max_len must be >= 2"):
        encode_augmented(aug, vocab, 1)


def test_decode_stops_at_eos_and_skips_pad(vocab):
    a = vocab.lookup("alpha")
    b = vocab.lookup("beta")
    assert decode([a, PAD, b, EOS, a], vocab) == "alpha beta"
    assert decode([EOS, a], vocab) == ""
    with pytest.raises(IndexError):
        decode([vocab.size], vocab)


def test_encode_decode_round_trip():
    vocab, aug = aug_vocab_and_input("Water rising, fast!")
    assert decode(encode_augmented(aug, vocab, 64), vocab) == " ".join(tokenize(aug.text))


# ---------------------------------------------------------------------------
# Augmented encoding: template survives truncation


def test_encode_augmented_matches_plain_encode_when_short():
    """An input that fits encodes as its whole text would: every token's
    id, then EOS."""
    vocab, aug = aug_vocab_and_input("water rising fast")
    assert encode_augmented(aug, vocab, 64).tolist() == \
        [vocab.lookup(t) for t in tokenize(aug.text)] + [EOS]


def test_encode_augmented_truncates_content_only():
    long_text = " ".join(["water"] * 50)
    vocab, aug = aug_vocab_and_input(long_text)
    max_len = 24
    ids = encode_augmented(aug, vocab, max_len).tolist()
    assert len(ids) == max_len
    assert ids[-1] == EOS
    suffix_tokens = tokenize(aug.text[aug.content_span[1]:])
    tail = ids[-1 - len(suffix_tokens): -1]
    assert tail == [vocab.lookup(t) for t in suffix_tokens]
    assert decode(ids, vocab).endswith("is this message relevant to queensland floods ?")


def test_encode_augmented_rejects_template_overflow():
    vocab, aug = aug_vocab_and_input("water")
    with pytest.raises(ValueError, match="template alone"):
        encode_augmented(aug, vocab, 8)

