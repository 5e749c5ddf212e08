"""Round trips of the TSV field escape, the dataset file and the
vocabulary file, over generated inputs."""

import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from crisisadapt.corpus import (
    CrisisRecord,
    EventDescriptor,
    escape_field,
    load_dataset,
    unescape_field,
    write_dataset,
)
from crisisadapt.tokenizer import (
    SPECIAL_TOKENS,
    TEMPLATE_FORCED_TOKENS,
    build_vocab,
    load_vocab,
    save_vocab,
)

# any text UTF-8 can hold (no lone surrogates)
TEXT = st.text(st.characters(codec="utf-8"))
# the unescaped columns (id, label, event id) hold no tab or newline
FIELD = st.text(st.characters(codec="utf-8", exclude_characters="\t\n"))
REGISTRY = {e: EventDescriptor(e, "Somewhere", "Floods") for e in ("ev_a", "ev_b")}

# no per-example deadline: the file round trips write and rename files,
# whose time depends on the disk
PROPERTY = settings(deadline=None)


@PROPERTY
@given(TEXT)
def test_escape_field_round_trip(text):
    escaped = escape_field(text)
    assert "\t" not in escaped and "\n" not in escaped
    assert unescape_field(escaped) == text


@PROPERTY
@given(st.lists(st.tuples(FIELD, TEXT, FIELD, st.sampled_from(sorted(REGISTRY))), max_size=6))
def test_dataset_file_round_trip(rows):
    records = [CrisisRecord(id=i, text=text, raw_label=label, event_id=event)
               for i, text, label, event in rows]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.tsv"
        write_dataset(records, path)
        assert load_dataset(path, REGISTRY) == records


@PROPERTY
@given(st.lists(TEXT, min_size=1, max_size=6), st.integers(1, 3),
       st.integers(len(SPECIAL_TOKENS) + len(TEMPLATE_FORCED_TOKENS), 60))
def test_vocab_file_round_trip(corpus, min_freq, max_size):
    vocab = build_vocab(corpus, min_freq=min_freq, max_size=max_size)
    with tempfile.TemporaryDirectory() as tmp:
        first, second = Path(tmp) / "a.txt", Path(tmp) / "b.txt"
        save_vocab(vocab, first)
        loaded = load_vocab(first)
        save_vocab(loaded, second)
        assert first.read_bytes() == second.read_bytes()
    assert loaded == vocab
