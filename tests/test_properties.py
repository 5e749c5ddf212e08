"""Round trips of the TSV field escape, the dataset file and the
vocabulary file, over generated inputs; and the CLI's exits on input
files with mutated bytes."""

import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import crisisadapt.cli as cli

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


# the 16-dim set-up of the CLI tests
CLI_CONFIG = {
    "model": {"size": "tiny", "d_model": 16, "n_heads": 2, "d_ff": 32,
              "n_enc_layers": 1, "n_dec_layers": 1, "dropout": 0.0,
              "max_src_len": 48, "max_tgt_len": 4},
    "train": {"peak_lr": 0.001, "effective_batch": 8, "epochs": 2},
}


def run_cli(argv) -> tuple[int, str, list]:
    """Exit code, stderr and the warnings raised of one `cli.main` call."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err), \
            warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = cli.main(argv)
    return code, err.getvalue(), caught


@pytest.fixture(scope="module")
def cli_inputs(tmp_path_factory):
    """The six input files of `train --resume`, keyed by flag, with a
    checkpoint at the end of its run: resuming it under the same config
    takes no training step and only evaluates."""
    root = tmp_path_factory.mktemp("inputs")
    data = root / "data"
    inputs = {"train-file": data / "train.tsv", "test-file": data / "test.tsv",
              "registry": data / "registry.json", "vocab": root / "vocab.txt",
              "config": root / "config.json", "resume": root / "run" / "checkpoint.castckpt"}
    inputs["config"].write_text(json.dumps(CLI_CONFIG), encoding="utf-8")
    steps = [["synth", "--out", str(data), "--n-train", "8", "--n-test", "4"],
             ["build-vocab", "--train-file", str(inputs["train-file"]),
              "--registry", str(inputs["registry"]), "--scenario", "postq", "--min-freq", "1",
              "--out", str(inputs["vocab"])],
             train_argv({k: v for k, v in inputs.items() if k != "resume"}, root / "run")]
    for argv in steps:
        assert run_cli(argv)[0] == 0
    return inputs


def train_argv(inputs, out) -> list[str]:
    return ["train", "--scenario", "postq", "--target-event", "alpha_flood", "--out", str(out),
            *(arg for flag, path in inputs.items() for arg in (f"--{flag}", str(path)))]


@settings(deadline=None, max_examples=40)
@given(flag=st.sampled_from(["train-file", "test-file", "registry", "vocab", "config", "resume"]),
       data=st.data())
def test_mutated_input_file_exits_with_one_error_line_naming_it(cli_inputs, flag, data):
    raw = cli_inputs[flag].read_bytes()
    start = data.draw(st.integers(0, len(raw)), label="start")
    cut = data.draw(st.one_of(st.integers(0, 2), st.integers(0, len(raw) - start)), label="cut")
    mutated = raw[:start] + data.draw(st.binary(max_size=2), label="insert") + raw[start + cut:]
    assume(mutated != raw)
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp) / cli_inputs[flag].name
        bad.write_bytes(mutated)
        out = Path(tmp) / "out"
        code, err, caught = run_cli(train_argv({**cli_inputs, flag: bad}, out))
        assert not caught, [str(w.message) for w in caught]
        assert code in (0, 2, 3, 5)
        if code == 0:
            assert err == ""
        else:
            (line,) = err.splitlines()
            assert line.startswith("error: ") and str(bad) in line
            assert not [p for p in out.rglob("*") if p.is_file()]
