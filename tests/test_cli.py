"""Command-line interface: happy paths, exit codes, artifact layout."""

import hashlib
import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import crisisadapt.cli as cli
from crisisadapt.checkpoint import DIGEST_BYTES, load_checkpoint
from crisisadapt.evaluation import AdaptationMatrix
from crisisadapt.tokenizer import _digest, load_vocab, save_vocab

CONFIG = {
    "model": {"size": "tiny", "d_model": 16, "n_heads": 2, "d_ff": 32,
              "n_enc_layers": 1, "n_dec_layers": 1, "dropout": 0.0,
              "max_src_len": 48, "max_tgt_len": 4},
    "train": {"peak_lr": 0.001, "effective_batch": 8, "epochs": 2},
}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: synthetic data, vocabulary, one trained run."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert cli.main(["synth", "--out", str(data),
                     "--n-train", "8", "--n-test", "4", "--seed", "0"]) == 0
    vocab_path = root / "vocab.txt"
    assert cli.main(["build-vocab",
                     "--train-file", str(data / "train.tsv"),
                     "--registry", str(data / "registry.json"),
                     "--scenario", "postq", "--min-freq", "1",
                     "--out", str(vocab_path)]) == 0
    config_path = root / "config.json"
    config_path.write_text(json.dumps(CONFIG), encoding="utf-8")
    run = root / "run1"
    assert cli.main(["train",
                     "--train-file", str(data / "train.tsv"),
                     "--test-file", str(data / "test.tsv"),
                     "--registry", str(data / "registry.json"),
                     "--vocab", str(vocab_path),
                     "--scenario", "postq",
                     "--target-event", "alpha_flood",
                     "--config", str(config_path),
                     "--out", str(run)]) == 0
    return {"root": root, "data": data, "vocab": vocab_path,
            "config": config_path, "run": run}


def history_steps(path):
    """The step column of a history.csv."""
    return [int(row.split(",")[0]) for row in path.read_text(encoding="utf-8").splitlines()[1:]]


def base_args(ws, sub, **extra):
    args = [sub,
            "--train-file", str(ws["data"] / "train.tsv"),
            "--test-file", str(ws["data"] / "test.tsv"),
            "--registry", str(ws["data"] / "registry.json"),
            "--scenario", "postq",
            "--config", str(ws["config"])]
    for flag, value in extra.items():
        args += [f"--{flag.replace('_', '-')}", str(value)]
    return args


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "crisisadapt.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "crisisadapt" in proc.stdout


def test_synth_artifacts(ws):
    data = ws["data"]
    assert (data / "train.tsv").exists()
    assert (data / "test.tsv").exists()
    registry = json.loads((data / "registry.json").read_text(encoding="utf-8"))
    assert set(registry) == {"alpha_flood", "beta_flood", "gamma_quake"}
    lines = (data / "train.tsv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "id\ttext\tlabel\tevent_id"
    assert len(lines) == 1 + 3 * 8


def test_build_vocab_artifact(ws):
    vocab = load_vocab(ws["vocab"])
    assert "yes" in vocab and "no" in vocab
    assert vocab.size > 20


def test_train_run_artifacts(ws):
    run = ws["run"]
    for name in ("checkpoint.castckpt", "history.csv", "report.json",
                 "manifest.json"):
        assert (run / name).exists(), name
    manifest = json.loads((run / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "train"
    assert len(manifest["run_id"]) == 12
    assert manifest["task_id"] == "alpha_flood->alpha_flood/postq"
    assert manifest["steps"]["final"] == manifest["steps"]["total"] == 2
    assert len(manifest["inputs"]) == 4  # train/test/registry/vocab digests
    report = json.loads((run / "report.json").read_text(encoding="utf-8"))
    assert 0.0 <= report["accuracy"] <= 1.0
    assert report["n"] == 4
    assert history_steps(run / "history.csv") == [0, 1]
    ckpt = load_checkpoint(run / "checkpoint.castckpt")
    assert ckpt.step == 2
    assert ckpt.adam_t == 2
    assert ckpt.extra["task_id"] == "alpha_flood->alpha_flood/postq"


def test_train_resume_continues_step_count(ws, tmp_path):
    config = dict(CONFIG)
    config["train"] = dict(CONFIG["train"], epochs=4)
    config_path = tmp_path / "longer.json"
    config_path.write_text(json.dumps(config), encoding="utf-8")
    out = tmp_path / "resumed"
    args = base_args(ws, "train", vocab=ws["vocab"], target_event="alpha_flood",
                     out=out, resume=ws["run"] / "checkpoint.castckpt")
    args[args.index(str(ws["config"]))] = str(config_path)
    assert cli.main(args) == 0
    assert history_steps(out / "history.csv") == [2, 3]  # continued, not restarted
    assert load_checkpoint(out / "checkpoint.castckpt").step == 4


def test_train_resume_refuses_other_task(ws, tmp_path, capsys):
    out = tmp_path / "other_task"
    assert cli.main(base_args(ws, "train", vocab=ws["vocab"], source_events="beta_flood",
                              target_event="alpha_flood", out=out,
                              resume=ws["run"] / "checkpoint.castckpt")) == 2
    err = capsys.readouterr().err
    assert "alpha_flood->alpha_flood/postq" in err
    assert "beta_flood->alpha_flood/postq" in err
    assert not (out / "checkpoint.castckpt").exists()


def test_train_resume_refuses_other_seed(ws, tmp_path, capsys):
    run_seed = load_checkpoint(ws["run"] / "checkpoint.castckpt").seed
    out = tmp_path / "other_seed"
    assert cli.main(base_args(ws, "train", vocab=ws["vocab"], target_event="alpha_flood",
                              seed=run_seed + 5, out=out,
                              resume=ws["run"] / "checkpoint.castckpt")) == 2
    err = capsys.readouterr().err
    assert f"seed {run_seed} " in err
    assert f"seed {run_seed + 5}" in err
    assert not (out / "checkpoint.castckpt").exists()


def test_train_resume_refuses_changed_train_config(ws, tmp_path, capsys):
    changed = tmp_path / "changed.json"
    doc = {**CONFIG, "train": {"peak_lr": 0.5, "warmup_ratio": 0.5, "effective_batch": 4,
                               "epochs": 3}}
    changed.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "changed"
    args = base_args(ws, "train", vocab=ws["vocab"], target_event="alpha_flood", out=out,
                     resume=ws["run"] / "checkpoint.castckpt")
    args[args.index(str(ws["config"]))] = str(changed)
    assert cli.main(args) == 2
    assert "trained with peak_lr 0.001, not the requested 0.5" in capsys.readouterr().err
    assert not [p for p in out.rglob("*") if p.is_file()]


def test_train_cross_domain_sources(ws, tmp_path):
    out = tmp_path / "cross"
    assert cli.main(base_args(ws, "train", vocab=ws["vocab"],
                              source_events="alpha_flood,beta_flood",
                              target_event="gamma_quake", out=out)) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["task_id"] == "alpha_flood+beta_flood->gamma_quake/postq"
    assert manifest["source_events"] == ["alpha_flood", "beta_flood"]


def test_evaluate_artifacts(ws, tmp_path):
    out = tmp_path / "eval"
    assert cli.main(["evaluate",
                     "--checkpoint", str(ws["run"] / "checkpoint.castckpt"),
                     "--vocab", str(ws["vocab"]),
                     "--test-file", str(ws["data"] / "test.tsv"),
                     "--registry", str(ws["data"] / "registry.json"),
                     "--scenario", "postq",
                     "--target-event", "beta_flood",
                     "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["n"] == 4
    assert 0.0 <= report["accuracy"] <= 1.0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "evaluate"


def test_matrix_two_events_skips_correlation(ws, tmp_path, capsys):
    out = tmp_path / "matrix"
    assert cli.main(base_args(ws, "matrix", vocab=ws["vocab"],
                              events="alpha_flood,beta_flood", out=out)) == 0
    lines = (out / "matrix.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "source\\target,alpha_flood,beta_flood"
    assert len(lines) == 3
    assert not (out / "correlation.csv").exists()
    assert "skipping row correlations" in capsys.readouterr().out
    prov = json.loads((out / "provenance.json").read_text(encoding="utf-8"))
    assert prov["complete"] is True
    assert set(prov["cells"]) == {
        "alpha_flood->alpha_flood", "alpha_flood->beta_flood",
        "beta_flood->alpha_flood", "beta_flood->beta_flood"}


@pytest.mark.filterwarnings("ignore:zero variance")
def test_matrix_three_events_writes_correlation(ws, tmp_path):
    out = tmp_path / "matrix3"
    assert cli.main(base_args(ws, "matrix", vocab=ws["vocab"], out=out)) == 0
    corr = (out / "correlation.csv").read_text(encoding="utf-8").splitlines()
    assert corr[0] == "row\\row,alpha_flood,beta_flood,gamma_quake"
    assert len(corr) == 4
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["artifacts"]["correlation"] == "correlation.csv"


def test_matrix_zero_variance_rows_warn_one_plain_line_per_pair(ws, tmp_path, capsys,
                                                               monkeypatch):
    def constant_matrix(splits, registry, events, *args, **kwargs):
        matrix = AdaptationMatrix(events=tuple(sorted(events)))
        for s in matrix.events:
            for t in matrix.events:
                matrix.set_cell(s, t, 0.5)
        return matrix

    monkeypatch.setattr(cli, "run_matrix", constant_matrix)
    out = tmp_path / "flat"
    assert cli.main(base_args(ws, "matrix", vocab=ws["vocab"], out=out)) == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: zero variance when correlating rows {a} and {b}; using 0"
        for a, b in [("alpha_flood", "beta_flood"), ("alpha_flood", "gamma_quake"),
                     ("beta_flood", "gamma_quake")]
    ]
    assert (out / "correlation.csv").read_text(encoding="utf-8").splitlines()[1:] == [
        "alpha_flood,1.0000,0.0000,0.0000",
        "beta_flood,0.0000,1.0000,0.0000",
        "gamma_quake,0.0000,0.0000,1.0000",
    ]


def test_matrix_event_without_training_records_exits_3_before_training(ws, tmp_path,
                                                                       capsys):
    train_file = tmp_path / "train.tsv"
    lines = (ws["data"] / "train.tsv").read_text(encoding="utf-8").splitlines()
    kept = [line for line in lines if not line.endswith("\tgamma_quake")]
    assert len(kept) < len(lines)
    train_file.write_text("\n".join(kept) + "\n", encoding="utf-8")
    args = base_args(ws, "matrix", vocab=ws["vocab"], out=tmp_path / "m")
    args[args.index(str(ws["data"] / "train.tsv"))] = str(train_file)
    assert cli.main(args) == 3
    test_file = ws["data"] / "test.tsv"
    assert capsys.readouterr().err == (
        f"error: {train_file}, {test_file}: source event 'gamma_quake' has no training data\n")
    assert not (tmp_path / "m" / "matrix.csv").exists()


def test_loo_event_without_test_records_names_the_data_files(ws, tmp_path, capsys):
    test_file = tmp_path / "test.tsv"
    lines = (ws["data"] / "test.tsv").read_text(encoding="utf-8").splitlines()
    test_file.write_text("\n".join(line for line in lines if not line.endswith("\tbeta_flood"))
                         + "\n", encoding="utf-8")
    args = base_args(ws, "loo", vocab=ws["vocab"], events="alpha_flood,beta_flood",
                     out=tmp_path / "l")
    args[args.index(str(ws["data"] / "test.tsv"))] = str(test_file)
    assert cli.main(args) == 3
    train_file = ws["data"] / "train.tsv"
    assert capsys.readouterr().err == (
        f"error: {train_file}, {test_file}: target event 'beta_flood' has no test data\n")
    assert not (tmp_path / "l" / "loo.json").exists()


def test_loo_artifacts(ws, tmp_path):
    out = tmp_path / "loo"
    assert cli.main(base_args(ws, "loo", vocab=ws["vocab"],
                              events="alpha_flood,beta_flood", out=out)) == 0
    doc = json.loads((out / "loo.json").read_text(encoding="utf-8"))
    assert [p["target_event"] for p in doc["plans"]] == [
        "alpha_flood", "beta_flood"]
    assert all(len(p["source_events"]) == 1 for p in doc["plans"])
    assert set(doc["per_target"]) == {"alpha_flood", "beta_flood"}
    assert doc["mean"]["targets"] == 2


def test_data_dir_env_resolves_relative_inputs(ws, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv(cli.ENV_DATA_DIR, str(ws["data"]))
    out = tmp_path / "vocab-env.txt"
    assert cli.main(["build-vocab",
                     "--train-file", "train.tsv",
                     "--registry", "registry.json",
                     "--scenario", "postq", "--min-freq", "1",
                     "--out", str(out)]) == 0
    assert load_vocab(out).size > 20


def test_bad_train_config_exits_2(ws, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"train": {"peak_lr": -1.0}}), encoding="utf-8")
    args = base_args(ws, "train", vocab=ws["vocab"],
                     target_event="alpha_flood", out=tmp_path / "x")
    args[args.index(str(ws["config"]))] = str(bad)
    assert cli.main(args) == 2
    assert "peak_lr" in capsys.readouterr().err


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # numpy's overflow warnings
def test_diverging_train_exits_5_and_writes_no_artifacts(ws, tmp_path):
    """Run as a program, so that a warning numpy printed on the way to the
    non-finite loss would show on stderr next to the error line."""
    diverging = tmp_path / "diverging.json"
    doc = {**CONFIG, "train": {**CONFIG["train"], "peak_lr": 1e30, "epochs": 4}}
    diverging.write_text(json.dumps(doc), encoding="utf-8")
    out = tmp_path / "run"
    args = base_args(ws, "train", vocab=ws["vocab"], target_event="alpha_flood", out=out)
    args[args.index(str(ws["config"]))] = str(diverging)
    proc = subprocess.run([sys.executable, "-m", "crisisadapt.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 5
    (line,) = proc.stderr.splitlines()
    assert line.startswith("error: step ") and "over the chunk of slots" in line
    for name in ("checkpoint.castckpt", "history.csv", "report.json", "manifest.json"):
        assert not (out / name).exists(), name


def _entry_not_an_object(raw: bytes) -> bytes:
    return json.dumps({**json.loads(raw), "alpha_flood": 5}).encode("utf-8")


def _crisis_name(value):
    def corrupt(raw: bytes) -> bytes:
        doc = json.loads(raw)
        doc["alpha_flood"]["crisis_name"] = value
        return json.dumps(doc).encode("utf-8")
    return corrupt


def _first_label_unmapped(raw: bytes) -> bytes:
    header, first, rest = raw.split(b"\n", 2)
    cols = first.split(b"\t")
    cols[2] = b"relevantX"
    return b"\n".join([header, b"\t".join(cols), rest])


@pytest.mark.parametrize("flag, corrupt, code, cause", [
    ("registry", _entry_not_an_object, 3, "event 'alpha_flood' must be a JSON object, got int"),
    ("registry", _crisis_name(7), 3, "event 'alpha_flood': crisis_name must be a string, got 7"),
    ("registry", _crisis_name(""), 3, "event 'alpha_flood' has an empty crisis_name"),
    ("train-file", _first_label_unmapped, 3, "unmapped raw labels: 'relevantX' x1"),
    ("resume", lambda raw: raw[:-40] + bytes([raw[-40] ^ 1]) + raw[-39:], 3,
     "checkpoint digest mismatch"),
    ("resume", lambda raw: raw[:20], 3, "checkpoint truncated inside the manifest"),
    ("registry", lambda raw: raw + b"\xff", 3, "malformed UTF-8"),
    ("vocab", lambda raw: raw + b"\xff\n", 3, "malformed UTF-8"),
    ("config", lambda raw: raw + b"\xff", 2, "malformed UTF-8"),
    ("config", lambda raw: b'{"train": 5}', 2, "config section 'train' must be a JSON object"),
    ("config", lambda raw: b'{"model": [1]}', 2, "config section 'model' must be a JSON object"),
], ids=["registry_entry_not_object", "registry_name_not_string", "registry_name_empty",
        "train_label_unmapped", "checkpoint_payload_flipped", "checkpoint_truncated",
        "registry_utf8",
        "vocab_utf8", "config_utf8", "config_train_not_object", "config_model_not_object"])
def test_malformed_input_file_ends_in_one_error_line(ws, tmp_path, capsys, flag, corrupt, code,
                                                     cause):
    args = base_args(ws, "train", vocab=ws["vocab"], target_event="alpha_flood",
                     out=tmp_path / "x", resume=ws["run"] / "checkpoint.castckpt")
    given = args.index(f"--{flag}") + 1
    bad = tmp_path / Path(args[given]).name
    bad.write_bytes(corrupt(Path(args[given]).read_bytes()))
    args[given] = str(bad)
    assert cli.main(args) == code
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {bad}: ") and cause in line


@pytest.mark.parametrize("doc, field", [
    ({"train": {"epochs": 2.5}}, "epochs"),
    ({"train": {"effective_batch": 2.5}}, "effective_batch"),
    ({"seed": "x"}, "seed"),
    ({"model": {"d_model": 16.0}}, "d_model"),
    ({"train": {"peak_lr": True}}, "peak_lr"),
    ({"train": {"peak_lr": float("nan")}}, "peak_lr"),  # json writes and reads NaN
    ({"train": {"micro_batch": 4}}, "micro_batch"),  # not a train field
    ({"train": {"epochs": 10**400}}, "epochs"),  # json reads it as a Python int
    # Adam's constants are fixed; a config may not set them
    ({"train": {"beta1": 0.9}}, "beta1"),
    ({"train": {"beta2": 0.999}}, "beta2"),
    ({"train": {"adam_eps": 1e-8}}, "adam_eps"),
    ({"train": {"weight_decay": 0.0}}, "weight_decay"),
], ids=["epochs", "effective_batch", "seed", "d_model", "peak_lr", "peak_lr_nan", "unknown",
        "epochs_overflow", "beta1", "beta2", "adam_eps", "weight_decay"])
def test_mistyped_config_value_exits_2(ws, tmp_path, capsys, doc, field):
    bad = tmp_path / "typed.json"
    bad.write_text(json.dumps(doc), encoding="utf-8")
    args = base_args(ws, "train", vocab=ws["vocab"],
                     target_event="alpha_flood", out=tmp_path / "x")
    args[args.index(str(ws["config"]))] = str(bad)
    assert cli.main(args) == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("sub", ["matrix", "loo"])
@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_exits_2(ws, tmp_path, capsys, sub, jobs):
    out = tmp_path / "x"
    assert cli.main(base_args(ws, sub, vocab=ws["vocab"], jobs=jobs, out=out)) == 2
    assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


def test_malformed_config_exits_2(ws, tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    args = base_args(ws, "train", vocab=ws["vocab"],
                     target_event="alpha_flood", out=tmp_path / "x")
    args[args.index(str(ws["config"]))] = str(bad)
    assert cli.main(args) == 2
    assert "malformed" in capsys.readouterr().err


def test_unknown_config_section_exits_2(ws, tmp_path, capsys):
    bad = tmp_path / "extra.json"
    bad.write_text(json.dumps({"optimizer": {}}), encoding="utf-8")
    args = base_args(ws, "train", vocab=ws["vocab"],
                     target_event="alpha_flood", out=tmp_path / "x")
    args[args.index(str(ws["config"]))] = str(bad)
    assert cli.main(args) == 2


def test_missing_input_file_exits_3(ws, tmp_path, capsys):
    args = ["train",
            "--train-file", str(tmp_path / "nope.tsv"),
            "--test-file", str(ws["data"] / "test.tsv"),
            "--registry", str(ws["data"] / "registry.json"),
            "--vocab", str(ws["vocab"]),
            "--scenario", "postq",
            "--target-event", "alpha_flood",
            "--out", str(tmp_path / "x")]
    assert cli.main(args) == 3
    assert "not found" in capsys.readouterr().err


def test_missing_checkpoint_exits_3(ws, tmp_path):
    assert cli.main(["evaluate",
                     "--checkpoint", str(tmp_path / "ghost.castckpt"),
                     "--vocab", str(ws["vocab"]),
                     "--test-file", str(ws["data"] / "test.tsv"),
                     "--registry", str(ws["data"] / "registry.json"),
                     "--scenario", "postq",
                     "--target-event", "alpha_flood",
                     "--out", str(tmp_path / "x")]) == 3


@pytest.mark.parametrize("case", ["repeated_token", "non_integer_header"])
def test_bad_vocab_file_exits_3(ws, tmp_path, capsys, case):
    vocab = load_vocab(ws["vocab"])
    bad = tmp_path / "vocab.txt"
    if case == "repeated_token":
        tokens = vocab.id_to_token + ("yes",)
        save_vocab(replace(vocab, id_to_token=tokens,
                           content_hash=_digest(tokens, vocab.min_freq, vocab.max_size)), bad)
        named = "token 'yes' repeated"
    else:
        text = ws["vocab"].read_text(encoding="utf-8")
        bad.write_text(text.replace("# max_size=", "# max_size=x"), encoding="utf-8")
        named = "header max_size must be an integer"
    assert cli.main(base_args(ws, "train", vocab=bad, target_event="alpha_flood",
                              out=tmp_path / "x")) == 3
    err = capsys.readouterr().err
    assert str(bad) in err and named in err


def evaluate_checkpoint(ws, tmp_path, blob: bytes) -> int:
    """Exit code of `evaluate` on a checkpoint file `bad.castckpt` that
    holds `blob`."""
    bad = tmp_path / "bad.castckpt"
    bad.write_bytes(blob)
    return cli.main(["evaluate",
                     "--checkpoint", str(bad),
                     "--vocab", str(ws["vocab"]),
                     "--test-file", str(ws["data"] / "test.tsv"),
                     "--registry", str(ws["data"] / "registry.json"),
                     "--scenario", "postq",
                     "--target-event", "alpha_flood",
                     "--out", str(tmp_path / "x")])


def evaluate_with_config_entry(ws, tmp_path, key, value) -> int:
    """Exit code of `evaluate` on the trained checkpoint with one entry of
    its manifest's model config replaced, signed with the digest of its
    new content."""
    blob = (ws["run"] / "checkpoint.castckpt").read_bytes()
    head = len(b"CASTCKPT") + 4
    mlen = int.from_bytes(blob[head : head + 4], "little")
    manifest = json.loads(blob[head + 4 : head + 4 + mlen])
    manifest["config"][key] = value
    body = json.dumps(manifest).encode("utf-8")
    edited = (blob[:head] + len(body).to_bytes(4, "little") + body
              + blob[head + 4 + mlen : -DIGEST_BYTES])
    return evaluate_checkpoint(ws, tmp_path, edited + hashlib.sha256(edited).digest())


def test_checkpoint_with_edited_step_exits_3(ws, tmp_path, capsys):
    path = ws["run"] / "checkpoint.castckpt"
    step = load_checkpoint(path).step
    blob = path.read_bytes()
    old, new = (f'"step":{n},'.encode() for n in (step, step + 1))
    assert blob.count(old) == 1
    assert evaluate_checkpoint(ws, tmp_path, blob.replace(old, new)) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {tmp_path / 'bad.castckpt'}: checkpoint digest mismatch")
    assert not (tmp_path / "x").exists()


def test_checkpoint_with_unusable_config_exits_3(ws, tmp_path, capsys):
    assert evaluate_with_config_entry(ws, tmp_path, "n_heads", 3) == 3
    assert "n_heads 3" in capsys.readouterr().err


def test_checkpoint_with_mistyped_config_exits_3(ws, tmp_path, capsys):
    assert evaluate_with_config_entry(ws, tmp_path, "d_model", 16.0) == 3
    assert "d_model must be an integer, got 16.0" in capsys.readouterr().err


def test_unknown_scenario_rejected_by_parser(ws, tmp_path):
    with pytest.raises(SystemExit) as exc:
        cli.main(base_args(ws, "train", vocab=ws["vocab"],
                           target_event="alpha_flood", out=tmp_path / "x",
                           scenario="mystery"))
    assert exc.value.code == 2


def test_unknown_target_event_exits_3(ws, tmp_path, capsys):
    assert cli.main(base_args(ws, "train", vocab=ws["vocab"],
                              target_event="zeta_storm",
                              out=tmp_path / "x")) == 3


def test_empty_source_event_set_exits_2(ws, tmp_path, capsys):
    assert cli.main(base_args(ws, "train", vocab=ws["vocab"], source_events=",",
                              target_event="alpha_flood", out=tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert "--source-events ','" in err and "source event set is empty" in err
    assert not (tmp_path / "x" / "checkpoint.castckpt").exists()


def test_target_inside_multi_event_sources_exits_2(ws, tmp_path, capsys):
    assert cli.main(base_args(ws, "train", vocab=ws["vocab"],
                              source_events="alpha_flood,beta_flood",
                              target_event="alpha_flood", out=tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert "--target-event 'alpha_flood'" in err and "inside multi-event source set" in err
    assert not (tmp_path / "x" / "checkpoint.castckpt").exists()
