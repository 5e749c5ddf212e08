"""Command-line interface: happy paths, exit codes, artifact layout."""

import argparse
import hashlib
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import crisisadapt.cli as cli
from crisisadapt import model
from crisisadapt.checkpoint import DIGEST_BYTES, load_checkpoint, save_checkpoint
from crisisadapt.evaluation import AdaptationMatrix, evaluate
from crisisadapt.tensor import Tensor
from crisisadapt.tokenizer import _digest, load_vocab, save_vocab
from test_checkpoint import rewrite_manifest

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
    assert "yes" in vocab.token_to_id and "no" in vocab.token_to_id
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


def test_train_resume_refuses_a_checkpoint_of_another_dtype(ws, tmp_path, capsys):
    """A float64 checkpoint would be cast into the run's float32 store and
    continued in float32; it is refused, naming both dtypes."""
    ckpt = load_checkpoint(ws["run"] / "checkpoint.castckpt")
    params = model.ParameterStore({name: Tensor(a.astype(np.float64), requires_grad=True,
                                                name=name) for name, a in ckpt.arrays.items()})
    fp64 = tmp_path / "fp64.castckpt"
    save_checkpoint(fp64, params, ckpt.config, ckpt.vocab_hash, ckpt.step, ckpt.seed,
                    optimizer=ckpt.restore_optimizer(params), extra=ckpt.extra)
    config_path = tmp_path / "longer.json"
    config_path.write_text(json.dumps({**CONFIG, "train": dict(CONFIG["train"], epochs=4)}),
                           encoding="utf-8")
    out = tmp_path / "resumed"
    args = base_args(ws, "train", vocab=ws["vocab"], target_event="alpha_flood", out=out,
                     resume=fp64)
    args[args.index(str(ws["config"]))] = str(config_path)
    assert cli.main(args) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {fp64} cannot resume under {config_path}: ")
    assert "checkpoint parameters are float64, but this run trains in float32" in line
    assert not [p for p in out.rglob("*") if p.is_file()]


@pytest.mark.parametrize("trained", ["not an object", [1, 2]], ids=["string", "list"])
def test_train_resume_refuses_a_checkpoint_whose_train_config_is_no_object(ws, tmp_path, capsys,
                                                                          trained):
    """Such a checkpoint would otherwise resume under any training config."""
    odd = tmp_path / "odd.castckpt"
    odd.write_bytes((ws["run"] / "checkpoint.castckpt").read_bytes())

    def edit(manifest):
        manifest["extra"]["train"] = trained
        return manifest

    rewrite_manifest(odd, edit)
    changed = tmp_path / "changed.json"
    changed.write_text(json.dumps({**CONFIG, "train": dict(CONFIG["train"], peak_lr=0.5,
                                                           epochs=4)}), encoding="utf-8")
    out = tmp_path / "resumed"
    args = base_args(ws, "train", vocab=ws["vocab"], target_event="alpha_flood", out=out,
                     resume=odd)
    args[args.index(str(ws["config"]))] = str(changed)
    assert cli.main(args) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line.startswith(f"error: {odd} cannot resume under {changed}: ")
    assert "training config must be a JSON object" in line
    assert not [p for p in out.rglob("*") if p.is_file()]


def test_train_resume_refuses_a_checkpoint_whose_step_is_not_its_optimizers(ws, tmp_path,
                                                                            capsys):
    """A resumed run starts at its Adam state's step count; a manifest step
    that disagrees with it is refused, naming both counts."""
    odd = tmp_path / "odd.castckpt"
    odd.write_bytes((ws["run"] / "checkpoint.castckpt").read_bytes())

    def edit(manifest):
        assert (manifest["step"], manifest["adam_t"]) == (2, 2)
        manifest["step"] = 1
        return manifest

    rewrite_manifest(odd, edit)
    longer = tmp_path / "longer.json"
    longer.write_text(json.dumps({**CONFIG, "train": dict(CONFIG["train"], epochs=4)}),
                      encoding="utf-8")
    out = tmp_path / "resumed"
    args = base_args(ws, "train", vocab=ws["vocab"], target_event="alpha_flood", out=out,
                     resume=odd)
    args[args.index(str(ws["config"]))] = str(longer)
    assert cli.main(args) == 3
    (line,) = capsys.readouterr().err.splitlines()
    assert line == (f"error: {odd} cannot resume under {longer}: checkpoint is at step 1, "
                    "but its optimizer has taken 2 steps")
    assert not [p for p in out.rglob("*") if p.is_file()]


def test_train_cross_domain_sources(ws, tmp_path):
    out = tmp_path / "cross"
    assert cli.main(base_args(ws, "train", vocab=ws["vocab"],
                              source_events="alpha_flood,beta_flood",
                              target_event="gamma_quake", out=out)) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["task_id"] == "alpha_flood+beta_flood->gamma_quake/postq"
    assert manifest["source_events"] == ["alpha_flood", "beta_flood"]


def evaluate_args(ws, checkpoint, out) -> list:
    return ["evaluate",
            "--checkpoint", str(checkpoint),
            "--vocab", str(ws["vocab"]),
            "--test-file", str(ws["data"] / "test.tsv"),
            "--registry", str(ws["data"] / "registry.json"),
            "--scenario", "postq",
            "--target-event", "beta_flood",
            "--out", str(out)]


def test_evaluate_artifacts(ws, tmp_path):
    out = tmp_path / "eval"
    assert cli.main(evaluate_args(ws, ws["run"] / "checkpoint.castckpt", out)) == 0
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["n"] == 4
    assert 0.0 <= report["accuracy"] <= 1.0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["command"] == "evaluate"


def test_evaluate_builds_no_initial_parameters(ws, tmp_path, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("evaluate drew initial parameters")

    monkeypatch.setattr(model, "init_params", refuse)
    monkeypatch.setattr(cli, "init_params", refuse, raising=False)
    out = tmp_path / "eval"
    assert cli.main(evaluate_args(ws, ws["run"] / "checkpoint.castckpt", out)) == 0
    assert (out / "report.json").exists()


def test_float64_checkpoint_evaluates_in_float64(ws, tmp_path, monkeypatch):
    loaded = load_checkpoint(ws["run"] / "checkpoint.castckpt")
    store = model.ParameterStore({n: Tensor(a.astype(np.float64), name=n)
                                  for n, a in loaded.arrays.items()})
    path = tmp_path / "fp64.castckpt"
    save_checkpoint(path, store, loaded.config, loaded.vocab_hash, loaded.step, loaded.seed)
    seen = []

    def spy(params, *args, **kwargs):
        seen.append(params.flat.dtype)
        return evaluate(params, *args, **kwargs)

    monkeypatch.setattr(cli, "evaluate", spy)
    out = tmp_path / "eval"
    assert cli.main(evaluate_args(ws, path, out)) == 0
    assert seen == [np.float64]
    report = json.loads((out / "report.json").read_text(encoding="utf-8"))
    assert report["n"] == 4


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
                matrix.set_cell(s, t, 0.5, {})
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


def test_matrix_writes_the_pearson_correlations_of_its_rows(ws, tmp_path, capsys, monkeypatch):
    rows = {"alpha_flood": [0.9, 0.4, 0.7], "beta_flood": [0.3, 0.8, 0.5],
            "gamma_quake": [0.6, 0.2, 0.1]}

    def varied_matrix(splits, registry, events, *args, **kwargs):
        matrix = AdaptationMatrix(events=tuple(sorted(events)))
        for s in matrix.events:
            for t, accuracy in zip(matrix.events, rows[s]):
                matrix.set_cell(s, t, accuracy, {})
        return matrix

    monkeypatch.setattr(cli, "run_matrix", varied_matrix)
    out = tmp_path / "varied"
    assert cli.main(base_args(ws, "matrix", vocab=ws["vocab"], out=out)) == 0
    assert capsys.readouterr().err == ""
    lines = (out / "correlation.csv").read_text(encoding="utf-8").splitlines()
    written = [[float(v) for v in line.split(",")[1:]] for line in lines[1:]]
    np.testing.assert_array_almost_equal(written, np.corrcoef([rows[e] for e in sorted(rows)]),
                                         decimal=4)


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


@pytest.fixture
def shared(ws, tmp_path, monkeypatch):
    """A data directory under $CRISISADAPT_DATA_DIR holding every input of
    `train` and `evaluate`, its test.tsv without beta_flood records, and an
    empty working directory: each input resolves under the data directory."""
    shared = tmp_path / "shared"
    shared.mkdir()
    for src in (ws["data"] / "train.tsv", ws["data"] / "registry.json", ws["vocab"],
                ws["config"], ws["run"] / "checkpoint.castckpt"):
        shutil.copy(src, shared / src.name)
    header, *rows = (ws["data"] / "test.tsv").read_text(encoding="utf-8").splitlines()
    rows = [row for row in rows if not row.endswith("\tbeta_flood")]
    (shared / "test.tsv").write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")
    (tmp_path / "work").mkdir()
    monkeypatch.chdir(tmp_path / "work")
    monkeypatch.setenv(cli.ENV_DATA_DIR, str(shared))
    return shared


SHARED_INPUTS = ["--test-file", "test.tsv", "--registry", "registry.json",
                 "--vocab", "vocab.txt", "--scenario", "postq"]


def test_data_dir_split_error_names_the_resolved_data_files(shared, capsys):
    assert cli.main(["train", *SHARED_INPUTS, "--train-file", "train.tsv",
                     "--config", "config.json", "--target-event", "alpha_flood",
                     "--source-events", "nosuch", "--out", "run"]) == 3
    assert capsys.readouterr().err == (
        f"error: {shared / 'train.tsv'}, {shared / 'test.tsv'}: "
        f"no splits available for event 'nosuch'\n")


def test_data_dir_evaluate_names_the_resolved_test_file(shared, capsys):
    assert cli.main(["evaluate", *SHARED_INPUTS, "--checkpoint", "checkpoint.castckpt",
                     "--target-event", "beta_flood", "--out", "eval"]) == 3
    assert capsys.readouterr().err == (
        f"error: {shared / 'test.tsv'}: no test records for event 'beta_flood'\n")


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


def _entry_field(key, value):
    def corrupt(raw: bytes) -> bytes:
        doc = json.loads(raw)
        doc["alpha_flood"][key] = value
        return json.dumps(doc).encode("utf-8")
    return corrupt


def _first_label_unmapped(raw: bytes) -> bytes:
    header, first, rest = raw.split(b"\n", 2)
    cols = first.split(b"\t")
    cols[2] = b"relevantX"
    return b"\n".join([header, b"\t".join(cols), rest])


@pytest.mark.parametrize("flag, corrupt, code, cause", [
    ("registry", _entry_not_an_object, 3, "event 'alpha_flood' must be a JSON object, got int"),
    ("registry", _entry_field("crisis_name", 7), 3,
     "event 'alpha_flood': crisis_name must be a string, got 7"),
    ("registry", _entry_field("crisis_name", ""), 3, "event 'alpha_flood' has an empty crisis_name"),
    ("registry", _entry_field("event_type", 5), 3,
     "event 'alpha_flood': event_type must be a string, got 5"),
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
        "registry_event_type_not_string",
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
@pytest.mark.parametrize("events, named", [
    ("alpha_flood,beta_flood,alpha_flood", "repeated event name 'alpha_flood'"),
    ("alpha_flood,,beta_flood", "empty event name ''"),
])
def test_events_with_a_repeated_or_empty_name_exit_2(ws, tmp_path, capsys, sub, events,
                                                     named):
    out = tmp_path / "x"
    assert cli.main(base_args(ws, sub, vocab=ws["vocab"], events=events, out=out)) == 2
    assert capsys.readouterr().err == f"error: --events {events!r}: {named}\n"
    assert not out.exists()


def test_build_vocab_min_freq_below_one_exits_3(ws, tmp_path, capsys):
    out = tmp_path / "vocab.txt"
    assert cli.main(["build-vocab",
                     "--train-file", str(ws["data"] / "train.tsv"),
                     "--registry", str(ws["data"] / "registry.json"),
                     "--scenario", "postq", "--min-freq", "0",
                     "--out", str(out)]) == 3
    assert capsys.readouterr().err == "error: min_freq must be at least 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("sub", ["matrix", "loo"])
@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_exits_2(ws, tmp_path, capsys, sub, jobs):
    out = tmp_path / "x"
    assert cli.main(base_args(ws, sub, vocab=ws["vocab"], jobs=jobs, out=out)) == 2
    assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sub, flag, value, named", [
    ("train", "source_events", "", "source event set is empty"),
    ("train", "source_events", "alpha_flood,,beta_flood", "empty source event name ''"),
    ("train", "source_events", "alpha_flood,alpha_flood",
     "repeated source event name 'alpha_flood'"),
    ("matrix", "events", "", "event set is empty"),
    ("loo", "events", "", "event set is empty"),
], ids=["train-empty-list", "train-empty-name", "train-repeated", "matrix-empty-list",
        "loo-empty-list"])
def test_event_list_is_refused_before_any_file_is_read(ws, tmp_path, capsys, sub, flag, value,
                                                       named):
    """The vocabulary file does not exist: the flag is refused first."""
    out = tmp_path / "x"
    extra = {flag: value, **({"target_event": "beta_flood"} if sub == "train" else {})}
    assert cli.main(base_args(ws, sub, vocab=tmp_path / "missing.txt", out=out, **extra)) == 2
    option = "--" + flag.replace("_", "-")
    assert capsys.readouterr().err == f"error: {option} {value!r}: {named}\n"
    assert not out.exists()


@pytest.mark.parametrize("extra", [{"k": 0}, {"k": 1, "diagonal": "five_fold_mean"}],
                         ids=["k0", "k1-five-fold"])
def test_matrix_k_below_two_exits_2_before_any_file_is_read(ws, tmp_path, capsys, extra):
    out = tmp_path / "x"
    assert cli.main(base_args(ws, "matrix", vocab=tmp_path / "missing.txt", out=out,
                              **extra)) == 2
    assert capsys.readouterr().err == f"error: --k must be at least 2, got {extra['k']}\n"
    assert not out.exists()


@pytest.mark.parametrize("extra, k", [({}, None), ({"diagonal": "five_fold_mean"}, 5),
                                      ({"diagonal": "five_fold_mean", "k": 3}, 3)],
                         ids=["standard-split", "five-fold-default", "five-fold-k3"])
def test_matrix_manifest_records_k_only_when_folds_are_used(ws, tmp_path, monkeypatch, extra,
                                                             k):
    runs = []

    def constant_matrix(splits, registry, events, *args, diagonal_mode, k, **kwargs):
        runs.append(k)
        matrix = AdaptationMatrix(events=tuple(sorted(events)), diagonal_mode=diagonal_mode)
        for s in matrix.events:
            for t in matrix.events:
                matrix.set_cell(s, t, 0.5, {})
        return matrix

    monkeypatch.setattr(cli, "run_matrix", constant_matrix)
    out = tmp_path / "m"
    assert cli.main(base_args(ws, "matrix", vocab=ws["vocab"], out=out, **extra)) == 0
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest.get("k") == k
    assert runs == [5 if k is None else k]


def test_matrix_k_without_folds_exits_2_before_any_file_is_read(ws, tmp_path, capsys):
    out = tmp_path / "x"
    assert cli.main(base_args(ws, "matrix", vocab=tmp_path / "missing.txt", out=out,
                              k=7)) == 2
    assert capsys.readouterr().err == ("error: --k sets the folds of --diagonal five_fold_mean; "
                                       "--diagonal standard_split uses none\n")
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


@pytest.mark.parametrize("flag", ["--checkpoint", "--vocab", "--registry", "--train-file",
                                  "--config", "--out"])
def test_unusable_path_ends_in_one_error_line(ws, tmp_path, capsys, flag):
    """A directory where a file belongs, or an --out that names a file,
    exits 3 (2 for --config) with one `error:` line naming the path."""
    if flag == "--checkpoint":
        args = ["evaluate",
                "--checkpoint", str(ws["run"] / "checkpoint.castckpt"),
                "--vocab", str(ws["vocab"]),
                "--test-file", str(ws["data"] / "test.tsv"),
                "--registry", str(ws["data"] / "registry.json"),
                "--scenario", "postq",
                "--target-event", "alpha_flood",
                "--out", str(tmp_path / "out")]
    else:
        args = base_args(ws, "train", vocab=ws["vocab"], target_event="alpha_flood",
                         out=tmp_path / "out")
    bad = tmp_path / "taken"
    if flag == "--out":
        bad.write_text("", encoding="utf-8")
    else:
        bad.mkdir()
    args[args.index(flag) + 1] = str(bad)
    assert cli.main(args) == (2 if flag == "--config" else 3)
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert str(bad) in err and "Traceback" not in err


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


SCENARIO = (True, ["standard", "postq", "variant1", "variant2", "variant3"], None)
LABEL_SCHEME = (False, ["relevance", "topic"], "relevance")
REQUIRED, OPTIONAL = (True, None, None), (False, None, None)
DATA_OPTIONS = {"--train-file": REQUIRED, "--test-file": REQUIRED, "--registry": REQUIRED,
                "--label-scheme": LABEL_SCHEME}
RUN_OPTIONS = {"--scenario": SCENARIO, "--vocab": REQUIRED, "--config": OPTIONAL,
               "--seed": OPTIONAL, "--out": REQUIRED}
GRID_OPTIONS = {"--events": OPTIONAL, "--jobs": (False, None, 1)}
# subcommand -> option -> (required, choices, default), as each command
# line took them before the flag table declared the shared flags once
PARSER_OPTIONS = {
    "synth": {"--out": REQUIRED, "--n-train": (False, None, 48),
              "--n-test": (False, None, 24), "--seed": (False, None, 0)},
    "build-vocab": {"--train-file": REQUIRED, "--registry": REQUIRED,
                    "--label-scheme": LABEL_SCHEME, "--scenario": SCENARIO,
                    "--min-freq": (False, None, 2), "--max-size": (False, None, 8192),
                    "--out": REQUIRED},
    "train": {**DATA_OPTIONS, **RUN_OPTIONS, "--target-event": REQUIRED,
              "--source-events": OPTIONAL, "--resume": OPTIONAL},
    "evaluate": {"--checkpoint": REQUIRED, "--vocab": REQUIRED, "--test-file": REQUIRED,
                 "--registry": REQUIRED, "--label-scheme": LABEL_SCHEME, "--scenario": SCENARIO,
                 "--target-event": REQUIRED, "--out": REQUIRED},
    "matrix": {**DATA_OPTIONS, **RUN_OPTIONS, **GRID_OPTIONS,
               "--diagonal": (False, ["five_fold_mean", "standard_split"], "standard_split"),
               "--k": OPTIONAL, "--exclude-self": (False, None, False)},
    "loo": {**DATA_OPTIONS, **RUN_OPTIONS, **GRID_OPTIONS},
}


def test_every_subcommand_keeps_its_options():
    (subparsers,) = [action for action in cli.build_parser()._actions
                     if isinstance(action, argparse._SubParsersAction)]
    got = {
        name: {" ".join(action.option_strings): (
                   action.required,
                   None if action.choices is None else list(action.choices),
                   action.default)
               for action in parser._actions if action.dest != "help"}
        for name, parser in subparsers.choices.items()
    }
    assert got == PARSER_OPTIONS


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
