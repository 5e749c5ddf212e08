"""The CLI recipe's artifacts, byte for byte.

The recipe runs every subcommand once on a small synthetic corpus and a
16-dim model with dropout: `synth`, `build-vocab`, an in-domain `train`,
`train --resume`, a many-to-one `train`, `evaluate`, `matrix`,
`matrix --diagonal five_fold_mean --k 2 --jobs 2` and `loo`. Each artifact's
sha256 must equal the one in tests/golden/recipe.json. `manifest.json`
files are compared with `created_utc` and `run_id` blanked, so a refactor
that claims to change no bytes is checked here.

The float arithmetic goes through numpy and its BLAS, so the golden file
also records the numpy version and BLAS build it was made with; a
mismatch names both, so that a host difference can be told apart from a
code change. Rewrite the golden file, printing each artifact whose digest
changed, with

    PYTHONPATH=src python tests/test_recipe_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

import crisisadapt.cli as cli

GOLDEN = Path(__file__).resolve().parent / "golden" / "recipe.json"

CONFIG = {
    "model": {"size": "tiny", "d_model": 16, "n_heads": 2, "d_ff": 32,
              "n_enc_layers": 1, "n_dec_layers": 1, "dropout": 0.1,
              "max_src_len": 48, "max_tgt_len": 4},
    "train": {"peak_lr": 0.001, "effective_batch": 8, "epochs": 2},
}
DATA = ["--train-file", "data/train.tsv", "--test-file", "data/test.tsv",
        "--registry", "data/registry.json", "--scenario", "postq"]
RECIPE = [
    ["synth", "--out", "data", "--n-train", "16", "--n-test", "8", "--seed", "0"],
    ["build-vocab", "--train-file", "data/train.tsv", "--registry", "data/registry.json",
     "--scenario", "postq", "--min-freq", "1", "--out", "vocab.txt"],
    ["train", *DATA, "--config", "config.json", "--vocab", "vocab.txt",
     "--target-event", "alpha_flood", "--out", "train"],
    ["train", *DATA, "--config", "longer.json", "--vocab", "vocab.txt",
     "--target-event", "alpha_flood", "--resume", "train/checkpoint.castckpt",
     "--out", "resumed"],
    ["train", *DATA, "--config", "config.json", "--vocab", "vocab.txt",
     "--source-events", "alpha_flood,beta_flood", "--target-event", "gamma_quake",
     "--out", "many"],
    ["evaluate", "--checkpoint", "train/checkpoint.castckpt", "--vocab", "vocab.txt",
     "--test-file", "data/test.tsv", "--registry", "data/registry.json",
     "--scenario", "postq", "--target-event", "beta_flood", "--out", "evaluate"],
    ["matrix", *DATA, "--config", "config.json", "--vocab", "vocab.txt", "--out", "matrix"],
    ["matrix", *DATA, "--config", "config.json", "--vocab", "vocab.txt",
     "--diagonal", "five_fold_mean", "--k", "2", "--jobs", "2", "--out", "folds"],
    ["loo", *DATA, "--config", "config.json", "--vocab", "vocab.txt", "--out", "loo"],
]


def host() -> dict:
    """What the float results depend on besides the code."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration", ""),
        "machine": platform.machine(),
    }


def _digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "manifest.json":
        doc = json.loads(data)
        doc["created_utc"] = doc["run_id"] = ""
        data = json.dumps(doc, indent=2, sort_keys=True).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def run_recipe(root: Path) -> dict[str, str]:
    """Run the recipe in `root` with relative paths; return the sha256 of
    every file it wrote, keyed by its path under `root`."""
    (root / "config.json").write_text(json.dumps(CONFIG), encoding="utf-8")
    longer = dict(CONFIG, train=dict(CONFIG["train"], epochs=CONFIG["train"]["epochs"] + 1))
    (root / "longer.json").write_text(json.dumps(longer), encoding="utf-8")
    inputs = {"config.json", "longer.json"}
    cwd = os.getcwd()
    os.chdir(root)
    try:
        for argv in RECIPE:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                code = cli.main(argv)
            assert code == 0, f"{argv[0]} exited {code}"
    finally:
        os.chdir(cwd)
    return {
        p.relative_to(root).as_posix(): _digest(p)
        for p in sorted(root.rglob("*"))
        if p.is_file() and p.relative_to(root).as_posix() not in inputs
    }


def test_recipe_artifacts_match_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = run_recipe(tmp_path)
    changed = sorted(name for name in got.keys() & golden["artifacts"].keys()
                     if got[name] != golden["artifacts"][name])
    missing = sorted(golden["artifacts"].keys() - got.keys())
    extra = sorted(got.keys() - golden["artifacts"].keys())
    assert not (changed or missing or extra), (
        f"changed {changed}, missing {missing}, extra {extra}; "
        f"golden made with {golden['host']}, this host has {host()}"
    )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        artifacts = run_recipe(Path(tmp))
    old = json.loads(GOLDEN.read_text(encoding="utf-8"))["artifacts"] if GOLDEN.exists() else {}
    for name in sorted(old.keys() | artifacts.keys()):
        if old.get(name) != artifacts.get(name):
            print(f"digest changed: {name}", file=sys.stderr)
    GOLDEN.parent.mkdir(exist_ok=True)
    doc = {"host": host(), "artifacts": artifacts}
    GOLDEN.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(artifacts)} digests to {GOLDEN}", file=sys.stderr)
