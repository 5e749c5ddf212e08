"""Atomic artifact writes: a failed write leaves the previous file as it was."""

import errno
import os
import signal
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from crisisadapt import files
from crisisadapt.corpus import EventDescriptor, write_dataset, write_registry
from crisisadapt.evaluation import AdaptationMatrix, write_grid_csv, write_matrix_provenance
from crisisadapt.tokenizer import build_vocab, save_vocab
from crisisadapt.train import StepRecord, write_history

from conftest import make_record


class FullDisk:
    """An open file that takes half of the first write, then fails as a
    full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")


def matrix(version: int) -> AdaptationMatrix:
    m = AdaptationMatrix(events=("a", "b"))
    for source, target in [("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")]:
        m.set_cell(source, target, version / 10, info={"seed": version})
    return m


# artifact -> writes version v of it to a path
WRITERS = {
    "history": lambda path, v: write_history(path, [StepRecord(step=v, lr=1e-3, loss=0.5)]),
    "matrix_csv": lambda path, v: write_grid_csv(
        path, "source\\target", ("a", "b"), matrix(v).to_array()),
    "correlation_csv": lambda path, v: write_grid_csv(
        path, "row\\row", ("a", "b"), np.full((2, 2), v / 10)),
    "provenance": lambda path, v: write_matrix_provenance(path, matrix(v)),
    "vocab": lambda path, v: save_vocab(build_vocab([f"alpha beta w{v}"], min_freq=1), path),
    "dataset": lambda path, v: write_dataset([make_record(v, "ev")], path),
    "registry": lambda path, v: write_registry(
        {"ev": EventDescriptor("ev", f"Place {v}", "Floods")}, path),
}


@pytest.mark.parametrize("artifact", sorted(WRITERS))
def test_failed_write_keeps_previous_file(artifact, tmp_path, monkeypatch):
    path = tmp_path / artifact
    WRITERS[artifact](path, 1)
    before = path.read_bytes()
    monkeypatch.setattr(files, "open", lambda p, mode: FullDisk(open(p, mode)), raising=False)
    with pytest.raises(OSError, match="No space"):
        WRITERS[artifact](path, 2)
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp file left
    WRITERS[artifact](path, 2)
    assert path.read_bytes() != before


def test_write_syncs_the_directory_after_the_rename(tmp_path, monkeypatch):
    """A rename lives in the directory, so only a sync of the directory
    after it makes it survive a crash."""
    path = tmp_path / "out.bin"
    events = []
    fsync, replace = os.fsync, os.replace

    def synced(fd):
        st = os.fstat(fd)
        events.append(("fsync", st.st_ino if stat.S_ISDIR(st.st_mode) else "file"))
        fsync(fd)

    def replaced(src, dst):
        events.append(("replace", os.fspath(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", synced)
    monkeypatch.setattr(os, "replace", replaced)
    files.write_atomic(path, b"data")
    assert events == [("fsync", "file"), ("replace", os.fspath(path)),
                      ("fsync", tmp_path.stat().st_ino)]
    assert path.read_bytes() == b"data"


# Writes its new bytes atomically to argv[1], but on reaching the rename
# says so on stdout and blocks on stdin until it is killed.
KILLED_BEFORE_RENAME = """
import os, sys
from crisisadapt import files

def hold(src, dst):
    print("renaming", flush=True)
    sys.stdin.read()

os.replace = hold
files.write_atomic(sys.argv[1], b"new bytes\\n" * 1000)
"""


def test_a_write_killed_before_its_rename_leaves_the_previous_file(tmp_path):
    """SIGKILL between the temporary file's sync and the rename: the target
    keeps its previous bytes, and the killed writer's complete temporary
    file `.<name>.<pid>.tmp` stays beside it, since no `except` clause runs
    in a killed process."""
    path = tmp_path / "report.json"
    path.write_bytes(b"previous\n")
    src = Path(files.__file__).resolve().parents[1]
    child = subprocess.Popen([sys.executable, "-c", KILLED_BEFORE_RENAME, str(path)],
                             stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                             env={**os.environ, "PYTHONPATH": str(src)})
    try:
        assert child.stdout.readline() == b"renaming\n"
    finally:
        child.kill()
        child.communicate()
    assert child.returncode == -signal.SIGKILL
    assert path.read_bytes() == b"previous\n"
    left = tmp_path / f".report.json.{child.pid}.tmp"
    assert left.read_bytes() == b"new bytes\n" * 1000
    assert sorted(p.name for p in tmp_path.iterdir()) == [left.name, path.name]
