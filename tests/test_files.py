"""Atomic artifact writes: a failed write leaves the previous file as it was."""

import errno

import numpy as np
import pytest

from crisisadapt import files
from crisisadapt.corpus import EventDescriptor, write_dataset, write_registry
from crisisadapt.evaluation import (
    AdaptationMatrix,
    write_correlation_csv,
    write_matrix_csv,
    write_matrix_provenance,
)
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
    "matrix_csv": lambda path, v: write_matrix_csv(path, matrix(v)),
    "correlation_csv": lambda path, v: write_correlation_csv(
        path, ("a", "b"), np.full((2, 2), v / 10)),
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
