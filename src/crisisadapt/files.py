"""Atomic file writes: a reader of the target sees the old file or the new
one, never a partial write. Every text artifact is written by `write_lines`
or `write_json`; only the binary checkpoint calls `write_atomic` itself."""

from __future__ import annotations

import json
import os
from pathlib import Path


def write_atomic(path, *chunks) -> None:
    """Write the chunks (bytes-like objects) in order to a temporary file
    beside `path`, flush it to disk, rename it over `path`, then flush the
    directory, which holds the rename. On failure before the rename the
    temporary file is removed (a killed process leaves it) and `path` is
    left as it was."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_lines(path, lines) -> None:
    """Write each line followed by LF, as UTF-8, atomically."""
    write_atomic(path, "".join(line + "\n" for line in lines).encode("utf-8"))


def write_json(path, doc) -> None:
    """Write `doc` as JSON, indented by 2 with sorted keys, atomically."""
    write_lines(path, [json.dumps(doc, indent=2, sort_keys=True)])
