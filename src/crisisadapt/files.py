"""Atomic file writes: a reader of the target sees the old file or the new
one, never a partial write."""

from __future__ import annotations

import os
from pathlib import Path


def write_atomic(path, *chunks) -> None:
    """Write the chunks (bytes-like objects) in order to a temporary file
    beside `path`, flush it to disk, rename it over `path`, then flush the
    directory, which holds the rename. On failure before the rename the
    temporary file is removed and `path` is left as it was."""
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
