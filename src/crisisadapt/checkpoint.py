"""Binary checkpoint files.

Layout: 8 magic bytes ``CASTCKPT``, a little-endian u32 format version, a
u32 byte length followed by a UTF-8 JSON manifest, the payload, and a
32-byte SHA-256 digest of every byte before it. The payload is the raw
little-endian parameter vector (`ParameterStore.flat`), then Adam's
`m_flat` and `v_flat` when the optimizer state is saved; the manifest's
model config fixes how each vector splits into named tensors
(`model.param_shapes`). Serialization is canonical, so save(load(file))
reproduces the file byte for byte. A save writes a temporary file and
renames it over the target, so it never leaves a torn one.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import asdict, dataclass
from itertools import zip_longest

import numpy as np

from .errors import CheckpointError, CompatibilityError, IntegrityError
from .files import write_atomic
from .model import ModelConfig, ParameterStore, flat_views, param_shapes
from .train import AdamState

MAGIC = b"CASTCKPT"
FORMAT_VERSION = 2
DIGEST_BYTES = 32

_DTYPES = {"float32": "<f4", "float64": "<f8"}


@dataclass
class CheckpointData:
    arrays: dict[str, np.ndarray]
    config: ModelConfig
    vocab_hash: str
    step: int
    seed: int
    adam_m: dict[str, np.ndarray] | None
    adam_v: dict[str, np.ndarray] | None
    adam_t: int | None
    extra: dict

    def restore_optimizer(self, params: ParameterStore) -> AdamState | None:
        if self.adam_t is None:
            return None
        state = AdamState(params)
        state.t = self.adam_t
        for name in params.names():
            state.m[name][...] = self.adam_m[name]
            state.v[name][...] = self.adam_v[name]
        return state


def save_checkpoint(
    path,
    params: ParameterStore,
    config: ModelConfig,
    vocab_hash: str,
    step: int,
    seed: int,
    optimizer: AdamState | None = None,
    extra: dict | None = None,
) -> None:
    """Write `params` (and `optimizer`'s moments) to `path`. The store's
    names, shapes and order must be those of `param_shapes(config)`."""
    diff = next((pair for pair in zip_longest(params.shapes().items(),
                                              param_shapes(config).items())
                 if pair[0] != pair[1]), None)
    if diff is not None:
        raise ValueError(f"parameter store does not match its model config: the store has "
                         f"{diff[0]} where the config has {diff[1]}")
    dtype = {np.dtype(code): name for name, code in _DTYPES.items()}.get(params.flat.dtype)
    if dtype is None:
        raise CheckpointError(f"unsupported parameter dtype {params.flat.dtype}")
    vectors = [params.flat]
    if optimizer is not None:
        vectors += [optimizer.m_flat, optimizer.v_flat]
    # the vectors' own buffers, hashed and written without a copy
    chunks = [memoryview(np.ascontiguousarray(v, dtype=_DTYPES[dtype])).cast("B")
              for v in vectors]

    manifest = {
        "config": asdict(config),
        "dtype": dtype,
        "vocab_hash": vocab_hash,
        "step": int(step),
        "seed": int(seed),
        "adam_t": None if optimizer is None else int(optimizer.t),
        "extra": extra or {},
    }
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = MAGIC + struct.pack("<II", FORMAT_VERSION, len(body))
    digest = hashlib.sha256(header)
    for chunk in (body, *chunks):
        digest.update(chunk)
    write_atomic(path, header, body, *chunks, digest.digest())


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# manifest key -> check its value must pass
_MANIFEST_FIELDS = {
    "config": lambda v: isinstance(v, dict),
    "dtype": lambda v: v in _DTYPES,
    "vocab_hash": lambda v: isinstance(v, str),
    "step": _is_int,
    "seed": _is_int,
    "adam_t": lambda v: v is None or _is_int(v),
    "extra": lambda v: isinstance(v, dict),
}


def _check_manifest(manifest, path) -> None:
    """Raise IntegrityError, naming `path`, unless every field the loader
    reads is present with the type it needs."""
    if not isinstance(manifest, dict):
        raise IntegrityError(
            f"{path}: checkpoint manifest is a JSON {type(manifest).__name__}, not an object"
        )
    for key, ok in _MANIFEST_FIELDS.items():
        if key not in manifest:
            raise IntegrityError(f"{path}: checkpoint manifest lacks {key!r}")
        if not ok(manifest[key]):
            raise IntegrityError(
                f"{path}: checkpoint manifest field {key!r} is malformed: {manifest[key]!r}"
            )


def load_checkpoint(path, expected_vocab_hash: str | None = None) -> CheckpointData:
    """Read and verify a checkpoint file; every CheckpointError names `path` first.

    The file is read once into one buffer, and the returned arrays are
    writable views into it.
    """
    with open(path, "rb") as fh:
        buffer = bytearray(os.fstat(fh.fileno()).st_size)
        blob = memoryview(buffer)[: fh.readinto(buffer)]
    head = len(MAGIC) + 8
    if len(blob) < head:
        raise IntegrityError(f"{path}: checkpoint truncated: {len(blob)} bytes")
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file: bad magic {bytes(blob[:8])!r}")
    version, mlen = struct.unpack_from("<II", blob, len(MAGIC))
    if version != FORMAT_VERSION:
        raise CompatibilityError(
            f"{path}: checkpoint format version {version}, this build reads {FORMAT_VERSION}"
        )
    if head + mlen + DIGEST_BYTES > len(blob):
        raise IntegrityError(f"{path}: checkpoint truncated inside the manifest")
    body, digest = blob[:-DIGEST_BYTES], blob[-DIGEST_BYTES:]
    content = hashlib.sha256(body).digest()
    if content != digest:
        raise IntegrityError(
            f"{path}: checkpoint digest mismatch: file says {bytes(digest).hex()}, "
            f"content is {content.hex()}"
        )
    try:
        manifest = json.loads(str(body[head : head + mlen], "utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"{path}: checkpoint manifest unreadable: {exc}") from exc
    _check_manifest(manifest, path)
    if expected_vocab_hash is not None and manifest["vocab_hash"] != expected_vocab_hash:
        raise CompatibilityError(
            f"{path}: checkpoint was built against vocabulary {manifest['vocab_hash']}, "
            f"current vocabulary is {expected_vocab_hash}"
        )
    try:
        config = ModelConfig(**manifest["config"])
    except (TypeError, ValueError) as exc:
        raise CompatibilityError(f"{path}: checkpoint model config is not usable: {exc}") from None

    shapes = param_shapes(config)
    adam_t = manifest["adam_t"]
    n_vectors = 1 if adam_t is None else 3
    size = sum(math.prod(shape) for shape in shapes.values())
    dtype = np.dtype(_DTYPES[manifest["dtype"]])
    raw = body[head + mlen :]
    if len(raw) != n_vectors * size * dtype.itemsize:
        raise IntegrityError(
            f"{path}: checkpoint payload of {len(raw)} bytes does not fit its model config "
            f"and adam_t {adam_t}"
        )
    vectors = np.frombuffer(raw, dtype=dtype).reshape(n_vectors, size)
    arrays, adam_m, adam_v = [flat_views(v, shapes) for v in vectors] + [None] * (3 - n_vectors)
    return CheckpointData(
        arrays=arrays, config=config, vocab_hash=manifest["vocab_hash"], step=manifest["step"],
        seed=manifest["seed"], adam_m=adam_m, adam_v=adam_v, adam_t=adam_t,
        extra=manifest["extra"],
    )
