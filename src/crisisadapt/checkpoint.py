"""Binary checkpoint files.

Layout: 8 magic bytes ``CASTCKPT``, a little-endian u32 format version, a
u32 byte length followed by a UTF-8 JSON manifest, then the concatenated
raw little-endian IEEE-754 tensor payloads. The manifest lists every
tensor (name, dtype, shape, offset, byte_length), carries the model
config, the vocabulary content hash, the optimizer step, the seed, and a
SHA-256 digest of the payload section. Serialization is canonical, so
save(load(file)) reproduces the file byte for byte. A save writes a
temporary file and renames it over the target, so it never leaves a torn one.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import asdict, dataclass

import numpy as np

from .errors import CheckpointError, CompatibilityError, IntegrityError
from .files import write_atomic
from .model import ModelConfig, ParameterStore, param_shapes
from .train import AdamState

MAGIC = b"CASTCKPT"
FORMAT_VERSION = 1

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


def _dtype_name(arr: np.ndarray) -> str:
    for name, code in _DTYPES.items():
        if arr.dtype == np.dtype(code):
            return name
    raise CheckpointError(f"unsupported tensor dtype {arr.dtype}")


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
    entries: list[tuple[str, np.ndarray]] = list(params.items())
    entries = [(name, t.data) for name, t in entries]
    if optimizer is not None:
        for name in params.names():
            entries.append((f"adam.m.{name}", optimizer.m[name]))
        for name in params.names():
            entries.append((f"adam.v.{name}", optimizer.v[name]))

    chunks: list[bytes] = []
    digest = hashlib.sha256()
    manifest_tensors = []
    offset = 0
    for name, arr in entries:
        dtype = _dtype_name(arr)
        raw = np.ascontiguousarray(arr, dtype=_DTYPES[dtype]).tobytes()
        manifest_tensors.append(
            {
                "name": name,
                "dtype": dtype,
                "shape": list(arr.shape),
                "offset": offset,
                "byte_length": len(raw),
            }
        )
        chunks.append(raw)
        digest.update(raw)
        offset += len(raw)

    manifest = {
        "tensors": manifest_tensors,
        "config": asdict(config),
        "vocab_hash": vocab_hash,
        "step": int(step),
        "seed": int(seed),
        "adam_t": None if optimizer is None else int(optimizer.t),
        "payload_sha256": digest.hexdigest(),
        "extra": extra or {},
    }
    body = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    header = MAGIC + struct.pack("<II", FORMAT_VERSION, len(body))
    write_atomic(path, header, body, *chunks)


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# manifest key -> check its value must pass
_OPTIONAL_FIELDS = ("adam_t", "extra")
_MANIFEST_FIELDS = {
    "tensors": lambda v: isinstance(v, list),
    "config": lambda v: isinstance(v, dict),
    "vocab_hash": lambda v: isinstance(v, str),
    "step": _is_int,
    "seed": _is_int,
    "adam_t": lambda v: v is None or _is_int(v),
    "extra": lambda v: isinstance(v, dict),
}
_TENSOR_FIELDS = {
    "name": lambda v: isinstance(v, str),
    "dtype": lambda v: isinstance(v, str),
    "shape": lambda v: isinstance(v, list) and all(_is_int(n) and n >= 0 for n in v),
    "offset": lambda v: _is_int(v) and v >= 0,
    "byte_length": lambda v: _is_int(v) and v >= 0,
}


def _check_manifest(manifest: dict, path) -> None:
    """Raise IntegrityError, naming `path`, unless every field the loader
    reads is present with the type it needs."""
    for key, ok in _MANIFEST_FIELDS.items():
        if key not in manifest and key not in _OPTIONAL_FIELDS:
            raise IntegrityError(f"{path}: checkpoint manifest lacks {key!r}")
        if key in manifest and not ok(manifest[key]):
            raise IntegrityError(
                f"{path}: checkpoint manifest field {key!r} is malformed: {manifest[key]!r}"
            )
    for i, entry in enumerate(manifest["tensors"]):
        if not isinstance(entry, dict):
            raise IntegrityError(f"{path}: checkpoint manifest tensor entry {i} is not an object")
        for key, ok in _TENSOR_FIELDS.items():
            if not ok(entry.get(key)):
                raise IntegrityError(
                    f"{path}: checkpoint manifest tensor entry {i}: field {key!r} missing or "
                    "malformed"
                )


def load_checkpoint(path, expected_vocab_hash: str | None = None) -> CheckpointData:
    """Read and verify a checkpoint file; every CheckpointError names `path` first."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < len(MAGIC) + 8:
        raise IntegrityError(f"{path}: checkpoint truncated: {len(blob)} bytes")
    if blob[: len(MAGIC)] != MAGIC:
        raise CheckpointError(f"{path}: not a checkpoint file: bad magic {blob[:8]!r}")
    pos = len(MAGIC)
    (version,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    if version != FORMAT_VERSION:
        raise CompatibilityError(
            f"{path}: checkpoint format version {version}, this build reads {FORMAT_VERSION}"
        )
    (mlen,) = struct.unpack_from("<I", blob, pos)
    pos += 4
    if pos + mlen > len(blob):
        raise IntegrityError(f"{path}: checkpoint truncated inside the manifest")
    try:
        manifest = json.loads(blob[pos : pos + mlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise IntegrityError(f"{path}: checkpoint manifest unreadable: {exc}") from exc
    pos += mlen
    payload = blob[pos:]
    if not isinstance(manifest, dict):
        raise IntegrityError(
            f"{path}: checkpoint manifest is a JSON {type(manifest).__name__}, not an object"
        )

    digest = hashlib.sha256(payload).hexdigest()
    if digest != manifest.get("payload_sha256"):
        raise IntegrityError(
            f"{path}: payload digest mismatch: file says {manifest.get('payload_sha256')}, "
            f"content is {digest}"
        )
    _check_manifest(manifest, path)
    if expected_vocab_hash is not None and manifest["vocab_hash"] != expected_vocab_hash:
        raise CompatibilityError(
            f"{path}: checkpoint was built against vocabulary {manifest['vocab_hash']}, "
            f"current vocabulary is {expected_vocab_hash}"
        )

    arrays: dict[str, np.ndarray] = {}
    for entry in manifest["tensors"]:
        dtype = entry["dtype"]
        if dtype not in _DTYPES:
            raise CompatibilityError(f"{path}: tensor {entry['name']} has unknown dtype {dtype!r}")
        start, length = entry["offset"], entry["byte_length"]
        shape = tuple(entry["shape"])
        if start + length > len(payload):
            raise IntegrityError(f"{path}: tensor {entry['name']} extends past the payload")
        expected = int(np.prod(shape, dtype=np.int64)) * np.dtype(_DTYPES[dtype]).itemsize
        if expected != length:
            raise IntegrityError(
                f"{path}: tensor {entry['name']}: shape {shape} implies {expected} bytes, "
                f"manifest says {length}"
            )
        arrays[entry["name"]] = (
            np.frombuffer(payload[start : start + length], dtype=_DTYPES[dtype])
            .reshape(shape)
            .copy()
        )

    try:
        config = ModelConfig(**manifest["config"])
    except (TypeError, ValueError) as exc:
        raise CompatibilityError(f"{path}: checkpoint model config is not usable: {exc}") from None
    adam_t = manifest.get("adam_t")
    adam_m = adam_v = None
    if adam_t is not None:
        adam_m = {}
        adam_v = {}
        for name in list(arrays):
            if name.startswith("adam.m."):
                adam_m[name[len("adam.m.") :]] = arrays.pop(name)
            elif name.startswith("adam.v."):
                adam_v[name[len("adam.v.") :]] = arrays.pop(name)
        if set(adam_m) != set(arrays) or set(adam_v) != set(arrays):
            raise IntegrityError(
                f"{path}: checkpoint optimizer moments do not cover exactly its parameters"
            )
    if {name: arr.shape for name, arr in arrays.items()} != param_shapes(config):
        raise IntegrityError(f"{path}: checkpoint tensors do not fit its model config")

    return CheckpointData(
        arrays=arrays,
        config=config,
        vocab_hash=manifest["vocab_hash"],
        step=int(manifest["step"]),
        seed=int(manifest["seed"]),
        adam_m=adam_m,
        adam_v=adam_v,
        adam_t=adam_t,
        extra=manifest.get("extra", {}),
    )
