"""Checkpoint container: byte-exact round trips and tamper detection."""

import errno
import json
import struct

import numpy as np
import pytest

from crisisadapt import files
from crisisadapt.checkpoint import (
    FORMAT_VERSION,
    MAGIC,
    load_checkpoint,
    save_checkpoint,
)
from crisisadapt.errors import CheckpointError, CompatibilityError, IntegrityError
from crisisadapt.model import ModelConfig, init_params
from crisisadapt.train import AdamState

CFG = ModelConfig(vocab_size=12, d_model=8, n_heads=2, d_ff=16,
                  n_enc_layers=1, n_dec_layers=1, dropout=0.0,
                  max_src_len=8, max_tgt_len=4)


def fresh(tmp_path, name="model.castckpt", optimizer=False, **kwargs):
    params = init_params(CFG, 3)
    opt = None
    if optimizer:
        opt = AdamState(params)
        g = {n: np.full_like(t.data, 0.25) for n, t in params.items()}
        opt.apply(params, g, 1e-3)
        opt.apply(params, g, 1e-3)
    path = tmp_path / name
    save_checkpoint(path, params, CFG, vocab_hash="abcd1234", step=7, seed=42,
                    optimizer=opt, **kwargs)
    return path, params, opt


def test_round_trip_values_and_metadata(tmp_path):
    path, params, _ = fresh(tmp_path)
    data = load_checkpoint(path)
    assert data.config == CFG
    assert data.vocab_hash == "abcd1234"
    assert (data.step, data.seed) == (7, 42)
    assert data.adam_t is None and data.adam_m is None and data.adam_v is None
    assert set(data.arrays) == set(params.names())
    for name in params.names():
        got = data.arrays[name]
        assert got.dtype == params[name].data.dtype
        assert np.array_equal(got, params[name].data), name


def test_save_load_save_is_byte_identical(tmp_path):
    path, params, _ = fresh(tmp_path)
    first = path.read_bytes()
    data = load_checkpoint(path)
    params.load_arrays(data.arrays)
    again = tmp_path / "again.castckpt"
    save_checkpoint(again, params, data.config, data.vocab_hash,
                    data.step, data.seed)
    assert again.read_bytes() == first


def test_optimizer_state_round_trip(tmp_path):
    path, params, opt = fresh(tmp_path, optimizer=True)
    data = load_checkpoint(path)
    assert data.adam_t == 2
    for name in params.names():
        assert np.array_equal(data.adam_m[name], opt.m[name])
        assert np.array_equal(data.adam_v[name], opt.v[name])
    restored = data.restore_optimizer(params)
    assert restored.t == 2
    for name in params.names():
        assert np.array_equal(restored.m[name], opt.m[name])
        assert np.array_equal(restored.v[name], opt.v[name])


def test_restore_optimizer_absent_returns_none(tmp_path):
    path, params, _ = fresh(tmp_path)
    assert load_checkpoint(path).restore_optimizer(params) is None


def test_extra_payload_round_trip(tmp_path):
    path, _, _ = fresh(tmp_path, extra={"scenario": "postq", "note": "run 3"})
    assert load_checkpoint(path).extra == {"scenario": "postq", "note": "run 3"}


def test_fp64_arrays_round_trip(tmp_path):
    params = init_params(CFG, 0)
    for _, t in params.items():
        t.data = t.data.astype(np.float64)
    path = tmp_path / "wide.castckpt"
    save_checkpoint(path, params, CFG, vocab_hash="x", step=0, seed=0)
    data = load_checkpoint(path)
    for name in params.names():
        assert data.arrays[name].dtype == np.float64
        assert np.array_equal(data.arrays[name], params[name].data)


class TornFile:
    """An open file whose second write fails, as on a full disk."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError(errno.ENOSPC, "No space left on device")
        return self.fh.write(data)


def test_failed_save_keeps_previous_checkpoint(tmp_path, monkeypatch):
    path, params, opt = fresh(tmp_path, optimizer=True)
    before = path.read_bytes()
    monkeypatch.setattr(files, "open", lambda p, mode: TornFile(open(p, mode)), raising=False)
    with pytest.raises(OSError, match="No space"):
        save_checkpoint(path, init_params(CFG, 4), CFG, vocab_hash="abcd1234", step=8, seed=42)
    monkeypatch.undo()
    assert path.read_bytes() == before
    data = load_checkpoint(path)
    assert data.step == 7
    assert data.restore_optimizer(params).t == opt.t
    for name, t in params.items():
        assert np.array_equal(data.arrays[name], t.data), name
    assert [p.name for p in tmp_path.iterdir()] == [path.name]  # no temp file left


def test_vocab_hash_gate(tmp_path):
    path, _, _ = fresh(tmp_path)
    assert load_checkpoint(path, expected_vocab_hash="abcd1234").step == 7
    with pytest.raises(CompatibilityError, match="vocabulary"):
        load_checkpoint(path, expected_vocab_hash="ffff0000")


def test_payload_corruption_detected(tmp_path):
    path, _, _ = fresh(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[-3] ^= 0xFF  # flip one payload byte
    path.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError, match="digest mismatch"):
        load_checkpoint(path)


def test_truncation_detected(tmp_path):
    path, _, _ = fresh(tmp_path)
    blob = path.read_bytes()
    path.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(IntegrityError):
        load_checkpoint(path)
    path.write_bytes(blob[:6])
    with pytest.raises(IntegrityError, match="truncated"):
        load_checkpoint(path)


def test_bad_magic_rejected(tmp_path):
    path, _, _ = fresh(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[:8] = b"NOTCKPT!"
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError, match="bad magic"):
        load_checkpoint(path)


def test_future_version_rejected(tmp_path):
    path, _, _ = fresh(tmp_path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, len(MAGIC), FORMAT_VERSION + 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(CompatibilityError, match="format version"):
        load_checkpoint(path)


def test_manifest_corruption_detected(tmp_path):
    path, _, _ = fresh(tmp_path)
    blob = bytearray(path.read_bytes())
    (mlen,) = struct.unpack_from("<I", blob, len(MAGIC) + 4)
    start = len(MAGIC) + 8
    blob[start : start + 2] = b"\xff\xfe"  # manifest no longer valid JSON
    path.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError, match="unreadable"):
        load_checkpoint(path)


def rewrite_manifest(path, edit):
    """Replace the manifest with edit(manifest), keeping the payload (and
    so its digest) as it was."""
    blob = path.read_bytes()
    (mlen,) = struct.unpack_from("<I", blob, len(MAGIC) + 4)
    start = len(MAGIC) + 8
    manifest = edit(json.loads(blob[start : start + mlen]))
    body = json.dumps(manifest).encode("utf-8")
    path.write_bytes(blob[:start - 4] + struct.pack("<I", len(body)) + body
                     + blob[start + mlen :])


def without(key):
    def edit(manifest):
        del manifest[key]
        return manifest
    return edit


def with_config(**changes):
    def edit(manifest):
        manifest["config"].update(changes)
        return manifest
    return edit


def test_manifest_without_tensors_is_integrity_error(tmp_path):
    path, _, _ = fresh(tmp_path)
    rewrite_manifest(path, without("tensors"))
    with pytest.raises(IntegrityError, match="lacks 'tensors'"):
        load_checkpoint(path)


def test_manifest_that_is_a_list_is_integrity_error(tmp_path):
    path, _, _ = fresh(tmp_path)
    rewrite_manifest(path, lambda manifest: [manifest])
    with pytest.raises(IntegrityError, match="JSON list"):
        load_checkpoint(path)


def test_unknown_config_key_is_compatibility_error(tmp_path):
    path, _, _ = fresh(tmp_path)
    rewrite_manifest(path, with_config(n_experts=4))
    with pytest.raises(CompatibilityError, match="n_experts"):
        load_checkpoint(path)


def test_invalid_config_is_compatibility_error(tmp_path):
    path, _, _ = fresh(tmp_path)
    rewrite_manifest(path, with_config(n_heads=3))
    with pytest.raises(CompatibilityError, match="not divisible by n_heads 3"):
        load_checkpoint(path)


def test_malformed_tensor_entry_is_integrity_error(tmp_path):
    path, _, _ = fresh(tmp_path)

    def edit(manifest):
        manifest["tensors"][2]["shape"] = "8x8"
        return manifest

    rewrite_manifest(path, edit)
    with pytest.raises(IntegrityError, match="entry 2: field 'shape'"):
        load_checkpoint(path)


def test_missing_optimizer_moment_is_integrity_error(tmp_path):
    path, _, _ = fresh(tmp_path, optimizer=True)

    def edit(manifest):
        manifest["tensors"] = [t for t in manifest["tensors"]
                               if t["name"] != "adam.v.embed.weight"]
        return manifest

    rewrite_manifest(path, edit)
    with pytest.raises(IntegrityError, match="optimizer moments"):
        load_checkpoint(path)


def test_vocab_hash_checked_before_any_tensor(tmp_path):
    path, _, _ = fresh(tmp_path)

    def edit(manifest):
        manifest["vocab_hash"] = "ffff0000"
        manifest["tensors"][0]["offset"] = 10**9
        return manifest

    rewrite_manifest(path, edit)
    with pytest.raises(CompatibilityError, match="vocabulary ffff0000"):
        load_checkpoint(path, expected_vocab_hash="abcd1234")
    with pytest.raises(IntegrityError, match="extends past the payload"):
        load_checkpoint(path)


def test_untouched_manifest_rewrite_still_loads(tmp_path):
    path, params, _ = fresh(tmp_path)
    rewrite_manifest(path, lambda manifest: manifest)
    data = load_checkpoint(path)
    assert data.config == CFG
    for name in params.names():
        assert np.array_equal(data.arrays[name], params[name].data)
