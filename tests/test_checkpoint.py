"""Checkpoint container: byte-exact round trips and tamper detection."""

import errno
import hashlib
import json
import struct
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest

import crisisadapt.tensor as T
from crisisadapt import files
from crisisadapt.checkpoint import (
    DIGEST_BYTES,
    FORMAT_VERSION,
    MAGIC,
    load_checkpoint,
    save_checkpoint,
)
from crisisadapt.errors import CheckpointError, CompatibilityError, IntegrityError
from crisisadapt.model import ModelConfig, ParameterStore, init_params, named_config
from crisisadapt.train import AdamState

from conftest import assert_views_of

CFG = ModelConfig(vocab_size=12, d_model=8, n_heads=2, d_ff=16,
                  n_enc_layers=1, n_dec_layers=1, dropout=0.0,
                  max_src_len=8, max_tgt_len=4)


def fresh(tmp_path, name="model.castckpt", optimizer=False, **kwargs):
    params = init_params(CFG, 3)
    opt = None
    if optimizer:
        opt = AdamState(params)
        g = np.full_like(params.flat, 0.25)
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


def address(arr: np.ndarray) -> int:
    return arr.__array_interface__["data"][0]


def test_loaded_tensors_are_writable_views_into_one_buffer(tmp_path):
    """The parameters, then Adam's m and v, each in parameter order, lie
    back to back in one buffer and fill the payload."""
    path, params, _ = fresh(tmp_path, optimizer=True)
    data = load_checkpoint(path)
    loaded = [*data.arrays.values(), *data.adam_m.values(), *data.adam_v.values()]
    assert len(loaded) == 3 * len(params.names())
    end = address(loaded[0])
    for arr in loaded:
        assert address(arr) == end and arr.flags.writeable
        end += arr.nbytes
    (mlen,) = struct.unpack_from("<I", path.read_bytes(), len(MAGIC) + 4)
    payload = path.stat().st_size - (len(MAGIC) + 8 + mlen) - DIGEST_BYTES
    assert end - address(loaded[0]) == payload == 3 * params.flat.nbytes


def test_restored_state_lives_in_the_flat_vectors(tmp_path):
    path, params, opt = fresh(tmp_path, optimizer=True)
    data = load_checkpoint(path)
    copy = init_params(CFG, 0)
    copy.load_arrays(data.arrays)
    restored = data.restore_optimizer(copy)
    assert np.array_equal(copy.flat, params.flat)
    assert np.array_equal(restored.m_flat, opt.m_flat)
    assert np.array_equal(restored.v_flat, opt.v_flat)
    names = params.names()
    assert_views_of(copy.arrays(), copy.flat, names)
    assert_views_of(restored.m, restored.m_flat, names)
    assert_views_of(restored.v, restored.v_flat, names)


def traced_peak(fn) -> int:
    """Most bytes live at once while fn() runs, above those live before."""
    tracemalloc.start()
    try:
        before, _ = tracemalloc.get_traced_memory()
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_save_and_load_copy_no_payload(tmp_path):
    """A save writes the tensors' own buffers, and a load holds the file
    once: a copy of the payload on either side breaks these bounds."""
    cfg = named_config("tiny", vocab_size=300)
    params = init_params(cfg, 0)
    opt = AdamState(params)
    opt.apply(params, np.full_like(params.flat, 0.01), 1e-3)
    path = tmp_path / "tiny.castckpt"

    def save():
        save_checkpoint(path, params, cfg, vocab_hash="abcd1234", step=1, seed=0, optimizer=opt)

    save()
    size = path.stat().st_size
    assert size > 3 * 2**20  # weights and both moments of 271k parameters
    assert traced_peak(save) <= 0.25 * size
    assert traced_peak(lambda: load_checkpoint(path)) <= 1.25 * size


def test_restore_optimizer_absent_returns_none(tmp_path):
    path, params, _ = fresh(tmp_path)
    assert load_checkpoint(path).restore_optimizer(params) is None


def test_extra_payload_round_trip(tmp_path):
    path, _, _ = fresh(tmp_path, extra={"scenario": "postq", "note": "run 3"})
    assert load_checkpoint(path).extra == {"scenario": "postq", "note": "run 3"}


def test_fp64_arrays_round_trip(tmp_path):
    params = ParameterStore({n: T.Tensor(a.astype(np.float64), requires_grad=True, name=n)
                             for n, a in init_params(CFG, 0).arrays().items()})
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


def resign(blob) -> bytes:
    """`blob` with its trailing digest recomputed over its other bytes."""
    body = bytes(blob[:-DIGEST_BYTES])
    return body + hashlib.sha256(body).digest()


def test_payload_corruption_detected(tmp_path):
    path, _, _ = fresh(tmp_path)
    blob = bytearray(path.read_bytes())
    blob[-DIGEST_BYTES - 3] ^= 0xFF  # flip one payload byte
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


def test_v1_file_is_compatibility_error(tmp_path):
    path, _, _ = fresh(tmp_path)
    blob = bytearray(path.read_bytes())
    struct.pack_into("<I", blob, len(MAGIC), 1)
    path.write_bytes(bytes(blob))
    with pytest.raises(CompatibilityError, match=f"^{path}: checkpoint format version 1, "
                                                 f"this build reads {FORMAT_VERSION}$"):
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
    with pytest.raises(IntegrityError, match="digest mismatch"):
        load_checkpoint(path)
    path.write_bytes(resign(blob))
    with pytest.raises(IntegrityError, match="unreadable"):
        load_checkpoint(path)


def test_manifest_edit_is_integrity_error(tmp_path):
    path, _, _ = fresh(tmp_path)
    blob = path.read_bytes()
    assert blob.count(b'"step":7') == 1
    path.write_bytes(blob.replace(b'"step":7', b'"step":8'))
    with pytest.raises(IntegrityError, match=f"^{path}: checkpoint digest mismatch"):
        load_checkpoint(path)
    path.write_bytes(resign(path.read_bytes()))
    assert load_checkpoint(path).step == 8


def rewrite_manifest(path, edit):
    """Replace the manifest with edit(manifest), keeping the payload as it
    was, and sign the new file with its own digest."""
    blob = path.read_bytes()
    (mlen,) = struct.unpack_from("<I", blob, len(MAGIC) + 4)
    start = len(MAGIC) + 8
    manifest = edit(json.loads(blob[start : start + mlen]))
    body = json.dumps(manifest).encode("utf-8")
    path.write_bytes(resign(blob[:start - 4] + struct.pack("<I", len(body)) + body
                            + blob[start + mlen :]))


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


def test_manifest_without_a_field_is_integrity_error(tmp_path):
    path, _, _ = fresh(tmp_path)
    rewrite_manifest(path, without("adam_t"))
    with pytest.raises(IntegrityError, match="lacks 'adam_t'"):
        load_checkpoint(path)


@pytest.mark.parametrize("optimizer, changes", [
    (False, {"adam_t": 2}),  # a payload of parameters only, read as three vectors
    (True, {"adam_t": None}),
    (False, {"config": asdict(replace(CFG, d_ff=24))}),
    (False, {"dtype": "float64"}),
], ids=["adam_t_added", "adam_t_dropped", "config_resized", "dtype_widened"])
def test_payload_that_does_not_fit_is_integrity_error(tmp_path, optimizer, changes):
    path, _, _ = fresh(tmp_path, optimizer=optimizer)
    rewrite_manifest(path, lambda manifest: manifest | changes)
    with pytest.raises(IntegrityError, match=f"^{path}: checkpoint payload of .* does not fit"):
        load_checkpoint(path)


def test_vocab_hash_checked_before_any_tensor(tmp_path):
    path, _, _ = fresh(tmp_path)
    rewrite_manifest(path, lambda manifest: manifest | {"vocab_hash": "ffff0000", "adam_t": 5})
    with pytest.raises(CompatibilityError, match="vocabulary ffff0000"):
        load_checkpoint(path, expected_vocab_hash="abcd1234")
    with pytest.raises(IntegrityError, match="does not fit"):
        load_checkpoint(path)


@pytest.mark.parametrize("store", [
    lambda: init_params(replace(CFG, d_ff=24), 0),
    lambda: ParameterStore(dict(reversed(init_params(CFG, 0).items()))),
    lambda: ParameterStore(dict(list(init_params(CFG, 0).items())[:-1])),
], ids=["other_config", "other_order", "missing_tensor"])
def test_save_of_a_store_unlike_its_config_is_value_error(tmp_path, store):
    path = tmp_path / "model.castckpt"
    with pytest.raises(ValueError, match="does not match its model config"):
        save_checkpoint(path, store(), CFG, vocab_hash="x", step=0, seed=0)
    assert not path.exists()


def test_untouched_manifest_rewrite_still_loads(tmp_path):
    path, params, _ = fresh(tmp_path)
    rewrite_manifest(path, lambda manifest: manifest)
    data = load_checkpoint(path)
    assert data.config == CFG
    for name in params.names():
        assert np.array_equal(data.arrays[name], params[name].data)
