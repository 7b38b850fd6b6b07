"""Checkpoint container: bit-exact round trips and corruption handling."""

import json
import struct
import tracemalloc

import numpy as np
import pytest

from repocat import checkpoint


def _arrays(seed=0):
    rng = np.random.default_rng(seed)
    return {
        "weights": rng.normal(size=(7, 3)),
        "bias": rng.normal(size=3),
        "scalar_ish": np.array([np.pi]),
        "tiny": rng.normal(size=(2, 2, 2)) * 1e-300,  # denormals survive
    }


def test_round_trip_bit_exact(tmp_path):
    path = tmp_path / "model.ckpt"
    meta = {"kind": "nn", "seed": 4, "categories": ["games", "sound"],
            "config": {"filters": 250}}
    arrays = _arrays()
    checkpoint.save_checkpoint(path, meta, arrays)
    got_meta, got_arrays = checkpoint.load_checkpoint(path)
    assert got_meta["kind"] == "nn"
    assert got_meta["seed"] == 4
    assert got_meta["categories"] == ["games", "sound"]
    assert got_meta["format"] == 1
    assert set(got_arrays) == set(arrays)
    for name in arrays:
        assert got_arrays[name].dtype == np.float64
        assert got_arrays[name].shape == arrays[name].shape
        # bitwise equality, not closeness
        np.testing.assert_array_equal(
            got_arrays[name].view(np.uint64), arrays[name].view(np.uint64)
        )


def test_reruns_byte_identical(tmp_path):
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    meta = {"kind": "lr", "seed": 1}
    checkpoint.save_checkpoint(p1, meta, _arrays(5))
    checkpoint.save_checkpoint(p2, meta, _arrays(5))
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.ckpt"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        checkpoint.load_checkpoint(path)


def test_truncated_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    checkpoint.save_checkpoint(path, {"kind": "nn"}, _arrays())
    raw = path.read_bytes()
    clipped = tmp_path / "clipped.ckpt"
    clipped.write_bytes(raw[: len(raw) - 16])
    with pytest.raises(ValueError, match="truncated"):
        checkpoint.load_checkpoint(clipped)


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "empty.ckpt"
    path.write_bytes(b"")
    with pytest.raises(ValueError):
        checkpoint.load_checkpoint(path)


def test_loaded_arrays_are_writable_copies(tmp_path):
    path = tmp_path / "model.ckpt"
    checkpoint.save_checkpoint(path, {"kind": "nn"}, {"w": np.ones((2, 2))})
    _, arrays = checkpoint.load_checkpoint(path)
    arrays["w"][0, 0] = 5.0  # must not raise (frombuffer alone is read-only)
    assert arrays["w"][0, 0] == 5.0


def test_load_copies_each_array_once(tmp_path):
    # the file's bytes plus one float64 copy of each array (2x the file); one
    # more copy of the body, or of each array's bytes, would exceed 2.5x
    path = tmp_path / "big.ckpt"
    rng = np.random.default_rng(1)
    checkpoint.save_checkpoint(path, {"kind": "nn"}, {
        "embedding": rng.normal(size=(4000, 100)), "w": rng.normal(size=(300, 250)),
    })
    size = path.stat().st_size
    tracemalloc.start()
    try:
        _, arrays = checkpoint.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * size, (peak, size)
    assert arrays["embedding"].flags.writeable and arrays["w"].flags.owndata


def _assert_entry_rejected(tmp_path, entry):
    header = json.dumps({"format": 1, "kind": "nn", "arrays": [entry]})
    path = tmp_path / "bad.ckpt"
    path.write_bytes(
        checkpoint.MAGIC + struct.pack("<Q", len(header)) + header.encode() + bytes(48)
    )
    with pytest.raises(ValueError, match=r"bad\.ckpt: corrupt array entry"):
        checkpoint.load_checkpoint(path)


@pytest.mark.parametrize("entry", [
    {"shape": [3, 3], "dtype": "<f8", "offset": 0, "nbytes": 48},  # 6 values for 9 slots
    {"shape": [2], "dtype": "<f8", "offset": -8, "nbytes": 16},
    {"shape": [2], "dtype": "<f4", "offset": 0, "nbytes": 16},  # only <f8 is ever written
])
def test_corrupt_array_entry_rejected(tmp_path, entry):
    _assert_entry_rejected(tmp_path, dict(entry, name="w"))


GOOD_ENTRY = {"name": "w", "shape": [2], "dtype": "<f8", "offset": 0, "nbytes": 16}


@pytest.mark.parametrize("entry", [
    *(pytest.param({k: v for k, v in GOOD_ENTRY.items() if k != key}, id=f"no-{key}")
      for key in GOOD_ENTRY),
    pytest.param(dict(GOOD_ENTRY, offset="0"), id="string-offset"),
    pytest.param(dict(GOOD_ENTRY, nbytes=16.0), id="float-nbytes"),
    pytest.param(dict(GOOD_ENTRY, shape="2"), id="string-shape"),
    pytest.param(dict(GOOD_ENTRY, shape=[2.0]), id="float-dimension"),
    pytest.param(dict(GOOD_ENTRY, shape=[-1, -2]), id="negative-dimensions"),
    pytest.param(dict(GOOD_ENTRY, shape=[2, -1], nbytes=-16), id="negative-nbytes"),
])
def test_malformed_array_entry_names_file(tmp_path, entry):
    _assert_entry_rejected(tmp_path, entry)


@pytest.mark.parametrize("header", [
    pytest.param([], id="list-header"),
    pytest.param("nn", id="string-header"),
    pytest.param({"format": 1, "arrays": 5}, id="number-arrays"),
    pytest.param({"format": 1, "arrays": {"name": "w"}}, id="object-arrays"),
])
def test_malformed_header_names_file(tmp_path, header):
    raw = json.dumps(header).encode()
    path = tmp_path / "bad.ckpt"
    path.write_bytes(checkpoint.MAGIC + struct.pack("<Q", len(raw)) + raw + bytes(16))
    with pytest.raises(ValueError, match=r"bad\.ckpt: corrupt checkpoint header"):
        checkpoint.load_checkpoint(path)


def test_load_peaks_near_the_file_size(tmp_path):
    # the header is read first and each array straight into its own buffer,
    # so no copy of the file's bytes is held beside the arrays
    path = tmp_path / "big.ckpt"
    rng = np.random.default_rng(2)
    checkpoint.save_checkpoint(path, {"kind": "nn"}, {
        "embedding": rng.normal(size=(50000, 100)), "empty": np.zeros((3, 0)),
    })
    size = path.stat().st_size
    assert size > 40e6
    tracemalloc.start()
    try:
        _, arrays = checkpoint.load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * size, (peak, size)
    assert arrays["embedding"].shape == (50000, 100) and arrays["empty"].shape == (3, 0)
    np.testing.assert_array_equal(
        arrays["embedding"], np.random.default_rng(2).normal(size=(50000, 100)))
