"""Binary model checkpoint container.

Layout:

    8-byte magic "RCCHKPT1"
    uint64 little-endian header length
    JSON header (utf-8, sorted keys)
    named arrays, little-endian float64, concatenated in header order

The header carries everything needed to reuse the model: kind ("nn"/"lr"),
config, seed, category names, the full vocabulary token list plus its sha256,
and the array directory (name, shape, byte offset).  Arrays are stored and
restored bit-exactly.
"""

import json
import math
import struct

import numpy as np

from . import fileio

MAGIC = b"RCCHKPT1"
_ENTRY_KEYS = {"name", "shape", "dtype", "offset", "nbytes"}


def save_checkpoint(path, meta, arrays):
    """Write a checkpoint; arrays is {name: float64 ndarray} (sorted by name)."""
    directory = []
    blobs = []
    offset = 0
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        blob = arr.tobytes()
        directory.append({
            "name": name,
            "shape": list(arr.shape),
            "dtype": "<f8",
            "offset": offset,
            "nbytes": len(blob),
        })
        blobs.append(blob)
        offset += len(blob)
    header = dict(meta)
    header["format"] = 1
    header["arrays"] = directory
    header_bytes = fileio.dumps(header).encode("utf-8")
    payload = MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + b"".join(blobs)
    fileio.atomic_write_bytes(path, payload)


def _is_count(value):
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


def _well_formed(entry):
    """True for a directory entry as save_checkpoint writes it: a string
    name, a float64 dtype, a shape of non-negative integers, and an integer
    offset and byte count that fit the shape."""
    if not isinstance(entry, dict) or not _ENTRY_KEYS <= entry.keys():
        return False
    shape = entry["shape"]
    return (isinstance(entry["name"], str) and entry["dtype"] == "<f8"
            and isinstance(shape, list) and all(map(_is_count, shape))
            and _is_count(entry["offset"]) and _is_count(entry["nbytes"])
            and entry["nbytes"] == 8 * math.prod(shape))


def load_checkpoint(path):
    """Read a checkpoint; returns (meta, {name: float64 ndarray})."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < len(MAGIC) + 8 or raw[: len(MAGIC)] != MAGIC:
        raise ValueError(f"{path}: not a model checkpoint (bad magic)")
    (header_len,) = struct.unpack_from("<Q", raw, len(MAGIC))
    start = len(MAGIC) + 8
    if start + header_len > len(raw):
        raise ValueError(f"{path}: truncated checkpoint header")
    try:
        header = json.loads(raw[start : start + header_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValueError(f"{path}: corrupt checkpoint header: {exc}") from exc
    if not isinstance(header, dict) or not isinstance(header.get("arrays", []), list):
        raise ValueError(
            f"{path}: corrupt checkpoint header: expected an object with an 'arrays' list"
        )
    # a view, so each array's bytes are copied once, by astype
    body = memoryview(raw)[start + header_len :]
    arrays = {}
    for entry in header.get("arrays", []):
        if not _well_formed(entry):
            raise ValueError(f"{path}: corrupt array entry {entry!r}")
        lo, hi = entry["offset"], entry["offset"] + entry["nbytes"]
        if hi > len(body):
            raise ValueError(f"{path}: truncated array {entry['name']!r}")
        arr = np.frombuffer(body[lo:hi], dtype="<f8").reshape(entry["shape"])
        arrays[entry["name"]] = arr.astype(np.float64, copy=True)
    meta = {k: v for k, v in header.items() if k != "arrays"}
    return meta, arrays


def require_meta(path, meta, keys):
    """Raise ValueError naming path unless the header meta has every key."""
    missing = [key for key in keys if key not in meta]
    if missing:
        raise ValueError(f"{path}: checkpoint header lacks {missing}")


def require_arrays(path, arrays, shapes):
    """Raise ValueError naming path unless arrays holds exactly the names of
    shapes ({name: shape tuple}), each with its shape."""
    if arrays.keys() != shapes.keys():
        raise ValueError(
            f"{path}: checkpoint arrays {sorted(arrays)}, expected {sorted(shapes)}"
        )
    for name, shape in shapes.items():
        if arrays[name].shape != shape:
            raise ValueError(
                f"{path}: array {name!r} has shape {arrays[name].shape}, expected {shape}"
            )
