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
import os
import struct

import numpy as np

from . import fileio

MAGIC = b"RCCHKPT1"
_ENTRY_KEYS = {"name", "shape", "dtype", "offset", "nbytes"}


def save_checkpoint(path, meta, arrays):
    """Write a checkpoint; arrays is {name: float ndarray}, each widened
    exactly to float64 (written sorted by name)."""
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
    """Read a checkpoint; returns (meta, {name: float64 ndarray}).

    The header is read first, then each array straight into its own buffer,
    so a load holds little more than the arrays it returns.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        prefix = fh.read(len(MAGIC) + 8)
        if len(prefix) < len(MAGIC) + 8 or prefix[: len(MAGIC)] != MAGIC:
            raise ValueError(f"{path}: not a model checkpoint (bad magic)")
        (header_len,) = struct.unpack_from("<Q", prefix, len(MAGIC))
        start = len(MAGIC) + 8
        if start + header_len > size:
            raise ValueError(f"{path}: truncated checkpoint header")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValueError(f"{path}: corrupt checkpoint header: {exc}") from exc
        if not isinstance(header, dict) or not isinstance(header.get("arrays", []), list):
            raise ValueError(
                f"{path}: corrupt checkpoint header: expected an object with an 'arrays' list"
            )
        body = start + header_len
        arrays = {}
        for entry in header.get("arrays", []):
            if not _well_formed(entry):
                raise ValueError(f"{path}: corrupt array entry {entry!r}")
            if body + entry["offset"] + entry["nbytes"] > size:
                raise ValueError(f"{path}: truncated array {entry['name']!r}")
            arr = np.empty(entry["shape"], dtype="<f8")
            fh.seek(body + entry["offset"])
            if fh.readinto(arr) != entry["nbytes"]:
                raise ValueError(f"{path}: truncated array {entry['name']!r}")
            arrays[entry["name"]] = arr.astype(np.float64, copy=False)
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
