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
import struct

import numpy as np

from . import fileio

MAGIC = b"RCCHKPT1"


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
    header_bytes = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    payload = MAGIC + struct.pack("<Q", len(header_bytes)) + header_bytes + b"".join(blobs)
    fileio.atomic_write_bytes(path, payload)


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
    body = raw[start + header_len :]
    arrays = {}
    for entry in header.get("arrays", []):
        lo, hi = entry["offset"], entry["offset"] + entry["nbytes"]
        if (entry["dtype"] != "<f8" or lo < 0
                or entry["nbytes"] != 8 * int(np.prod(entry["shape"]))):
            raise ValueError(f"{path}: corrupt array entry {entry!r}")
        if hi > len(body):
            raise ValueError(f"{path}: truncated array {entry['name']!r}")
        arr = np.frombuffer(body[lo:hi], dtype="<f8").reshape(entry["shape"])
        arrays[entry["name"]] = arr.astype(np.float64, copy=True)
    meta = {k: v for k, v in header.items() if k != "arrays"}
    return meta, arrays
