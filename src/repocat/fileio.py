"""Atomic, deterministic file helpers shared by the pipeline stages.

Every artifact writer goes through these so that (a) a crashed run never
leaves a half-written file behind (write to a temp file, then os.replace)
and (b) reruns with the same inputs produce byte-identical output.

JSONL artifacts carry their provenance as a first line {"_meta": {...}};
readers skip it.  Text artifacts (embeddings, vocabularies) use leading
"# key=value" comment lines instead.
"""

import json
import os
import tempfile


def atomic_write_text(path, text):
    """Write text to path atomically as UTF-8, newlines untranslated."""
    _atomic_write(path, text.encode("utf-8"))


def atomic_write_bytes(path, data):
    """Write bytes to path atomically (temp file + os.replace)."""
    _atomic_write(path, data)


def _atomic_write(path, data):
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dumps(obj):
    """Deterministic single-line JSON: sorted keys, no whitespace padding."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_jsonl(path, records, meta=None):
    """Write records as JSONL; meta (if given) becomes a first {"_meta": ...} line."""
    lines = []
    if meta is not None:
        lines.append(dumps({"_meta": meta}))
    lines.extend(dumps(rec) for rec in records)
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_jsonl(path):
    """Read a JSONL file; returns (records, meta) with meta None when absent."""
    records = []
    meta = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            if lineno == 1 and isinstance(obj, dict) and set(obj) == {"_meta"}:
                meta = obj["_meta"]
                continue
            records.append(obj)
    return records, meta


def comment_header(meta):
    """Render provenance as '# key=value' lines for text artifacts."""
    lines = []
    for key in sorted(meta):
        lines.append(f"# {key}={meta[key]}")
    return lines
