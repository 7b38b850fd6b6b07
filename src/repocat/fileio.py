"""Atomic, deterministic file helpers shared by the pipeline stages.

Every artifact writer goes through these so that (a) a crashed run never
leaves a half-written file behind (write to a temp file, then os.replace)
and (b) reruns with the same inputs produce byte-identical output.

JSONL artifacts carry their provenance as a first line {"_meta": {...}};
readers skip it.  Text artifacts (embeddings, vocabularies) use leading
"# key=value" comment lines instead.  JSONL goes one line at a time both
ways: `write_jsonl` writes each record into the temp file as it comes, and
`iter_jsonl` parses each line as it is read, so a dataset never exists
as one joined string or as a list of row dicts.
"""

import contextlib
import json
import os
import tempfile


def atomic_write_text(path, text):
    """Write text to path atomically as UTF-8, newlines untranslated."""
    with _replacing(path) as fh:
        fh.write(text.encode("utf-8"))


def atomic_write_bytes(path, data):
    """Write bytes to path atomically (temp file + os.replace)."""
    with _replacing(path) as fh:
        fh.write(data)


@contextlib.contextmanager
def _replacing(path):
    """A binary file in path's directory that replaces path when the block
    ends; when the block raises, the file is removed and path is untouched."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix=".part")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def dumps(obj):
    """Deterministic single-line JSON: sorted keys, no whitespace padding."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_jsonl(path, records, meta=None):
    """Write records (any iterable, consumed once) as JSONL, atomically;
    meta (if given) becomes a first {"_meta": ...} line.  A file with no
    line at all holds a single newline."""
    with _replacing(path) as fh:
        if meta is not None:
            fh.write(dumps({"_meta": meta}).encode("utf-8") + b"\n")
        for rec in records:
            fh.write(dumps(rec).encode("utf-8") + b"\n")
        if not fh.tell():
            fh.write(b"\n")


def iter_jsonl(path):
    """Parse a JSONL file one line at a time.  Yields the meta first (None
    when the first line is no {"_meta": ...} object), then each record;
    blank lines are skipped.  The file is closed when the iterator is
    exhausted or closed."""
    meta_pending = True
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path}: line {lineno}: invalid JSON: {exc}") from exc
            if meta_pending:
                meta_pending = False
                if lineno == 1 and isinstance(obj, dict) and set(obj) == {"_meta"}:
                    yield obj["_meta"]
                    continue
                yield None
            yield obj
    if meta_pending:
        yield None


def read_jsonl(path):
    """Read a JSONL file; returns (records, meta) with meta None when absent."""
    lines = iter_jsonl(path)
    meta = next(lines)
    return list(lines), meta


def comment_header(meta):
    """Render provenance as '# key=value' lines for text artifacts."""
    lines = []
    for key in sorted(meta):
        lines.append(f"# {key}={meta[key]}")
    return lines
