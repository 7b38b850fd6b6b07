"""JSONL written and read one line at a time, and atomic replacement."""

import json

import pytest

from repocat import fileio


def _joined(records, meta):
    """The bytes of the format: every line joined by newlines, plus one."""
    lines = [] if meta is None else [fileio.dumps({"_meta": meta})]
    lines += [fileio.dumps(rec) for rec in records]
    return ("\n".join(lines) + "\n").encode("utf-8")


@pytest.mark.parametrize("records,meta", [
    ([{"b": 1, "a": "mixer\né"}, {"tokens": ["x", "y"]}], {"tool": "t"}),
    ([{"a": 1}], None),
    ([], {"tool": "t"}),
    ([], None),
], ids=["meta-and-rows", "rows", "meta", "no-lines"])
def test_write_jsonl_bytes_equal_the_joined_lines(tmp_path, records, meta):
    path = tmp_path / "out.jsonl"
    fileio.write_jsonl(path, iter(records), meta=meta)
    assert path.read_bytes() == _joined(records, meta)
    assert fileio.read_jsonl(path) == (records, meta)


@pytest.mark.parametrize("obj", [
    {"z": {"y": [1, {"b": None, "a": True}], "x": []}, "a": [[["deep"]]]},
    {"name": "mixer\u00e9", "tokens": ["\u65e5\u672c", "\U0001f600", "tab\t"]},
    {"loss": 0.1, "small": 1e-300, "big": 1.5e300, "neg": -2.5, "int": 3,
     "nan": float("nan"), "inf": float("inf")},
    [3.141592653589793, "x", None],
], ids=["nested", "non-ascii", "floats", "list"])
def test_dumps_equals_json_dumps_with_sorted_keys_and_tight_separators(obj):
    assert fileio.dumps(obj) == json.dumps(obj, sort_keys=True, separators=(",", ":"))


def test_write_jsonl_that_fails_partway_leaves_no_file(tmp_path):
    def records():
        yield {"a": 1}
        raise RuntimeError("record source failed")

    path = tmp_path / "out.jsonl"
    with pytest.raises(RuntimeError, match="record source failed"):
        fileio.write_jsonl(path, records(), meta={"tool": "t"})
    assert list(tmp_path.iterdir()) == []

    path.write_bytes(b"kept\n")
    with pytest.raises(RuntimeError, match="record source failed"):
        fileio.write_jsonl(path, records())
    assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]
    assert path.read_bytes() == b"kept\n"


@pytest.mark.parametrize("text,want", [
    ('{"_meta":{"k":1}}\n{"a":1}\n\n{"a":2}\n', ({"k": 1}, [{"a": 1}, {"a": 2}])),
    ('{"_meta":{"k":1}}\n', ({"k": 1}, [])),
    ('{"a":1}\n', (None, [{"a": 1}])),
    # provenance is only ever the first line
    ('\n{"_meta":{"k":1}}\n', (None, [{"_meta": {"k": 1}}])),
    ("", (None, [])),
], ids=["meta-rows-blank", "meta-only", "no-meta", "meta-on-line-2", "empty"])
def test_iter_jsonl_yields_the_meta_then_each_record(tmp_path, text, want):
    path = tmp_path / "in.jsonl"
    path.write_text(text)
    meta, records = want
    assert list(fileio.iter_jsonl(path)) == [meta, *records]
    assert fileio.read_jsonl(path) == (records, meta)


def test_iter_jsonl_names_the_bad_line(tmp_path):
    path = tmp_path / "in.jsonl"
    path.write_text('{"a":1}\n{"a":\n')
    with pytest.raises(ValueError, match=r"in\.jsonl: line 2: invalid JSON"):
        fileio.read_jsonl(path)
