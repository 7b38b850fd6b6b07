"""Function extraction, repository loading, and split contracts."""

import json
import logging
import re

import numpy as np
import pytest

from repocat import corpus, embedding, tokens


def reference_lex(source):
    """Yield (kind, start, end) events over all of source: the one-level
    lexer that extraction used before the brace pre-pass, kept as the
    reference for the lexical rules.

    kind is 'word', 'num', 'str', or the symbol character itself.  Comments,
    preprocessor lines (with backslash continuation), and whitespace are
    skipped; string/char literals collapse to a single 'str' event.
    """
    i, n = 0, len(source)
    bol = True  # only whitespace seen since line start
    while i < n:
        ch = source[i]
        if ch == "\n":
            bol = True
            i += 1
            continue
        if ch in " \t\r\f\v":
            i += 1
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "/":
            i = source.find("\n", i)
            i = n if i < 0 else i
            continue
        if ch == "/" and i + 1 < n and source[i + 1] == "*":
            end = source.find("*/", i + 2)
            i = n if end < 0 else end + 2
            continue
        if ch == "#" and bol:
            i += 1
            while i < n:
                if source[i] == "\\" and i + 1 < n and source[i + 1] == "\n":
                    i += 2
                elif source[i] == "\n":
                    break
                else:
                    i += 1
            continue
        bol = False
        if ch in "\"'":
            quote = ch
            start = i
            i += 1
            while i < n:
                c = source[i]
                if c == "\\" and i + 1 < n:
                    i += 2
                elif c == quote:
                    i += 1
                    break
                elif c == "\n":
                    break
                else:
                    i += 1
            yield ("str", start, i)
            continue
        if ch.isalpha() or ch == "_":
            start = i
            i += 1
            while i < n and (source[i].isalnum() or source[i] == "_"):
                i += 1
            yield ("word", start, i)
            continue
        if ch.isdigit():
            start = i
            i += 1
            while i < n and (source[i].isalnum() or source[i] in "._" or (
                    source[i] == "'" and i + 1 < n
                    and (source[i + 1].isalnum() or source[i + 1] == "_"))):
                i += 1
            yield ("num", start, i)
            continue
        yield (ch, i, i + 1)
        i += 1


def reference_bracket_tables(events):
    """corpus._bracket_tables as it was when it paired a whole file's events."""
    partner = [-1] * len(events)
    reach = list(range(len(events)))
    parens, braces = [], []
    depth = 0
    for i in range(len(events) - 2, -1, -1):
        kind = events[i][0]
        if kind in corpus._LINKAGE:
            reach[i] = reach[i + 1]
        elif kind == ")":
            parens.append((i, depth))
        elif kind == "}":
            braces.append(i)
            depth += 1
        elif kind == "{":
            depth -= 1
            if braces:
                partner[i] = braces.pop()
        elif kind == "(" and parens:
            close, close_depth = parens.pop()
            if close_depth == depth:
                partner[i] = close
                if reach[i + 1] == close:
                    reach[i] = reach[close + 1]
    return partner, reach


def reference_extract(source):
    """(name, body) pairs and diagnostics from one forward loop over the
    events of the whole file: extraction before the brace pre-pass.  It
    shares only the rule for where X-macro rows end (corpus._xmacro_rows_end)
    with the program, and does not name operators."""
    events = list(reference_lex(source))
    total = len(events)
    events.append(("eof", len(source), len(source)))
    partner, reach = reference_bracket_tables(events)
    functions, diagnostics = [], []
    decl_start = last_word = None
    k = 0
    while k < total:
        kind, start, end = events[k]
        if decl_start is None:
            decl_start = start
        if kind == "word":
            last_word = source[start:end]
        elif kind == "(" and last_word and last_word not in corpus._NOT_FUNCTION_NAMES:
            close = partner[k]
            brace = reach[close + 1] if close >= 0 else total
            if events[brace][0] == "{":
                rows_end = corpus._xmacro_rows_end(source, events, partner, close, brace)
                if rows_end is not None:
                    decl_start = last_word = None
                    k = rows_end
                    continue
                name = "~" + last_word if events[k - 2][0] == "~" else last_word
                if partner[brace] < 0:
                    diagnostics.append(
                        f"unbalanced braces at end of file: dropped partial function '{name}'"
                    )
                    break
                k = partner[brace]
                functions.append((name, source[decl_start : events[k][2]]))
                decl_start = None
            last_word = None
        elif kind == ":" and events[k + 1][0] == ":":
            k += 1
        elif kind in (";", "{", "}", ":"):
            decl_start = None
            last_word = None
        else:
            last_word = None
        k += 1
    return functions, diagnostics


def brackets_cross(source):
    """True when a ')' or '}' closes while a bracket of the other kind,
    opened after its partner, is still open."""
    opened = {"(": [], "{": []}
    for i, (kind, _, _) in enumerate(reference_lex(source)):
        if kind in opened:
            opened[kind].append(i)
        elif kind in (")", "}"):
            own, other = ("(", "{") if kind == ")" else ("{", "(")
            if opened[own]:
                partner = opened[own].pop()
                if opened[other] and opened[other][-1] > partner:
                    return True
    return False


def spells(source, name):
    """True when name is the text of consecutive events of source, joined
    without the whitespace and comments between them."""
    texts = [source[s:e] for _, s, e in reference_lex(source)]
    for i in range(len(texts)):
        joined = ""
        for text in texts[i:]:
            joined += text
            if joined == name:
                return True
            if not name.startswith(joined):
                break
    return False


def brace_balance(source):
    """Net '{' minus '}' count outside comments/literals/preprocessor lines."""
    balance = 0
    for kind, _, _ in reference_lex(source):
        if kind == "{":
            balance += 1
        elif kind == "}":
            balance -= 1
    return balance


SIMPLE = """\
static int add(int a, int b) {
    return a + b;
}
"""

TWO_WITH_NOISE = """\
#include <stdio.h>
#define LOOP(x) while (x) { step(); }

/* a comment with a stray brace { and a fake int fake(void) { body } */
static const char *BANNER = "not a function() { nope }";

int first(void)
{
    if (ready) { emit('{'); }
    return 0;
}

struct point make_point(int x, int y) {
    struct point p = {x, y};
    return p;
}

int declared_only(int z);
int assigned = setup(1);
"""

CPP_SCOPES = """\
namespace audio {

class Mixer {
 public:
    int open(int card) {
        return card + 1;
    }
};

}  // namespace audio

extern "C" {
int c_entry(void) { return 0; }
}

std::string qualified::lookup(const std::string &key) {
    return key;
}
"""

UNBALANCED = """\
int fine(void) { return 1; }
int broken(void) {
    if (x) {
"""


class TestExtractFunctions:
    def test_simple_definition(self):
        result = corpus.extract_functions(SIMPLE, project="demo")
        assert len(result.functions) == 1
        fn = result.functions[0]
        assert fn.project_name == "demo"
        assert fn.function_name == "add"
        assert fn.body == SIMPLE.strip()
        assert result.diagnostics == []

    def test_noise_is_ignored(self):
        result = corpus.extract_functions(TWO_WITH_NOISE)
        names = [f.function_name for f in result.functions]
        assert names == ["first", "make_point"]
        first = result.functions[0]
        # Body starts at the declaration, not at the preceding noise.
        assert first.body.startswith("int first(void)")
        assert first.body.endswith("}")
        assert brace_balance(first.body) == 0

    def test_control_keywords_never_match(self):
        src = "int f(void) { for (;;) { if (g()) { h(); } } return 0; }"
        result = corpus.extract_functions(src)
        assert [f.function_name for f in result.functions] == ["f"]

    def test_nested_scopes_are_transparent(self):
        result = corpus.extract_functions(CPP_SCOPES)
        names = [f.function_name for f in result.functions]
        assert names == ["open", "c_entry", "lookup"]
        lookup = result.functions[2]
        assert lookup.body.startswith("std::string qualified::lookup")

    def test_local_blocks_do_not_spawn_candidates(self):
        src = "void outer(void) { helper(1); { inner_call(2); } }"
        result = corpus.extract_functions(src)
        assert [f.function_name for f in result.functions] == ["outer"]

    def test_unbalanced_eof_keeps_earlier_functions(self):
        result = corpus.extract_functions(UNBALANCED)
        assert [f.function_name for f in result.functions] == ["fine"]
        assert len(result.diagnostics) == 1
        assert "unbalanced" in result.diagnostics[0]
        assert "broken" in result.diagnostics[0]

    def test_binary_input_rejected(self):
        with pytest.raises(ValueError):
            corpus.extract_functions("int a(void) { \0 }")

    def test_declarations_and_calls_skipped(self):
        src = "int f(int);\nint x = f(3);\nint g(int a) { return f(a); }\n"
        result = corpus.extract_functions(src)
        assert [f.function_name for f in result.functions] == ["g"]

    def test_pointer_returns_and_ctor_inits(self):
        src = (
            "static char *dup_name(const char *s) { return strdup(s); }\n"
            "Mixer::Mixer(int card) : card_(card), open_(false) { init(); }\n"
        )
        result = corpus.extract_functions(src)
        assert [f.function_name for f in result.functions] == ["dup_name", "Mixer"]

    def test_every_body_brace_balances(self):
        for src in (SIMPLE, TWO_WITH_NOISE, CPP_SCOPES):
            for fn in corpus.extract_functions(src).functions:
                assert brace_balance(fn.body) == 0

    def test_bodies_cover_whole_definition(self):
        # signature tokens and final brace retained, trailing code excluded
        src = "int one() { return 1; }\nint two() { return 2; }\n"
        fns = corpus.extract_functions(src).functions
        assert fns[0].body == "int one() { return 1; }"
        assert fns[1].body == "int two() { return 2; }"


class TestLexer:
    def test_preprocessor_continuation(self):
        src = "#define BAD {{{ \\\n   still bad {{{\nint ok(void) { return 0; }\n"
        fns = corpus.extract_functions(src).functions
        assert [f.function_name for f in fns] == ["ok"]

    def test_string_with_escapes(self):
        src = 'int f(void) { puts("brace \\" {"); return 0; }'
        fns = corpus.extract_functions(src).functions
        assert len(fns) == 1
        assert brace_balance(src) == 0

    def test_unterminated_string_resyncs_at_newline(self):
        src = 'static char *s = "oops;\nint g(void) { return 2; }\n'
        fns = corpus.extract_functions(src).functions
        assert [f.function_name for f in fns] == ["g"]

    def test_brace_balance_ignores_comment_and_literal_braces(self):
        assert brace_balance("/* { */ '{' \"{\" // {") == 0
        assert brace_balance("{ }") == 0
        assert brace_balance("{ { }") == 1


def _write_project(root, name, files):
    pdir = root / name
    pdir.mkdir(parents=True)
    for fname, text in files.items():
        (pdir / fname).write_text(text)


class TestLoadRepository:
    def test_loads_labeled_projects(self, tmp_path):
        _write_project(tmp_path, "alsa", {"mix.c": SIMPLE})
        _write_project(tmp_path, "nethack", {"play.c": "int go(void) { return 7; }"})
        labels = {"alsa": "sound", "nethack": "games"}
        descriptions = {"alsa": "a sound mixer"}
        projects = corpus.load_repository(tmp_path, labels, descriptions)
        assert [p.name for p in projects] == ["alsa", "nethack"]
        assert projects[0].category == "sound"
        assert projects[0].description == "a sound mixer"
        assert projects[1].description == ""
        assert [f.function_name for f in projects[0].functions] == ["add"]
        assert all(f.project_name == "alsa" for f in projects[0].functions)

    def test_missing_directory_warns_and_skips(self, tmp_path, caplog):
        _write_project(tmp_path, "real", {"a.c": SIMPLE})
        with caplog.at_level(logging.WARNING, logger="repocat.corpus"):
            projects = corpus.load_repository(tmp_path, {"real": "x", "ghost": "y"})
        assert [p.name for p in projects] == ["real"]
        assert any("ghost" in rec.message for rec in caplog.records)

    def test_binary_file_skipped(self, tmp_path, caplog):
        _write_project(tmp_path, "p", {"good.c": SIMPLE})
        (tmp_path / "p" / "blob.c").write_bytes(b"\x00\x01\x02")
        with caplog.at_level(logging.WARNING, logger="repocat.corpus"):
            projects = corpus.load_repository(tmp_path, {"p": "x"})
        assert [f.function_name for f in projects[0].functions] == ["add"]
        assert any("binary" in rec.message for rec in caplog.records)

    def test_non_source_extensions_ignored(self, tmp_path):
        _write_project(tmp_path, "p", {"a.c": SIMPLE, "README.md": "int x(void) {}"})
        projects = corpus.load_repository(tmp_path, {"p": "x"})
        assert len(projects[0].functions) == 1

    def test_empty_project_dropped(self, tmp_path, caplog):
        _write_project(tmp_path, "empty", {"a.c": "int x;\n"})
        _write_project(tmp_path, "full", {"a.c": SIMPLE})
        with caplog.at_level(logging.WARNING, logger="repocat.corpus"):
            projects = corpus.load_repository(tmp_path, {"empty": "x", "full": "x"})
        assert [p.name for p in projects] == ["full"]


def _fake_projects(categories, projects_per_cat, functions_per_project):
    projects = []
    for cat in categories:
        for p in range(projects_per_cat):
            name = f"{cat}{p:02d}"
            funcs = [
                corpus.FunctionRecord(name, f"fn{k}", f"int fn{k}(void) {{ return {k}; }}")
                for k in range(functions_per_project)
            ]
            projects.append(corpus.Project(name=name, category=cat, functions=funcs))
    return projects


class TestMakeSplits:
    def test_disjoint_and_balanced(self):
        projects = _fake_projects(["a", "b"], 5, 10)
        split = corpus.make_splits(projects, holdout_per_category=2, per_category_count=12, seed=3)
        holdout_names = {p.name for p in split.holdout_projects}
        assert len(split.holdout_projects) == 4
        assert sum(p.name.startswith("a") for p in split.holdout_projects) == 2
        # train functions never come from held-out projects
        assert all(fn.project_name not in holdout_names for fn, _ in split.train)
        # balanced: exactly per_category_count per category
        for cat in ("a", "b"):
            assert sum(1 for _, c in split.train if c == cat) == 12
        # undersampling without replacement: no duplicate functions
        keys = [(fn.project_name, fn.function_name) for fn, _ in split.train]
        assert len(keys) == len(set(keys))

    def test_deterministic_for_seed(self):
        projects = _fake_projects(["a", "b", "c"], 6, 8)
        s1 = corpus.make_splits(projects, 2, 20, seed=11)
        s2 = corpus.make_splits(projects, 2, 20, seed=11)
        s3 = corpus.make_splits(projects, 2, 20, seed=12)
        assert [p.name for p in s1.holdout_projects] == [p.name for p in s2.holdout_projects]
        assert [(f.project_name, f.function_name) for f, _ in s1.train] == [
            (f.project_name, f.function_name) for f, _ in s2.train
        ]
        assert [p.name for p in s1.holdout_projects] != [p.name for p in s3.holdout_projects]

    def test_too_few_projects_names_category(self):
        projects = _fake_projects(["thin", "thick"], 2, 10) + _fake_projects(["thick"], 3, 10)
        with pytest.raises(ValueError, match="thin"):
            corpus.make_splits(projects, holdout_per_category=2, per_category_count=5, seed=0)

    def test_too_few_functions_names_category(self):
        projects = _fake_projects(["small"], 3, 4)
        with pytest.raises(ValueError, match="small"):
            corpus.make_splits(projects, holdout_per_category=1, per_category_count=9, seed=0)

    def test_chance_of_holdout_selection_varies_with_seed(self):
        projects = _fake_projects(["a"], 8, 2)
        picks = {
            tuple(p.name for p in corpus.make_splits(projects, 2, 4, seed=s).holdout_projects)
            for s in range(10)
        }
        assert len(picks) > 1


def test_read_labels(tmp_path):
    path = tmp_path / "labels.jsonl"
    rows = [
        {"name": "alsa", "category": "sound", "description": "mixer lib"},
        {"name": "nethack", "category": "games"},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    labels, descriptions = corpus.read_labels(path)
    assert labels == {"alsa": "sound", "nethack": "games"}
    assert descriptions == {"alsa": "mixer lib"}

    bad = tmp_path / "bad.jsonl"
    bad.write_text(json.dumps({"name": "x"}) + "\n")
    with pytest.raises(ValueError):
        corpus.read_labels(bad)
    bad.write_text(json.dumps(rows[0]) + "\n5\n")
    want = r"bad\.jsonl: label record needs 'name' and 'category': 5$"
    with pytest.raises(ValueError, match=want):
        corpus.read_labels(bad)

    dup = tmp_path / "dup.jsonl"
    dup.write_text(
        json.dumps({"name": "x", "category": "a"}) + "\n"
        + json.dumps({"name": "x", "category": "b"}) + "\n"
    )
    with pytest.raises(ValueError, match="duplicate"):
        corpus.read_labels(dup)

    for rec, key, kind in [
        ({"name": "p1", "category": 3}, "category", "a non-empty string"),
        ({"name": "p1", "category": ""}, "category", "a non-empty string"),
        ({"name": 7, "category": "games"}, "name", "a non-empty string"),
        ({"name": "", "category": "games"}, "name", "a non-empty string"),
        ({"name": "p1", "category": "games", "description": 5}, "description", "a string"),
        ({"name": "p1", "category": "games", "description": None}, "description", "a string"),
    ]:
        typed = tmp_path / "typed.jsonl"
        typed.write_text(json.dumps(rows[0]) + "\n" + json.dumps(rec) + "\n")
        want = rf"typed\.jsonl: label record {re.escape(str(rec))}: '{key}' must be {kind}$"
        with pytest.raises(ValueError, match=want):
            corpus.read_labels(typed)


def test_token_dataset_round_trip_shares_one_string_per_token(tmp_path):
    records = [
        corpus.FunctionTokens(project="mixer", function=f"f{i}", category="audio",
                              tokens=["mixer", f"f{i}", "int", "gain"],
                              descr_tokens=["sound", "gain"])
        for i in range(3)
    ]
    path = tmp_path / "data.jsonl"
    corpus.write_token_dataset(path, iter(records), meta={"tool": "t"})
    got, meta = corpus.read_token_dataset(path)
    assert got == records and meta == {"tool": "t"}
    gains = [rec.tokens[3] for rec in got] + [rec.descr_tokens[1] for rec in got]
    assert all(gain is gains[0] for gain in gains)
    assert got[0].tokens[0] is got[2].tokens[0]


@pytest.mark.parametrize("field,value", [
    ("tokens", "abc"), ("tokens", {"a": 1}), ("tokens", ["a", 1]),
    ("descr_tokens", "mixer"), ("descr_tokens", [None]),
], ids=["tokens-str", "tokens-dict", "tokens-int-item", "descr-str", "descr-null-item"])
def test_token_dataset_rejects_non_list_token_fields(tmp_path, field, value):
    good = {"project": "p", "function": "f", "category": "c",
            "tokens": ["p", "f", "x"], "descr_tokens": ["mixer"]}
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
    with pytest.raises(ValueError, match=rf"data\.jsonl: .*'{field}' must be a list of strings"):
        corpus.read_token_dataset(path)
    path.write_text(json.dumps(good) + "\n")
    records, _ = corpus.read_token_dataset(path)
    assert records[0].tokens == ["p", "f", "x"] and records[0].descr_tokens == ["mixer"]


@pytest.mark.parametrize("bad", [7, None, ["x"], {"x": 1}, True, 1.5],
                         ids=["int", "null", "list", "dict", "bool", "float"])
def test_token_dataset_rejects_a_non_string_deep_in_a_long_list(tmp_path, bad):
    tokens = [f"t{i % 97}" for i in range(5000)]
    tokens[4321] = bad
    row = {"project": "p", "function": "f", "category": "c", "tokens": tokens}
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(row) + "\n")
    with pytest.raises(ValueError, match=r"data\.jsonl: dataset record field 'tokens' "
                                         r"must be a list of strings$"):
        corpus.read_token_dataset(path)


@pytest.mark.parametrize("field,value", [
    ("project", ["p"]), ("function", 7), ("category", None),
], ids=["project-list", "function-int", "category-null"])
def test_token_dataset_rejects_non_string_name_fields(tmp_path, field, value):
    good = {"project": "p", "function": "f", "category": "c", "tokens": ["p", "f"]}
    path = tmp_path / "data.jsonl"
    path.write_text(json.dumps(good) + "\n" + json.dumps({**good, field: value}) + "\n")
    with pytest.raises(ValueError, match=rf"data\.jsonl: .*'{field}' must be a string"):
        corpus.read_token_dataset(path)


def _names(source):
    return [f.function_name for f in corpus.extract_functions(source).functions]


def _dataset(path, projects_and_categories):
    """A token dataset with one record per (project, category) pair, in order."""
    records = [
        corpus.FunctionTokens(project=project, function=f"f{i}", category=category,
                              tokens=[project, f"f{i}"])
        for i, (project, category) in enumerate(projects_and_categories)
    ]
    corpus.write_token_dataset(path, records, meta={"tool": "t"})
    return records


class TestIterProjects:
    def test_groups_contiguous_records_in_file_order(self, tmp_path):
        path = tmp_path / "data.jsonl"
        records = _dataset(path, [("zed", "a"), ("zed", "a"), ("amp", "b"), ("mid", "a")])
        projects = list(corpus.iter_projects(path))
        assert [(p.name, p.category) for p in projects] == [
            ("zed", "a"), ("amp", "b"), ("mid", "a")]
        assert [p.functions for p in projects] == [records[:2], records[2:3], records[3:]]

    def test_yields_a_project_before_reading_past_its_next_record(self, tmp_path):
        # the line after the second project's first record is no JSON: the
        # first project is handed over before the reader gets there
        path = tmp_path / "data.jsonl"
        _dataset(path, [("one", "a"), ("one", "a"), ("two", "b")])
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("{not json\n")
        projects = corpus.iter_projects(path)
        assert next(projects).name == "one"
        with pytest.raises(ValueError, match="invalid JSON"):
            next(projects)

    def test_records_resuming_after_another_project_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        _dataset(path, [("alsa", "sound"), ("gzip", "util"), ("alsa", "sound")])
        with pytest.raises(ValueError, match=r"data\.jsonl: .*'alsa'.*not contiguous"):
            list(corpus.iter_projects(path))

    def test_two_categories_for_one_project_rejected(self, tmp_path):
        path = tmp_path / "data.jsonl"
        _dataset(path, [("alsa", "sound"), ("alsa", "util")])
        with pytest.raises(ValueError, match="'alsa' labeled both 'sound' and 'util'"):
            list(corpus.iter_projects(path))

    def test_empty_dataset_has_no_projects(self, tmp_path):
        path = tmp_path / "data.jsonl"
        _dataset(path, [])
        assert list(corpus.iter_projects(path)) == []


class TestDefinitionNames:
    def test_xmacro_rows_do_not_name_the_function(self):
        rows = "".join(f"MODULE_PARAM(x{i}, int)\n" for i in range(2000))
        result = corpus.extract_functions(rows + "int f(void){ return 0; }\n")
        assert [(f.function_name, f.body) for f in result.functions] == [
            ("f", "int f(void){ return 0; }")
        ]
        assert result.diagnostics == []

    def test_short_xmacro_table(self):
        fns = corpus.extract_functions("X(A, 1)\nX(B, 2)\nint f(void) { return 0; }").functions
        assert [(f.function_name, f.body) for f in fns] == [("f", "int f(void) { return 0; }")]

    def test_leading_attribute_is_not_a_name(self):
        src = "__attribute__((noreturn)) void die(void) { x(); }"
        fns = corpus.extract_functions(src).functions
        assert [(f.function_name, f.body) for f in fns] == [("die", src)]

    @pytest.mark.parametrize("src, name", [
        ("void f() noexcept(true) { }", "f"),
        ("void g() throw() { }", "g"),
        ("auto h(int a) -> decltype(a) { return a; }", "h"),
        # An attribute macro right after the parameter list keeps the name:
        # a function after X-macro rows has a return type before its name.
        ("static int foo(int a) MY_ATTR(x) { return a; }", "foo"),
        ("X(A)\nstatic int foo(int a) MY_ATTR(x) { return a; }", "foo"),
        ("int get() const LOCKS_EXCLUDED(mu) { return 1; }", "get"),
    ])
    def test_linkage_groups_keep_the_name(self, src, name):
        assert _names(src) == [name]

    def test_parameter_list_braces_must_balance(self):
        assert _names("void g(x }) { }\nint h(void) { return 1; }") == ["h"]
        assert _names("void f(S s = {}) { }") == ["f"]

    def test_knr_definitions_are_rejected(self):
        assert _names("int k(a, b) int a; int b; { return a; }") == []

    @pytest.mark.parametrize("src, names", [
        ("Foo::~Foo() { free(p); }", ["~Foo"]),
        ("class Foo {\npublic:\n  ~Foo() { }\n};", ["~Foo"]),
        ("Foo::Foo() : p(0) { }", ["Foo"]),
        ("~Foo();", []),
        ("Foo::~ Foo() { }", ["~Foo"]),
    ])
    def test_destructor_is_named_with_its_tilde(self, src, names):
        assert _names(src) == names

    @pytest.mark.parametrize("src, names", [
        ("bool operator==(const A& o) const { return true; }", ["operator=="]),
        ("A& A::operator=(const A& o) { return *this; }", ["operator="]),
        ("int operator()(int x) { return x; }", ["operator()"]),
        ("T& operator[](size_t i) { return v[i]; }", ["operator[]"]),
        ("void* operator new[](size_t n) { return malloc(n); }", ["operatornew[]"]),
        ("void operator delete(void* p) { free(p); }", ["operatordelete"]),
        ("explicit operator bool() const { return ok; }", ["operatorbool"]),
        ("operator const char*() const { return s; }", ["operatorconstchar*"]),
        ("bool operator /* eq */ ==\n(const A& o) const { return true; }", ["operator=="]),
        ("bool operator==(const A& o) const;\nint f(void) { return 0; }", ["f"]),
        ("A& operator=(const A&);", []),
        ("x = a.operator+(b);", []),
        # an `operator` in macro arguments names nothing
        ("DEFINE_OP(operator+=, plus)\nDEFINE_INC(operator++, inc) { return 0; }",
         ["DEFINE_INC"]),
        ("operator std::map<int, int>() const { return m; }", ["operatorstd::map<int,int>"]),
    ])
    def test_operator_definitions_are_named(self, src, names):
        assert _names(src) == names

    def test_operator_names_survive_the_embedding_text_file(self, tmp_path):
        # The name is one vocabulary token, so it is one column of a row and
        # does not collide with the body's own `operator` and `bool`.
        fns = corpus.extract_functions("explicit operator bool() const { return ok; }").functions
        vocab = tokens.build_vocabulary([tokens.build_representation(f) for f in fns])
        path = tmp_path / "vectors.txt"
        matrix = embedding.random_embedding(len(vocab), dims=3)
        embedding.save_embedding_text(path, matrix, vocab)
        assert embedding.vocab_from_embedding_text(path).tokens() == vocab.tokens()
        assert np.array_equal(embedding.load_embedding_text(path, vocab), matrix)

    def test_if_constexpr_is_no_definition(self):
        # a namespace's interior is a scope the forward loop walks into
        assert _names("namespace n { if constexpr (x) { y(); } }") == []

    @pytest.mark.parametrize("src, function", [
        ("X(a) operator bool() const { return 1; }",
         ("operatorbool", "operator bool() const { return 1; }")),
        ("X(a) int operator()(int x) const { return x; }",
         ("operator()", "int operator()(int x) const { return x; }")),
    ])
    def test_operators_after_xmacro_rows_are_named(self, src, function):
        fns = corpus.extract_functions(src).functions
        assert [(f.function_name, f.body) for f in fns] == [function]

    def test_operator_body_starts_at_its_declaration(self):
        src = "struct A {\n  bool operator<(const A& o) const { return k < o.k; }\n};"
        fns = corpus.extract_functions(src).functions
        assert [(f.function_name, f.body) for f in fns] == [
            ("operator<", "bool operator<(const A& o) const { return k < o.k; }")
        ]


def test_digit_separators_stay_in_the_number():
    result = corpus.extract_functions(
        "int f(void) { long n = 1'000; }\nint g(void) { return 2; }\n"
    )
    assert [f.function_name for f in result.functions] == ["f", "g"]
    assert result.diagnostics == []


def test_extraction_is_linear_on_call_runs():
    import time

    start = time.perf_counter()
    result = corpus.extract_functions("a(b) " * 8000)
    assert time.perf_counter() - start < 2.0
    assert result.functions == []


def _timed_names(source):
    import time

    start = time.perf_counter()
    result = corpus.extract_functions(source)
    assert time.perf_counter() - start < 2.0
    return [f.function_name for f in result.functions]


def test_extraction_is_linear_in_nested_scopes():
    # one scope per namespace, far past the interpreter's recursion limit
    source = "namespace a { " * 50000 + "int f(void) { return 0; }" + " }" * 50000
    assert _timed_names(source) == ["f"]


def test_extraction_is_linear_on_unclosed_braces():
    assert _timed_names("{ " * 100000) == []


def test_extraction_is_linear_after_a_long_xmacro_table():
    # the loop resumes after the rows once, so each row is walked a bounded
    # number of times
    rows = "".join(f"X(x{i}, {i})\n" for i in range(50000))
    assert _timed_names(rows + "int f(void){ return 0; }") == ["f"]


def test_extraction_is_linear_on_one_line_bodies():
    source = "".join(f"int f{i}(void) {{ return {i}; }}\n" for i in range(20000))
    assert _timed_names(source) == [f"f{i}" for i in range(20000)]


FUZZ_ALPHABET = (
    ["a", "b", "f", "g", "X", "int", "void", "const", "if", "while", "return",
     "noexcept", "throw"]
    + ["(", ")", "{", "}", ";", ":", "::", "*", ",", "=", "<", ">", "&", ".", "-"] * 2
    + ['"s{"', "'}'", "42", "1'000", "/* { */", "// }\n", "\n#define X(y) {\n", "\n"]
    + ["operator", "~", "M(operator+, x)"]
    # where a brace pre-pass could part from the lexer: char literals after a
    # word that ends in a digit, a digit separator in a hex number, a comment
    # spanning the line start before a '#', and a backslash-newline
    + ["u8'}'", "L'{'", "x1'}'", "0x1'f", "/* {\n */ #define Y {\n", "\\\n"]
)


def test_seeded_fuzz_never_crashes_and_bodies_are_sound():
    import re

    rng = np.random.default_rng(10)
    for _ in range(3000):
        picks = rng.integers(len(FUZZ_ALPHABET), size=int(rng.integers(0, 60)))
        source = " ".join(FUZZ_ALPHABET[i] for i in picks)
        cursor = 0
        for fn in corpus.extract_functions(source).functions:
            assert brace_balance(fn.body) == 0, source
            at = source.find(fn.body, cursor)
            assert at >= 0, source  # in source order, not overlapping
            cursor = at + len(fn.body)
            assert spells(fn.body, fn.function_name), source
            assert not re.search(r"\s", fn.function_name), source
            assert ")" not in fn.function_name or fn.function_name == "operator()", source


# The reference does not name `operator` definitions.
DIFFERENTIAL_ALPHABET = [t for t in FUZZ_ALPHABET if "operator" not in t]


def test_two_level_scan_matches_the_one_level_reference():
    rng = np.random.default_rng(10)
    compared = 0
    for _ in range(5000):
        picks = rng.integers(len(DIFFERENTIAL_ALPHABET), size=int(rng.integers(0, 60)))
        source = " ".join(DIFFERENTIAL_ALPHABET[i] for i in picks)
        if brackets_cross(source):
            continue
        result = corpus.extract_functions(source)
        got = ([(f.function_name, f.body) for f in result.functions], result.diagnostics)
        assert got == reference_extract(source), source
        compared += 1
    assert compared > 4000


def test_crossing_brackets_pair_parentheses_within_their_scope():
    # One scan of the whole file pairs the outer '(' with the last ')', at
    # its brace depth, and takes `f`.  Here the ')' inside the brace group
    # lies in another scope, the inner '(' takes the last ')', and the outer
    # '(' has no partner.
    source = "void f ( ( { ) } ) { }"
    assert brackets_cross(source)
    assert reference_extract(source) == ([("f", source)], [])
    assert _names(source) == []
