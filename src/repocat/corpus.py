"""Labeled project corpus: C/C++ function extraction, loading, splitting.

Extraction is a lexical heuristic, not a parser, and reads a file on two
levels.  A pre-pass (`_brace_partners`) is one regex scan of the whole file
that matches only comments, literals, preprocessor lines and braces, and
gives every '{' the offset of its partner '}', or -1.  The lexer (`_lex`)
then turns one scope, the text of a file or of a brace group, into events.
It skips comments, whitespace and preprocessor lines, collapses each
string/char literal to one event, and yields every brace group inside the
scope as its '{' and '}' without lexing what lies between them; an unclosed
'{' is its scope's last event.  Both levels apply the same lexical rules: a
'#' starts a directive only when nothing but whitespace and comments has
come since the line start, and a backslash-newline continues a directive; a
literal stops at a raw newline, and a backslash escapes the next character,
a newline included; words are runs of word characters that do not start
with a decimal digit, numbers start with one, and a ' followed by a word
character continues a number (the C++14 digit separator `1'000`), so
`u8'}'` and `x1'}'` are char literals.

Per scope, one right-to-left pass over the events builds two tables:
`partner`, the matching ')' of every '(', and `reach`, where a linkage
starting at each event ends.  A linkage is what may sit between a
parameter list and its body: words, numbers, literals, the symbols of
`_LINKAGE` and balanced (...) groups of these.  Parentheses pair only within
one scope, so a ')' inside a brace group never closes a '(' outside it.
Where brackets do not cross, this pairs them as one scan of the whole file
would; where they cross, it can differ (`void f ( ( { ) } ) { }` gives no
function).  Braces need no table: a closed '{' event is followed by its '}'.

A definition is `word (params) linkage { body }` where the word is not a
control keyword or linkage word, the braces in the params balance, and the
linkage reaches a '{'.  The end of the params and the linkage check are
each one table lookup.  One forward loop takes the definitions in order and
jumps over each body, so local blocks are never lexed and never spawn
candidates.  A '{' that the loop walks into instead (a namespace, extern
"C", a class body, an initializer) has its interior lexed as a scope of its
own, so functions inside it are found.  Scopes wait on an explicit stack,
not in recursion, and no text is lexed twice, so extraction runs in linear
time.  A body runs from the start of its declaration through the '}'.

Naming is the forward loop's alone: the word before the '(' names the
function, and a '~' right before that word joins the name
(`Foo::~Foo() {...}` is `~Foo`).  The word `operator` names it together
with what follows up to the '(': operator symbols, `()`, `[]`,
`new`/`delete` or a conversion type, their text joined without whitespace
or comments so that every name is one token (`bool operator==(...) {...}`
is `operator==`, `operator bool() {...}` is `operatorbool`); an `operator`
that a ')' follows first, as in macro arguments, names nothing.  A
`word(...)` group later in the linkage, before any single ':' (a ctor
initializer list), is the definition instead when a return type separates
its word from the previous group's ')'.  The groups before it were X-macro
rows (`X(a, 1) X(b, 2) int f(void) {...}` is `f`); the loop resumes after
them.  A group right after a ')', or after qualifiers such as `const`, is
an attribute macro (`int foo(int a) MY_ATTR(x) {...}` is `foo`).

K&R definitions (`int k(a, b) int a; { ... }`) are not extracted: the ';'
ends the linkage.

Splits are project-disjoint: whole projects are held out per category, and
the training side is balanced by undersampling functions per category.
"""

import contextlib
import logging
import os
import re
import sys
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import fileio
from . import tokens as T

logger = logging.getLogger(__name__)

SOURCE_EXTENSIONS = {".c", ".h", ".cc", ".cpp", ".cxx", ".hh", ".hpp", ".hxx"}

# Words that look like `name (...)` but never name a function definition:
# control keywords, then linkage words that may follow a parameter list.
_NOT_FUNCTION_NAMES = {
    "if", "for", "while", "switch", "return", "do", "else",
    "sizeof", "catch", "defined", "constexpr",
    "throw", "noexcept", "decltype", "alignas", "__attribute__", "__declspec",
}

# Words that may follow a parameter list; before a `word(...)` group they
# are no return type (`int get() const LOCKS_EXCLUDED(mu) {` is `get`).
_QUALIFIERS = {"const", "volatile", "noexcept", "override", "final"}

# Event kinds that may sit between a parameter list and its body, besides
# balanced (...) groups of them: words (const, ctor initializer lists),
# numbers, literals, and the symbols of pointer/reference returns, scopes,
# templates and trailing return types.
_LINKAGE = {"word", "num", "str", "*", "&", ":", ",", "<", ">", "-", "."}

# Events that end the name after the word `operator`.
_OPERATOR_STOPS = {"(", ")", ";", "{", "}", "eof"}


@dataclass
class FunctionRecord:
    """One extracted function definition (body includes the signature)."""

    project_name: str
    function_name: str
    body: str


@dataclass
class Project:
    """A named, labeled project and its extracted functions."""

    name: str
    category: str
    functions: list = field(default_factory=list)
    description: str = ""


@dataclass
class DatasetSplit:
    """Project-disjoint split: balanced train functions + held-out projects."""

    train: list  # (function, category) pairs, per_category_count per category
    holdout_projects: list  # Project objects


@dataclass
class ExtractionResult:
    functions: list
    diagnostics: list


@dataclass
class FunctionTokens:
    """Tokenized function: the co representation plus description tokens.

    tokens is [project name, function name] + body tokens (all lowercased);
    descr_tokens is the tokenized project description, empty when absent.
    The cd representation is tokens + ["descrdelim"] + descr_tokens.
    """

    project: str
    function: str
    category: str
    tokens: list
    descr_tokens: list = field(default_factory=list)


# Lexical fragments shared by the brace pre-pass and the scope lexer, so the
# two agree on where every comment, literal and directive starts and ends.
_BLOCK_COMMENT = r"/\*[^*]*(?:\*+[^*/][^*]*)*(?:\*+/|\**\Z)"  # unclosed: to the end
_LINE_COMMENT = r"//[^\n]*"
# What may come between a line start and a directive's '#': comments do not
# count as text.
_DIRECTIVE_AHEAD = rf"(?:[ \t\r\f\v]|{_BLOCK_COMMENT})*#"
# A directive runs to the end of its line; a backslash-newline continues it.
_DIRECTIVE = rf"(?:\A|\n){_DIRECTIVE_AHEAD}[^\\\n]*(?:\\\n?[^\\\n]*)*"
# A literal ends at its closing quote, before a raw newline, or at the end; a
# backslash escapes the next character, a newline included.
_LITERAL = (r'"[^"\\\n]*(?:\\[\s\S]?[^"\\\n]*)*"?'
            r"|'[^'\\\n]*(?:\\[\s\S]?[^'\\\n]*)*'?")
# A ' followed by a word character continues a number (C++14 `1'000`).
_NUMBER = r"\d[\w.]*(?:'(?=\w)[\w.]*)*"
# A newline that no directive follows.  The first test is a quick filter; the
# second matches each comment atomically, so a failed test costs no
# backtracking through the comment.
_NEWLINE = (rf"\n(?![ \t\r\f\v]*[#/])"
            rf"|\n(?!(?:[ \t\r\f\v]|(?=(?P<comment>{_BLOCK_COMMENT}))(?P=comment))*#)")


def _tokens(gap, tokens):
    """A pattern whose matches tile a text: each passes over a gap, text
    that starts no token, then matches a directive, one of tokens, or the
    end.

    The gap is one repeat of the alternatives gap, matched atomically: the
    (?=(...))\\1 idiom never backtracks into it, so a tail without a token
    costs linear time.  A gap ends before a newline that a directive follows,
    and is empty at the start of a text that a directive opens.
    """
    return re.compile(
        rf"(?:\A(?={_DIRECTIVE_AHEAD})|(?=((?:{gap})*))\1)(?:{_DIRECTIVE}|{tokens}|\Z)"
    )


# Pre-pass: every brace of a file, past the comments, literals and directives
# that may hide one.  Its gaps hold words and numbers whole, so a ' after a
# digit is a separator exactly where _lex finds one: a digit after a word
# character continues a word or number, any other starts a number.
_BRACES = _tokens(
    rf"""[^'"/{{}}\n\d]+|{_NEWLINE}|(?<=\w)\w+|{_NUMBER}|/(?![/*])""",
    rf"(?P<open>\{{)|(?P<close>\}})|{_LITERAL}|{_LINE_COMMENT}|{_BLOCK_COMMENT}",
)

# The events of a scope; its gaps are whitespace and comments.
_EVENTS = _tokens(
    rf"[ \t\r\f\v]+|{_NEWLINE}|{_LINE_COMMENT}|{_BLOCK_COMMENT}",
    rf"(?P<word>[^\W\d]\w*)|(?P<num>{_NUMBER})|(?P<str>{_LITERAL})|(?P<brace>\{{)|(?P<sym>.)",
)


def _brace_partners(source):
    """The pre-pass: {offset of every '{' in source: offset of the '}' that
    closes it, or -1}."""
    closes = {}
    opened = []
    for m in _BRACES.finditer(source):
        kind = m.lastgroup
        if kind == "open":
            closes[m.end() - 1] = -1
            opened.append(m.end() - 1)
        elif kind == "close" and opened:
            closes[opened.pop()] = m.end() - 1
    return closes


def _lex(source, closes, pos, stop):
    """Yield (kind, start, end) events of the scope source[pos:stop].

    kind is 'word', 'num', 'str', or the symbol character itself.  Comments,
    preprocessor lines (with backslash continuation), and whitespace are
    skipped; string/char literals collapse to a single 'str' event.  A brace
    group is its '{' and '}' events, with nothing lexed between them (closes
    is _brace_partners(source)); an unclosed '{' is the scope's last event.
    """
    match = _EVENTS.match
    while pos < stop:
        m = match(source, pos, stop)
        pos = m.end()
        kind = m.lastgroup
        if kind == "sym":
            yield (source[pos - 1], pos - 1, pos)
        elif kind == "brace":
            yield ("{", pos - 1, pos)
            close = closes[pos - 1]
            if close < 0:
                return
            yield ("}", close, close + 1)
            pos = close + 1
        elif kind in ("word", "num", "str"):
            yield (kind, m.start(kind), pos)


def _scope(source, closes, start, stop):
    """(events, partner, reach) of the scope source[start:stop]; the events
    end with an 'eof' sentinel."""
    events = list(_lex(source, closes, start, stop))
    events.append(("eof", stop, stop))
    partner, reach = _bracket_tables(events)
    return events, partner, reach


def extract_functions(source, project=""):
    """Extract function definitions from one translation unit.

    Returns ExtractionResult(functions, diagnostics).  A file ending with
    unbalanced braces yields the functions found so far plus a diagnostic;
    the trailing partial function is dropped.  Raises ValueError on binary
    input (NUL bytes).
    """
    if "\0" in source:
        raise ValueError("binary input: source contains NUL bytes")
    closes = _brace_partners(source)
    events, partner, reach = _scope(source, closes, 0, len(source))
    outer = []  # (events, partner, reach, resume index) of the enclosing scopes
    functions = []
    diagnostics = []
    decl_start = None  # source offset where the current declaration began
    name = None  # name of a definition whose '(' would come next, if any
    k = 0
    while True:
        kind, start, end = events[k]
        if kind == "eof":
            if not outer:
                break
            events, partner, reach, k = outer.pop()
            continue
        if decl_start is None:
            decl_start = start
        if kind == "word":
            name = source[start:end]
            if name in _NOT_FUNCTION_NAMES:
                name = None
            elif name == "operator":
                first, k = k, _operator_end(events, k)
                name = None
                if events[k + 1][0] == "(":
                    name = _operator_name(source, events[first : k + 1])
            elif events[k - 1][0] == "~":
                name = "~" + name
        elif kind == "(" and name:
            close = partner[k]
            brace = reach[close + 1] if close >= 0 else len(events) - 1
            if events[brace][0] == "{":
                rows_end = _xmacro_rows_end(source, events, partner, close, brace)
                if rows_end is not None:
                    decl_start = name = None
                    k = rows_end  # name the definition after the X-macro rows
                    continue
                if events[brace + 1][0] != "}":
                    diagnostics.append(
                        f"unbalanced braces at end of file: dropped partial function '{name}'"
                    )
                    break
                k = brace + 1
                body = source[decl_start : events[k][2]]
                functions.append(FunctionRecord(project, name, body))
                decl_start = None
            name = None
        elif kind == ":" and events[k + 1][0] == ":":
            k += 1  # '::' scope operator: neither a label nor an access specifier
        elif kind == "{":
            # Not a body (namespace, extern "C", class, initializer): lex the
            # interior as a scope of its own, then resume at the '}'.  A group
            # that only its '}' and the sentinel follow leaves nothing to
            # resume, so nested namespaces hold no frames.
            if k + 3 < len(events):
                outer.append((events, partner, reach, k + 1))
            stop = closes[start]
            events, partner, reach = _scope(
                source, closes, end, len(source) if stop < 0 else stop)
            decl_start = name = None
            k = 0
            continue
        elif kind in (";", "}", ":"):
            decl_start = None  # statement/scope boundary
            name = None
        else:
            name = None
        k += 1
    return ExtractionResult(functions, diagnostics)


def _operator_end(events, k):
    """Index of the last event of the operator name that the word `operator`
    at event k starts: `()`, or else every event up to the next '(' (operator
    symbols, `[]`, `new`/`delete`, a conversion type).  Without a '(' before
    the next ';' or brace, the events up to it name nothing and are passed.
    """
    if events[k + 1][0] == "(" and events[k + 2][0] == ")":
        return k + 2
    j = k + 1
    while events[j][0] not in _OPERATOR_STOPS:
        j += 1
    return j - 1


def _operator_name(source, events):
    """The name that the operator events spell: their text joined without
    whitespace or comments, so it is one vocabulary token (`operator new []`
    is `operatornew[]`).  Whitespace inside a literal or a Unicode space
    lexed as a symbol is dropped too."""
    return "".join("".join(source[s:e] for _, s, e in events).split())


def _bracket_tables(events):
    """(partner, reach) for events, which end with an 'eof' sentinel.

    partner[i] is the index of the ')' matching the '(' at i, or -1, as for
    a '(' whose group holds a stray '}' (no parameter list does).  reach[i]
    is where a linkage starting at i ends: on the '{' it opens, or on the
    first event that cannot sit in a linkage.
    """
    partner = [-1] * len(events)
    reach = list(range(len(events)))
    parens = []
    depth = 0  # '}' minus '{' events after i
    for i in range(len(events) - 2, -1, -1):
        kind = events[i][0]
        if kind in _LINKAGE:
            reach[i] = reach[i + 1]
        elif kind == ")":
            parens.append((i, depth))
        elif kind == "}":
            depth += 1
        elif kind == "{":
            depth -= 1
        elif kind == "(" and parens:
            close, close_depth = parens.pop()
            if close_depth == depth:
                partner[i] = close
                if reach[i + 1] == close:  # a group of linkage events
                    reach[i] = reach[close + 1]
    return partner, reach


def _xmacro_rows_end(source, events, partner, close, brace):
    """Index of the event where the declaration after X-macro rows starts,
    or None when the definition whose parameter list ends at event close,
    and whose body opens at event brace, follows no rows.

    A later `word(...)` group in the linkage, before any single ':', is the
    definition when a return type (an event other than a _QUALIFIERS word)
    separates its word from the previous group's ')': the groups before it
    were X-macro rows.  Otherwise the group is an attribute macro.
    """
    rows_end = None
    prev = close
    k = close + 1
    while k < brace:
        kind = events[k][0]
        if kind == ":":
            if events[k + 1][0] != ":":
                break  # ctor initializer list: its groups name members
            k += 1
        elif kind == "(":
            word_kind, word_start, word_end = events[k - 1]
            word = source[word_start:word_end]
            typed = any(source[s:e] not in _QUALIFIERS for _, s, e in events[prev + 1 : k - 1])
            if word_kind == "word" and typed and word not in _NOT_FUNCTION_NAMES:
                rows_end = prev + 1
            prev = k = partner[k]
        k += 1
    return rows_end


def extract_file(path, project=""):
    """Extract from one file path; returns ExtractionResult.

    Unreadable or binary files yield no functions and one diagnostic,
    mirroring the skip-and-warn loader behavior.
    """
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        return ExtractionResult([], [f"{path}: unreadable, skipped ({exc})"])
    if b"\0" in raw:
        return ExtractionResult([], [f"{path}: binary content, skipped"])
    source = raw.decode("utf-8", errors="replace")
    result = extract_functions(source, project=project)
    result.diagnostics = [f"{path}: {d}" for d in result.diagnostics]
    return result


def iter_source_files(root):
    """All C/C++ source files under root, sorted for determinism."""
    found = []
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for fname in sorted(filenames):
            if os.path.splitext(fname)[1].lower() in SOURCE_EXTENSIONS:
                found.append(os.path.join(dirpath, fname))
    return found


def load_repository(root, labels, descriptions=None):
    """Build Projects from a directory tree of project subdirectories.

    labels: {project name: category}; descriptions: {project name: text}.
    Each project's functions come from its source files in sorted path order.
    Missing project directories and unreadable/binary files are skipped with
    a warning.  Projects with zero extracted functions are dropped.
    """
    descriptions = descriptions or {}
    projects = []
    for name in sorted(labels):
        pdir = os.path.join(os.fspath(root), name)
        if not os.path.isdir(pdir):
            logger.warning("project directory missing, skipped: %s", pdir)
            continue
        functions = []
        for path in iter_source_files(pdir):
            result = extract_file(path, project=name)
            functions.extend(result.functions)
            for diag in result.diagnostics:
                logger.warning("%s", diag)
        if not functions:
            logger.warning("no functions extracted, project dropped: %s", name)
            continue
        projects.append(
            Project(
                name=name,
                category=labels[name],
                functions=functions,
                description=descriptions.get(name, ""),
            )
        )
    return projects


def make_splits(projects, holdout_per_category, per_category_count, seed):
    """Hold out whole projects per category; balance train by undersampling.

    Within each category (processed in sorted order) `holdout_per_category`
    projects are chosen for the holdout, then `per_category_count` functions
    are sampled without replacement, uniformly, from the remaining projects'
    pooled functions.  Raises ValueError naming the deficient category.
    """
    if holdout_per_category < 1:
        raise ValueError("holdout_per_category must be >= 1")
    if per_category_count < 1:
        raise ValueError("per_category_count must be >= 1")
    by_category = defaultdict(list)
    for proj in projects:
        by_category[proj.category].append(proj)
    rng = np.random.default_rng(seed)
    train = []
    holdout = []
    for category in sorted(by_category):
        group = sorted(by_category[category], key=lambda p: p.name)
        if len(group) <= holdout_per_category:
            raise ValueError(
                f"category '{category}' has {len(group)} projects; "
                f"need more than {holdout_per_category} to hold any out"
            )
        order = rng.permutation(len(group))
        chosen = set(int(i) for i in order[:holdout_per_category])
        holdout.extend(group[i] for i in sorted(chosen))
        pool = [
            func
            for i, proj in enumerate(group)
            if i not in chosen
            for func in proj.functions
        ]
        if len(pool) < per_category_count:
            raise ValueError(
                f"category '{category}' has {len(pool)} training functions; "
                f"need at least {per_category_count}"
            )
        picked = rng.choice(len(pool), size=per_category_count, replace=False)
        train.extend((pool[int(i)], category) for i in np.sort(picked))
    return DatasetSplit(train=train, holdout_projects=holdout)


def project_token_records(project):
    """Tokenize one loaded Project into FunctionTokens records."""
    descr_tokens = T.tokenize(project.description) if project.description else []
    return [
        FunctionTokens(
            project=project.name,
            function=fn.function_name,
            category=project.category,
            tokens=T.build_representation(fn),
            descr_tokens=descr_tokens,
        )
        for fn in project.functions
    ]


def write_token_dataset(path, records, meta=None):
    """Token dataset JSONL: project, function, category, tokens, descr_tokens."""
    rows = (
        {
            "project": rec.project,
            "function": rec.function,
            "category": rec.category,
            "tokens": list(rec.tokens),
            "descr_tokens": list(rec.descr_tokens),
        }
        for rec in records
    )
    fileio.write_jsonl(path, rows, meta=meta)


def _token_list(path, row, field):
    """row[field] (default []) after checking it is a list of strings, each
    string swapped for its interned equal; `sys.intern` takes strings only,
    so it checks the items as it goes."""
    value = row.get(field, [])
    if isinstance(value, list):
        try:
            return list(map(sys.intern, value))
        except TypeError:
            pass
    raise ValueError(f"{path}: dataset record field {field!r} must be a list of strings")


def iter_token_dataset(path):
    """Parse a token dataset one line at a time.  Yields its meta first
    (None when absent), then each record as a FunctionTokens.

    Equal tokens of all records share one `str`: a holdout repeats a few
    thousand distinct tokens hundreds of thousands of times.  The file is
    closed when the iterator is exhausted or closed, or a record is bad."""
    with contextlib.closing(fileio.iter_jsonl(path)) as rows:
        yield next(rows)
        for row in rows:
            missing = {"project", "function", "category", "tokens"} - set(row)
            if missing:
                raise ValueError(f"{path}: dataset record missing fields {sorted(missing)}")
            for field in ("project", "function", "category"):
                if not isinstance(row[field], str):
                    raise ValueError(f"{path}: dataset record field {field!r} must be a string")
            yield FunctionTokens(
                project=row["project"],
                function=row["function"],
                category=row["category"],
                tokens=_token_list(path, row, "tokens"),
                descr_tokens=_token_list(path, row, "descr_tokens"),
            )


def read_token_dataset(path):
    """Returns (list of FunctionTokens, meta)."""
    records = iter_token_dataset(path)
    meta = next(records)
    return list(records), meta


def iter_projects(path):
    """Yield the Projects of a token dataset in file order, each as soon as
    its last record has been read, so only one project's records are held
    at a time.

    A project's records must be contiguous, as `extract` and `dataset split`
    write them: a project whose records reappear after another project's
    raises ValueError, as does one project carrying two categories."""
    records = iter_token_dataset(path)
    next(records)  # the meta
    seen = set()
    project = None
    for rec in records:
        if project is not None and rec.project == project.name:
            if rec.category != project.category:
                raise ValueError(
                    f"project {rec.project!r} labeled both "
                    f"{project.category!r} and {rec.category!r}"
                )
            project.functions.append(rec)
            continue
        if project is not None:
            yield project
        if rec.project in seen:
            raise ValueError(
                f"{path}: the records of project {rec.project!r} are not "
                "contiguous: they resume after another project's"
            )
        seen.add(rec.project)
        project = Project(name=rec.project, category=rec.category, functions=[rec])
    if project is not None:
        yield project


def read_labels(path):
    """Read project metadata JSONL: {"name", "category", "description"?},
    the name and category non-empty strings and the description a string.

    Returns (labels, descriptions) dicts keyed by project name.
    """
    records, _ = fileio.read_jsonl(path)
    labels = {}
    descriptions = {}
    for rec in records:
        if not isinstance(rec, dict) or "name" not in rec or "category" not in rec:
            raise ValueError(f"{path}: label record needs 'name' and 'category': {rec}")
        for key in ("name", "category"):
            if not isinstance(rec[key], str) or not rec[key]:
                raise ValueError(
                    f"{path}: label record {rec}: {key!r} must be a non-empty string")
        if not isinstance(rec.get("description", ""), str):
            raise ValueError(f"{path}: label record {rec}: 'description' must be a string")
        name = rec["name"]
        if name in labels:
            raise ValueError(f"{path}: duplicate project name: {name!r}")
        labels[name] = rec["category"]
        if rec.get("description"):
            descriptions[name] = rec["description"]
    return labels, descriptions
