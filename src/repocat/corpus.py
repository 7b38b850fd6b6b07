"""Labeled project corpus: C/C++ function extraction, loading, splitting.

Extraction is a lexical heuristic, not a parser.  `_lex` turns a file into
events, skipping comments, whitespace and preprocessor lines and collapsing
string/char literals; a `'` inside a number is a C++14 digit separator
(`1'000`), not a char literal.  One right-to-left pass over the events then
builds two tables: `partner`, the matching ')' or '}' of every '(' and '{',
and `reach`, where a linkage starting at each event ends.  A linkage is what
may sit between a parameter list and its body: words, numbers, literals, the
symbols of `_LINKAGE` and balanced (...) groups of these.

A definition is `word (params) linkage { body }` where the word is not a
control keyword or linkage word, the braces in the params balance, and the
linkage reaches a '{'.  The end of the params, the linkage check and the end
of the body are each one table lookup, so extraction runs in linear time.
One forward loop takes the definitions in order.  It walks through the
braces of non-function scopes (namespaces, extern "C", class bodies), so
functions inside them are found, and jumps over each body, so local blocks
never spawn candidates.  A body runs from the start of its declaration
through the closing brace.

Naming: the word before the '(' names the function, and a '~' right before
that word joins the name (`Foo::~Foo() {...}` is `~Foo`).  A `word(...)`
group later in the linkage, before any single ':' (a ctor initializer list),
names the function instead when a return type separates it from the
previous group's ')'.  The groups before it were X-macro rows
(`X(a, 1) X(b, 2) int f(void) {...}` is `f`), and the body starts after
them.  A group right after a ')', or after qualifiers such as `const`, is an
attribute macro and does not rename (`int foo(int a) MY_ATTR(x) {...}` is
`foo`).

K&R definitions (`int k(a, b) int a; { ... }`) are not extracted: the ';'
ends the linkage.

Splits are project-disjoint: whole projects are held out per category, and
the training side is balanced by undersampling functions per category.
"""

import logging
import os
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
    "sizeof", "catch", "defined",
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


def _lex(source):
    """Yield (kind, start, end) events over source.

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
            # Preprocessor directive: consume to end of line, honoring
            # backslash-newline continuations.
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
                    # Literals do not span raw newlines; resync here.
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
                i += 1  # a ' between digits is a C++14 digit separator
            yield ("num", start, i)
            continue
        yield (ch, i, i + 1)
        i += 1


def extract_functions(source, project=""):
    """Extract function definitions from one translation unit.

    Returns ExtractionResult(functions, diagnostics).  A file ending with
    unbalanced braces yields the functions found so far plus a diagnostic;
    the trailing partial function is dropped.  Raises ValueError on binary
    input (NUL bytes).
    """
    if "\0" in source:
        raise ValueError("binary input: source contains NUL bytes")
    events = list(_lex(source))
    total = len(events)
    events.append(("eof", len(source), len(source)))
    partner, reach = _bracket_tables(events)
    functions = []
    diagnostics = []
    decl_start = None  # source offset where the current declaration began
    last_word = None  # identifier immediately preceding the cursor, if any
    k = 0
    while k < total:
        kind, start, end = events[k]
        if decl_start is None:
            decl_start = start
        if kind == "word":
            last_word = source[start:end]
        elif kind == "(" and last_word and last_word not in _NOT_FUNCTION_NAMES:
            close = partner[k]
            brace = reach[close + 1] if close >= 0 else total
            if events[brace][0] == "{":
                name = "~" + last_word if events[k - 2][0] == "~" else last_word
                name, decl_start = _definition_name(
                    source, events, partner, close, brace, name, decl_start)
                if partner[brace] < 0:
                    diagnostics.append(
                        f"unbalanced braces at end of file: dropped partial function '{name}'"
                    )
                    break
                k = partner[brace]
                body = source[decl_start : events[k][2]]
                functions.append(FunctionRecord(project, name, body))
                decl_start = None
            last_word = None
        elif kind == ":" and events[k + 1][0] == ":":
            k += 1  # '::' scope operator: neither a label nor an access specifier
        elif kind in (";", "{", "}", ":"):
            decl_start = None  # statement/scope boundary
            last_word = None
        else:
            last_word = None
        k += 1
    return ExtractionResult(functions, diagnostics)


def _bracket_tables(events):
    """(partner, reach) for events, which end with an 'eof' sentinel.

    partner[i] is the index of the ')' or '}' matching the '(' or '{' at i,
    or -1; parentheses and braces pair independently of each other, and a
    '(' whose group holds unbalanced braces gets -1, as no parameter list
    does.  reach[i] is where a linkage starting at i ends: on the '{' it
    opens, or on the first event that cannot sit in a linkage.
    """
    partner = [-1] * len(events)
    reach = list(range(len(events)))
    parens, braces = [], []
    depth = 0  # '}' minus '{' events after i
    for i in range(len(events) - 2, -1, -1):
        kind = events[i][0]
        if kind in _LINKAGE:
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
                if reach[i + 1] == close:  # a group of linkage events
                    reach[i] = reach[close + 1]
    return partner, reach


def _definition_name(source, events, partner, close, brace, name, decl_start):
    """(name, body start) of a definition whose parameter list ends at event
    close and whose body opens at event brace.

    A later `word(...)` group in the linkage, before any single ':', names
    the function instead when a return type (an event other than a
    _QUALIFIERS word) separates its word from the previous group's ')': the
    groups before it were X-macro rows, and the body starts after them.
    Otherwise the group is an attribute macro.
    """
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
                name, decl_start = word, events[prev + 1][1]
            prev = k = partner[k]
        k += 1
    return name, decl_start


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
    """row[field] (default []) after checking it is a list of strings."""
    value = row.get(field, [])
    if not isinstance(value, list) or not set(map(type, value)) <= {str}:
        raise ValueError(f"{path}: dataset record field {field!r} must be a list of strings")
    return value


def read_token_dataset(path):
    """Returns (list of FunctionTokens, meta)."""
    rows, meta = fileio.read_jsonl(path)
    records = []
    for row in rows:
        missing = {"project", "function", "category", "tokens"} - set(row)
        if missing:
            raise ValueError(f"{path}: dataset record missing fields {sorted(missing)}")
        for field in ("project", "function", "category"):
            if not isinstance(row[field], str):
                raise ValueError(f"{path}: dataset record field {field!r} must be a string")
        records.append(
            FunctionTokens(
                project=row["project"],
                function=row["function"],
                category=row["category"],
                tokens=_token_list(path, row, "tokens"),
                descr_tokens=_token_list(path, row, "descr_tokens"),
            )
        )
    return records, meta


def group_by_project(records):
    """Group FunctionTokens into Projects (sorted by name, file order kept).

    Raises ValueError if one project carries two categories.
    """
    by_name = {}
    order_kept = []
    for rec in records:
        if rec.project not in by_name:
            by_name[rec.project] = Project(name=rec.project, category=rec.category)
            order_kept.append(rec.project)
        proj = by_name[rec.project]
        if proj.category != rec.category:
            raise ValueError(
                f"project {rec.project!r} labeled both "
                f"{proj.category!r} and {rec.category!r}"
            )
        proj.functions.append(rec)
    return [by_name[name] for name in sorted(by_name)]


def read_labels(path):
    """Read project metadata JSONL: {"name", "category", "description"?}.

    Returns (labels, descriptions) dicts keyed by project name.
    """
    records, _ = fileio.read_jsonl(path)
    labels = {}
    descriptions = {}
    for rec in records:
        if "name" not in rec or "category" not in rec:
            raise ValueError(f"{path}: label record needs 'name' and 'category': {rec}")
        name = rec["name"]
        if name in labels:
            raise ValueError(f"{path}: duplicate project name: {name!r}")
        labels[name] = rec["category"]
        if rec.get("description"):
            descriptions[name] = rec["description"]
    return labels, descriptions
