"""Labeled project corpus: C/C++ function extraction, loading, splitting.

Extraction is a lexical heuristic, not a parser: scan the source skipping
comments, string/char literals and preprocessor lines, and take every
`identifier (params...) { ... }` occurrence whose braces balance as one
function definition, where the identifier is not a control keyword.  Braces
of non-function scopes (namespaces, extern "C", class bodies) are treated as
transparent, so functions defined inside them are still found; function
bodies themselves are consumed whole, so nested local blocks never spawn
candidates.

Splits are project-disjoint: whole projects are held out per category, and
the training side is balanced by undersampling functions per category.
"""

import logging
import os
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from . import fileio

logger = logging.getLogger(__name__)

SOURCE_EXTENSIONS = {".c", ".h", ".cc", ".cpp", ".cxx", ".hh", ".hpp", ".hxx"}

# Keywords that look like `name (...)` but never name a function definition.
_NOT_FUNCTION_NAMES = {
    "if", "for", "while", "switch", "return", "do", "else",
    "sizeof", "catch", "defined",
}

# Symbols allowed between the parameter list and the opening brace
# (pointer/reference returns, ctor initializer lists, const &c. are words).
_LINKAGE_SYMBOLS = {"*", "&", ":", ",", "<", ">", "-", "(", ")", "."}


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
            while i < n and (source[i].isalnum() or source[i] in "._"):
                i += 1
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
    functions = []
    diagnostics = []
    total = len(events)
    k = 0
    decl_start = None  # source offset where the current declaration began
    last_word = None  # identifier immediately preceding the cursor, if any

    while k < total:
        kind, start, end = events[k]
        if decl_start is None:
            decl_start = start
        if kind == "word":
            last_word = source[start:end]
            k += 1
            continue
        if kind == "(" and last_word and last_word not in _NOT_FUNCTION_NAMES:
            matched, k_next = _try_candidate(
                source, events, k, decl_start, last_word, project,
                functions, diagnostics,
            )
            if matched:
                k = k_next
                decl_start = None
                last_word = None
                continue
            # Not a definition: fall through and rescan past the '('.
            last_word = None
            k += 1
            continue
        if kind == ":" and k + 1 < total and events[k + 1][0] == ":":
            # '::' scope operator: neither a label nor an access specifier.
            k += 2
            continue
        if kind in (";", "{", "}", ":"):
            # Statement/scope boundary: next declaration starts afresh.
            decl_start = None
            last_word = None
            k += 1
            continue
        last_word = None
        k += 1

    return ExtractionResult(functions, diagnostics)


def _try_candidate(source, events, k_open, decl_start, name, project,
                   functions, diagnostics):
    """Match params + linkage + braced body starting at the '(' event k_open.

    On success appends a FunctionRecord (body = source from decl_start through
    the closing brace) and returns (True, index after the body).  Returns
    (False, k_open) when the shape is not a function definition.
    """
    total = len(events)
    depth = 1
    k = k_open + 1
    while k < total and depth:
        kind = events[k][0]
        if kind == "(":
            depth += 1
        elif kind == ")":
            depth -= 1
        k += 1
    if depth:
        return False, k_open  # unbalanced params at EOF

    # Between the parameter list and '{': allow words, numbers, literals and
    # a small symbol set (covers pointers, const, ctor initializer lists,
    # throw()/noexcept(...) with nested parens).  Anything else rejects.
    paren = 0
    while k < total:
        kind, start, end = events[k]
        if kind in ("word", "num", "str"):
            k += 1
            continue
        if kind == "(":
            paren += 1
            k += 1
            continue
        if kind == ")":
            paren -= 1
            if paren < 0:
                return False, k_open
            k += 1
            continue
        if kind == "{" and paren == 0:
            break
        if kind in _LINKAGE_SYMBOLS:
            k += 1
            continue
        return False, k_open
    if k >= total:
        return False, k_open

    # Braced body: consume to the matching close.
    depth = 1
    k += 1
    while k < total and depth:
        kind = events[k][0]
        if kind == "{":
            depth += 1
        elif kind == "}":
            depth -= 1
            if depth == 0:
                body = source[decl_start : events[k][2]]
                functions.append(FunctionRecord(project, name, body))
                return True, k + 1
        k += 1
    diagnostics.append(
        f"unbalanced braces at end of file: dropped partial function '{name}'"
    )
    return True, total


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
    from . import tokens as T

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


def read_token_dataset(path):
    """Returns (list of FunctionTokens, meta)."""
    rows, meta = fileio.read_jsonl(path)
    records = []
    for row in rows:
        missing = {"project", "function", "category", "tokens"} - set(row)
        if missing:
            raise ValueError(f"{path}: dataset record missing fields {sorted(missing)}")
        records.append(
            FunctionTokens(
                project=row["project"],
                function=row["function"],
                category=row["category"],
                tokens=list(row["tokens"]),
                descr_tokens=list(row.get("descr_tokens", [])),
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
