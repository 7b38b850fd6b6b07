"""Source tree for the `categorize` workload.

The tree starts from the program's own synthetic corpus
(`repocat.synth.generate_corpus`) and adds two properties that real C code has
and the synthetic corpus lacks:

* Longer function bodies.  Every function is padded with filler statements to
  a drawn target length of its `co` token sequence (project name + function
  name + body tokens).  Targets follow a log-normal law calibrated to the
  801 real C functions measured for the roadmap: median 40 tokens, 38.7% at
  59 tokens or more.  At 59 tokens the `cd` input (co + delimiter +
  description) is cut at 60 ids before any description token.
* X-macro table headers.  A measured share of projects carries a header made
  of `X(name, value)` lines with no `;`, the pattern that makes the extractor
  rescan to end of file from every entry.  Share and sizes come from the
  installed C/C++ sources (see TABLE_SHARE).

The tree records only what it wrote (projects, table headers and bytes); the
realised `co` lengths are read back from what the program extracted, so a
change of the generator's layout shows in the audit.

Token counts here use the program's documented tokenizer rule (lowercase,
split on every character outside [a-z0-9_]) but not its code, so the inputs
do not change when the program's tokenizer is rewritten.
"""

import json
import math
import os
import re
import statistics

import numpy as np

CO_MEDIAN = 40
CO_LONG = 59
CO_LONG_SHARE = 0.387
CO_CAP = 400
# log-normal spread that puts CO_LONG_SHARE of the mass at CO_LONG or above
CO_SIGMA = math.log(CO_LONG / CO_MEDIAN) / statistics.NormalDist().inv_cdf(
    1.0 - CO_LONG_SHARE
)

# X-macro tables in the installed C/C++ sources (/usr/include, and the Python
# packages' and CPython's own .c/.h files; each distinct file counted once):
# 28 of 354 directories holding such sources have a run of 8 or more
# same-name `NAME(args)` lines without `;`.  TABLE_SIZES are the entries of
# the largest such run in each of the 28.
TABLE_SHARE = 28 / 354
TABLE_SIZES = (
    8, 8, 8, 9, 10, 10, 10, 12, 13, 14, 15, 15, 15, 18,
    18, 20, 21, 24, 24, 24, 25, 27, 30, 77, 84, 88, 162, 304,
)

CATEGORY_WORD_SHARE = 0.5
NOISE = 0.2
NEUTRAL_WORDS = (
    "i", "n", "len", "buf", "ret", "err", "tmp", "ctx", "size", "count",
    "data", "ptr", "flags", "out", "state", "idx", "node", "head", "next",
)
NUMBERS = ("0", "1", "2", "4", "8", "16", "255")

_TOKEN = re.compile(r"[a-z0-9_]+")


def count_tokens(text):
    """Tokens of text under the program's rule: lowercase, [a-z0-9_] runs."""
    return len(_TOKEN.findall(text.lower()))


def target_co_lengths(rng, base_lengths):
    """Drawn co lengths, never shorter than the function already is."""
    base = np.asarray(base_lengths, dtype=np.int64)
    drawn = np.rint(np.exp(rng.normal(math.log(CO_MEDIAN), CO_SIGMA, size=base.size)))
    return np.clip(drawn.astype(np.int64), base, max(CO_CAP, int(base.max(initial=0))))


def length_profile(co_lengths):
    """(median co length, share at CO_LONG tokens or more)."""
    lengths = np.asarray(co_lengths)
    return float(np.median(lengths)), float(np.mean(lengths >= CO_LONG))


def _filler_lines(rng, n_tokens, category_words, other_words):
    """Statements adding exactly n_tokens tokens."""

    def ident():
        if rng.random() < CATEGORY_WORD_SHARE:
            pool = other_words if rng.random() < NOISE else category_words
        else:
            pool = NEUTRAL_WORDS
        return pool[int(rng.integers(len(pool)))]

    def arg():
        if rng.random() < 0.2:
            return NUMBERS[int(rng.integers(len(NUMBERS)))]
        return ident()

    lines = []
    while n_tokens >= 3:
        lines.append(f"    {ident()} = {ident()}({arg()});")
        n_tokens -= 3
    if n_tokens == 2:
        lines.append(f"    {ident()}({arg()});")
    elif n_tokens == 1:
        lines.append(f"    {ident()}++;")
    return lines


def _lengthen_file(path, rng, category_words, other_words):
    """Pad every function of one generated file; returns the drawn co lengths."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().split("\n")
    # generated functions end with a lone "}" line; signatures start at
    # column 0 after a blank line (or at the top of the file)
    ends = [i for i, line in enumerate(lines) if line == "}"]
    starts = [0] + [end + 2 for end in ends[:-1]]
    bases = [
        2 + count_tokens("\n".join(lines[s : e + 1])) for s, e in zip(starts, ends)
    ]
    targets = target_co_lengths(rng, bases)
    out = []
    prev = 0
    for end, base, target in zip(ends, bases, targets):
        # filler goes before the function's last statement
        out.extend(lines[prev : end - 1])
        out.extend(_filler_lines(rng, int(target - base), category_words, other_words))
        prev = end - 1
    out.extend(lines[prev:])
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out))
    return [int(t) for t in targets]


def table_sizes(n_tables):
    """Entries of n_tables tables, at evenly spaced quantiles of TABLE_SIZES.

    Every seed gets the same mix of sizes, so the tree's extraction cost does
    not depend on which sizes a seed happens to draw.
    """
    ordered = sorted(TABLE_SIZES)
    return [ordered[int((k + 0.5) * len(ordered) / n_tables)] for k in range(n_tables)]


def table_header(rng, project, n_entries):
    """An X-macro table: one `X(name, value)` line per entry, no `;`."""
    stem = re.sub(r"[^A-Za-z0-9]", "_", project).upper()
    lines = [
        f"/* {project}: expand with #define X(name, value) before including */"
    ]
    for k in range(n_entries):
        if rng.random() < 0.5:
            value = str(int(rng.integers(0, 4096)))
        else:
            value = f'"{project} entry {k}"'
        lines.append(f"X({stem}_E{k:03d}, {value})")
    return "\n".join(lines) + "\n"


def make_categorize_tree(root, seed):
    """Write the categorize tree under root; returns its audit record."""
    from repocat import synth

    cfg = synth.SynthConfig(
        categories=3, projects_per_category=40, functions_per_project=30, seed=seed,
    )
    synth.generate_corpus(root, cfg)
    with open(os.path.join(root, "manifest.json"), "r", encoding="utf-8") as fh:
        plan = json.load(fh)["plan"]
    with open(os.path.join(root, "labels.jsonl"), "r", encoding="utf-8") as fh:
        labels = [json.loads(line) for line in fh if line.strip()]

    rng = np.random.default_rng([seed, 1])
    n_tables = round(TABLE_SHARE * len(labels))
    with_table = rng.permutation(len(labels))[:n_tables]
    entries = dict(zip(with_table.tolist(), rng.permutation(table_sizes(n_tables)).tolist()))
    table_bytes = 0
    for i, row in enumerate(labels):
        project, category = row["name"], row["category"]
        category_words = plan[category]["code_vocab"]
        other_words = [
            w for cat, entry in sorted(plan.items()) if cat != category
            for w in entry["code_vocab"]
        ]
        pdir = os.path.join(root, project)
        for fname in sorted(os.listdir(pdir)):
            if fname.endswith(".c"):
                _lengthen_file(os.path.join(pdir, fname), rng, category_words, other_words)
        if i in entries:
            text = table_header(rng, project, entries[i])
            with open(os.path.join(pdir, f"{project}_table.h"), "w",
                      encoding="utf-8", newline="\n") as fh:
                fh.write(text)
            table_bytes += len(text.encode("utf-8"))
    return {
        "projects": len(labels),
        "table_headers": n_tables,
        "table_entries": sum(entries.values()),
        "table_bytes": table_bytes,
    }
