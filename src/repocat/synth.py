"""Synthetic labeled C corpus generator for desk-scale pipeline runs.

Generates a directory tree of projects with real (extractable) C sources.
Each category owns a code vocabulary (spread across project-specific
"dialects"), a description vocabulary, and an exclusive three-token
signature phrase planted contiguously in a fraction of function bodies.
Category words fill the eight identifier/call slots of otherwise neutral C
templates; each slot is independently re-drawn from a *different* category's
vocabulary with probability `noise` (cross-category noise).  Every project
gets a description of eight distinct words from its category's description
vocabulary.  The vocabulary sizes are module constants.

Bodies are kept short enough that the cd representation (code + delimiter +
description) fits the default sequence length of 60, so the description
survives truncation.
"""

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from . import fileio

CATEGORY_NAMES = (
    "sound", "network", "editor", "games", "science", "archive", "terminal",
)

# Neutral C scaffolding shared by all categories: uninformative on purpose.
_TEMPLATES = (
    (
        "static int {fname}(int a, int b) {{\n"
        "    /* {w0} helper for {w1} */\n"
        "{phrase}"
        "    int {w2} = {w3}(a);\n"
        "    if ({w4}(b) > 0) {{\n"
        "        {w5}({w2}, b);\n"
        "    }}\n"
        "    return {w2} + {w6} - {w7};\n"
        "}}\n"
    ),
    (
        "int {fname}(const char *name, int flags) {{\n"
        "    /* {w0} entry for {w1} */\n"
        "{phrase}"
        "    int {w2} = {w3}(name);\n"
        "    while (flags > 0) {{\n"
        "        {w4}({w2}, {w5}(flags));\n"
        "        flags = flags - 1;\n"
        "    }}\n"
        "    return {w6} + {w7};\n"
        "}}\n"
    ),
    (
        "static void {fname}(void *ctx, int len) {{\n"
        "    /* {w0} walk {w1} */\n"
        "{phrase}"
        "    int {w2} = {w3}(ctx);\n"
        "    for ({w2} = 0; {w2} < len; {w2}++) {{\n"
        "        {w4}(ctx, {w5}({w2}));\n"
        "    }}\n"
        "    {w6}(ctx, {w7});\n"
        "}}\n"
    ),
)

CODE_VOCAB_PER_CATEGORY = 120
DIALECT_SIZE = 30  # code words per project
DESCR_VOCAB_PER_CATEGORY = 12
# Words drawn per function and per description: one per slot, w0..w7 and d0..d7.
WORDS_PER_FUNCTION = DESCR_WORDS_PER_PROJECT = 8

_DESCRIPTION_TEMPLATE = (
    "A small library for {d0} {d1} and {d2} handling. "
    "Provides {d3} {d4} routines with {d5} and {d6} support, plus {d7} tools. "
    "Built around the {s0} {s1} {s2} interface; "
    "every backend issues {s0} {s1} {s2} calls."
)


@dataclass
class SynthConfig:
    categories: int = 3
    projects_per_category: int = 40
    functions_per_project: int = 20
    noise: float = 0.2
    seed: int = 0
    phrase_rate: float = 0.5
    functions_per_file: int = 5

    def validate(self):
        if not 2 <= self.categories:
            raise ValueError("need at least 2 categories")
        if self.projects_per_category < 2:
            raise ValueError("need at least 2 projects per category")
        if self.functions_per_project < 1 or self.functions_per_file < 1:
            raise ValueError("need at least one function per project and file")
        if not 0.0 <= self.noise < 1.0:
            raise ValueError("noise must be in [0, 1)")
        if not 0.0 <= self.phrase_rate <= 1.0:
            raise ValueError("phrase_rate must be in [0, 1]")
        return self


def category_name(index):
    if index < len(CATEGORY_NAMES):
        return CATEGORY_NAMES[index]
    return f"cat{index}"


def _category_plan(cfg):
    plan = {}
    for c in range(cfg.categories):
        cat = category_name(c)
        plan[cat] = {
            "code_vocab": [f"{cat}_w{k:03d}" for k in range(CODE_VOCAB_PER_CATEGORY)],
            "descr_vocab": [f"{cat}_d{k:02d}" for k in range(DESCR_VOCAB_PER_CATEGORY)],
            "phrase": [f"{cat}_sig_head", f"{cat}_sig_mid", f"{cat}_sig_tail"],
        }
    return plan


def generate_corpus(root, cfg):
    """Write the project tree, labels.jsonl, and manifest.json under root.

    Returns the manifest dict: category plan plus per-function phrase
    placements ("<project>/<function>" -> category) for planted signatures.
    """
    cfg.validate()
    rng = np.random.default_rng(cfg.seed)
    root = os.fspath(root)
    os.makedirs(root, exist_ok=True)
    plan = _category_plan(cfg)
    categories = [category_name(c) for c in range(cfg.categories)]
    labels = []
    planted = {}

    for cat in categories:
        code_vocab = plan[cat]["code_vocab"]
        descr_vocab = plan[cat]["descr_vocab"]
        phrase = plan[cat]["phrase"]
        other_cats = [c for c in categories if c != cat]
        for p in range(cfg.projects_per_category):
            pname = f"{cat}_p{p:02d}"
            pdir = os.path.join(root, pname)
            os.makedirs(pdir, exist_ok=True)
            dialect = [
                code_vocab[int(i)]
                for i in rng.choice(len(code_vocab), size=DIALECT_SIZE, replace=False)
            ]
            d_picks = rng.choice(
                len(descr_vocab), size=DESCR_WORDS_PER_PROJECT, replace=False
            )
            descr_words = [descr_vocab[int(i)] for i in d_picks]
            description = _DESCRIPTION_TEMPLATE.format(
                **{f"d{i}": w for i, w in enumerate(descr_words)},
                **{f"s{i}": w for i, w in enumerate(phrase)},
            )
            labels.append(
                {"name": pname, "category": cat, "description": description}
            )

            sources = {}
            for k in range(cfg.functions_per_project):
                fname = f"{pname}_fn{k:02d}"
                words = []
                for _ in range(WORDS_PER_FUNCTION):
                    if other_cats and rng.random() < cfg.noise:
                        other = other_cats[int(rng.integers(len(other_cats)))]
                        pool = plan[other]["code_vocab"]
                        words.append(pool[int(rng.integers(len(pool)))])
                    else:
                        words.append(dialect[int(rng.integers(len(dialect)))])
                if rng.random() < cfg.phrase_rate:
                    phrase_line = f"    {phrase[0]}({phrase[1]}, {phrase[2]});\n"
                    planted[f"{pname}/{fname}"] = cat
                else:
                    phrase_line = ""
                template = _TEMPLATES[int(rng.integers(len(_TEMPLATES)))]
                text = template.format(
                    fname=fname,
                    phrase=phrase_line,
                    **{f"w{i}": w for i, w in enumerate(words)},
                )
                file_index = k // cfg.functions_per_file
                sources.setdefault(f"mod{file_index:02d}.c", []).append(text)
            for fname_c, chunks in sources.items():
                fileio.atomic_write_text(
                    os.path.join(pdir, fname_c), "\n".join(chunks)
                )
            # non-source noise the loader must ignore
            fileio.atomic_write_text(
                os.path.join(pdir, "README.md"), f"# {pname}\n\n{description}\n"
            )

    fileio.write_jsonl(os.path.join(root, "labels.jsonl"), labels)
    manifest = {
        "config": asdict(cfg),
        "categories": categories,
        "plan": plan,
        "planted": planted,
    }
    fileio.atomic_write_text(
        os.path.join(root, "manifest.json"),
        json.dumps(manifest, sort_keys=True, indent=2) + "\n",
    )
    return manifest
