"""Synthetic corpus generator: shape, determinism, planted signal."""

import json
import os

import pytest

from repocat import corpus, synth, tokens


SMALL = dict(
    categories=2,
    projects_per_category=3,
    functions_per_project=6,
    functions_per_file=4,
    seed=7,
)


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth") / "corpus"
    cfg = synth.SynthConfig(**SMALL)
    manifest = synth.generate_corpus(root, cfg)
    return root, cfg, manifest


def _tree_bytes(root):
    snapshot = {}
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                snapshot[os.path.relpath(path, root)] = fh.read()
    return snapshot


def test_layout(small_corpus):
    root, cfg, manifest = small_corpus
    assert (root / "labels.jsonl").is_file()
    assert (root / "manifest.json").is_file()
    project_dirs = sorted(p.name for p in root.iterdir() if p.is_dir())
    assert len(project_dirs) == cfg.categories * cfg.projects_per_category
    # 6 functions at 4 per file -> 2 source files, plus the README noise file
    pdir = root / project_dirs[0]
    assert sorted(p.name for p in pdir.iterdir()) == [
        "README.md", "mod00.c", "mod01.c",
    ]


def test_category_names():
    assert synth.category_name(0) == "sound"
    assert synth.category_name(len(synth.CATEGORY_NAMES)) == f"cat{len(synth.CATEGORY_NAMES)}"


def test_manifest_contents(small_corpus):
    _, _, manifest = small_corpus
    assert manifest["categories"] == ["sound", "network"]
    for cat in manifest["categories"]:
        plan = manifest["plan"][cat]
        assert len(plan["code_vocab"]) == synth.CODE_VOCAB_PER_CATEGORY
        assert len(plan["descr_vocab"]) == synth.DESCR_VOCAB_PER_CATEGORY
        assert len(plan["phrase"]) == 3
        assert all(w.startswith(cat) for w in plan["code_vocab"] + plan["phrase"])
    assert manifest["config"]["seed"] == SMALL["seed"]


def test_load_manifest_roundtrip(small_corpus):
    root, _, manifest = small_corpus
    with open(root / "manifest.json", encoding="utf-8") as fh:
        assert json.load(fh) == manifest


def test_labels_cover_all_projects(small_corpus):
    root, cfg, _ = small_corpus
    labels, descriptions = corpus.read_labels(root / "labels.jsonl")
    assert len(labels) == cfg.categories * cfg.projects_per_category
    assert set(labels) == set(descriptions)
    for name, category in labels.items():
        assert name.startswith(category)


def test_generated_sources_extract_cleanly(small_corpus):
    root, cfg, _ = small_corpus
    labels, descriptions = corpus.read_labels(root / "labels.jsonl")
    projects = corpus.load_repository(root, labels, descriptions)
    assert len(projects) == cfg.categories * cfg.projects_per_category
    for project in projects:
        assert len(project.functions) == cfg.functions_per_project
        names = [fn.function_name for fn in project.functions]
        assert names == sorted(names)  # fnNN order survives file order


def test_planted_phrase_marks_the_right_functions(small_corpus):
    root, cfg, manifest = small_corpus
    labels, descriptions = corpus.read_labels(root / "labels.jsonl")
    projects = corpus.load_repository(root, labels, descriptions)
    planted = manifest["planted"]
    seen = 0
    for project in projects:
        sig = set(manifest["plan"][project.category]["phrase"])
        for fn in project.functions:
            key = f"{project.name}/{fn.function_name}"
            body_tokens = set(tokens.tokenize(fn.body))
            if key in planted:
                assert planted[key] == project.category
                assert sig <= body_tokens
                seen += 1
            else:
                assert not (sig & body_tokens)
    assert seen == len(planted) > 0


def test_descriptions_carry_category_words(small_corpus):
    root, _, manifest = small_corpus
    labels, descriptions = corpus.read_labels(root / "labels.jsonl")
    for name, text in descriptions.items():
        cat = labels[name]
        toks = set(tokens.tokenize(text))
        assert set(manifest["plan"][cat]["phrase"]) <= toks
        assert toks & set(manifest["plan"][cat]["descr_vocab"])


def test_noise_zero_keeps_vocabularies_pure(tmp_path):
    cfg = synth.SynthConfig(**{**SMALL, "noise": 0.0})
    manifest = synth.generate_corpus(tmp_path / "pure", cfg)
    labels, descriptions = corpus.read_labels(tmp_path / "pure" / "labels.jsonl")
    projects = corpus.load_repository(tmp_path / "pure", labels, descriptions)
    planted_by_cat = {
        cat: set(plan["code_vocab"]) for cat, plan in manifest["plan"].items()
    }
    for project in projects:
        foreign = set().union(
            *(v for c, v in planted_by_cat.items() if c != project.category)
        )
        for fn in project.functions:
            assert not (set(tokens.tokenize(fn.body)) & foreign)


def test_noise_injects_foreign_words(tmp_path):
    cfg = synth.SynthConfig(**{**SMALL, "noise": 0.5})
    manifest = synth.generate_corpus(tmp_path / "noisy", cfg)
    labels, descriptions = corpus.read_labels(tmp_path / "noisy" / "labels.jsonl")
    projects = corpus.load_repository(tmp_path / "noisy", labels, descriptions)
    planted_by_cat = {
        cat: set(plan["code_vocab"]) for cat, plan in manifest["plan"].items()
    }
    crossings = 0
    for project in projects:
        foreign = set().union(
            *(v for c, v in planted_by_cat.items() if c != project.category)
        )
        for fn in project.functions:
            crossings += len(set(tokens.tokenize(fn.body)) & foreign)
    assert crossings > 0


def test_generation_is_deterministic(tmp_path):
    cfg = synth.SynthConfig(**SMALL)
    synth.generate_corpus(tmp_path / "a", cfg)
    synth.generate_corpus(tmp_path / "b", synth.SynthConfig(**SMALL))
    assert _tree_bytes(tmp_path / "a") == _tree_bytes(tmp_path / "b")


def test_seed_changes_content(tmp_path):
    synth.generate_corpus(tmp_path / "a", synth.SynthConfig(**SMALL))
    synth.generate_corpus(
        tmp_path / "b", synth.SynthConfig(**{**SMALL, "seed": SMALL["seed"] + 1})
    )
    assert _tree_bytes(tmp_path / "a") != _tree_bytes(tmp_path / "b")


@pytest.mark.parametrize(
    "overrides",
    [
        {"categories": 1},
        {"projects_per_category": 1},
        {"functions_per_project": 0},
        {"noise": 1.0},
        {"noise": -0.1},
        {"categories": 0},
        {"functions_per_file": 0},
        {"phrase_rate": -0.1},
        {"phrase_rate": 1.5},
    ],
)
def test_validate_rejects(overrides):
    with pytest.raises(ValueError):
        synth.SynthConfig(**{**SMALL, **overrides}).validate()
