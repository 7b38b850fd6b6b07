"""Tests for the flat run-wide configuration document."""

import dataclasses
import re
from pathlib import Path

import pytest

from repocat import baseline, embedding, model, synth
from repocat.runconfig import DEFAULTS, SEED_KEYS, RunConfig


def test_defaults_mirror_module_dataclasses():
    glove = embedding.GloveConfig()
    for name in ("window", "dims", "x_max", "alpha", "learning_rate",
                 "iterations", "seed"):
        assert DEFAULTS[f"glove.{name}"] == getattr(glove, name)
    nn = model.ClassifierConfig(num_categories=2)
    for name in ("filters", "kernel_size", "pool_size",
                 "lstm_units", "hide_u", "dropout_level", "epochs",
                 "batch_size", "learning_rate", "validation_fraction", "seed"):
        assert DEFAULTS[f"nn.{name}"] == getattr(nn, name)
    for prefix, stage in (("lr", baseline.LogregConfig()), ("synth", synth.SynthConfig())):
        for field in dataclasses.fields(stage):
            assert DEFAULTS[f"{prefix}.{field.name}"] == getattr(stage, field.name)


def test_keys_are_exactly_the_documented_set():
    # Every artifact header carries these keys; adding one (say nn.optimizer)
    # or dropping one changes every artifact's bytes.
    assert sorted(DEFAULTS) == [
        "data.seq_len",
        "glove.alpha", "glove.dims",
        "glove.iterations", "glove.learning_rate", "glove.seed",
        "glove.window", "glove.x_max",
        "lr.batch_size", "lr.epochs", "lr.l2", "lr.learning_rate", "lr.seed",
        "lr.vocab_size",
        "nn.batch_size", "nn.dropout_level",
        "nn.epochs", "nn.filters", "nn.hide_u",
        "nn.kernel_size", "nn.learning_rate", "nn.lstm_units",
        "nn.pool_size", "nn.seed", "nn.validation_fraction",
        "split.holdout_per_category", "split.per_category_count",
        "split.seed",
        "synth.categories", "synth.functions_per_file",
        "synth.functions_per_project", "synth.noise", "synth.phrase_rate",
        "synth.projects_per_category", "synth.seed",
    ]
    assert len(DEFAULTS) == 35
    assert sorted(SEED_KEYS) == [
        "glove.seed", "lr.seed", "nn.seed", "split.seed", "synth.seed",
    ]


def test_fresh_config_equals_defaults():
    cfg = RunConfig()
    assert cfg.values == DEFAULTS
    assert cfg.values is not DEFAULTS  # must be a copy


def test_getitem_and_set():
    cfg = RunConfig()
    assert cfg["glove.dims"] == 100
    cfg.set("glove.dims", 8)
    assert cfg["glove.dims"] == 8


def test_unknown_key_rejected():
    cfg = RunConfig()
    with pytest.raises(KeyError, match="unknown config key"):
        cfg.set("glove.typo", 1)


def test_string_values_are_coerced_to_key_type():
    cfg = RunConfig()
    cfg.set("nn.epochs", "12")
    assert cfg["nn.epochs"] == 12 and isinstance(cfg["nn.epochs"], int)
    cfg.set("glove.alpha", "0.5")
    assert cfg["glove.alpha"] == 0.5


def test_int_promotes_to_float_but_not_reverse():
    cfg = RunConfig()
    cfg.set("glove.x_max", 10)
    assert cfg["glove.x_max"] == 10.0 and isinstance(cfg["glove.x_max"], float)
    with pytest.raises(ValueError, match="expected int"):
        cfg.set("nn.epochs", 2.5)


def test_bool_is_not_a_valid_int_or_float():
    cfg = RunConfig()
    with pytest.raises(ValueError):
        cfg.set("nn.epochs", True)
    with pytest.raises(ValueError):
        cfg.set("glove.x_max", True)


def test_parse_value_errors_name_the_key():
    with pytest.raises(ValueError, match="nn.epochs"):
        RunConfig().set("nn.epochs", "three")
    with pytest.raises(ValueError, match="glove.alpha"):
        RunConfig().set("glove.alpha", "x")


def test_override_seeds_touches_every_stage_seed():
    cfg = RunConfig().override_seeds(42)
    for key in SEED_KEYS:
        assert cfg[key] == 42
    # and nothing else changed
    untouched = {k: v for k, v in cfg.values.items() if k not in SEED_KEYS}
    assert untouched == {k: v for k, v in DEFAULTS.items() if k not in SEED_KEYS}


def test_from_file_round_trips_typed_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "glove.x_max = 10.0\n"
        "nn.dropout_level = 0.25\n"
        "nn.seed = 4\n"
    )
    cfg = RunConfig().from_file(path)
    expected = RunConfig()
    expected.set("glove.x_max", 10.0)
    expected.set("nn.dropout_level", 0.25)
    expected.set("nn.seed", 4)
    assert cfg.values == expected.values
    assert isinstance(cfg["glove.x_max"], float)


def test_from_file_reads_onto_an_existing_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("split.seed = 7\n")
    cfg = RunConfig().override_seeds(3).from_file(path)
    assert cfg["split.seed"] == 7  # the file wins over --seed
    assert all(cfg[key] == 3 for key in SEED_KEYS if key != "split.seed")


def test_from_file_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\n  nn.epochs = 9\nglove.alpha=0.25\n")
    cfg = RunConfig().from_file(path)
    assert cfg["nn.epochs"] == 9
    assert cfg["glove.alpha"] == 0.25


def test_from_file_errors_carry_line_numbers(tmp_path):
    bad_shape = tmp_path / "a.cfg"
    bad_shape.write_text("nn.epochs = 3\njust words\n")
    with pytest.raises(ValueError, match=r"a\.cfg:2"):
        RunConfig().from_file(bad_shape)

    bad_key = tmp_path / "b.cfg"
    bad_key.write_text("# fine\nwrong.key = 1\n")
    with pytest.raises(ValueError, match=r"b\.cfg:2.*wrong.key"):
        RunConfig().from_file(bad_key)

    bad_value = tmp_path / "c.cfg"
    bad_value.write_text("nn.epochs = soon\n")
    with pytest.raises(ValueError, match="expected an integer"):
        RunConfig().from_file(bad_value)


def test_from_file_bad_value_names_file_and_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("# fine\nnn.epochs = soon\n")
    want = r"bad\.cfg:2: nn\.epochs: expected an integer, got 'soon'"
    with pytest.raises(ValueError, match=want):
        RunConfig().from_file(path)


def test_meta_prefixes_every_key():
    cfg = RunConfig()
    meta = cfg.meta()
    assert set(meta) == {f"cfg.{k}" for k in DEFAULTS}
    assert meta["cfg.split.holdout_per_category"] == 5


def test_glove_view_reflects_overrides():
    cfg = RunConfig()
    cfg.set("glove.x_max", 10.0)
    cfg.set("glove.iterations", 50)
    cfg.set("glove.seed", 2)
    gcfg = cfg.glove_config()
    assert gcfg == embedding.GloveConfig(x_max=10.0, iterations=50, seed=2)


def test_classifier_view_takes_runtime_shape_args():
    cfg = RunConfig()
    cfg.set("nn.epochs", 1)
    cfg.set("nn.seed", 4)
    cfg.set("data.seq_len", 40)
    ccfg = cfg.classifier_config(num_categories=3, embed_dims=16)
    assert ccfg.num_categories == 3
    assert ccfg.embed_dims == 16
    assert ccfg.seq_len == 40
    assert ccfg.epochs == 1 and ccfg.seed == 4
    assert ccfg.filters == model.ClassifierConfig(num_categories=3).filters


def test_synth_view_round_trips_dataclass():
    cfg = RunConfig()
    cfg.set("synth.categories", 2)
    cfg.set("synth.noise", 0.1)
    scfg = cfg.synth_config()
    assert scfg == dataclasses.replace(synth.SynthConfig(), categories=2, noise=0.1)


def test_readme_documents_every_key_and_default():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    rows = re.findall(r"^\| `([a-z_.0-9]+)` \| `([^`]+)` \|", readme.read_text(), re.M)
    assert [key for key, _ in rows] == sorted(DEFAULTS)
    for key, default in rows:
        assert type(DEFAULTS[key])(default) == DEFAULTS[key], key
