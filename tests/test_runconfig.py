"""Tests for the flat run-wide configuration document."""

import dataclasses

import pytest

from repocat import embedding, model, synth
from repocat.runconfig import DEFAULTS, SEED_KEYS, RunConfig, parse_value


def test_defaults_mirror_module_dataclasses():
    glove = embedding.GloveConfig()
    for name in ("window", "dims", "x_max", "alpha", "learning_rate",
                 "iterations", "seed", "distance_weighting"):
        assert DEFAULTS[f"glove.{name}"] == getattr(glove, name)
    nn = model.ClassifierConfig(num_categories=2)
    for name in ("filters", "kernel_size", "strides", "pool_size",
                 "lstm_units", "hide_u", "dropout_level", "epochs",
                 "batch_size", "learning_rate", "beta1", "beta2", "epsilon",
                 "validation_fraction", "seed"):
        assert DEFAULTS[f"nn.{name}"] == getattr(nn, name)
    for field in dataclasses.fields(synth.SynthConfig):
        assert DEFAULTS[f"synth.{field.name}"] == getattr(synth.SynthConfig(), field.name)


def test_fresh_config_equals_defaults():
    cfg = RunConfig()
    assert cfg.values == DEFAULTS
    assert cfg.values is not DEFAULTS  # must be a copy


def test_getitem_and_set():
    cfg = RunConfig()
    assert cfg["glove.dims"] == 100
    cfg.set("glove.dims", 8)
    assert cfg["glove.dims"] == 8


def test_constructor_overrides():
    cfg = RunConfig({"nn.epochs": 7, "glove.x_max": "10"})
    assert cfg["nn.epochs"] == 7
    assert cfg["glove.x_max"] == 10.0


def test_unknown_key_rejected():
    cfg = RunConfig()
    with pytest.raises(KeyError, match="unknown config key"):
        cfg.set("glove.typo", 1)
    with pytest.raises(KeyError):
        RunConfig({"nope": 1})


def test_string_values_are_coerced_to_key_type():
    cfg = RunConfig()
    cfg.set("nn.epochs", "12")
    assert cfg["nn.epochs"] == 12 and isinstance(cfg["nn.epochs"], int)
    cfg.set("glove.alpha", "0.5")
    assert cfg["glove.alpha"] == 0.5
    cfg.set("glove.distance_weighting", "off")
    assert cfg["glove.distance_weighting"] is False


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
    with pytest.raises(ValueError):
        cfg.set("glove.distance_weighting", 1)


@pytest.mark.parametrize("text,expected", [
    ("true", True), ("TRUE", True), ("Yes", True), ("on", True), ("1", True),
    ("false", False), ("No", False), ("OFF", False), ("0", False),
])
def test_parse_value_booleans(text, expected):
    assert parse_value("glove.distance_weighting", text) is expected


def test_parse_value_errors_name_the_key():
    with pytest.raises(ValueError, match="glove.distance_weighting"):
        parse_value("glove.distance_weighting", "maybe")
    with pytest.raises(ValueError, match="nn.epochs"):
        parse_value("nn.epochs", "three")
    with pytest.raises(ValueError, match="glove.alpha"):
        parse_value("glove.alpha", "x")


def test_update_applies_mapping_and_chains():
    cfg = RunConfig().update({"lr.seed": 9, "lr.epochs": 5})
    assert cfg["lr.seed"] == 9 and cfg["lr.epochs"] == 5


def test_override_seeds_touches_every_stage_seed():
    cfg = RunConfig().override_seeds(42)
    for key in SEED_KEYS:
        assert cfg[key] == 42
    # and nothing else changed
    untouched = {k: v for k, v in cfg.values.items() if k not in SEED_KEYS}
    assert untouched == {k: v for k, v in DEFAULTS.items() if k not in SEED_KEYS}


def test_dumps_is_sorted_and_round_trips(tmp_path):
    cfg = RunConfig({"glove.x_max": 10.0, "nn.seed": 4,
                     "glove.distance_weighting": False})
    text = cfg.dumps()
    keys = [line.split(" = ")[0] for line in text.splitlines()]
    assert keys == sorted(DEFAULTS)
    assert "glove.x_max = 10.0" in text.splitlines()
    assert "glove.distance_weighting = false" in text.splitlines()

    path = tmp_path / "run.cfg"
    path.write_text(text)
    again = RunConfig.from_file(path)
    assert again.values == cfg.values
    assert again.dumps() == text  # byte-stable canonical form


def test_from_file_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# a comment\n\n  nn.epochs = 9\nglove.alpha=0.25\n")
    cfg = RunConfig.from_file(path)
    assert cfg["nn.epochs"] == 9
    assert cfg["glove.alpha"] == 0.25


def test_from_file_errors_carry_line_numbers(tmp_path):
    bad_shape = tmp_path / "a.cfg"
    bad_shape.write_text("nn.epochs = 3\njust words\n")
    with pytest.raises(ValueError, match=r"a\.cfg:2"):
        RunConfig.from_file(bad_shape)

    bad_key = tmp_path / "b.cfg"
    bad_key.write_text("# fine\nwrong.key = 1\n")
    with pytest.raises(ValueError, match=r"b\.cfg:2.*wrong.key"):
        RunConfig.from_file(bad_key)

    bad_value = tmp_path / "c.cfg"
    bad_value.write_text("nn.epochs = soon\n")
    with pytest.raises(ValueError, match="expected an integer"):
        RunConfig.from_file(bad_value)


def test_meta_prefixes_every_key():
    cfg = RunConfig()
    meta = cfg.meta()
    assert set(meta) == {f"cfg.{k}" for k in DEFAULTS}
    assert meta["cfg.split.holdout_per_category"] == 5


def test_glove_view_reflects_overrides():
    cfg = RunConfig({"glove.x_max": 10.0, "glove.iterations": 50,
                     "glove.seed": 2})
    gcfg = cfg.glove_config()
    assert gcfg == embedding.GloveConfig(x_max=10.0, iterations=50, seed=2)


def test_classifier_view_takes_runtime_shape_args():
    cfg = RunConfig({"nn.epochs": 1, "nn.seed": 4})
    ccfg = cfg.classifier_config(num_categories=3, embed_dims=16)
    assert ccfg.num_categories == 3
    assert ccfg.embed_dims == 16
    assert ccfg.epochs == 1 and ccfg.seed == 4
    assert ccfg.filters == model.ClassifierConfig(num_categories=3).filters


def test_synth_view_round_trips_dataclass():
    cfg = RunConfig({"synth.categories": 2, "synth.noise": 0.1})
    scfg = cfg.synth_config()
    assert scfg == dataclasses.replace(synth.SynthConfig(), categories=2, noise=0.1)
