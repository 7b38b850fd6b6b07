"""Run-wide configuration: one flat key = value document covering every stage.

A RunConfig carries the knobs for splitting, embedding training, the neural
classifier, the bag-of-words baseline, and the synthetic corpus generator as
dotted keys (``glove.x_max``, ``nn.epochs``, ...).  Unset keys keep the
module defaults.  The full document is serialized into every output
artifact's header so any file can be traced back to the exact settings that
produced it, and identical settings reproduce identical bytes.

Where the keys come from: ``glove.*``, ``nn.*``, ``lr.*`` and ``synth.*``
are the fields of ``embedding.GloveConfig``, ``model.ClassifierConfig``,
``baseline.LogregConfig`` and ``synth.SynthConfig`` with their defaults
(less the classifier fields the data fixes); only ``data.seq_len`` and
``split.*`` are declared here.  Every value is an integer or a finite float;
there are no booleans.

File format: UTF-8 text, one ``key = value`` pair per line; blank lines and
lines starting with ``#`` are ignored.
"""

import math
from dataclasses import fields

from . import baseline, embedding, model, synth, tokens

# Stage dataclasses whose fields are run settings, by key prefix.
_STAGES = {
    "glove": embedding.GloveConfig(),
    "nn": model.ClassifierConfig(num_categories=2),
    "lr": baseline.LogregConfig(),
    "synth": synth.SynthConfig(),
}
# ClassifierConfig fields no key sets: the data gives num_categories and
# embed_dims, and seq_len is data.seq_len.
_FIXED = {"num_categories", "seq_len", "embed_dims"}


def _stage_fields(prefix):
    """(key, field name) for every settable field of one stage dataclass."""
    return [(f"{prefix}.{f.name}", f.name)
            for f in fields(_STAGES[prefix]) if f.name not in _FIXED]


DEFAULTS = {
    "data.seq_len": tokens.DEFAULT_SEQ_LEN,
    "split.holdout_per_category": 5,
    "split.per_category_count": 600,
    "split.seed": 1,
}
DEFAULTS.update(
    (key, getattr(_STAGES[prefix], name))
    for prefix in _STAGES for key, name in _stage_fields(prefix)
)

# Keys the global --seed flag fans out to (explicit settings win over it).
SEED_KEYS = tuple(key for key in DEFAULTS if key.endswith(".seed"))


class RunConfig:
    """Typed view over the flat key space, settable from a file."""

    def __init__(self):
        self.values = dict(DEFAULTS)

    def __getitem__(self, key):
        return self.values[key]

    def set(self, key, value):
        """Set `key`.  Text is parsed as the type of the key's default, an
        int is promoted for a float key; other values, non-finite floats and
        negative seeds are rejected."""
        if key not in DEFAULTS:
            raise KeyError(f"unknown config key: {key!r}")
        kind = type(DEFAULTS[key])
        if isinstance(value, str):
            text = value.strip()
            try:
                value = kind(text)
            except ValueError:
                noun = "an integer" if kind is int else "a number"
                raise ValueError(f"{key}: expected {noun}, got {text!r}") from None
        elif kind is float and isinstance(value, int) and not isinstance(value, bool):
            value = float(value)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{key}: expected {kind.__name__}, got {value!r}")
        if kind is float and not math.isfinite(value):
            raise ValueError(f"{key}: expected a finite number")
        if key in SEED_KEYS and value < 0:
            # NumPy's generators refuse a negative seed without naming the key
            raise ValueError(f"{key}: expected a non-negative integer, got {value}")
        self.values[key] = value

    def override_seeds(self, seed):
        """Point every stage seed at one value (the global --seed flag)."""
        for key in SEED_KEYS:
            self.set(key, int(seed))
        return self

    def from_file(self, path):
        """Set the keys a `key = value` file names; the rest keep their values."""
        with open(path, "r", encoding="utf-8") as fh:
            for lineno, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(
                        f"{path}:{lineno}: expected 'key = value', got {line!r}"
                    )
                key, _, text = line.partition("=")
                try:
                    self.set(key.strip(), text)
                except (KeyError, ValueError) as exc:
                    raise ValueError(f"{path}:{lineno}: {exc.args[0]}") from None
        return self

    def meta(self):
        """Flat JSON-safe dict for artifact headers."""
        return {f"cfg.{key}": value for key, value in sorted(self.values.items())}

    # -- typed views ------------------------------------------------------

    def _view(self, prefix, **fixed):
        """The stage dataclass of `prefix` built from its keys (plus `fixed`)."""
        values = {name: self[key] for key, name in _stage_fields(prefix)}
        return type(_STAGES[prefix])(**fixed, **values)

    def glove_config(self):
        return self._view("glove")

    def classifier_config(self, num_categories, embed_dims):
        return self._view("nn", num_categories=num_categories,
                          seq_len=self["data.seq_len"], embed_dims=embed_dims)

    def logreg_config(self):
        return self._view("lr")

    def synth_config(self):
        return self._view("synth")
