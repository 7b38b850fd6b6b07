"""Run-wide configuration: one flat key = value document covering every stage.

A RunConfig carries the knobs for splitting, embedding training, the neural
classifier, the bag-of-words baseline, and the synthetic corpus generator as
dotted keys (``glove.x_max``, ``nn.epochs``, ...).  Unset keys keep the
module defaults.  The full document is serialized into every output
artifact's header so any file can be traced back to the exact settings that
produced it, and identical settings reproduce identical bytes.

Where the keys come from: ``glove.*``, ``nn.*`` and ``synth.*`` are the
fields of ``embedding.GloveConfig``, ``model.ClassifierConfig`` and
``synth.SynthConfig`` with their defaults (less the classifier fields the
data or the code fixes); ``data.seq_len``, ``split.*``, ``embed.random_scale``
and ``lr.*`` are declared here.

File format: UTF-8 text, one ``key = value`` pair per line; blank lines and
lines starting with ``#`` are ignored.  Booleans accept true/false/yes/no/
on/off/1/0 in any case.
"""

from dataclasses import fields

from . import baseline, embedding, model, synth, tokens

# Stage dataclasses whose fields are run settings, by key prefix.
_STAGES = {
    "glove": embedding.GloveConfig(),
    "nn": model.ClassifierConfig(num_categories=2),
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
    "embed.random_scale": 0.5,
    "lr.vocab_size": baseline.DEFAULT_VOCAB_SIZE,
    "lr.l2": 1e-4,
    "lr.learning_rate": 0.1,
    "lr.epochs": 50,
    "lr.batch_size": 128,
    "lr.seed": 0,
}
DEFAULTS.update(
    (key, getattr(_STAGES[prefix], name))
    for prefix in _STAGES for key, name in _stage_fields(prefix)
)

# Keys the global --seed flag fans out to (explicit settings win over it).
SEED_KEYS = tuple(key for key in DEFAULTS if key.endswith(".seed"))


def parse_value(key, text):
    """Coerce `text` to the type of the key's default."""
    default = DEFAULTS[key]
    text = text.strip()
    if isinstance(default, bool):
        lowered = text.lower()
        if lowered in ("true", "yes", "on", "1"):
            return True
        if lowered in ("false", "no", "off", "0"):
            return False
        raise ValueError(f"{key}: expected a boolean, got {text!r}")
    if isinstance(default, int):
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"{key}: expected an integer, got {text!r}") from None
    if isinstance(default, float):
        try:
            return float(text)
        except ValueError:
            raise ValueError(f"{key}: expected a number, got {text!r}") from None
    return text


class RunConfig:
    """Typed view over the flat key space, settable from a file."""

    def __init__(self):
        self.values = dict(DEFAULTS)

    def __getitem__(self, key):
        return self.values[key]

    def set(self, key, value):
        if key not in DEFAULTS:
            raise KeyError(f"unknown config key: {key!r}")
        if isinstance(value, str) and not isinstance(DEFAULTS[key], str):
            value = parse_value(key, value)
        default = DEFAULTS[key]
        if isinstance(default, bool) != isinstance(value, bool) or not isinstance(
            value, type(default)
        ):
            # Allow int -> float promotion, nothing else.
            if isinstance(default, float) and isinstance(value, int) and not isinstance(value, bool):
                value = float(value)
            else:
                raise ValueError(
                    f"{key}: expected {type(default).__name__}, got {value!r}"
                )
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
                key = key.strip()
                if key not in DEFAULTS:
                    raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
                try:
                    value = parse_value(key, text)
                except ValueError as exc:
                    raise ValueError(f"{path}:{lineno}: {exc}") from None
                self.set(key, value)
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

    def synth_config(self):
        return self._view("synth")
