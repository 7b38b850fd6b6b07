"""Run-wide configuration: one flat key = value document covering every stage.

A RunConfig carries the knobs for splitting, embedding training, the neural
classifier, the bag-of-words baseline, and the synthetic corpus generator as
dotted keys (``glove.x_max``, ``nn.epochs``, ...).  Unset keys keep the
module defaults.  The full document is serialized into every output
artifact's header so any file can be traced back to the exact settings that
produced it, and identical settings reproduce identical bytes.

File format: UTF-8 text, one ``key = value`` pair per line; blank lines and
lines starting with ``#`` are ignored.  Booleans accept true/false/yes/no/
on/off/1/0 in any case.
"""

from dataclasses import fields

from . import baseline, embedding, model, synth, tokens

# Defaults are pulled from the owning modules so the two can never drift.
_GLOVE = embedding.GloveConfig()
_SYNTH = synth.SynthConfig()
_NN = model.ClassifierConfig(num_categories=2)

DEFAULTS = {
    "data.seq_len": tokens.DEFAULT_SEQ_LEN,
    "split.holdout_per_category": 5,
    "split.per_category_count": 600,
    "split.seed": 1,
    "glove.window": _GLOVE.window,
    "glove.dims": _GLOVE.dims,
    "glove.x_max": _GLOVE.x_max,
    "glove.alpha": _GLOVE.alpha,
    "glove.learning_rate": _GLOVE.learning_rate,
    "glove.iterations": _GLOVE.iterations,
    "glove.seed": _GLOVE.seed,
    "glove.distance_weighting": _GLOVE.distance_weighting,
    "embed.random_scale": 0.5,
    "nn.filters": _NN.filters,
    "nn.kernel_size": _NN.kernel_size,
    "nn.strides": _NN.strides,
    "nn.pool_size": _NN.pool_size,
    "nn.lstm_units": _NN.lstm_units,
    "nn.hide_u": _NN.hide_u,
    "nn.dropout_level": _NN.dropout_level,
    "nn.epochs": _NN.epochs,
    "nn.batch_size": _NN.batch_size,
    "nn.learning_rate": _NN.learning_rate,
    "nn.beta1": _NN.beta1,
    "nn.beta2": _NN.beta2,
    "nn.epsilon": _NN.epsilon,
    "nn.validation_fraction": _NN.validation_fraction,
    "nn.seed": _NN.seed,
    "lr.vocab_size": baseline.DEFAULT_VOCAB_SIZE,
    "lr.l2": 1e-4,
    "lr.learning_rate": 0.1,
    "lr.epochs": 50,
    "lr.batch_size": 128,
    "lr.seed": 0,
}
DEFAULTS.update(
    {f"synth.{f.name}": getattr(_SYNTH, f.name) for f in fields(synth.SynthConfig)}
)

# Keys the global --seed flag fans out to (explicit settings win over it).
SEED_KEYS = ("split.seed", "glove.seed", "nn.seed", "lr.seed", "synth.seed")


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
    """Typed view over the flat key space with file round-tripping."""

    def __init__(self, overrides=None):
        self.values = dict(DEFAULTS)
        for key, value in (overrides or {}).items():
            self.set(key, value)

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

    def update(self, mapping):
        for key, value in mapping.items():
            self.set(key, value)
        return self

    def override_seeds(self, seed):
        """Point every stage seed at one value (the global --seed flag)."""
        for key in SEED_KEYS:
            self.set(key, int(seed))
        return self

    @classmethod
    def from_file(cls, path):
        cfg = cls()
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
                cfg.set(key, parse_value(key, text))
        return cfg

    def dumps(self):
        """Canonical text form: sorted `key = value` lines."""
        lines = []
        for key in sorted(self.values):
            value = self.values[key]
            if isinstance(value, bool):
                text = "true" if value else "false"
            elif isinstance(value, float):
                text = repr(value)
            else:
                text = str(value)
            lines.append(f"{key} = {text}")
        return "\n".join(lines) + "\n"

    def meta(self):
        """Flat JSON-safe dict for artifact headers."""
        return {f"cfg.{key}": value for key, value in sorted(self.values.items())}

    # -- typed views ------------------------------------------------------

    def glove_config(self):
        return embedding.GloveConfig(
            window=self["glove.window"],
            dims=self["glove.dims"],
            x_max=self["glove.x_max"],
            alpha=self["glove.alpha"],
            learning_rate=self["glove.learning_rate"],
            iterations=self["glove.iterations"],
            seed=self["glove.seed"],
            distance_weighting=self["glove.distance_weighting"],
        )

    def classifier_config(self, num_categories, embed_dims):
        return model.ClassifierConfig(
            num_categories=num_categories,
            seq_len=self["data.seq_len"],
            embed_dims=embed_dims,
            filters=self["nn.filters"],
            kernel_size=self["nn.kernel_size"],
            strides=self["nn.strides"],
            pool_size=self["nn.pool_size"],
            lstm_units=self["nn.lstm_units"],
            hide_u=self["nn.hide_u"],
            dropout_level=self["nn.dropout_level"],
            epochs=self["nn.epochs"],
            batch_size=self["nn.batch_size"],
            learning_rate=self["nn.learning_rate"],
            beta1=self["nn.beta1"],
            beta2=self["nn.beta2"],
            epsilon=self["nn.epsilon"],
            validation_fraction=self["nn.validation_fraction"],
            seed=self["nn.seed"],
        )

    def synth_config(self):
        kwargs = {f.name: self[f"synth.{f.name}"] for f in fields(synth.SynthConfig)}
        return synth.SynthConfig(**kwargs)
