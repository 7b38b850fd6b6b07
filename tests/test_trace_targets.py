"""The benchmark tracer's hooks still exist in the program.

perfbench/tracing.py wraps repocat functions by module and name.  A hook
whose target is gone leaves its layer unmeasured and its per-layer metrics
read 0 without any error, so deleting or renaming a target must fail here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()

HOOKS = [
    (layer, name) for layer, names in tracing.TARGETS.items() for name in names
]

# (positional index, parameter name) of the arguments the tracer's counters read
COUNTED_ARGS = {
    ("corpus", "extract_file"): [(0, "path")],
    ("tokens", "encode"): [(0, "tokens"), (2, "seq_len")],
    ("embedding", "train_glove"): [(0, "table"), (2, "config")],
    ("fileio", "atomic_write_text"): [(1, "text")],
    ("fileio", "atomic_write_bytes"): [(1, "data")],
}


@pytest.mark.parametrize("layer,name", HOOKS, ids=[f"{l}.{n}" for l, n in HOOKS])
def test_target_exists(layer, name):
    module = importlib.import_module(f"repocat.{layer}")
    assert callable(getattr(module, name, None)), f"repocat.{layer}.{name} is gone"


def test_every_counter_has_a_target():
    assert set(tracing.COUNTERS) <= {f"{layer}.{name}" for layer, name in HOOKS}


@pytest.mark.parametrize("layer,name", sorted(COUNTED_ARGS),
                         ids=[f"{l}.{n}" for l, n in sorted(COUNTED_ARGS)])
def test_counted_arguments_keep_their_place(layer, name):
    params = list(inspect.signature(
        getattr(importlib.import_module(f"repocat.{layer}"), name)
    ).parameters)
    for index, param in COUNTED_ARGS[layer, name]:
        assert params[index] == param


def test_encode_counter_constants_exist():
    tokens = importlib.import_module("repocat.tokens")
    for constant in ("DEFAULT_SEQ_LEN", "PAD_ID", "UNK_ID", "DESCR_DELIM"):
        assert hasattr(tokens, constant)
