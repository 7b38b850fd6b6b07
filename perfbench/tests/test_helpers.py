"""Tests for the benchmark's own helpers.

    python3 -m pytest perfbench/tests
"""

import json
import os
import types

import numpy as np
import pytest

import inputs
import run
import tracing
import workloads

REPO = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


# -- self-time arithmetic ----------------------------------------------------

def test_self_time_subtracts_direct_children():
    spans = [
        ("cli.main", -1, 0.0, 10.0, 0),
        ("a", 0, 1.0, 4.0, 0),
        ("b", 1, 2.0, 3.0, 0),
        ("c", 0, 5.0, 9.0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_time_counts_overlapping_children_once():
    spans = [
        ("p", -1, 0.0, 10.0, 0),
        ("x", 0, 1.0, 5.0, 0),
        ("y", 0, 3.0, 7.0, 0),
        ("z", 0, 9.0, 12.0, 0),  # clipped to the parent's end
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_are_per_pass():
    spans = [
        ("cli.main", -1, 0.0, 4.0, 0),
        ("model.train_step", 0, 0.0, 1.0, 0),
        ("model.train_step", 0, 1.0, 3.0, 0),
        ("cli.main", -1, 10.0, 12.0, 1),
        ("model.train_step", 3, 10.0, 11.0, 1),
    ]
    counts = dict.fromkeys(tracing.COUNTER_KEYS, 0)
    m = tracing.layer_metrics(spans, counts, passes=2)
    assert m["model.train_steps"] == 1.5
    assert m["model.train_step_ms"] == pytest.approx(1000.0)
    assert m["cli.self_s"] == pytest.approx((1.0 + 1.0) / 2)
    assert set(m) == set(tracing.UNITS)


# -- length calibration ------------------------------------------------------

def test_drawn_lengths_match_real_c_profile():
    rng = np.random.default_rng(7)
    base = rng.integers(26, 34, size=40000)
    lengths = inputs.target_co_lengths(rng, base)
    median, long_share = inputs.length_profile(lengths)
    assert abs(median - inputs.CO_MEDIAN) <= 1
    assert abs(long_share - inputs.CO_LONG_SHARE) < 0.01
    assert np.all(lengths >= base)
    assert lengths.max() <= inputs.CO_CAP


def test_lengthened_file_hits_drawn_targets(tmp_path):
    body = (
        "static int {name}(int a, int b) {{\n"
        "    /* w0 helper for w1 */\n"
        "    int w2 = w3(a);\n"
        "    return w2 + b;\n"
        "}}\n"
    )
    path = tmp_path / "mod00.c"
    path.write_text("\n".join(body.format(name=f"proj_fn{k:02d}") for k in range(3)))
    targets = inputs._lengthen_file(
        str(path), np.random.default_rng(0), ["cat_w000", "cat_w001"], ["dog_w000"]
    )
    functions = [f.rstrip().removesuffix("}") for f in path.read_text().split("}\n\n")]
    assert len(functions) == 3
    for text, target in zip(functions, targets):
        assert 2 + inputs.count_tokens(text) == target
        assert text.rstrip().splitlines()[-1].strip().startswith("return")


def test_extracted_profile_reads_program_output(tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    rows = [{"_meta": {}}] + [{"tokens": ["t"] * n} for n in (30, 40, 59, 70)]
    (out / "holdout.jsonl").write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    assert run.extracted_profile(str(tmp_path)) == {
        "co_len_median": 49.5, "co_len_ge59_share": 0.5,
    }
    assert run.extracted_profile(str(tmp_path / "missing")) == {}


def test_table_sizes_are_stratified_over_the_measured_sizes():
    assert inputs.table_sizes(len(inputs.TABLE_SIZES)) == sorted(inputs.TABLE_SIZES)
    sizes = inputs.table_sizes(round(inputs.TABLE_SHARE * 120))
    assert len(sizes) == 9
    assert sizes == sorted(sizes) and set(sizes) <= set(inputs.TABLE_SIZES)
    assert sizes[0] < 15 < sizes[-1]


def test_table_header_has_no_semicolons():
    text = inputs.table_header(np.random.default_rng(0), "snd_p01", 50)
    lines = text.splitlines()
    assert len(lines) == 51 and ";" not in text
    assert all(line.startswith("X(SND_P01_E") for line in lines[1:])


# -- verdict-tally accuracy --------------------------------------------------

def test_tally_accuracy_counts_gold_votes(tmp_path):
    path = tmp_path / "v.jsonl"
    rows = [
        {"_meta": {"command": "eval"}},
        {"project": "a", "gold": "sound", "predicted": "sound",
         "tally": {"sound": 8, "editor": 2}, "functions": 10},
        {"project": "b", "gold": "editor", "predicted": "sound",
         "tally": {"sound": 3}, "functions": 3},
    ]
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n")
    verdicts = workloads.read_jsonl_rows(str(path))
    assert len(verdicts) == 2
    assert workloads.tally_accuracy(verdicts) == pytest.approx(8 / 13)


# -- missing-target fallback -------------------------------------------------

def test_missing_target_marks_layer_unmeasured_and_run_goes_on():
    model = types.SimpleNamespace(
        fit=lambda x: x + 1, train_step=lambda x: x * 2,
        load_model=lambda p: p, save_model=lambda *a: None,
    )  # predict_proba was "refactored away"
    fileio = types.SimpleNamespace(**{n: (lambda *a: None) for n in tracing.TARGETS["fileio"]})
    tracer = tracing.Tracer()
    tracer.install({"model": model, "fileio": fileio})
    assert "model" in tracer.unmeasured and "corpus" in tracer.unmeasured
    assert "fileio" not in tracer.unmeasured
    assert model.train_step(3) == 6  # wrapped, still correct
    assert [s[0] for s in tracer.spans] == ["model.train_step"]
    metrics = tracing.zero_unmeasured({"model.train_steps": 1.0, "fileio.write_s": 2.0},
                                      tracer.unmeasured)
    assert metrics == {"model.train_steps": 0.0, "fileio.write_s": 2.0}


def test_failing_counter_marks_layer_unmeasured():
    corpus = types.SimpleNamespace(**{n: (lambda *a: "changed") for n in tracing.TARGETS["corpus"]})
    tracer = tracing.Tracer()
    tracer.install({"corpus": corpus})
    assert corpus.extract_file("x.c") == "changed"
    assert "counter for corpus.extract_file failed" in tracer.unmeasured["corpus"]


def test_encode_counter_uses_the_programs_constants():
    tokens = types.SimpleNamespace(
        PAD_ID=7, UNK_ID=9, DESCR_DELIM="delim", DEFAULT_SEQ_LEN=4,
        encode=lambda toks, vocab, seq_len=4: np.array([9, 3, 7, 7]),
        build_vocabulary=lambda streams: None,
    )
    tracer = tracing.Tracer()
    tracer.install({"tokens": tokens})
    tokens.encode(["a", "b", "c", "delim", "d"], None)
    c = tracer.counts
    assert (c["tokens.nonpad"], c["tokens.unk"]) == (2, 1)
    assert (c["tokens.cd_inputs"], c["tokens.cd_cut"]) == (1, 1)
    assert "tokens" not in tracer.unmeasured


def test_dump_and_load_round_trip(tmp_path):
    tracer = tracing.Tracer()
    tracer.install({})
    tracer.request = 0
    tracer.span(tracing.ROOT, lambda: None)
    tracer.dump(str(tmp_path / "t.jsonl"))
    spans, counts, unmeasured = tracing.load(str(tmp_path / "t.jsonl"))
    assert spans[0][:2] == (tracing.ROOT, -1) and spans[0][4] == 0
    assert counts == tracer.counts and unmeasured == tracer.unmeasured


# -- reporting ---------------------------------------------------------------

def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail_percentile(list(range(10))) is None
    assert run.tail_percentile(list(range(1, 12))) == (100.0 / 11, 1)
    pct, value = run.tail_percentile(list(range(1, 101)))
    assert pct == 90.0 and value == 90


def test_run_budget_grows_with_seconds_and_trace():
    assert run.run_budget(40, 1) < 180
    assert run.run_budget(60, 0) > 60 + run.PASS_ALLOWANCE_S
    assert run.run_budget(60, 1) - run.run_budget(60, 0) == run.PASS_ALLOWANCE_S


def test_benchmark_json_matches_reported_metrics():
    with open(os.path.join(REPO, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
