"""Command-line surface: pipeline wiring, flags, provenance, exit codes."""

import argparse
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import repocat
from repocat import checkpoint, cli, corpus, fileio, model, runconfig, tokens


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """One tiny end-to-end run shared by the tests in this module."""
    work = tmp_path_factory.mktemp("cli")
    paths = {
        "corpus": work / "corpus",
        "data": work / "data.jsonl",
        "prefix": work / "split",
        "train": work / "split.train.jsonl",
        "holdout": work / "split.holdout.jsonl",
        "emb_cd": work / "emb_cd.txt",
        "emb_rand": work / "emb_rand.txt",
        "nn": work / "nn.ckpt",
        "lr": work / "lr.ckpt",
        "work": work,
    }
    assert run("dataset", "synth", "-o", paths["corpus"],
               "--categories", 2, "--projects-per-cat", 6,
               "--functions-per-project", 6, "--seed", 0) == 0
    assert run("extract", paths["corpus"],
               "--labels", paths["corpus"] / "labels.jsonl",
               "-o", paths["data"]) == 0
    assert run("dataset", "split", paths["data"], "--holdout-per-cat", 1,
               "--per-cat", 20, "--seed", 1, "-o", paths["prefix"]) == 0
    assert run("embed", "train", paths["train"], "--strategy", "code-description",
               "--iterations", 5, "--x-max", 10, "--seed", 2,
               "-o", paths["emb_cd"]) == 0
    assert run("embed", "random", "--train", paths["train"], "--seed", 3,
               "-o", paths["emb_rand"]) == 0
    assert run("train", "nn", paths["train"], "--embedding", paths["emb_cd"],
               "--epochs", 1, "--seed", 4, "-o", paths["nn"]) == 0
    assert run("train", "lr", paths["train"], "--seed", 5, "-o", paths["lr"]) == 0
    return paths


def test_artifacts_exist(pipeline):
    for key in ("data", "train", "holdout", "emb_cd", "emb_rand", "nn", "lr"):
        assert pipeline[key].is_file(), key


def test_split_is_project_disjoint_and_balanced(pipeline):
    train, _ = corpus.read_token_dataset(pipeline["train"])
    holdout, _ = corpus.read_token_dataset(pipeline["holdout"])
    assert not ({r.project for r in train} & {r.project for r in holdout})
    counts = {}
    for rec in train:
        counts[rec.category] = counts.get(rec.category, 0) + 1
    assert counts == {"sound": 20, "network": 20}
    # one project held out per category
    assert len({r.project for r in holdout}) == 2


def test_artifacts_embed_run_config(pipeline):
    _, meta = corpus.read_token_dataset(pipeline["train"])
    assert meta["cfg.split.seed"] == 1
    assert meta["cfg.split.per_category_count"] == 20
    assert meta["command"] == "dataset split"
    with open(pipeline["emb_cd"], "r", encoding="utf-8") as fh:
        header = [line for line in fh if line.startswith("#")]
    keys = {line[2:].split("=", 1)[0] for line in header}
    assert {"cfg.glove.x_max", "cfg.glove.iterations", "cfg.nn.epochs",
            "command", "strategy"} <= keys


def test_eval_nn_writes_report_and_verdicts(pipeline, capsys):
    report_path = pipeline["work"] / "report.json"
    verdicts_path = pipeline["work"] / "verdicts.jsonl"
    assert run("eval", pipeline["nn"], pipeline["holdout"], "--variant", "cd",
               "--report", report_path, "--verdicts", verdicts_path) == 0
    out = capsys.readouterr().out
    assert "weighted" in out and "category" in out
    report = json.loads(report_path.read_text())
    assert set(report) == {"per_category", "weighted", "accuracy", "_meta"}
    assert set(report["per_category"]) == {"sound", "network"}
    assert report["_meta"]["variant"] == "cd"
    rows, meta = fileio.read_jsonl(verdicts_path)
    assert len(rows) == 2
    assert {"project", "predicted", "gold", "tally", "functions"} <= set(rows[0])


def test_eval_lr_runs(pipeline, capsys):
    assert run("eval", pipeline["lr"], pipeline["holdout"], "--variant", "co") == 0
    assert "weighted" in capsys.readouterr().out


@pytest.mark.parametrize("kind,edit,message", [
    ("lr", lambda meta, arrays: meta.pop("bow_tokens"),
     r"checkpoint header lacks \['bow_tokens'\]"),
    ("nn", lambda meta, arrays: meta.pop("config"), r"checkpoint header lacks \['config'\]"),
    ("nn", lambda meta, arrays: meta["config"].update(bogus=1),
     "bad classifier config: .*unexpected keyword argument 'bogus'"),
    ("nn", lambda meta, arrays: meta.update(config=5),
     "bad classifier config: expected an object, got 5"),
    ("nn", lambda meta, arrays: meta["config"].update(filters="250"),
     "bad classifier config: filters must be int, got '250'"),
    ("nn", lambda meta, arrays: meta["config"].update(dropout_level=True),
     "bad classifier config: dropout_level must be float, got True"),
    ("nn", lambda meta, arrays: meta["config"].update(pool_size=0),
     "bad classifier config: pool_size must be >= 1, got 0"),
    ("nn", lambda meta, arrays: meta.update(kind="svm"), "unknown checkpoint kind 'svm'"),
    ("nn", lambda meta, arrays: arrays["out_b"].__setitem__(1, np.nan),
     "array 'out_b' holds non-finite values"),
    ("lr", lambda meta, arrays: arrays["weights"].__setitem__((0, 0), -np.inf),
     "array 'weights' holds non-finite values"),
], ids=["lr-no-bow_tokens", "nn-no-config", "nn-unknown-config-field",
        "nn-config-not-object", "nn-config-field-str", "nn-config-field-bool",
        "nn-config-invalid", "unknown-kind", "nn-nan-array", "lr-inf-array"])
def test_eval_malformed_header_names_the_file(pipeline, capsys, kind, edit, message):
    meta, arrays = checkpoint.load_checkpoint(pipeline[kind])
    edit(meta, arrays)
    bad = pipeline["work"] / f"bad_{kind}.ckpt"
    checkpoint.save_checkpoint(bad, meta, arrays)
    assert run("eval", bad, pipeline["holdout"], "--variant", "co") == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: {re.escape(str(bad))}: {message}\n", err), err


def test_eval_predicts_in_the_training_dtype(pipeline):
    predict, _, kind = cli._load_predictor(pipeline["nn"])
    assert kind == "nn"
    net, vocab, _, _ = model.load_model(pipeline["nn"])
    holdout, _ = corpus.read_token_dataset(pipeline["holdout"])
    streams = [tokens.variant_tokens(r.tokens, r.descr_tokens, "cd") for r in holdout]
    ids = np.stack([tokens.encode(s, vocab, net.config.seq_len) for s in streams])
    got = predict(streams)
    want = model.predict_proba(net.astype(model.TRAIN_DTYPE), ids)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    # the float64 forward of the same checkpoint agrees to float32 rounding
    wide = model.predict_proba(net.astype(np.float64), ids)
    assert np.abs(got - wide).max() < 1e-5
    np.testing.assert_array_equal(got.argmax(axis=1), wide.argmax(axis=1))


def test_scipy_is_loaded_only_where_training_runs(pipeline):
    # importing scipy.sparse costs about 0.26 s and 22 MB of RSS: the CLI module,
    # and eval of either checkpoint kind (nn in TRAIN_DTYPE, as loaded),
    # never load it
    script = (
        "import sys\n"
        "import repocat.cli\n"
        "loaded = ['import'] if 'scipy' in sys.modules else []\n"
        "holdout = sys.argv[1]\n"
        "for ckpt in sys.argv[2:]:\n"
        "    assert repocat.cli.main(['eval', ckpt, holdout, '--variant', 'co']) == 0\n"
        "    if 'scipy' in sys.modules:\n"
        "        loaded.append(ckpt)\n"
        "print('scipy loaded by', loaded)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(repocat.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", script, *(str(pipeline[k]) for k in ("holdout", "lr", "nn"))],
        capture_output=True, text=True, env=env, check=True,
    )
    assert done.stdout.splitlines()[-1] == "scipy loaded by []", done.stdout


def test_extract_and_split_write_each_project_together(pipeline):
    for key in ("data", "train", "holdout"):
        names = [proj.name for proj in corpus.iter_projects(pipeline[key])]
        assert names and len(names) == len(set(names)), key


def _holdout_file(path, vocab, categories, n_projects, functions=30):
    """n_projects projects of `functions` 60-token records over vocab."""
    toks = vocab.tokens()
    rng = np.random.default_rng(n_projects)
    records = (
        corpus.FunctionTokens(
            project=f"p{p:04d}", function=f"fn{i}", category=categories[p % len(categories)],
            tokens=[toks[int(j)] for j in rng.integers(2, len(toks), 60)],
            descr_tokens=[toks[2]],
        )
        for p in range(n_projects)
        for i in range(functions)
    )
    corpus.write_token_dataset(path, records)


def test_eval_memory_follows_the_project_not_the_holdout(pipeline, capsys):
    # eval reads, predicts and votes one project at a time: four times the
    # projects (3,600 functions, as many as the benchmark's) cost about the
    # same peak.  Holding the whole holdout took 10.3 MB at 900 functions
    # and 13.0 MB at 3,600 (1.26x)
    _, vocab, categories, _ = model.load_model(pipeline["nn"])
    peaks = {}
    for n_projects in (30, 120):
        holdout = pipeline["work"] / f"holdout{n_projects}.jsonl"
        _holdout_file(holdout, vocab, categories, n_projects)
        tracemalloc.start()
        try:
            assert run("eval", pipeline["nn"], holdout, "--variant", "cd") == 0
            peaks[n_projects] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    capsys.readouterr()
    assert peaks[120] <= 1.2 * peaks[30], peaks


def test_eval_rejects_a_project_split_across_the_holdout(pipeline, capsys):
    holdout, _ = corpus.read_token_dataset(pipeline["holdout"])
    first = holdout[0].project
    moved = [r for r in holdout if r.project != first] + [holdout[0]]
    path = pipeline["work"] / "scattered.jsonl"
    corpus.write_token_dataset(path, [holdout[1]] + moved)
    assert moved[0].project != first == holdout[1].project
    assert run("eval", pipeline["lr"], path, "--variant", "co") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and repr(first) in err
    assert "not contiguous" in err


def test_eval_json_output(pipeline, capsys):
    assert run("--json", "eval", pipeline["nn"], pipeline["holdout"],
               "--variant", "co") == 0
    payload = json.loads(capsys.readouterr().out)
    assert "accuracy" in payload and payload["variant"] == "co"


def test_neighbors_text_and_json(pipeline, capsys):
    assert run("embed", "neighbors", pipeline["emb_cd"], "sound_sig_head",
               "-k", 3) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert 1 <= len(lines) <= 3
    assert run("--json", "embed", "neighbors", pipeline["emb_cd"],
               "sound_sig_head", "-k", 3) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["token"] == "sound_sig_head"
    assert payload["neighbors"]


def test_explain_writes_heatmap(pipeline, capsys):
    holdout, _ = corpus.read_token_dataset(pipeline["holdout"])
    target = f"{holdout[0].project}/{holdout[0].function}"
    heat = pipeline["work"] / "heat.csv"
    assert run("explain", pipeline["nn"], pipeline["holdout"], target,
               "-o", heat) == 0
    assert "peak" in capsys.readouterr().out
    lines = heat.read_text().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    data = [l for l in lines if not l.startswith("#")]
    assert any(l.startswith("# peak_position=") for l in comments)
    header, rows = data[0], data[1:]
    assert header.split(",")[:3] == ["position", "window", "activation"]
    assert len(header.split(",")) == 3 + 250
    assert len(rows) == 58  # (60 - 3) // 1 + 1 conv windows
    assert rows[0].split(",")[0] == "0"
    # the per-window activation column is the mean of the per-filter columns
    cells = rows[0].split(",")
    assert abs(float(cells[2]) - sum(map(float, cells[3:])) / 250) < 1e-12


def test_explain_reads_the_dataset_up_to_the_target(pipeline, capsys):
    # a line past the target is never parsed
    holdout, _ = corpus.read_token_dataset(pipeline["holdout"])
    target = holdout[0]
    path = pipeline["work"] / "truncated.jsonl"
    corpus.write_token_dataset(path, [target])
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"project": "cut off')
    heat = pipeline["work"] / "heat_truncated.csv"
    assert run("explain", pipeline["nn"], path, f"{target.project}/{target.function}",
               "-o", heat) == 0
    assert run("explain", pipeline["nn"], path, "ghost/ghost_fn",
               "-o", pipeline["work"] / "nope.csv") == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_explain_rejects_lr_checkpoint(pipeline, capsys):
    holdout, _ = corpus.read_token_dataset(pipeline["holdout"])
    target = f"{holdout[0].project}/{holdout[0].function}"
    assert run("explain", pipeline["lr"], pipeline["holdout"], target,
               "-o", pipeline["work"] / "nope.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nn" in err


def test_explain_unknown_function(pipeline, capsys):
    assert run("explain", pipeline["nn"], pipeline["holdout"], "ghost/ghost_fn",
               "-o", pipeline["work"] / "nope.csv") == 1
    assert "not found" in capsys.readouterr().err


def test_explain_bad_target_shape(pipeline, capsys):
    assert run("explain", pipeline["nn"], pipeline["holdout"], "no-slash",
               "-o", pipeline["work"] / "nope.csv") == 1
    assert "project" in capsys.readouterr().err


def test_missing_input_is_one_line_error(pipeline, capsys):
    assert run("extract", pipeline["work"] / "nowhere",
               "--labels", pipeline["work"] / "nowhere.jsonl",
               "-o", pipeline["work"] / "out.jsonl") == 1
    err = capsys.readouterr().err.strip()
    assert err.startswith("error:") and len(err.splitlines()) == 1


def test_bad_flag_value_exits_nonzero(pipeline, capsys):
    assert run("dataset", "synth", "-o", pipeline["work"] / "bad",
               "--noise", 1.0) == 1
    assert "noise" in capsys.readouterr().err


def test_unknown_variant_rejected_by_parser(pipeline):
    with pytest.raises(SystemExit) as exc:
        run("eval", pipeline["nn"], pipeline["holdout"], "--variant", "xx")
    assert exc.value.code == 2


def test_global_seed_matches_stage_seed(pipeline):
    a = pipeline["work"] / "rand_a.txt"
    b = pipeline["work"] / "rand_b.txt"
    assert run("--seed", 9, "embed", "random", "--train", pipeline["train"],
               "-o", a) == 0
    assert run("embed", "random", "--train", pipeline["train"], "--seed", 9,
               "-o", b) == 0

    # Vector rows agree; provenance headers differ (the global flag also
    # repoints the seeds of stages this command never runs).
    def rows(path):
        return [l for l in path.read_text().splitlines() if not l.startswith("#")]

    assert rows(a) == rows(b)


def test_config_file_equals_flags(pipeline):
    cfg_path = pipeline["work"] / "run.cfg"
    cfg_path.write_text(
        "# embedding settings\n"
        "glove.iterations = 5\n"
        "glove.x_max = 10.0\n"
        "glove.seed = 2\n"
    )
    out = pipeline["work"] / "emb_from_cfg.txt"
    assert run("--config", cfg_path, "embed", "train", pipeline["train"],
               "--strategy", "code-description", "-o", out) == 0
    assert out.read_bytes() == pipeline["emb_cd"].read_bytes()


def test_precedence_defaults_seed_file_flags(pipeline):
    cfg_path = pipeline["work"] / "split.cfg"
    cfg_path.write_text("split.seed = 7\nsplit.holdout_per_category = 2\n")
    prefix = pipeline["work"] / "split_prec"
    assert run("--seed", 3, "--config", cfg_path, "dataset", "split",
               pipeline["data"], "--holdout-per-cat", 1, "--per-cat", 20,
               "-o", prefix) == 0
    _, meta = corpus.read_token_dataset(f"{prefix}.train.jsonl")
    assert meta["cfg.split.seed"] == 7  # the file wins over --seed
    assert meta["cfg.split.holdout_per_category"] == 1  # a flag wins over the file
    assert meta["cfg.glove.seed"] == 3  # --seed wins over the default
    assert meta["cfg.split.per_category_count"] == 20


def _subparsers(parser):
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                yield sub
                yield from _subparsers(sub)


def test_every_dotted_dest_is_a_config_key():
    parser = cli._build_parser()
    dests = [action.dest for p in (parser, *_subparsers(parser))
             for action in p._actions if "." in action.dest]
    assert len(dests) == 26  # one per per-command flag that sets a key
    assert set(dests) <= set(runconfig.DEFAULTS)


def test_config_file_unknown_key(pipeline, capsys):
    cfg_path = pipeline["work"] / "bad.cfg"
    cfg_path.write_text("glove.bogus = 1\n")
    assert run("--config", cfg_path, "embed", "random",
               "--train", pipeline["train"],
               "-o", pipeline["work"] / "x.txt") == 1
    assert "glove.bogus" in capsys.readouterr().err


@pytest.mark.parametrize("key", [
    "glove.distance_weighting", "embed.random_scale",
    "nn.strides", "nn.beta1", "nn.beta2", "nn.epsilon",
    "synth.code_vocab_per_category", "synth.dialect_size",
    "synth.descr_vocab_per_category", "synth.words_per_function",
    "synth.descr_words_per_project",
])
def test_config_file_naming_a_removed_key_fails(pipeline, capsys, key):
    cfg_path = pipeline["work"] / "old.cfg"
    cfg_path.write_text(f"glove.seed = 3\n{key} = 1\n")
    assert run("--config", cfg_path, "embed", "random",
               "--train", pipeline["train"],
               "-o", pipeline["work"] / "x.txt") == 1
    assert capsys.readouterr().err == f"error: {cfg_path}:2: unknown config key: '{key}'\n"


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_config_file_non_finite_number_fails(pipeline, capsys, text):
    cfg_path = pipeline["work"] / "nonfinite.cfg"
    cfg_path.write_text(f"glove.seed = 3\nglove.x_max = {text}\n")
    assert run("--config", cfg_path, "embed", "random",
               "--train", pipeline["train"],
               "-o", pipeline["work"] / "x.txt") == 1
    err = capsys.readouterr().err
    assert err == f"error: {cfg_path}:2: glove.x_max: expected a finite number\n"


def test_non_finite_flag_value_fails(pipeline, capsys):
    assert run("embed", "train", pipeline["train"], "--strategy", "code-only",
               "--x-max", "inf", "-o", pipeline["work"] / "x.txt") == 1
    assert capsys.readouterr().err == "error: glove.x_max: expected a finite number\n"


@pytest.mark.parametrize("global_flags, command_flags, config_line, message", [
    (["--seed", -1], [], None, "split.seed: expected a non-negative integer, got -1"),
    ([], ["--seed", -1], None, "glove.seed: expected a non-negative integer, got -1"),
    ([], [], "glove.seed = -1", "{cfg}:2: glove.seed: expected a non-negative integer, got -1"),
], ids=["global-seed", "command-seed", "config-line"])
def test_negative_seed_is_refused_naming_the_key(pipeline, capsys, global_flags,
                                                 command_flags, config_line, message):
    # NumPy's own refusal, raised later, names neither the flag nor the key
    cfg_path = pipeline["work"] / "seed.cfg"
    if config_line:
        cfg_path.write_text(f"glove.dims = 8\n{config_line}\n")
        global_flags = [*global_flags, "--config", cfg_path]
    assert run(*global_flags, "embed", "random", "--train", pipeline["train"],
               *command_flags, "-o", pipeline["work"] / "x.txt") == 1
    assert capsys.readouterr().err == f"error: {message.format(cfg=cfg_path)}\n"


@pytest.mark.parametrize("command, flags, config_line, message", [
    ("lr", ["--epochs", 0], None, "epochs must be >= 1, got 0"),
    ("lr", [], "lr.batch_size = 0", "batch_size must be >= 1, got 0"),
    ("lr", ["--vocab-size", 0], None, "vocab_size must be >= 1, got 0"),
    ("lr", ["--lr", -5], None, "learning_rate must be positive, got -5.0"),
    ("lr", [], "lr.l2 = -0.5", "l2 must be >= 0, got -0.5"),
    ("nn", ["--lr", 0], None, "learning_rate must be positive, got 0.0"),
], ids=["lr-epochs", "lr-batch_size", "lr-vocab_size", "lr-learning_rate",
        "lr-l2", "nn-learning_rate"])
def test_train_rejects_out_of_range_settings(pipeline, capsys, command, flags,
                                             config_line, message):
    argv = ["train", command, pipeline["train"], *flags, "-o", pipeline["work"] / "x.ckpt"]
    if command == "nn":
        argv += ["--embedding", pipeline["emb_cd"]]
    if config_line:
        cfg_path = pipeline["work"] / "range.cfg"
        cfg_path.write_text(config_line + "\n")
        argv = ["--config", cfg_path, *argv]
    assert run(*argv) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_train_nn_blow_up_fails_loudly(pipeline, capsys):
    # a finite but huge rate blows the weights up in the epoch's one step
    with np.errstate(all="ignore"):
        assert run("train", "nn", pipeline["train"], "--embedding", pipeline["emb_cd"],
                   "--epochs", 1, "--lr", 1e30, "-o", pipeline["work"] / "x.ckpt") == 1
    assert capsys.readouterr().err == (
        "error: training diverged in epoch 1: non-finite validation probabilities\n"
    )


def test_rerun_is_byte_identical(pipeline):
    again = pipeline["work"] / "emb_again.txt"
    assert run("embed", "train", pipeline["train"], "--strategy",
               "code-description", "--iterations", 5, "--x-max", 10,
               "--seed", 2, "-o", again) == 0
    assert again.read_bytes() == pipeline["emb_cd"].read_bytes()
    nn_again = pipeline["work"] / "nn_again.ckpt"
    assert run("train", "nn", pipeline["train"], "--embedding",
               pipeline["emb_cd"], "--epochs", 1, "--seed", 4,
               "-o", nn_again) == 0
    assert nn_again.read_bytes() == pipeline["nn"].read_bytes()


def test_extract_json_summary(pipeline, capsys):
    out = pipeline["work"] / "data2.jsonl"
    assert run("--json", "extract", pipeline["corpus"],
               "--labels", pipeline["corpus"] / "labels.jsonl",
               "-o", out) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["projects"] == 12
    assert payload["functions"] == 72


def test_embed_load_aligns_external_vectors(pipeline, capsys):
    vectors = pipeline["work"] / "external.txt"
    vectors.write_text(
        "sound_sig_head 1.0 0.0\n"
        "network_sig_head 0.0 1.0\n"
        "not_in_vocab 9.0 9.0\n"
    )
    out = pipeline["work"] / "emb_ext.txt"
    assert run("embed", "load", vectors, "--train", pipeline["train"],
               "-o", out) == 0
    assert "2/" in capsys.readouterr().out
    assert run("--json", "embed", "neighbors", out, "sound_sig_head") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["neighbors"][0]["token"] == "network_sig_head"


@pytest.mark.parametrize("module", ["repocat", "repocat.cli"])
def test_python_dash_m_runs_the_cli(module):
    env = dict(os.environ, PYTHONPATH=str(Path(repocat.__file__).parents[1]))

    def python_m(*argv):
        return subprocess.run(
            [sys.executable, "-m", module, *argv],
            capture_output=True, text=True, env=env, timeout=60,
        )

    bare = python_m()
    assert bare.returncode != 0
    assert "usage: repocat" in bare.stderr
    helped = python_m("--help")
    assert helped.returncode == 0
    assert "usage: repocat" in helped.stdout
