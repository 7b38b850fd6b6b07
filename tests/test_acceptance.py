"""Acceptance suite: correctness oracles, reproducibility, and desk-scale
end-to-end behavior of the whole categorization pipeline.

Each test prints one PASS line with the measured numbers (visible with -s or
in captured output) so a run doubles as a small report.
"""

import json
import shutil
import time

import numpy as np
import pytest

from repocat import cli, corpus, embedding, evaluation, model, tokens


def _run(*argv):
    rc = cli.main([str(a) for a in argv])
    assert rc == 0, f"command failed: {argv}"


# --------------------------------------------------------------------------
# 1. Analytic gradients agree with central finite differences on a small
#    double-precision network with dropout off.


def test_analytic_gradients_match_finite_differences():
    start = time.monotonic()
    config = model.ClassifierConfig(
        num_categories=3,
        seq_len=10,
        embed_dims=8,
        filters=4,
        kernel_size=3,
        strides=1,
        pool_size=2,
        lstm_units=5,
        hide_u=8,
        dropout_level=0.0,
    )
    worst = model.gradient_check(config, seed=0)
    elapsed = time.monotonic() - start
    assert worst < 1e-4
    assert elapsed < 60
    print(f"PASS gradients: max relative error {worst:.3e} in {elapsed:.1f}s")


# --------------------------------------------------------------------------
# 2. The windowed co-occurrence counter matches a quadratic all-pairs oracle
#    on random sentences (1/d distance weighting, left contexts only).


def _brute_force_cooccurrence(sentences, window):
    counts = {}
    for sentence in sentences:
        n = len(sentence)
        for t in range(n):
            for u in range(n):
                d = t - u
                if 1 <= d <= window:
                    key = (int(sentence[t]), int(sentence[u]))
                    counts[key] = counts.get(key, 0.0) + 1.0 / d
    return counts


def test_windowed_cooccurrence_matches_brute_force():
    start = time.monotonic()
    rng = np.random.default_rng(20)
    checked = 0
    for window in (1, 2, 7, 23, 50):
        sentences = [
            rng.integers(0, 500, size=rng.integers(1, 301)).tolist()
            for _ in range(20)
        ]
        config = embedding.GloveConfig(window=window)
        table = embedding.build_cooccurrence(sentences, config)
        oracle = _brute_force_cooccurrence(sentences, window)
        assert set(table.counts) == set(oracle)
        for key, want in oracle.items():
            assert abs(table[key] - want) <= 1e-12, (window, key)
        checked += len(oracle)
    elapsed = time.monotonic() - start
    assert elapsed < 60
    print(
        f"PASS co-occurrence: 100 sentences, {checked} nonzero cells agree "
        f"within 1e-12 in {elapsed:.1f}s"
    )


# --------------------------------------------------------------------------
# 3. Training with stock settings on two disjoint co-occurrence clusters
#    yields embeddings whose intra-cluster cosine beats inter-cluster by a
#    clear margin.


def test_embedding_separates_disjoint_cooccurrence_clusters():
    start = time.monotonic()
    rng = np.random.default_rng(11)
    n_each = 20
    sentences = []
    for s in range(200):
        lo = 2 + (s % 2) * n_each  # ids 2..21 vs 22..41, never mixed
        sentences.append(rng.integers(lo, lo + n_each, size=30).tolist())

    config = embedding.GloveConfig(seed=12)  # stock settings throughout
    table = embedding.build_cooccurrence(sentences, config)
    matrix, _ = embedding.train_glove(table, 2 + 2 * n_each, config)

    def unit_rows(block):
        return block / np.linalg.norm(block, axis=1, keepdims=True)

    a = unit_rows(matrix[2 : 2 + n_each])
    b = unit_rows(matrix[2 + n_each : 2 + 2 * n_each])
    intra_a = (a @ a.T)[np.triu_indices(n_each, 1)].mean()
    intra_b = (b @ b.T)[np.triu_indices(n_each, 1)].mean()
    inter = (a @ b.T).mean()
    separation = (intra_a + intra_b) / 2 - inter
    elapsed = time.monotonic() - start
    assert separation >= 0.2
    assert elapsed < 120
    print(
        f"PASS separation: intra-inter cosine gap {separation:.3f} "
        f"(>= 0.2) in {elapsed:.1f}s"
    )


# --------------------------------------------------------------------------
# 4. Plurality voting and the metrics report match independent brute-force
#    oracles on random inputs, plus one hand-computed example.


def _oracle_vote(predictions):
    tally = {}
    for pred in predictions:
        probs = pred.probabilities
        winner = max(range(len(probs)), key=lambda c: probs[c])  # first max
        tally[winner] = tally.get(winner, 0) + 1
    top = max(tally.values())
    tied = sorted(cat for cat, n in tally.items() if n == top)
    if len(tied) > 1:
        sums = {
            cat: float(sum(p.probabilities[cat] for p in predictions))
            for cat in tied
        }
        best = max(sums.values())
        tied = sorted(cat for cat in tied if sums[cat] == best)
    return tied[0], tally


def _oracle_report(gold, predicted, categories):
    per_category = {}
    for cat in categories:
        tp = fp = fn = 0
        for g, p in zip(gold, predicted):
            tp += g == cat and p == cat
            fp += g != cat and p == cat
            fn += g == cat and p != cat
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        f1 = (
            2 * precision * recall / (precision + recall)
            if precision + recall
            else 0.0
        )
        per_category[cat] = (precision, recall, f1, tp + fn)
    total = len(gold)
    weighted = tuple(
        sum(m[i] * m[3] for m in per_category.values()) / total for i in range(3)
    )
    accuracy = sum(g == p for g, p in zip(gold, predicted)) / total
    return per_category, weighted, accuracy


def test_vote_and_report_match_independent_oracles():
    rng = np.random.default_rng(30)
    # A coarse pool of probability vectors makes count and sum ties common.
    for case in range(1000):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(1, 13))
        pool = rng.integers(1, 4, size=(4, k)).astype(float)
        pool /= pool.sum(axis=1, keepdims=True)
        predictions = [
            evaluation.Prediction(probabilities=pool[rng.integers(0, 4)].copy())
            for _ in range(n)
        ]
        verdict = evaluation.vote(predictions, project=f"case{case}")
        winner, tally = _oracle_vote(predictions)
        assert verdict.winner == winner, case
        assert verdict.tally == tally, case
        assert verdict.n_functions == n

        categories = ["alpha", "beta", "gamma", "delta", "epsilon"][:k]
        m = int(rng.integers(1, 41))
        gold = [categories[i] for i in rng.integers(0, k, size=m)]
        pred = [categories[i] for i in rng.integers(0, k, size=m)]
        report = evaluation.classification_report(gold, pred, categories)
        per_cat, weighted, accuracy = _oracle_report(gold, pred, categories)
        for cat in categories:
            got = report.per_category[cat]
            want = per_cat[cat]
            assert abs(got.precision - want[0]) <= 1e-12, case
            assert abs(got.recall - want[1]) <= 1e-12, case
            assert abs(got.f1 - want[2]) <= 1e-12, case
            assert got.support == want[3], case
        assert abs(report.weighted.precision - weighted[0]) <= 1e-12, case
        assert abs(report.weighted.recall - weighted[1]) <= 1e-12, case
        assert abs(report.weighted.f1 - weighted[2]) <= 1e-12, case
        assert abs(report.accuracy - accuracy) <= 1e-12, case
    print("PASS oracles: 1000 random vote + report cases agree within 1e-12")


def test_weighted_f1_hand_example():
    report = evaluation.classification_report(
        ["a", "a", "b", "b"], ["a", "b", "b", "b"], ["a", "b"]
    )
    assert abs(report.weighted.f1 - 11 / 15) <= 1e-12
    print(f"PASS hand example: weighted F1 {report.weighted.f1!r} == 11/15")


# --------------------------------------------------------------------------
# 5. Desk-scale end-to-end run on the bundled synthetic corpus, driven
#    through the command line exactly as a user would.


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    work = tmp_path_factory.mktemp("e2e")
    start = time.monotonic()
    corpus_dir = work / "corpus"
    _run("dataset", "synth", "-o", corpus_dir, "--seed", 0)
    _run("extract", corpus_dir, "--labels", corpus_dir / "labels.jsonl",
         "-o", work / "data.jsonl")
    _run("dataset", "split", work / "data.jsonl", "--holdout-per-cat", 5,
         "--per-cat", 600, "--seed", 1, "-o", work / "split")
    train = work / "split.train.jsonl"
    _run("embed", "train", train, "--strategy", "code-description",
         "--x-max", 10, "--iterations", 50, "--seed", 2,
         "-o", work / "emb_cd.txt")
    _run("embed", "random", "--train", train, "--seed", 3,
         "-o", work / "emb_rand.txt")
    _run("train", "nn", train, "--embedding", work / "emb_cd.txt",
         "--seed", 4, "-o", work / "nn_cd.ckpt")
    _run("train", "nn", train, "--embedding", work / "emb_rand.txt",
         "--seed", 4, "-o", work / "nn_rand.ckpt")
    _run("train", "lr", train, "--seed", 5, "-o", work / "lr.ckpt")

    f1 = {}
    for name in ("nn_cd", "nn_rand", "lr"):
        for variant in ("co", "cd"):
            report = work / f"report_{name}_{variant}.json"
            _run("eval", work / f"{name}.ckpt", work / "split.holdout.jsonl",
                 "--variant", variant, "--report", report)
            f1[(name, variant)] = json.loads(report.read_text())["weighted"]["f1"]
    return {
        "work": work,
        "corpus": corpus_dir,
        "holdout": work / "split.holdout.jsonl",
        "emb_cd": work / "emb_cd.txt",
        "nn_cd": work / "nn_cd.ckpt",
        "f1": f1,
        "elapsed": time.monotonic() - start,
    }


def test_pipeline_directional_results_on_synthetic_corpus(e2e):
    f1 = e2e["f1"]
    # (a) the description-aware network is strong on its own representation
    assert f1[("nn_cd", "cd")] >= 0.90
    # (b) dropping descriptions at prediction time never helps, per approach
    for name in ("nn_cd", "nn_rand", "lr"):
        assert f1[(name, "cd")] >= f1[(name, "co")], name
    # (c) the trained embedding beats a random one on code-only input
    assert f1[("nn_cd", "co")] >= f1[("nn_rand", "co")]
    # (d) the bag-of-words baseline is above chance but not above the network
    assert f1[("lr", "cd")] > 1 / 3
    assert f1[("lr", "co")] <= f1[("nn_cd", "co")]
    assert e2e["elapsed"] < 900
    pretty = {f"{n}/{v}": round(s, 3) for (n, v), s in sorted(f1.items())}
    print(f"PASS end-to-end: weighted F1 {pretty} in {e2e['elapsed']:.0f}s")


# --------------------------------------------------------------------------
# 6. Reproducibility: rerunning the whole pipeline with the same seeds and
#    paths yields byte-identical datasets, embeddings, and checkpoints.


def _tree_bytes(root):
    return [
        (str(path.relative_to(root)), path.read_bytes())
        for path in sorted(root.rglob("*"))
        if path.is_file()
    ]


def _small_pipeline(work):
    work.mkdir()
    corpus_dir = work / "corpus"
    _run("dataset", "synth", "-o", corpus_dir, "--categories", 2,
         "--projects-per-cat", 6, "--functions-per-project", 6, "--seed", 0)
    _run("extract", corpus_dir, "--labels", corpus_dir / "labels.jsonl",
         "-o", work / "data.jsonl")
    _run("dataset", "split", work / "data.jsonl", "--holdout-per-cat", 1,
         "--per-cat", 20, "--seed", 1, "-o", work / "split")
    train = work / "split.train.jsonl"
    _run("embed", "train", train, "--strategy", "code-description",
         "--x-max", 10, "--iterations", 5, "--seed", 2,
         "-o", work / "emb_cd.txt")
    _run("embed", "random", "--train", train, "--seed", 3,
         "-o", work / "emb_rand.txt")
    _run("train", "nn", train, "--embedding", work / "emb_cd.txt",
         "--epochs", 1, "--seed", 4, "-o", work / "nn.ckpt")
    _run("train", "lr", train, "--seed", 5, "-o", work / "lr.ckpt")
    snapshot = {"corpus": _tree_bytes(corpus_dir)}
    for name in ("data.jsonl", "split.train.jsonl", "split.holdout.jsonl",
                 "emb_cd.txt", "emb_rand.txt", "nn.ckpt", "lr.ckpt"):
        snapshot[name] = (work / name).read_bytes()
    return snapshot


def test_identical_seeds_reproduce_identical_artifacts(tmp_path):
    target = tmp_path / "pipe"  # same paths both times, so headers match too
    first = _small_pipeline(target)
    shutil.rmtree(target)
    second = _small_pipeline(target)
    for name in first:
        assert first[name] == second[name], name
    print(f"PASS determinism: {len(first)} artifacts byte-identical on rerun")


# --------------------------------------------------------------------------
# 7. The classifier trains everything except the embedding: the matrix in
#    the saved checkpoint is bit-identical to the trained embedding artifact.


def test_embedding_matrix_unchanged_by_classifier_training(e2e):
    vocab = embedding.vocab_from_embedding_text(e2e["emb_cd"])
    matrix = embedding.load_embedding_text(e2e["emb_cd"], vocab)
    net, _, _, _ = model.load_model(e2e["nn_cd"])
    assert net.embedding.shape == matrix.shape
    assert np.array_equal(matrix, net.embedding)
    print(f"PASS frozen embedding: {matrix.shape} matrix bit-identical after fit")


# --------------------------------------------------------------------------
# 8. Interpretability sanity: the convolution window with the highest
#    aggregate activation (mean over filters, as a position heatmap plots)
#    lands on the planted signature phrase for nearly every holdout function
#    that contains it.


def test_peak_activation_window_tracks_planted_phrase(e2e):
    net, vocab, _, _ = model.load_model(e2e["nn_cd"])
    with open(e2e["corpus"] / "manifest.json", encoding="utf-8") as fh:
        manifest = json.load(fh)
    phrases = {
        cat: set(manifest["plan"][cat]["phrase"])
        for cat in manifest["categories"]
    }
    holdout, _ = corpus.read_token_dataset(e2e["holdout"])
    kernel = net.config.kernel_size
    hits = total = 0
    for record in holdout:
        signature = phrases[record.category]
        co = tokens.variant_tokens(record.tokens, record.descr_tokens, "co")
        co = co[: net.config.seq_len]
        positions = {i for i, tok in enumerate(co) if tok in signature}
        if not positions:
            continue
        total += 1
        ids = tokens.encode(co, vocab, net.config.seq_len)
        heat = model.conv_activations(net, ids).mean(axis=1)
        t_star = int(np.argmax(heat))
        if positions & set(range(t_star, t_star + kernel)):
            hits += 1
    assert total > 0
    overlap = hits / total
    assert overlap >= 0.80
    print(f"PASS heatmap: peak window overlaps phrase {hits}/{total} = {overlap:.1%}")
