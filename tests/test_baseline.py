"""Bag-of-words features and logistic-regression baseline contracts."""

import tracemalloc

import numpy as np
import pytest

from repocat import baseline as B
from repocat import checkpoint
from repocat.model import cross_entropy, softmax


def _dense(counts):
    """BowCounts as a dense (N, n_features) float64 matrix."""
    X = np.zeros(counts.shape)
    X[np.repeat(np.arange(counts.shape[0]), np.diff(counts.indptr)), counts.indices] = counts.data
    return X


def _counts(X):
    """BowCounts holding the dense count matrix X."""
    X = np.asarray(X, dtype=np.float64)
    rows, cols = np.nonzero(X)
    indptr = np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=len(X)))])
    return B.BowCounts(X[rows, cols], cols, indptr, X.shape[1])


class TestBowVocabulary:
    def test_frequency_ranking(self):
        streams = [["b", "a", "b", "c", "b", "a"]]
        vocab = B.BowVocabulary.build(streams, size=2)
        assert vocab.tokens() == ["b", "a"]

    def test_tie_breaks_by_first_seen(self):
        streams = [["x", "y", "z", "y", "x", "z"]]  # all count 2
        vocab = B.BowVocabulary.build(streams, size=3)
        assert vocab.tokens() == ["x", "y", "z"]

    def test_size_cap(self):
        streams = [[f"t{i}" for i in range(100)]]
        vocab = B.BowVocabulary.build(streams, size=10)
        assert len(vocab) == 10

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            B.BowVocabulary.build([[]], 10)

    def test_default_size_1800(self):
        assert B.LogregConfig().vocab_size == 1800


class TestBowFeatures:
    vocab = B.BowVocabulary(["alpha", "beta"])

    def test_raw_counts_full_sequence(self):
        # 70 tokens: counts must not truncate at any sequence cap
        toks = ["alpha"] * 64 + ["beta"] * 3 + ["junk"] * 3
        feats = B.bow_features(toks, self.vocab)
        assert feats == {0: 64, 1: 3}

    def test_out_of_vocab_ignored(self):
        assert B.bow_features(["junk", "stuff"], self.vocab) == {}

    def test_matrix_densification(self):
        X = B.features_matrix([["alpha", "alpha"], ["beta", "junk"], []], self.vocab)
        np.testing.assert_array_equal(_dense(X), [[2, 0], [0, 1], [0, 0]])

    def test_rows_are_csr_with_ascending_indices(self):
        vocab = B.BowVocabulary(["a", "b", "c", "d"])
        X = B.features_matrix([["d", "b", "d"], [], ["c", "a", "junk", "a"]], vocab)
        assert X.shape == (3, 4)
        np.testing.assert_array_equal(X.indptr, [0, 2, 2, 4])
        np.testing.assert_array_equal(X.indices, [1, 3, 0, 2])
        np.testing.assert_array_equal(X.data, [1.0, 2.0, 2.0, 1.0])

    def test_matches_a_per_stream_count_byte_for_byte(self):
        # the row-at-a-time build features_matrix replaced: one dict of
        # counts per stream, its columns sorted
        rng = np.random.default_rng(1)
        vocab = B.BowVocabulary([f"t{i}" for i in range(0, 30, 2)])
        streams = [[f"t{int(i)}" for i in rng.integers(0, 40, int(n))]
                   for n in rng.integers(0, 90, 48)]
        streams[10:10] = [[], ["t1", "t3", "t1"]]  # empty, and out of vocabulary
        index = {t: i for i, t in enumerate(vocab.tokens())}
        data, indices, indptr = [], [], [0]
        for stream in streams:
            counts = {}
            for token in stream:
                if token in index:
                    counts[index[token]] = counts.get(index[token], 0) + 1
            indices.extend(sorted(counts))
            data.extend(counts[i] for i in sorted(counts))
            indptr.append(len(indices))
        X = B.features_matrix(iter(streams), vocab)
        for got, want in ((X.data, np.array(data, dtype=np.float64)),
                          (X.indices, np.array(indices, dtype=np.int64)),
                          (X.indptr, np.array(indptr, dtype=np.int64))):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert X.shape == (50, 15)

    def test_every_bow_column_occurs_in_training(self):
        # train lr sizes its matrix by len(vocab): no column is left empty
        rng = np.random.default_rng(0)
        streams = [[f"t{int(i)}" for i in rng.integers(0, 12, 9)] for _ in range(20)]
        for size in (3, 8, 1800):
            vocab = B.BowVocabulary.build(streams, size=size)
            X = B.features_matrix(streams, vocab)
            assert X.shape == (20, min(size, 12))
            assert (_dense(X).sum(axis=0) > 0).all()


def _separable(n_per_class=40, n_features=6, seed=0):
    """Class c counts mostly features in its own half."""
    rng = np.random.default_rng(seed)
    X, y = [], []
    for label in (0, 1):
        lo = 0 if label == 0 else n_features // 2
        for _ in range(n_per_class):
            row = np.zeros(n_features)
            picks = rng.integers(lo, lo + n_features // 2, size=5)
            for pick in picks:
                row[pick] += 1
            X.append(row)
            y.append(label)
    return np.array(X), np.array(y)


class TestTrainLogreg:
    def test_learns_separable_data(self):
        X, y = _separable()
        model = B.train_logreg(_counts(X), y, 2, B.LogregConfig(epochs=50, seed=1))
        preds = np.argmax(X @ model.weights + model.bias, axis=1)
        assert np.mean(preds == y) > 0.95

    def test_full_batch_loss_non_increasing(self):
        X, y = _separable(seed=3)
        model = B.train_logreg(_counts(X), y, 2, B.LogregConfig(
            learning_rate=0.05, epochs=30, batch_size=len(y), seed=3
        ))
        losses = np.array(model.epoch_losses)
        assert len(losses) == 30
        assert np.all(np.diff(losses) <= 1e-12)

    def test_deterministic(self):
        X, y = _separable(seed=5)
        m1 = B.train_logreg(_counts(X), y, 2, B.LogregConfig(seed=7))
        m2 = B.train_logreg(_counts(X), y, 2, B.LogregConfig(seed=7))
        np.testing.assert_array_equal(m1.weights, m2.weights)
        np.testing.assert_array_equal(m1.bias, m2.bias)

    def test_l2_shrinks_weights(self):
        X, y = _separable(seed=2)
        loose = B.train_logreg(_counts(X), y, 2, B.LogregConfig(l2=0.0, epochs=40, seed=2))
        tight = B.train_logreg(_counts(X), y, 2, B.LogregConfig(l2=1.0, epochs=40, seed=2))
        assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)

    def test_single_category_rejected(self):
        with pytest.raises(ValueError, match="single category"):
            B.train_logreg(_counts(np.ones((4, 2))), [1, 1, 1, 1], 2, B.LogregConfig())

    def test_bad_labels_rejected(self):
        with pytest.raises(ValueError):
            B.train_logreg(_counts(np.ones((2, 2))), [0, 5], 2, B.LogregConfig())

    def test_defaults_match_contract(self):
        cfg = B.LogregConfig()
        assert (cfg.l2, cfg.learning_rate, cfg.epochs) == (1e-4, 0.1, 50)
        assert (cfg.batch_size, cfg.seed) == (128, 0)


def dense_reference_logreg(X, labels, num_categories, l2_lambda=1e-4, lr=0.1,
                           epochs=50, batch_size=128, seed=0):
    """train_logreg's descent on a dense (N, F) matrix: (weights, bias,
    epoch_losses).  The same draws and steps, with no input checks."""
    def objective(W, b):
        loss = cross_entropy(softmax(X @ W + b), onehot)
        return float(loss + 0.5 * l2_lambda * np.sum(W * W))

    n, n_features = X.shape
    onehot = np.zeros((n, num_categories))
    onehot[np.arange(n), labels] = 1.0
    W = np.zeros((n_features, num_categories))
    b = np.zeros(num_categories)
    rng = np.random.default_rng(seed)
    epoch_losses = []
    for _ in range(epochs):
        epoch_losses.append(objective(W, b))
        order = rng.permutation(n)
        for lo in range(0, n, batch_size):
            sel = order[lo : lo + batch_size]
            Xb, Yb = X[sel], onehot[sel]
            probs = softmax(Xb @ W + b)
            dlogits = (probs - Yb) / len(sel)
            W -= lr * (Xb.T @ dlogits + l2_lambda * W)
            b -= lr * dlogits.sum(axis=0)
    return W, b, epoch_losses


@pytest.mark.parametrize("batch_size", [64, 1000])
def test_sparse_training_matches_the_dense_reference(batch_size):
    # random token streams over 60 tokens, 4 categories whose streams lean
    # to their own quarter of the tokens; 300 rows leave a short last batch
    rng = np.random.default_rng(21)
    labels = rng.integers(0, 4, size=300)
    streams = [
        [f"t{int(t)}" for t in np.concatenate([rng.integers(0, 60, 20),
                                               rng.integers(15 * c, 15 * c + 15, 10)])]
        for c in labels
    ]
    vocab = B.BowVocabulary.build(streams, size=50)
    X = B.features_matrix(streams, vocab)
    got = B.train_logreg(X, labels, 4, B.LogregConfig(epochs=12, batch_size=batch_size, seed=3))
    W, b, losses = dense_reference_logreg(_dense(X), labels, 4, epochs=12,
                                          batch_size=batch_size, seed=3)
    np.testing.assert_allclose(got.weights, W, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.bias, b, rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.epoch_losses, losses, rtol=0, atol=1e-12)
    assert losses[-1] < losses[0] / 2


class TestPredict:
    def test_probabilities_normalize(self):
        model = B.LinearModel(np.zeros((3, 4)), np.zeros(4), [])
        vocab = B.BowVocabulary(["a", "b", "c"])
        probs = B.predict_logreg(model, B.features_matrix([["a"], [], ["c"] * 3], vocab))
        np.testing.assert_allclose(probs.sum(axis=1), 1.0)
        assert probs.shape == (3, 4)

    def test_dimension_mismatch_rejected(self):
        model = B.LinearModel(np.zeros((3, 2)), np.zeros(2), [])
        with pytest.raises(ValueError):
            B.predict_logreg(model, _counts(np.zeros((1, 5))))

    def test_batch_matches_row_at_a_time(self):
        X, y = _separable(seed=4)
        model = B.train_logreg(_counts(X), y, 2, B.LogregConfig(seed=4))
        whole = B.predict_logreg(model, _counts(X))
        for i in range(len(X)):
            np.testing.assert_allclose(
                B.predict_logreg(model, _counts(X[i : i + 1]))[0], whole[i],
                rtol=0, atol=1e-12,
            )


def _predict_call(n_rows, seed):
    """A 1,800-feature model over 6 categories, and BowCounts of n_rows
    streams of 0-119 Zipf-drawn tokens, a share of them out of vocabulary
    (so some rows are empty)."""
    rng = np.random.default_rng(seed)
    vocab = B.BowVocabulary([f"t{i}" for i in range(1800)])
    streams = [[f"t{int(i)}" for i in rng.zipf(1.3, int(n)) % 2500]
               for n in rng.integers(0, 120, n_rows)]
    streams[3:3] = [[], ["t1900", "t2000"]]
    model = B.LinearModel(rng.normal(size=(1800, 6)), rng.normal(size=6), [])
    return model, B.features_matrix(streams, vocab)


class TestSparsePredict:
    """predict_logreg multiplies the CSR counts, never the dense matrix."""

    @pytest.mark.parametrize("n_rows", [1, 254])
    def test_matches_the_dense_product(self, n_rows):
        model, X = _predict_call(n_rows, seed=n_rows)
        want = softmax(_dense(X) @ model.weights + model.bias)
        np.testing.assert_allclose(B.predict_logreg(model, X), want, rtol=0, atol=1e-12)

    def test_rows_without_counts_take_the_bias(self):
        model, _ = _predict_call(1, seed=0)
        for n_rows in (0, 3):
            got = B.predict_logreg(model, _counts(np.zeros((n_rows, 1800))))
            np.testing.assert_array_equal(got, softmax(np.tile(model.bias, (n_rows, 1))))

    def test_memory_follows_the_counts_not_the_dense_matrix(self):
        model, X = _predict_call(254, seed=2)
        B.predict_logreg(model, X)
        tracemalloc.start()
        try:
            B.predict_logreg(model, X)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 0.42 MB for these 256 rows and 7,286 counts; the dense matrix
        # alone is 3.7 MB
        assert peak < X.shape[0] * X.shape[1] * 8 / 5, peak


def test_save_load_round_trip(tmp_path):
    X, y = _separable(seed=9)
    model = B.train_logreg(_counts(X), y, 2, B.LogregConfig(seed=9))
    vocab = B.BowVocabulary([f"tok{i}" for i in range(X.shape[1])])
    path = tmp_path / "baseline.ckpt"
    B.save_baseline(path, model, vocab, ["games", "sound"], {"seed": 9})
    meta, arrays = checkpoint.load_checkpoint(path)
    loaded, vocab2, categories = B.from_checkpoint(meta, arrays, path)
    np.testing.assert_array_equal(loaded.weights, model.weights)
    np.testing.assert_array_equal(loaded.bias, model.bias)
    assert vocab2.tokens() == vocab.tokens()
    assert categories == ["games", "sound"]
    assert meta["seed"] == 9
    x = np.zeros((1, X.shape[1]))
    x[0, 0] = 2
    x = _counts(x)
    np.testing.assert_array_equal(
        B.predict_logreg(loaded, x), B.predict_logreg(model, x)
    )


@pytest.mark.parametrize("edit, message", [
    (lambda arrays: arrays.pop("bias"), "checkpoint arrays"),
    (lambda arrays: arrays.update(weights=arrays["weights"][:-1]), "'weights' has shape"),
], ids=["missing", "wrong-shape"])
def test_load_checks_array_names_and_shapes(tmp_path, edit, message):
    X, y = _separable(seed=9)
    model = B.train_logreg(_counts(X), y, 2, B.LogregConfig(seed=9))
    vocab = B.BowVocabulary([f"tok{i}" for i in range(X.shape[1])])
    path = tmp_path / "baseline.ckpt"
    B.save_baseline(path, model, vocab, ["games", "sound"])
    meta, arrays = checkpoint.load_checkpoint(path)
    edit(arrays)
    with pytest.raises(ValueError, match=r"baseline\.ckpt: .*" + message):
        B.from_checkpoint(meta, arrays, path)
