"""Co-occurrence counting, embedding training, IO, and neighbor queries."""

import numpy as np
import pytest

from repocat import embedding, tokens
from repocat.corpus import FunctionTokens
from repocat.embedding import GloveConfig


def oracle_cooccurrence(sentences, window, weighted=True):
    """Brute-force position-pair oracle for the left-context count."""
    counts = {}
    for sent in sentences:
        for t2 in range(len(sent)):
            for t1 in range(max(0, t2 - window), t2):
                key = (sent[t2], sent[t1])
                weight = 1.0 / (t2 - t1) if weighted else 1.0
                counts[key] = counts.get(key, 0.0) + weight
    return counts


class TestCooccurrence:
    def test_frozen_small_example(self):
        # sentence [a b c] = ids [2 3 4], window 2:
        #   (b,a)=1, (c,b)=1, (c,a)=1/2
        table = embedding.build_cooccurrence([[2, 3, 4]], GloveConfig(window=2))
        assert table[(3, 2)] == 1.0
        assert table[(4, 3)] == 1.0
        assert table[(4, 2)] == 0.5
        assert len(table) == 3

    def test_window_clipped_at_sentence_start(self):
        table = embedding.build_cooccurrence([[2, 3]], GloveConfig(window=50))
        assert table.counts == {(3, 2): 1.0}

    def test_sentences_never_mix(self):
        joint = embedding.build_cooccurrence([[2, 3], [4, 5]], GloveConfig(window=4))
        assert (4, 3) not in joint.counts
        assert (5, 2) not in joint.counts

    def test_repeated_pairs_accumulate(self):
        # [a a a] window 1: (a,a) twice at distance 1
        table = embedding.build_cooccurrence([[2, 2, 2]], GloveConfig(window=1))
        assert table[(2, 2)] == 2.0

    def test_matches_oracle_randomized(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n_sent = int(rng.integers(1, 6))
            window = int(rng.integers(1, 10))
            sentences = [
                [int(x) for x in rng.integers(2, 12, size=rng.integers(1, 40))]
                for _ in range(n_sent)
            ]
            table = embedding.build_cooccurrence(sentences, GloveConfig(window=window))
            oracle = oracle_cooccurrence(sentences, window)
            assert set(table.counts) == set(oracle)
            for key, want in oracle.items():
                assert abs(table[key] - want) <= 1e-12

    def test_no_pairs_gives_empty_table(self):
        for sentences in ([], [[]], [[5], [], [7]]):
            table = embedding.build_cooccurrence(sentences, GloveConfig(window=3))
            assert len(table) == 0 and table.counts == {}
            assert table[(5, 7)] == 0.0
            assert [a.size for a in table.to_arrays()] == [0, 0, 0]

    def test_arrays_sorted_by_target_then_context(self):
        table = embedding.build_cooccurrence([[9, 2, 30, 2, 9]], GloveConfig(window=4))
        ii, jj, xx = table.to_arrays()
        assert list(zip(ii.tolist(), jj.tolist())) == sorted(table.counts)
        assert xx.tolist() == [table.counts[k] for k in sorted(table.counts)]

    def test_negative_ids_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            embedding.build_cooccurrence([[2, -1]], GloveConfig(window=2))

    def test_distance_weighting_off(self):
        cfg = GloveConfig(window=3, distance_weighting=False)
        table = embedding.build_cooccurrence([[2, 3, 4]], cfg)
        assert table[(4, 2)] == 1.0


class TestEmbeddingSentences:
    records = [
        FunctionTokens("proj", "fn", "sound", ["proj", "fn", "int", "x"], ["audio", "mixer"]),
        FunctionTokens("proj2", "fn2", "sound", ["proj2", "fn2", "return"]),
    ]

    def test_code_only(self):
        sents = embedding.embedding_sentences(self.records, "code-only")
        assert sents == [["proj", "fn", "int", "x"], ["proj2", "fn2", "return"]]

    def test_code_description_prepends(self):
        sents = embedding.embedding_sentences(self.records, "code-description")
        assert sents[0] == ["audio", "mixer", "proj", "fn", "int", "x"]
        assert sents[1] == ["proj2", "fn2", "return"]  # no description

    def test_no_delimiter_token_in_sentences(self):
        sents = embedding.embedding_sentences(self.records, "code-description")
        assert all(tokens.DESCR_DELIM not in s for s in sents)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError):
            embedding.embedding_sentences(self.records, "words")


def _toy_table(seed=0, vocab_size=30, n_sentences=40):
    """Sentences with two token communities that co-occur within themselves."""
    rng = np.random.default_rng(seed)
    sentences = []
    for s in range(n_sentences):
        lo, hi = (2, vocab_size // 2) if s % 2 == 0 else (vocab_size // 2, vocab_size)
        sentences.append([int(x) for x in rng.integers(lo, hi, size=20)])
    return embedding.build_cooccurrence(sentences, GloveConfig(window=5)), sentences


def oracle_glove(table, vocab_size, config, chunk):
    """Per-entry reference for train_glove on four separate arrays.

    Vectors w, w~ and biases b, b~ each have an AdaGrad accumulator
    initialized to 1.  Every entry of a chunk takes its loss and gradients
    at the chunk-start parameters and divides by the chunk-start
    accumulators; the seeded draws (w, w~, b, b~, then one permutation per
    iteration) are those of train_glove.
    """
    dims, lr = config.dims, config.learning_rate
    entries = [
        (i, j, x) for i, j, x in zip(*(a.tolist() for a in table.to_arrays()))
        if 2 <= i < vocab_size and 2 <= j < vocab_size
    ]
    rng = np.random.default_rng(config.seed)
    params = [
        (rng.random(shape) - 0.5) / (dims + 1)
        for shape in ((vocab_size, dims), (vocab_size, dims), vocab_size, vocab_size)
    ]
    for arr in params:
        arr[:2] = 0.0
    w, wt, b, bt = params
    grads = [np.ones_like(arr) for arr in params]
    gw, gwt, gb, gbt = grads

    def weight(x):
        return min((x / config.x_max) ** config.alpha, 1.0)

    def loss(i, j, x):
        diff = float(w[i] @ wt[j]) + b[i] + bt[j] - np.log(x)
        return diff, 0.5 * weight(x) * diff * diff

    losses = [sum(loss(*e)[1] for e in entries) / len(entries)]
    for _ in range(config.iterations):
        order = rng.permutation(len(entries))
        total = 0.0
        for lo in range(0, len(entries), chunk):
            start = [arr.copy() for arr in params + grads]
            w0, wt0, b0, bt0, gw0, gwt0, gb0, gbt0 = start
            for k in order[lo : lo + chunk]:
                i, j, x = entries[k]
                diff = float(w0[i] @ wt0[j]) + b0[i] + bt0[j] - np.log(x)
                fdiff = weight(x) * diff
                total += 0.5 * fdiff * diff
                g_w, g_wt = fdiff * wt0[j], fdiff * w0[i]
                w[i] -= lr * g_w / np.sqrt(gw0[i])
                wt[j] -= lr * g_wt / np.sqrt(gwt0[j])
                b[i] -= lr * fdiff / np.sqrt(gb0[i])
                bt[j] -= lr * fdiff / np.sqrt(gbt0[j])
                gw[i] += g_w * g_w
                gwt[j] += g_wt * g_wt
                gb[i] += fdiff * fdiff
                gbt[j] += fdiff * fdiff
        losses.append(total / len(entries))
    published = w + wt
    published[:2] = 0.0
    return published, losses


class TestGloveOracle:
    @pytest.mark.parametrize("iterations,chunk", [(4, 7), (4, 100000), (0, 7)])
    def test_matches_per_entry_reference(self, iterations, chunk):
        table, _ = _toy_table(seed=6)
        assert len(table) == 393
        cfg = GloveConfig(window=5, dims=8, iterations=iterations, seed=6)
        matrix, losses = embedding.train_glove(table, 30, cfg, chunk=chunk)
        want_matrix, want_losses = oracle_glove(table, 30, cfg, chunk)
        assert len(losses) == len(want_losses) == iterations + 1
        np.testing.assert_allclose(losses, want_losses, rtol=1e-12, atol=0)
        np.testing.assert_allclose(matrix, want_matrix, rtol=0, atol=1e-12)


class TestTrainGlove:
    def test_loss_decreases(self):
        table, _ = _toy_table()
        cfg = GloveConfig(window=5, dims=16, iterations=10, seed=1)
        matrix, losses = embedding.train_glove(table, 30, cfg)
        assert len(losses) == 11
        # running loss of an iteration is measured pre-update, so compare the
        # final iteration against both the first iteration and the init loss
        assert losses[-1] < losses[1]
        assert losses[-1] < losses[0]
        assert matrix.shape == (30, 16)

    def test_reserved_rows_stay_zero(self):
        table, _ = _toy_table()
        cfg = GloveConfig(window=5, dims=8, iterations=3, seed=2)
        matrix, _ = embedding.train_glove(table, 30, cfg)
        np.testing.assert_array_equal(matrix[0], np.zeros(8))
        np.testing.assert_array_equal(matrix[1], np.zeros(8))

    def test_zero_iterations_returns_init_with_loss(self):
        table, _ = _toy_table()
        cfg = GloveConfig(window=5, dims=8, iterations=0, seed=3)
        matrix, losses = embedding.train_glove(table, 30, cfg)
        assert len(losses) == 1 and np.isfinite(losses[0])
        assert matrix.shape == (30, 8)
        assert np.abs(matrix[2:]).max() <= 2.0 / 9  # init bound: 2 * 0.5/(dims+1)

    def test_deterministic(self):
        table, _ = _toy_table()
        cfg = GloveConfig(window=5, dims=8, iterations=4, seed=9)
        m1, l1 = embedding.train_glove(table, 30, cfg)
        m2, l2 = embedding.train_glove(table, 30, cfg)
        np.testing.assert_array_equal(m1, m2)
        assert l1 == l2

    def test_cooccurring_tokens_end_up_closer(self):
        # Two disjoint communities: within-community cosine should beat
        # across-community cosine on average after training.
        table, _ = _toy_table(seed=5)
        cfg = GloveConfig(window=5, dims=16, iterations=30, seed=5)
        matrix, _ = embedding.train_glove(table, 30, cfg)
        unit = matrix[2:] / np.linalg.norm(matrix[2:], axis=1, keepdims=True)
        a, b = unit[: 15 - 2], unit[15 - 2 :]
        within = (np.mean(a @ a.T) + np.mean(b @ b.T)) / 2
        across = np.mean(a @ b.T)
        assert within > across + 0.2

    def test_chunk_size_changes_nothing_semantically_catastrophic(self):
        # Different chunk sizes give slightly different trajectories but the
        # same seeded shuffle; loss must still decrease for both.
        table, _ = _toy_table(seed=6)
        cfg = GloveConfig(window=5, dims=8, iterations=5, seed=6)
        _, l_small = embedding.train_glove(table, 30, cfg, chunk=7)
        _, l_big = embedding.train_glove(table, 30, cfg, chunk=100000)
        assert l_small[-1] < l_small[0]
        assert l_big[-1] < l_big[0]

    def test_finite_blow_up_raises(self):
        # one chunk at learning rate 0.5: the loss climbs by orders of
        # magnitude per iteration and stays finite for the whole run
        table, _ = _toy_table()
        cfg = GloveConfig(window=5, dims=10, iterations=8, learning_rate=0.5, x_max=10)
        with pytest.raises(FloatingPointError, match="diverged"):
            embedding.train_glove(table, 30, cfg, chunk=100000)

    def test_healthy_run_passes_the_blow_up_check(self):
        table, _ = _toy_table()
        cfg = GloveConfig(window=5, dims=10, iterations=8, learning_rate=0.05, x_max=10)
        _, losses = embedding.train_glove(table, 30, cfg, chunk=100000)
        assert len(losses) == 9
        assert max(losses) <= losses[0] * (1 + 1e-12)
        assert losses[-1] < losses[0] / 10


class TestEmbeddingTextIO:
    def _vocab(self):
        return tokens.build_vocabulary([["alpha", "beta", "gamma"]])

    def test_round_trip_is_exact(self, tmp_path):
        vocab = self._vocab()
        rng = np.random.default_rng(0)
        matrix = rng.normal(size=(len(vocab), 6))
        matrix[:2] = 0.0
        path = tmp_path / "emb.txt"
        embedding.save_embedding_text(path, matrix, vocab, meta={"seed": 0})
        loaded = embedding.load_embedding_text(path, vocab)
        np.testing.assert_array_equal(loaded, matrix)  # bitwise

    def test_vocab_recoverable_from_artifact(self, tmp_path):
        vocab = self._vocab()
        matrix = np.ones((len(vocab), 3))
        path = tmp_path / "emb.txt"
        embedding.save_embedding_text(path, matrix, vocab, meta={"k": "v"})
        recovered = embedding.vocab_from_embedding_text(path)
        assert recovered == vocab

    def test_missing_tokens_zero_extras_ignored(self, tmp_path):
        vocab = self._vocab()
        path = tmp_path / "glove.txt"
        path.write_text("beta 1.0 2.0\nsomethingelse 9.0 9.0\n")
        matrix = embedding.load_embedding_text(path, vocab)
        np.testing.assert_array_equal(matrix[vocab.id_of("beta")], [1.0, 2.0])
        np.testing.assert_array_equal(matrix[vocab.id_of("alpha")], [0.0, 0.0])
        assert matrix.shape == (len(vocab), 2)

    def test_wrong_width_names_line(self, tmp_path):
        path = tmp_path / "glove.txt"
        path.write_text("alpha 1.0 2.0\nbeta 3.0\n")
        with pytest.raises(ValueError, match="line 2"):
            embedding.load_embedding_text(path, self._vocab())

    def test_duplicate_token_rejected(self, tmp_path):
        path = tmp_path / "glove.txt"
        path.write_text("alpha 1.0\nalpha 2.0\n")
        with pytest.raises(ValueError, match="duplicate"):
            embedding.load_embedding_text(path, self._vocab())

    def test_byte_identical_reruns(self, tmp_path):
        vocab = self._vocab()
        matrix = np.random.default_rng(1).normal(size=(len(vocab), 4))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        embedding.save_embedding_text(p1, matrix, vocab, meta={"seed": 1})
        embedding.save_embedding_text(p2, matrix, vocab, meta={"seed": 1})
        assert p1.read_bytes() == p2.read_bytes()


class TestNearestNeighbors:
    def _setup(self):
        vocab = tokens.build_vocabulary([["q", "near", "far", "mid", "zero"]])
        matrix = np.zeros((len(vocab), 3))
        matrix[vocab.id_of("q")] = [1.0, 0.0, 0.0]
        matrix[vocab.id_of("near")] = [0.9, 0.1, 0.0]
        matrix[vocab.id_of("far")] = [-1.0, 0.0, 0.0]
        matrix[vocab.id_of("mid")] = [0.5, 0.5, 0.0]
        # "zero" stays a zero vector
        return vocab, matrix

    def test_orders_by_cosine(self):
        vocab, matrix = self._setup()
        got = embedding.nearest_neighbors(matrix, vocab, "q", k=3)
        assert [t for t, _ in got] == ["near", "mid", "far"]
        assert got[0][1] > got[1][1] > got[2][1]

    def test_excludes_query_pad_unk_and_zero_vectors(self):
        vocab, matrix = self._setup()
        got = embedding.nearest_neighbors(matrix, vocab, "q", k=10)
        names = [t for t, _ in got]
        assert "q" not in names and "zero" not in names
        assert len(got) == 3  # fewer eligible than k

    def test_tie_breaks_by_lower_id(self):
        vocab = tokens.build_vocabulary([["q", "t1", "t2"]])
        matrix = np.zeros((len(vocab), 2))
        matrix[vocab.id_of("q")] = [1.0, 0.0]
        matrix[vocab.id_of("t1")] = [2.0, 0.0]
        matrix[vocab.id_of("t2")] = [3.0, 0.0]  # same cosine as t1
        got = embedding.nearest_neighbors(matrix, vocab, "q", k=2)
        assert [t for t, _ in got] == ["t1", "t2"]

    def test_zero_vector_query_rejected(self):
        vocab, matrix = self._setup()
        with pytest.raises(ValueError):
            embedding.nearest_neighbors(matrix, vocab, "zero", k=2)

    def test_unknown_token_rejected(self):
        vocab, matrix = self._setup()
        with pytest.raises(KeyError):
            embedding.nearest_neighbors(matrix, vocab, "nope", k=2)


def test_random_embedding_properties():
    m1 = embedding.random_embedding(10, dims=4, seed=3)
    m2 = embedding.random_embedding(10, dims=4, seed=3)
    m3 = embedding.random_embedding(10, dims=4, seed=4)
    np.testing.assert_array_equal(m1, m2)
    assert np.abs(m1 - m3).max() > 0
    np.testing.assert_array_equal(m1[:2], np.zeros((2, 4)))
    assert np.abs(m1).max() <= 0.5
