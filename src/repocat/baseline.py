"""Bag-of-words + multinomial logistic regression baseline.

Features are raw counts of the top-N training tokens (N=1800 by default),
ranked by frequency with ties broken by first appearance in the training
stream.  Counts are taken over the full, untruncated representation token
sequence, and held as `BowCounts`: CSR arrays (each row's feature indices
and counts), since a function uses a few dozen of the N tokens.  The
classifier is a hand-rolled softmax regression trained with deterministic
mini-batch gradient descent (cross-entropy + L2 on weights, biases
unpenalized).  Training multiplies the counts as a SciPy CSR matrix,
imported only there; prediction multiplies the CSR arrays in NumPy.
`LogregConfig` holds the settings, the run configuration's ``lr.*`` keys.
"""

import itertools
import logging
from collections import Counter
from dataclasses import dataclass

import numpy as np

from . import checkpoint
from .model import cross_entropy, softmax

logger = logging.getLogger(__name__)


@dataclass
class LogregConfig:
    vocab_size: int = 1800
    l2: float = 1e-4
    learning_rate: float = 0.1
    epochs: int = 50
    batch_size: int = 128
    seed: int = 0

    def validate(self):
        for name in ("vocab_size", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.l2 < 0:
            raise ValueError(f"l2 must be >= 0, got {self.l2}")
        return self


class BowVocabulary:
    """Token -> feature index for the top-N training tokens."""

    def __init__(self, tokens):
        self._tokens = list(tokens)
        self._index = {}
        for i, token in enumerate(self._tokens):
            if token in self._index:
                raise ValueError(f"duplicate bag-of-words token: {token!r}")
            self._index[token] = i

    def __len__(self):
        return len(self._tokens)

    def tokens(self):
        return list(self._tokens)

    @classmethod
    def build(cls, token_streams, size):
        """Top `size` tokens by count; ties broken by first-seen order."""
        if size < 1:
            raise ValueError(f"size must be >= 1, got {size}")
        counts = Counter()
        for stream in token_streams:
            counts.update(stream)
        if not counts:
            raise ValueError("empty corpus: no tokens for the bag-of-words vocabulary")
        # a Counter iterates in first-seen order, and sorted is stable
        ranked = sorted(counts, key=lambda t: -counts[t])
        return cls(ranked[:size])


def bow_features(tokens, vocab):
    """Sparse count features of one token sequence: {feature index: count}
    over the full sequence, in feature order (a row of `features_matrix`)."""
    row = features_matrix([tokens], vocab)
    return dict(zip(row.indices.tolist(), row.data.astype(np.int64).tolist()))


@dataclass
class BowCounts:
    """(N, n_features) counts in CSR layout: row r's features are
    indices[indptr[r]:indptr[r + 1]] (ascending) with counts data[...]."""

    data: np.ndarray  # float64 counts
    indices: np.ndarray  # feature index of each count
    indptr: np.ndarray  # (N + 1,) row starts
    n_features: int

    @property
    def shape(self):
        return (len(self.indptr) - 1, self.n_features)


def features_matrix(token_streams, vocab):
    """Bag-of-words counts of N token streams, as (N, len(vocab)) BowCounts.

    Every token of every stream is looked up once; np.unique then counts
    the (row, feature) pairs of the tokens in the vocabulary, in CSR order."""
    streams = list(token_streams)
    lengths = np.fromiter(map(len, streams), dtype=np.int64, count=len(streams))
    cols = np.fromiter(
        map(vocab._index.get, itertools.chain.from_iterable(streams), itertools.repeat(-1)),
        dtype=np.int64, count=int(lengths.sum()),
    )
    rows = np.repeat(np.arange(len(streams)), lengths)
    known = cols >= 0
    keys, counts = np.unique(rows[known] * len(vocab) + cols[known], return_counts=True)
    indptr = np.zeros(len(streams) + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // len(vocab), minlength=len(streams)), out=indptr[1:])
    return BowCounts(counts.astype(np.float64), keys % len(vocab), indptr, len(vocab))


@dataclass
class LinearModel:
    weights: np.ndarray  # (n_features, n_categories)
    bias: np.ndarray  # (n_categories,)
    epoch_losses: list  # objective recorded at the start of each epoch


def _objective(X, onehot, W, b, l2):
    loss = cross_entropy(softmax(X @ W + b), onehot)
    return float(loss + 0.5 * l2 * np.sum(W * W))


def train_logreg(features, labels, num_categories, config):
    """Softmax regression via deterministic mini-batch gradient descent,
    with the settings of the LogregConfig `config`.

    features: (N, F) BowCounts (see features_matrix), multiplied as a
    SciPy CSR matrix, so no batch copies a dense row.
    labels: category indices in [0, num_categories).  The recorded
    epoch_losses[k] is the full objective at the start of epoch k, so with
    batch_size >= N (full batch) the sequence is the classic descent curve.
    """
    from scipy import sparse  # imported here: eval and the nn commands never load it

    config.validate()
    if num_categories < 2:
        raise ValueError(f"need >= 2 categories, got {num_categories}")
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size == 0:
        raise ValueError("no training examples")
    if len(set(labels.tolist())) < 2:
        raise ValueError("training labels cover a single category; nothing to separate")
    if labels.min() < 0 or labels.max() >= num_categories:
        raise ValueError("label outside 0..num_categories-1")
    X = sparse.csr_array((features.data, features.indices, features.indptr),
                         shape=features.shape)
    if X.shape[0] != labels.size:
        raise ValueError(f"{X.shape[0]} feature rows vs {labels.size} labels")

    n, n_features = X.shape
    onehot = np.zeros((n, num_categories))
    onehot[np.arange(n), labels] = 1.0
    W = np.zeros((n_features, num_categories))
    b = np.zeros(num_categories)
    rng = np.random.default_rng(config.seed)
    epoch_losses = []
    for epoch in range(config.epochs):
        epoch_losses.append(_objective(X, onehot, W, b, config.l2))
        order = rng.permutation(n)
        for lo in range(0, n, config.batch_size):
            sel = order[lo : lo + config.batch_size]
            Xb, Yb = X[sel], onehot[sel]
            probs = softmax(Xb @ W + b)
            dlogits = (probs - Yb) / len(sel)
            gW = Xb.T @ dlogits + config.l2 * W
            gb = dlogits.sum(axis=0)
            W -= config.learning_rate * gW
            b -= config.learning_rate * gb
        if not np.isfinite(W).all() or not np.isfinite(b).all():
            raise FloatingPointError(
                f"logistic regression diverged at epoch {epoch + 1}"
            )
    logger.info("logreg: %d examples, %d features, final objective %.6f",
                n, n_features, _objective(X, onehot, W, b, config.l2))
    return LinearModel(weights=W, bias=b, epoch_losses=epoch_losses)


def predict_logreg(model, features):
    """(N, C) probabilities for (N, n_features) BowCounts.

    The logits are the CSR product: each count times its feature's weight
    row, summed per row, so a call holds (nonzero counts, C) floats, not
    the (N, n_features) dense matrix."""
    n_features = model.weights.shape[0]
    if features.n_features != n_features:
        raise ValueError(
            f"feature matrix shape {features.shape}, expected (N, {n_features})"
        )
    terms = model.weights[features.indices]
    terms *= features.data[:, None]
    logits = np.zeros((features.shape[0], model.weights.shape[1]))
    # the sums run over the rows that have counts: reduceat sums from each
    # start to the next, and an empty row's start equals its successor's
    starts = features.indptr[:-1]
    filled = starts < features.indptr[1:]
    if filled.any():
        logits[filled] = np.add.reduceat(terms, starts[filled], axis=0)
    logits += model.bias
    return softmax(logits)


def save_baseline(path, model, bow_vocab, categories, extra_meta=None):
    meta = {
        "kind": "lr",
        "categories": list(categories),
        "bow_tokens": bow_vocab.tokens(),
    }
    meta.update(extra_meta or {})
    arrays = {"weights": model.weights, "bias": model.bias}
    checkpoint.save_checkpoint(path, meta, arrays)


def from_checkpoint(meta, arrays, path):
    """(model, bow_vocab, categories) from a loaded lr checkpoint; path
    names the file in errors."""
    if meta.get("kind") != "lr":
        raise ValueError(f"{path}: checkpoint kind {meta.get('kind')!r}, expected 'lr'")
    checkpoint.require_meta(path, meta, ("bow_tokens", "categories"))
    bow, categories = BowVocabulary(meta["bow_tokens"]), meta["categories"]
    checkpoint.require_arrays(path, arrays, {
        "weights": (len(bow), len(categories)), "bias": (len(categories),),
    })
    model = LinearModel(weights=arrays["weights"], bias=arrays["bias"], epoch_losses=[])
    return model, bow, categories
