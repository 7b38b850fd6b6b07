"""Word embeddings trained on function token sequences.

Co-occurrence counting uses an asymmetric left-context window: for each
position t and offset j in [1, window], the pair (token[t], token[t-j])
accumulates weight 1/j.  Windows never cross sentence boundaries.  One
sentence per function: the code-only strategy uses the function's co
representation; code-description prepends the tokenized project description
(no delimiter token in embedding sentences).

Training minimizes the weighted least-squares objective

    sum_ij f(X_ij) (w_i . w~_j + b_i + b~_j - log X_ij)^2,
    f(x) = (x / x_max)^alpha for x < x_max, else 1

with AdaGrad (per-parameter squared-gradient accumulators initialized to 1)
on one augmented matrix per side, W = [w | b | 1] and Wt = [w~ | 1 | b~]:
the row dot product W_i . Wt_j is w_i . w~_j + b_i + b~_j, and the constant
columns get zero gradient.  The published vector for each token is w + w~;
rows 0 (padding) and 1 (unknown) stay exactly zero and never train.

For speed the nonzero entries are processed in seeded-shuffled chunks with
scatter-add updates; gradients within a chunk are taken at chunk-start
parameters rather than strictly sequentially.  Deterministic for a fixed
seed.  Training stops with FloatingPointError when an iteration's loss is
not finite or exceeds DIVERGENCE_FACTOR times the initial loss: too large a
step or chunk makes the loss blow up while it is still finite.
"""

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from . import fileio
from .tokens import PAD_ID, UNK_ID

logger = logging.getLogger(__name__)

STRATEGIES = ("code-only", "code-description")

# An iteration whose mean loss exceeds this multiple of the loss at
# initialization has diverged; healthy runs fall below the initial loss.
DIVERGENCE_FACTOR = 10.0


@dataclass
class GloveConfig:
    window: int = 200
    dims: int = 100
    x_max: float = 100.0
    alpha: float = 0.75
    learning_rate: float = 0.05
    iterations: int = 25
    seed: int = 0
    distance_weighting: bool = True

    def validate(self):
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if self.dims < 1:
            raise ValueError(f"dims must be >= 1, got {self.dims}")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.x_max <= 0:
            raise ValueError(f"x_max must be positive, got {self.x_max}")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.iterations < 0:
            raise ValueError(f"iterations must be >= 0, got {self.iterations}")
        return self


def embedding_sentences(records, strategy):
    """Token sentences for embedding training, one per function record.

    records are corpus.FunctionTokens: .tokens (the co representation) and
    .descr_tokens (possibly empty).
    code-description prepends the description tokens; functions without a
    description emit their code-only sentence under either strategy.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown embedding strategy: {strategy!r}")
    sentences = []
    for rec in records:
        if strategy == "code-description" and rec.descr_tokens:
            sentences.append(list(rec.descr_tokens) + list(rec.tokens))
        else:
            sentences.append(list(rec.tokens))
    return sentences


class CooccurrenceTable:
    """Sparse (target id, left-context id) -> weighted count, held as three
    parallel arrays sorted by (target, context)."""

    def __init__(self, targets, contexts, values):
        self.targets = targets
        self.contexts = contexts
        self.values = values

    def __len__(self):
        return len(self.values)

    def __getitem__(self, pair):
        target, context = pair
        lo, hi = np.searchsorted(self.targets, (target, target + 1))
        at = lo + int(np.searchsorted(self.contexts[lo:hi], context))
        if at < hi and self.contexts[at] == context:
            return float(self.values[at])
        return 0.0

    @property
    def counts(self):
        """The table as a {(target, context): count} dict."""
        pairs = zip(self.targets.tolist(), self.contexts.tolist())
        return dict(zip(pairs, self.values.tolist()))

    def to_arrays(self):
        """Sorted (targets, contexts, counts) arrays for training."""
        return self.targets, self.contexts, self.values


def build_cooccurrence(sentences, config):
    """Count left-context co-occurrences over id-encoded sentences.

    For each offset j the tokens of all sentences, laid end to end, are
    paired with the tokens j places to their left; pairs that stay inside
    one sentence are encoded as target * base + context and counted with
    np.unique.  Summing the offsets' weights per key gives the entries
    already in sorted (target, context) order.
    """
    config.validate()
    lengths = np.array([len(s) for s in sentences], dtype=np.int64)
    tokens = np.fromiter(
        itertools.chain.from_iterable(sentences), dtype=np.int64, count=int(lengths.sum())
    )
    if tokens.min(initial=0) < 0:
        raise ValueError("token ids must be non-negative")
    base = int(tokens.max(initial=0)) + 1
    pos = np.arange(len(tokens)) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    keys = [np.zeros(0, dtype=np.int64)]
    weights = [np.zeros(0)]
    for j in range(1, min(config.window, int(pos.max(initial=0))) + 1):
        inside = pos[j:] >= j
        offset_keys, n = np.unique(
            tokens[j:][inside] * base + tokens[:-j][inside], return_counts=True
        )
        keys.append(offset_keys)
        weights.append(n / (j if config.distance_weighting else 1))
    keys, slot = np.unique(np.concatenate(keys), return_inverse=True)
    values = np.bincount(slot, weights=np.concatenate(weights), minlength=len(keys))
    return CooccurrenceTable(keys // base, keys % base, values)


def train_glove(table, vocab_size, config, chunk=16384):
    """Train vectors on a co-occurrence table.

    Returns (matrix, losses): matrix is (vocab_size, dims) float64 of
    published vectors w + w~ with rows 0/1 zero; losses[0] is the mean loss
    at initialization, then one running mean loss per iteration.  With
    iterations=0 the seeded random initialization is published unchanged.
    """
    config.validate()
    ii, jj, xx = table.to_arrays()
    keep = (ii >= 2) & (jj >= 2) & (ii < vocab_size) & (jj < vocab_size)
    if not np.all(keep):
        ii, jj, xx = ii[keep], jj[keep], xx[keep]
    n_entries = len(xx)
    dims = config.dims
    rng = np.random.default_rng(config.seed)

    def init(shape):
        return (rng.random(shape) - 0.5) / (dims + 1)

    W = np.ones((vocab_size, dims + 2))
    Wt = np.ones((vocab_size, dims + 2))
    W[:, :dims] = init((vocab_size, dims))
    Wt[:, :dims] = init((vocab_size, dims))
    W[:, dims] = init(vocab_size)
    Wt[:, dims + 1] = init(vocab_size)
    W[:2] = Wt[:2] = 0.0
    GW = np.ones_like(W)
    GWt = np.ones_like(Wt)

    def publish():
        published = W[:, :dims] + Wt[:, :dims]
        published[:2] = 0.0
        return published

    if n_entries == 0:
        return publish(), [0.0]

    logx = np.log(xx)
    fx = np.minimum((xx / config.x_max) ** config.alpha, 1.0)
    lr = config.learning_rate

    def mean_loss():
        diff = np.einsum("nd,nd->n", W[ii], Wt[jj]) - logx
        return float(np.mean(0.5 * fx * diff * diff))

    losses = [mean_loss()]
    for iteration in range(config.iterations):
        order = rng.permutation(n_entries)
        total = 0.0
        for lo in range(0, n_entries, chunk):
            sel = order[lo : lo + chunk]
            i_s, j_s = ii[sel], jj[sel]
            wi, wj = W[i_s], Wt[j_s]
            diff = np.einsum("nd,nd->n", wi, wj) - logx[sel]
            fdiff = fx[sel] * diff
            total += float(0.5 * fdiff @ diff)
            gi = fdiff[:, None] * wj
            gj = fdiff[:, None] * wi
            gi[:, dims + 1] = 0.0  # the constant columns
            gj[:, dims] = 0.0
            np.add.at(W, i_s, -lr * gi / np.sqrt(GW[i_s]))
            np.add.at(Wt, j_s, -lr * gj / np.sqrt(GWt[j_s]))
            np.add.at(GW, i_s, gi * gi)
            np.add.at(GWt, j_s, gj * gj)
        iteration_loss = total / n_entries
        if not iteration_loss <= DIVERGENCE_FACTOR * losses[0]:  # also catches nan
            raise FloatingPointError(
                f"embedding training diverged at iteration {iteration + 1}: "
                f"loss {iteration_loss}, initial loss {losses[0]}"
            )
        losses.append(iteration_loss)
        logger.info("glove iteration %d/%d loss %.6f",
                    iteration + 1, config.iterations, iteration_loss)

    return publish(), losses


def nearest_neighbors(matrix, vocab, token, k=10):
    """k nearest tokens by cosine similarity; ties broken by lowest id.

    Padding, unknown, the query itself, and zero-vector tokens are excluded.
    Raises KeyError for out-of-vocabulary queries and ValueError for
    zero-vector queries (cosine undefined).
    """
    if token not in vocab:
        raise KeyError(f"token not in vocabulary: {token!r}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    query_id = vocab.id_of(token)
    query = matrix[query_id]
    qnorm = float(np.linalg.norm(query))
    if qnorm == 0.0:
        raise ValueError(f"token {token!r} has a zero vector; cosine undefined")
    norms = np.linalg.norm(matrix, axis=1)
    eligible = np.flatnonzero(norms > 0.0)
    eligible = eligible[(eligible >= 2) & (eligible != query_id)]
    if len(eligible) == 0:
        return []
    sims = (matrix[eligible] @ query) / (norms[eligible] * qnorm)
    order = np.lexsort((eligible, -sims))[: min(k, len(eligible))]
    return [(vocab.token_of(int(eligible[o])), float(sims[o])) for o in order]


def save_embedding_text(path, matrix, vocab, meta=None):
    """Text artifact: '# key=value' provenance lines then 'token v1 .. vD'
    rows for ids 2.. in id order (so the file carries the vocabulary)."""
    if matrix.shape[0] != len(vocab):
        raise ValueError(
            f"matrix has {matrix.shape[0]} rows but vocabulary needs {len(vocab)}"
        )
    lines = fileio.comment_header(meta or {})
    for offset, token in enumerate(vocab.tokens()):
        row = matrix[2 + offset]
        lines.append(token + " " + " ".join(repr(float(v)) for v in row))
    fileio.atomic_write_text(path, "\n".join(lines) + "\n")


def load_embedding_text(path, vocab):
    """Load 'token v1 .. vD' rows aligned to vocab; the first row sets D.

    Tokens outside the vocabulary are ignored; vocabulary tokens missing from
    the file keep zero vectors, as do padding/unknown.  Inconsistent column
    counts or duplicate tokens raise ValueError with the line number.
    """
    rows = {}
    dims = None
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            parts = line.split(" ")
            token, values = parts[0], parts[1:]
            if dims is None:
                dims = len(values)
                if dims == 0:
                    raise ValueError(f"{path}: line {lineno}: no vector values")
            if len(values) != dims:
                raise ValueError(
                    f"{path}: line {lineno}: expected {dims} values, got {len(values)}"
                )
            if token in rows:
                raise ValueError(f"{path}: line {lineno}: duplicate token {token!r}")
            try:
                rows[token] = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: bad float: {exc}") from exc
    if dims is None:
        raise ValueError(f"{path}: no embedding rows found")
    matrix = np.zeros((len(vocab), dims), dtype=np.float64)
    for token, vector in rows.items():
        if token in vocab:
            matrix[vocab.id_of(token)] = vector
    matrix[PAD_ID] = 0.0
    matrix[UNK_ID] = 0.0
    return matrix


def vocab_from_embedding_text(path):
    """Recover the id-ordered token list from an embedding artifact."""
    from .tokens import Vocabulary

    tokens = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            tokens.append(line.split(" ", 1)[0])
    if not tokens:
        raise ValueError(f"{path}: no embedding rows found")
    return Vocabulary(tokens)


def random_embedding(vocab_size, dims=100, seed=0, scale=0.5):
    """Seeded uniform(-scale, scale) matrix with zero pad/unknown rows."""
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-scale, scale, size=(vocab_size, dims))
    matrix[:2] = 0.0
    return matrix
