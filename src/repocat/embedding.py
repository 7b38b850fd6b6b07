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

For speed the nonzero entries are processed in seeded-shuffled chunks.
Gradients within a chunk are taken at chunk-start parameters rather than
strictly sequentially, and every update a chunk makes to a row divides by
the row's chunk-start accumulator, so each side takes one step per chunk on
the rows the chunk touches: W -= lr * sum(g) / sqrt(G) and G += sum(g^2)
on those rows.  The per-row sums are sparse products (SciPy): A, a CSR
matrix with one row per touched target row and one column per touched
context row, holds the chunk's f(X_ij) * diff_ij, and since the table's
pairs are distinct each cell holds at most one entry.  So sum(g) for W's
rows is A @ Wt[cols] and sum(g^2) is (A * A) @ Wt[cols]^2, and A's
transpose gives Wt's, all from chunk-start rows.  The cost of a chunk
follows the chunk, not the vocabulary.  The row dot products are taken a
block of entries at a time, and the loss at initialization chunk by chunk,
so no step gathers more than one block's rows per entry.  Deterministic
for a fixed seed.  Training stops with FloatingPointError when an
iteration's loss is not finite or exceeds DIVERGENCE_FACTOR times the
initial loss: too large a step or chunk makes the loss blow up while it is
still finite.
"""

import itertools
import logging
from dataclasses import dataclass

import numpy as np

from . import fileio
from .tokens import PAD_ID, UNK_ID, Vocabulary

logger = logging.getLogger(__name__)

STRATEGIES = ("code-only", "code-description")

# An iteration whose mean loss exceeds this multiple of the loss at
# initialization has diverged; healthy runs fall below the initial loss.
DIVERGENCE_FACTOR = 10.0

# Entries per gather in GloVe's row dot products.  On a 16,384-entry chunk
# of the quick-start table, 1,024-entry blocks took 5.2 ms against 8.6 ms
# for whole-chunk gathers (256: 5.6 ms, 4,096: 6.1 ms): the rows stay in
# cache between gather and dot, and the sums are the same bits.
DOT_BLOCK = 1024


@dataclass
class GloveConfig:
    window: int = 200
    dims: int = 100
    x_max: float = 100.0
    alpha: float = 0.75
    learning_rate: float = 0.05
    iterations: int = 25
    seed: int = 0

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
    np.unique.  The offsets' weights are summed into a running table of
    distinct keys, sorted, so the entries come out in (target, context)
    order.  The offsets wait in a pending list until they hold as many keys
    as the table; then a stable sort of the table and the pending keys,
    each a sorted run, merges them, and one np.bincount with the table's
    values first sums them.  Memory follows the distinct pairs, not the
    pair occurrences, and since bincount adds in array order, every count
    is summed over offsets 1, 2, ... in turn, as one merge at the end would
    sum it.
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
    keys = np.zeros(0, dtype=np.int64)
    values = np.zeros(0)
    pending_keys, pending_weights = [], []

    def merge():
        # the table and each pending offset are sorted runs of distinct
        # keys, which a stable sort (a timsort) merges run by run instead of
        # sorting them afresh; the weights go to bincount in array order
        merged = np.concatenate([keys] + pending_keys)
        order = np.argsort(merged, kind="stable")
        merged = merged[order]
        first = np.empty(len(merged), dtype=bool)
        first[:1] = True
        np.not_equal(merged[1:], merged[:-1], out=first[1:])
        slot = np.empty(len(merged), dtype=np.int64)
        slot[order] = np.cumsum(first) - 1
        sums = np.bincount(slot, weights=np.concatenate([values] + pending_weights))
        pending_keys.clear()
        pending_weights.clear()
        return merged[first], sums

    for j in range(1, min(config.window, int(pos.max(initial=0))) + 1):
        inside = pos[j:] >= j
        offset_keys, n = np.unique(
            tokens[j:][inside] * base + tokens[:-j][inside], return_counts=True
        )
        pending_keys.append(offset_keys)
        pending_weights.append(n / j)
        if sum(map(len, pending_keys)) >= len(keys):
            keys, values = merge()
    if pending_keys:
        keys, values = merge()
    return CooccurrenceTable(keys // base, keys % base, values)


def train_glove(table, vocab_size, config, chunk=16384):
    """Train vectors on a co-occurrence table.

    Returns (matrix, losses): matrix is (vocab_size, dims) float64 of
    published vectors w + w~ with rows 0/1 zero; losses[0] is the mean loss
    at initialization, then one running mean loss per iteration.  With
    iterations=0 the seeded random initialization is published unchanged.
    """
    from scipy import sparse  # imported here: the CLI's other commands never load it

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

    def row_dots(i, j):
        """W[i] . Wt[j] entry by entry, gathered DOT_BLOCK entries at a time."""
        out = np.empty(len(i))
        for lo in range(0, len(i), DOT_BLOCK):
            at = slice(lo, lo + DOT_BLOCK)
            out[at] = np.einsum("nd,nd->n", W[i[at]], Wt[j[at]])
        return out

    def mean_loss():
        total = 0.0
        for lo in range(0, n_entries, chunk):
            at = slice(lo, lo + chunk)
            diff = row_dots(ii[at], jj[at]) - logx[at]
            total += float(0.5 * (fx[at] * diff) @ diff)
        return total / n_entries

    def adagrad_step(M, G, rows, g, g2):
        """One chunk's step on `rows` of M and G from the rows' summed
        gradients g, which it scales in place, and squared gradients g2."""
        g *= lr
        g /= np.sqrt(G[rows])
        M[rows] -= g
        G[rows] += g2

    losses = [mean_loss()]
    for iteration in range(config.iterations):
        order = rng.permutation(n_entries)
        total = 0.0
        for lo in range(0, n_entries, chunk):
            sel = order[lo : lo + chunk]
            i_s, j_s = ii[sel], jj[sel]
            diff = row_dots(i_s, j_s) - logx[sel]
            fdiff = fx[sel] * diff
            total += float(0.5 * fdiff @ diff)
            rows, r = np.unique(i_s, return_inverse=True)
            cols, c = np.unique(j_s, return_inverse=True)
            # chunk-start rows: both sides' sums are taken before either steps
            wr, wc = W[rows], Wt[cols]
            # the pairs are distinct, so A holds one entry per touched cell:
            # row sums of the gradients fdiff * Wt[j] are A @ Wt[cols], and of
            # their squares (A*A) @ Wt[cols]**2; the transposes give Wt's
            A = sparse.csr_array((fdiff, (r, c)), shape=(len(rows), len(cols)))
            A2 = A.power(2)
            wc[:, dims + 1] = 0.0  # the constant columns get no gradient
            wr[:, dims] = 0.0
            gw, gwt = A @ wc, A.T @ wr
            np.square(wc, out=wc)
            np.square(wr, out=wr)
            adagrad_step(W, GW, rows, gw, A2 @ wc)
            adagrad_step(Wt, GWt, cols, gwt, A2.T @ wr)
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
    counts, values that are not finite floats, or duplicate tokens raise
    ValueError with the line number.
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
                vector = np.array([float(v) for v in values], dtype=np.float64)
            except ValueError as exc:
                raise ValueError(f"{path}: line {lineno}: bad float: {exc}") from exc
            if not np.isfinite(vector).all():
                raise ValueError(f"{path}: line {lineno}: non-finite vector value")
            rows[token] = vector
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


def random_embedding(vocab_size, dims=100, seed=0):
    """Seeded uniform(-0.5, 0.5) matrix with zero pad/unknown rows."""
    rng = np.random.default_rng(seed)
    matrix = rng.uniform(-0.5, 0.5, size=(vocab_size, dims))
    matrix[:2] = 0.0
    return matrix
