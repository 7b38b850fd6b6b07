"""Function-level classifier: frozen embedding -> conv -> maxpool -> LSTM
-> dense -> softmax, trained with Adamax, in numpy.

`fit` trains a TRAIN_DTYPE (float32) working copy of the parameters and
optimizer state and returns float64 parameters (the trained values widened
exactly).  Everything else runs in the dtype of `model.params`, which is
float64 for a fresh, fitted or loaded model: inference, `conv_activations`
and `gradient_check`.  The embedding stays the caller's float64 array; the
forward pass casts the looked-up rows to the parameters' dtype.

Architecture at defaults (seq_len 60, kernel 3, stride 1, pool 2):

    ids (60,) -> embed lookup (60, 100)          [frozen, never trained]
             -> valid conv, 250 filters, ReLU    (58, 250)
             -> non-overlapping max pool 2       (29, 250)
             -> LSTM 100 units, final hidden     (100,)
             -> dense 512, ReLU, dropout 0.5     (512,)
             -> dense softmax                    (|categories|,)

Weights use Glorot-uniform init (limit sqrt(6 / (fan_in + fan_out));
conv fans are kernel*embed_dims and filters; LSTM per-gate fans are
(input_size, units)).  Biases start at zero except the LSTM forget gate,
which starts at one.  Gate order in the stacked LSTM matrices is i, f, g, o.

Training picks the best of `epochs` per-epoch snapshots by function-level
accuracy on a withheld-project validation slice.  Dropout is inverted
(scaling at train time), so inference needs no rescaling.
"""

import logging
from dataclasses import asdict, dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

logger = logging.getLogger(__name__)

# Rows per forward pass in predict_proba.  Measured on 3,600 evaluated
# functions: 16 rows ran 2.5x faster than 1 row, as fast as 32 rows, and
# kept peak memory about 4 MB lower than 32; activations grow with rows.
PREDICT_ROWS = 16

# Training precision.  A batch-128 train step at the stock shapes took
# 84 ms in float32 against 208 ms in float64 (best of 9; 2-CPU Xeon,
# NumPy 2.4.6, OpenBLAS): the GEMMs run at twice the rate and the
# elementwise LSTM work moves half the bytes.
TRAIN_DTYPE = np.float32

PARAM_NAMES = (
    "conv_w", "conv_b",
    "lstm_wx", "lstm_wh", "lstm_b",
    "hid_w", "hid_b",
    "out_w", "out_b",
)


@dataclass
class ClassifierConfig:
    num_categories: int
    seq_len: int = 60
    embed_dims: int = 100
    filters: int = 250
    kernel_size: int = 3
    strides: int = 1
    pool_size: int = 2
    lstm_units: int = 100
    hide_u: int = 512
    dropout_level: float = 0.5
    epochs: int = 3
    batch_size: int = 128
    learning_rate: float = 0.002
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    validation_fraction: float = 0.05
    seed: int = 0

    @property
    def conv_len(self):
        return (self.seq_len - self.kernel_size) // self.strides + 1

    @property
    def pooled_len(self):
        return self.conv_len // self.pool_size

    def validate(self):
        if self.num_categories < 2:
            raise ValueError(f"need >= 2 categories, got {self.num_categories}")
        for name in ("seq_len", "embed_dims", "filters", "kernel_size", "strides",
                     "pool_size", "lstm_units", "hide_u", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.kernel_size > self.seq_len:
            raise ValueError("kernel_size cannot exceed seq_len")
        if self.pooled_len < 1:
            raise ValueError("pool_size too large: pooled sequence would be empty")
        if not 0.0 <= self.dropout_level < 1.0:
            raise ValueError(f"dropout_level must be in [0, 1), got {self.dropout_level}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        return self


class ClassifierModel:
    """Parameters + frozen embedding + Adamax state."""

    def __init__(self, config, embedding, params, history=None):
        self.config = config
        self.embedding = embedding
        self.params = params
        self.opt_m = {k: np.zeros_like(v) for k, v in params.items()}
        self.opt_u = {k: np.zeros_like(v) for k, v in params.items()}
        self.opt_t = 0
        self.history = history or {}

    def snapshot_params(self):
        return {k: v.copy() for k, v in self.params.items()}

    def astype(self, dtype):
        """Copy whose parameters and Adamax state are `dtype`; the embedding
        and history are shared."""
        def cast(arrays):
            return {k: v.astype(dtype) for k, v in arrays.items()}

        copy = ClassifierModel(self.config, self.embedding, cast(self.params), self.history)
        copy.opt_m, copy.opt_u, copy.opt_t = cast(self.opt_m), cast(self.opt_u), self.opt_t
        return copy


def _glorot(rng, shape, fan_in, fan_out):
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=shape)


def init_model(config, embedding, seed=None):
    """Fresh model; draw order: conv_w, lstm_wx, lstm_wh, hid_w, out_w."""
    config.validate()
    embedding = np.asarray(embedding, dtype=np.float64)
    if embedding.ndim != 2 or embedding.shape[1] != config.embed_dims:
        raise ValueError(
            f"embedding shape {embedding.shape} incompatible with "
            f"embed_dims {config.embed_dims}"
        )
    if embedding.shape[0] < 2:
        raise ValueError("embedding needs at least the padding and unknown rows")
    rng = np.random.default_rng(config.seed if seed is None else seed)
    K, D, F = config.kernel_size, config.embed_dims, config.filters
    U, H, C = config.lstm_units, config.hide_u, config.num_categories
    params = {
        "conv_w": _glorot(rng, (K, D, F), K * D, F),
        "conv_b": np.zeros(F),
        "lstm_wx": _glorot(rng, (F, 4 * U), F, U),
        "lstm_wh": _glorot(rng, (U, 4 * U), U, U),
        "lstm_b": np.zeros(4 * U),
        "hid_w": _glorot(rng, (U, H), U, H),
        "hid_b": np.zeros(H),
        "out_w": _glorot(rng, (H, C), H, C),
        "out_b": np.zeros(C),
    }
    params["lstm_b"][U : 2 * U] = 1.0  # forget-gate bias
    return ClassifierModel(config, embedding, params)


def _sigmoid_(x):
    """Logistic sigmoid in place, as 0.5 * (1 + tanh(x / 2)): one ufunc
    pass with no overflow branch."""
    x *= 0.5
    np.tanh(x, out=x)
    x += 1.0
    x *= 0.5


def softmax(logits):
    """Row-wise softmax of an (N, C) array."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def _forward(model, ids, training=False, rng=None, want_cache=False):
    """Batched forward pass; ids is (B, seq_len) int.

    Returns (probs, cache); cache is None unless want_cache.  Without a
    cache, each intermediate is dropped as soon as the next layer has
    consumed it, so peak memory is about two layers' activations.
    """
    cfg = model.config
    ids = np.asarray(ids)
    if ids.ndim != 2 or ids.shape[1] != cfg.seq_len:
        raise ValueError(f"ids must be (batch, {cfg.seq_len}), got {ids.shape}")
    if ids.min() < 0 or ids.max() >= model.embedding.shape[0]:
        raise ValueError("token id outside embedding table")
    p = model.params
    B = ids.shape[0]
    K, D, F, U = cfg.kernel_size, cfg.embed_dims, cfg.filters, cfg.lstm_units
    T, T2, PS = cfg.conv_len, cfg.pooled_len, cfg.pool_size

    dt = p["conv_w"].dtype
    X = model.embedding[ids].astype(dt, copy=False)  # (B, L, D)
    win = sliding_window_view(X, K, axis=1)[:, ::cfg.strides]  # (B, T, D, K)
    win_flat = win.transpose(0, 1, 3, 2).reshape(B * T, K * D)
    del X, win
    A = win_flat @ p["conv_w"].reshape(K * D, F)
    A += p["conv_b"]
    np.maximum(A, 0.0, out=A)  # ReLU in place; backward masks with A > 0
    A = A.reshape(B, T, F)
    if not want_cache:
        del win_flat

    usable = A[:, : T2 * PS, :].reshape(B, T2, PS, F)
    P = usable.max(axis=2)  # (B, T2, F)
    pool_mask = None
    if want_cache:
        # the gradient goes to the first max of each window: clear every
        # later position that ties with one already taken
        pool_mask = usable == P[:, :, None, :]
        taken = pool_mask[:, :, 0].copy()
        for k in range(1, PS):
            pool_mask[:, :, k] &= ~taken
            taken |= pool_mask[:, :, k]
    else:
        del A
    del usable

    # input projection for every step at once; the loop turns each step's
    # slice into that step's gate activations in place
    G = (P.reshape(B * T2, F) @ p["lstm_wx"]).reshape(B, T2, 4 * U)
    G += p["lstm_b"]
    if not want_cache:
        del P
    h = np.zeros((B, U), dtype=dt)
    c = np.zeros((B, U), dtype=dt)
    if want_cache:
        H_prev = np.empty((B, T2, U), dtype=dt)
        C_prev = np.empty((B, T2, U), dtype=dt)
        TC = np.empty((B, T2, U), dtype=dt)
    for t in range(T2):
        z = G[:, t]
        z += h @ p["lstm_wh"]
        _sigmoid_(z[:, : 2 * U])
        np.tanh(z[:, 2 * U : 3 * U], out=z[:, 2 * U : 3 * U])
        _sigmoid_(z[:, 3 * U :])
        if want_cache:
            H_prev[:, t] = h
            C_prev[:, t] = c
        c = z[:, U : 2 * U] * c + z[:, :U] * z[:, 2 * U : 3 * U]
        tc = np.tanh(c)
        h = z[:, 3 * U :] * tc
        if want_cache:
            TC[:, t] = tc
    if not want_cache:
        del G

    hid_pre = h @ p["hid_w"] + p["hid_b"]
    Hact = np.maximum(hid_pre, 0.0)
    mask = None
    if training and cfg.dropout_level > 0.0:
        if rng is None:
            raise ValueError("training with dropout requires an rng")
        keep = 1.0 - cfg.dropout_level
        mask = ((rng.random(Hact.shape) < keep) / keep).astype(dt, copy=False)
        Hd = Hact * mask
    else:
        Hd = Hact
    logits = Hd @ p["out_w"] + p["out_b"]
    probs = softmax(logits)

    cache = None
    if want_cache:
        cache = {
            "win_flat": win_flat, "A": A, "pool_mask": pool_mask, "P": P,
            "G": G, "H_prev": H_prev, "C_prev": C_prev, "TC": TC,
            "h_last": h, "hid_pre": hid_pre, "mask": mask, "Hd": Hd,
            "probs": probs,
        }
    return probs, cache


def _backward(model, cache, onehot):
    """Gradients of mean cross-entropy w.r.t. all trainable parameters."""
    cfg = model.config
    p = model.params
    dt = p["conv_w"].dtype
    B = onehot.shape[0]
    K, F, U = cfg.kernel_size, cfg.filters, cfg.lstm_units
    T, T2, PS = cfg.conv_len, cfg.pooled_len, cfg.pool_size

    dlogits = (cache["probs"] - onehot.astype(dt, copy=False)) / B
    grads = {}
    grads["out_w"] = cache["Hd"].T @ dlogits
    grads["out_b"] = dlogits.sum(axis=0)
    dHd = dlogits @ p["out_w"].T
    dH = dHd * cache["mask"] if cache["mask"] is not None else dHd
    dhid_pre = dH * (cache["hid_pre"] > 0.0)
    grads["hid_w"] = cache["h_last"].T @ dhid_pre
    grads["hid_b"] = dhid_pre.sum(axis=0)

    # the loop only carries dh/dc back through time; it writes each step's
    # gate-input gradient into dG, and the weight gradients are one matmul
    # each over all steps afterwards
    G, C_prev, TC = cache["G"], cache["C_prev"], cache["TC"]
    dG = np.empty((B, T2, 4 * U), dtype=dt)
    dh = dhid_pre @ p["hid_w"].T
    dc = np.zeros_like(dh)
    for t in range(T2 - 1, -1, -1):
        g = G[:, t]
        gi, gf, gg, go = g[:, :U], g[:, U : 2 * U], g[:, 2 * U : 3 * U], g[:, 3 * U :]
        tc = TC[:, t]
        dc += dh * go * (1.0 - tc * tc)
        dz = dG[:, t]
        dz[:, :U] = dc * gg * gi * (1.0 - gi)
        dz[:, U : 2 * U] = dc * C_prev[:, t] * gf * (1.0 - gf)
        dz[:, 2 * U : 3 * U] = dc * gi * (1.0 - gg * gg)
        dz[:, 3 * U :] = dh * tc * go * (1.0 - go)
        dh = dz @ p["lstm_wh"].T
        dc *= gf
    dG = dG.reshape(B * T2, 4 * U)
    grads["lstm_wx"] = cache["P"].reshape(B * T2, F).T @ dG
    grads["lstm_wh"] = cache["H_prev"].reshape(B * T2, U).T @ dG
    grads["lstm_b"] = dG.sum(axis=0)
    dP = (dG @ p["lstm_wx"].T).reshape(B, T2, 1, F)
    del dG

    dZ = np.zeros((B, T, F), dtype=dt)
    dZ[:, : T2 * PS, :] = (cache["pool_mask"] * dP).reshape(B, T2 * PS, F)
    dZ *= cache["A"] > 0.0
    dZ_flat = dZ.reshape(B * T, F)
    grads["conv_w"] = (cache["win_flat"].T @ dZ_flat).reshape(K, cfg.embed_dims, F)
    grads["conv_b"] = dZ_flat.sum(axis=0)
    return grads


def cross_entropy(probs, onehot, floor=1e-300):
    """Mean negative log-likelihood of the gold categories."""
    picked = np.clip((probs * onehot).sum(axis=1), floor, None)
    return float(-np.mean(np.log(picked)))


def adamax_update(model, grads):
    """One Adamax step: m = b1 m + (1-b1) g;  u = max(b2 u, |g|);
    param -= lr * (m / (1 - b1^t)) / (u + eps)."""
    cfg = model.config
    model.opt_t += 1
    correction = 1.0 - cfg.beta1 ** model.opt_t
    for name, grad in grads.items():
        m = model.opt_m[name]
        u = model.opt_u[name]
        m *= cfg.beta1
        m += (1.0 - cfg.beta1) * grad
        np.maximum(cfg.beta2 * u, np.abs(grad), out=u)
        model.params[name] -= cfg.learning_rate * (m / correction) / (u + cfg.epsilon)


def train_step(model, ids, onehot, rng=None):
    """Forward + backward + Adamax on one minibatch; returns the batch loss."""
    probs, cache = _forward(model, ids, training=True, rng=rng, want_cache=True)
    loss = cross_entropy(probs, onehot)
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite training loss: {loss}")
    grads = _backward(model, cache, onehot)
    for name, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"non-finite gradient in {name}")
    adamax_update(model, grads)
    return loss


def predict_proba(model, ids, batch_size=PREDICT_ROWS):
    """Probabilities for (N, seq_len) ids, batch_size rows per forward
    pass; returns (N, C).  A 1-D ids is one sequence."""
    ids = np.asarray(ids)
    if ids.ndim == 1:
        ids = ids[None, :]
    out = np.empty((ids.shape[0], model.config.num_categories))
    for lo in range(0, ids.shape[0], batch_size):
        probs, _ = _forward(model, ids[lo : lo + batch_size], training=False)
        out[lo : lo + probs.shape[0]] = probs
    return out


def conv_activations(model, ids):
    """Post-ReLU convolution activations for one sequence: (conv_len, filters)."""
    _, cache = _forward(model, np.asarray(ids)[None, :], want_cache=True)
    return cache["A"][0].copy()


@dataclass
class TrainExample:
    """One training instance: a represented function with its category index."""

    project: str
    ids: np.ndarray
    label: int


def pick_best_epoch(accuracies):
    """Index of the highest validation accuracy; first wins ties."""
    if not accuracies:
        raise ValueError("no epochs recorded")
    return int(np.argmax(accuracies))


def fit(model, examples):
    """Train for config.epochs epochs; return the best snapshot as a new model.

    A fraction of training *projects* (validation_fraction, at least one
    project) is withheld; after each epoch the parameters are snapshotted and
    scored by function-level accuracy on the withheld slice.  The snapshot
    with the highest validation accuracy wins (earliest epoch on ties).  The
    embedding is frozen throughout.  The returned model carries a `history`
    dict with per-epoch losses and validation accuracies.

    Training runs on a TRAIN_DTYPE copy of the parameters and Adamax state,
    so `model` itself is left unchanged; the returned parameters are float64.
    """
    cfg = model.config
    if not examples:
        raise ValueError("no training examples")
    labels = sorted({ex.label for ex in examples})
    if labels != list(range(cfg.num_categories)):
        raise ValueError(
            f"training examples must cover all {cfg.num_categories} categories; "
            f"saw labels {labels}"
        )
    rng = np.random.default_rng(cfg.seed)
    projects = sorted({ex.project for ex in examples})
    n_val = max(1, round(cfg.validation_fraction * len(projects)))
    if n_val >= len(projects):
        raise ValueError(
            f"validation would swallow all {len(projects)} training projects"
        )
    order = rng.permutation(len(projects))
    val_projects = {projects[int(i)] for i in order[:n_val]}
    train_ex = [ex for ex in examples if ex.project not in val_projects]
    val_ex = [ex for ex in examples if ex.project in val_projects]
    missing = set(range(cfg.num_categories)) - {ex.label for ex in train_ex}
    if missing:
        raise ValueError(
            f"category indices {sorted(missing)} vanished from the training "
            f"portion after withholding validation projects {sorted(val_projects)}"
        )
    logger.info(
        "fit: %d train / %d validation examples (%d/%d projects withheld)",
        len(train_ex), len(val_ex), n_val, len(projects),
    )

    X = np.stack([ex.ids for ex in train_ex]).astype(np.int64)
    Y = np.zeros((len(train_ex), cfg.num_categories))
    Y[np.arange(len(train_ex)), [ex.label for ex in train_ex]] = 1.0
    Xv = np.stack([ex.ids for ex in val_ex]).astype(np.int64)
    yv = np.array([ex.label for ex in val_ex])

    work = model.astype(TRAIN_DTYPE)
    snapshots = []
    val_accuracies = []
    epoch_losses = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(train_ex))
        losses = []
        for lo in range(0, len(perm), cfg.batch_size):
            sel = perm[lo : lo + cfg.batch_size]
            losses.append(train_step(work, X[sel], Y[sel], rng=rng))
        probs = predict_proba(work, Xv)
        acc = float(np.mean(probs.argmax(axis=1) == yv))
        snapshots.append(work.snapshot_params())
        val_accuracies.append(acc)
        epoch_losses.append(float(np.mean(losses)))
        logger.info("epoch %d/%d: train loss %.4f, val accuracy %.4f",
                    epoch + 1, cfg.epochs, epoch_losses[-1], acc)

    best = pick_best_epoch(val_accuracies)
    history = {
        "val_accuracy": val_accuracies,
        "train_loss": epoch_losses,
        "best_epoch": best,
        "val_projects": sorted(val_projects),
    }
    best_model = ClassifierModel(cfg, model.embedding, snapshots[best], history=history)
    return best_model.astype(np.float64)


def gradient_check(config, seed=0, h=1e-5, ids=None):
    """Max elementwise relative error between analytic and central-difference
    gradients on a tiny random model/sample.  Requires dropout disabled.

    ids, a (1, seq_len) array over the 12-token check vocabulary, replaces
    the random sample, e.g. to check inputs whose pool windows tie."""
    config.validate()
    if config.dropout_level != 0.0:
        raise ValueError("gradient check requires dropout_level == 0")
    rng = np.random.default_rng(seed)
    vocab_size = 12
    emb = rng.normal(size=(vocab_size, config.embed_dims))
    emb[:2] = 0.0
    model = init_model(config, emb, seed=seed + 1)
    sample = rng.integers(2, vocab_size, size=(1, config.seq_len))
    ids = sample if ids is None else np.asarray(ids)
    onehot = np.zeros((1, config.num_categories))
    onehot[0, int(rng.integers(config.num_categories))] = 1.0

    probs, cache = _forward(model, ids, want_cache=True)
    analytic = _backward(model, cache, onehot)

    def loss_now():
        probs, _ = _forward(model, ids)
        return cross_entropy(probs, onehot)

    worst = 0.0
    for name in PARAM_NAMES:
        param = model.params[name]
        flat = param.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_now()
            flat[idx] = orig - h
            down = loss_now()
            flat[idx] = orig
            fd = (up - down) / (2.0 * h)
            ga = analytic[name].reshape(-1)[idx]
            denom = max(abs(ga), abs(fd), 1e-8)
            worst = max(worst, abs(ga - fd) / denom)
    return worst


def save_model(path, model, vocab, categories, extra_meta=None):
    from . import checkpoint

    meta = {"kind": "nn", "config": asdict(model.config), "seed": model.config.seed}
    meta.update(extra_meta or {})
    meta["categories"] = list(categories)
    meta["vocab_tokens"] = vocab.tokens()
    meta["vocab_sha256"] = vocab.sha256()
    meta["history"] = model.history
    arrays = {"embedding": model.embedding}
    arrays.update(model.params)
    checkpoint.save_checkpoint(path, meta, arrays)


def from_checkpoint(meta, arrays, path):
    """(model, vocab, categories) from a loaded nn checkpoint; path names
    the file in errors.  Takes ownership of arrays."""
    from .tokens import Vocabulary

    if meta.get("kind") != "nn":
        raise ValueError(f"{path}: checkpoint kind {meta.get('kind')!r}, expected 'nn'")
    config = dict(meta["config"])
    # older headers name the optimizer, which is always Adamax
    if config.pop("optimizer", "adamax") != "adamax":
        raise ValueError(f"{path}: unsupported optimizer {meta['config']['optimizer']!r}")
    config = ClassifierConfig(**config)
    vocab = Vocabulary(meta["vocab_tokens"])
    if vocab.sha256() != meta.get("vocab_sha256"):
        raise ValueError(f"{path}: vocabulary hash mismatch; checkpoint corrupt")
    embedding = arrays.pop("embedding")
    model = ClassifierModel(config, embedding, arrays, history=meta.get("history"))
    return model, vocab, meta["categories"]


def load_model(path):
    """Returns (model, vocab, categories, meta)."""
    from . import checkpoint

    meta, arrays = checkpoint.load_checkpoint(path)
    return (*from_checkpoint(meta, arrays, path), meta)
