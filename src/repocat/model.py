"""Function-level classifier: frozen embedding -> conv (stride 1) -> maxpool
-> LSTM -> dense -> softmax, trained with Adamax at constant BETA1/BETA2/EPSILON.

A network runs in one dtype, that of its parameters: the forward pass
gathers from `model.table`, the frozen embedding cast once to that dtype
when the network is made (the embedding itself when it already has it).
The embedding stays as given, float64 for every network the pipeline
makes.  `fit` trains a TRAIN_DTYPE (float32) copy of the parameters, picks
its epoch from a TRAIN_DTYPE `predict_proba` on the validation slice, and
returns that TRAIN_DTYPE snapshot.  `from_checkpoint` narrows the stored
float64 parameters to TRAIN_DTYPE, which is exact for a fitted network's,
so `eval` and `explain` run the precision the network was trained and
validated in.  The optimizer state (an `Adamax`) belongs to the `fit`
call: a model holds only parameters, its frozen embedding and table, and
its training history.  `init_model` returns float64 parameters, and
`gradient_check` stays float64, since its central differences need
float64's resolution.

The forward and backward passes run time-major: the lookup gathers each
conv window's rows from the table straight into the (steps * batch,
kernel * dims) window matrix, and the conv, pool and LSTM activations are
(steps, batch, width), so every time step is one contiguous block and the
pool reads whole-step slabs.  The sigmoid gates i, f and o are computed as
0.5 * (1 + tanh(z / 2)) with z / 2 taken from halved weight and bias
columns (exact in binary), so one tanh per step covers all four gates.

Every forward pass runs at most PASS_ROWS rows: `predict_proba` splits
its input, and `train_step` its batch, into consecutive passes.  A train
step runs a forward and a backward pass per pass, sums the passes'
gradients, each taken from that pass's cross-entropy divided by the
batch's row count, and steps the optimizer once on the sums, the batch's
mean gradient.  The passes draw their dropout rows from the step's rng in
turn, the numbers one draw over the whole batch gives.  So the memory a
step needs follows the pass, not the batch.

`fit` hands every train step one workspace: a dict in which `_buf` keeps
the large activations and gradients (the conv windows, the conv, pool,
mask, gate and LSTM state arrays, the LSTM weights with their sigmoid
columns halved, a pass's parameter gradients and their sums over the
batch) and returns them to the next pass, which writes them in place.
Each is one flat array that only grows, so a smaller pass runs in the
leading part of the memory a full one left.  The backward pass writes the
gate gradient over the gates in `G`, the pool gradient into the pool
activations' buffer `P` and the conv gradient into the conv activations'
buffer `A`, as it stops reading each.  At the default config the
workspace holds 19.8 MB after a batch-128 step.  A step on a warm
workspace allocates no multi-MB array, so it does not page-fault in
memory that the allocator gave back to the kernel after the step before.
`predict_proba` takes a workspace too: `fit`'s validation passes use the
training one, and `eval` holds one for all its calls.  An array from a
workspace, and so a cache that holds one, is valid only until the next
call with the same workspace.  `conv_activations` and `gradient_check`
pass no workspace and allocate each array afresh.

Architecture at defaults (seq_len 60, kernel 3, pool 2), shapes
per sequence:

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
accuracy on a withheld-project validation slice.  Dropout applies exactly
when the forward pass is given an rng, as every train step is; it is
inverted (scaling at train time), so inference needs no rescaling.
"""

import logging
import math
from dataclasses import InitVar, asdict, dataclass, fields

import numpy as np

from . import checkpoint
from .tokens import Vocabulary

logger = logging.getLogger(__name__)

# Rows per forward pass, in training and in prediction; activations grow
# with rows.  Measured in TRAIN_DTYPE (2-CPU Xeon, NumPy 2.4.6, OpenBLAS):
# predict_proba on the 3,600 `cd` rows of a `categorize` fixture took
# 0.64 s at 64 rows against 0.70 s at 32 (best of 5), peaking at 16.2 MB of
# tracemalloc memory against 8.5 MB with a fresh workspace.  A batch-128
# train step in two 64-row passes took 60-61 ms against 55 ms in one (best
# of 9), and left a 19.8 MB workspace against 37.0 MB.
PASS_ROWS = 64

# The precision of every fitted or loaded network.  A batch-128 train step
# at the stock shapes, on a warm workspace, took 74-79 ms in float32 against
# 152-158 ms in float64 (best of 9, two processes; 2-CPU Xeon, NumPy 2.4.6,
# OpenBLAS): the GEMMs run at twice the rate and the elementwise LSTM work
# moves half the bytes.  Prediction is about twice as fast as in float64.
TRAIN_DTYPE = np.float32

# Adamax's decay rates and denominator floor: the Keras defaults.
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8

# Constants that older checkpoint headers name as settings, with their values.
_HEADER_CONSTANTS = {"optimizer": "adamax", "strides": 1,
                     "beta1": BETA1, "beta2": BETA2, "epsilon": EPSILON}

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
    pool_size: int = 2
    lstm_units: int = 100
    hide_u: int = 512
    dropout_level: float = 0.5
    epochs: int = 3
    batch_size: int = 128
    learning_rate: float = 0.002
    validation_fraction: float = 0.05
    seed: int = 0
    # not a field: the stride is 1, and older callers that spell it out pass 1
    strides: InitVar[int] = 1

    def __post_init__(self, strides):
        if strides != 1:
            raise ValueError(f"unsupported strides {strides!r}")

    @property
    def conv_len(self):
        return self.seq_len - self.kernel_size + 1

    @property
    def pooled_len(self):
        return self.conv_len // self.pool_size

    def validate(self):
        if self.num_categories < 2:
            raise ValueError(f"need >= 2 categories, got {self.num_categories}")
        for name in ("seq_len", "embed_dims", "filters", "kernel_size",
                     "pool_size", "lstm_units", "hide_u", "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.kernel_size > self.seq_len:
            raise ValueError("kernel_size cannot exceed seq_len")
        if self.pooled_len < 1:
            raise ValueError("pool_size too large: pooled sequence would be empty")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        if not 0.0 <= self.dropout_level < 1.0:
            raise ValueError(f"dropout_level must be in [0, 1), got {self.dropout_level}")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        return self


class ClassifierModel:
    """Parameters + frozen embedding + training history.

    `table` is the embedding in the parameters' dtype, the array the
    forward pass gathers from: the embedding itself when the dtypes agree,
    else a copy cast here, once per network."""

    def __init__(self, config, embedding, params, history=None):
        self.config = config
        self.embedding = embedding
        self.params = params
        self.history = history or {}
        self.table = embedding.astype(params["conv_w"].dtype, copy=False)

    def astype(self, dtype):
        """Copy whose parameters are `dtype`; the embedding and history are
        shared."""
        params = {k: v.astype(dtype) for k, v in self.params.items()}
        return ClassifierModel(self.config, self.embedding, params, self.history)


class Adamax:
    """Adamax state for one set of parameters, in their dtype:
    m = b1 m + (1-b1) g;  u = max(b2 u, |g|);
    param -= lr * (m / (1 - b1^t)) / (u + eps), with BETA1, BETA2, EPSILON.

    A step computes in two scratch arrays per parameter that the optimizer
    owns, so it allocates no parameter-sized array."""

    def __init__(self, config, params):
        self.config = config
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.u = {k: np.zeros_like(v) for k, v in params.items()}
        self.scratch = {k: (np.empty_like(v), np.empty_like(v)) for k, v in params.items()}
        self.t = 0

    def step(self, params, grads):
        """Update `params` in place from `grads`, one step."""
        self.t += 1
        correction = 1.0 - BETA1 ** self.t
        for name, grad in grads.items():
            m, u = self.m[name], self.u[name]
            a, b = self.scratch[name]
            m *= BETA1
            m += np.multiply(1.0 - BETA1, grad, out=a)
            np.maximum(np.multiply(BETA2, u, out=a), np.abs(grad, out=b), out=u)
            np.divide(m, correction, out=a)
            a *= self.config.learning_rate  # lr * (m / correction), the same product
            a /= np.add(u, EPSILON, out=b)
            params[name] -= a


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
    fans = {"conv_w": (K * D, F), "lstm_wx": (F, U), "lstm_wh": (U, U),
            "hid_w": (U, H), "out_w": (H, C)}
    params = {
        name: _glorot(rng, shape, *fans[name]) if name in fans else np.zeros(shape)
        for name, shape in param_shapes(config).items()
    }
    params["lstm_b"][U : 2 * U] = 1.0  # forget-gate bias
    return ClassifierModel(config, embedding, params)


def param_shapes(config):
    """{name: shape} of the trained parameters, in PARAM_NAMES order."""
    K, D, F = config.kernel_size, config.embed_dims, config.filters
    U, H, C = config.lstm_units, config.hide_u, config.num_categories
    return {
        "conv_w": (K, D, F), "conv_b": (F,),
        "lstm_wx": (F, 4 * U), "lstm_wh": (U, 4 * U), "lstm_b": (4 * U,),
        "hid_w": (U, H), "hid_b": (H,),
        "out_w": (H, C), "out_b": (C,),
    }


def softmax(logits):
    """Row-wise softmax of an (N, C) array."""
    shifted = logits - logits.max(axis=1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=1, keepdims=True)


def _buf(ws, name, shape, dtype):
    """An uninitialized `shape` x `dtype` array for `name`.

    A workspace `ws` is a dict that keeps one flat array per name, and
    returns its leading part reshaped to `shape`.  The flat array only
    grows: a new one replaces it when the dtype differs or it is too small,
    so a smaller shape (the last batch of an epoch, a validation pass) is
    served from the memory a larger one left.  An array taken from a
    workspace is valid only until the next call that uses the same
    workspace.  Without a workspace (`ws` None) this is `np.empty`, and
    nothing holds the array.
    """
    if ws is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    arr = ws.get(name)
    if arr is None or arr.dtype != dtype or arr.size < size:
        arr = ws[name] = np.empty(size, dtype)
    return arr[:size].reshape(shape)


def _forward(model, ids, rng=None, want_cache=False, ws=None):
    """Batched forward pass; ids is (B, seq_len) int.

    Dropout applies, drawing from `rng`, exactly when an rng is given.
    Runs time-major: activations are (steps, B, width), so each time step is
    one contiguous block.  Returns (probs, cache); cache is None unless
    want_cache.  Without a cache, the conv and pool activations are dropped
    as soon as the next layer has consumed them, so peak memory is about two
    layers' activations.  The large activations are taken from the
    workspace `ws` (see `_buf`), so the cache is valid only until the next
    call with that workspace.
    """
    cfg = model.config
    ids = np.asarray(ids)
    if ids.ndim != 2 or ids.shape[1] != cfg.seq_len:
        raise ValueError(f"ids must be (batch, {cfg.seq_len}), got {ids.shape}")
    if ids.min() < 0 or ids.max() >= model.table.shape[0]:
        raise ValueError("token id outside embedding table")
    p = model.params
    B = ids.shape[0]
    K, D, F, U = cfg.kernel_size, cfg.embed_dims, cfg.filters, cfg.lstm_units
    T, T2, PS = cfg.conv_len, cfg.pooled_len, cfg.pool_size

    dt = p["conv_w"].dtype
    # the conv windows straight from the table: window row (t, b, k) is the
    # row of ids[b, t + k]; the ids were checked above, so mode="clip" clips
    # nothing and spares `take` its buffered copy
    at = np.arange(T)[:, None] + np.arange(K)  # (T, K)
    win_flat = _buf(ws, "win_flat", (T * B, K * D), dt)
    np.take(model.table, ids.T[at].transpose(0, 2, 1), axis=0,
            out=win_flat.reshape(T, B, K, D), mode="clip")
    A = np.matmul(win_flat, p["conv_w"].reshape(K * D, F), out=_buf(ws, "A", (T * B, F), dt))
    A += p["conv_b"]
    np.maximum(A, 0.0, out=A)  # ReLU in place
    A = A.reshape(T, B, F)
    if not want_cache:
        del win_flat

    # pool window t2 covers steps t2*PS .. t2*PS+PS-1; slab k holds step k
    # of every window, and steps from T2*PS on are cut
    slabs = [A[k : T2 * PS : PS] for k in range(PS)]
    P = _buf(ws, "P", (T2, B, F), dt)
    np.copyto(P, slabs[0])
    for slab in slabs[1:]:
        np.maximum(P, slab, out=P)
    pool_mask = None
    if want_cache:
        # the gradient goes to the first max of each window: clear every
        # later position that ties with one already taken
        pool_mask = _buf(ws, "pool_mask", (PS, T2, B, F), bool)
        np.equal(slabs[0], P, out=pool_mask[0])
        taken = _buf(ws, "taken", (T2, B, F), bool)
        np.copyto(taken, pool_mask[0])
        for k in range(1, PS):
            np.equal(slabs[k], P, out=pool_mask[k])
            # on bools, a > b is a and not b
            np.greater(pool_mask[k], taken, out=pool_mask[k])
            taken |= pool_mask[k]
    else:
        del A
    del slabs

    # the sigmoid gates i, f, o are 0.5 * (1 + tanh(z / 2)); halving their
    # weight and bias columns (exact in binary) lets one tanh per step cover
    # all four gates
    half = np.ones(4 * U, dtype=dt)
    half[: 2 * U] = 0.5
    half[3 * U :] = 0.5
    wx = np.multiply(p["lstm_wx"], half, out=_buf(ws, "wx_half", (F, 4 * U), dt))
    wh = np.multiply(p["lstm_wh"], half, out=_buf(ws, "wh_half", (U, 4 * U), dt))
    # input projection for every step at once; the loop turns each step's
    # block into that step's gate activations in place
    G = _buf(ws, "G", (T2, B, 4 * U), dt)
    np.matmul(P.reshape(T2 * B, F), wx, out=G.reshape(T2 * B, 4 * U))
    G += p["lstm_b"] * half
    if not want_cache:
        del P
    # H[t], C[t]: hidden and cell state entering step t; H[T2] is the output.
    # The loop writes every later step, so only step 0 is zeroed.
    H = _buf(ws, "H", (T2 + 1, B, U), dt)
    C = _buf(ws, "C", (T2 + 1, B, U), dt)
    H[0] = 0.0
    C[0] = 0.0
    TC = _buf(ws, "TC", (T2, B, U), dt)
    for t in range(T2):
        z = G[t]
        z += H[t] @ wh
        np.tanh(z, out=z)
        for sig in (z[:, : 2 * U], z[:, 3 * U :]):
            sig += 1.0
            sig *= 0.5
        np.multiply(z[:, U : 2 * U], C[t], out=C[t + 1])
        C[t + 1] += z[:, :U] * z[:, 2 * U : 3 * U]
        np.tanh(C[t + 1], out=TC[t])
        np.multiply(z[:, 3 * U :], TC[t], out=H[t + 1])
    if not want_cache:
        del G

    hid_pre = H[T2] @ p["hid_w"] + p["hid_b"]
    Hact = np.maximum(hid_pre, 0.0)
    mask = None
    if rng is not None and cfg.dropout_level > 0.0:
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
            "G": G, "H": H, "C": C, "TC": TC,
            "hid_pre": hid_pre, "mask": mask, "Hd": Hd, "probs": probs,
        }
    return probs, cache


def _backward(model, cache, onehot, ws=None, batch_rows=None):
    """Gradients w.r.t. all trainable parameters of the pass's summed
    cross-entropy divided by `batch_rows`: the mean cross-entropy when it
    is the pass's own row count (the default), the pass's share of a batch's
    mean when the batch runs as several passes.

    The returned parameter gradients are taken from the workspace `ws` (see
    `_buf`); the gate, pool and conv gradients overwrite the cache's `G`,
    `P` and `A`."""
    cfg = model.config
    p = model.params
    dt = p["conv_w"].dtype
    B = onehot.shape[0]
    F, U = cfg.filters, cfg.lstm_units
    T, T2, PS = cfg.conv_len, cfg.pooled_len, cfg.pool_size

    dlogits = (cache["probs"] - onehot.astype(dt, copy=False)) / (batch_rows or B)
    grads = {name: _buf(ws, "d" + name, shape, dt)
             for name, shape in param_shapes(cfg).items()}
    np.matmul(cache["Hd"].T, dlogits, out=grads["out_w"])
    np.sum(dlogits, axis=0, out=grads["out_b"])
    dHd = dlogits @ p["out_w"].T
    dH = dHd * cache["mask"] if cache["mask"] is not None else dHd
    dhid_pre = dH * (cache["hid_pre"] > 0.0)
    H, C, G, TC = cache["H"], cache["C"], cache["G"], cache["TC"]
    np.matmul(H[T2].T, dhid_pre, out=grads["hid_w"])
    np.sum(dhid_pre, axis=0, out=grads["hid_b"])

    # the loop only carries dh/dc back through time; once it has read a
    # step's gates it writes that step's gate-input gradient over them in
    # G, and the weight gradients are one matmul each over all steps
    # afterwards
    dh = dhid_pre @ p["hid_w"].T
    dc = np.zeros_like(dh)
    for t in range(T2 - 1, -1, -1):
        g = G[t]
        gi, gf, gg, go = g[:, :U], g[:, U : 2 * U], g[:, 2 * U : 3 * U], g[:, 3 * U :]
        tc = TC[t]
        dc += dh * go * (1.0 - tc * tc)
        # each gate slot is overwritten only after the last read of it
        di = dc * gg * gi * (1.0 - gi)
        df = dc * C[t] * gf * (1.0 - gf)
        go[...] = dh * tc * go * (1.0 - go)
        gg[...] = dc * gi * (1.0 - gg * gg)
        gi[...] = di
        dc *= gf
        gf[...] = df
        dh = g @ p["lstm_wh"].T
    dG = G.reshape(T2 * B, 4 * U)
    P = cache["P"]
    np.matmul(P.reshape(T2 * B, F).T, dG, out=grads["lstm_wx"])
    np.matmul(H[:T2].reshape(T2 * B, U).T, dG, out=grads["lstm_wh"])
    np.sum(dG, axis=0, out=grads["lstm_b"])
    # ReLU: the position a window picked holds A == P, so A > 0 there
    # exactly when P > 0
    relu = _buf(ws, "relu", (T2, B, F), bool)
    np.greater(P, 0.0, out=relu)
    # nothing reads P or A again: the pool gradient dP overwrites P, and
    # the conv gradient dZ overwrites A
    dP = P
    np.matmul(dG, p["lstm_wx"].T, out=dP.reshape(T2 * B, F))
    del dG
    dP *= relu

    dZ = cache["A"]
    for k in range(PS):
        np.multiply(dP, cache["pool_mask"][k], out=dZ[k : T2 * PS : PS])
    dZ[T2 * PS :] = 0.0
    dZ_flat = dZ.reshape(T * B, F)
    np.matmul(cache["win_flat"].T, dZ_flat, out=grads["conv_w"].reshape(-1, F))
    np.sum(dZ_flat, axis=0, out=grads["conv_b"])
    return grads


def cross_entropy(probs, onehot):
    """Mean negative log-likelihood of the gold categories (each floored at 1e-300)."""
    picked = np.clip((probs * onehot).sum(axis=1), 1e-300, None)
    return float(-np.mean(np.log(picked)))


def train_step(model, opt, ids, onehot, rng, ws=None):
    """Forward (with dropout drawn from `rng`) + backward + one step of the
    Adamax `opt` on one minibatch; returns the batch loss, the mean
    cross-entropy over its rows.

    The batch runs as consecutive passes of at most PASS_ROWS rows, each a
    forward and a backward pass.  The passes draw their dropout rows from
    `rng` in turn, the numbers one draw for the whole batch would give,
    since the generator fills row by row.  Their gradients, each divided by
    the batch's row count, are summed into workspace buffers, and the
    optimizer steps once, on the sums.

    `ws` is a workspace dict (see `_buf`) for the large activations and
    gradients; passing the same one to every step of a run reuses them."""
    ids = np.asarray(ids)
    rows = ids.shape[0]
    dt = model.params["conv_w"].dtype
    grads = {name: _buf(ws, "sum_d" + name, shape, dt)
             for name, shape in param_shapes(model.config).items()}
    total = 0.0
    for lo in range(0, rows, PASS_ROWS):
        part = slice(lo, lo + PASS_ROWS)
        probs, cache = _forward(model, ids[part], rng=rng, want_cache=True, ws=ws)
        loss = cross_entropy(probs, onehot[part])
        if not np.isfinite(loss):
            raise FloatingPointError(f"non-finite training loss: {loss}")
        total += loss * len(probs)
        pass_grads = _backward(model, cache, onehot[part], ws=ws, batch_rows=rows)
        for name, grad in grads.items():
            if lo == 0:
                np.copyto(grad, pass_grads[name])
            else:
                grad += pass_grads[name]
    for name, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"non-finite gradient in {name}")
    opt.step(model.params, grads)
    return total / rows


def predict_proba(model, ids, ws=None):
    """Probabilities for (N, seq_len) ids, PASS_ROWS rows per forward
    pass; returns (N, C).

    `ws` is a workspace dict (see `_buf`) for the passes' activations:
    passing the same one to every call reuses them, as training does, so a
    warm call allocates no multi-MB array.  The probabilities do not depend
    on it."""
    ids = np.asarray(ids)
    out = np.empty((ids.shape[0], model.config.num_categories))
    for lo in range(0, ids.shape[0], PASS_ROWS):
        probs, _ = _forward(model, ids[lo : lo + PASS_ROWS], ws=ws)
        out[lo : lo + probs.shape[0]] = probs
    return out


def conv_activations(model, ids):
    """Post-ReLU convolution activations for one sequence: (conv_len, filters)."""
    _, cache = _forward(model, np.asarray(ids)[None, :], want_cache=True)
    return cache["A"][:, 0].copy()


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

    Training runs on a TRAIN_DTYPE copy of the parameters, with Adamax state
    that lives for this call, so `model` itself is left unchanged; the
    returned network is TRAIN_DTYPE and shares `model`'s embedding.  Raises
    FloatingPointError when an epoch leaves the validation probabilities
    non-finite.
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
    opt = Adamax(cfg, work.params)
    # the train steps' activations and gradients, reused step to step and
    # by the validation passes
    ws = {}
    snapshots = []
    val_accuracies = []
    epoch_losses = []
    for epoch in range(cfg.epochs):
        perm = rng.permutation(len(train_ex))
        losses = []
        for lo in range(0, len(perm), cfg.batch_size):
            sel = perm[lo : lo + cfg.batch_size]
            losses.append(train_step(work, opt, X[sel], Y[sel], rng, ws=ws))
        probs = predict_proba(work, Xv, ws=ws)
        if not np.isfinite(probs).all():
            raise FloatingPointError(f"training diverged in epoch {epoch + 1}: "
                                     "non-finite validation probabilities")
        acc = float(np.mean(probs.argmax(axis=1) == yv))
        snapshots.append({k: v.copy() for k, v in work.params.items()})
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
    return ClassifierModel(cfg, model.embedding, snapshots[best], history=history)


def gradient_check(config, seed=0, ids=None):
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

    h = 1e-5
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
    meta = {"kind": "nn", "config": asdict(model.config), "seed": model.config.seed}
    meta.update(extra_meta or {})
    meta["categories"] = list(categories)
    meta["vocab_tokens"] = vocab.tokens()
    meta["vocab_sha256"] = vocab.sha256()
    meta["history"] = model.history
    arrays = {"embedding": model.embedding}
    arrays.update(model.params)
    checkpoint.save_checkpoint(path, meta, arrays)


def _config_from_header(path, header):
    """The ClassifierConfig a checkpoint header's `config` object names;
    path names the file in errors."""
    if not isinstance(header, dict):
        raise ValueError(f"{path}: bad classifier config: expected an object, got {header!r}")
    values = dict(header)
    for key, fixed in _HEADER_CONSTANTS.items():
        if values.pop(key, fixed) != fixed:
            raise ValueError(f"{path}: unsupported {key} {header[key]!r}")
    try:
        config = ClassifierConfig(**values)
    except TypeError as exc:
        raise ValueError(f"{path}: bad classifier config: {exc}") from None
    for field in fields(ClassifierConfig):
        value = getattr(config, field.name)
        kinds = (int, float) if field.type is float else field.type
        if isinstance(value, bool) or not isinstance(value, kinds):
            raise ValueError(
                f"{path}: bad classifier config: {field.name} must be "
                f"{field.type.__name__}, got {value!r}"
            )
    try:
        return config.validate()
    except ValueError as exc:
        raise ValueError(f"{path}: bad classifier config: {exc}") from None


def from_checkpoint(meta, arrays, path):
    """(model, vocab, categories) from a loaded nn checkpoint; path names
    the file in errors.  Takes ownership of arrays.  The model's parameters
    are narrowed to TRAIN_DTYPE, exactly for those `fit` wrote; its
    embedding stays float64, as stored."""
    if meta.get("kind") != "nn":
        raise ValueError(f"{path}: checkpoint kind {meta.get('kind')!r}, expected 'nn'")
    checkpoint.require_meta(path, meta, ("config", "vocab_tokens", "categories"))
    config = _config_from_header(path, meta["config"])
    vocab = Vocabulary(meta["vocab_tokens"])
    if vocab.sha256() != meta.get("vocab_sha256"):
        raise ValueError(f"{path}: vocabulary hash mismatch; checkpoint corrupt")
    checkpoint.require_arrays(path, arrays, {
        "embedding": (len(vocab), config.embed_dims), **param_shapes(config),
    })
    embedding = arrays.pop("embedding")
    params = {name: arrays.pop(name).astype(TRAIN_DTYPE) for name in PARAM_NAMES}
    model = ClassifierModel(config, embedding, params, history=meta.get("history"))
    return model, vocab, meta["categories"]


def load_model(path):
    """Returns (model, vocab, categories, meta)."""
    meta, arrays = checkpoint.load_checkpoint(path)
    return (*from_checkpoint(meta, arrays, path), meta)
