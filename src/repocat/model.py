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

The forward and backward passes run time-major: the conv, pool and LSTM
activations are (steps, batch, width), so every time step is one
contiguous block and the pool reads whole-step slabs.  The embedding is
frozen, so conv step t's pre-activation, the sum over k of
E[id_{t+k}] @ conv_w[k], is a sum of per-token terms.  A pass therefore
starts with a table of its own distinct ids (`_token_table`): tables[k] =
E[distinct] @ conv_w[k], (kernel, n, filters), and the pass's ids mapped
to time-major slots in it.  The table pays where ids repeat within a
pass: a 240-row `eval` call of the `categorize` benchmark uses about 470
distinct ids of 14,400, and a 128-row training batch of `build` about 614
of 7,680.  It has room for n rounded up to a power of two, and at most
min(vocabulary, rows * seq_len) ids, of kernel * filters values each:
1.5 MB at 470 ids, and 46 MB (float32, default config) for a
PREDICT_ROWS-row pass whose ids are all distinct, which then runs slower
than a GEMM over its windows: 42 ms against 33 ms (2-CPU Xeon).

The forward pass streams through time in blocks of pooled steps, sized by
rows times steps: a pass of R rows runs blocks of max(1, BLOCK_ROWS // R)
steps, so a block holds about BLOCK_ROWS rows of activations whatever the
pass, and a small pass runs one block.  Each block's conv pre-activations
are K gathers and adds from the table, one conv step at a time
(`_conv_block`), and the pool reduces them at once.  The conv bias and
the ReLU then run on the pooled values, which is exact since the max
commutes with both; one GEMM projects the block into the LSTM's gates;
and the LSTM runs the block's steps.  The conv steps that the pool cuts
(conv_len % pool_size of them) are not computed.  A prediction pass holds
one block of pool activations and gates and the current LSTM state only.
A training pass keeps every step's for the backward pass, which walks the
same conv blocks, gathering each block's windows (`_windows`) for its
share of the conv weight gradient.  The sigmoid gates i, f and o are
computed as 0.5 * (1 + tanh(z / 2)) with z / 2 taken from halved weight
and bias columns (exact in binary), so one tanh per step covers all four
gates.
That tanh writes a step's gates over the step's projection gate-major,
(4, batch, units), so each gate is one contiguous block; the backward
pass builds a step's gate gradients gate by gate in a (4, batch, units)
buffer and writes them back over the gates in the (batch, 4 * units)
order of the weights.

`predict_proba` splits its input into consecutive passes of at most
PREDICT_ROWS rows.  A train step runs its whole batch as one forward and
one backward pass and steps the optimizer once, on the gradient of the
batch's mean cross-entropy.  Its conv windows and conv activations are
one block's, about BLOCK_ROWS rows times steps; its pool, mask, gate and
LSTM state arrays hold every step of the batch.

`fit` hands every train step one workspace: a dict in which `_buf` keeps
the pass's token table (see `_token_table`; with the (batch, filters)
rows `gather` that `_conv_block` adds) and the activations (a block's
conv windows `win`, for the backward pass only, and conv activations
`A`, the pool activations `P`, the pool mask, the gates `G` and the LSTM
state `H`, `C` and `TC`) and returns them to the next pass, which writes
them in place.  Each is one flat array that only grows, so a smaller pass
runs in the leading part of the memory a full one left.  The backward
pass writes the gate gradient over the gates in `G`, the pool gradient
into `P` and each block's conv gradient into `A`, as it stops reading
each; the pool mask holds the ReLU's gradient mask too.  At the default
config the workspace holds 18.7 MB after a batch-128 step over 50
distinct ids, and a PREDICT_ROWS-row prediction pass 3.2 MB over 50 and
4.75 MB over 500; each id of the table's room adds 3.4 kB.  Everything
else (the parameter gradients, the LSTM weights with their sigmoid
columns halved, the per-step scratch) is allocated per pass, and none of
it is as large as a block's activations, so a step or a pass on a warm
workspace allocates no multi-MB array.
`predict_proba` takes a workspace too: `fit`'s validation passes use the
training one, and `eval` holds one for all its calls.  An activation
from a workspace, and so a cache that holds one, is valid only until the
next call with the same workspace.  `conv_activations` and
`gradient_check` pass no workspace and allocate each array afresh.

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

Training returns the parameters of the epoch with the best function-level
accuracy on a withheld-project validation slice, keeping one snapshot.
Dropout applies exactly when the forward pass is given an rng, as every
train step is; it is inverted (scaling at train time), so inference needs
no rescaling.
"""

import logging
import math
from dataclasses import InitVar, asdict, dataclass, fields

import numpy as np

from . import checkpoint
from .tokens import Vocabulary

logger = logging.getLogger(__name__)

# Rows per prediction pass: `predict_proba` splits its input into passes of
# at most this many rows, and `evaluation.evaluate_project_level` packs
# whole projects into calls of up to this many.  In TRAIN_DTYPE (2-CPU
# Xeon, NumPy 2.4.6, OpenBLAS; median of 9 interleaved runs, one process),
# predict_proba on the 3,600 `cd` rows of a `categorize` fixture, in eval's
# calls of whole 30-row projects, took 484 ms at 128 rows in blocks of 4
# steps, 428 ms at 256 rows in blocks of 2, and 414 ms at 512 rows in
# blocks of 1, whose workspace is 5.7 MB against 4.5 MB at 256 rows and
# 3.9 MB at 128.
PREDICT_ROWS = 256

# Rows times pooled steps per block of the forward pass: a pass of R rows
# convolves, pools, projects and runs the LSTM over max(1, BLOCK_ROWS // R)
# pool windows at a time (`_block_steps`), and the backward pass walks the
# same conv blocks.  That is 4 steps at 128 rows (a stock training batch),
# 2 at 256, and one block of all steps at 17 rows or fewer; a block's conv
# activations, pool activations and gates stay about the same size
# whatever the pass.  On the 3,600 rows above, in 240-row calls, blocks of
# 1 step (BLOCK_ROWS 256) took 435 ms with a 3.4 MB workspace, of 2 steps
# 428 ms with 4.5 MB, and of 4 steps (BLOCK_ROWS 1024) 401 ms with 6.7 MB.
BLOCK_ROWS = 512

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
    param -= lr * (m / (1 - b1^t)) / (u + eps), with BETA1, BETA2, EPSILON."""

    def __init__(self, config, params):
        self.config = config
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.u = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params, grads):
        """Update `params` in place from `grads`, one step."""
        self.t += 1
        correction = 1.0 - BETA1 ** self.t
        for name, grad in grads.items():
            m, u = self.m[name], self.u[name]
            m *= BETA1
            m += (1.0 - BETA1) * grad
            np.maximum(BETA2 * u, np.abs(grad), out=u)
            params[name] -= self.config.learning_rate * (m / correction) / (u + EPSILON)


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
    """An uninitialized `shape` x `dtype` array for the activation `name`.

    A workspace `ws` is a dict that keeps one flat array per activation,
    and returns its leading part reshaped to `shape`.  The flat array only
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


def _block_steps(rows):
    """Pooled steps per conv block of a `rows`-row pass: BLOCK_ROWS rows
    times steps, at least one step."""
    return max(1, BLOCK_ROWS // rows)


def _checked_ids(model, ids):
    """ids as a (B, seq_len) array, after checking its shape and that every
    id has a row in `model.table`."""
    ids = np.asarray(ids)
    seq_len = model.config.seq_len
    if ids.ndim != 2 or ids.shape[1] != seq_len:
        raise ValueError(f"ids must be (batch, {seq_len}), got {ids.shape}")
    if ids.min() < 0 or ids.max() >= model.table.shape[0]:
        raise ValueError("token id outside embedding table")
    return ids


def _windows(model, ids, t0, t1, ws):
    """The conv windows of steps t0 .. t1-1 of (B, seq_len) ids, gathered
    from `model.table` into the workspace buffer "win": row (t, b) of the
    ((t1 - t0) * B, kernel * dims) result holds the table rows of
    ids[b, t0 + t .. t0 + t + kernel - 1].  Only the backward pass reads
    them, for the conv weight gradient."""
    K, D = model.config.kernel_size, model.config.embed_dims
    B = ids.shape[0]
    win = _buf(ws, "win", (t1 - t0, B, K, D), model.table.dtype)
    at = np.arange(t0, t1)[:, None] + np.arange(K)  # (t1 - t0, K)
    # the ids were checked (`_checked_ids`), so mode="clip" clips nothing and
    # spares `take` its buffered copy
    np.take(model.table, ids.T[at].transpose(0, 2, 1), axis=0, out=win, mode="clip")
    return win.reshape((t1 - t0) * B, K * D)


def _token_table(model, ids, ws):
    """The conv's per-token table of a pass of (B, seq_len) ids: (tables,
    slots).

    tables is (kernel, n, filters), tables[k] = E @ conv_w[k], where E holds
    the `model.table` rows of the pass's n distinct ids in ascending id
    order; slots is (seq_len, B), time-major, and holds each id's row in
    tables.  Step t of row b then convolves to the sum over k of
    tables[k, slots[t + k, b]] (`_conv_block`).  The distinct ids are found
    through a vocabulary-sized map, so no sort: O(vocabulary + B * seq_len).
    The table holds at most min(vocabulary, B * seq_len) * kernel * filters
    values: 46 MB in float32 for a PREDICT_ROWS-row pass whose ids are all
    distinct, at the default config; the arrays live in the workspace `ws`
    (see `_buf`) as "marks", "slots", "rows" and "tables"."""
    K, F = model.config.kernel_size, model.config.filters
    V, D = model.table.shape
    conv_w = model.params["conv_w"]
    # marks[id] is 1 where the pass uses the id, then the id's slot
    marks = _buf(ws, "marks", (V,), np.intp)
    marks.fill(0)
    marks[ids] = 1
    distinct = np.flatnonzero(marks)
    n = len(distinct)
    marks[distinct] = np.arange(n)
    # the ids were checked (`_checked_ids`) and every mark is a slot, so
    # mode="clip" clips nothing and spares `take` its buffered copy
    slots = np.take(marks, ids.T, out=_buf(ws, "slots", ids.T.shape, np.intp), mode="clip")
    # rows and tables hold room for n rounded up to a power of two (at most
    # the ids a pass can hold), so passes whose distinct counts differ a
    # little, as eval's calls do, share one allocation: a workspace grown
    # call by call left each outgrown table as a hole in the heap, and 40
    # `categorize` passes peaked at 55.8 MB against 51.7 MB
    room = min(1 << (n - 1).bit_length(), V, ids.size)
    rows = np.take(model.table, distinct, axis=0, mode="clip",
                   out=_buf(ws, "rows", (room, D), conv_w.dtype)[:n])
    tables = _buf(ws, "tables", (K, room, F), conv_w.dtype)[:, :n]
    for k in range(K):
        np.matmul(rows, conv_w[k], out=tables[k])
    return tables, slots


def _conv_block(tables, slots, t0, t1, ws):
    """Conv pre-activations of steps t0 .. t1-1, without the bias, from a
    pass's `_token_table`: (t1 - t0, B, filters), in the workspace buffer
    "A".  Step t is tables[0][slots[t]] + tables[1][slots[t + 1]] + ...,
    added in k order, one step at a time through a (B, filters) buffer
    "gather", which stays in cache."""
    K, _, F = tables.shape
    B = slots.shape[1]
    A = _buf(ws, "A", (t1 - t0, B, F), tables.dtype)
    gather = _buf(ws, "gather", (B, F), tables.dtype)
    for t in range(t0, t1):
        a = A[t - t0]
        # every slot has a row, so mode="clip" clips nothing (see `_windows`)
        np.take(tables[0], slots[t], axis=0, out=a, mode="clip")
        for k in range(1, K):
            np.take(tables[k], slots[t + k], axis=0, out=gather, mode="clip")
            a += gather
    return A


def _forward(model, ids, rng=None, want_cache=False, ws=None):
    """Batched forward pass; ids is (B, seq_len) int.

    Dropout applies, drawing from `rng`, exactly when an rng is given.
    Runs time-major: activations are (steps, B, width), so each time step is
    one contiguous block.  Returns (probs, cache); cache is None unless
    want_cache.  The pass streams through time in blocks of `_block_steps`
    pooled steps: each block is convolved, pooled, projected into the LSTM's
    gates and run through its LSTM steps before the next block starts.  A
    cached pass keeps every step's pool activations, gates and state for
    the backward pass; a prediction pass keeps one block of them and the
    current state.  The activations are taken from the workspace `ws` (see
    `_buf`), so the cache is valid only until the next call with that
    workspace.
    """
    cfg = model.config
    ids = _checked_ids(model, ids)
    p = model.params
    B = ids.shape[0]
    F, U = cfg.filters, cfg.lstm_units
    T2, PS = cfg.pooled_len, cfg.pool_size
    dt = p["conv_w"].dtype
    step = _block_steps(B)
    tables, slots = _token_table(model, ids, ws)

    # the sigmoid gates i, f, o are 0.5 * (1 + tanh(z / 2)); halving their
    # weight and bias columns (exact in binary) lets one tanh per step cover
    # all four gates
    half = np.ones(4 * U, dtype=dt)
    half[: 2 * U] = 0.5
    half[3 * U :] = 0.5
    wx = p["lstm_wx"] * half
    wh = p["lstm_wh"] * half
    b_half = p["lstm_b"] * half

    # a cached pass indexes P, G and TC by step and H, C by the step they
    # enter (H[T2] is the output); a prediction pass holds one block of P
    # and G, and one step of H, C and TC, which each step updates in place
    if want_cache:
        n_steps = T2
        pool_mask = _buf(ws, "pool_mask", (PS, T2, B, F), bool)
    else:
        n_steps = min(step, T2)
    P = _buf(ws, "P", (n_steps, B, F), dt)
    G = _buf(ws, "G", (n_steps, B, 4 * U), dt)
    H = _buf(ws, "H", (T2 + 1 if want_cache else 1, B, U), dt)
    C = _buf(ws, "C", H.shape, dt)
    TC = _buf(ws, "TC", (T2 if want_cache else 1, B, U), dt)
    z = np.empty((B, 4, U), dt)
    H[0] = 0.0
    C[0] = 0.0
    for j0 in range(0, T2, step):
        j1 = min(j0 + step, T2)
        at = slice(j0, j1) if want_cache else slice(0, j1 - j0)
        P_blk, G_blk = P[at], G[at]
        # the block's conv steps, max-pooled straight into P: pool window j
        # covers the block's steps j*PS .. j*PS+PS-1, slab k holds step k of
        # every window; the steps from T2*PS on, which the pool cuts, are
        # never computed
        A = _conv_block(tables, slots, j0 * PS, j1 * PS, ws)
        slabs = [A[k::PS] for k in range(PS)]
        np.copyto(P_blk, slabs[0])
        for slab in slabs[1:]:
            np.maximum(P_blk, slab, out=P_blk)
        if want_cache:
            # the gradient goes to the first max of each window: clear every
            # later position that ties with one already taken
            mask = pool_mask[:, j0:j1]
            np.equal(slabs[0], P_blk, out=mask[0])
            taken = mask[0].copy()
            for k in range(1, PS):
                np.equal(slabs[k], P_blk, out=mask[k])
                # on bools, a > b is a and not b
                np.greater(mask[k], taken, out=mask[k])
                taken |= mask[k]
        # the bias and the ReLU are monotone, so they commute with the max
        # exactly and run on the pooled values only
        P_blk += p["conv_b"]
        np.maximum(P_blk, 0.0, out=P_blk)
        if want_cache:
            # the ReLU's gradient mask folds into the pool's
            mask &= np.greater(P_blk, 0.0, out=taken)
        np.matmul(P_blk.reshape(-1, F), wx, out=G_blk.reshape(-1, 4 * U))
        G_blk += b_half
        for t in range(j0, j1):
            s, s1 = (t, t + 1) if want_cache else (0, 0)
            g = G_blk[t - j0]
            np.matmul(H[s], wh, out=z.reshape(B, 4 * U))
            z += g.reshape(B, 4, U)
            # the step's gates overwrite its projection gate-major, (4, B,
            # U), so each gate is one contiguous block
            gates = g.reshape(4, B, U)
            np.tanh(z.transpose(1, 0, 2), out=gates)
            gi, gf, gg, go = gates
            for sig in (gates[:2], go):
                sig += 1.0
                sig *= 0.5
            np.multiply(gf, C[s], out=C[s1])
            C[s1] += gi * gg
            np.tanh(C[s1], out=TC[s])
            np.multiply(go, TC[s], out=H[s1])

    Hd = H[-1] @ p["hid_w"]
    Hd += p["hid_b"]
    np.maximum(Hd, 0.0, out=Hd)  # ReLU in place
    mask = None
    if rng is not None and cfg.dropout_level > 0.0:
        keep = 1.0 - cfg.dropout_level
        # 1 / keep, rounded to dt, where the float64 draw falls below keep
        mask = np.multiply(rng.random(Hd.shape) < keep, dt.type(1.0 / keep))
        Hd *= mask
    logits = Hd @ p["out_w"] + p["out_b"]
    probs = softmax(logits)

    cache = None
    if want_cache:
        cache = {
            "ids": ids, "pool_mask": pool_mask, "P": P,
            "G": G, "H": H, "C": C, "TC": TC,
            "mask": mask, "Hd": Hd, "probs": probs,
        }
    return probs, cache


def _backward(model, cache, onehot, ws=None):
    """Gradients w.r.t. all trainable parameters of the pass's mean
    cross-entropy.

    The returned parameter gradients are fresh arrays, the caller's to
    keep; the gate and pool gradients overwrite the cache's `G` and `P`, and each
    conv block's gradient the workspace's conv activations (see `_buf`)."""
    cfg = model.config
    p = model.params
    dt = p["conv_w"].dtype
    B = onehot.shape[0]
    F, U = cfg.filters, cfg.lstm_units
    T2, PS = cfg.pooled_len, cfg.pool_size
    step = _block_steps(B)
    # the bias gradients are column sums, taken as GEMMs with a ones row
    ones = np.ones(max(T2, min(step, T2) * PS) * B, dt)

    dlogits = (cache["probs"] - onehot.astype(dt, copy=False)) / B
    grads = {name: np.empty(shape, dt) for name, shape in param_shapes(cfg).items()}
    np.matmul(cache["Hd"].T, dlogits, out=grads["out_w"])
    np.sum(dlogits, axis=0, out=grads["out_b"])
    # the dense layer's gradient, through dropout and ReLU, in one array;
    # Hd > 0 exactly where the ReLU passed a unit that dropout kept, and
    # the dropout mask has already zeroed the units it dropped
    dhid_pre = dlogits @ p["out_w"].T
    if cache["mask"] is not None:
        dhid_pre *= cache["mask"]
    dhid_pre *= cache["Hd"] > 0.0
    H, C, G, TC = cache["H"], cache["C"], cache["G"], cache["TC"]
    np.matmul(H[T2].T, dhid_pre, out=grads["hid_w"])
    np.sum(dhid_pre, axis=0, out=grads["hid_b"])

    # the loop only carries dh/dc back through time.  It reads a step's
    # gates gate-major, as the forward pass left them, builds their input
    # gradient gate by gate in a (4, B, U) buffer and writes it over them in
    # G in the (B, 4U) order of the weights; the weight gradients are one
    # matmul each over all steps afterwards
    dh = dhid_pre @ p["hid_w"].T
    del dhid_pre
    dc = np.zeros_like(dh)
    wh_t = np.ascontiguousarray(p["lstm_wh"].T)
    dgates = np.empty((4, B, U), dt)
    di, df, dg, do = dgates
    for t in range(T2 - 1, -1, -1):
        gi, gf, gg, go = G[t].reshape(4, B, U)
        tc = TC[t]
        dc += dh * go * (1.0 - tc * tc)
        np.multiply(dc * gg * gi, 1.0 - gi, out=di)
        np.multiply(dc * C[t] * gf, 1.0 - gf, out=df)
        np.multiply(dc * gi, 1.0 - gg * gg, out=dg)
        np.multiply(dh * tc * go, 1.0 - go, out=do)
        dc *= gf
        np.copyto(G[t].reshape(B, 4, U), dgates.transpose(1, 0, 2))
        np.matmul(G[t], wh_t, out=dh)
    dG = G.reshape(T2 * B, 4 * U)
    P = cache["P"]
    np.matmul(P.reshape(T2 * B, F).T, dG, out=grads["lstm_wx"])
    np.matmul(H[:T2].reshape(T2 * B, U).T, dG, out=grads["lstm_wh"])
    np.matmul(ones[: T2 * B], dG, out=grads["lstm_b"])
    # nothing reads P again: the pool gradient dP overwrites it
    dP = P
    np.matmul(dG, p["lstm_wx"].T, out=dP.reshape(T2 * B, F))
    del dG

    # the conv gradient, block by block as the forward pass ran: re-gather
    # the block's windows, un-pool its share of dP into dZ (in the conv
    # activations' buffer "A") through the pool mask, which holds the ReLU's
    # too, and add its share of the conv_w and conv_b gradients; the steps
    # the pool cut have none
    dconv_w = grads["conv_w"].reshape(-1, F)
    for j0 in range(0, T2, step):
        j1 = min(j0 + step, T2)
        win = _windows(model, cache["ids"], j0 * PS, j1 * PS, ws)
        dZ = _buf(ws, "A", ((j1 - j0) * PS, B, F), dt)
        for k in range(PS):
            np.multiply(dP[j0:j1], cache["pool_mask"][k, j0:j1], out=dZ[k::PS])
        dZ = dZ.reshape(-1, F)
        if j0 == 0:
            np.matmul(win.T, dZ, out=dconv_w)
            np.matmul(ones[: len(dZ)], dZ, out=grads["conv_b"])
        else:
            dconv_w += win.T @ dZ
            grads["conv_b"] += ones[: len(dZ)] @ dZ
    return grads


def cross_entropy(probs, onehot):
    """Mean negative log-likelihood of the gold categories (each floored at 1e-300)."""
    picked = np.clip((probs * onehot).sum(axis=1), 1e-300, None)
    return float(-np.mean(np.log(picked)))


def train_step(model, opt, ids, onehot, rng, ws=None):
    """Forward (with dropout drawn from `rng`) + backward + one step of the
    Adamax `opt` on one minibatch; returns the batch loss, the mean
    cross-entropy over its rows.

    `ws` is a workspace dict (see `_buf`) for the activations; passing the
    same one to every step of a run reuses them."""
    probs, cache = _forward(model, ids, rng=rng, want_cache=True, ws=ws)
    loss = cross_entropy(probs, onehot)
    if not np.isfinite(loss):
        raise FloatingPointError(f"non-finite training loss: {loss}")
    grads = _backward(model, cache, onehot, ws=ws)
    for name, grad in grads.items():
        if not np.all(np.isfinite(grad)):
            raise FloatingPointError(f"non-finite gradient in {name}")
    opt.step(model.params, grads)
    return loss


def predict_proba(model, ids, ws=None):
    """Probabilities for (N, seq_len) ids, PREDICT_ROWS rows per forward
    pass; returns (N, C).

    `ws` is a workspace dict (see `_buf`) for the passes' activations:
    passing the same one to every call reuses them, as training does, so a
    warm call allocates no multi-MB array.  The probabilities do not depend
    on it."""
    ids = np.asarray(ids)
    out = np.empty((ids.shape[0], model.config.num_categories))
    for lo in range(0, ids.shape[0], PREDICT_ROWS):
        probs, _ = _forward(model, ids[lo : lo + PREDICT_ROWS], ws=ws)
        out[lo : lo + probs.shape[0]] = probs
    return out


def conv_activations(model, ids):
    """Post-ReLU convolution activations for one sequence: (conv_len, filters)."""
    ids = _checked_ids(model, np.asarray(ids)[None, :])
    tables, slots = _token_table(model, ids, None)
    A = _conv_block(tables, slots, 0, model.config.conv_len, None)[:, 0]
    A += model.params["conv_b"]
    return np.maximum(A, 0.0, out=A)


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
    project) is withheld; after each epoch the parameters are scored by
    function-level accuracy on the withheld slice.  One snapshot holds the
    best epoch's parameters so far, and only a strictly higher accuracy
    replaces it, so the earliest epoch wins ties.  The embedding is frozen
    throughout.  The returned model carries a `history`
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
    best_params = {k: np.empty_like(v) for k, v in work.params.items()}
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
        val_accuracies.append(acc)
        if pick_best_epoch(val_accuracies) == epoch:
            # only a strictly higher accuracy replaces the snapshot, so the
            # first best epoch wins ties
            for k, v in work.params.items():
                np.copyto(best_params[k], v)
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
    return ClassifierModel(cfg, model.embedding, best_params, history=history)


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
