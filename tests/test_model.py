"""Classifier contracts: architecture, gradients, optimizer, fit, IO."""

import tracemalloc

import numpy as np
import pytest

from repocat import model as M
from repocat.model import ClassifierConfig, TrainExample


def tiny_config(**overrides):
    base = dict(
        num_categories=3, seq_len=10, embed_dims=8, filters=4, kernel_size=3,
        pool_size=2, lstm_units=5, hide_u=8, dropout_level=0.0,
        epochs=2, batch_size=8, seed=0,
    )
    base.update(overrides)
    return ClassifierConfig(**base)


def make_model(cfg=None, seed=0, vocab_size=12):
    cfg = cfg or tiny_config()
    rng = np.random.default_rng(seed)
    emb = rng.normal(size=(vocab_size, cfg.embed_dims))
    emb[:2] = 0.0
    return M.init_model(cfg, emb, seed=seed + 1)


def oracle_forward(model, ids_1d):
    """Slow per-element re-implementation of the forward pass."""
    cfg, p = model.config, model.params
    X = model.embedding[np.asarray(ids_1d)]
    T, T2, U = cfg.conv_len, cfg.pooled_len, cfg.lstm_units
    Z = np.zeros((T, cfg.filters))
    for t in range(T):
        for f in range(cfg.filters):
            acc = p["conv_b"][f]
            for k in range(cfg.kernel_size):
                for d in range(cfg.embed_dims):
                    acc += X[t + k, d] * p["conv_w"][k, d, f]
            Z[t, f] = acc
    A = np.maximum(Z, 0.0)
    P = np.zeros((T2, cfg.filters))
    for t2 in range(T2):
        for f in range(cfg.filters):
            P[t2, f] = max(A[t2 * cfg.pool_size + k, f] for k in range(cfg.pool_size))
    h = np.zeros(U)
    c = np.zeros(U)
    for t in range(T2):
        z = P[t] @ p["lstm_wx"] + h @ p["lstm_wh"] + p["lstm_b"]
        gi = 1.0 / (1.0 + np.exp(-z[:U]))
        gf = 1.0 / (1.0 + np.exp(-z[U : 2 * U]))
        gg = np.tanh(z[2 * U : 3 * U])
        go = 1.0 / (1.0 + np.exp(-z[3 * U :]))
        c = gf * c + gi * gg
        h = go * np.tanh(c)
    hid = np.maximum(h @ p["hid_w"] + p["hid_b"], 0.0)
    logits = hid @ p["out_w"] + p["out_b"]
    ex = np.exp(logits - logits.max())
    return ex / ex.sum()


class TestConfig:
    def test_shape_arithmetic_at_stock_defaults(self):
        cfg = ClassifierConfig(num_categories=6)
        assert (cfg.seq_len, cfg.embed_dims) == (60, 100)
        assert cfg.conv_len == 58
        assert cfg.pooled_len == 29
        assert (cfg.filters, cfg.lstm_units, cfg.hide_u) == (250, 100, 512)
        assert cfg.dropout_level == 0.5
        assert cfg.learning_rate == 0.002
        assert (M.BETA1, M.BETA2, M.EPSILON) == (0.9, 0.999, 1e-8)
        assert cfg.epochs == 3 and cfg.batch_size == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            tiny_config(num_categories=1).validate()
        with pytest.raises(ValueError, match="unsupported strides 2"):
            tiny_config(strides=2)
        with pytest.raises(ValueError):
            tiny_config(kernel_size=11).validate()
        with pytest.raises(ValueError):
            tiny_config(pool_size=50).validate()
        with pytest.raises(ValueError):
            tiny_config(dropout_level=1.0).validate()


class TestInit:
    def test_deterministic_and_seed_sensitive(self):
        a, b, c = make_model(seed=3), make_model(seed=3), make_model(seed=4)
        for name in M.PARAM_NAMES:
            np.testing.assert_array_equal(a.params[name], b.params[name])
        assert any(np.abs(a.params[n] - c.params[n]).max() > 0 for n in M.PARAM_NAMES)

    def test_glorot_bounds(self):
        m = make_model()
        cfg = m.config
        K, D, F = cfg.kernel_size, cfg.embed_dims, cfg.filters
        limit = np.sqrt(6.0 / (K * D + F))
        assert np.abs(m.params["conv_w"]).max() <= limit
        limit_wx = np.sqrt(6.0 / (F + cfg.lstm_units))
        assert np.abs(m.params["lstm_wx"]).max() <= limit_wx

    def test_biases(self):
        m = make_model()
        U = m.config.lstm_units
        np.testing.assert_array_equal(m.params["conv_b"], 0.0)
        np.testing.assert_array_equal(m.params["lstm_b"][:U], 0.0)
        np.testing.assert_array_equal(m.params["lstm_b"][U : 2 * U], 1.0)  # forget
        np.testing.assert_array_equal(m.params["lstm_b"][2 * U :], 0.0)
        np.testing.assert_array_equal(m.params["hid_b"], 0.0)
        np.testing.assert_array_equal(m.params["out_b"], 0.0)

    def test_embedding_shape_mismatch_rejected(self):
        cfg = tiny_config()
        with pytest.raises(ValueError):
            M.init_model(cfg, np.zeros((12, cfg.embed_dims + 1)))


class TestForward:
    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(11)
        m = make_model(seed=1)
        for _ in range(5):
            ids = rng.integers(0, 12, size=m.config.seq_len)
            got = M.predict_proba(m, ids[None, :])[0]
            want = oracle_forward(m, ids)
            np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    def test_probabilities_normalize(self):
        m = make_model()
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 12, size=(7, m.config.seq_len))
        probs = M.predict_proba(m, ids)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
        assert (probs >= 0).all()

    def test_batching_invariance(self, monkeypatch):
        m = make_model(seed=2)
        rng = np.random.default_rng(5)
        ids = rng.integers(0, 12, size=(9, m.config.seq_len))
        whole = M.predict_proba(m, ids)
        monkeypatch.setattr(M, "PREDICT_ROWS", 2)
        batched = M.predict_proba(m, ids)
        np.testing.assert_allclose(whole, batched, atol=1e-15)

    @pytest.mark.parametrize("chunk", [1, 16, 37])
    def test_chunked_rows_match_per_row_calls(self, chunk, monkeypatch):
        m = make_model(seed=6)
        ids = np.random.default_rng(6).integers(0, 12, size=(37, m.config.seq_len))
        rows = np.array([M.predict_proba(m, row[None, :])[0] for row in ids])
        monkeypatch.setattr(M, "PREDICT_ROWS", chunk)
        np.testing.assert_allclose(M.predict_proba(m, ids), rows, rtol=0, atol=1e-12)

    def test_bad_ids_rejected(self):
        m = make_model()
        with pytest.raises(ValueError):
            M.predict_proba(m, np.zeros((1, 5), dtype=np.int64))
        bad = np.zeros((1, m.config.seq_len), dtype=np.int64)
        bad[0, 0] = 99
        with pytest.raises(ValueError):
            M.predict_proba(m, bad)

    def test_dropout_requires_rng_and_scales(self):
        m = make_model(tiny_config(dropout_level=0.5))
        ids = np.zeros((4, m.config.seq_len), dtype=np.int64)
        _, cache = M._forward(m, ids, rng=np.random.default_rng(0), want_cache=True)
        mask = cache["mask"]
        assert set(np.unique(mask)) <= {0.0, 2.0}  # inverted dropout at p=0.5
        # inference path ignores dropout entirely
        p1, _ = M._forward(m, ids)
        p2, _ = M._forward(m, ids)
        np.testing.assert_array_equal(p1, p2)


class TestGradients:
    def test_finite_difference_agreement(self):
        err = M.gradient_check(tiny_config(), seed=0)
        assert err < 1e-4, f"max relative gradient error {err}"

    def test_gradient_check_rejects_dropout(self):
        with pytest.raises(ValueError):
            M.gradient_check(tiny_config(dropout_level=0.5))

    def test_tied_pool_windows_pass_the_check(self):
        # one repeated token makes every conv window, so every pool window, tie
        ids = np.full((1, tiny_config().seq_len), 3)
        err = M.gradient_check(tiny_config(), seed=0, ids=ids)
        assert err < 1e-4, f"max relative gradient error {err}"

    def test_tied_pool_window_routes_gradient_to_first_max(self):
        # kernel 1: token 3 is token 2 plus a component on embedding dim 0,
        # whose conv weights are zeroed, so the two tie exactly in every
        # filter; only the dim-0 conv gradient tells which position got it
        cfg = tiny_config(kernel_size=1)
        m = make_model(cfg, seed=4)
        m.embedding[2, 0] = 0.0
        m.embedding[3] = m.embedding[2]
        m.embedding[3, 0] = 1.5
        m.params["conv_w"][0, 0, :] = 0.0
        m.params["conv_b"][:] = 10.0  # keep every activation above the ReLU
        onehot = np.array([[1.0, 0.0, 0.0]])

        def dim0_grad(first, second):
            ids = np.tile([first, second], cfg.seq_len // 2)[None, :]
            act = M.conv_activations(m, ids[0])
            np.testing.assert_array_equal(act[0::2], act[1::2])  # windows tie
            assert (act > 0).all()
            _, cache = M._forward(m, ids, want_cache=True)
            return M._backward(m, cache, onehot)["conv_w"][0, 0]

        np.testing.assert_array_equal(dim0_grad(2, 3), 0.0)  # token 2 first
        assert np.abs(dim0_grad(3, 2)).min() > 0  # token 3 first

    def test_all_parameters_receive_gradient(self):
        m = make_model(seed=7)
        rng = np.random.default_rng(7)
        ids = rng.integers(2, 12, size=(4, m.config.seq_len))
        onehot = np.zeros((4, 3))
        onehot[np.arange(4), rng.integers(0, 3, 4)] = 1.0
        probs, cache = M._forward(m, ids, want_cache=True)
        grads = M._backward(m, cache, onehot)
        assert set(grads) == set(M.PARAM_NAMES)
        for name in M.PARAM_NAMES:
            assert grads[name].shape == m.params[name].shape
            assert np.abs(grads[name]).max() > 0, f"dead gradient: {name}"


def tail_config():
    """Pool 3 over 18 tokens: conv_len 16, pooled_len 5, so one conv step
    falls past the last pool window."""
    cfg = tiny_config(pool_size=3, seq_len=18)
    assert cfg.conv_len % cfg.pool_size != 0
    return cfg


class TestBatchLayout:
    """Several rows at once, on a config whose conv output has a tail the
    pool cuts: a rows/steps mix-up or a mishandled tail shows here."""

    def test_batched_rows_match_loop_oracle(self):
        m = make_model(tail_config(), seed=12)
        ids = np.random.default_rng(12).integers(0, 12, size=(5, m.config.seq_len))
        assert len({tuple(row) for row in ids}) == len(ids)
        got = M.predict_proba(m, ids)
        for row, probs in zip(ids, got):
            np.testing.assert_allclose(probs, oracle_forward(m, row), rtol=0, atol=1e-12)

    def test_batch_gradient_is_mean_of_row_gradients(self):
        m = make_model(tail_config(), seed=13)
        rng = np.random.default_rng(13)
        ids = rng.integers(2, 12, size=(4, m.config.seq_len))
        onehot = np.zeros((4, 3))
        onehot[np.arange(4), [0, 1, 2, 1]] = 1.0
        _, cache = M._forward(m, ids, want_cache=True)
        batch = M._backward(m, cache, onehot)
        rows = []
        for i in range(4):
            _, cache = M._forward(m, ids[i : i + 1], want_cache=True)
            rows.append(M._backward(m, cache, onehot[i : i + 1]))
        for name in M.PARAM_NAMES:
            want = np.mean([g[name] for g in rows], axis=0)
            np.testing.assert_allclose(batch[name], want, rtol=0, atol=1e-12, err_msg=name)

    def test_finite_difference_agreement(self):
        err = M.gradient_check(tail_config(), seed=3)
        assert err < 1e-4, f"max relative gradient error {err}"


def oracle_adamax(param, grads_seq, lr, b1, b2, eps):
    """Independent scalar-loop Adamax over a sequence of gradients."""
    param = param.copy()
    m = np.zeros_like(param)
    u = np.zeros_like(param)
    for t, g in enumerate(grads_seq, start=1):
        for idx in np.ndindex(param.shape):
            m[idx] = b1 * m[idx] + (1 - b1) * g[idx]
            u[idx] = max(b2 * u[idx], abs(g[idx]))
            step = lr * (m[idx] / (1 - b1 ** t)) / (u[idx] + eps)
            param[idx] -= step
    return param


class TestAdamax:
    def test_matches_scalar_oracle(self):
        m = make_model(seed=9)
        cfg = m.config
        rng = np.random.default_rng(3)
        grads_seq = [
            {n: rng.normal(size=m.params[n].shape) for n in M.PARAM_NAMES}
            for _ in range(3)
        ]
        want = {
            n: oracle_adamax(
                m.params[n], [g[n] for g in grads_seq],
                cfg.learning_rate, M.BETA1, M.BETA2, M.EPSILON,
            )
            for n in M.PARAM_NAMES
        }
        opt = M.Adamax(cfg, m.params)
        for g in grads_seq:
            opt.step(m.params, g)
        for n in M.PARAM_NAMES:
            np.testing.assert_allclose(m.params[n], want[n], atol=1e-12)

    def test_zero_gradients_leave_parameters_unchanged(self):
        m = make_model(seed=1)
        before = {n: v.copy() for n, v in m.params.items()}
        zero = {n: np.zeros_like(m.params[n]) for n in M.PARAM_NAMES}
        M.Adamax(m.config, m.params).step(m.params, zero)
        for n in M.PARAM_NAMES:
            np.testing.assert_array_equal(m.params[n], before[n])

    def test_step_counter_advances(self):
        m = make_model()
        zero = {n: np.zeros_like(m.params[n]) for n in M.PARAM_NAMES}
        opt = M.Adamax(m.config, m.params)
        opt.step(m.params, zero)
        opt.step(m.params, zero)
        assert opt.t == 2

    def test_warm_step_allocates_no_parameter_sized_array(self):
        # default shapes in float32: lstm_wx is 400 kB; a step that built
        # its update in temporaries peaked at several times that
        cfg = ClassifierConfig(num_categories=6)
        emb = np.zeros((10, cfg.embed_dims))
        params = M.init_model(cfg, emb, seed=16).astype(M.TRAIN_DTYPE).params
        rng = np.random.default_rng(16)
        grads = {n: rng.normal(size=v.shape).astype(v.dtype) for n, v in params.items()}
        opt = M.Adamax(cfg, params)
        opt.step(params, grads)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            opt.step(params, grads)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < params["lstm_wx"].nbytes / 8, peak

    def test_float32_step_is_the_formula_bit_for_bit(self):
        # the in-place step keeps the formula's operations and their order
        cfg = tiny_config()
        params = {n: v.astype(np.float32) for n, v in make_model(cfg, seed=17).params.items()}
        want = {n: v.copy() for n, v in params.items()}
        m = {n: np.zeros_like(v) for n, v in params.items()}
        u = {n: np.zeros_like(v) for n, v in params.items()}
        opt = M.Adamax(cfg, params)
        rng = np.random.default_rng(17)
        for t in range(1, 4):
            grads = {n: rng.normal(size=v.shape).astype(np.float32) for n, v in params.items()}
            opt.step(params, grads)
            correction = 1.0 - M.BETA1 ** t
            for n, g in grads.items():
                m[n] *= M.BETA1
                m[n] += (1.0 - M.BETA1) * g
                np.maximum(M.BETA2 * u[n], np.abs(g), out=u[n])
                want[n] -= cfg.learning_rate * (m[n] / correction) / (u[n] + M.EPSILON)
        for n in params:
            np.testing.assert_array_equal(params[n], want[n], err_msg=n)


def synthetic_examples(cfg, vocab_size=12, projects_per_cat=6, funcs=6, seed=0):
    """Separable toy task: category c draws ids from its own id band."""
    rng = np.random.default_rng(seed)
    bands = np.array_split(np.arange(2, vocab_size), cfg.num_categories)
    examples = []
    for cat in range(cfg.num_categories):
        for pi in range(projects_per_cat):
            pname = f"cat{cat}proj{pi}"
            for _ in range(funcs):
                ids = rng.choice(bands[cat], size=cfg.seq_len, replace=True)
                examples.append(TrainExample(pname, ids.astype(np.int64), cat))
    return examples


class TestTrainStep:
    def test_loss_decreases_on_fixed_batch(self):
        cfg = tiny_config(num_categories=2, dropout_level=0.0)
        m = make_model(cfg, seed=5)
        ex = synthetic_examples(cfg, seed=5)
        X = np.stack([e.ids for e in ex[:16]])
        Y = np.zeros((16, 2))
        Y[np.arange(16), [e.label for e in ex[:16]]] = 1.0
        opt, rng = M.Adamax(cfg, m.params), np.random.default_rng(5)
        losses = [M.train_step(m, opt, X, Y, rng) for _ in range(30)]
        assert losses[-1] < losses[0]

    def test_non_finite_loss_aborts(self):
        m = make_model()
        m.params["out_b"][0] = np.inf  # poisons softmax with inf - inf
        ids = np.full((2, m.config.seq_len), 3, dtype=np.int64)
        Y = np.zeros((2, 3))
        Y[:, 0] = 1.0
        opt = M.Adamax(m.config, m.params)
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError):
            M.train_step(m, opt, ids, Y, np.random.default_rng(0))


class TestWorkspace:
    """fit hands every train step the same workspace (see model._buf)."""

    def _three_steps(self, ws):
        m = make_model(tail_config(), seed=14).astype(M.TRAIN_DTYPE)
        opt = M.Adamax(m.config, m.params)
        rng = np.random.default_rng(14)
        losses = []
        for rows in (4, 3, 4):
            ids = rng.integers(0, 12, size=(rows, m.config.seq_len))
            onehot = np.zeros((rows, 3))
            onehot[np.arange(rows), rng.integers(0, 3, rows)] = 1.0
            losses.append(M.train_step(m, opt, ids, onehot, rng, ws=ws))
        return losses, m.params

    @staticmethod
    def _fill_with_junk(monkeypatch):
        buf = M._buf

        def junk_buf(ws, name, shape, dtype):
            # a reused array holds anything: whatever a pass reads before
            # writing it shows as a changed loss, parameter or probability
            arr = buf(ws, name, shape, dtype)
            arr.fill(True if arr.dtype == bool else 7.0)
            return arr

        monkeypatch.setattr(M, "_buf", junk_buf)

    def test_shared_workspace_matches_fresh_buffers(self, monkeypatch):
        want_losses, want = self._three_steps(ws=None)
        self._fill_with_junk(monkeypatch)
        ws = {}
        got_losses, got = self._three_steps(ws=ws)
        assert {"H", "C", "dG", "taken"} <= set(ws)
        assert got_losses == want_losses
        for name in M.PARAM_NAMES:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)

    def test_warm_workspace_allocates_little(self):
        cfg = ClassifierConfig(num_categories=6)
        emb = np.random.default_rng(15).normal(size=(200, cfg.embed_dims))
        m = M.init_model(cfg, emb, seed=15).astype(M.TRAIN_DTYPE)
        opt = M.Adamax(cfg, m.params)
        rng = np.random.default_rng(15)
        ids = rng.integers(0, 200, size=(cfg.batch_size, cfg.seq_len))
        onehot = np.zeros((cfg.batch_size, 6))
        onehot[np.arange(cfg.batch_size), rng.integers(0, 6, cfg.batch_size)] = 1.0
        ws = {}
        M.train_step(m, opt, ids, onehot, rng, ws=ws)  # fills the workspace
        peaks = {}
        tracemalloc.start()
        try:
            for key, step_ws in (("warm", ws), ("fresh", None)):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                M.train_step(m, opt, ids, onehot, rng, ws=step_ws)
                peaks[key] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # 1.86 MB against 42.1 MB here: the gradients go into the workspace
        # too, so what a warm step allocates is the small per-step temporaries
        assert peaks["warm"] <= peaks["fresh"] / 20, peaks

    def test_smaller_shapes_share_the_memory_larger_ones_grow_it(self):
        ws = {}
        first = M._buf(ws, "x", (3, 4, 5), np.float32)
        smaller = M._buf(ws, "x", (2, 4, 5), np.float32)
        assert smaller.shape == (2, 4, 5) and np.shares_memory(first, smaller)
        larger = M._buf(ws, "x", (4, 4, 5), np.float32)
        assert larger.shape == (4, 4, 5) and not np.shares_memory(first, larger)
        assert np.shares_memory(larger, M._buf(ws, "x", (3, 4, 5), np.float32))
        assert ws["x"].shape == (80,)
        flags = M._buf(ws, "x", (3, 4, 5), bool)
        assert flags.dtype == bool and not np.shares_memory(larger, flags)

    def test_predict_with_a_workspace_matches_without(self, monkeypatch):
        m = make_model(tail_config(), seed=16).astype(M.TRAIN_DTYPE)
        rng = np.random.default_rng(16)
        batches = [rng.integers(0, 12, size=(rows, m.config.seq_len))
                   for rows in (M.PREDICT_ROWS + 5, 3, 2 * M.PREDICT_ROWS)]
        want = [M.predict_proba(m, ids) for ids in batches]
        self._fill_with_junk(monkeypatch)
        ws = {}
        for ids, probs in zip(batches, want):
            np.testing.assert_array_equal(M.predict_proba(m, ids, ws=ws), probs)
        assert {"win_flat", "A", "P", "G", "H", "C", "TC"} == set(ws)

    def test_warm_predict_allocates_little(self):
        cfg = ClassifierConfig(num_categories=6)
        emb = np.random.default_rng(17).normal(size=(200, cfg.embed_dims))
        m = M.init_model(cfg, emb, seed=17).astype(M.TRAIN_DTYPE)
        ids = np.random.default_rng(17).integers(0, 200, size=(100, cfg.seq_len))
        ws = {}
        M.predict_proba(m, ids, ws=ws)  # fills the workspace
        peaks = {}
        tracemalloc.start()
        try:
            for key, call_ws in (("warm", ws), ("fresh", None)):
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                M.predict_proba(m, ids, ws=call_ws)
                peaks[key] = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # 0.60 MB against 4.87 MB here; most of the warm peak is the LSTM
        # weights with their gate columns halved, made afresh per pass
        assert peaks["warm"] <= peaks["fresh"] / 5, peaks

    def test_workspace_size_at_the_default_config(self):
        # batch 128 in float32: 40.2 MB of activations, since the pool and
        # conv gradients reuse the pool and conv activations' buffers and the
        # lookup writes the conv windows directly (54.4 MB with separate
        # buffers), plus one parameter-sized buffer per gradient (1.1 MB)
        cfg = ClassifierConfig(num_categories=6)
        emb = np.random.default_rng(18).normal(size=(50, cfg.embed_dims))
        m = M.init_model(cfg, emb, seed=18).astype(M.TRAIN_DTYPE)
        rng = np.random.default_rng(18)
        ids = rng.integers(0, 50, size=(cfg.batch_size, cfg.seq_len))
        onehot = np.zeros((cfg.batch_size, 6))
        onehot[np.arange(cfg.batch_size), rng.integers(0, 6, cfg.batch_size)] = 1.0
        ws = {}
        M.train_step(m, M.Adamax(cfg, m.params), ids, onehot, rng, ws=ws)
        grads = {"d" + name for name in M.PARAM_NAMES}
        assert sum(arr.nbytes for name, arr in ws.items() if name not in grads) < 41e6
        assert sum(ws[name].nbytes for name in grads) == sum(
            arr.nbytes for arr in m.params.values())


class TestFit:
    def test_best_snapshot_selection(self):
        assert M.pick_best_epoch([0.4, 0.7, 0.6]) == 1
        assert M.pick_best_epoch([0.5, 0.7, 0.7]) == 1  # first max on ties
        assert M.pick_best_epoch([0.9]) == 0
        with pytest.raises(ValueError):
            M.pick_best_epoch([])

    def test_fit_learns_and_freezes_embedding(self):
        # toy-sized run: fewer steps than the real pipeline, so a higher
        # learning rate keeps the test fast while still exercising fit
        cfg = tiny_config(num_categories=2, epochs=10, batch_size=16,
                          learning_rate=0.02, dropout_level=0.25,
                          validation_fraction=0.2, seed=2)
        m = make_model(cfg, seed=2)
        emb_before = m.embedding.copy()
        examples = synthetic_examples(cfg, seed=2)
        best = M.fit(m, examples)
        np.testing.assert_array_equal(best.embedding, emb_before)  # frozen
        assert len(best.history["val_accuracy"]) == cfg.epochs
        assert best.history["best_epoch"] == int(np.argmax(best.history["val_accuracy"]))
        X = np.stack([e.ids for e in examples])
        y = np.array([e.label for e in examples])
        acc = float(np.mean(M.predict_proba(best, X).argmax(axis=1) == y))
        assert acc > 0.9

    def test_fit_is_deterministic(self):
        cfg = tiny_config(num_categories=2, epochs=2, batch_size=16, seed=4)
        ex = synthetic_examples(cfg, seed=4)
        m1 = M.fit(make_model(cfg, seed=4), ex)
        m2 = M.fit(make_model(cfg, seed=4), ex)
        for n in M.PARAM_NAMES:
            np.testing.assert_array_equal(m1.params[n], m2.params[n])
        assert m1.history == m2.history

    def test_validation_projects_withheld(self):
        cfg = tiny_config(num_categories=2, validation_fraction=0.25, seed=1)
        ex = synthetic_examples(cfg, projects_per_cat=4, seed=1)
        best = M.fit(make_model(cfg, seed=1), ex)
        # 8 projects, fraction 0.25 -> 2 withheld
        assert len(best.history["val_projects"]) == 2

    def test_missing_category_rejected(self):
        cfg = tiny_config(num_categories=3)
        ex = [e for e in synthetic_examples(cfg) if e.label != 2]
        with pytest.raises(ValueError, match="categories"):
            M.fit(make_model(cfg), ex)

    def test_single_project_cannot_fit(self):
        cfg = tiny_config(num_categories=2)
        ex = [
            TrainExample("only", np.full(cfg.seq_len, 2, dtype=np.int64), 0),
            TrainExample("only", np.full(cfg.seq_len, 3, dtype=np.int64), 1),
        ]
        with pytest.raises(ValueError, match="validation"):
            M.fit(make_model(cfg), ex)

    @pytest.mark.parametrize("learning_rate", [1e30, float("nan")])
    def test_blown_up_training_stops_loudly(self, learning_rate):
        # one step per epoch: no later train step sees the blown-up weights,
        # so only the validation pass can catch them
        cfg = tiny_config(num_categories=2, epochs=1, batch_size=1000,
                          learning_rate=learning_rate, seed=4)
        with np.errstate(all="ignore"), pytest.raises(
            FloatingPointError, match="diverged in epoch 1"
        ):
            M.fit(make_model(cfg, seed=4), synthetic_examples(cfg, seed=4))

    def test_category_vanishing_into_validation_rejected(self):
        cfg = tiny_config(num_categories=2, validation_fraction=0.5, seed=0)
        # category 1 lives in exactly one project; any seed that withholds it
        # must error.  With fraction 0.5 and 2 projects, 1 is withheld.
        ex = [
            TrainExample("pa", np.full(cfg.seq_len, 2, dtype=np.int64), 0),
            TrainExample("pb", np.full(cfg.seq_len, 7, dtype=np.int64), 1),
        ]
        with pytest.raises(ValueError):
            M.fit(make_model(cfg), ex)


class TestTrainingPrecision:
    def test_float32_model_computes_in_float32(self):
        m = make_model(tiny_config(dropout_level=0.5), seed=7)
        params32 = {n: v.astype(np.float32) for n, v in m.params.items()}
        m32 = M.ClassifierModel(m.config, m.embedding, params32)
        rng = np.random.default_rng(7)
        ids = rng.integers(2, 12, size=(4, m.config.seq_len))
        onehot = np.zeros((4, 3))
        onehot[np.arange(4), rng.integers(0, 3, 4)] = 1.0
        _, cache = M._forward(m32, ids, rng=rng, want_cache=True)
        for name, arr in cache.items():
            if name != "pool_mask":
                assert arr.dtype == np.float32, name
        grads = M._backward(m32, cache, onehot)
        for name, grad in grads.items():
            assert grad.dtype == np.float32, name
        opt = M.Adamax(m32.config, m32.params)
        opt.step(m32.params, grads)
        for store in (m32.params, opt.m, opt.u):
            assert {v.dtype for v in store.values()} == {np.dtype(np.float32)}

    def test_fit_returns_a_training_dtype_network(self):
        cfg = tiny_config(num_categories=2, epochs=2, batch_size=16, seed=4)
        m = make_model(cfg, seed=4)
        before = {n: v.copy() for n, v in m.params.items()}
        best = M.fit(m, synthetic_examples(cfg, seed=4))
        assert best.embedding is m.embedding
        assert best.embedding.dtype == np.float64
        assert best.table.dtype == M.TRAIN_DTYPE
        np.testing.assert_array_equal(best.table, m.embedding.astype(M.TRAIN_DTYPE))
        for n in M.PARAM_NAMES:
            assert best.params[n].dtype == M.TRAIN_DTYPE, n
            assert m.params[n].dtype == np.float64, n
            np.testing.assert_array_equal(m.params[n], before[n])  # caller's copy untouched


class TestActivations:
    def test_shape_and_nonnegativity(self):
        m = make_model()
        ids = np.random.default_rng(0).integers(0, 12, size=m.config.seq_len)
        act = M.conv_activations(m, ids)
        assert act.shape == (m.config.conv_len, m.config.filters)
        assert (act >= 0).all()

    def test_matches_oracle_prefix(self):
        m = make_model(seed=3)
        ids = np.random.default_rng(1).integers(0, 12, size=m.config.seq_len)
        cfg, p = m.config, m.params
        X = m.embedding[ids]
        want = np.zeros((cfg.conv_len, cfg.filters))
        for t in range(cfg.conv_len):
            for f in range(cfg.filters):
                acc = p["conv_b"][f]
                for k in range(cfg.kernel_size):
                    acc += X[t + k] @ p["conv_w"][k, :, f]
                want[t, f] = max(acc, 0.0)
        np.testing.assert_allclose(M.conv_activations(m, ids), want, atol=1e-12)


class TestModelIO:
    def test_round_trip_predictions_identical(self, tmp_path):
        from repocat import tokens as T

        cfg = tiny_config()
        m = make_model(cfg, seed=8)
        vocab = T.build_vocabulary([[f"tok{i}" for i in range(10)]])
        path = tmp_path / "model.ckpt"
        M.save_model(path, m, vocab, ["games", "sound", "science"])
        loaded, vocab2, categories, meta = M.load_model(path)
        assert categories == ["games", "sound", "science"]
        assert vocab2.tokens() == vocab.tokens()
        assert meta["kind"] == "nn"
        ids = np.random.default_rng(2).integers(0, 12, size=(5, cfg.seq_len))
        np.testing.assert_array_equal(
            M.predict_proba(m.astype(M.TRAIN_DTYPE), ids), M.predict_proba(loaded, ids)
        )

    def test_vocab_hash_guard(self, tmp_path):
        from repocat import checkpoint as C
        from repocat import tokens as T

        cfg = tiny_config()
        m = make_model(cfg)
        vocab = T.build_vocabulary([[f"tok{i}" for i in range(10)]])
        path = tmp_path / "model.ckpt"
        M.save_model(path, m, vocab, ["a", "b", "c"])
        meta, arrays = C.load_checkpoint(path)
        meta["vocab_sha256"] = "0" * 64
        C.save_checkpoint(path, meta, arrays)
        with pytest.raises(ValueError, match="hash"):
            M.load_model(path)

    def test_header_naming_the_optimizer_loads(self, tmp_path):
        # checkpoints written while ClassifierConfig had an `optimizer` field
        from repocat import checkpoint as C
        from repocat import tokens as T

        cfg = tiny_config()
        m = make_model(cfg, seed=8)
        vocab = T.build_vocabulary([[f"tok{i}" for i in range(10)]])
        path = tmp_path / "model.ckpt"
        M.save_model(path, m, vocab, ["a", "b", "c"])
        meta, arrays = C.load_checkpoint(path)
        meta["config"]["optimizer"] = "adamax"
        C.save_checkpoint(path, meta, arrays)
        loaded, _, _, loaded_meta = M.load_model(path)
        assert loaded.config == cfg
        assert loaded_meta["config"]["optimizer"] == "adamax"
        ids = np.random.default_rng(2).integers(0, 12, size=(5, cfg.seq_len))
        np.testing.assert_array_equal(
            M.predict_proba(m.astype(M.TRAIN_DTYPE), ids), M.predict_proba(loaded, ids)
        )
        meta["config"]["optimizer"] = "sgd"
        C.save_checkpoint(path, meta, arrays)
        with pytest.raises(ValueError, match=r"model\.ckpt: unsupported optimizer 'sgd'"):
            M.load_model(path)

    def test_header_spelling_out_the_constants_loads(self, tmp_path):
        # checkpoints written while the stride and Adamax's constants were
        # config fields name them; another value than the constant's is refused
        from repocat import checkpoint as C
        from repocat import tokens as T

        cfg = tiny_config()
        m = make_model(cfg, seed=8)
        vocab = T.build_vocabulary([[f"tok{i}" for i in range(10)]])
        path = tmp_path / "model.ckpt"
        M.save_model(path, m, vocab, ["a", "b", "c"])
        meta, arrays = C.load_checkpoint(path)
        meta["config"].update(strides=1, beta1=0.9, beta2=0.999, epsilon=1e-8)
        C.save_checkpoint(path, meta, arrays)
        loaded, _, _, _ = M.load_model(path)
        assert loaded.config == cfg
        ids = np.random.default_rng(2).integers(0, 12, size=(5, cfg.seq_len))
        np.testing.assert_array_equal(
            M.predict_proba(m.astype(M.TRAIN_DTYPE), ids), M.predict_proba(loaded, ids)
        )
        for key, value in (("strides", 2), ("beta1", 0.5)):
            C.save_checkpoint(path, {**meta, "config": {**meta["config"], key: value}}, arrays)
            with pytest.raises(ValueError, match=rf"model\.ckpt: unsupported {key} {value}$"):
                M.load_model(path)

    @pytest.mark.parametrize("edit, message", [
        (lambda arrays: arrays.pop("lstm_wh"), "checkpoint arrays"),
        (lambda arrays: arrays.update(out_b=np.zeros(4)), r"'out_b' has shape \(4,\)"),
    ], ids=["missing", "wrong-shape"])
    def test_arrays_checked_against_config(self, tmp_path, edit, message):
        from repocat import checkpoint as C
        from repocat import tokens as T

        m = make_model(tiny_config())
        vocab = T.build_vocabulary([[f"tok{i}" for i in range(10)]])
        path = tmp_path / "model.ckpt"
        M.save_model(path, m, vocab, ["a", "b", "c"])
        meta, arrays = C.load_checkpoint(path)
        edit(arrays)
        C.save_checkpoint(path, meta, arrays)
        with pytest.raises(ValueError, match=r"model\.ckpt: .*" + message):
            M.load_model(path)

    def test_load_returns_a_training_dtype_network(self, tmp_path):
        # the checkpoint stores float64; the loaded network runs in
        # TRAIN_DTYPE, and a fitted network's parameters come back exactly
        from repocat import checkpoint as C
        from repocat import tokens as T

        m = make_model(tiny_config(), seed=8).astype(M.TRAIN_DTYPE)
        vocab = T.build_vocabulary([[f"tok{i}" for i in range(10)]])
        path = tmp_path / "model.ckpt"
        M.save_model(path, m, vocab, ["a", "b", "c"])
        _, stored = C.load_checkpoint(path)
        loaded, _, _, _ = M.load_model(path)
        assert loaded.embedding.dtype == np.float64
        np.testing.assert_array_equal(loaded.embedding, stored["embedding"])
        assert loaded.table.dtype == M.TRAIN_DTYPE
        np.testing.assert_array_equal(loaded.table, m.table)
        for n in M.PARAM_NAMES:
            assert stored[n].dtype == np.float64, n
            assert loaded.params[n].dtype == M.TRAIN_DTYPE, n
            np.testing.assert_array_equal(loaded.params[n], m.params[n])

    def test_wrong_kind_rejected(self, tmp_path):
        from repocat import checkpoint as C

        path = tmp_path / "lr.ckpt"
        C.save_checkpoint(path, {"kind": "lr"}, {"w": np.zeros((2, 2))})
        with pytest.raises(ValueError, match="kind"):
            M.load_model(path)
