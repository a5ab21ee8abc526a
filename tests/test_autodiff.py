import gc
import tracemalloc

import numpy as np
import pytest

import tttlab.harness as harness_mod
import tttlab.inner as inner_mod
import tttlab.layer as layer_mod
import tttlab.model as model_mod
from tttlab import autodiff as ad
from tttlab import tensor as T
from tttlab.autodiff import ContractError, OracleError, Tape, gradcheck
from tttlab import data as D
from tttlab.harness import RecallModel, RunConfig
from tttlab.inner import DivergenceError, InnerModel, InnerTrainConfig, inner_update
from tttlab.layer import TTTLayerParams, ttt_attention, ttt_attention_nodes
from tttlab.model import Model, ModelConfig, forward_classifier

RNG = np.random.default_rng(11)


def numeric_grad(f, arr, eps=1e-6):
    g = np.zeros_like(arr)
    flat, gf = arr.reshape(-1), g.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        fp = f(arr)
        flat[i] = orig - eps
        fm = f(arr)
        flat[i] = orig
        gf[i] = (fp - fm) / (2 * eps)
    return g


def check_unary(op, shape=(3, 4), low=-2.0, high=2.0, tol=1e-7, **kwargs):
    x0 = RNG.uniform(low, high, shape)

    def run(arr):
        t = Tape()
        return float(ad.sum_all(op(t.leaf(arr, name="x", param=True), **kwargs)).value)

    t = Tape()
    leaf = t.leaf(x0, name="x", param=True)
    analytic = t.backward(ad.sum_all(op(leaf, **kwargs)))["x"]
    assert np.abs(analytic - numeric_grad(run, x0.copy())).max() < tol


class TestPerOpGradients:
    def test_silu(self):
        check_unary(ad.silu)

    def test_silu_prime(self):
        check_unary(ad.silu_prime)

    def test_sigmoid(self):
        check_unary(ad.sigmoid)

    def test_sqrt(self):
        check_unary(ad.sqrt_, low=0.5, high=3.0)

    def test_reciprocal(self):
        check_unary(ad.reciprocal, low=0.5, high=3.0)

    def test_abs(self):
        check_unary(ad.abs_)

    def test_huber(self):
        check_unary(ad.huber)

    def test_huber_prime(self):
        check_unary(ad.huber_prime)

    def test_clip_min(self):
        check_unary(ad.clip_min, c=0.1, low=0.2, high=2.0)

    def test_transpose_reshape_rows_pad(self):
        def op(x):
            y = ad.transpose(ad.reshape(x, (4, 3)))
            y = ad.rows(y, 1, 3)
            return ad.pad_rows(y, 5, 2, 4)
        check_unary(op)

    def test_sum_last_and_mean_tokens(self):
        check_unary(lambda x: ad.mean_tokens(ad.reshape(ad.sum_last(x), (3, 4, 1))),
                    shape=(3, 4, 2))

    def test_layer_norm(self):
        x0 = RNG.standard_normal((5, 6))
        g0 = RNG.uniform(0.5, 1.5, 6)
        b0 = RNG.standard_normal(6)

        def f(p, t):
            return ad.sum_all(ad.mul(out := ad.layer_norm(
                t.leaf(p["x"], name="x", param=True),
                t.leaf(p["g"], name="g", param=True),
                t.leaf(p["b"], name="b", param=True)), out))
        assert gradcheck(f, {"x": x0, "g": g0, "b": b0}) < 1e-7

    def test_matmul_broadcast_batched(self):
        a0 = RNG.standard_normal((2, 3, 4))
        b0 = RNG.standard_normal((4, 5))

        def f(p, t):
            prod = ad.matmul(t.leaf(p["a"], name="a", param=True),
                             t.leaf(p["b"], name="b", param=True))
            return ad.sum_all(ad.mul(prod, prod))
        assert gradcheck(f, {"a": a0, "b": b0}) < 1e-7

    def test_linear(self):
        for xshape in ((2, 3, 4), (3, 4)):
            x0 = RNG.standard_normal(xshape)
            w0 = RNG.standard_normal((4, 5))
            b0 = RNG.standard_normal(5)

            def f(p, t):
                out = ad.linear(t.leaf(p["x"], name="x", param=True),
                                t.leaf(p["w"], name="w", param=True),
                                t.leaf(p["b"], name="b", param=True))
                return ad.sum_all(ad.mul(out, out))
            assert gradcheck(f, {"x": x0, "w": w0, "b": b0}) < 1e-7

    def test_linear_counts_like_matmul_plus_bias(self):
        x0, w0, b0 = RNG.standard_normal((2, 3, 4)), RNG.standard_normal((4, 5)), np.zeros(5)
        t = Tape()
        with T.count_flops() as fc:
            ad.linear(t.leaf(x0), t.leaf(w0), t.leaf(b0))
        m, k, n = 2 * 3, 4, 5
        assert fc.total == 2 * m * k * n + m * n
        with T.count_flops() as ref:
            T.matmul(x0, w0)
        assert fc.total == ref.total + m * n

    def test_colscale_matscale(self):
        m0 = RNG.standard_normal((2, 4, 3))
        s0 = RNG.standard_normal((2, 4))
        r0 = RNG.standard_normal((2,))

        def f(p, t):
            out = ad.colscale(t.leaf(p["m"], name="m", param=True),
                              t.leaf(p["s"], name="s", param=True))
            out = ad.matscale(out, t.leaf(p["r"], name="r", param=True))
            return ad.sum_all(ad.mul(out, out))
        assert gradcheck(f, {"m": m0, "s": s0, "r": r0}) < 1e-7

    def test_concat_last(self):
        a0, b0 = RNG.standard_normal((3, 2)), RNG.standard_normal((3, 4))

        def f(p, t):
            cat = ad.concat_last([t.leaf(p["a"], name="a", param=True),
                                  t.leaf(p["b"], name="b", param=True)])
            return ad.sum_all(ad.mul(cat, cat))
        assert gradcheck(f, {"a": a0, "b": b0}) < 1e-7

    def test_cross_entropy(self):
        logits0 = RNG.standard_normal((4, 5))
        labels = np.array([0, 3, 2, 1])

        def f(p, t):
            return ad.cross_entropy(t.leaf(p["l"], name="l", param=True), labels)
        assert gradcheck(f, {"l": logits0}) < 1e-8

    def test_convs(self):
        x0 = RNG.standard_normal((2, 3, 3, 2))
        kd0 = RNG.standard_normal((3, 3, 2))
        kf0 = RNG.standard_normal((3, 3, 2, 2))

        def f(p, t):
            x = t.leaf(p["x"], name="x", param=True)
            y = ad.dwconv3x3(x, t.leaf(p["kd"], name="kd", param=True))
            z = ad.conv3x3(y, t.leaf(p["kf"], name="kf", param=True))
            return ad.sum_all(ad.mul(z, z))
        assert gradcheck(f, {"x": x0, "kd": kd0, "kf": kf0}) < 1e-7

    def test_conv_wgrad_ops(self):
        x0 = RNG.standard_normal((2, 3, 3, 2))
        g0 = RNG.standard_normal((2, 3, 3, 2))

        def f(p, t):
            h = ad.dwconv3x3_wgrad(t.leaf(p["x"], name="x", param=True),
                                   t.leaf(p["g"], name="g", param=True))
            return ad.sum_all(ad.mul(h, h))
        assert gradcheck(f, {"x": x0, "g": g0}) < 1e-7

        def f2(p, t):
            h = ad.conv3x3_wgrad(t.leaf(p["x"], name="x", param=True),
                                 t.leaf(p["g"], name="g", param=True))
            return ad.sum_all(ad.mul(h, h))
        assert gradcheck(f2, {"x": x0, "g": g0}) < 1e-7


class TestBackwardContract:
    def test_quadratic(self):
        t = Tape()
        x = t.leaf(np.array([[1.0, 2.0, 3.0]]), name="x", param=True)
        grads = t.backward(ad.sum_all(ad.mul(x, x)))
        assert np.array_equal(grads["x"], [[2.0, 4.0, 6.0]])

    def test_matmul_grad_pattern(self):
        a0 = RNG.standard_normal((3, 4))
        b0 = RNG.standard_normal((4, 2))
        t = Tape()
        a = t.leaf(a0, name="a", param=True)
        grads = t.backward(ad.sum_all(ad.matmul(a, t.leaf(b0))))
        # d/dA sum(AB) = ones @ B^T
        assert np.abs(grads["a"] - np.ones((3, 2)) @ b0.T).max() < 1e-12

    def test_non_scalar_root_rejected(self):
        t = Tape()
        x = t.leaf(np.zeros((2, 2)), name="x", param=True)
        with pytest.raises(ContractError):
            t.backward(ad.mul(x, x))

    def test_untouched_leaf_gets_zeros(self):
        t = Tape()
        x = t.leaf(np.ones(3), name="x", param=True)
        unused = t.leaf(np.ones((2, 2)), name="unused", param=True)
        grads = t.backward(ad.sum_all(x))
        assert np.array_equal(grads["unused"], np.zeros((2, 2)))
        assert unused.value.shape == (2, 2)

    def test_untouched_leaf_gets_zeros_of_its_dtype(self):
        t = Tape()
        x = t.leaf(np.ones(3, np.float32), name="x", param=True)
        t.leaf(np.ones((2, 4), np.float32), name="unused", param=True)
        grads = t.backward(ad.sum_all(x))
        assert grads["unused"].dtype == np.float32 and grads["unused"].shape == (2, 4)
        assert not grads["unused"].any()
        assert np.array_equal(grads["x"], np.ones(3, np.float32))

    def test_each_node_visited_once(self):
        # diamond graph: y = x*x + x*x reuses the same mul node twice
        t = Tape()
        x = t.leaf(np.array([3.0]), name="x", param=True)
        sq = ad.mul(x, x)
        grads = t.backward(ad.sum_all(ad.add(sq, sq)))
        assert grads["x"][0] == pytest.approx(12.0)

    def test_accumulation_is_deterministic(self):
        t1, t2 = Tape(), Tape()
        outs = []
        for t in (t1, t2):
            x = t.leaf(RNG.standard_normal((4, 4)) * 0 + np.arange(16.0).reshape(4, 4),
                       name="x", param=True)
            y = ad.add(ad.mul(x, x), ad.transpose(x))
            outs.append(t.backward(ad.sum_all(y))["x"])
        assert np.array_equal(outs[0], outs[1])


class TestGradcheck:
    def test_constant_function(self):
        def f(p, t):
            t.leaf(p["x"], name="x", param=True)
            return t.leaf(np.asarray(1.0))
        assert gradcheck(f, {"x": np.ones(3)}) == 0.0

    def test_mse_inner_loss_of_mlp(self):
        # d=4, N=6 two-layer MLP inner model under MSE
        from tttlab.inner import get_arch, loss_value
        arch = get_arch("mlp_r1_l2")
        k0 = RNG.standard_normal((6, 4))
        v0 = RNG.standard_normal((6, 4))
        ws0 = arch.init(np.random.default_rng(3), 4)

        def f(p, t):
            ws = [t.leaf(p[f"w{j}"], name=f"w{j}", param=True) for j in range(2)]
            vhat = arch.forward(ws, t.leaf(k0))
            return loss_value("mse", vhat, t.leaf(v0))
        params = {f"w{j}": w for j, w in enumerate(ws0)}
        assert gradcheck(f, params, eps=1e-5) < 1e-6

    def test_non_deterministic_function_rejected(self):
        def f(p, t):
            t.leaf(p["x"], name="x", param=True)
            return t.leaf(np.asarray(np.random.rand()))
        with pytest.raises(OracleError):
            gradcheck(f, {"x": np.ones(2)})

    def test_non_finite_root_is_named_not_called_non_deterministic(self):
        def f(p, t):
            return ad.sum_all(ad.sqrt_(t.leaf(p["x"], name="x", param=True)))
        with np.errstate(invalid="ignore"), \
                pytest.raises(T.NonFiniteError, match=r"^gradcheck root \(sum_all\)"):
            gradcheck(f, {"x": np.array([-1.0, 4.0])})

    def test_only_the_analytic_pass_records(self):
        recorded = []

        def f(p, t):
            recorded.append(t.record)
            x = t.leaf(p["x"], name="x", param=True)
            return ad.sum_all(ad.mul(x, x))
        assert gradcheck(f, {"x": np.arange(3.0)}) < 1e-8
        # one recorded pass, the determinism check and 2 evaluations per entry
        assert recorded == [True] + [False] * (1 + 2 * 3)


class TestLayerGradientFlow:
    def _layer_grads(self, loss):
        rng = np.random.default_rng(5)
        params = TTTLayerParams.create(rng, 8, 1, ("mlp_r1_l2",))
        x = rng.standard_normal((7, 8))
        cfg = InnerTrainConfig(loss=loss, lr=0.8)
        t = Tape()
        leaves = {k: t.leaf(v, name=k, param=True)
                  for k, v in params.named_arrays().items()}
        out = ttt_attention_nodes(t.leaf(x), leaves, params, cfg)
        return t.backward(ad.sum_all(out))

    def test_wv_grad_nonzero_for_mse(self):
        assert np.abs(self._layer_grads("mse")["h0.wv"]).max() > 1e-6

    def test_wv_grad_exactly_zero_for_mae(self):
        # the sign pathway blocks d2L/dVhat dV, so W_V gets no signal at all
        grads = self._layer_grads("mae")
        assert np.all(grads["h0.wv"] == 0.0)

    def test_wv_grad_nonzero_for_dot(self):
        assert np.abs(self._layer_grads("dot")["h0.wv"]).max() > 1e-6

    def test_layer_matches_finite_differences(self):
        rng = np.random.default_rng(6)
        params = TTTLayerParams.create(rng, 6, 1, ("fc",))
        x = rng.standard_normal((5, 6))
        cfg = InnerTrainConfig(loss="mse")

        def f(p, t):
            leaves = {k: t.leaf(v, name=k, param=True) for k, v in p.items()}
            out = ttt_attention_nodes(t.leaf(x), leaves, params, cfg)
            return ad.sum_all(ad.mul(out, out))
        p = {k: np.asarray(v) for k, v in params.named_arrays().items()}
        assert gradcheck(f, p) < 1e-6


# ---------------------------------------------------------------------------
# backward spends the graph; value-only helpers release their tape

def live_tapes() -> int:
    return sum(isinstance(o, Tape) for o in gc.get_objects())


def _tiny_classifier():
    model = Model(ModelConfig(image_size=8, patch_size=4, dim=8, heads=2, depth=1),
                  np.random.default_rng(0))
    return model, np.random.default_rng(1).random((2, 8, 8, 3)).astype(np.float32)


def _model_step():
    model, images = _tiny_classifier()
    return lambda: model.loss_and_grads(images, np.array([1, 7]))


def _tiny_recall():
    rc = RunConfig(dim=8, heads=2, recall_seq=5, recall_width=4, recall_keys=6,
                   inner_loss="mse", inner_parts=2)
    task = D.synth_recall_task(0, 4, rc.recall_seq, rc.recall_width, n_keys=rc.recall_keys)
    return RecallModel(rc, task.n_classes, np.random.default_rng(2)), task


def _recall_step():
    model, task = _tiny_recall()
    return lambda: model.loss_and_grads(task.tokens, task.labels)


def _forward_classifier():
    model, images = _tiny_classifier()
    return lambda: forward_classifier(model, images)


def _ttt_attention():
    rng = np.random.default_rng(3)
    params = TTTLayerParams.create(rng, 8, 2, ("dwconv3x3", "gated_fc"))
    x = rng.standard_normal((9, 8))
    return lambda: ttt_attention(x, params, InnerTrainConfig(loss="mse", parts=2), (3, 3))


def _inner_update():
    rng = np.random.default_rng(4)
    model = InnerModel.create("gated_fc", 3, rng)
    k, v = rng.standard_normal((6, 3)), rng.standard_normal((6, 3))
    return lambda: inner_update(model, k, v, InnerTrainConfig(loss="mse", parts=2))


def _gradcheck():
    x0 = RNG.standard_normal((2, 3))

    def f(p, t):
        x = t.leaf(p["x"], name="x", param=True)
        return ad.sum_all(ad.mul(ad.rows(x, 0, 1), x))
    return lambda: gradcheck(f, {"x": x0})


def _recording_forward_dropped():
    model, images = _tiny_classifier()
    return lambda: model.logits_nodes(Tape(), images).value


def _recall_eval_recording():
    # the benchmark's recall eval: a recording tape dropped without backward
    model, task = _tiny_recall()
    return lambda: model.logits_nodes(Tape(), task.tokens).value


def _diverging_step():
    cfg = ModelConfig(image_size=8, patch_size=4, dim=8, heads=2, depth=1,
                      head_archs=("fc", "fc"),
                      inner=InnerTrainConfig(loss="mse", epochs=150, lr=80.0))
    model = Model(cfg, np.random.default_rng(0), dtype=np.float64)
    model.params["b0.ln1.g"][:] = 100.0    # LayerNorm would undo a scaled input
    images = np.random.default_rng(1).standard_normal((2, 8, 8, 3))

    def run():
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError):
            model.loss_and_grads(images, np.array([1, 7]))
    return run


class TestTapeLifetime:
    @pytest.mark.parametrize("make", [_model_step, _recall_step, _forward_classifier,
                                      _ttt_attention, _inner_update, _gradcheck,
                                      _recording_forward_dropped, _recall_eval_recording,
                                      _diverging_step])
    def test_no_tape_outlives_its_call(self, make):
        # with the cyclic GC off, only reference counting can free a tape
        run = make()
        gc.collect()
        gc.disable()
        try:
            before = live_tapes()
            run()
            assert live_tapes() == before
        finally:
            gc.enable()

    def test_second_backward_raises(self):
        t = Tape()
        x = t.leaf(np.ones(3), name="x", param=True)
        root = ad.sum_all(ad.mul(x, x))
        t.backward(root)
        with pytest.raises(ContractError, match="spent"):
            t.backward(root)

    def test_new_op_on_spent_node_raises(self):
        t = Tape()
        x = t.leaf(np.ones(3), name="x", param=True)
        y = ad.mul(x, x)
        t.backward(ad.sum_all(y))
        with pytest.raises(ContractError, match="spent"):
            ad.add(y, x)
        with pytest.raises(ContractError, match="spent"):
            ad.add(y, 1.0)

    def test_node_refers_to_its_live_tape(self):
        t = Tape()
        x = t.leaf(np.ones(3), name="x", param=True)
        assert x.tape is t and ad.mul(x, x).tape is t

    def test_op_on_node_of_dropped_tape_raises(self):
        x = Tape().leaf(np.ones(3), name="x", param=True)
        y = Tape(record=False).leaf(np.ones(3))
        for node in (x, y):
            with pytest.raises(ContractError, match="dropped"):
                ad.mul(node, node)
            with pytest.raises(ContractError, match="dropped"):
                ad.add(node, 1.0)

    def test_dropped_recording_evals_do_not_pile_up(self):
        # the cyclic GC stays on: only a tape no one owns any more may be freed
        model, task = _tiny_recall()

        def peak(n):
            gc.collect()
            tracemalloc.start()
            try:
                for _ in range(n):
                    model.logits_nodes(Tape(), task.tokens).value
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        peak(1)
        one = peak(1)
        assert peak(200) <= 2 * one, one

    def test_spent_tape_keeps_values_ops_and_indices(self):
        t = Tape()
        x = t.leaf(np.arange(3.0), name="x", param=True)
        y = ad.scale(x, 2.0)
        root = ad.sum_all(y)
        t.backward(root)
        assert t.spent and [n.op for n in t.nodes] == ["leaf", "scale", "sum_all"]
        assert [n.idx for n in t.nodes] == [0, 1, 2] and t.params["x"] is x
        assert np.array_equal(y.value, [0.0, 2.0, 4.0]) and float(root.value) == 6.0
        assert all(n.vjp is None and n.inputs == () for n in t.nodes)

    def test_failed_backward_spends_the_tape(self):
        t = Tape()
        x = t.leaf(np.ones(3), name="x", param=True)

        def vjp(g):
            raise FloatingPointError("boom")
        root = ad.sum_all(t.push(x.value, (x,), vjp, "boom"))
        with pytest.raises(FloatingPointError):
            t.backward(root)
        assert t.spent and x.tape is not t


# ---------------------------------------------------------------------------
# a vjp computes no cotangent for an input that needs none

def _w(*shape):
    return np.random.default_rng(sum(shape)).standard_normal(shape)


PRUNED_OPS = {
    "matmul_shared": (ad.matmul, lambda: [_w(2, 4, 3), _w(3, 5)]),
    "matmul_stacked": (ad.matmul, lambda: [_w(2, 4, 3), _w(2, 3, 5)]),
    "linear": (ad.linear, lambda: [_w(2, 4, 3), _w(3, 5), _w(5)]),
    "mul": (ad.mul, lambda: [_w(2, 4, 3), _w(3)]),
    "colscale": (ad.colscale, lambda: [_w(2, 4, 3), _w(2, 4)]),
    "matscale": (ad.matscale, lambda: [_w(2, 4, 3), _w(2)]),
    "layer_norm": (ad.layer_norm, lambda: [_w(2, 4, 6), _w(6), _w(6)]),
    "dwconv3x3": (ad.dwconv3x3, lambda: [_w(2, 3, 3, 2), _w(3, 3, 2)]),
    "dwconv3x3_per_sample": (ad.dwconv3x3, lambda: [_w(2, 3, 3, 2), _w(2, 3, 3, 2)]),
    "conv3x3": (ad.conv3x3, lambda: [_w(2, 3, 3, 2), _w(3, 3, 2, 4)]),
    "dwconv3x3_wgrad": (ad.dwconv3x3_wgrad, lambda: [_w(2, 3, 3, 2), _w(2, 3, 3, 2)]),
    "conv3x3_wgrad": (ad.conv3x3_wgrad, lambda: [_w(2, 3, 3, 2), _w(2, 3, 3, 2)]),
}


def _op_grads(op, values, data):
    """Cotangents of one op node and the parameter gradients through it."""
    t = Tape()
    leaves = [t.leaf(v, name=f"p{i}", param=i not in data) for i, v in enumerate(values)]
    node = op(*leaves)
    cots = node.vjp(np.ones_like(node.value))
    return cots, t.backward(ad.sum_all(ad.mul(node, node)))


class TestPrunedCotangents:
    @pytest.mark.parametrize("name", sorted(PRUNED_OPS))
    def test_data_input_gets_none_and_params_are_unchanged(self, name):
        op, make = PRUNED_OPS[name]
        values = make()
        _, ref = _op_grads(op, values, data=())
        for i in range(len(values)):
            cots, grads = _op_grads(op, values, data=(i,))
            assert cots[i] is None
            assert all(c is not None for j, c in enumerate(cots) if j != i)
            assert sorted(grads) == sorted(k for k in ref if k != f"p{i}")
            for k, g in grads.items():
                assert g.dtype == ref[k].dtype and np.array_equal(g, ref[k])

    def test_data_leaf_of_a_layer_gets_no_cotangent(self):
        rng = np.random.default_rng(8)
        params = TTTLayerParams.create(rng, 8, 2, ("dwconv3x3", "gated_fc"))
        x = rng.standard_normal((2, 9, 8))
        cfg = InnerTrainConfig(loss="mse", parts=2, dynamic_lr=True)
        grads = []
        for as_param in (False, True):
            t = Tape()
            leaves = {k: t.leaf(v, name=k, param=True)
                      for k, v in params.named_arrays().items()}
            xl = t.leaf(x, name="x", param=as_param)
            out = ttt_attention_nodes(xl, leaves, params, cfg, (3, 3))
            for node in t.nodes:
                if node.vjp is not None and xl in node.inputs and not as_param:
                    cots = node.vjp(np.ones_like(node.value))
                    assert all(c is None for inp, c in zip(node.inputs, cots) if inp is xl)
            grads.append(t.backward(ad.sum_all(ad.mul(out, out))))
        pruned, full = grads
        assert sorted(full) == sorted(pruned) + ["x"]
        for k, g in pruned.items():
            assert np.array_equal(g, full[k])


def reference_backward(tape, root):
    """The out-of-place accumulation: every sum allocates, every row slice is
    materialised as a full-size zero array first."""
    grads = {root.idx: np.ones_like(root.value)}
    for node in reversed(tape.nodes[: root.idx + 1]):
        if node.vjp is None or node.idx not in grads:
            continue
        g = grads.pop(node.idx)
        for inp, cot in zip(node.inputs, node.vjp(g)):
            if cot is None or not inp.requires:
                continue
            if isinstance(cot, ad.RowSlice):
                z = np.zeros_like(inp.value)
                z[..., cot.lo:cot.hi, :] = cot.g
                cot = z
            grads[inp.idx] = grads[inp.idx] + cot if inp.idx in grads else cot
    return {name: grads.get(leaf.idx, np.zeros_like(leaf.value))
            for name, leaf in tape.params.items()}


class TestAccumulation:
    @staticmethod
    def _graph(x0, w0):
        # x feeds overlapping row slices, a matmul and itself; u is reached
        # through add's shared cotangent and then twice more
        t = Tape()
        x = t.leaf(x0, name="x", param=True)
        w = t.leaf(w0, name="w", param=True)
        u = ad.matmul(x, w)
        s = ad.add(u, ad.scale(x, 0.5))
        parts = [ad.rows(x, 0, 3), ad.rows(x, 2, 5), ad.rows(x, 1, 2),
                 ad.rows(ad.rows(x, 1, 5), 0, 2)]
        y = ad.add(ad.add(s, u), u)
        root = ad.sum_all(ad.mul(y, y))
        for p in parts:
            root = ad.add(root, ad.sum_all(ad.mul(p, p)))
        return t, root

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_in_place_equals_out_of_place(self, dtype):
        rng = np.random.default_rng(9)
        x0 = rng.standard_normal((2, 5, 3)).astype(dtype)
        w0 = rng.standard_normal((3, 3)).astype(dtype)
        ref = reference_backward(*self._graph(x0, w0))
        got = Tape.backward(*self._graph(x0, w0))
        for name in ref:
            assert got[name].dtype == ref[name].dtype
            assert np.array_equal(got[name], ref[name])

    def test_handed_over_cotangents_are_not_written(self):
        # add's vjp hands one g to both inputs; the sums into a must not
        # reach b's cotangent through it
        t = Tape()
        a = t.leaf(np.ones(3), name="a", param=True)
        b = t.leaf(np.ones(3), name="b", param=True)
        y = ad.add(ad.add(ad.add(a, b), a), a)
        grads = t.backward(ad.sum_all(y))
        assert np.array_equal(grads["a"], [3.0, 3.0, 3.0])
        assert np.array_equal(grads["b"], [1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# non-recording tapes: the same forward values with no graph kept

@pytest.fixture
def recording(monkeypatch):
    """Make every value-only helper build on a recording Tape instead."""
    def use():
        for mod in (model_mod, layer_mod, harness_mod, inner_mod):
            monkeypatch.setattr(mod, "Tape", lambda record=True: Tape())
    return use


def _helper_forward_classifier(dtype):
    model = Model(ModelConfig(), np.random.default_rng(5), dtype=dtype)
    images = np.random.default_rng(6).standard_normal((4, 32, 32, 3)).astype(dtype)
    return lambda: [forward_classifier(model, images)]


def _helper_ttt_attention(dtype):
    rng = np.random.default_rng(3)
    params = TTTLayerParams.create(rng, 8, 2, ("dwconv3x3", "gated_fc"), dtype=dtype)
    x = rng.standard_normal((16, 8)).astype(dtype)
    return lambda: [ttt_attention(x, params, InnerTrainConfig(loss="mse", parts=4), (4, 4))]


def _helper_recall_predict(dtype):
    rc = RunConfig(dim=8, heads=2, recall_seq=5, recall_width=4, recall_keys=6,
                   inner_loss="mse", inner_parts=2)
    task = D.synth_recall_task(0, 6, rc.recall_seq, rc.recall_width, n_keys=rc.recall_keys)
    model = RecallModel(rc, task.n_classes, np.random.default_rng(2), dtype=dtype)
    tokens = task.tokens.astype(dtype)
    # the predictions, and the logits under them
    return lambda: [forward_classifier(model, tokens).argmax(axis=-1),
                    forward_classifier(model, tokens)]


def _helper_inner_update_dynamic(dtype):
    rng = np.random.default_rng(4)
    model = InnerModel.create("gated_fc", 3, rng, dtype=dtype)
    k, v, x = (rng.standard_normal(s).astype(dtype) for s in ((6, 3), (6, 3), (6, 4)))
    w_eta = rng.standard_normal((4, 1)).astype(dtype)
    cfg = InnerTrainConfig(loss="mse", parts=2, dynamic_lr=True)
    return lambda: inner_update(model, k, v, cfg, x=x, w_eta=w_eta).weights


VALUE_HELPERS = {"forward_classifier": _helper_forward_classifier,
                 "ttt_attention": _helper_ttt_attention,
                 "recall_predict": _helper_recall_predict,
                 "inner_update_dynamic": _helper_inner_update_dynamic}


class TestNonRecordingTape:
    def test_records_nothing(self):
        t = Tape(record=False)
        x = t.leaf(np.arange(6.0).reshape(2, 3), name="x", param=True)
        y = ad.sum_all(ad.mul(ad.matmul(x, ad.transpose(x)), 2.0))
        assert t.nodes == [] and t.params == {}
        assert float(y.value) == 166.0
        assert y.inputs == () and y.vjp is None and not y.requires

    def test_backward_raises(self):
        t = Tape(record=False)
        x = t.leaf(np.ones(3), name="x", param=True)
        with pytest.raises(ContractError, match="record"):
            t.backward(ad.sum_all(ad.mul(x, x)))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("name", sorted(VALUE_HELPERS))
    def test_bit_identical_to_recording_tape(self, name, dtype, recording):
        got = VALUE_HELPERS[name](dtype)()
        recording()
        ref = VALUE_HELPERS[name](dtype)()
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    def test_forward_peak_memory(self, recording):
        # b=64 micro classifier: a recording tape holds every intermediate
        model = Model(ModelConfig(), np.random.default_rng(0))
        images = np.random.default_rng(1).standard_normal((64, 32, 32, 3)).astype(np.float32)

        def peak():
            tracemalloc.start()
            try:
                forward_classifier(model, images)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        lean = peak()
        recording()
        full = peak()
        assert lean <= full / 4, (lean, full)
