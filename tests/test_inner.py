import math
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tttlab import autodiff as ad
from tttlab import tensor as T
from tttlab.autodiff import ContractError, Tape
from tttlab.inner import (ARCH_NAMES, INNER_LOSSES, LOSSES, DivergenceError, InnerArch,
                          InnerModel, InnerTrainConfig, PartitionError, dynamic_rate,
                          get_arch, inner_loss_grad, inner_update, inner_update_nodes,
                          partition_batches)
from tttlab.layer import ttt_attention_nodes

RNG = np.random.default_rng(21)


def inner_forward(model: InnerModel, x: np.ndarray) -> np.ndarray:
    """Apply F_W to [B, d] rows or an [H, W, d] grid, on a tape that records nothing."""
    arch = get_arch(model.kind)
    tape = Tape(record=False)
    ws = [tape.leaf(w) for w in model.weights]
    if x.ndim == 3:
        out = arch.forward(ws, tape.leaf(x.reshape(-1, x.shape[-1])), x.shape[:2])
        return out.value.reshape(x.shape)
    return arch.forward(ws, tape.leaf(x)).value


def generic_pair(b=3, d=4, seed=0):
    """Random (Vhat, V) rows kept 1e-3 away from every registered loss's kink."""
    kinks = [loss.kink[1] for loss in INNER_LOSSES.values() if loss.kink]
    rng = np.random.default_rng(seed)
    while True:
        vhat, v = rng.standard_normal((b, d)), rng.standard_normal((b, d))
        e = np.abs(vhat - v)
        if all(np.abs(e - at).min() > 1e-3 for at in kinks):
            return vhat, v


class TestLossValues:
    def test_dot_product_hand_case(self):
        vhat = np.array([[1.0, 2.0, 0.0, 0.0]])
        v = np.array([[3.0, 0.0, 0.0, 1.0]])
        # -(1/(1*sqrt(4))) * 3 = -1.5
        assert INNER_LOSSES["dot"].value(vhat, v) == pytest.approx(-1.5)

    def test_mse_perfect_fit(self):
        v = RNG.standard_normal((5, 3))
        assert INNER_LOSSES["mse"].value(v.copy(), v) == 0.0

    def test_smooth_l1_hand_case(self):
        vhat = np.full((1, 4), 0.5)
        v = np.zeros((1, 4))
        # all diffs 0.5 -> (1/(1*2)) * 4 * (0.5 * 0.25) = 0.25
        assert INNER_LOSSES["smooth_l1"].value(vhat, v) == pytest.approx(0.25)

    def test_mae_value(self):
        vhat, v = generic_pair(seed=1)
        b, d = vhat.shape
        expect = np.abs(vhat - v).sum() / (b * math.sqrt(d))
        assert INNER_LOSSES["mae"].value(vhat, v) == pytest.approx(expect)

    def test_rmse_value(self):
        vhat, v = generic_pair(seed=2)
        b, d = vhat.shape
        expect = math.sqrt(((vhat - v) ** 2).sum() / (b * math.sqrt(d)))
        assert INNER_LOSSES["rmse"].value(vhat, v) == pytest.approx(expect)


class TestLossRegistry:
    def test_order_and_names(self):
        assert LOSSES == ("dot", "mse", "rmse", "mae", "smooth_l1")
        assert all(INNER_LOSSES[name].name == name for name in LOSSES)

    def test_kinks(self):
        kinks = {name: loss.kink for name, loss in INNER_LOSSES.items()}
        assert kinks == {"dot": None, "mse": None, "rmse": None,
                         "mae": ("sign", 0.0), "smooth_l1": ("huber_prime", 1.0)}

    @pytest.mark.parametrize("kind", LOSSES)
    def test_traced_grad_has_the_kink_op_exactly_when_kinked(self, kind):
        loss = INNER_LOSSES[kind]
        vhat, v = generic_pair(seed=10)
        tape = Tape()
        with tape.tracing() as ops:
            loss.grad(tape.leaf(vhat), tape.leaf(v))
        traced = {node.op for node, _ in ops}
        kink_ops = {other.kink[0] for other in INNER_LOSSES.values() if other.kink}
        assert traced & kink_ops == ({loss.kink[0]} if loss.kink else set())
        # the kink op reads e = Vhat - V, whose |e| the gradcheck keeps off the kink
        kinked = [inputs for node, inputs in ops if loss.kink and node.op == loss.kink[0]]
        assert all(np.array_equal(inputs[0].value, vhat - v) for inputs in kinked)

    @pytest.mark.parametrize("kind", LOSSES)
    def test_value_refuses_rows_of_different_shapes(self, kind):
        with pytest.raises(T.DimensionError, match=r"^loss shapes differ: \(3, 4\) vs \(4, 3\)$"):
            INNER_LOSSES[kind].value(np.zeros((3, 4)), np.zeros((4, 3)))


class TestLossGrads:
    def test_dot_grad_is_scaled_values(self):
        vhat, v = generic_pair(seed=3)
        b, d = vhat.shape
        assert np.allclose(inner_loss_grad("dot", vhat, v), -v / (b * math.sqrt(d)),
                           atol=0)

    def test_mae_grad_signs(self):
        vhat, v = generic_pair(seed=4)
        b, d = vhat.shape
        g = inner_loss_grad("mae", vhat, v)
        assert np.allclose(g, np.sign(vhat - v) / (b * math.sqrt(d)), atol=0)

    @pytest.mark.parametrize("kind", LOSSES)
    def test_grad_matches_finite_differences(self, kind):
        vhat, v = generic_pair(seed=5)
        analytic = inner_loss_grad(kind, vhat, v)
        value = INNER_LOSSES[kind].value
        eps = 1e-6
        numeric = np.zeros_like(vhat)
        for idx in np.ndindex(*vhat.shape):
            vp, vm = vhat.copy(), vhat.copy()
            vp[idx] += eps
            vm[idx] -= eps
            numeric[idx] = (value(vp, v) - value(vm, v)) / (2 * eps)
        assert np.abs(analytic - numeric).max() < 1e-8

    def test_rmse_guard_at_perfect_fit(self):
        v = RNG.standard_normal((4, 4))
        g = inner_loss_grad("rmse", v.copy(), v)
        assert np.all(np.isfinite(g)) and np.allclose(g, 0.0)


class TestMixedSecondDerivative:
    def test_mse_constant(self):
        vhat, v = generic_pair(b=2, d=4, seed=6)
        out = INNER_LOSSES["mse"].mixed(vhat, v)
        assert np.allclose(out, -1.0 / (2 * 2), atol=0)  # -1/(B sqrt(d)) = -0.25

    def test_dot_constant(self):
        vhat, v = generic_pair(b=2, d=4, seed=7)
        assert np.allclose(INNER_LOSSES["dot"].mixed(vhat, v), -0.25, atol=0)

    def test_mae_zero_almost_everywhere(self):
        vhat, v = generic_pair(seed=8)
        assert np.all(INNER_LOSSES["mae"].mixed(vhat, v) == 0.0)

    def test_smooth_l1_piecewise(self):
        b, d = 1, 4
        vhat = np.array([[0.5, 2.0, -0.5, -2.0]])
        v = np.zeros((1, 4))
        out = INNER_LOSSES["smooth_l1"].mixed(vhat, v)
        c = 1.0 / (b * math.sqrt(d))
        assert np.array_equal(out, [[-c, 0.0, -c, 0.0]])

    @pytest.mark.parametrize("kind", LOSSES)
    def test_matches_fd_of_loss_grad(self, kind):
        vhat, v = generic_pair(seed=9)
        analytic = INNER_LOSSES[kind].mixed(vhat, v)
        eps = 1e-6
        numeric = np.zeros_like(vhat)
        for idx in np.ndindex(*v.shape):
            vp, vm = v.copy(), v.copy()
            vp[idx] += eps
            vm[idx] -= eps
            gp = inner_loss_grad(kind, vhat, vp)[idx]
            gm = inner_loss_grad(kind, vhat, vm)[idx]
            numeric[idx] = (gp - gm) / (2 * eps)
        assert np.abs(analytic - numeric).max() < 1e-6


class TestPartition:
    def test_exact_division(self):
        assert partition_batches(9, 3) == [(0, 3), (3, 6), (6, 9)]

    def test_remainder_goes_to_earlier_batches(self):
        ranges = partition_batches(10, 3)
        sizes = [hi - lo for lo, hi in ranges]
        assert sizes == [4, 3, 3]

    def test_full_batch(self):
        assert partition_batches(196, 1) == [(0, 196)]

    def test_too_many_parts(self):
        with pytest.raises(PartitionError):
            partition_batches(3, 4)

    @given(st.integers(1, 300), st.integers(1, 8))
    @settings(max_examples=50, deadline=None)
    def test_partition_properties(self, n, parts):
        if parts > n:
            return
        ranges = partition_batches(n, parts)
        assert ranges[0][0] == 0 and ranges[-1][1] == n
        sizes = []
        for (lo, hi), (lo2, _) in zip(ranges, ranges[1:] + [(n, n)]):
            assert hi == lo2
            sizes.append(hi - lo)
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)


class TestInnerForward:
    def test_fc_identity_weights(self):
        x = RNG.standard_normal((5, 3))
        m = InnerModel(kind="fc", d=3, weights=[np.eye(3)])
        assert np.allclose(inner_forward(m, x), x, atol=0)

    def test_gated_fc_closed_gate(self):
        x = RNG.standard_normal((5, 3))
        m = InnerModel(kind="gated_fc", d=3, weights=[np.eye(3), np.zeros((3, 3))])
        assert np.allclose(inner_forward(m, x), 0.0, atol=0)

    def test_mlp_matches_explicit_composition(self):
        x = RNG.standard_normal((6, 4))
        m = InnerModel.create("mlp_r1_l2", 4, np.random.default_rng(0))
        got = inner_forward(m, x)
        z = x @ m.weights[0]
        want = (z / (1.0 + np.exp(-z))) @ m.weights[1]
        assert np.abs(got - want).max() < 1e-12

    def test_conv_requires_grid(self):
        m = InnerModel.create("dwconv3x3", 3, np.random.default_rng(0))
        with pytest.raises(T.GridError):
            inner_forward(m, RNG.standard_normal((6, 3)))

    def test_conv_on_grid_same_shape(self):
        m = InnerModel.create("conv3x3", 3, np.random.default_rng(0))
        x = RNG.standard_normal((4, 4, 3))
        assert inner_forward(m, x).shape == (4, 4, 3)

    def test_mlp_hidden_width_follows_ratio(self):
        m = InnerModel.create("mlp_r2_l2", 4, np.random.default_rng(0))
        assert m.weights[0].shape == (4, 8) and m.weights[1].shape == (8, 4)


class TestInnerUpdate:
    def test_closed_form_fc_zero_init(self):
        m = InnerModel(kind="fc", d=2, weights=[np.zeros((2, 2))])
        cfg = InnerTrainConfig(loss="mse", lr=1.0)
        star = inner_update(m, np.eye(2), np.diag([2.0, 4.0]), cfg)
        expect = np.diag([2.0, 4.0]) / (2 * math.sqrt(2))
        assert np.abs(star.weights[0] - expect).max() < 1e-12
        assert star.weights[0][0, 0] == pytest.approx(0.70711, abs=1e-5)

    def test_closed_form_general_linear_mse(self):
        rng = np.random.default_rng(1)
        w0 = rng.standard_normal((4, 4))
        k = rng.standard_normal((7, 4))
        v = rng.standard_normal((7, 4))
        eta = 0.6
        m = InnerModel(kind="fc", d=4, weights=[w0.copy()])
        star = inner_update(m, k, v, InnerTrainConfig(loss="mse", lr=eta))
        expect = w0 - eta * k.T @ (k @ w0 - v) / (7 * 2.0)
        assert np.abs(star.weights[0] - expect).max() < 1e-10

    @pytest.mark.parametrize("kind", ["fc", "gated_fc", "mlp_r1_l2", "dwconv3x3"])
    def test_zero_step_returns_w0(self, kind):
        rng = np.random.default_rng(2)
        m = InnerModel.create(kind, 4, rng)
        grid_shape = (3, 3, 4) if kind == "dwconv3x3" else (9, 4)
        k = rng.standard_normal(grid_shape)
        v = rng.standard_normal(grid_shape)
        star = inner_update(m, k, v, InnerTrainConfig(loss="mse", lr=0.0))
        for w0, w in zip(m.weights, star.weights):
            assert np.array_equal(w0, w)

    @pytest.mark.parametrize("kind", ["fc", "gated_fc", "swiglu", "mlp_r1_l2"])
    def test_full_batch_permutation_invariance(self, kind):
        rng = np.random.default_rng(3)
        m = InnerModel.create(kind, 4, rng)
        k = rng.standard_normal((8, 4))
        v = rng.standard_normal((8, 4))
        cfg = InnerTrainConfig(loss="mse")
        base = inner_update(m, k, v, cfg)
        perm = rng.permutation(8)
        shuffled = inner_update(m, k[perm], v[perm], cfg)
        for a, b in zip(base.weights, shuffled.weights):
            assert np.abs(a - b).max() < 1e-12

    def test_minibatch_within_batch_invariance(self):
        rng = np.random.default_rng(4)
        m = InnerModel.create("mlp_r1_l2", 4, rng)
        k = rng.standard_normal((8, 4))
        v = rng.standard_normal((8, 4))
        cfg = InnerTrainConfig(loss="mse", parts=2)
        base = inner_update(m, k, v, cfg)
        # swap tokens 0 and 2: both inside the first mini-batch [0, 4)
        swap = np.arange(8)
        swap[[0, 2]] = [2, 0]
        same = inner_update(m, k[swap], v[swap], cfg)
        for a, b in zip(base.weights, same.weights):
            assert np.abs(a - b).max() < 1e-12

    def test_minibatch_cross_boundary_variance(self):
        rng = np.random.default_rng(5)
        m = InnerModel.create("mlp_r1_l2", 4, rng)
        k = rng.standard_normal((8, 4))
        v = rng.standard_normal((8, 4))
        cfg = InnerTrainConfig(loss="mse", parts=2)
        base = inner_update(m, k, v, cfg)
        # swap tokens 0 and 7: crosses the boundary between the two batches
        swap = np.arange(8)
        swap[[0, 7]] = [7, 0]
        other = inner_update(m, k[swap], v[swap], cfg)
        assert max(np.abs(a - b).max()
                   for a, b in zip(base.weights, other.weights)) > 1e-6

    def test_scaling_absorption_linear_mse(self):
        # eta * K^T(KW - V) equals the update term with (sqrt(eta) K, sqrt(eta) V, 1)
        rng = np.random.default_rng(6)
        w0 = rng.standard_normal((4, 4))
        k = rng.standard_normal((6, 4))
        v = rng.standard_normal((6, 4))
        for eta in (0.25, 1.0, 3.7):
            m = InnerModel(kind="fc", d=4, weights=[w0.copy()])
            a = inner_update(m, k, v, InnerTrainConfig(loss="mse", lr=eta))
            s = math.sqrt(eta)
            b = inner_update(m, s * k, s * v, InnerTrainConfig(loss="mse", lr=1.0))
            assert np.abs((w0 - a.weights[0]) - (w0 - b.weights[0])).max() < 1e-10

    def test_dynamic_rate_with_zero_projection_halves_fixed(self):
        rng = np.random.default_rng(7)
        m = InnerModel.create("gated_fc", 4, rng)
        k = rng.standard_normal((6, 4))
        v = rng.standard_normal((6, 4))
        x = rng.standard_normal((6, 10))
        dyn = inner_update(m, k, v,
                           InnerTrainConfig(loss="mse", lr=1.0, dynamic_lr=True),
                           x=x, w_eta=np.zeros((10, 1)))
        half = inner_update(m, k, v, InnerTrainConfig(loss="mse", lr=0.5))
        for a, b in zip(dyn.weights, half.weights):
            assert np.array_equal(a, b)

    def test_epochs_compound(self):
        rng = np.random.default_rng(8)
        w0 = rng.standard_normal((3, 3))
        k = rng.standard_normal((5, 3))
        v = rng.standard_normal((5, 3))
        m = InnerModel(kind="fc", d=3, weights=[w0.copy()])
        two = inner_update(m, k, v, InnerTrainConfig(loss="mse", epochs=2, lr=0.5))
        c = 5 * math.sqrt(3)
        w = w0.copy()
        for _ in range(2):
            w = w - 0.5 * k.T @ (k @ w - v) / c
        assert np.abs(two.weights[0] - w).max() < 1e-12

    def test_divergence_sentinel(self):
        rng = np.random.default_rng(9)
        m = InnerModel(kind="fc", d=4, weights=[rng.standard_normal((4, 4))])
        k = rng.standard_normal((6, 4)) * 1e3
        v = rng.standard_normal((6, 4))
        cfg = InnerTrainConfig(loss="mse", epochs=60, lr=100.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError) as err:
            inner_update(m, k, v, cfg)
        # the first epoch whose closed-form step (same op order) leaves the finite range
        w = m.weights[0]
        with np.errstate(over="ignore", invalid="ignore"):
            for epoch in range(1, 61):
                w = w - (k.T @ ((k @ w - v) * (1.0 / (6 * 2.0)))) * 100.0
                if not np.isfinite(w).all():
                    break
        assert f"fc inner weights diverged at epoch {epoch}/60, part 1/1" in str(err.value)

    def test_grid_update_shapes(self):
        rng = np.random.default_rng(10)
        m = InnerModel.create("conv3x3", 3, rng)
        k = rng.standard_normal((4, 4, 3))
        v = rng.standard_normal((4, 4, 3))
        star = inner_update(m, k, v, InnerTrainConfig(loss="dot"))
        assert star.weights[0].shape == (3, 3, 3, 3)

    def test_row_counts_of_k_and_v_must_match(self):
        m = InnerModel.create("fc", 3, np.random.default_rng(11))
        with pytest.raises(T.DimensionError,
                           match=r"^K and V row counts differ: \(4, 3\) vs \(5, 3\)$"):
            inner_update(m, np.zeros((4, 3)), np.zeros((5, 3)), InnerTrainConfig())

    @pytest.mark.parametrize("missing", ["x", "w_eta"])
    def test_dynamic_rate_needs_x_and_w_eta(self, missing):
        m = InnerModel.create("fc", 3, np.random.default_rng(12))
        given = {"x": np.zeros((4, 3)), "w_eta": np.zeros((3, 1))}
        del given[missing]
        with pytest.raises(ValueError, match="^dynamic_lr needs x and w_eta$"):
            inner_update(m, np.zeros((4, 3)), np.zeros((4, 3)),
                         InnerTrainConfig(dynamic_lr=True), **given)

    @pytest.mark.parametrize("kw, msg", [
        ({"loss": "l2"}, "^unknown inner loss 'l2'$"),
        ({"epochs": 0}, "^epochs must be >= 1$"),
        ({"parts": 0}, "^parts must be >= 1$"),
    ])
    def test_config_refusals(self, kw, msg):
        with pytest.raises(ValueError, match=msg):
            InnerTrainConfig(**kw)

    def test_arch_registry_covers_design_space(self):
        # the order of the gradcheck matrix and the ablations
        assert ARCH_NAMES == ("fc", "silu_fc", "mlp_r1_l2", "mlp_r2_l2", "mlp_r1_l3",
                              "swiglu", "gated_fc", "conv3x3", "dwconv3x3", "mlp_residual",
                              "mlp_w2_plus_i", "mlp_w2_init_i")
        for name in ARCH_NAMES:
            assert get_arch(name).name == name
        # names outside the registry, even ones that read like an MLP of the design space
        for name in ("mlp_r3_l2", "mlp_r0_l2", "mlp_r1_l4", "nonsense"):
            with pytest.raises(ValueError, match=f"unknown inner architecture '{name}'"):
                get_arch(name)


class TestForwardOnce:
    @pytest.mark.parametrize("name", ARCH_NAMES)
    def test_each_weight_meets_the_keys_once(self, name):
        # one inner step builds each product of an initial weight with the
        # keys once: the pullback reuses the forward's nodes, it does not rerun them
        arch = get_arch(name)
        rng = np.random.default_rng(11)
        t = Tape()
        ws = [t.leaf(w) for w in arch.init(rng, 3)]
        k = t.leaf(rng.standard_normal((9, 3)))
        v = t.leaf(rng.standard_normal((9, 3)))
        inner_update_nodes(arch, ws, k, v, InnerTrainConfig(loss="mse"), grid=(3, 3))

        def is_or_reads(node, leaf):     # the leaf, or a reshape or im2col of it
            return node is leaf or (node.op in ("reshape", "patches")
                                    and is_or_reads(node.inputs[0], leaf))

        uses = [sum(1 for node in t.nodes
                    if node.op in ("matmul", "dwconv3x3")
                    and is_or_reads(node.inputs[1], w) and is_or_reads(node.inputs[0], k))
                for w in ws]
        assert uses[0] == 1 and max(uses) == 1


def derived_and_backward_grads(name, lead, record):
    """`walker_and_backward_grads` of a registered arch on a seeded [.., 9, 3] input."""
    arch = get_arch(name)
    rng = np.random.default_rng(13)
    w0 = arch.init(rng, 3)
    x0 = rng.standard_normal((*lead, 9, 3))
    dv0 = rng.standard_normal((*lead, 9, 3))
    return walker_and_backward_grads(arch, w0, x0, dv0, record)


def walker_and_backward_grads(arch, w0, x0, dv0, record):
    """An arch's weight gradients for a cotangent dv, derived by `Tape.weight_grads`
    from its traced forward, and Tape.backward's gradients of sum(forward * dv),
    which the ops' own vjps compute."""
    t = Tape(record=record)
    ws = [t.leaf(w) for w in w0]
    with t.tracing() as ops:
        out = arch.forward(ws, t.leaf(x0), (3, 3))
    derived = [g.value for g in t.weight_grads(ops, ws, out, t.leaf(dv0))]
    t = Tape()
    ws = [t.leaf(w, name=f"w{j}", param=True) for j, w in enumerate(w0)]
    root = ad.sum_all(ad.mul(arch.forward(ws, t.leaf(x0), (3, 3)), t.leaf(dv0)))
    grads = t.backward(root)
    return derived, [grads[f"w{j}"] for j in range(len(w0))]


class TestDerivedWeightGrads:
    @pytest.mark.parametrize("record", [True, False])
    @pytest.mark.parametrize("name", ARCH_NAMES)
    def test_unbatched_equals_backward(self, name, record):
        derived, expect = derived_and_backward_grads(name, (), record)
        for g, e in zip(derived, expect, strict=True):
            assert g.shape == e.shape and np.array_equal(g, e)

    @pytest.mark.parametrize("name", ARCH_NAMES)
    def test_batched_sums_to_backward(self, name):
        # per-sample gradients; backward sums the batch inside one GEMM instead
        derived, expect = derived_and_backward_grads(name, (2,), True)
        for g, e in zip(derived, expect, strict=True):
            assert g.shape == (2, *e.shape)
            assert np.abs(g.sum(axis=0) - e).max() <= 1e-12 * np.abs(e).max()

    @pytest.mark.parametrize("op, fwd", [
        ("sigmoid", lambda ws, x: ad.sigmoid(ad.matmul(x, ws[0]))),
        ("add", lambda ws, x: ad.add(ad.matmul(x, ws[0]), ws[1])),     # a broadcast bias
        ("add_matmul", lambda ws, x: ad.add_matmul(x, x, ws[0])),       # a fused residual add
    ])
    def test_op_without_a_rule_is_named(self, op, fwd):
        t = Tape()
        ws = [t.leaf(np.eye(3)), t.leaf(np.ones(3))]
        with t.tracing() as ops:
            out = fwd(ws, t.leaf(RNG.standard_normal((4, 3))))
        with pytest.raises(ContractError, match=f"'{op}'"):
            t.weight_grads(ops, ws, out, t.leaf(np.ones((4, 3))))


@st.composite
def ruled_programs(draw):
    """A random inner forward over the walker's ruled ops, as steps over a pool
    of [.., 9, 3] nodes that starts with the data x, plus the kind of each weight.
    The first step uses a weight, so the forward always depends on one."""
    dep = [False]
    steps, kinds = [], []
    for k in range(draw(st.integers(1, 6))):
        op = draw(st.sampled_from(["matmul", "dwconv3x3"] if k == 0 else
                                  ["matmul", "dwconv3x3", "mul", "add", "silu", "reshape"]))
        any_node = st.integers(0, len(dep) - 1)
        if op == "matmul":
            steps.append((op, draw(any_node), len(kinds)))
            kinds.append(draw(st.sampled_from(["shared", "per_sample", "reshaped"])))
        elif op == "dwconv3x3":
            # the walker's conv rule takes a data grid and a weight kernel
            steps.append((op, draw(st.sampled_from([i for i, d in enumerate(dep) if not d])),
                          len(kinds)))
            kinds.append("kernel")
        elif op in ("mul", "add"):
            steps.append((op, draw(st.sampled_from([i for i, d in enumerate(dep) if d])),
                          draw(any_node)))
        else:
            steps.append((op, draw(any_node)))
        dep.append(op in ("matmul", "dwconv3x3", "mul", "add") or dep[steps[-1][1]])
    return steps, kinds, dep


class Composed(InnerArch):
    """The forward of a drawn program; its output sums every weight-dependent node,
    so every weight reaches it."""

    def __init__(self, steps, kinds, dep):
        self.steps, self.kinds, self.dep = steps, kinds, dep

    def forward(self, ws, x, grid=None):
        pool, d = [x], x.value.shape[-1]
        for op, i, *rest in self.steps:
            a = pool[i]
            if op == "matmul":
                w = ws[rest[0]]
                if self.kinds[rest[0]] == "reshaped":   # a weight kept flat
                    w = ad.reshape(w, (d, d))
                pool.append(ad.matmul(a, w))
            elif op == "dwconv3x3":
                g = ad.reshape(a, (*a.value.shape[:-2], *grid, d))
                pool.append(ad.reshape(ad.dwconv3x3(g, ws[rest[0]]), a.value.shape))
            elif op in ("mul", "add"):
                pool.append(getattr(ad, op)(a, pool[rest[0]]))
            elif op == "silu":
                pool.append(ad.silu(a))
            else:
                flat = ad.reshape(a, (*a.value.shape[:-2], 9 * d))
                pool.append(ad.reshape(flat, a.value.shape))
        out = None
        for node, dependent in zip(pool, self.dep):
            if dependent:
                out = node if out is None else ad.add(out, node)
        return out


class TestWalkerOnComposedForwards:
    @settings(derandomize=True, database=None, deadline=None, max_examples=150)
    @given(program=ruled_programs(), batched=st.booleans(), record=st.booleans(),
           seed=st.integers(0, 2 ** 16))
    def test_pullback_equals_backward(self, program, batched, record, seed):
        steps, kinds, dep = program
        lead, d = ((2,) if batched else ()), 3
        rng = np.random.default_rng(seed)
        shapes = {"shared": (d, d), "per_sample": (*lead, d, d), "reshaped": (d * d,),
                  "kernel": (3, 3, d)}
        w0 = [rng.standard_normal(shapes[k]) / d for k in kinds]
        x0 = rng.standard_normal((*lead, 9, d))
        dv0 = rng.standard_normal((*lead, 9, d))
        derived, expect = walker_and_backward_grads(Composed(steps, kinds, dep), w0, x0,
                                                    dv0, record)
        for g, e in zip(derived, expect, strict=True):
            if not batched:
                assert g.shape == e.shape and np.array_equal(g, e)
                continue
            if g.shape != e.shape:          # a shared weight's per-sample gradients
                assert g.shape == (2, *e.shape)
                g = g.sum(axis=0)
            assert np.abs(g - e).max() <= 1e-12 * np.abs(e).max()


def full_grid_update(arch, ws, k, v, cfg, rate, grid):
    """Reference conv inner loop: every part runs its forward and its kernel
    gradient on the whole grid, with the part's cotangent padded to all n rows.
    The full conv is im2col patches times the kernel folded to [9d, d]."""
    *lead, n, d = k.value.shape
    kg = ad.reshape(k, (*lead, *grid, d))

    def conv(w):
        if arch.name == "dwconv3x3":
            return ad.reshape(ad.dwconv3x3(kg, w), k.value.shape)
        return ad.matmul(ad.patches(kg), ad.reshape(w, (*w.value.shape[:-4], 9 * d, d)))

    def wgrad(dv):
        if arch.name == "dwconv3x3":
            g = ad.dwconv3x3_wgrad(kg, ad.reshape(dv, (*lead, *grid, d)))
            return ad.reshape(g, g.value.shape[1:]) if not lead else g
        g = ad.matmul_t(ad.patches(kg), dv, 0)
        return ad.reshape(g, (*lead, 3, 3, d, d))

    for _ in range(cfg.epochs):
        for lo, hi in partition_batches(n, cfg.parts):
            vhat = conv(ws[0])
            dv = INNER_LOSSES[cfg.loss].grad(ad.rows(vhat, lo, hi), ad.rows(v, lo, hi))
            if rate is not None:
                dv = ad.mul(dv, ad.rows(rate, lo, hi))
            g = wgrad(ad.pad_rows(dv, n, lo, hi))
            if rate is None:
                g = ad.scale(g, cfg.lr)
            ws = [ad.sub(ws[0], g)]
    return ws


def _adapt_conv(update, name, grid, parts, b, dynamic, seed=12):
    """Adapted kernel and float64 outer gradients of one two-epoch conv update."""
    rng = np.random.default_rng(seed)
    n, d = grid[0] * grid[1], 3
    lead = (b,) if b else ()
    arrays = {"w0": get_arch(name).init(rng, d)[0],
              "k": rng.standard_normal((*lead, n, d)),
              "v": rng.standard_normal((*lead, n, d)),
              "x": rng.standard_normal((*lead, n, 5)),
              "weta": 0.5 * rng.standard_normal((5, 1))}
    t = Tape()
    leaves = {key: t.leaf(a, name=key, param=True) for key, a in arrays.items()}
    rate = dynamic_rate(leaves["x"], leaves["weta"], 0.8) if dynamic else None
    cfg = InnerTrainConfig(loss="mse", epochs=2, parts=parts, lr=0.8, dynamic_lr=dynamic)
    star = update(get_arch(name), [leaves["w0"]], leaves["k"], leaves["v"], cfg, rate, grid)[0]
    probe = np.cos(np.arange(star.value.size)).reshape(star.value.shape)
    return star.value, t.backward(ad.sum_all(ad.mul(star, t.leaf(probe))))


def assert_halo_matches_full_grid(name, grid, parts, b, dynamic):
    w_ref, g_ref = _adapt_conv(full_grid_update, name, grid, parts, b, dynamic)
    w_new, g_new = _adapt_conv(inner_update_nodes, name, grid, parts, b, dynamic)
    if name == "dwconv3x3":
        # elementwise taps, each summed over the grid in grid order: exact
        assert np.array_equal(w_new, w_ref)
    else:
        # conv3x3's kernel gradient is one BLAS GEMM reducing over the grid; with
        # fewer zero rows BLAS may group the same nonzero terms differently
        assert np.abs(w_new - w_ref).max() <= 1e-12 * max(1.0, np.abs(w_ref).max())
    for key in g_ref:
        scale = max(1.0, np.abs(g_ref[key]).max())
        assert np.abs(g_new[key] - g_ref[key]).max() <= 1e-12 * scale, key


class TestConvHalo:
    @pytest.mark.parametrize("name", ["conv3x3", "dwconv3x3"])
    @pytest.mark.parametrize("grid,parts", [((5, 7), 3), ((5, 7), 7), ((8, 8), 4),
                                            ((3, 4), 2), ((5, 7), 35)])
    @pytest.mark.parametrize("b", [0, 2])
    def test_matches_full_grid(self, name, grid, parts, b):
        assert_halo_matches_full_grid(name, grid, parts, b, dynamic=False)

    @pytest.mark.parametrize("name", ["conv3x3", "dwconv3x3"])
    def test_matches_full_grid_dynamic_rate(self, name):
        assert_halo_matches_full_grid(name, (5, 7), 3, 2, dynamic=True)

    @given(st.sampled_from(["conv3x3", "dwconv3x3"]), st.integers(1, 6),
           st.integers(1, 6), st.integers(1, 8), st.integers(0, 2), st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_matches_full_grid_property(self, name, h, w, parts, b, dynamic):
        if parts > h * w:
            return
        assert_halo_matches_full_grid(name, (h, w), parts, b, dynamic)

    def test_context_is_grid_rows_plus_halo(self):
        arch = get_arch("dwconv3x3")
        assert arch.context(0, 12, (5, 7)) == (0, 21)       # rows 0-1 + halo row 2
        assert arch.context(12, 24, (5, 7)) == (0, 35)      # rows 1-3 + halo 0 and 4
        assert arch.context(24, 35, (5, 7)) == (14, 35)     # rows 3-4 + halo row 2
        assert get_arch("gated_fc").context(12, 24, (5, 7)) == (12, 24)


def _step_ops(arch, loss, dynamic):
    """The op of every node one batched inner step records, after its inputs."""
    t = Tape()
    k, v = (t.leaf(RNG.standard_normal((2, 5, 4))) for _ in range(2))
    ws = [t.leaf(w) for w in get_arch(arch).init(RNG, 4)]
    rate = t.leaf(np.full((2, 5, 1), 0.5)) if dynamic else None
    first = len(t.nodes)
    inner_update_nodes(get_arch(arch), ws, k, v,
                       InnerTrainConfig(loss=loss, dynamic_lr=dynamic), rate)
    return [node.op for node in t.nodes[first:]]


def _workload_logits_nodes(name, tmp_path):
    """Nodes on the tape of one forward of perfbench's workload `name` at its tiny
    size: the logits of one batch, or the layer output for long_seq."""
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(__file__)), "perfbench"))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.pop(0)
    wl = WORKLOADS[name](0, "tiny", str(tmp_path))
    tape = Tape()
    if wl.is_model:
        wl.model.logits_nodes(tape, wl.xv[:wl.batch])
    else:
        leaves = {k: tape.leaf(v, name=k, param=True) for k, v in wl.params.named_arrays().items()}
        ttt_attention_nodes(tape.leaf(wl.x), leaves, wl.params, wl.cfg, wl.grid)
    return len(tape.nodes)


class TestInnerStepNodes:
    """What one inner step records, pinned so that a node put back fails: the walk
    reads transposed views (`matmul_t`), SiLU' and its product are one op, and a
    fixed-rate step is one `sub_scaled` per weight."""

    FORWARD = ["matmul", "matmul", "silu", "mul", "scale"]    # gated_fc, then dot's grad
    WALK = ["mul", "mul", "mul_silu_prime", "matmul_t", "matmul_t"]

    def test_gated_fc_fixed_rate(self):
        assert _step_ops("gated_fc", "dot", False) == [*self.FORWARD, *self.WALK,
                                                       "sub_scaled", "sub_scaled"]

    def test_gated_fc_dynamic_rate(self):
        assert _step_ops("gated_fc", "dot", True) == [*self.FORWARD, "mul", *self.WALK,
                                                      "sub", "sub"]

    @pytest.mark.parametrize("name, nodes", [("cifar_train", 69), ("recall_train", 67),
                                             ("long_seq", 84)])
    def test_workload_logits_tape(self, name, nodes, tmp_path):
        assert _workload_logits_nodes(name, tmp_path) == nodes
