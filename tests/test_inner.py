import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tttlab import autodiff as ad
from tttlab import tensor as T
from tttlab.autodiff import Tape
from tttlab.inner import (ARCH_NAMES, DivergenceError, InnerModel,
                          InnerTrainConfig, PartitionError, dynamic_rate,
                          get_arch, inner_forward, inner_loss, inner_loss_grad,
                          inner_update, inner_update_nodes, loss_grad,
                          mixed_second_derivative, partition_batches)

RNG = np.random.default_rng(21)


def generic_pair(b=3, d=4, seed=0):
    rng = np.random.default_rng(seed)
    while True:
        vhat, v = rng.standard_normal((b, d)), rng.standard_normal((b, d))
        e = np.abs(vhat - v)
        if e.min() > 1e-3 and np.abs(e - 1.0).min() > 1e-3:
            return vhat, v


class TestLossValues:
    def test_dot_product_hand_case(self):
        vhat = np.array([[1.0, 2.0, 0.0, 0.0]])
        v = np.array([[3.0, 0.0, 0.0, 1.0]])
        # -(1/(1*sqrt(4))) * 3 = -1.5
        assert inner_loss("dot", vhat, v) == pytest.approx(-1.5)

    def test_mse_perfect_fit(self):
        v = RNG.standard_normal((5, 3))
        assert inner_loss("mse", v.copy(), v) == 0.0

    def test_smooth_l1_hand_case(self):
        vhat = np.full((1, 4), 0.5)
        v = np.zeros((1, 4))
        # all diffs 0.5 -> (1/(1*2)) * 4 * (0.5 * 0.25) = 0.25
        assert inner_loss("smooth_l1", vhat, v) == pytest.approx(0.25)

    def test_mae_value(self):
        vhat, v = generic_pair(seed=1)
        b, d = vhat.shape
        expect = np.abs(vhat - v).sum() / (b * math.sqrt(d))
        assert inner_loss("mae", vhat, v) == pytest.approx(expect)

    def test_rmse_value(self):
        vhat, v = generic_pair(seed=2)
        b, d = vhat.shape
        expect = math.sqrt(((vhat - v) ** 2).sum() / (b * math.sqrt(d)))
        assert inner_loss("rmse", vhat, v) == pytest.approx(expect)


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

    @pytest.mark.parametrize("kind", ["dot", "mse", "rmse", "mae", "smooth_l1"])
    def test_grad_matches_finite_differences(self, kind):
        vhat, v = generic_pair(seed=5)
        analytic = inner_loss_grad(kind, vhat, v)
        eps = 1e-6
        numeric = np.zeros_like(vhat)
        for idx in np.ndindex(*vhat.shape):
            vp, vm = vhat.copy(), vhat.copy()
            vp[idx] += eps
            vm[idx] -= eps
            numeric[idx] = (inner_loss(kind, vp, v) - inner_loss(kind, vm, v)) / (2 * eps)
        assert np.abs(analytic - numeric).max() < 1e-8

    def test_rmse_guard_at_perfect_fit(self):
        v = RNG.standard_normal((4, 4))
        g = inner_loss_grad("rmse", v.copy(), v)
        assert np.all(np.isfinite(g)) and np.allclose(g, 0.0)


class TestMixedSecondDerivative:
    def test_mse_constant(self):
        vhat, v = generic_pair(b=2, d=4, seed=6)
        out = mixed_second_derivative("mse", vhat, v)
        assert np.allclose(out, -1.0 / (2 * 2), atol=0)  # -1/(B sqrt(d)) = -0.25

    def test_dot_constant(self):
        vhat, v = generic_pair(b=2, d=4, seed=7)
        assert np.allclose(mixed_second_derivative("dot", vhat, v), -0.25, atol=0)

    def test_mae_zero_almost_everywhere(self):
        vhat, v = generic_pair(seed=8)
        assert np.all(mixed_second_derivative("mae", vhat, v) == 0.0)

    def test_smooth_l1_piecewise(self):
        b, d = 1, 4
        vhat = np.array([[0.5, 2.0, -0.5, -2.0]])
        v = np.zeros((1, 4))
        out = mixed_second_derivative("smooth_l1", vhat, v)
        c = 1.0 / (b * math.sqrt(d))
        assert np.array_equal(out, [[-c, 0.0, -c, 0.0]])

    @pytest.mark.parametrize("kind", ["dot", "mse", "rmse", "mae", "smooth_l1"])
    def test_matches_fd_of_loss_grad(self, kind):
        vhat, v = generic_pair(seed=9)
        analytic = mixed_second_derivative(kind, vhat, v)
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
        want = T.silu(x @ m.weights[0]) @ m.weights[1]
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
        m = InnerModel.create("mlp_r3_l2", 4, np.random.default_rng(0))
        assert m.weights[0].shape == (4, 12) and m.weights[1].shape == (12, 4)


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

    def test_arch_registry_covers_design_space(self):
        assert len(ARCH_NAMES) >= 10
        for name in ARCH_NAMES:
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

        def reads_k(node):
            return node is k or (node.op == "reshape" and node.inputs[0] is k)

        uses = [sum(1 for node in t.nodes
                    if node.op in ("matmul", "conv3x3", "dwconv3x3")
                    and node.inputs[1] is w and reads_k(node.inputs[0]))
                for w in ws]
        assert uses[0] == 1 and max(uses) == 1


def full_grid_update(arch, ws, k, v, cfg, rate, grid):
    """Reference conv inner loop: every part runs its forward and its kernel
    gradient on the whole grid, with the part's cotangent padded to all n rows."""
    conv, wgrad = {"conv3x3": (ad.conv3x3, ad.conv3x3_wgrad),
                   "dwconv3x3": (ad.dwconv3x3, ad.dwconv3x3_wgrad)}[arch.name]
    *lead, n, d = k.value.shape

    def to_grid(a):
        return ad.reshape(a, (*lead, *grid, d))

    for _ in range(cfg.epochs):
        for lo, hi in partition_batches(n, cfg.parts):
            vhat = ad.reshape(conv(to_grid(k), ws[0]), k.value.shape)
            dv = loss_grad(cfg.loss, ad.rows(vhat, lo, hi), ad.rows(v, lo, hi))
            if rate is not None:
                r = ad.rows(ad.reshape(rate, (*lead, n, 1)), lo, hi)
                dv = ad.colscale(dv, ad.reshape(r, (*lead, hi - lo)))
            g = wgrad(to_grid(k), to_grid(ad.pad_rows(dv, n, lo, hi)))
            if not lead:
                g = ad.reshape(g, g.value.shape[1:])
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
