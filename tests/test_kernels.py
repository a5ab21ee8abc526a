"""The fast tape kernels against the straightforward formulas they replace.

Each reference below is the plain numpy formula: the broadcast matmul with
its cotangents summed back by `_unbroadcast`, matmul followed by a bias add,
`linear` followed by `silu` (which `linear_silu` fuses), `ad.add` after a
matmul, linear or depthwise conv (which the residual ops fuse), a transposed
copy then matmul (which `matmul_t` reads as a view), `scale` then `sub`
(`sub_scaled`), SiLU' then a product (`mul_silu_prime`),
the `np.var` LayerNorm, the tanh sigmoid, the nine shifted multiply-adds of
the depthwise conv, the windowed `.sum(axis=(1, 2))` kernel gradient, and the
nine-copy im2col. Kernels that only reorder elementwise passes must match
bit for bit. Kernels that change a summation order (a folded GEMM, a shared
kernel reduced in one contraction) must match within a tolerance fixed by
dtype, relative to the same sum taken over absolute values, which bounds the
rounding error of any summation order.
"""

import itertools

import numpy as np
import pytest

from tttlab import autodiff as ad
from tttlab import data as D
from tttlab import tensor as T
from tttlab.autodiff import Tape, _unbroadcast
from tttlab.harness import RecallModel, RunConfig
from tttlab.inner import InnerTrainConfig, get_arch
from tttlab.model import Model, ModelConfig

RTOL = {np.float32: 1e-6, np.float64: 1e-12}
DTYPES = (np.float32, np.float64)


def assert_close(new, ref, scale, dtype):
    assert new.shape == ref.shape and new.dtype == ref.dtype
    assert np.all(np.abs(new - ref) <= RTOL[dtype] * scale)


def randn(rng, shape, dtype):
    return rng.standard_normal(shape).astype(dtype)


# ---------------------------------------------------------------------------
# references: the formulas the kernels replaced

def ref_matmul_vjp(av, bv, g):
    da = _unbroadcast(np.matmul(g, np.swapaxes(bv, -1, -2)), av.shape)
    db = _unbroadcast(np.matmul(np.swapaxes(av, -1, -2), g), bv.shape)
    return da, db


def ref_sigmoid(x):
    return 0.5 * (np.tanh(0.5 * x) + 1.0)


def ref_layer_norm(xv, gamma, beta, g, eps=1e-5):
    mu = xv.mean(axis=-1, keepdims=True)
    var = xv.var(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xv - mu) * inv
    out = xhat * gamma + beta
    dxhat = g * gamma
    m1 = dxhat.mean(axis=-1, keepdims=True)
    m2 = (dxhat * xhat).mean(axis=-1, keepdims=True)
    dx = inv * (dxhat - m1 - xhat * m2)
    return out, dx, _unbroadcast(g * xhat, gamma.shape), _unbroadcast(g, beta.shape)


def ref_cross_entropy(lv, labels, g):
    """The mean NLL over the rows of lv, and its cotangent for root cotangent g."""
    shifted = lv - lv.max(axis=-1, keepdims=True)
    logz = np.log(np.exp(shifted).sum(axis=-1))
    n = lv.shape[0]
    nll = logz - shifted[np.arange(n), labels]
    p = np.exp(shifted)
    p /= p.sum(axis=-1, keepdims=True)
    p[np.arange(n), labels] -= 1.0
    return np.asarray(nll.mean()), p * (g / n)


def ref_dwconv3x3_wgrad(x, g, per_sample):
    b, h, w, c = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    out = np.empty((b, 3, 3, c), dtype=x.dtype)
    for u in range(3):
        for v in range(3):
            out[:, u, v, :] = (g * xp[:, u:u + h, v:v + w, :]).sum(axis=(1, 2))
    return out if per_sample else out.sum(axis=0)


def ref_dwconv3x3(x, k):
    b, h, w, c = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    out = np.zeros_like(x)
    for u in range(3):
        for v in range(3):
            tap = k[:, u, v, None, None, :] if k.ndim == 4 else k[u, v]
            out += xp[:, u:u + h, v:v + w, :] * tap
    return out


def ref_patches(x):
    b, h, w, c = x.shape
    xp = np.pad(x, ((0, 0), (1, 1), (1, 1), (0, 0)))
    cols = np.empty((b, h, w, 9, c), dtype=x.dtype)
    for u in range(3):
        for v in range(3):
            cols[:, :, :, 3 * u + v, :] = xp[:, u:u + h, v:v + w, :]
    return cols.reshape(b, h * w, 9 * c)


def tape_op(op, *values):
    """Forward value and node of `op` applied to fresh leaves."""
    t = Tape()
    node = op(*(t.leaf(v, name=f"p{i}", param=True) for i, v in enumerate(values)))
    return node.value, node


def value_op(op, *values):
    """Value of `op` applied to fresh leaves of a Tape(record=False)."""
    t = Tape(record=False)
    return op(*(t.leaf(v) for v in values)).value


# ---------------------------------------------------------------------------
# matmul and linear

MATMUL_SHAPES = [((8, 64, 32), (32, 48)),     # [b, N, C] @ shared [C, D]: folded
                 ((2, 3, 16, 8), (8, 5)),      # two leading axes fold too
                 ((16, 1, 32), (32, 10)),      # M = 1 rows per sample
                 ((64, 32), (32, 48)),         # [N, C] @ [C, D]: one GEMM already
                 ((1, 32), (32, 10)),          # a single row
                 ((8, 16, 12), (8, 12, 12)),   # per-sample [b, N, d] @ [b, d, d]
                 ((16, 12), (8, 12, 12))]      # shared rows against per-sample weights


class TestMatmulKernels:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("sa,sb", MATMUL_SHAPES)
    def test_forward_and_vjp_match_broadcast_reference(self, sa, sb, dtype):
        rng = np.random.default_rng(0)
        av, bv = randn(rng, sa, dtype), randn(rng, sb, dtype)
        out, node = tape_op(ad.matmul, av, bv)
        ref = np.matmul(av, bv)
        g = randn(rng, ref.shape, dtype)
        da, db = node.vjp(g)
        rda, rdb = ref_matmul_vjp(av, bv, g)
        aa, ab, ag = np.abs(av), np.abs(bv), np.abs(g)
        sda, sdb = ref_matmul_vjp(aa, ab, ag)
        assert_close(out, ref, np.matmul(aa, ab), dtype)
        assert_close(da, rda, sda, dtype)
        assert_close(db, rdb, sdb, dtype)
        if len(sb) == 3:
            # per-sample weights keep the broadcast path: same calls, same bits
            assert np.array_equal(out, ref)
            assert np.array_equal(da, rda) and np.array_equal(db, rdb)
        if len(sa) == 2 and len(sb) == 2:
            assert np.array_equal(out, ref)
            assert np.array_equal(da, rda) and np.array_equal(db, rdb)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("sa,sb", [s for s in MATMUL_SHAPES if len(s[1]) == 2])
    def test_linear_matches_matmul_plus_bias(self, sa, sb, dtype):
        rng = np.random.default_rng(1)
        xv, wv = randn(rng, sa, dtype), randn(rng, sb, dtype)
        bv = randn(rng, sb[-1:], dtype)
        out, node = tape_op(ad.linear, xv, wv, bv)
        mm = np.matmul(xv, wv)
        g = randn(rng, mm.shape, dtype)
        dx, dw, db = node.vjp(g)
        rdx, rdw = ref_matmul_vjp(xv, wv, g)
        ax, aw, ag = np.abs(xv), np.abs(wv), np.abs(g)
        sdx, sdw = ref_matmul_vjp(ax, aw, ag)
        assert_close(out, mm + bv, np.matmul(ax, aw) + np.abs(bv), dtype)
        assert_close(dx, rdx, sdx, dtype)
        assert_close(dw, rdw, sdw, dtype)
        assert_close(db, _unbroadcast(g, bv.shape), _unbroadcast(ag, bv.shape), dtype)
        # the bias add itself is unchanged arithmetic on the same product
        assert np.array_equal(out, T.matmul(xv, wv) + bv)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("sa,sb", [((8, 64, 32), (32, 48)), ((64, 32), (32, 48))])
    def test_linear_silu_matches_linear_then_silu(self, sa, sb, dtype):
        rng = np.random.default_rng(14)
        # pre-activations of order one, so SiLU' takes both signs
        xv, wv = randn(rng, sa, dtype), randn(rng, sb, dtype) * 0.2
        bv = randn(rng, sb[-1:], dtype)
        with T.count_flops() as fused:
            out, node = tape_op(ad.linear_silu, xv, wv, bv)
        t = Tape()
        with T.count_flops() as chain:
            h = ad.linear(*(t.leaf(v, name=f"p{i}", param=True)
                            for i, v in enumerate((xv, wv, bv))))
            ref = ad.silu(h)
        assert fused.total == chain.total
        assert np.array_equal(out, ref.value)
        g = randn(rng, out.shape, dtype)
        got = node.vjp(g)
        want = h.vjp(ref.vjp(g)[0])
        # SiLU' rounds differently (s + out (1 - s) against s (1 + h (1 - s))),
        # so each cotangent is held to the tolerance of its terms' absolute sum
        s = T.sigmoid(h.value)
        dh_abs = np.abs(g) * (s + np.abs(out) * (1.0 - s))
        sdx, sdw = ref_matmul_vjp(np.abs(xv), np.abs(wv), dh_abs)
        for a, b, scale in zip(got, want, (sdx, sdw, _unbroadcast(dh_abs, bv.shape))):
            assert_close(a, b, scale, dtype)

    def test_linear_rejects_bad_operands(self):
        with pytest.raises(T.DimensionError):
            T.linear(np.ones((4, 5)), np.ones((2, 5, 3)), np.zeros(3))
        with pytest.raises(T.DimensionError):
            T.linear(np.ones((4, 5)), np.ones((5, 3)), np.zeros(4))
        with pytest.raises(T.DimensionError):
            T.linear(np.ones((4, 5)), np.ones((4, 3)), np.zeros(3))


# ---------------------------------------------------------------------------
# the inner step's ops: each replaces a pair of ops

def ref_matmul_t(av, bv, side, g):
    """Value, FLOPs and cotangents of a @ b with operand `side` first copied
    transposed, as the walker formed aᵀ·g and g·bᵀ before `matmul_t`."""
    t = Tape()
    leaves = [t.leaf(v, name=f"p{i}", param=True) for i, v in enumerate((av, bv))]
    leaves[side] = t.leaf(T.transpose(leaves[side].value), name="t", param=True)
    with T.count_flops() as fc:
        out = ad.matmul(*leaves)
    cots = list(out.vjp(g))
    cots[side] = np.swapaxes(cots[side], -1, -2)
    return out.value, fc.total, cots


# (a, b, side): aᵀ·g for a weight's cotangent, g·bᵀ for an activation's
MATMUL_T_SHAPES = [((16, 12), (16, 12), 0),              # unbatched rows: one 2-D GEMM
                   ((8, 16, 12), (8, 16, 12), 0),        # per-sample [b, n, d]
                   ((16, 12), (8, 16, 12), 0),           # shared rows, per-sample g
                   ((64, 64, 16), (64, 64, 16), 0),      # cifar's gated_fc heads
                   ((1024, 32), (1024, 32), 0),          # a long_seq mini-batch
                   ((8, 16, 108), (8, 16, 12), 0),       # conv3x3 patches [b, n, 9d]
                   ((9, 36), (9, 4), 0),                 # unbatched conv3x3 patches
                   ((16, 12), (10, 12), 1),              # unbatched rows
                   ((8, 16, 12), (12, 12), 1),           # shared weight: folded rows
                   ((8, 16, 12), (8, 12, 12), 1),        # per-sample weight
                   ((8, 16, 12), (8, 108, 12), 1)]       # per-sample folded conv3x3 kernel


class TestInnerStepOps:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("sa,sb,side", MATMUL_T_SHAPES)
    def test_matmul_t_matches_transposed_copy_then_matmul(self, sa, sb, side, dtype):
        # BLAS reads a transposed view through its own kernel, which may group a
        # product's terms differently at small sizes, so values are held to the
        # GEMM tolerance; the golden digests pin the workloads' bits
        rng = np.random.default_rng(17)
        av, bv = randn(rng, sa, dtype), randn(rng, sb, dtype)
        t = Tape()
        a, b = (t.leaf(v, name=f"p{i}", param=True) for i, v in enumerate((av, bv)))
        with T.count_flops() as fc:
            node = ad.matmul_t(a, b, side)
        g = randn(rng, node.value.shape, dtype)
        ref, ref_flops, ref_cots = ref_matmul_t(av, bv, side, g)
        abs_out, _, abs_cots = ref_matmul_t(np.abs(av), np.abs(bv), side, np.abs(g))
        assert fc.total == ref_flops
        assert_close(node.value, ref, abs_out, dtype)
        for got, want, scale in zip(node.vjp(g), ref_cots, abs_cots, strict=True):
            assert_close(got, want, scale, dtype)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("ws,gs", [((12, 12), (12, 12)), ((12, 12), (8, 12, 12)),
                                       ((8, 12, 12), (8, 12, 12))])
    def test_sub_scaled_bit_identical_to_scale_then_sub(self, ws, gs, dtype):
        rng = np.random.default_rng(18)
        values = [randn(rng, ws, dtype), randn(rng, gs, dtype)]
        got = _residual_run(lambda w, g: ad.sub_scaled(w, g, 0.3), values)
        want = _residual_run(lambda w, g: ad.sub(w, ad.scale(g, 0.3)), values)
        assert got[1] == want[1]
        for a, b in zip([got[0], *got[2]], [want[0], *want[2]], strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_mul_silu_prime_bit_identical_to_silu_prime_then_mul(self, dtype):
        # the formulas of the silu_prime op it replaces: its value s (1 + x (1 - s))
        # and vjp c s(1-s) (2 + x(1-2s)), and mul's cotangents of g * SiLU'
        rng = np.random.default_rng(19)
        gv, x, c = (randn(rng, (8, 16, 12), dtype) * 3 for _ in range(3))
        s = T.sigmoid(x)
        prime = s * (1.0 + x * (1.0 - s))
        out, node = tape_op(ad.mul_silu_prime, gv, x)
        dg, dz = node.vjp(c)
        assert np.array_equal(out, gv * prime)
        assert np.array_equal(dg, c * prime)
        assert np.array_equal(dz, (c * gv) * (s * (1.0 - s) * (2.0 + x * (1.0 - 2.0 * s))))

    def test_mul_silu_prime_needs_same_shapes(self):
        with pytest.raises(T.DimensionError, match="^mul_silu_prime: g"):
            tape_op(ad.mul_silu_prime, np.ones((2, 4, 3)), np.ones((4, 3)))


# ---------------------------------------------------------------------------
# elementwise and LayerNorm: same arithmetic, fewer passes -> same bits

class TestElementwiseKernels:
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_sigmoid_and_silu_bit_identical(self, dtype):
        rng = np.random.default_rng(2)
        x = randn(rng, (4, 33, 17), dtype) * 4
        g = randn(rng, x.shape, dtype)
        s = ref_sigmoid(x)
        assert np.array_equal(T.sigmoid(x), s)
        out, node = tape_op(ad.silu, x)
        assert np.array_equal(out, x * s)
        assert np.array_equal(node.vjp(g)[0], g * (s * (1.0 + x * (1.0 - s))))
        out, node = tape_op(ad.sigmoid, x)
        assert np.array_equal(out, s)
        assert np.array_equal(node.vjp(g)[0], g * s * (1.0 - s))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(5, 6), (4, 16, 64), (3, 1, 7)])
    def test_layer_norm_bit_identical(self, shape, dtype):
        rng = np.random.default_rng(3)
        x = randn(rng, shape, dtype) * 3 + 1
        gamma = rng.uniform(0.5, 1.5, shape[-1]).astype(dtype)
        beta = randn(rng, shape[-1:], dtype)
        g = randn(rng, shape, dtype)
        out, node = tape_op(ad.layer_norm, x, gamma, beta)
        ref = ref_layer_norm(x, gamma, beta, g)
        assert np.array_equal(out, ref[0])
        for got, want in zip(node.vjp(g), ref[1:]):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_cross_entropy_bit_identical(self, n, dtype):
        # total=n is the mean; a chunk divided by its batch's size gets the
        # batch's cotangent rows, so a chunked training step changes no row
        rng = np.random.default_rng(4)
        lv = randn(rng, (n, 10), dtype) * 3
        labels = rng.integers(0, 10, n)
        g = np.ones((), dtype)
        want, ct = ref_cross_entropy(lv, labels, g)
        out, node = tape_op(lambda x: ad.cross_entropy(x, labels, total=n), lv)
        assert out.dtype == want.dtype and np.array_equal(out, want)
        assert np.array_equal(node.vjp(g)[0], ct)
        k = (n + 1) // 2
        _, node = tape_op(lambda x: ad.cross_entropy(x, labels[:k], total=n), lv[:k])
        assert np.array_equal(node.vjp(g)[0], ct[:k])


# ---------------------------------------------------------------------------
# depthwise conv and its kernel gradient

DWCONV_SIDES = (1, 2, 3, 5, 8)
# the CPE, a per-head conv, and long_seq's halo part and whole grid
DWCONV_WORKLOAD_SHAPES = [(64, 8, 8, 64), (64, 8, 8, 16), (1, 18, 64, 32), (1, 64, 64, 32)]


class TestDwconv:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("per_sample", [True, False])
    def test_forward_bit_identical(self, per_sample, dtype):
        rng = np.random.default_rng(8)
        x = randn(rng, (6, 5, 7, 4), dtype)
        k = randn(rng, ((6,) if per_sample else ()) + (3, 3, 4), dtype)
        assert np.array_equal(T.dwconv3x3(x, k), ref_dwconv3x3(x, k))

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("per_sample", [True, False])
    @pytest.mark.parametrize("c", [1, 2, 3, 16, 64])
    def test_forward_sweep_bit_identical(self, c, per_sample, dtype):
        # C = 1 takes the tap loop, every other width the row-window contraction
        rng = np.random.default_rng(c)
        for b, h, w in itertools.product((1, 2, 7), DWCONV_SIDES, DWCONV_SIDES):
            x = randn(rng, (b, h, w, c), dtype)
            k = randn(rng, ((b,) if per_sample else ()) + (3, 3, c), dtype)
            assert np.array_equal(T.dwconv3x3(x, k), ref_dwconv3x3(x, k)), (b, h, w)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("per_sample", [True, False])
    @pytest.mark.parametrize("shape", DWCONV_WORKLOAD_SHAPES)
    def test_forward_workload_shapes(self, shape, per_sample, dtype):
        rng = np.random.default_rng(9)
        x = randn(rng, shape, dtype)
        k = randn(rng, ((shape[0],) if per_sample else ()) + (3, 3, shape[-1]), dtype)
        x_before = x.copy()
        out = T.dwconv3x3(x, k)
        assert np.array_equal(out, ref_dwconv3x3(x, k))
        assert np.array_equal(x, x_before)
        assert not np.shares_memory(out, x)
        assert out.flags.writeable and out.flags.c_contiguous

    @pytest.mark.parametrize("c", [1, 5])
    def test_forward_unbatched(self, c):
        rng = np.random.default_rng(10)
        x, k = randn(rng, (6, 7, c), np.float32), randn(rng, (3, 3, c), np.float32)
        out = T.dwconv3x3(x, k)
        assert out.shape == x.shape
        assert np.array_equal(out, ref_dwconv3x3(x[None], k)[0])
        assert not np.shares_memory(out, x)

    def test_forward_counts_nine_multiply_adds(self):
        x = np.ones((2, 4, 5, 3))
        with T.count_flops() as fc:
            T.dwconv3x3(x, np.ones((3, 3, 3)))
        assert fc.total == 2 * 9 * x.size

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(16, 8, 8, 16), (1, 12, 12, 8), (3, 4, 5, 2)])
    def test_per_sample_bit_identical(self, shape, dtype):
        rng = np.random.default_rng(4)
        x, g = randn(rng, shape, dtype), randn(rng, shape, dtype)
        got = T.dwconv3x3_wgrad(x, g, per_sample=True)
        assert np.array_equal(got, ref_dwconv3x3_wgrad(x, g, True))
        assert np.array_equal(T.dwconv3x3_wgrad(x[0], g[0]), got[:1])

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("shape", [(16, 8, 8, 16), (1, 12, 12, 8), (3, 4, 5, 2)])
    def test_shared_within_tolerance(self, shape, dtype):
        rng = np.random.default_rng(5)
        x, g = randn(rng, shape, dtype), randn(rng, shape, dtype)
        got = T.dwconv3x3_wgrad(x, g, per_sample=False)
        scale = ref_dwconv3x3_wgrad(np.abs(x), np.abs(g), False)
        assert_close(got, ref_dwconv3x3_wgrad(x, g, False), scale, dtype)


class TestPatches:
    @pytest.mark.parametrize("shape", [(2, 3, 4, 1), (3, 5, 7, 2), (64, 8, 8, 16),
                                       (1, 18, 64, 32)])
    def test_window_view_matches_nine_copies(self, shape):
        x = randn(np.random.default_rng(12), shape, np.float32)
        cols = T.patches(x)
        assert np.array_equal(cols, ref_patches(x))
        assert cols.flags.c_contiguous and not np.shares_memory(cols, x)
        assert np.array_equal(T.patches(x[0]), cols[0])

    @pytest.mark.parametrize("shape", [(5, 7, 3), (3, 4, 6, 2), (2, 1, 1, 4)])
    def test_unpatch_is_the_adjoint(self, shape):
        # <patches(x), y> = <x, unpatch(y)> for every x and y
        rng = np.random.default_rng(13)
        x = rng.standard_normal(shape)
        cols = T.patches(x)
        y = rng.standard_normal(cols.shape)
        back = T.unpatch(y, x.shape)
        assert back.shape == x.shape and back.flags.c_contiguous
        lhs, rhs = np.vdot(cols, y), np.vdot(x, back)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_copies_count_no_flops(self):
        x = np.ones((2, 4, 5, 3))
        with T.count_flops() as fc:
            value_op(ad.patches, x)
            tape_op(ad.patches, x)[1].vjp(np.ones((2, 20, 27)))
        assert fc.total == 0


# ---------------------------------------------------------------------------
# residual adds: the base op's buffer takes r in place -> the chain's bits

def _grid_branch(r, x, k):
    return ad.reshape(ad.dwconv3x3(x, k), r.value.shape)


# (fused op, its base op as the chain builds it, shapes of r and the base operands)
RESIDUAL_CASES = {
    "matmul_rows": (ad.add_matmul, lambda r, a, w: ad.matmul(a, w),
                    [(8, 16, 12), (8, 16, 20), (20, 12)]),
    "matmul_2d": (ad.add_matmul, lambda r, a, w: ad.matmul(a, w), [(16, 10), (16, 12), (12, 10)]),
    "matmul_ttt_out": (ad.add_matmul, lambda r, a, w: ad.matmul(a, w),
                       [(64, 64, 64), (64, 64, 64), (64, 64)]),
    "linear_rows": (ad.add_linear, lambda r, x, w, b: ad.linear(x, w, b),
                    [(8, 16, 12), (8, 16, 48), (48, 12), (12,)]),
    "linear_2d": (ad.add_linear, lambda r, x, w, b: ad.linear(x, w, b),
                  [(16, 10), (16, 12), (12, 10), (10,)]),
    "dwconv3x3_cpe": (ad.add_dwconv3x3, _grid_branch, [(64, 64, 64), (64, 8, 8, 64), (3, 3, 64)]),
    "dwconv3x3_per_sample": (ad.add_dwconv3x3, _grid_branch,
                             [(4, 30, 3), (4, 5, 6, 3), (4, 3, 3, 3)]),
    "dwconv3x3_unbatched": (ad.add_dwconv3x3, _grid_branch, [(35, 4), (5, 7, 4), (3, 3, 4)]),
}


def _residual_run(build, values):
    """Value, FLOP ticks and every parameter's gradient of one forward built on a
    fresh tape from parameter leaves; the root pairs the output with a fixed g."""
    t = Tape()
    leaves = [t.leaf(v, name=f"p{i}", param=True) for i, v in enumerate(values)]
    with T.count_flops() as fc:
        out = build(*leaves)
    g = np.random.default_rng(16).standard_normal(out.value.shape).astype(out.value.dtype)
    grads = t.backward(ad.sum_all(ad.mul(out, t.leaf(g))))
    return out.value, fc.total, [grads[f"p{i}"] for i in range(len(values))]


class TestResidualAdds:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
    def test_bit_identical_to_op_then_add(self, case, dtype):
        fused, base, shapes = RESIDUAL_CASES[case]
        rng = np.random.default_rng(15)
        values = [randn(rng, s, dtype) for s in shapes]
        got = _residual_run(fused, values)
        want = _residual_run(lambda r, *ins: ad.add(r, base(r, *ins)), values)
        assert got[1] == want[1]
        for a, b in zip([got[0], *got[2]], [want[0], *want[2]], strict=True):
            assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
    def test_residual_must_match_the_branch(self, case):
        fused, _, shapes = RESIDUAL_CASES[case]
        t = Tape()
        r, *ins = (t.leaf(np.ones(s)) for s in shapes)
        with pytest.raises(T.DimensionError, match="residual"):
            fused(t.leaf(r.value.astype(np.float32)), *ins)
        with pytest.raises(T.DimensionError, match=f"^{fused.__name__}: residual"):
            fused(t.leaf(np.ones(shapes[0][:-1] + (shapes[0][-1] + 1,))), *ins)

    def test_add_matmul_needs_a_shared_weight(self):
        t = Tape()
        with pytest.raises(T.DimensionError, match="shared 2-D"):
            ad.add_matmul(t.leaf(np.ones((2, 4, 5))), t.leaf(np.ones((2, 4, 3))),
                          t.leaf(np.ones((2, 3, 5))))


# ---------------------------------------------------------------------------
# debug mode names the op whose forward value or cotangent went non-finite

@pytest.fixture
def debug():
    T.set_debug(True)
    try:
        yield
    finally:
        T.set_debug(False)


def nan_like(a):
    return np.full(a.shape, np.nan, dtype=a.dtype)


def poisoned(shape):
    x = np.random.default_rng(6).standard_normal(shape)
    x.flat[3] = np.nan
    return x


LAYOUT_OPS = {"reshape": lambda x: ad.reshape(x, (4, 6)),
              "rows": lambda x: ad.rows(x, 1, 3),
              "pad_rows": lambda x: ad.pad_rows(x, 6, 1, 5),
              "concat_last": lambda x: ad.concat_last([x, x])}


@pytest.mark.usefixtures("debug")
class TestDebugCoverage:
    def test_tensor_matmul(self):
        with pytest.raises(T.NonFiniteError, match="^matmul produced"):
            value_op(ad.matmul, poisoned((2, 4, 3)), np.ones((3, 5)))

    @pytest.mark.parametrize("sb", [(3, 5), (2, 3, 5)])
    def test_matmul_vjp(self, sb):
        _, node = tape_op(ad.matmul, np.ones((2, 4, 3)), np.ones(sb))
        with pytest.raises(T.NonFiniteError, match="^matmul vjp produced"):
            node.vjp(nan_like(node.value))

    def test_linear(self):
        with pytest.raises(T.NonFiniteError, match="^linear produced"):
            tape_op(ad.linear, poisoned((2, 4, 3)), np.ones((3, 5)), np.zeros(5))
        _, node = tape_op(ad.linear, np.ones((2, 4, 3)), np.ones((3, 5)), np.zeros(5))
        with pytest.raises(T.NonFiniteError, match="^linear vjp produced"):
            node.vjp(nan_like(node.value))

    def test_linear_silu(self):
        with pytest.raises(T.NonFiniteError, match="^linear_silu produced"):
            tape_op(ad.linear_silu, poisoned((2, 4, 3)), np.ones((3, 5)), np.zeros(5))
        _, node = tape_op(ad.linear_silu, np.ones((2, 4, 3)), np.ones((3, 5)), np.zeros(5))
        with pytest.raises(T.NonFiniteError, match="^linear_silu vjp produced"):
            node.vjp(nan_like(node.value))

    @pytest.mark.parametrize("case", ["matmul_rows", "linear_rows", "dwconv3x3_per_sample"])
    def test_residual_add(self, case):
        fused, _, shapes = RESIDUAL_CASES[case]
        op = fused.__name__
        with pytest.raises(T.NonFiniteError, match=f"^{op} produced"):
            tape_op(fused, poisoned(shapes[0]), *(np.ones(s) for s in shapes[1:]))
        _, node = tape_op(fused, *(np.ones(s) for s in shapes))
        with pytest.raises(T.NonFiniteError, match=f"^{op} vjp produced"):
            node.vjp(nan_like(node.value))

    def test_layer_norm(self):
        with pytest.raises(T.NonFiniteError, match="^layer_norm produced"):
            tape_op(ad.layer_norm, poisoned((4, 6)), np.ones(6), np.zeros(6))
        x = np.random.default_rng(7).standard_normal((4, 6))
        _, node = tape_op(ad.layer_norm, x, np.ones(6), np.zeros(6))
        with pytest.raises(T.NonFiniteError, match="^layer_norm vjp produced"):
            node.vjp(nan_like(node.value))

    def test_silu(self):
        with pytest.raises(T.NonFiniteError, match="^silu produced"):
            tape_op(ad.silu, poisoned((4, 6)))
        with pytest.raises(T.NonFiniteError, match="^silu produced"):
            value_op(ad.silu, poisoned((4, 6)))
        _, node = tape_op(ad.silu, np.ones((4, 6)))
        with pytest.raises(T.NonFiniteError, match="^silu vjp produced"):
            node.vjp(nan_like(node.value))

    def test_sigmoid(self):
        with pytest.raises(T.NonFiniteError, match="^sigmoid produced"):
            tape_op(ad.sigmoid, poisoned((4, 6)))
        _, node = tape_op(ad.sigmoid, np.ones((4, 6)))
        with pytest.raises(T.NonFiniteError, match="^sigmoid vjp produced"):
            node.vjp(nan_like(node.value))

    @pytest.mark.parametrize("per_sample", [True, False])
    def test_dwconv3x3_wgrad(self, per_sample):
        # a per-sample kernel gradient is the value of the dwconv3x3_wgrad op; a
        # shared one is only ever the kernel cotangent of a shared-kernel dwconv3x3
        if per_sample:
            with pytest.raises(T.NonFiniteError, match="^dwconv3x3_wgrad produced"):
                value_op(ad.dwconv3x3_wgrad, poisoned((2, 3, 3, 2)), np.ones((2, 3, 3, 2)))
        else:
            t = Tape()
            node = ad.dwconv3x3(t.leaf(np.ones((2, 3, 3, 2))),
                                t.leaf(np.ones((3, 3, 2)), name="k", param=True))
            with pytest.raises(T.NonFiniteError, match="^dwconv3x3 vjp produced"):
                node.vjp(poisoned((2, 3, 3, 2)))

    def test_reciprocal(self):
        with pytest.raises(T.NonFiniteError, match="^reciprocal produced"):
            tape_op(ad.reciprocal, poisoned((4, 6)))
        _, node = tape_op(ad.reciprocal, np.ones((4, 6)))
        with pytest.raises(T.NonFiniteError, match="^reciprocal vjp produced"):
            node.vjp(nan_like(node.value))

    def test_clip_min(self):
        with pytest.raises(T.NonFiniteError, match="^clip_min produced"):
            tape_op(lambda x: ad.clip_min(x, 0.1), poisoned((4, 6)))
        _, node = tape_op(lambda x: ad.clip_min(x, 0.1), np.ones((4, 6)))
        with pytest.raises(T.NonFiniteError, match="^clip_min vjp produced"):
            node.vjp(nan_like(node.value))

    def test_huber_prime(self):
        with pytest.raises(T.NonFiniteError, match="^huber_prime produced"):
            tape_op(ad.huber_prime, poisoned((4, 6)))
        _, node = tape_op(ad.huber_prime, np.ones((4, 6)))
        with pytest.raises(T.NonFiniteError, match="^huber_prime vjp produced"):
            node.vjp(nan_like(node.value))

    def test_cross_entropy(self):
        labels = np.array([0, 2, 1, 5])
        with pytest.raises(T.NonFiniteError, match="^cross_entropy produced"):
            tape_op(lambda x: ad.cross_entropy(x, labels, total=4), poisoned((4, 6)))
        _, node = tape_op(lambda x: ad.cross_entropy(x, labels, total=4), np.ones((4, 6)))
        with pytest.raises(T.NonFiniteError, match="^cross_entropy vjp produced"):
            node.vjp(nan_like(node.value))

    def test_mul_column(self):
        with pytest.raises(T.NonFiniteError, match="^mul produced"):
            tape_op(ad.mul, poisoned((2, 4, 3)), np.ones((2, 4, 1)))
        _, node = tape_op(ad.mul, np.ones((2, 4, 3)), np.ones((2, 4, 1)))
        with pytest.raises(T.NonFiniteError, match="^mul vjp produced"):
            node.vjp(nan_like(node.value))

    def test_mul_matrix_scalar(self):
        with pytest.raises(T.NonFiniteError, match="^mul produced"):
            tape_op(ad.mul, poisoned((2, 4, 3)), np.ones((2, 1, 1)))
        _, node = tape_op(ad.mul, np.ones((2, 4, 3)), np.ones((2, 1, 1)))
        with pytest.raises(T.NonFiniteError, match="^mul vjp produced"):
            node.vjp(nan_like(node.value))

    def test_add(self):
        _, node = tape_op(ad.add, np.ones((2, 4, 3)), np.ones(3))
        with pytest.raises(T.NonFiniteError, match="^add vjp produced"):
            node.vjp(nan_like(node.value))

    def test_sub(self):
        _, node = tape_op(ad.sub, np.ones((2, 4, 3)), np.ones(3))
        with pytest.raises(T.NonFiniteError, match="^sub vjp produced"):
            node.vjp(nan_like(node.value))

    def test_mul(self):
        _, node = tape_op(ad.mul, np.ones((2, 4, 3)), np.ones(3))
        with pytest.raises(T.NonFiniteError, match="^mul vjp produced"):
            node.vjp(nan_like(node.value))

    def test_scale(self):
        _, node = tape_op(lambda x: ad.scale(x, 0.5), np.ones((4, 6)))
        with pytest.raises(T.NonFiniteError, match="^scale vjp produced"):
            node.vjp(nan_like(node.value))

    def test_sub_scaled(self):
        with pytest.raises(T.NonFiniteError, match="^sub_scaled produced"):
            tape_op(lambda w, g: ad.sub_scaled(w, g, 0.5), poisoned((4, 6)), np.ones((4, 6)))
        _, node = tape_op(lambda w, g: ad.sub_scaled(w, g, 0.5), np.ones((4, 6)),
                          np.ones((2, 4, 6)))
        with pytest.raises(T.NonFiniteError, match="^sub_scaled vjp produced"):
            node.vjp(nan_like(node.value))

    def test_mul_silu_prime(self):
        # at +inf the sigmoid is a finite 1 but x (1 - s) is inf * 0
        x = np.ones((4, 6))
        x[1, 2] = np.inf
        with np.errstate(invalid="ignore"), \
                pytest.raises(T.NonFiniteError, match="^mul_silu_prime produced"):
            tape_op(ad.mul_silu_prime, np.ones((4, 6)), x)
        _, node = tape_op(ad.mul_silu_prime, np.ones((4, 6)), np.ones((4, 6)))
        with pytest.raises(T.NonFiniteError, match="^mul_silu_prime vjp produced"):
            node.vjp(nan_like(node.value))

    @pytest.mark.parametrize("side", [0, 1])
    def test_matmul_t(self, side):
        with pytest.raises(T.NonFiniteError, match="^matmul_t produced"):
            value_op(lambda a, b: ad.matmul_t(a, b, side), poisoned((2, 4, 3)), np.ones((2, 4, 3)))
        _, node = tape_op(lambda a, b: ad.matmul_t(a, b, side), np.ones((2, 4, 3)),
                          np.ones((2, 4, 3)))
        with pytest.raises(T.NonFiniteError, match="^matmul_t vjp produced"):
            node.vjp(nan_like(node.value))

    def test_sqrt(self):
        _, node = tape_op(ad.sqrt_, np.ones((4, 6)))
        with pytest.raises(T.NonFiniteError, match="^sqrt vjp produced"):
            node.vjp(nan_like(node.value))

    @pytest.mark.parametrize("op", ["sum_all", "sum_last2", "mean_tokens"])
    def test_reduction(self, op):
        with pytest.raises(T.NonFiniteError, match=f"^{op} produced"):
            tape_op(getattr(ad, op), poisoned((2, 4, 3)))

    @pytest.mark.parametrize("op", ["sum_all", "sum_last2", "mean_tokens"])
    def test_reduction_vjp(self, op):
        _, node = tape_op(getattr(ad, op), np.ones((2, 4, 3)))
        with pytest.raises(T.NonFiniteError, match=f"^{op} vjp produced"):
            node.vjp(nan_like(node.value))

    @pytest.mark.parametrize("op", sorted(LAYOUT_OPS))
    def test_layout(self, op):
        with pytest.raises(T.NonFiniteError, match=f"^{op} produced"):
            tape_op(LAYOUT_OPS[op], poisoned((2, 4, 3)))

    @pytest.mark.parametrize("op", sorted(LAYOUT_OPS))
    def test_layout_vjp(self, op):
        _, node = tape_op(LAYOUT_OPS[op], np.ones((2, 4, 3)))
        with pytest.raises(T.NonFiniteError, match=f"^{op} vjp produced"):
            node.vjp(nan_like(node.value))

    def test_sign(self):
        with pytest.raises(T.NonFiniteError, match="^sign produced"):
            tape_op(ad.sign, poisoned((4, 6)))

    @pytest.mark.parametrize("kshape", [(3, 3, 2), (2, 3, 3, 2)])
    def test_dwconv3x3(self, kshape):
        _, node = tape_op(ad.dwconv3x3, np.ones((2, 3, 3, 2)), np.ones(kshape))
        with pytest.raises(T.NonFiniteError, match="^dwconv3x3 vjp produced"):
            node.vjp(nan_like(node.value))

    def test_patches(self):
        # named by the tape op, not by the kernels that compute it (patches, unpatch)
        with pytest.raises(T.NonFiniteError, match="^patches produced"):
            tape_op(ad.patches, poisoned((2, 3, 3, 2)))
        _, node = tape_op(ad.patches, np.ones((2, 3, 3, 2)))
        with pytest.raises(T.NonFiniteError, match="^patches vjp produced"):
            node.vjp(nan_like(node.value))

    @pytest.mark.parametrize("kshape", [(3, 3, 2, 2), (2, 3, 3, 2, 2)])
    def test_conv3x3(self, kshape):
        # the conv3x3 head is patches then matmul; each vjp names its own fault
        head = get_arch("conv3x3")
        _, node = tape_op(lambda x, k: head.forward([k], x, (3, 3)), np.ones((2, 9, 2)),
                          np.ones(kshape))
        cols = node.inputs[0]
        assert (node.op, cols.op) == ("matmul", "patches")
        with pytest.raises(T.NonFiniteError, match="^matmul vjp produced"):
            node.vjp(nan_like(node.value))
        with pytest.raises(T.NonFiniteError, match="^patches vjp produced"):
            cols.vjp(nan_like(cols.value))

    @pytest.mark.parametrize("op", ["dwconv3x3_wgrad"])
    def test_wgrad_ops(self, op):
        _, node = tape_op(getattr(ad, op), np.ones((2, 3, 3, 2)), np.ones((2, 3, 3, 2)))
        with pytest.raises(T.NonFiniteError, match=f"^{op} vjp produced"):
            node.vjp(nan_like(node.value))


class TestDebugReadWhenRecorded:
    def test_off_keeps_the_ops_own_vjp(self):
        _, node = tape_op(ad.mul, np.ones((2, 4, 3)), np.ones(3))
        assert node.vjp.__qualname__ == "mul.<locals>.vjp"

    def test_switched_on_after_recording_checks_nothing(self, debug):
        T.set_debug(False)
        _, node = tape_op(ad.mul, np.ones((2, 4, 3)), np.ones(3))
        T.set_debug(True)
        da, db = node.vjp(nan_like(node.value))
        assert np.isnan(da).all() and np.isnan(db).all()


def _cifar_step():
    # the dwconv head's wider context pads its mini-batch cotangents back (pad_rows)
    cfg = ModelConfig(image_size=8, patch_size=4, dim=8, heads=2, depth=1,
                      head_archs=("dwconv3x3", "gated_fc"), inner=InnerTrainConfig(parts=2))
    model = Model(cfg, np.random.default_rng(0))
    images = np.random.default_rng(1).random((2, 8, 8, 3)).astype(np.float32)
    return lambda: model.loss_and_grads(images, np.array([1, 7]))


def _recall_step():
    rc = RunConfig(dim=8, heads=2, recall_seq=5, recall_width=4, recall_keys=6)
    task = D.synth_recall_task(0, 4, rc.recall_seq, rc.recall_width, n_keys=rc.recall_keys)
    model = RecallModel(rc, task.n_classes, np.random.default_rng(2))
    return lambda: model.loss_and_grads(task.tokens, task.labels)


# one inner step: the traced forward, the walk and the fixed-rate update
WALK_OPS = {"matmul_t", "matmul", "mul", "mul_silu_prime", "sub_scaled"}


class TestDebugOnFiniteStep:
    @pytest.mark.parametrize("make, ops", [
        (_cifar_step, WALK_OPS | {"rows", "pad_rows", "reshape", "dwconv3x3_wgrad"}),
        (_recall_step, WALK_OPS),
    ])
    def test_checks_change_nothing(self, debug, monkeypatch, make, ops):
        step = make()
        T.set_debug(False)
        loss, grads, _ = step()
        recorded, push = set(), Tape.push

        def spy(tape, value, inputs, vjp, op):
            recorded.add(op)
            return push(tape, value, inputs, vjp, op)
        monkeypatch.setattr(Tape, "push", spy)
        T.set_debug(True)
        checked_loss, checked_grads, _ = step()
        assert ops <= recorded
        assert np.array_equal(checked_loss, loss) and checked_grads.keys() == grads.keys()
        for name in grads:
            assert np.array_equal(checked_grads[name], grads[name]), name
