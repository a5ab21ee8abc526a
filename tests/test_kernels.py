"""The fast tape kernels against the straightforward formulas they replace.

Each reference below is the plain numpy formula: the broadcast matmul with
its cotangents summed back by `_unbroadcast`, matmul followed by a bias add,
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
from tttlab import tensor as T
from tttlab.autodiff import Tape, _unbroadcast

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

    def test_linear_rejects_bad_operands(self):
        with pytest.raises(T.DimensionError):
            T.linear(np.ones((4, 5)), np.ones((2, 5, 3)), np.zeros(3))
        with pytest.raises(T.DimensionError):
            T.linear(np.ones((4, 5)), np.ones((5, 3)), np.zeros(4))
        with pytest.raises(T.DimensionError):
            T.linear(np.ones((4, 5)), np.ones((4, 3)), np.zeros(3))


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
        assert np.array_equal(T.silu(x), x * s)
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
        cols = T._patches(x)
        assert np.array_equal(cols, ref_patches(x))
        assert cols.flags.c_contiguous and not np.shares_memory(cols, x)


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
              "transpose": ad.transpose,
              "rows": lambda x: ad.rows(x, 1, 3),
              "pad_rows": lambda x: ad.pad_rows(x, 6, 1, 5),
              "concat_last": lambda x: ad.concat_last([x, x])}


@pytest.mark.usefixtures("debug")
class TestDebugCoverage:
    def test_tensor_matmul(self):
        with pytest.raises(T.NonFiniteError, match="^matmul produced"):
            T.matmul(poisoned((2, 4, 3)), np.ones((3, 5)))

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
            T.silu(poisoned((4, 6)))
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
        with pytest.raises(T.NonFiniteError, match="^dwconv3x3_wgrad produced"):
            T.dwconv3x3_wgrad(poisoned((2, 3, 3, 2)), np.ones((2, 3, 3, 2)), per_sample)

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

    def test_huber(self):
        with pytest.raises(T.NonFiniteError, match="^huber produced"):
            tape_op(ad.huber, poisoned((4, 6)))
        _, node = tape_op(ad.huber, np.ones((4, 6)))
        with pytest.raises(T.NonFiniteError, match="^huber vjp produced"):
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
            tape_op(lambda x: ad.cross_entropy(x, labels), poisoned((4, 6)))
        _, node = tape_op(lambda x: ad.cross_entropy(x, labels), np.ones((4, 6)))
        with pytest.raises(T.NonFiniteError, match="^cross_entropy vjp produced"):
            node.vjp(nan_like(node.value))

    def test_colscale(self):
        with pytest.raises(T.NonFiniteError, match="^colscale produced"):
            tape_op(ad.colscale, poisoned((2, 4, 3)), np.ones((2, 4)))
        _, node = tape_op(ad.colscale, np.ones((2, 4, 3)), np.ones((2, 4)))
        with pytest.raises(T.NonFiniteError, match="^colscale vjp produced"):
            node.vjp(nan_like(node.value))

    def test_matscale(self):
        with pytest.raises(T.NonFiniteError, match="^matscale produced"):
            tape_op(ad.matscale, poisoned((2, 4, 3)), np.ones(2))
        _, node = tape_op(ad.matscale, np.ones((2, 4, 3)), np.ones(2))
        with pytest.raises(T.NonFiniteError, match="^matscale vjp produced"):
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

    def test_silu_prime(self):
        # at +inf the sigmoid is a finite 1 but x (1 - s) is inf * 0
        x = np.ones((4, 6))
        x[1, 2] = np.inf
        with np.errstate(invalid="ignore"), \
                pytest.raises(T.NonFiniteError, match="^silu_prime produced"):
            tape_op(ad.silu_prime, x)
        _, node = tape_op(ad.silu_prime, np.ones((4, 6)))
        with pytest.raises(T.NonFiniteError, match="^silu_prime vjp produced"):
            node.vjp(nan_like(node.value))

    def test_sqrt(self):
        _, node = tape_op(ad.sqrt_, np.ones((4, 6)))
        with pytest.raises(T.NonFiniteError, match="^sqrt vjp produced"):
            node.vjp(nan_like(node.value))

    def test_abs(self):
        with pytest.raises(T.NonFiniteError, match="^abs produced"):
            tape_op(ad.abs_, poisoned((4, 6)))
        _, node = tape_op(ad.abs_, np.ones((4, 6)))
        with pytest.raises(T.NonFiniteError, match="^abs vjp produced"):
            node.vjp(nan_like(node.value))

    @pytest.mark.parametrize("op", ["sum_all", "sum_last", "sum_last2", "mean_tokens"])
    def test_reduction(self, op):
        with pytest.raises(T.NonFiniteError, match=f"^{op} produced"):
            tape_op(getattr(ad, op), poisoned((2, 4, 3)))

    @pytest.mark.parametrize("op", ["sum_all", "sum_last", "sum_last2", "mean_tokens"])
    def test_reduction_vjp(self, op):
        _, node = tape_op(getattr(ad, op), np.ones((2, 4, 3)))
        with pytest.raises(T.NonFiniteError, match=f"^{op} vjp produced"):
            node.vjp(nan_like(node.value))

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

    @pytest.mark.parametrize("kshape", [(3, 3, 2, 4), (2, 3, 3, 2, 4)])
    def test_conv3x3(self, kshape):
        _, node = tape_op(ad.conv3x3, np.ones((2, 3, 3, 2)), np.ones(kshape))
        with pytest.raises(T.NonFiniteError, match="^conv3x3 vjp produced"):
            node.vjp(nan_like(node.value))

    @pytest.mark.parametrize("op", ["dwconv3x3_wgrad", "conv3x3_wgrad"])
    def test_wgrad_ops(self, op):
        _, node = tape_op(getattr(ad, op), np.ones((2, 3, 3, 2)), np.ones((2, 3, 3, 2)))
        with pytest.raises(T.NonFiniteError, match=f"^{op} vjp produced"):
            node.vjp(nan_like(node.value))
