import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tttlab import tensor as T


def naive_matmul(a, b):
    m, k = a.shape
    k2, n = b.shape
    out = np.zeros((m, n), dtype=a.dtype)
    for i in range(m):
        for j in range(n):
            acc = 0.0
            for t in range(k):
                acc += a[i, t] * b[t, j]
            out[i, j] = acc
    return out


def naive_conv3x3(x, k, depthwise):
    h, w, c = x.shape
    out = np.zeros_like(x) if depthwise else np.zeros((h, w, k.shape[-1]))
    for i in range(h):
        for j in range(w):
            for u in range(3):
                for v in range(3):
                    ii, jj = i + u - 1, j + v - 1
                    if not (0 <= ii < h and 0 <= jj < w):
                        continue
                    if depthwise:
                        out[i, j] += k[u, v] * x[ii, jj]
                    else:
                        out[i, j] += x[ii, jj] @ k[u, v]
    return out


class TestMatmul:
    def test_hand_product(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        b = np.array([[5.0, 6.0], [7.0, 8.0]])
        assert np.array_equal(T.matmul(a, b), [[19.0, 22.0], [43.0, 50.0]])

    def test_identity(self):
        a = np.random.default_rng(0).standard_normal((4, 4))
        assert np.allclose(T.matmul(a, np.eye(4)), a, atol=0)

    def test_against_triple_loop(self):
        rng = np.random.default_rng(1)
        a, b = rng.standard_normal((7, 5)), rng.standard_normal((5, 3))
        assert np.abs(T.matmul(a, b) - naive_matmul(a, b)).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(T.DimensionError):
            T.matmul(np.zeros((2, 3)), np.zeros((4, 2)))


class TestConv3x3:
    def test_ones_grid_corner(self):
        x = np.ones((2, 2, 1))
        k = np.ones((3, 3, 1))
        # with one channel the depthwise and the full conv coincide; every
        # output cell sees all four ones with zero padding
        assert np.allclose(T.dwconv3x3(x, k), 4.0)
        assert np.allclose(T.conv3x3_full(x, k[..., None]), 4.0)

    def test_delta_kernel_identity(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((4, 5, 3))
        k = np.zeros((3, 3, 3))
        k[1, 1, :] = 1.0
        assert np.allclose(T.dwconv3x3(x, k), x, atol=0)

    def test_depthwise_against_sliding_window(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((5, 5, 3))
        k = rng.standard_normal((3, 3, 3))
        assert np.abs(T.dwconv3x3(x, k) - naive_conv3x3(x, k, True)).max() < 1e-12

    def test_full_against_sliding_window(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((5, 5, 3))
        k = rng.standard_normal((3, 3, 3, 2))
        assert np.abs(T.conv3x3_full(x, k) - naive_conv3x3(x, k, False)).max() < 1e-12

    def test_non_grid_input(self):
        with pytest.raises(T.GridError):
            T.dwconv3x3(np.zeros((6, 3)), np.zeros((3, 3, 3)))
        with pytest.raises(T.GridError):
            T.conv3x3_full(np.zeros((6, 3)), np.zeros((3, 3, 3, 3)))

    def test_per_sample_kernels_match_loop(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((2, 4, 4, 3))
        k = rng.standard_normal((2, 3, 3, 3))
        out = T.dwconv3x3(x, k)
        for b in range(2):
            assert np.allclose(out[b], T.dwconv3x3(x[b], k[b]), atol=1e-14)


class TestSoftmaxRows:
    def test_symmetry(self):
        assert np.allclose(T.softmax_rows(np.array([[0.0, 0.0]])), [[0.5, 0.5]], atol=0)

    def test_saturation_stability(self):
        out = T.softmax_rows(np.array([[1000.0, 0.0]]))
        assert np.abs(out - [[1.0, 0.0]]).max() < 1e-12

    def test_direct_formula(self):
        row = np.array([[1.0, 2.0, 3.0]])
        e = np.exp(row - 3.0)
        assert np.abs(T.softmax_rows(row) - e / e.sum()).max() < 1e-12

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_rows_sum_to_one(self, m, n, seed):
        x = np.random.default_rng(seed).uniform(-30, 30, (m, n))
        assert np.abs(T.softmax_rows(x).sum(axis=-1) - 1.0).max() < 1e-12


class TestElementwise:
    def test_silu_fixed_point(self):
        assert T.silu(np.array([0.0]))[0] == 0.0

    def test_silu_at_one(self):
        assert abs(T.silu(np.array([1.0]))[0] - 1 / (1 + np.exp(-1))) < 1e-12

    def test_sigmoid_symmetry(self):
        assert T.sigmoid(np.array([0.0]))[0] == 0.5

    def test_silu_prime_matches_difference_quotient(self):
        x = np.linspace(-3, 3, 11)
        eps = 1e-6
        num = (T.silu(x + eps) - T.silu(x - eps)) / (2 * eps)
        assert np.abs(T.silu_prime(x) - num).max() < 1e-8

    def test_silu_second_matches_difference_quotient(self):
        x = np.linspace(-3, 3, 11)
        eps = 1e-5
        num = (T.silu_prime(x + eps) - T.silu_prime(x - eps)) / (2 * eps)
        assert np.abs(T.silu_second(x) - num).max() < 1e-7

    def test_incompatible_shapes(self):
        with pytest.raises(T.DimensionError):
            T.add(np.zeros((2, 3)), np.zeros((4, 5)))

    def test_scalar_broadcast(self):
        assert np.array_equal(T.mul(np.ones((2, 2)), np.array(3.0)), np.full((2, 2), 3.0))


class TestDebugMode:
    def test_non_finite_raises_in_debug(self):
        T.set_debug(True)
        try:
            with pytest.raises(T.NonFiniteError), np.errstate(over="ignore"):
                T.scale(np.array([1e308]), 1e308)
        finally:
            T.set_debug(False)

    def test_non_finite_passes_when_off(self):
        with np.errstate(over="ignore"):
            out = T.scale(np.array([1e308]), 1e308)
        assert np.isinf(out[0])


class TestSerialization:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for dtype in (np.float32, np.float64):
            arr = rng.standard_normal((3, 4, 2)).astype(dtype)
            buf = io.BytesIO()
            offset = T.write_tensor(buf, arr)
            assert offset == 0
            buf.seek(0)
            back = T.read_tensor(buf)
            assert back.dtype == np.dtype(dtype)
            assert np.array_equal(back, arr)

    def test_magic_bytes(self):
        buf = io.BytesIO()
        T.write_tensor(buf, np.zeros(2, dtype=np.float32))
        assert buf.getvalue()[:4] == b"TTT1"

    def test_bad_magic(self):
        with pytest.raises(ValueError):
            T.read_tensor(io.BytesIO(b"NOPE" + b"\x00" * 16))

    @given(st.lists(st.integers(1, 5), min_size=0, max_size=4),
           st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_shapes(self, shape, seed):
        arr = np.random.default_rng(seed).standard_normal(shape)
        buf = io.BytesIO()
        T.write_tensor(buf, arr)
        buf.seek(0)
        assert np.array_equal(T.read_tensor(buf), arr)


class TestFlopCounter:
    def test_matmul_count(self):
        with T.count_flops() as fc:
            T.matmul(np.zeros((3, 4)), np.zeros((4, 5)))
        assert fc.total == 2 * 3 * 5 * 4

    def test_nested_counters_are_independent(self):
        with T.count_flops() as outer:
            T.scale(np.zeros(7), 2.0)
            with T.count_flops() as innermost:
                T.scale(np.zeros(3), 2.0)
        assert innermost.total == 3
        assert outer.total == 7
