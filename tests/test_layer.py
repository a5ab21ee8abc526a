import numpy as np
import pytest

from tttlab import tensor as T
from tttlab.autodiff import Tape
from tttlab.inner import InnerTrainConfig
from tttlab.layer import (NormalizationError, TTTLayerParams,
                          attention_mlp_oracle, elu_plus_one, linear_attention,
                          softmax_attention, ttt_attention,
                          ttt_attention_nodes)

RNG = np.random.default_rng(31)


def eq1_double_loop(q, k, v):
    """Direct per-token softmax attention: O_i = sum_j softmax(Q_i K^T)_j V_j."""
    n = q.shape[0]
    out = np.zeros_like(v)
    for i in range(n):
        scores = np.array([q[i] @ k[j] for j in range(n)])
        scores -= scores.max()
        w = np.exp(scores)
        w /= w.sum()
        for j in range(n):
            out[i] += w[j] * v[j]
    return out


def make_params(dim=16, heads=2, archs=None, seed=0):
    archs = archs or ("fc",) * heads
    return TTTLayerParams.create(np.random.default_rng(seed), dim, heads, archs)


class TestSoftmaxAttention:
    def test_single_token_returns_value(self):
        p = make_params(heads=1)
        x = RNG.standard_normal((1, 16))
        out = softmax_attention(x, p)
        assert np.allclose(out, (x @ p.wv[0]) @ p.w_o, atol=1e-14)

    def test_identical_keys_average_values(self):
        p = make_params(heads=1)
        x = RNG.standard_normal((5, 16))
        k = np.tile(RNG.standard_normal(16), (5, 1))
        q = x @ p.wq[0]
        v = x @ p.wv[0]
        out = attention_mlp_oracle(q, k, v)
        assert np.abs(out - v.mean(axis=0)).max() < 1e-12

    def test_matches_double_loop_oracle(self):
        p = make_params(heads=1, dim=8)
        x = RNG.standard_normal((6, 8))
        q, k, v = x @ p.wq[0], x @ p.wk[0], x @ p.wv[0]
        assert np.abs(attention_mlp_oracle(q, k, v) - eq1_double_loop(q, k, v)).max() < 1e-12

    def test_equals_mlp_oracle_bitwise(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            q = rng.standard_normal((7, 5))
            k = rng.standard_normal((7, 5))
            v = rng.standard_normal((7, 5))
            direct = T.matmul(T.softmax_rows(T.matmul(q, T.transpose(k))), v)
            assert np.array_equal(direct, attention_mlp_oracle(q, k, v))

    def test_near_one_hot_saturation(self):
        # orthonormal keys scaled by tau=20 make softmax rows one-hot
        rng = np.random.default_rng(7)
        d = 8
        qmat, _ = np.linalg.qr(rng.standard_normal((d, d)))
        k = 20.0 * qmat
        v = rng.standard_normal((d, d))
        out = attention_mlp_oracle(k, k, v)
        assert np.abs(out - v).max() < 1e-6

    def test_zero_keys_uniform_weights(self):
        rng = np.random.default_rng(8)
        q = rng.standard_normal((5, 4))
        v = rng.standard_normal((5, 4))
        out = attention_mlp_oracle(q, np.zeros((5, 4)), v)
        assert np.abs(out - v.mean(axis=0)).max() < 1e-12


class TestLinearAttention:
    def test_single_token_identity_kernel(self):
        p = make_params(heads=1)
        x = np.abs(RNG.standard_normal((1, 16)))
        out = linear_attention(x, p, phi=lambda z: np.abs(z) + 0.5)
        assert np.allclose(out, (x @ p.wv[0]) @ p.w_o, atol=1e-12)

    def test_linear_time_form_equals_quadratic(self):
        p = make_params(heads=2)
        x = RNG.standard_normal((9, 16))
        fast = linear_attention(x, p)
        outs = []
        for h in range(2):
            qf = elu_plus_one(x @ p.wq[h])
            kf = elu_plus_one(x @ p.wk[h])
            v = x @ p.wv[h]
            a = qf @ kf.T                       # the O(N^2) route
            outs.append((a @ v) / (a @ np.ones(9))[:, None])
        slow = np.concatenate(outs, axis=-1) @ p.w_o
        assert np.abs(fast - slow).max() < 1e-10

    def test_constant_values(self):
        p = make_params(heads=1)
        x = RNG.standard_normal((6, 16))
        vrow = RNG.standard_normal(16)
        xv = np.linalg.lstsq(p.wv[0].T, vrow, rcond=None)[0]
        x = np.tile(xv, (6, 1)) * 0 + x
        # force V rows constant by replacing the projection outputs via rank trick:
        # project x so that x @ wv is constant
        p.wv[0] = np.zeros_like(p.wv[0])
        out = linear_attention(x, p)
        assert np.abs(out - out[0]).max() < 1e-12

    def test_denominator_guard(self):
        p = make_params(heads=1)
        x = RNG.standard_normal((4, 16))
        with pytest.raises(NormalizationError):
            linear_attention(x, p, phi=lambda z: np.zeros_like(z))

    def test_kernel_nonnegative(self):
        z = RNG.standard_normal(100) * 5
        assert elu_plus_one(z).min() > 0


class TestTTTAttention:
    def test_fc_zero_init_equals_compressed_linear_attention(self):
        dim, heads, n = 16, 2, 12
        p = make_params(dim, heads)
        d = dim // heads
        for h in range(heads):
            p.inner[h].weights = [np.zeros((d, d))]
        x = RNG.standard_normal((n, dim))
        eta = 0.7
        out = ttt_attention(x, p, InnerTrainConfig(loss="mse", lr=eta))
        parts = []
        for h in range(heads):
            q, k, v = x @ p.wq[h], x @ p.wk[h], x @ p.wv[h]
            parts.append(eta / (n * np.sqrt(d)) * q @ (k.T @ v))
        ref = np.concatenate(parts, axis=-1) @ p.w_o
        assert np.abs(out - ref).max() < 1e-8

    def test_zero_rate_applies_initial_model(self):
        p = make_params(16, 2, archs=("gated_fc", "gated_fc"), seed=3)
        x = RNG.standard_normal((6, 16))
        out = ttt_attention(x, p, InnerTrainConfig(loss="mse", lr=0.0))
        # K and V are irrelevant at eta=0: permuting other tokens leaves each row alone
        from tttlab.inner import inner_forward
        parts = []
        for h in range(2):
            q = x @ p.wq[h]
            parts.append(inner_forward(p.inner[h], q))
        ref = np.concatenate(parts, axis=-1) @ p.w_o
        assert np.abs(out - ref).max() < 1e-12

    def test_output_row_invariant_to_other_tokens_permutation(self):
        p = make_params(16, 2, archs=("mlp_r1_l2", "gated_fc"), seed=4)
        x = RNG.standard_normal((8, 16))
        cfg = InnerTrainConfig(loss="mse")
        base = ttt_attention(x, p, cfg)
        perm = np.concatenate([[0], 1 + np.random.default_rng(5).permutation(7)])
        out = ttt_attention(x[perm], p, cfg)
        assert np.abs(out[0] - base[0]).max() < 1e-12

    def test_conv_head_needs_grid(self):
        p = make_params(16, 2, archs=("dwconv3x3", "gated_fc"), seed=5)
        x = RNG.standard_normal((9, 16))
        with pytest.raises(T.GridError):
            ttt_attention(x, p, InnerTrainConfig(loss="dot"), grid=None)
        for grid in ((2, 4), (4, 3)):
            for parts in (1, 2, 4):
                with pytest.raises(T.GridError):
                    ttt_attention(x, p, InnerTrainConfig(loss="dot", parts=parts), grid=grid)
        out = ttt_attention(x, p, InnerTrainConfig(loss="dot"), grid=(3, 3))
        assert out.shape == (9, 16)

    def test_batched_matches_per_sequence(self):
        p = make_params(16, 2, archs=("dwconv3x3", "gated_fc"), seed=6)
        xb = RNG.standard_normal((3, 9, 16))
        cfg = InnerTrainConfig(loss="dot", epochs=2, parts=2)
        tape = Tape()
        leaves = {k: tape.leaf(v, name=k, param=True)
                  for k, v in p.named_arrays().items()}
        batched = ttt_attention_nodes(tape.leaf(xb), leaves, p, cfg, (3, 3)).value
        for b in range(3):
            single = ttt_attention(xb[b], p, cfg, grid=(3, 3))
            assert np.abs(batched[b] - single).max() < 1e-12

    def test_divergence_sentinel_propagates(self):
        from tttlab.inner import DivergenceError
        p = make_params(8, 1, archs=("fc",), seed=7)
        x = RNG.standard_normal((6, 8)) * 100
        cfg = InnerTrainConfig(loss="mse", epochs=150, lr=80.0)
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError):
            ttt_attention(x, p, cfg)
        # the error names the head by its parameter prefix, the epoch and the part
        tape = Tape()
        leaves = {k: tape.leaf(v, name=k, param=True)
                  for k, v in p.named_arrays("b2.ttt.").items()}
        with np.errstate(over="ignore", invalid="ignore"), \
                pytest.raises(DivergenceError,
                              match=r"^b2\.ttt\.h0: fc inner weights diverged at "
                                    r"epoch \d+/150, part 1/1"):
            ttt_attention_nodes(tape.leaf(x), leaves, p, cfg, prefix="b2.ttt.")

    def test_normalize_qk_knob(self):
        p = make_params(16, 2, seed=8)
        p.normalize_qk = True
        x = RNG.standard_normal((6, 16))
        out = ttt_attention(x, p, InnerTrainConfig(loss="mse"))
        assert out.shape == (6, 16) and np.isfinite(out).all()


class TestOracleChain:
    def test_three_way_chain(self):
        """softmax == mlp view (exact); linear O(N) == quadratic; ttt == scaled QK^TV."""
        p = make_params(8, 1, seed=9)
        x = RNG.standard_normal((7, 8))
        q, k, v = x @ p.wq[0], x @ p.wk[0], x @ p.wv[0]
        assert np.array_equal(
            T.matmul(T.softmax_rows(T.matmul(q, T.transpose(k))), v),
            attention_mlp_oracle(q, k, v))
        fast = linear_attention(x, p)
        a = elu_plus_one(q) @ elu_plus_one(k).T
        slow = ((a @ v) / (a @ np.ones(7))[:, None]) @ p.w_o
        assert np.abs(fast - slow).max() < 1e-10
        p.inner[0].weights = [np.zeros((8, 8))]
        got = ttt_attention(x, p, InnerTrainConfig(loss="mse", lr=1.0))
        want = (q @ (k.T @ v) / (7 * np.sqrt(8))) @ p.w_o
        assert np.abs(got - want).max() < 1e-8
