import math
import os

import numpy as np
import pytest

from tttlab import autodiff as ad
from tttlab import model as model_mod
from tttlab import tensor as T
from tttlab.autodiff import Tape, gradcheck
from tttlab.data import CIFAR_CLASSES
from tttlab.inner import ARCH_NAMES, LOSSES, InnerTrainConfig
from tttlab.layer import TTTLayerParams, softmax_attention, ttt_attention
from tttlab.model import (Model, ModelConfig, OptState, adamw_step,
                          cosine_warmup_lr, flops_estimate, forward_classifier,
                          load_checkpoint, save_checkpoint, ttt_block_nodes,
                          ttt_layer_flops, unfold_patches)

RNG = np.random.default_rng(41)


def fold_patches(tokens, p, hw):
    """Inverse of unfold_patches."""
    h, w = hw
    b = tokens.shape[0]
    c = tokens.shape[-1] // (p * p)
    x = tokens.reshape(b, h // p, w // p, p, p, c)
    x = x.transpose(0, 1, 3, 2, 4, 5)
    return np.ascontiguousarray(x).reshape(b, h, w, c)


def patch_embed(image, p, w, b):
    """Flatten non-overlapping patches of one [H, W, 3] image and project to [N, C]."""
    return unfold_patches(image[None], p)[0] @ w + b


def silu(z):
    return z / (1.0 + np.exp(-z))


class TestPatchEmbed:
    def test_token_count(self):
        img = RNG.random((32, 32, 3))
        w = RNG.standard_normal((4 * 4 * 3, 8))
        out = patch_embed(img, 4, w, np.zeros(8))
        assert out.shape == (64, 8)

    def test_constant_image_identical_tokens(self):
        img = np.full((32, 32, 3), 0.25)
        w = RNG.standard_normal((48, 8))
        out = patch_embed(img, 4, w, np.zeros(8))
        assert np.abs(out - out[0]).max() == 0.0

    def test_unfold_fold_reconstruction(self):
        imgs = RNG.random((2, 32, 32, 3))
        tok = unfold_patches(imgs, 4)
        back = fold_patches(tok, 4, (32, 32))
        assert np.array_equal(back, imgs)

    def test_indivisible_dims_rejected(self):
        with pytest.raises(T.DimensionError):
            unfold_patches(RNG.random((1, 30, 30, 3)), 4)

    def test_config_dim_must_divide_into_heads(self):
        with pytest.raises(T.DimensionError, match="^dim 10 not divisible by heads 4$"):
            ModelConfig(dim=10, heads=4)

    def test_class_count_and_mlp_width_are_constants(self):
        assert ModelConfig().num_classes == CIFAR_CLASSES == 10
        model = Model(ModelConfig(dim=16, heads=2, depth=1), np.random.default_rng(0))
        assert model.params["b0.mlp.w1"].shape == (16, 64)
        assert model.params["head.w"].shape == (16, CIFAR_CLASSES)
        for name in ("num_classes", "mlp_ratio"):
            with pytest.raises(TypeError):
                ModelConfig(**{name: 4})


class TestBlock:
    def test_output_shape(self):
        cfg = ModelConfig()
        model = Model(cfg, np.random.default_rng(0))
        x = RNG.random((2, 32, 32, 3)).astype(np.float32)
        assert forward_classifier(model, x).shape == (2, 10)

    def test_zeroed_output_projections_reduce_to_cpe(self):
        cfg = ModelConfig(image_size=16, patch_size=4, dim=8, heads=2, depth=1,
                          head_archs=("gated_fc", "gated_fc"))
        model = Model(cfg, np.random.default_rng(1), dtype=np.float64)
        for i in range(cfg.depth):
            model.params[f"b{i}.ttt.wo"][:] = 0.0
            model.params[f"b{i}.mlp.w2"][:] = 0.0
            model.params[f"b{i}.mlp.b2"][:] = 0.0
        tape = Tape()
        leaves = model._leaves(tape)
        x0 = RNG.standard_normal((2, 16, 8))
        x = tape.leaf(x0)
        out = ttt_block_nodes(x, leaves, model.layers[0], cfg, prefix="b0.")
        cpe = T.dwconv3x3(x0.reshape(2, 4, 4, 8), model.params["b0.cpe"]).reshape(2, 16, 8)
        assert np.abs(out.value - (x0 + cpe)).max() < 1e-12

    def test_block_gradcheck(self):
        # one dwconv head + three gated heads, dim 8, 4x4 grid
        cfg = ModelConfig(image_size=16, patch_size=4, dim=8, heads=4, depth=1)
        assert cfg.head_archs == ("dwconv3x3",) + ("gated_fc",) * 3
        model = Model(cfg, np.random.default_rng(2), dtype=np.float64)
        x0 = np.random.default_rng(3).standard_normal((1, 16, 8))

        def f(p, tape):
            leaves = {k: tape.leaf(v, name=k, param=True) for k, v in p.items()}
            out = ttt_block_nodes(tape.leaf(x0), leaves, model.layers[0], cfg,
                                  prefix="b0.")
            return ad.sum_all(ad.mul(out, out))

        err = gradcheck(f, dict(model.params))
        assert err < 1e-4

    def test_deterministic_batch_rows(self):
        cfg = ModelConfig(depth=2)
        model = Model(cfg, np.random.default_rng(4))
        img = RNG.random((1, 32, 32, 3)).astype(np.float32)
        batch = np.concatenate([img, img])
        logits = forward_classifier(model, batch)
        assert np.array_equal(logits[0], logits[1])

    def test_single_block_manual_composition(self):
        cfg = ModelConfig(image_size=32, patch_size=4, dim=8, heads=1, depth=1,
                          head_archs=("gated_fc",))
        model = Model(cfg, np.random.default_rng(5), dtype=np.float64)
        img = RNG.random((1, 32, 32, 3))
        got = forward_classifier(model, img)[0]

        p = model.params
        lay = model.layers[0]

        def ln(v, g, b):
            mu = v.mean(-1, keepdims=True)
            sd = np.sqrt(v.var(-1, keepdims=True) + 1e-5)
            return (v - mu) / sd * g + b

        x = patch_embed(img[0], 4, p["patch.w"], p["patch.b"])
        x = x + T.dwconv3x3(x.reshape(8, 8, 8), p["b0.cpe"]).reshape(64, 8)
        x = x + ttt_attention(ln(x, p["b0.ln1.g"], p["b0.ln1.b"]), lay, cfg.inner,
                              grid=(8, 8))
        h = ln(x, p["b0.ln2.g"], p["b0.ln2.b"])
        x = x + silu(h @ p["b0.mlp.w1"] + p["b0.mlp.b1"]) @ p["b0.mlp.w2"] + p["b0.mlp.b2"]
        want = x.mean(axis=0) @ p["head.w"] + p["head.b"]
        assert np.abs(got - want).max() < 1e-10


class TestAdamW:
    def test_zero_grads_no_decay_fixed_point(self):
        params = {"w": np.ones((2, 2))}
        state = OptState.for_params(params)
        adamw_step(params, {"w": np.zeros((2, 2))}, state, lr=0.1)
        assert np.array_equal(params["w"], np.ones((2, 2)))

    def test_hand_recurrence_three_steps(self):
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        grads = [0.5, -0.3, 0.2]
        p = 1.0
        m = v = 0.0
        for t, g in enumerate(grads, start=1):
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            p -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
        params = {"w": np.array([1.0])}
        state = OptState.for_params(params)
        for g in grads:
            adamw_step(params, {"w": np.array([g])}, state, lr=lr)
        assert params["w"][0] == pytest.approx(p, rel=1e-12)

    def test_weight_decay_shrink_law(self):
        params = {"w": np.full(3, 2.0)}
        state = OptState.for_params(params)
        adamw_step(params, {"w": np.zeros(3)}, state, lr=0.1, weight_decay=0.05)
        assert np.allclose(params["w"], 2.0 * (1 - 0.1 * 0.05))

    @staticmethod
    def ref_adamw(params, grads, m, v, t, lr, weight_decay, b1=0.9, b2=0.999, eps=1e-8):
        # the per-parameter formula the flat update replaced
        c1, c2 = 1.0 - b1 ** t, 1.0 - b2 ** t
        for name, p in params.items():
            g = grads[name].astype(p.dtype, copy=False)
            m[name] *= b1
            m[name] += (1.0 - b1) * g
            v[name] *= b2
            v[name] += (1.0 - b2) * g * g
            update = (m[name] / c1) / (np.sqrt(v[name] / c2) + eps)
            if weight_decay:
                update = update + weight_decay * p
            p -= lr * update

    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    @pytest.mark.parametrize("dtype,grad_dtype", [(np.float32, np.float32),
                                                  (np.float64, np.float64),
                                                  (np.float32, np.float64)])
    def test_flat_update_matches_per_parameter_formula(self, dtype, grad_dtype,
                                                       weight_decay):
        rng = np.random.default_rng(13)
        shapes = {"w": (5, 3), "b": (3,), "k": (3, 3, 4), "s": ()}
        params = {n: np.asarray(rng.standard_normal(s), dtype) for n, s in shapes.items()}
        ref = {n: p.copy() for n, p in params.items()}
        m = {n: np.zeros_like(p) for n, p in ref.items()}
        v = {n: np.zeros_like(p) for n, p in ref.items()}
        objects = dict(params)
        state = OptState.for_params(params)
        for t in range(1, 4):
            grads = {n: np.asarray(rng.standard_normal(s), grad_dtype)
                     for n, s in shapes.items()}
            adamw_step(params, grads, state, lr=0.01, weight_decay=weight_decay)
            self.ref_adamw(ref, grads, m, v, t, 0.01, weight_decay)
        for n, p in params.items():
            assert p is objects[n]
            assert p.dtype == dtype and np.array_equal(p, ref[n])
        assert np.array_equal(state.m, np.concatenate([a.ravel() for a in m.values()]))
        assert np.array_equal(state.v, np.concatenate([a.ravel() for a in v.values()]))

    def test_mixed_dtype_params_rejected(self):
        with pytest.raises(TypeError, match="one dtype"):
            OptState.for_params({"a": np.zeros(2, np.float32), "b": np.zeros(2)})

    def test_params_must_match_state(self):
        state = OptState.for_params({"a": np.zeros(2), "b": np.zeros(3)})
        with pytest.raises(ad.ContractError):
            adamw_step({"b": np.zeros(3), "a": np.zeros(2)},
                       {"a": np.zeros(2), "b": np.zeros(3)}, state, lr=0.1)

    def test_schedule_without_decay_steps_holds_base_rate(self):
        # warmup covers every step: after it the rate stays at base, with no cosine
        assert [cosine_warmup_lr(s, 4, 4, 0.1) for s in range(6)] == [
            pytest.approx(0.025), pytest.approx(0.05), pytest.approx(0.075), 0.1, 0.1, 0.1]

    def test_cosine_schedule_shape(self):
        base = 1e-3
        warm = [cosine_warmup_lr(s, 100, 10, base) for s in range(10)]
        assert warm[0] == pytest.approx(base / 10)
        assert warm[-1] == pytest.approx(base)
        assert cosine_warmup_lr(55, 100, 10, base) == pytest.approx(
            base * 0.5 * (1 + math.cos(math.pi * 0.5)))
        assert cosine_warmup_lr(99, 100, 10, base) < 2e-5


class TestFlops:
    def test_fc_ratio_is_four(self):
        cfg = ModelConfig(dim=64, heads=4, head_archs=("fc",) * 4,
                          inner=InnerTrainConfig(loss="dot", epochs=1))
        est = flops_estimate(cfg)
        assert est["ttt_ratio"] == pytest.approx(4.0, rel=0.05)

    @pytest.mark.parametrize("epochs", [1, 2])
    def test_fc_ratio_closed_form(self, epochs):
        # FC heads, dot loss, one full batch, fixed rate: per epoch the forward
        # on K, twice that for the pullback, the loss gradient (n*d) and the
        # scale+sub step (2*d*d), plus the query pass, over one forward 2*n*d*d
        n, d, e = 64, 16, epochs
        cfg = ModelConfig(dim=64, heads=4, head_archs=("fc",) * 4,
                          inner=InnerTrainConfig(loss="dot", epochs=e))
        assert cfg.tokens == n
        ratio = flops_estimate(cfg)["ttt_ratio"]
        assert ratio == 3 * e + 1 + e * (1 / (2 * d) + 1 / n)
        assert ratio == {1: 4.046875, 2: 7.09375}[e]

    #: ttt_layer_flops(64, 32, 2, (arch, "gated_fc"), mse, parts 2, epochs 2, 8x8
    #: grid)["ratio"] as float hex, (fixed rate, dynamic rate); counts depend on
    #: shapes only, so these hold on every machine and BLAS build
    PINNED_RATIOS = {
        "fc": ("0x1.c8df0cac5b3f6p+2", "0x1.c981446f86563p+2"),
        "silu_fc": ("0x1.c888888888889p+2", "0x1.c924924924925p+2"),
        "mlp_r1_l2": ("0x1.c77975b8fe21ap+2", "0x1.c77975b8fe21ap+2"),
        "mlp_r2_l2": ("0x1.c63e7063e7064p+2", "0x1.c59e9859e985ap+2"),
        "mlp_r1_l3": ("0x1.c6a8b1927f429p+2", "0x1.c649fd0a5bbeep+2"),
        "swiglu": ("0x1.c6c6c6c6c6c6cp+2", "0x1.c666666666666p+2"),
        "gated_fc": ("0x1.c76b981dae607p+2", "0x1.c76b981dae607p+2"),
        "conv3x3": ("0x1.df317a9f317aap+2", "0x1.ddf0395df0396p+2"),
        "dwconv3x3": ("0x1.d0469ee58469fp+2", "0x1.d155555555555p+2"),
        "mlp_residual": ("0x1.c76b981dae607p+2", "0x1.c76b981dae607p+2"),
        "mlp_w2_plus_i": ("0x1.c76b981dae607p+2", "0x1.c76b981dae607p+2"),
        "mlp_w2_init_i": ("0x1.c77975b8fe21ap+2", "0x1.c77975b8fe21ap+2"),
    }

    @pytest.mark.parametrize("dynamic", [False, True])
    @pytest.mark.parametrize("name", ARCH_NAMES)
    def test_ratio_pinned(self, name, dynamic):
        cfg = InnerTrainConfig(loss="mse", epochs=2, parts=2, dynamic_lr=dynamic)
        ratio = ttt_layer_flops(64, 32, 2, (name, "gated_fc"), cfg, grid=(8, 8))["ratio"]
        assert ratio.hex() == self.PINNED_RATIOS[name][dynamic]

    def test_estimate_rejects_unbuildable_model(self):
        with pytest.raises(T.DimensionError):
            flops_estimate(ModelConfig(heads=4, head_archs=("fc", "fc")))

    def test_estimate_is_the_layer_ratio_and_builds_no_model(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("flops_estimate built a Model")
        monkeypatch.setattr(Model, "__init__", refuse)
        cfg = ModelConfig()
        layer = ttt_layer_flops(64, 64, 4, cfg.head_archs, cfg.inner, cfg.grid)
        assert flops_estimate(cfg) == {"ttt_ratio": layer["ratio"]}

    def test_ratio_independent_of_lr(self):
        a = ModelConfig(inner=InnerTrainConfig(lr=0.1))
        b = ModelConfig(inner=InnerTrainConfig(lr=10.0))
        assert flops_estimate(a) == flops_estimate(b)

    def test_ttt_flops_linear_in_n(self):
        cfg = InnerTrainConfig()
        f1 = ttt_layer_flops(256, 64, 4, ("gated_fc",) * 4, cfg)["total_executed"]
        f2 = ttt_layer_flops(512, 64, 4, ("gated_fc",) * 4, cfg)["total_executed"]
        assert abs(f2 / f1 - 2.0) < 0.01

    def test_softmax_attention_term_quadratic_in_n(self):
        d, h = 64, 4
        params = TTTLayerParams.create(np.random.default_rng(3), d, h, ("gated_fc",) * h)
        proj_wo = lambda n: 3 * h * 2 * n * d * (d // h) + 2 * n * d * d

        def attn_flops(n):
            with T.count_flops() as fc:
                softmax_attention(RNG.standard_normal((n, d)), params)
            return fc.total - proj_wo(n)
        assert attn_flops(512) == 4 * attn_flops(256)

    def test_epochs_raise_ratio(self):
        one = ModelConfig(inner=InnerTrainConfig(epochs=1), head_archs=("fc",) * 4)
        two = ModelConfig(inner=InnerTrainConfig(epochs=2), head_archs=("fc",) * 4)
        r1 = flops_estimate(one)["ttt_ratio"]
        r2 = flops_estimate(two)["ttt_ratio"]
        assert r2 == pytest.approx(r1 + 3.0, rel=0.05)

    @pytest.mark.parametrize("dynamic", [False, True])
    @pytest.mark.parametrize("parts", [1, 4])
    @pytest.mark.parametrize("name", ARCH_NAMES)
    def test_layer_flops_equal_counter(self, name, parts, dynamic):
        self._assert_layer_flops_exact((name, name), InnerTrainConfig(
            loss="mse", parts=parts, dynamic_lr=dynamic))

    @pytest.mark.parametrize("loss", LOSSES)
    def test_layer_flops_equal_counter_per_loss(self, loss):
        self._assert_layer_flops_exact(("dwconv3x3", "gated_fc"),
                                       InnerTrainConfig(loss=loss, parts=3))

    @staticmethod
    def _assert_layer_flops_exact(archs, cfg):
        params = TTTLayerParams.create(np.random.default_rng(12), 32, 2, archs)
        x = RNG.standard_normal((64, 32))
        with T.count_flops() as fc:
            ttt_attention(x, params, cfg, grid=(8, 8))
        est = ttt_layer_flops(64, 32, 2, archs, cfg, grid=(8, 8))
        assert est["total_executed"] == fc.total


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        cfg = ModelConfig(depth=1)
        model = Model(cfg, np.random.default_rng(7))
        save_checkpoint(str(tmp_path / "ck"), model.params, meta={"note": "t"})
        back = load_checkpoint(str(tmp_path / "ck"))
        assert set(back) == set(model.params)
        for k in back:
            assert np.array_equal(back[k], model.params[k])

    def test_manifest_is_name_to_offset(self, tmp_path):
        import json
        model = Model(ModelConfig(depth=1), np.random.default_rng(8))
        save_checkpoint(str(tmp_path / "ck"), model.params, meta={})
        doc = json.loads((tmp_path / "ck" / "checkpoint.json").read_text())
        assert all(isinstance(v, int) for v in doc["index"].values())
        assert sorted(doc["index"]) == sorted(model.params)
        assert doc["meta"] == {}        # written even when empty

    def test_cut_checkpoint_is_truncated(self, tmp_path):
        import json
        path = tmp_path / "ck"
        save_checkpoint(str(path), {"a": np.ones((2, 3), np.float32),
                                    "b": np.ones(4, np.float32)}, meta={})
        last = max(json.loads((path / "checkpoint.json").read_text())["index"].values())
        data = (path / "checkpoint.bin").read_bytes()
        (path / "checkpoint.bin").write_bytes(data[:last + 8])   # inside b's extent
        with pytest.raises(ValueError, match="truncated tensor record"):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("doc", [{}, [1], {"index": [0]}, {"index": {"a": -5}},
                                     {"index": {"a": "x"}}, {"index": {"a": 1.5}},
                                     {"index": {"a": True}}, {"index": {"a": None}}])
    def test_index_that_is_no_name_to_offset_map_refused(self, tmp_path, doc):
        import json
        path = tmp_path / "ck"
        save_checkpoint(str(path), {"a": np.ones(3, np.float32)}, meta={})
        (path / "checkpoint.json").write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="checkpoint.json holds no index of names to "
                                             "non-negative integer offsets"):
            load_checkpoint(str(path))

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        path = str(tmp_path / "ck")
        model = Model(ModelConfig(depth=1), np.random.default_rng(8))
        save_checkpoint(path, model.params, meta={"step": 1})
        before = {name: (tmp_path / "ck" / name).read_bytes()
                  for name in ("checkpoint.bin", "checkpoint.json")}
        write_tensor, calls = T.write_tensor, []

        def failing(fp, arr):
            calls.append(1)
            if len(calls) == 3:
                raise OSError("disk full")
            return write_tensor(fp, arr)
        monkeypatch.setattr(T, "write_tensor", failing)
        newer = {k: v + 1 for k, v in model.params.items()}
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, newer, meta={"step": 2})
        assert len(calls) == 3
        assert sorted(os.listdir(path)) == ["checkpoint.bin", "checkpoint.json"]
        for name, data in before.items():
            assert (tmp_path / "ck" / name).read_bytes() == data
        back = load_checkpoint(path)
        assert set(back) == set(model.params)
        for k in back:
            assert back[k].dtype == model.params[k].dtype
            assert back[k].tobytes() == model.params[k].tobytes()


def one_tape_step(model, x, labels):
    """The training step on a single tape: the reference for the chunked step."""
    tape = Tape()
    logits = model.logits_nodes(tape, x)
    loss = ad.cross_entropy(logits, labels, total=len(labels))
    return float(loss.value), tape.backward(loss), logits.value


class TestChunkedStep:
    # 16x16 images in 4x4 patches are 16 token rows each: at STEP_ROWS = 48 a
    # batch of 8 runs as chunks of 3, 3 and 2 images. (A chunk of one image
    # would not do: its head is a [1, C] matmul, which BLAS rounds on another
    # path in fp64, as forward_classifier on one image does.)
    CFG = ModelConfig(image_size=16, patch_size=4, dim=8, heads=2, depth=1)
    # the chunks' sums over 8 images round apart from one tape's, and only those
    TOL = {np.float32: 1e-5, np.float64: 1e-13}

    def batch(self, dtype, n=8):
        model = Model(self.CFG, np.random.default_rng(12), dtype=dtype)
        rng = np.random.default_rng(13)
        return model, rng.standard_normal((n, 16, 16, 3)).astype(dtype), rng.integers(0, 10, n)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_chunks_match_one_tape(self, monkeypatch, dtype):
        model, x, y = self.batch(dtype)
        loss0, grads0, _ = one_tape_step(model, x, y)
        sizes, build = [], model.logits_nodes
        monkeypatch.setattr(model, "logits_nodes",
                            lambda tape, xs: sizes.append(len(xs)) or build(tape, xs))
        monkeypatch.setattr(model_mod, "STEP_ROWS", 48)
        loss, grads, logits = model.loss_and_grads(x, y)
        assert sizes == [3, 3, 2]
        assert np.array_equal(logits, forward_classifier(model, x))
        tol = self.TOL[dtype]
        assert abs(loss - loss0) <= tol * abs(loss0)
        assert grads.keys() == grads0.keys()
        for name, g in grads.items():
            assert g.dtype == dtype
            assert np.abs(g - grads0[name]).max() <= tol * np.abs(grads0[name]).max(), name

    @pytest.mark.parametrize("n", [3, 8])
    def test_one_chunk_is_one_tape_bit_for_bit(self, monkeypatch, n):
        # 3 images fill STEP_ROWS = 48 exactly; 8 are far below the default 2048
        model, x, y = self.batch(np.float32, n)
        if n == 3:
            monkeypatch.setattr(model_mod, "STEP_ROWS", 48)
        loss0, grads0, logits0 = one_tape_step(model, x, y)
        loss, grads, logits = model.loss_and_grads(x, y)
        assert loss == loss0 and np.array_equal(logits, logits0)
        for name, g in grads.items():
            assert np.array_equal(g, grads0[name]), name


class TestTrainingSmoke:
    def test_loss_decreases_on_tiny_fit(self):
        cfg = ModelConfig(image_size=16, patch_size=4, dim=16, heads=2, depth=1,
                          head_archs=("gated_fc", "gated_fc"))
        model = Model(cfg, np.random.default_rng(9))
        rng = np.random.default_rng(10)
        x = rng.random((32, 16, 16, 3)).astype(np.float32)
        y = rng.integers(0, 10, 32)
        state = OptState.for_params(model.params)
        losses = []
        for _ in range(60):
            loss, grads, _ = model.loss_and_grads(x, y)
            adamw_step(model.params, grads, state, lr=5e-3)
            losses.append(loss)
        assert losses[-1] < losses[0] * 0.7
