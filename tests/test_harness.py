import csv
import json
import os
from types import SimpleNamespace

import numpy as np
import pytest

import tttlab.harness as H
import tttlab.inner as inner_mod
import tttlab.model as M
from tttlab import allocator
from tttlab import autodiff as ad
from tttlab.harness import (ABLATE_CSV_COLUMNS, BENCH_CSV_COLUMNS,
                            TRAIN_CSV_COLUMNS, RecallModel, RunConfig,
                            cmd_ablate, cmd_bench, cmd_gradcheck,
                            cmd_lossreport, cmd_train, loglog_slope,
                            machine_fingerprint)
from tttlab.model import load_checkpoint, ttt_layer_flops


def small_recall_rc(out, **kw):
    base = dict(task="recall", seed=0, out_dir=out, epochs=5, train_size=256,
                val_size=64, batch_size=64, dim=16, heads=2, lr=5e-3,
                weight_decay=0.01, warmup_epochs=1, recall_seq=9, recall_keys=16)
    base.update(kw)
    return RunConfig(**base)


def read_csv(path):
    with open(path) as fp:
        return list(csv.reader(fp))


def read_json(path):
    with open(path) as fp:
        return json.load(fp)


def read_bytes(path):
    with open(path, "rb") as fp:
        return fp.read()


class TestRunConfig:
    def test_json_round_trip(self):
        rc = RunConfig(seed=3, heads=2, inner_loss="rmse", head_archs=["fc", "fc"])
        back = RunConfig.from_json(rc.to_json())
        assert back == rc

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError):
            RunConfig.from_json('{"no_such_field": 1}')

    def test_fingerprint_keys(self, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        fp = machine_fingerprint()
        assert {"platform", "python", "numpy", "cpus", "blas", "blas_version",
                "OMP_NUM_THREADS"} <= set(fp)
        assert isinstance(fp["blas"], str) and fp["blas"]
        assert fp["OPENBLAS_NUM_THREADS"] == "3" and fp["MKL_NUM_THREADS"] == "unset"
        assert fp["allocator"] == allocator.POLICY
        if allocator.POLICY != "default":
            assert fp["allocator"] == {"M_MMAP_THRESHOLD": 32 << 20,
                                       "M_TRIM_THRESHOLD": 1 << 30}
        json.dumps(fp)

    @pytest.mark.parametrize("doc", [{"epochs": "10"}, {"lr": "0.1"}, {"augment": 1},
                                     {"dim": 64.0}, {"heads": True}, {"head_archs": "fc"},
                                     {"head_archs": [1, 2]}, {"task": None}])
    def test_wrong_type_rejected(self, doc):
        with pytest.raises(ValueError, match="must be"):
            RunConfig.from_json(json.dumps(doc))

    def test_unknown_task_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            RunConfig.from_json('{"task": "imagenet"}')

    def test_unknown_inner_loss_rejected(self):
        with pytest.raises(ValueError, match="unknown inner_loss"):
            RunConfig.from_json('{"inner_loss": "l2"}')

    def test_unknown_head_arch_rejected(self):
        with pytest.raises(ValueError, match="unknown head_archs"):
            RunConfig.from_json('{"heads": 2, "head_archs": ["fc", "transformer"]}')

    def test_head_arch_count_rejected(self):
        with pytest.raises(ValueError, match="3 head_archs for 4 heads"):
            RunConfig.from_json('{"heads": 4, "head_archs": ["fc", "fc", "fc"]}')

    def test_indivisible_dim_rejected(self):
        with pytest.raises(ValueError, match="not divisible"):
            RunConfig.from_json('{"dim": 30, "heads": 4}')

    @pytest.mark.parametrize("name", H.POSITIVE_FIELDS)
    def test_count_below_one_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name} must be at least 1"):
            RunConfig.from_json(json.dumps({name: 0}))

    @pytest.mark.parametrize("doc, match", [
        ({"recall_seq": 1}, r"recall_seq 1 must be in \[2, recall_keys \+ 1 = 33\]"),
        ({"recall_seq": 40, "recall_keys": 32}, r"recall_seq 40 must be in \[2, .* = 33\]"),
        ({"task": "cifar", "image_size": 30}, "patch_size 4 does not divide image_size 30"),
        ({"inner_parts": 18}, "inner_parts 18 exceeds the 17 tokens of a recall sample"),
        ({"task": "cifar", "inner_parts": 65}, "inner_parts 65 exceeds the 64 tokens"),
    ])
    def test_config_no_run_could_use_rejected(self, doc, match):
        with pytest.raises(ValueError, match=match):
            RunConfig.from_json(json.dumps(doc))

    def test_task_shape_limits_accepted(self):
        RunConfig.from_json('{"recall_seq": 33, "recall_keys": 32, "inner_parts": 33}')
        RunConfig.from_json('{"task": "cifar", "inner_parts": 64, "recall_seq": 1}')


class TestCmdTrain:
    def test_deterministic_across_runs(self, tmp_path):
        reports = []
        for name in ("a", "b"):
            rc = small_recall_rc(str(tmp_path / name), epochs=2)
            reports.append(cmd_train(rc))
        rows_a = read_csv(reports[0]["csv"])
        rows_b = read_csv(reports[1]["csv"])
        assert rows_a[0] == list(TRAIN_CSV_COLUMNS)
        for ra, rb in zip(rows_a, rows_b):
            assert ra[:3] == rb[:3]  # wall_s may differ
        bin_a = read_bytes(os.path.join(reports[0]["checkpoint"], "checkpoint.bin"))
        bin_b = read_bytes(os.path.join(reports[1]["checkpoint"], "checkpoint.bin"))
        assert bin_a == bin_b

    def test_zero_epochs_header_only_and_init_checkpoint(self, tmp_path):
        rc = small_recall_rc(str(tmp_path), epochs=0)
        report = cmd_train(rc)
        assert read_csv(report["csv"]) == [list(TRAIN_CSV_COLUMNS)]
        saved = load_checkpoint(report["checkpoint"])
        fresh = RecallModel(rc, 10, np.random.default_rng(rc.seed + 1))
        for k, v in fresh.params.items():
            assert np.array_equal(saved[k], v)

    def test_training_reduces_loss(self, tmp_path):
        rc = small_recall_rc(str(tmp_path), epochs=5, train_size=512)
        report = cmd_train(rc)
        losses = [r[1] for r in report["rows"]]
        assert losses[-1] < losses[0]
        assert not report["diverged"]

    def test_manifest_written(self, tmp_path):
        rc = small_recall_rc(str(tmp_path), epochs=1)
        report = cmd_train(rc)
        doc = read_json(report["manifest"])
        assert doc["status"] == "ok"
        assert doc["config"]["seed"] == 0
        assert "fingerprint" in doc and "outputs" in doc

    def test_divergent_config_flagged_with_partial_csv(self, tmp_path):
        rc = small_recall_rc(str(tmp_path), epochs=10, train_size=256,
                             inner_loss="mse", inner_lr=20.0, inner_epochs=6)
        report = cmd_train(rc)
        assert report["diverged"]
        rows = read_csv(report["csv"])
        assert rows[0] == list(TRAIN_CSV_COLUMNS)
        assert rows[-1][1] == "nan"
        doc = read_json(report["manifest"])
        assert doc["status"] == "diverged"

    def test_recall_stops_early_once_target_met(self, tmp_path):
        # the target is below chance, so training stops at the earliest allowed epoch, the 5th
        rc = small_recall_rc(str(tmp_path), epochs=8, early_stop_acc=0.01)
        report = cmd_train(rc)
        assert len(report["rows"]) == 5 and report["final_acc"] > 0.01
        assert len(read_csv(report["csv"])) == 1 + 5

    def test_failed_manifest_write_keeps_previous(self, tmp_path, monkeypatch):
        rc = small_recall_rc(str(tmp_path))
        path = H._write_manifest(rc, ["a.csv"], "ok")
        before = read_bytes(path)

        def failing_dump(doc, fp, **kwargs):
            fp.write('{"config": ')
            raise OSError("no space left on device")
        monkeypatch.setattr(H.json, "dump", failing_dump)
        with pytest.raises(OSError, match="no space"):
            H._write_manifest(rc, ["b.csv"], "diverged")
        assert read_bytes(path) == before
        assert os.listdir(tmp_path) == ["manifest.json"]


class TestCmdAblate:
    def test_grid_structure(self, tmp_path):
        rc = small_recall_rc(str(tmp_path), epochs=2, train_size=128, val_size=32)
        grid = {"inner_loss": ["mse", "dot"], "inner_lr": [0.5, 1.0], "seeds": [0]}
        report = cmd_ablate(rc, grid)
        rows = read_csv(report["csv"])
        assert rows[0] == list(ABLATE_CSV_COLUMNS)
        assert len(rows) == 1 + 4  # header + 2x2 grid
        for row in rows[1:]:
            assert row[1].isdigit()  # params
            assert float(row[2]) > 0  # flops

    def test_divergence_cell_marked(self, tmp_path):
        rc = small_recall_rc(str(tmp_path), epochs=10, train_size=256)
        grid = {"inner_loss": ["mse"], "inner_lr": [20.0], "inner_epochs": [6],
                "seeds": [0]}
        report = cmd_ablate(rc, grid)
        assert report["rows"][0]["status"] == "*"

    def test_flops_column_matches_estimate(self, tmp_path):
        rc = small_recall_rc(str(tmp_path), epochs=1, train_size=64, val_size=32)
        report = cmd_ablate(rc, {"inner_lr": [1.0], "seeds": [0]})
        expect = ttt_layer_flops(rc.recall_seq, rc.dim, rc.heads,
                                 ("gated_fc",) * rc.heads,
                                 rc.inner_config())["total_executed"]
        assert report["rows"][0]["flops"] == expect

    def test_cell_throughput_is_warm_median(self, monkeypatch):
        # a fake clock: each forward takes the next duration; the first is the warm-up
        rc = small_recall_rc("unused")
        model = RecallModel(rc, 10, np.random.default_rng(0))
        clock, durations = [0.0], iter([100.0, 1.0, 3.0, 2.0])

        def forward(m, x):
            assert m is model and x.shape[0] == 4
            clock[0] += next(durations)
        monkeypatch.setattr(M, "forward_classifier", forward)
        monkeypatch.setattr(H, "time", SimpleNamespace(perf_counter=lambda: clock[0]))
        throughput = H._cell_throughput(model, np.zeros((4, rc.recall_seq, 16)))
        assert throughput == 4 * rc.recall_seq / 2.0
        assert next(durations, None) is None

    def test_recall_cell_with_more_pairs_than_default_keys(self, tmp_path):
        rc = small_recall_rc(str(tmp_path), epochs=1, train_size=64, val_size=32,
                             recall_seq=40, recall_keys=64)
        row = cmd_ablate(rc, {"inner_lr": [1.0], "seeds": [0]})["rows"][0]
        assert row["status"] == "" and row["throughput"] > 0

    def test_unknown_axis_refused_before_any_cell(self, tmp_path):
        rc = small_recall_rc(str(tmp_path), epochs=1, train_size=64, val_size=32)
        with pytest.raises(ValueError, match="inner_los"):
            cmd_ablate(rc, {"inner_los": ["mae"], "seeds": [0]})
        assert not (tmp_path / "cells").exists()

    def test_invalid_cell_refused_before_any_cell(self, tmp_path):
        rc = small_recall_rc(str(tmp_path), epochs=1, train_size=64, val_size=32)
        with pytest.raises(ValueError, match="inner_parts 10 exceeds"):
            cmd_ablate(rc, {"inner_parts": [1, 10], "seeds": [0]})
        assert not (tmp_path / "cells").exists()


class TestCmdBench:
    def test_schema_and_flops(self, tmp_path):
        rc = RunConfig(command="bench", out_dir=str(tmp_path), dim=32, heads=2)
        report = cmd_bench(rc, lengths=(64, 128), reps=2, warmup=1)
        rows = read_csv(report["csv"])
        assert rows[0] == list(BENCH_CSV_COLUMNS)
        assert len(rows) == 1 + 4  # two layers x two lengths
        for row in report["rows"]:
            n = row["N"]
            if row["layer"] == "ttt":
                expect = ttt_layer_flops(n, 32, 2, ("gated_fc",) * 2,
                                         rc.inner_config())["total_executed"]
            else:   # projections and output, then per head Q K^T, softmax, P V
                expect = 8 * n * 32 * 32 + 2 * (4 * n * n * 16 + 4 * n * n)
            assert row["flops"] == expect
            assert row["p50_ms"] > 0 and row["peak_bytes"] > 0

    def test_loglog_slope_helper(self):
        ns = [256, 512, 1024]
        assert loglog_slope(ns, [n * 0.001 for n in ns]) == pytest.approx(1.0)
        assert loglog_slope(ns, [n * n * 0.001 for n in ns]) == pytest.approx(2.0)


class TestCmdGradcheck:
    def test_small_matrix_passes(self):
        report = cmd_gradcheck(archs=("fc", "dwconv3x3"), losses=("mse", "mae"))
        assert not report["failures"]
        assert len(report["cells"]) == 2 * 2 * 2 * 2
        mae_cells = [c for c in report["cells"] if c["loss"] == "mae"]
        assert all(c["wv_grad_zero"] for c in mae_cells)
        mse_cells = [c for c in report["cells"] if c["loss"] == "mse"]
        assert not any(c["wv_grad_zero"] for c in mse_cells)

    def test_injected_sign_bug_is_caught(self, monkeypatch):
        real = inner_mod.loss_grad

        def buggy(kind, vhat, v):
            if kind != "mse":
                return real(kind, vhat, v)
            # correct forward value, sign-flipped backward rule
            e = ad.sub(vhat, v)
            c = 1.0 / (e.value.shape[-2] * np.sqrt(e.value.shape[-1]))
            out = e.value * c

            def vjp(g):
                return (-g * c,)

            return e.tape.push(out, (e,), vjp, "buggy_mse_grad")

        monkeypatch.setattr(inner_mod, "loss_grad", buggy)
        report = cmd_gradcheck(archs=("fc",), losses=("mse",))
        named = {(c["arch"], c["loss"]) for c in report["failures"]}
        assert ("fc", "mse") in named


class TestCmdLossreport:
    def test_all_losses_match(self, capsys):
        report = cmd_lossreport(seed=1)
        assert not report["failures"]
        out = capsys.readouterr().out
        assert "mse" in out and "OK" in out


class TestCli:
    def test_train_and_exit_codes(self, tmp_path):
        from tttlab.cli import main
        code = main(["train", "--task", "recall", "--epochs", "1", "--seed", "1",
                     "--out", str(tmp_path / "r"), "--train-size", "128",
                     "--val-size", "32"])
        assert code == 0
        assert (tmp_path / "r" / "train.csv").exists()
        assert (tmp_path / "r" / "manifest.json").exists()

    def test_lossreport_exit(self):
        from tttlab.cli import main
        assert main(["lossreport"]) == 0

    def test_config_file_round_trip(self, tmp_path):
        from tttlab.cli import main
        rc = small_recall_rc(str(tmp_path / "from_cfg"), epochs=1, train_size=128,
                             val_size=32)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(rc.to_json())
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "from_cfg" / "train.csv").exists()

    @pytest.mark.parametrize("flag, doc, threads", [
        ([], None, min(8, os.cpu_count() or 1)),
        ([], {"threads": 3}, 3),
        (["--threads", "2"], {"threads": 3}, 2),
    ])
    def test_gradcheck_threads_default(self, tmp_path, monkeypatch, flag, doc, threads):
        # the cpu-count default applies only when neither the flag nor the file sets threads
        import tttlab.cli as cli
        seen = []

        def fake_gradcheck(rc, tol):
            seen.append(rc.threads)
            return {"cells": [], "failures": []}
        monkeypatch.setattr(cli, "cmd_gradcheck", fake_gradcheck)
        argv = ["gradcheck", *flag]
        if doc is not None:
            (tmp_path / "cfg.json").write_text(json.dumps(doc))
            argv += ["--config", str(tmp_path / "cfg.json")]
        assert cli.main(argv) == 0 and seen == [threads]

    def test_bench_cli(self, tmp_path):
        from tttlab.cli import main
        code = main(["bench", "--out", str(tmp_path / "b"), "--lengths", "64,128",
                     "--reps", "1", "--warmup", "0"])
        assert code == 0
        assert (tmp_path / "b" / "bench.csv").exists()
