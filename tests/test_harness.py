import csv
import json
import os
import re
import shutil
import tempfile
from dataclasses import fields
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tttlab.harness as H
import tttlab.inner as inner_mod
import tttlab.model as M
from tttlab import allocator
from tttlab import autodiff as ad
from tttlab import data as D
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
        for doc in ('{"no_such_field": 1}', '{"augment": false}'):
            with pytest.raises(ValueError, match="unknown RunConfig fields"):
                RunConfig.from_json(doc)

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

    @pytest.mark.parametrize("doc", [{"epochs": "10"}, {"lr": "0.1"}, {"inner_dynamic": 1},
                                     {"dim": 64.0}, {"heads": True}, {"head_archs": "fc"},
                                     {"head_archs": [1, 2]}, {"task": None}])
    def test_wrong_type_rejected(self, doc):
        with pytest.raises(ValueError, match="must be"):
            RunConfig.from_json(json.dumps(doc))

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig) if f.type == "float"])
    def test_non_finite_float_rejected(self, name):
        for value in ("NaN", "Infinity", "-Infinity"):
            with pytest.raises(ValueError, match=f"RunConfig.{name} must be float"):
                RunConfig.from_json(f'{{"{name}": {value}}}')

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
        ({"task": "cifar", "patch_size": 5}, "patch_size 5 does not divide image_size 32"),
        ({"inner_parts": 18}, "inner_parts 18 exceeds the 17 tokens of a recall sample"),
        ({"task": "cifar", "inner_parts": 65}, "inner_parts 65 exceeds the 64 tokens"),
        # cifar's image side and class count are constants, not fields
        ({"task": "cifar", "image_size": 16}, r"unknown RunConfig fields: \['image_size'\]"),
        ({"task": "cifar", "num_classes": 9}, r"unknown RunConfig fields: \['num_classes'\]"),
        ({"heads": 2, "head_archs": ["conv3x3", "dwconv3x3"]},
         r"head_archs \['conv3x3', 'dwconv3x3'\] need an image grid"),
        ({"heads": 2, "head_archs": ["gated_fc", "dwconv3x3"]},
         r"head_archs \['dwconv3x3'\] need an image grid"),
        ({"data_path": "data"}, r"^data_path 'data' is read only by the cifar task"),
        ({"seed": -1}, r"^RunConfig.seed must be at least 0, got -1$"),
        # the MLP's width ratio (4) is a constant too
        ({"task": "cifar", "mlp_ratio": 4.0}, r"unknown RunConfig fields: \['mlp_ratio'\]"),
    ])
    def test_config_no_run_could_use_rejected(self, doc, match):
        with pytest.raises(ValueError, match=match):
            RunConfig.from_json(json.dumps(doc))

    def test_cifar_data_path_without_cifar_rejected(self, tmp_path, tiny_cifar):
        # a named path that holds no CIFAR-10 is refused, not passed over for
        # $TTTLAB_CIFAR10, ./data or synthetic data
        for path in (str(tmp_path), str(tmp_path / "no-such-dir")):
            doc = {"task": "cifar", "data_path": path}
            with pytest.raises(ValueError, match=f"^data_path {re.escape(repr(path))} "
                                                 "holds no CIFAR-10"):
                RunConfig.from_dict(doc)
        RunConfig.from_dict({"task": "cifar", "data_path": tiny_cifar})

    def test_cifar_data_path_that_is_a_file_rejected(self, tiny_cifar):
        path = os.path.join(tiny_cifar, "test_batch.bin")
        with pytest.raises(ValueError, match=f"^CIFAR-10 path {re.escape(repr(path))} "
                                             "is not a directory$"):
            RunConfig.from_dict({"task": "cifar", "data_path": path})

    def test_cifar_data_path_missing_a_batch_file_rejected(self, tmp_path, tiny_cifar):
        # a dir holding only some of the six files names the first one it lacks
        for name in [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]:
            path = tmp_path / name.replace(".", "-")
            shutil.copytree(tiny_cifar, path)
            (path / name).unlink()
            with pytest.raises(ValueError, match=f"^data_path {re.escape(repr(str(path)))} "
                                                 rf"holds no CIFAR-10 \(no {name}\)$"):
                RunConfig.from_dict({"task": "cifar", "data_path": str(path)})

    def test_task_shape_limits_accepted(self):
        RunConfig.from_json('{"recall_seq": 33, "recall_keys": 32, "inner_parts": 33}')
        RunConfig.from_json('{"task": "cifar", "inner_parts": 64, "recall_seq": 1}')


@st.composite
def tiny_run_docs(draw):
    """RunConfig fields of a 1-epoch tiny run; up to two drawn fields then take a
    value that no run, or no run of one task, can use."""
    heads = draw(st.sampled_from([1, 2]))
    doc = {
        "task": draw(st.sampled_from(["recall", "cifar"])),
        "dim": draw(st.sampled_from([8, 16])),
        "heads": heads,
        "depth": 1,
        "patch_size": draw(st.sampled_from([8, 16])),
        "head_archs": draw(st.one_of(st.just([]), st.lists(
            st.sampled_from(inner_mod.ARCH_NAMES), min_size=heads, max_size=heads))),
        "recall_seq": draw(st.sampled_from([3, 9])),
        "recall_width": draw(st.sampled_from([4, 8])),
        "inner_loss": draw(st.sampled_from(inner_mod.LOSSES)),
        "inner_parts": draw(st.sampled_from([1, 2, 3])),
        "inner_lr": draw(st.sampled_from([1.0, 10.0])),
        "inner_dynamic": draw(st.booleans()),
        "epochs": 1, "batch_size": 8, "train_size": 16, "val_size": 8, "warmup_epochs": 1,
    }
    unusable = {"heads": 3, "patch_size": 5, "inner_parts": 99, "recall_seq": 40,
                "head_archs": ["dwconv3x3"] * heads,
                "data_path": "no-cifar-here", "seed": -1}
    for name in {draw(st.sampled_from([None, *unusable])) for _ in range(2)} - {None}:
        doc[name] = unusable[name]
    return doc


@pytest.fixture(scope="module")
def tiny_cifar(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("cifar-bin"))
    D.write_synthetic_cifar(path, seed=0, n_train=20, n_test=10)
    return path


class TestRunConfigProperty:
    @settings(derandomize=True, database=None, deadline=None, max_examples=400)
    @given(doc=tiny_run_docs())
    def test_accepted_config_trains(self, tiny_cifar, doc):
        # validate refuses the config, or its first epoch runs (divergence is a result)
        try:
            rc = RunConfig.from_dict(doc)
        except ValueError:
            return
        with tempfile.TemporaryDirectory() as out:
            rc.out_dir, rc.data_path = out, tiny_cifar
            report = cmd_train(rc)
        assert report["diverged"] or len(report["rows"]) == 1


class TestCmdTrain:
    def test_accuracy_of_an_empty_split_is_zero(self):
        model = RecallModel(small_recall_rc("unused"), 10, np.random.default_rng(0))
        assert H._accuracy(model, np.zeros((0, 9, 16)), np.zeros(0, np.int64), 4) == 0.0

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

    def test_non_finite_validation_logit_is_divergence(self, tmp_path, monkeypatch):
        # an overflowed eval forward is a divergence, not an accuracy
        forward = M.forward_classifier

        def overflowed(model, x):
            logits = forward(model, x)
            logits[-1, 0] = np.nan
            return logits
        monkeypatch.setattr(M, "forward_classifier", overflowed)
        report = cmd_train(small_recall_rc(str(tmp_path), epochs=2))
        assert report["diverged"] and report["rows"] == []
        assert read_csv(report["csv"])[1][:3] == ["0", "nan", "nan"]
        assert read_json(report["manifest"])["status"] == "diverged"

    def test_non_finite_outer_loss_is_divergence(self, tmp_path, monkeypatch):
        # a NaN loss on the first step stops the run before AdamW takes it; `train` exits 3
        import tttlab.cli as cli
        loss_and_grads, steps, reports = M.Classifier.loss_and_grads, [], []

        def nan_first(model, x, labels):
            steps.append(len(labels))
            loss, grads, logits = loss_and_grads(model, x, labels)
            return (np.nan if len(steps) == 1 else loss), grads, logits

        def train(rc):
            report = cmd_train(rc)
            reports.append(report)
            return report
        monkeypatch.setattr(M.Classifier, "loss_and_grads", nan_first)
        monkeypatch.setattr(cli, "cmd_train", train)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(small_recall_rc(str(tmp_path / "r"), epochs=2, train_size=128,
                                       val_size=32).to_json())
        assert cli.main(["train", "--config", str(cfg)]) == 3
        report, = reports
        assert len(steps) == 1
        assert report["diverged"] and report["rows"] == []
        assert read_csv(report["csv"])[1][:3] == ["0", "nan", "nan"]
        assert read_json(report["manifest"])["status"] == "diverged"

    def test_recall_stops_early_once_target_met(self, tmp_path):
        # the target is below chance, so training stops at the earliest allowed epoch, the 5th
        rc = small_recall_rc(str(tmp_path), epochs=8, early_stop_acc=0.01)
        report = cmd_train(rc)
        assert len(report["rows"]) == 5 and report["final_acc"] > 0.01
        assert len(read_csv(report["csv"])) == 1 + 5

    def test_synthetic_cifar_run_leaves_only_its_outputs(self, tmp_path, monkeypatch):
        # with no real CIFAR-10 the stand-in is built in memory, not written to out_dir
        monkeypatch.delenv("TTTLAB_CIFAR10", raising=False)
        monkeypatch.chdir(tmp_path)
        rc = RunConfig(task="cifar", seed=3, out_dir=str(tmp_path / "run"), epochs=1,
                       train_size=16, val_size=8, batch_size=8, patch_size=8, dim=16,
                       heads=2, depth=1, warmup_epochs=0)
        report = cmd_train(rc)
        assert report["synthetic_data"] is True
        assert sorted(os.listdir(tmp_path)) == ["run"]
        assert sorted(os.listdir(tmp_path / "run")) == ["checkpoint", "manifest.json",
                                                         "train.csv"]

    def test_cut_synthetic_set_in_out_dir_is_not_read(self, tmp_path, monkeypatch):
        # a set an interrupted run left with 400 of its 1000 test records is ignored:
        # the run validates on all val_size images of the in-memory set
        monkeypatch.delenv("TTTLAB_CIFAR10", raising=False)
        monkeypatch.chdir(tmp_path)
        cut = tmp_path / "run" / "synthetic-cifar-bin-s0-5000-1000"
        D.write_synthetic_cifar(str(cut), seed=0, n_train=5000, n_test=1000)
        os.truncate(cut / "test_batch.bin", 400 * 3073)
        accuracy, validated = H._accuracy, []

        def counting(model, x, y, batch_size):
            validated.append(len(y))
            return accuracy(model, x, y, batch_size)
        monkeypatch.setattr(H, "_accuracy", counting)
        rc = RunConfig(task="cifar", seed=0, out_dir=str(tmp_path / "run"), epochs=1,
                       train_size=16, val_size=1000, batch_size=250, patch_size=16, dim=8,
                       heads=1, depth=1, warmup_epochs=0)
        report = cmd_train(rc)
        assert validated == [1000] and report["synthetic_data"] is True
        assert os.path.getsize(cut / "test_batch.bin") == 400 * 3073

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

    def test_cifar_grid_writes_no_cifar_file(self, tmp_path, monkeypatch):
        # no real CIFAR-10 anywhere: every cell trains on the synthetic fallback, built in
        # memory, so the grid leaves no CIFAR file and no link behind
        monkeypatch.delenv("TTTLAB_CIFAR10", raising=False)
        monkeypatch.chdir(tmp_path)
        rc = RunConfig(task="cifar", seed=0, out_dir=str(tmp_path / "grid"), epochs=1,
                       train_size=32, val_size=16, batch_size=16, patch_size=8, dim=16,
                       heads=2, depth=1, warmup_epochs=0)
        cmd_ablate(rc, {"inner_lr": [0.5, 1.0], "seeds": [0]})
        for root, dirs, files in os.walk(tmp_path):
            assert not set(files) & set(D.CIFAR_FILES), root
            assert not any(os.path.islink(os.path.join(root, n)) for n in dirs + files), root
        cells = list((tmp_path / "grid" / "cells").iterdir())
        assert len(cells) == 2
        for cell in cells:
            assert read_json(cell / "checkpoint" / "checkpoint.json")["meta"]["synthetic"] is True

    def test_unknown_axis_refused_before_any_cell(self, tmp_path):
        rc = small_recall_rc(str(tmp_path), epochs=1, train_size=64, val_size=32)
        with pytest.raises(ValueError, match="inner_los"):
            cmd_ablate(rc, {"inner_los": ["mae"], "seeds": [0]})
        assert not (tmp_path / "cells").exists()

    @pytest.mark.parametrize("grid", [["inner_lr", [1.0]], "inner_lr", 3])
    def test_grid_that_is_not_an_object_refused(self, grid):
        rc = small_recall_rc("unused")
        with pytest.raises(ValueError, match="^an ablation grid maps axis names to value lists, "
                                             f"got {re.escape(repr(grid))}$"):
            H.ablation_cells(rc, grid)

    def test_each_cell_validated_once(self, tmp_path, monkeypatch):
        # the worker runs the config that ablation_cells validated
        rc = small_recall_rc(str(tmp_path), epochs=1, train_size=64, val_size=32, threads=1)
        validate, checked, ran = RunConfig.validate, [], []

        def counting(self):
            checked.append(self.inner_lr)
            return validate(self)
        monkeypatch.setattr(RunConfig, "validate", counting)
        ablate_cell = H.ablate_cell
        monkeypatch.setattr(H, "ablate_cell", lambda job: ran.append(job) or ablate_cell(job))
        grid = {"inner_lr": [0.5, 1.0], "seeds": [0]}
        cells = H.ablation_cells(rc, grid)
        assert checked == [0.5, 1.0]
        report = cmd_ablate(rc, grid)
        assert checked == [0.5, 1.0] * 2
        assert [job[:2] for job in ran] == cells
        assert [row["config"] for row in report["rows"]] == ["lr=0.5,seed=0", "lr=1.0,seed=0"]

    def test_seeds_are_offsets_from_the_run_seed(self):
        def seeds(seed, grid=None):
            return [(name, cell.seed, cell.out_dir) for name, cell in
                    H.ablation_cells(small_recall_rc("o", seed=seed), grid)]
        assert {s for _, s, _ in seeds(5)} == {5, 6, 7}
        assert seeds(5, {"inner_lr": [1.0], "seeds": [0, 2]}) == [
            ("lr=1.0,seed=5", 5, os.path.join("o", "cells", "lr_1.0_s5")),
            ("lr=1.0,seed=7", 7, os.path.join("o", "cells", "lr_1.0_s7"))]
        assert seeds(5, {"inner_lr": [1.0]}) == [
            ("lr=1.0,seed=5", 5, os.path.join("o", "cells", "lr_1.0_s5"))]
        # at seed 0 an offset is the seed itself
        default = seeds(0)
        assert len(default) == 54 and default[0] == (
            "epochs=1,loss=dot,lr=0.1,seed=0", 0,
            os.path.join("o", "cells", "epochs_1,loss_dot,lr_0.1_s0"))
        assert {s for _, s, _ in default} == {0, 1, 2}

    def test_invalid_cell_refused_before_any_cell(self, tmp_path):
        rc = small_recall_rc(str(tmp_path), epochs=1, train_size=64, val_size=32)
        with pytest.raises(ValueError, match="inner_parts 10 exceeds"):
            cmd_ablate(rc, {"inner_parts": [1, 10], "seeds": [0]})
        assert not (tmp_path / "cells").exists()


class TestCmdBench:
    def test_unknown_layer_kind_refused(self):
        with pytest.raises(ValueError, match="^linear$"):
            H.bench_layer_once("linear", 16, 8, 2, inner_mod.InnerTrainConfig(),
                               np.random.default_rng(0))

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

    def test_failed_write_keeps_previous_table(self, tmp_path, monkeypatch):
        # the table is replaced whole or not at all
        rc = RunConfig(command="bench", out_dir=str(tmp_path), dim=8, heads=2)
        csv_path = cmd_bench(rc, lengths=(16,), reps=1, warmup=0)["csv"]
        before = read_bytes(csv_path)

        def failing(self, rows):
            raise OSError("disk full")
        monkeypatch.setattr(csv.DictWriter, "writerows", failing)
        with pytest.raises(OSError, match="disk full"):
            cmd_bench(rc, lengths=(16, 32), reps=1, warmup=0)
        assert read_bytes(csv_path) == before
        assert sorted(os.listdir(tmp_path)) == ["bench.csv", "manifest.json"]

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
        def buggy(vhat, v):
            # correct forward value, sign-flipped backward rule
            e = ad.sub(vhat, v)
            c = 1.0 / (e.value.shape[-2] * np.sqrt(e.value.shape[-1]))
            out = e.value * c

            def vjp(g):
                return (-g * c,)

            return e.tape.push(out, (e,), vjp, "buggy_mse_grad")

        monkeypatch.setattr(inner_mod.INNER_LOSSES["mse"], "grad", buggy)
        report = cmd_gradcheck(archs=("fc",), losses=("mse",))
        named = {(c["arch"], c["loss"]) for c in report["failures"]}
        assert ("fc", "mse") in named


class TestCmdLossreport:
    def test_all_losses_match(self, capsys):
        report = cmd_lossreport(seed=1)
        assert not report["failures"] and report["tol"] == 1e-6
        out = capsys.readouterr().out
        assert "mse" in out and "OK" in out

    def test_wrong_closed_form_is_a_mismatch(self, monkeypatch, capsys):
        mixed = inner_mod.INNER_LOSSES["mse"].mixed
        monkeypatch.setattr(inner_mod.INNER_LOSSES["mse"], "mixed",
                            lambda vhat, v: -mixed(vhat, v))
        report = cmd_lossreport(seed=1)
        assert report["failures"] == ["mse"]
        assert [r["ok"] for r in report["rows"]].count(False) == 1
        assert "MISMATCH" in capsys.readouterr().out


class TestCli:
    def test_train_and_exit_codes(self, tmp_path):
        from tttlab.cli import main
        code = main(["train", "--task", "recall", "--epochs", "1", "--seed", "1",
                     "--out", str(tmp_path / "r"), "--train-size", "128",
                     "--val-size", "32"])
        assert code == 0
        assert (tmp_path / "r" / "train.csv").exists()
        assert (tmp_path / "r" / "manifest.json").exists()

    def test_lossreport_exit(self, capsys):
        # the command checks at criterion 3's bar, and says so
        from tttlab.cli import main
        assert main(["lossreport"]) == 0
        assert "all 5 losses matched at tol 1e-06" in capsys.readouterr().out

    def test_lossreport_mismatch_exits_1(self, monkeypatch, capsys):
        import tttlab.cli as cli
        monkeypatch.setattr(cli, "cmd_lossreport",
                            lambda seed: {"rows": [], "failures": ["mse"], "tol": 1e-6})
        assert cli.main(["lossreport"]) == 1
        assert "mismatches at tol 1e-06: ['mse']" in capsys.readouterr().out

    def test_ablate_grid_file(self, tmp_path):
        from tttlab.cli import main
        cfg, grid = tmp_path / "cfg.json", tmp_path / "grid.json"
        cfg.write_text(small_recall_rc(str(tmp_path / "a"), epochs=1, train_size=64,
                                       val_size=32).to_json())
        grid.write_text(json.dumps({"inner_lr": [1.0], "seeds": [0]}))
        assert main(["ablate", "--config", str(cfg), "--grid", str(grid)]) == 0
        rows = read_csv(tmp_path / "a" / "ablate.csv")
        assert rows[0] == list(ABLATE_CSV_COLUMNS) and len(rows) == 2

    def test_gradcheck_failure_exits_1(self, monkeypatch, capsys):
        import tttlab.cli as cli
        cell = {"arch": "fc", "loss": "mse", "max_rel_err": 1.0}
        monkeypatch.setattr(cli, "cmd_gradcheck",
                            lambda rc: {"cells": [cell], "failures": [cell], "tol": 1e-4})
        assert cli.main(["gradcheck", "--threads", "1"]) == 1
        assert "1 cells FAILED at tol 0.0001" in capsys.readouterr().out

    def test_config_file_round_trip(self, tmp_path):
        from tttlab.cli import main
        rc = small_recall_rc(str(tmp_path / "from_cfg"), epochs=1, train_size=128,
                             val_size=32)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(rc.to_json())
        assert main(["train", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "from_cfg" / "train.csv").exists()

    @pytest.mark.parametrize("flag, threads", [
        ([], min(8, os.cpu_count() or 1)),
        (["--threads", "2"], 2),
    ])
    def test_gradcheck_threads_default(self, monkeypatch, flag, threads):
        # the cpu-count default applies only when the flag does not set threads
        import tttlab.cli as cli
        seen = []

        def fake_gradcheck(rc):
            seen.append(rc.threads)
            return {"cells": [], "failures": [], "tol": 1e-4}
        monkeypatch.setattr(cli, "cmd_gradcheck", fake_gradcheck)
        assert cli.main(["gradcheck", *flag]) == 0 and seen == [threads]

    def test_ablate_without_grid_runs_the_default_grid(self, monkeypatch, capsys):
        # `ablate` with no --grid passes grid=None, and the 54 default cells are all
        # validated before cmd_ablate runs
        import tttlab.cli as cli
        validate, checked, grids = RunConfig.validate, [], []

        def counting(self):
            checked.append((self.inner_loss, self.inner_lr, self.inner_epochs, self.seed))
            return validate(self)
        monkeypatch.setattr(RunConfig, "validate", counting)
        monkeypatch.setattr(cli, "cmd_ablate",
                            lambda rc, grid: grids.append(grid) or {"rows": [], "csv": "x"})
        assert cli.main(["ablate", "--out", "d"]) == 0
        assert grids == [None]
        assert len(checked) == 1 + 54 and len(set(checked[1:])) == 54
        assert "wrote 0 cells to x" in capsys.readouterr().out

    def test_ablate_seed_offsets_the_grid_seeds(self, monkeypatch):
        # `--seed 5` trains the default grid's seeds 5, 6 and 7
        import tttlab.cli as cli
        cells = []
        monkeypatch.setattr(cli, "cmd_ablate", lambda rc, grid: cells.extend(
            H.ablation_cells(rc, grid)) or {"rows": [], "csv": "x"})
        assert cli.main(["ablate", "--seed", "5", "--out", "d"]) == 0
        assert len(cells) == 54 and {cell.seed for _, cell in cells} == {5, 6, 7}

    # each `flag` row is a full command line
    @pytest.mark.parametrize("flag, message", [
        (["train", "--inner-lr", "nan"], "inner_lr must be float, got nan"),
        (["train", "--inner-parts", "99"], "inner_parts 99 exceeds the 17 tokens"),
        (["ablate", "--grid", '{"nonsense": [1]}'], "unknown RunConfig fields: ['nonsense']"),
        (["ablate", "--grid", '{"inner_lr": ["x"]}'], "inner_lr must be float, got 'x'"),
        (["ablate", "--grid", "no-such-grid.json"], "No such file or directory"),
        (["ablate", "--grid", '{"inner_lr": 1}'], "axis 'inner_lr' must be a list"),
        (["ablate", "--grid", '{"inner_lr": []}'], "ablation axis 'inner_lr' has no values"),
        (["ablate", "--grid", '{"seeds": []}'], "ablation axis 'seeds' has no values"),
        (["train", "--seed", "-1"], "RunConfig.seed must be at least 0, got -1"),
        (["lossreport", "--seed", "-1"], "argument --seed: '-1' is not an integer of at least 0"),
        (["gradcheck", "--threads", "0"], "argument --threads: '0' is not an integer of at least 1"),
        (["train", "--task", "recall", "--data", "cifar-bin"],
         "data_path 'cifar-bin' is read only by the cifar task"),
        (["ablate", "--grid", '{"seeds": [0, true]}'],
         "ablation axis 'seeds' holds integer offsets from seed, got [True]"),
    ])
    def test_bad_flag_value_is_a_usage_error(self, capsys, tmp_path, monkeypatch, flag,
                                             message):
        # a value the config rejects exits like an unknown flag: status 2, no traceback;
        # a bad ablation grid is refused before any cell runs or writes
        from tttlab.cli import main
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(flag)
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert message in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("doc, flags", [
        ({"inner_parts": 99}, ["--inner-parts", "2"]),
        ({"task": "cifar", "data_path": "gone", "depth": 1}, ["--data", None]),
    ])
    def test_flag_replaces_a_config_value_before_validation(self, tmp_path, tiny_cifar,
                                                             doc, flags):
        # the file's value that a flag overrides is never validated on its own
        from tttlab.cli import main
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**doc, "epochs": 1, "train_size": 8, "val_size": 4}))
        flags = [tiny_cifar if f is None else f for f in flags]
        assert main(["train", "--config", str(cfg), *flags,
                     "--out", str(tmp_path / "out")]) == 0

    @pytest.mark.parametrize("command", ["train", "ablate"])
    @pytest.mark.parametrize("text", ['["seed"]', "3"])
    def test_config_file_not_an_object_is_a_usage_error(self, capsys, tmp_path, command,
                                                        text):
        from tttlab.cli import main
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg)])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and "Traceback" not in err
        assert f"--config {cfg} holds no JSON object of RunConfig fields" in err

    def test_cifar_data_without_cifar_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        from tttlab.cli import main
        monkeypatch.chdir(tmp_path)
        (tmp_path / "empty").mkdir()
        with pytest.raises(SystemExit) as exc:
            main(["train", "--task", "cifar", "--data", "empty", "--epochs", "1",
                  "--train-size", "16", "--val-size", "8"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "data_path 'empty' holds no CIFAR-10" in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["empty"]

    def test_cifar_data_file_is_a_usage_error(self, capsys, tmp_path, monkeypatch):
        from tttlab.cli import main
        monkeypatch.chdir(tmp_path)
        (tmp_path / "test_batch.bin").write_bytes(bytes(3073))
        with pytest.raises(SystemExit) as exc:
            main(["train", "--task", "cifar", "--data", "test_batch.bin", "--epochs", "1",
                  "--train-size", "16", "--val-size", "8"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "CIFAR-10 path 'test_batch.bin' is not a directory" in err
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["test_batch.bin"]

    def test_cifar_data_missing_a_batch_file_is_a_usage_error(self, capsys, tmp_path,
                                                               monkeypatch):
        from tttlab.cli import main
        monkeypatch.chdir(tmp_path)
        (tmp_path / "part").mkdir()
        (tmp_path / "part" / "data_batch_1.bin").write_bytes(bytes(3073))
        with pytest.raises(SystemExit) as exc:
            main(["train", "--task", "cifar", "--data", "part", "--epochs", "1",
                  "--train-size", "16", "--val-size", "8"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert "data_path 'part' holds no CIFAR-10 (no data_batch_2.bin)" in err
        assert "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["part"]

    @pytest.mark.parametrize("flag, value", [
        ("--lengths", "16,abc"), ("--lengths", "16,0"), ("--lengths", "-4"),
        ("--lengths", ""), ("--reps", "0"), ("--reps", "x"), ("--warmup", "-1")])
    def test_bench_bad_number_is_a_usage_error(self, capsys, tmp_path, flag, value):
        from tttlab.cli import main
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--out", str(tmp_path / "b"), "--lengths", "16", flag, value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"argument {flag}: {value!r} is not" in err and "Traceback" not in err
        assert not (tmp_path / "b").exists()

    @pytest.mark.parametrize("command, flag, value", [
        ("train", "--threads", "2"), ("bench", "--threads", "2"),
        ("gradcheck", "--seed", "1"), ("gradcheck", "--out", "c"),
        ("lossreport", "--out", "c"), ("lossreport", "--threads", "2"),
        ("gradcheck", "--config", "c.json"), ("lossreport", "--config", "c.json")])
    def test_flag_the_command_does_not_read_is_a_usage_error(self, capsys, tmp_path,
                                                             monkeypatch, command, flag,
                                                             value):
        # a subcommand takes only the settings it reads
        from tttlab.cli import main
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, flag, value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["lossreport", "gradcheck"])
    @pytest.mark.parametrize("value", ["nan", "-1", "0", "inf", "abc"])
    def test_bad_tolerance_is_a_usage_error(self, capsys, tmp_path, monkeypatch, command,
                                            value):
        # no flag moves a check's bar (a bar of nan or -1 fails every check and inf
        # passes every one), so --tol is refused whatever its value
        from tttlab.cli import main
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main([command, "--tol", value])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert f"unrecognized arguments: --tol {value}" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    def test_bench_cli(self, tmp_path):
        from tttlab.cli import main
        code = main(["bench", "--out", str(tmp_path / "b"), "--lengths", "64,128",
                     "--reps", "1", "--warmup", "0"])
        assert code == 0
        assert (tmp_path / "b" / "bench.csv").exists()
