import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tttlab.data import (CROP_PAD, FormatError, augment, crop_shift, find_cifar10, load_cifar10,
                         missing_cifar10, synth_recall_task, synthetic_cifar,
                         write_synthetic_cifar)

# the six files of CIFAR-10's binary layout
CIFAR_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)] + ["test_batch.bin"]


def make_record(label, fill):
    return bytes([label]) + bytes([fill]) * 3072


def load_test_batch(dirpath, raw):
    """The records `raw` read back as a directory's test split."""
    (dirpath / "test_batch.bin").write_bytes(raw)
    return load_cifar10(str(dirpath), "test")


def serialize_cifar10(ds):
    """Inverse of the loader; byte-identical for data that came from it."""
    n = len(ds)
    rec = np.empty((n, 3073), dtype=np.uint8)
    rec[:, 0] = ds.labels.astype(np.uint8)
    pix = np.rint(ds.images * 255.0).astype(np.uint8)
    rec[:, 1:] = pix.transpose(0, 3, 1, 2).reshape(n, -1)
    return rec.tobytes()


class TestCifarLoader:
    def test_record_count(self, tmp_path):
        ds = load_test_batch(tmp_path, make_record(0, 10) * 100)
        assert len(ds) == 100 and ds.images.shape == (100, 32, 32, 3)

    def test_constructed_fixture(self, tmp_path):
        ds = load_test_batch(tmp_path, make_record(3, 255))
        assert ds.labels[0] == 3
        assert np.array_equal(ds.images[0], np.ones((32, 32, 3), dtype=np.float32))

    def test_round_trip_bytes(self, tmp_path):
        rng = np.random.default_rng(0)
        raw = rng.integers(0, 256, size=5 * 3073, dtype=np.uint8)
        raw[::3073] = rng.integers(0, 10, size=5, dtype=np.uint8)  # label bytes
        ds = load_test_batch(tmp_path, raw.tobytes())
        assert serialize_cifar10(ds) == raw.tobytes()

    def test_pixels_are_the_scaled_float32_formula(self, tmp_path):
        # converted in one pass into a C-contiguous array: no intermediate copies
        rng = np.random.default_rng(1)
        raw = rng.integers(0, 256, size=(256, 3073), dtype=np.uint8)
        raw[:, 0] %= 10
        ds = load_test_batch(tmp_path, raw.tobytes())
        planes = raw[:, 1:].reshape(-1, 3, 32, 32)
        want = planes.transpose(0, 2, 3, 1).astype(np.float32) / 255.0
        assert ds.images.dtype == np.float32 and ds.images.flags.c_contiguous
        assert np.array_equal(ds.images, want)

    def test_bad_length(self, tmp_path):
        with pytest.raises(FormatError, match="length 3072 is not a multiple of 3073"):
            load_test_batch(tmp_path, b"\x00" * 3072)

    def test_bad_label(self, tmp_path):
        with pytest.raises(FormatError, match="label 11 out of range"):
            load_test_batch(tmp_path, make_record(11, 0))

    def test_single_batch_file_refused(self, tmp_path):
        # the loader reads a directory of batch files, never one file
        (tmp_path / "test_batch.bin").write_bytes(make_record(3, 255))
        with pytest.raises(FormatError, match="not a directory"):
            load_cifar10(str(tmp_path / "test_batch.bin"), "test")

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_file_path_is_named_not_a_directory(self, tmp_path, split):
        write_synthetic_cifar(str(tmp_path), seed=1, n_train=5, n_test=1)
        path = str(tmp_path / "test_batch.bin")
        message = f"^CIFAR-10 path {re.escape(repr(path))} is not a directory$"
        with pytest.raises(FormatError, match=message):
            load_cifar10(path, split)
        with pytest.raises(FormatError, match=message):
            missing_cifar10(path)
        assert find_cifar10(path) is None

    def test_directory_split_layout(self, tmp_path):
        write_synthetic_cifar(str(tmp_path), seed=1, n_train=50, n_test=20)
        train = load_cifar10(str(tmp_path), "train")
        test = load_cifar10(str(tmp_path), "test")
        assert len(train) == 50 and len(test) == 20
        assert train.images.min() >= 0.0 and train.images.max() <= 1.0
        assert set(np.unique(train.labels)) <= set(range(10))

    @pytest.mark.parametrize("n_train", [3, 7, 14])
    def test_synthetic_train_size_not_a_multiple_of_five(self, tmp_path, n_train):
        # the first four batch files hold n_train // 5 images, the fifth the rest
        write_synthetic_cifar(str(tmp_path), seed=1, n_train=n_train, n_test=2)
        sizes = [(tmp_path / f"data_batch_{i}.bin").stat().st_size // 3073
                 for i in range(1, 6)]
        assert sizes == [n_train // 5] * 4 + [n_train - 4 * (n_train // 5)]
        assert len(load_cifar10(str(tmp_path), "train")) == n_train

    @pytest.mark.parametrize("n_train, n_test", [(40, 20), (43, 7)])
    def test_in_memory_synthetic_set_is_the_written_one(self, tmp_path, n_train, n_test):
        # the splits a run builds in memory equal the written set read back, bit for bit
        write_synthetic_cifar(str(tmp_path), seed=2, n_train=n_train, n_test=n_test)
        for built, split in zip(synthetic_cifar(2, n_train, n_test), ("train", "test")):
            loaded = load_cifar10(str(tmp_path), split)
            assert np.array_equal(built.images, loaded.images)
            assert np.array_equal(built.labels, loaded.labels)
            assert built.images.dtype == loaded.images.dtype

    def test_missing_batch_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_cifar10(str(tmp_path), "train")

    def test_find_needs_all_six_files_at_every_candidate(self, tmp_path, monkeypatch):
        # the explicit path, $TTTLAB_CIFAR10 and ./data each count only when whole
        monkeypatch.chdir(tmp_path)
        full, env = tmp_path / "data" / "cifar-10-batches-bin", tmp_path / "env"
        write_synthetic_cifar(str(full), seed=1, n_train=5, n_test=1)
        write_synthetic_cifar(str(env), seed=1, n_train=5, n_test=1)
        (env / "test_batch.bin").unlink()
        monkeypatch.setenv("TTTLAB_CIFAR10", str(env))
        assert find_cifar10(str(env)) == find_cifar10() == str(full.relative_to(tmp_path))
        for name in CIFAR_FILES:
            (full / name).rename(tmp_path / name)
            assert find_cifar10() is None, name
            (tmp_path / name).rename(full / name)


class TestSynthRecall:
    def test_same_seed_identical(self):
        a = synth_recall_task(7, 10, 9, 4)
        b = synth_recall_task(7, 10, 9, 4)
        assert np.array_equal(a.tokens, b.tokens)
        assert np.array_equal(a.labels, b.labels)

    def test_different_seed_differs(self):
        a = synth_recall_task(7, 10, 9, 4)
        b = synth_recall_task(8, 10, 9, 4)
        assert not np.array_equal(a.tokens, b.tokens)

    def test_empty(self):
        a = synth_recall_task(0, 0, 9, 4)
        assert len(a) == 0 and a.tokens.shape[0] == 0

    def test_sequence_without_a_pair_refused(self):
        with pytest.raises(ValueError, match=r"^seq_len must be at least 2 \(one pair plus "
                                             r"the query\)$"):
            synth_recall_task(0, 4, 1, 4)

    def test_more_pairs_than_keys_refused(self):
        with pytest.raises(ValueError, match="^cannot plant more collision-free pairs than keys$"):
            synth_recall_task(0, 4, 6, 4, n_keys=4)

    def test_planted_pairs_collision_free_and_consistent(self):
        task = synth_recall_task(3, 20, 9, 4)
        for i in range(20):
            keys = task.pair_keys[i]
            assert len(set(keys.tolist())) == len(keys)  # no key collisions
            # tokens actually carry the planted codebook rows
            assert np.allclose(task.tokens[i, :-1, :4], task.key_book[keys], atol=1e-6)
            vals = task.pair_vals[i]
            assert np.allclose(task.tokens[i, :-1, 4:], task.val_book[vals], atol=1e-6)
            # the query token repeats a planted key with a zeroed value slot
            qkey = task.tokens[i, -1, :4]
            matches = np.where(np.abs(task.key_book[keys] - qkey).max(1) < 1e-6)[0]
            assert len(matches) == 1
            assert np.all(task.tokens[i, -1, 4:] == 0.0)
            assert task.labels[i] == vals[matches[0]]

    def test_query_label_in_range(self):
        task = synth_recall_task(5, 50, 9, 4)
        assert task.labels.min() >= 0 and task.labels.max() < 10


class TestAugment:
    def test_is_a_flip_then_a_crop_shift(self):
        # by the seed's draws: a horizontal flip with p=0.5, then a shift in
        # [-CROP_PAD, CROP_PAD] on each axis; the seeds cover both flip outcomes
        img = np.random.default_rng(1).random((32, 32, 3)).astype(np.float32)
        flips = set()
        for seed in [(5, i) for i in range(8)]:
            rng = np.random.default_rng(seed)
            flip = rng.random() < 0.5
            dy, dx = rng.integers(-CROP_PAD, CROP_PAD + 1, size=2)
            want = crop_shift(img[:, ::-1] if flip else img, CROP_PAD, int(dy), int(dx))
            got = augment(img, seed=seed)
            assert got.flags.c_contiguous and np.array_equal(got, want)
            flips.add(flip)
        assert flips == {False, True}

    def test_deterministic_per_seed(self):
        img = np.random.default_rng(2).random((32, 32, 3)).astype(np.float32)
        a = augment(img, seed=(9, 1))
        b = augment(img, seed=(9, 1))
        assert np.array_equal(a, b)

    def test_zero_shift_crop_is_identity(self):
        img = np.random.default_rng(3).random((32, 32, 3)).astype(np.float32)
        assert np.array_equal(crop_shift(img, 4, 0, 0), img)

    def test_crop_shifts_content(self):
        img = np.zeros((8, 8, 1), dtype=np.float32)
        img[0, 0, 0] = 1.0
        out = crop_shift(img, 2, 1, 1)
        assert out[1, 1, 0] == 1.0 and out[0, 0, 0] == 0.0

    @given(st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_range_preserved(self, seed):
        img = np.random.default_rng(seed).random((32, 32, 3)).astype(np.float32)
        out = augment(img, seed=seed)
        assert out.min() >= 0.0 and out.max() <= 1.0 and out.shape == img.shape
