"""Dataset ingestion and synthetic tasks.

CIFAR-10 is read from a directory of its six batch files in the canonical
binary layout: records of exactly 3073 bytes, one label byte then 3072 pixel
bytes (three 32x32 channel planes, row-major). The loader is bit-exact:
re-serializing a loaded batch reproduces the input bytes. Augmentation is a
flip and a crop of the image zero-padded by CROP_PAD pixels. The synthetic
recall task plants (key, value) pairs in token sequences to probe how well a
layer compresses K/V context into weights.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

CIFAR_CLASSES = 10
_REC = 3073
CIFAR_SIDE = 32
CIFAR_FILES = tuple(f"data_batch_{i}.bin" for i in range(1, 6)) + ("test_batch.bin",)

# applied by the trainer, not the loader (keeps the loader bit-exact)
CIFAR_MEAN = np.array([0.4914, 0.4822, 0.4465], dtype=np.float32)
CIFAR_STD = np.array([0.2470, 0.2435, 0.2616], dtype=np.float32)


class FormatError(ValueError):
    """A binary file does not follow the canonical record layout."""


@dataclass
class Dataset:
    images: np.ndarray   # [n, 32, 32, 3] float32 in [0, 1]
    labels: np.ndarray   # [n] int64 in [0, classes)

    def __len__(self):
        return len(self.labels)


def _parse_records(raw: bytes, source: str) -> Dataset:
    if len(raw) % _REC != 0:
        raise FormatError(f"{source}: length {len(raw)} is not a multiple of {_REC}")
    rec = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _REC)
    labels = rec[:, 0].astype(np.int64)
    if labels.size and labels.max() >= CIFAR_CLASSES:
        raise FormatError(f"{source}: label {labels.max()} out of range")
    planes = rec[:, 1:].reshape(-1, 3, CIFAR_SIDE, CIFAR_SIDE)
    images = np.empty((len(rec), CIFAR_SIDE, CIFAR_SIDE, 3), dtype=np.float32)
    np.divide(planes.transpose(0, 2, 3, 1), np.float32(255), out=images)
    return Dataset(images=images, labels=labels)


def load_cifar10(path: str, split: str = "train") -> Dataset:
    """Load CIFAR-10 binary batches from a directory: `split` picks the five train
    batches or the test batch."""
    _refuse_non_directory(path)
    names = CIFAR_FILES[:5] if split == "train" else CIFAR_FILES[5:]
    chunks = []
    for name in names:
        batch_path = os.path.join(path, name)
        if not os.path.exists(batch_path):
            raise FormatError(f"missing CIFAR-10 batch file {batch_path}")
        with open(batch_path, "rb") as fp:
            chunks.append(fp.read())
    return _parse_records(b"".join(chunks), path)


def crop_shift(image: np.ndarray, pad: int, dy: int, dx: int) -> np.ndarray:
    """Zero-pad by `pad`, then crop so content shifts by (dy, dx); (0, 0) is identity."""
    h, w = image.shape[:2]
    padded = np.zeros((h + 2 * pad, w + 2 * pad, image.shape[2]), dtype=image.dtype)
    padded[pad:pad + h, pad:pad + w] = image
    return np.ascontiguousarray(padded[pad - dy:pad - dy + h, pad - dx:pad - dx + w])


CROP_PAD = 4


def augment(image: np.ndarray, seed) -> np.ndarray:
    """Horizontal flip (p=0.5) and 4-pixel-pad random crop, deterministic per seed."""
    rng = np.random.default_rng(seed)
    out = image
    if rng.random() < 0.5:
        out = out[:, ::-1, :]
    dy, dx = rng.integers(-CROP_PAD, CROP_PAD + 1, size=2)
    return crop_shift(out, CROP_PAD, int(dy), int(dx))


# ---------------------------------------------------------------------------
# synthetic associative-recall task

@dataclass
class RecallTask:
    """Sequences of planted (key, value) token pairs plus one query token.

    Each token is [key_vec | value_vec]; the final token repeats one planted
    key with a zeroed value slot, and the label is the codebook id of the
    value originally paired with that key.
    """

    tokens: np.ndarray     # [n, N, dk + dv]
    labels: np.ndarray     # [n] value codebook ids
    pair_keys: np.ndarray  # [n, N-1] key ids, for construction checks
    pair_vals: np.ndarray  # [n, N-1] value ids
    key_book: np.ndarray   # [n_keys, dk]
    val_book: np.ndarray   # [10, dv]

    @property
    def n_classes(self) -> int:
        return len(self.val_book)

    def __len__(self):
        return len(self.labels)


def synth_recall_task(seed: int, n: int, seq_len: int, d: int,
                      n_keys: int = 32) -> RecallTask:
    """Generate n float32 recall sequences of seq_len tokens with key/value width d each."""
    n_vals = 10                 # value codebook size: the task's ten classes
    rng = np.random.default_rng(seed)
    pairs = seq_len - 1
    if pairs < 1:
        raise ValueError("seq_len must be at least 2 (one pair plus the query)")
    if pairs > n_keys:
        raise ValueError("cannot plant more collision-free pairs than keys")
    key_book = rng.standard_normal((n_keys, d))
    key_book /= np.linalg.norm(key_book, axis=1, keepdims=True)
    val_book = rng.standard_normal((n_vals, d))
    val_book /= np.linalg.norm(val_book, axis=1, keepdims=True)

    tokens = np.zeros((n, seq_len, 2 * d), dtype=np.float32)
    labels = np.zeros(n, dtype=np.int64)
    pk = np.zeros((n, pairs), dtype=np.int64)
    pv = np.zeros((n, pairs), dtype=np.int64)
    for i in range(n):
        keys = rng.choice(n_keys, size=pairs, replace=False)
        vals = rng.integers(0, n_vals, size=pairs)
        tokens[i, :pairs, :d] = key_book[keys]
        tokens[i, :pairs, d:] = val_book[vals]
        q = rng.integers(0, pairs)
        tokens[i, pairs, :d] = key_book[keys[q]]
        labels[i] = vals[q]
        pk[i], pv[i] = keys, vals
    return RecallTask(tokens=tokens, labels=labels, pair_keys=pk, pair_vals=pv,
                      key_book=key_book.astype(np.float32),
                      val_book=val_book.astype(np.float32))


# ---------------------------------------------------------------------------
# procedurally generated stand-in in the CIFAR binary format

def write_synthetic_cifar(dirpath: str, seed: int = 0, n_train: int = 5000,
                          n_test: int = 1000) -> None:
    """Write the set of `synthetic_cifar` as the six batch files; the first four train
    files hold n_train // 5 images each and the fifth the rest."""
    os.makedirs(dirpath, exist_ok=True)
    for name, raw in zip(CIFAR_FILES, _synthetic_batches(seed, n_train, n_test)):
        with open(os.path.join(dirpath, name), "wb") as fp:
            fp.write(raw)


def synthetic_cifar(seed: int, n_train: int, n_test: int) -> tuple[Dataset, Dataset]:
    """A generated 10-class stand-in for CIFAR-10's train and test splits, used when no
    real binaries are found: oriented gratings and blob patterns with per-sample color
    jitter, position shift and pixel noise; learnable but far from trivial."""
    *train, test = _synthetic_batches(seed, n_train, n_test)
    return _parse_records(b"".join(train), "synthetic"), _parse_records(test, "synthetic")


def _synthetic_batches(seed: int, n_train: int, n_test: int):
    """The records of the six batch files, in CIFAR_FILES order, from one seeded stream."""
    rng = np.random.default_rng(seed)
    counts = [n_train // 5] * 4 + [n_train - 4 * (n_train // 5), n_test]
    yy, xx = np.mgrid[0:CIFAR_SIDE, 0:CIFAR_SIDE].astype(np.float32)
    for count in counts:
        rec = np.empty((count, _REC), dtype=np.uint8)
        for i in range(count):
            label = int(rng.integers(0, CIFAR_CLASSES))
            img = _synth_image(label, rng, yy, xx)
            rec[i, 0] = label
            rec[i, 1:] = img.transpose(2, 0, 1).reshape(-1)
        yield rec.tobytes()


def _synth_image(label: int, rng: np.random.Generator, yy, xx) -> np.ndarray:
    phase = rng.uniform(0, 2 * np.pi)
    ox, oy = rng.uniform(-6, 6, size=2)
    freq = 2 * np.pi / rng.uniform(6.0, 10.0)
    if label < 5:
        # five grating orientations
        ang = label * np.pi / 5 + rng.uniform(-0.08, 0.08)
        wave = np.sin(freq * ((xx - ox) * np.cos(ang) + (yy - oy) * np.sin(ang)) + phase)
        base = 0.5 + 0.35 * wave
    else:
        # five blob/checker layouts
        k = label - 5
        cx = CIFAR_SIDE / 2 + ox, CIFAR_SIDE / 2 + oy
        r2 = (xx - cx[0]) ** 2 + (yy - cx[1]) ** 2
        if k == 0:
            base = 0.5 + 0.4 * np.cos(np.sqrt(r2) * freq + phase)
        elif k == 1:
            base = 1.0 / (1.0 + r2 / rng.uniform(20, 60))
        elif k == 2:
            base = 0.5 + 0.4 * np.sign(np.sin(freq * (xx - ox)) * np.sin(freq * (yy - oy)))
        elif k == 3:
            base = np.clip(np.abs(xx - cx[0]) / 16.0, 0, 1)
        else:
            base = np.clip(np.abs(yy - cx[1]) / 16.0, 0, 1)
    color = rng.uniform(0.4, 1.0, size=3)
    img = base[:, :, None] * color[None, None, :]
    img = img + rng.normal(0, 0.12, size=img.shape)
    return (np.clip(img, 0, 1) * 255).astype(np.uint8)


def _refuse_non_directory(path: str) -> None:
    if os.path.exists(path) and not os.path.isdir(path):
        raise FormatError(f"CIFAR-10 path {path!r} is not a directory")


def missing_cifar10(path: str) -> str | None:
    """The first of the six CIFAR-10 batch files that dir `path` lacks, or None;
    FormatError when `path` exists and is no directory."""
    _refuse_non_directory(path)
    return next((name for name in CIFAR_FILES
                 if not os.path.exists(os.path.join(path, name))), None)


def find_cifar10(preferred: str | None = None) -> str | None:
    """Locate real CIFAR-10 binaries, all six batch files: explicit path, env var,
    or ./data."""
    candidates = [preferred, os.environ.get("TTTLAB_CIFAR10"),
                  os.path.join("data", "cifar-10-batches-bin")]
    for cand in candidates:
        if cand and os.path.isdir(cand) and missing_cifar10(cand) is None:
            return cand
    return None
