"""Dataset ingestion and synthetic tasks.

CIFAR-10 is read from its canonical binary layout: records of exactly 3073
bytes, one label byte then 3072 pixel bytes (three 32x32 channel planes,
row-major). The loader is bit-exact: re-serializing a loaded batch reproduces
the input bytes. The synthetic recall task plants (key, value) pairs in token
sequences to probe how well a layer compresses K/V context into weights.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

CIFAR_CLASSES = 10
_REC = 3073
_IMG = 32

# applied by the trainer, not the loader (keeps the loader bit-exact)
CIFAR_MEAN = np.array([0.4914, 0.4822, 0.4465], dtype=np.float32)
CIFAR_STD = np.array([0.2470, 0.2435, 0.2616], dtype=np.float32)


class FormatError(ValueError):
    """A binary file does not follow the canonical record layout."""


@dataclass
class Dataset:
    images: np.ndarray   # [n, 32, 32, 3] float32 in [0, 1]
    labels: np.ndarray   # [n] int64 in [0, classes)
    split: str = ""

    def __len__(self):
        return len(self.labels)


def _parse_records(raw: bytes, source: str) -> Dataset:
    if len(raw) % _REC != 0:
        raise FormatError(f"{source}: length {len(raw)} is not a multiple of {_REC}")
    rec = np.frombuffer(raw, dtype=np.uint8).reshape(-1, _REC)
    labels = rec[:, 0].astype(np.int64)
    if labels.size and labels.max() >= CIFAR_CLASSES:
        raise FormatError(f"{source}: label {labels.max()} out of range")
    planes = rec[:, 1:].reshape(-1, 3, _IMG, _IMG)
    images = planes.transpose(0, 2, 3, 1).astype(np.float32) / 255.0
    return Dataset(images=np.ascontiguousarray(images), labels=labels)


def load_cifar10(path: str, split: str = "train") -> Dataset:
    """Load CIFAR-10 binary batches from a directory, or one .bin file directly."""
    if os.path.isfile(path):
        with open(path, "rb") as fp:
            ds = _parse_records(fp.read(), path)
        ds.split = split
        return ds
    names = ([f"data_batch_{i}.bin" for i in range(1, 6)] if split == "train"
             else ["test_batch.bin"])
    chunks = []
    for name in names:
        batch_path = os.path.join(path, name)
        if not os.path.exists(batch_path):
            raise FormatError(f"missing CIFAR-10 batch file {batch_path}")
        with open(batch_path, "rb") as fp:
            chunks.append(fp.read())
    ds = _parse_records(b"".join(chunks), path)
    ds.split = split
    return ds


def serialize_cifar10(ds: Dataset) -> bytes:
    """Inverse of the loader; byte-identical for data that came from it."""
    n = len(ds)
    rec = np.empty((n, _REC), dtype=np.uint8)
    rec[:, 0] = ds.labels.astype(np.uint8)
    pix = np.rint(ds.images * 255.0).astype(np.uint8)
    rec[:, 1:] = pix.transpose(0, 3, 1, 2).reshape(n, -1)
    return rec.tobytes()


def crop_shift(image: np.ndarray, pad: int, dy: int, dx: int) -> np.ndarray:
    """Zero-pad by `pad`, then crop so content shifts by (dy, dx); (0, 0) is identity."""
    h, w = image.shape[:2]
    padded = np.zeros((h + 2 * pad, w + 2 * pad, image.shape[2]), dtype=image.dtype)
    padded[pad:pad + h, pad:pad + w] = image
    return np.ascontiguousarray(padded[pad - dy:pad - dy + h, pad - dx:pad - dx + w])


def augment(image: np.ndarray, seed, flip: bool = True, crop_pad: int = 4) -> np.ndarray:
    """Horizontal flip (p=0.5) and 4-pixel-pad random crop, deterministic per seed."""
    rng = np.random.default_rng(seed)
    out = image
    if flip and rng.random() < 0.5:
        out = out[:, ::-1, :]
    if crop_pad:
        dy, dx = rng.integers(-crop_pad, crop_pad + 1, size=2)
        out = crop_shift(out, crop_pad, int(dy), int(dx))
    return np.ascontiguousarray(out)


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
    val_book: np.ndarray   # [n_vals, dv]

    @property
    def dim(self) -> int:
        return self.tokens.shape[-1]

    @property
    def n_classes(self) -> int:
        return len(self.val_book)

    def __len__(self):
        return len(self.labels)


def synth_recall_task(seed: int, n: int, seq_len: int, d: int,
                      n_keys: int = 32, n_vals: int = 10,
                      dtype=np.float32) -> RecallTask:
    """Generate n recall sequences of seq_len tokens with key/value width d each."""
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

    tokens = np.zeros((n, seq_len, 2 * d), dtype=dtype)
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
                      key_book=key_book.astype(dtype), val_book=val_book.astype(dtype))


# ---------------------------------------------------------------------------
# procedurally generated stand-in written in the CIFAR binary format

def write_synthetic_cifar(dirpath: str, seed: int = 0, n_train: int = 5000,
                          n_test: int = 1000) -> None:
    """Generate a 10-class image set in the canonical binary layout.

    Classes are oriented gratings and blob patterns with per-sample color
    jitter, position shift and pixel noise; learnable but far from trivial.
    Used when no real CIFAR-10 binaries are available in the sandbox.
    """
    os.makedirs(dirpath, exist_ok=True)
    rng = np.random.default_rng(seed)
    per = [(f"data_batch_{i}.bin", n_train // 5) for i in range(1, 6)]
    per.append(("test_batch.bin", n_test))
    yy, xx = np.mgrid[0:_IMG, 0:_IMG].astype(np.float32)
    for name, count in per:
        rec = np.empty((count, _REC), dtype=np.uint8)
        for i in range(count):
            label = int(rng.integers(0, CIFAR_CLASSES))
            img = _synth_image(label, rng, yy, xx)
            rec[i, 0] = label
            rec[i, 1:] = img.transpose(2, 0, 1).reshape(-1)
        with open(os.path.join(dirpath, name), "wb") as fp:
            fp.write(rec.tobytes())


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
        cx = _IMG / 2 + ox, _IMG / 2 + oy
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


def find_cifar10(preferred: str | None = None) -> str | None:
    """Locate real CIFAR-10 binaries: explicit path, env var, or ./data."""
    candidates = [preferred, os.environ.get("TTTLAB_CIFAR10"),
                  os.path.join("data", "cifar-10-batches-bin")]
    for cand in candidates:
        if cand and os.path.exists(os.path.join(cand, "data_batch_1.bin")):
            return cand
    return None
