"""Dense tensor primitives: the closed op set everything else is built from.

Values are plain numpy ndarrays, row-major contiguous, float32 for training
and float64 for gradient checks. Ops are pure functions; transpose
materializes. The kernels check nothing for finiteness: in debug mode
(`set_debug`) the autodiff tape checks every value it records and every
cotangent, named by op, so divergence regimes fail loudly instead of
propagating NaNs.

Grids are channels-last: [H, W, C] for a single sequence, [b, H, W, C]
batched. Depthwise 3x3 kernels are [3, 3, C] (shared) or [b, 3, 3, C]
(per-sample); a full 3x3 conv is `patches` (im2col) followed by a matmul.
"""

from __future__ import annotations

import math
import os
import struct

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view


class DimensionError(ValueError):
    """Operand shapes do not satisfy an op's contract."""


class GridError(ValueError):
    """A conv op needs a square-reshapeable H x W grid and did not get one."""


class NonFiniteError(FloatingPointError):
    """An op produced NaN/Inf while debug checks were enabled."""


_debug = False


def set_debug(enabled: bool) -> None:
    """Enable the tape's per-op finiteness checks (diagnoses divergence regimes)."""
    global _debug
    _debug = enabled


def _check(out: np.ndarray, op: str) -> np.ndarray:
    if _debug and not np.isfinite(out).all():
        raise NonFiniteError(f"{op} produced non-finite values")
    return out


class FlopCounter:
    """Multiply-add counter (1 multiply-add = 2 FLOPs), ticked by every primitive."""

    def __init__(self):
        self.total = 0


_counter: FlopCounter | None = None


class count_flops:
    """Context manager installing a FlopCounter; yields the counter."""

    def __enter__(self) -> FlopCounter:
        global _counter
        self._prev = _counter
        _counter = FlopCounter()
        return _counter

    def __exit__(self, *exc):
        global _counter
        _counter = self._prev
        return False


def _tick(n: int) -> None:
    if _counter is not None:
        _counter.total += int(n)


# ---------------------------------------------------------------------------
# matmul / softmax

def _matmul_shapes(a: np.ndarray, b: np.ndarray, op: str) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise DimensionError(f"{op} needs matrices, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise DimensionError(f"{op} inner extents differ: {a.shape} @ {b.shape}")


def fold_rows(a: np.ndarray) -> np.ndarray:
    """View [..., M, K] as one [rows, K] matrix (copies only if a is not contiguous)."""
    return a.reshape(-1, a.shape[-1])


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # A shared 2-D right operand folds a's leading axes into the GEMM rows: one
    # [rows, K] @ [K, N] call instead of one small product per stacked matrix.
    # Per-sample right operands keep numpy's broadcast loop.
    if b.ndim == 2 and a.ndim > 2:
        return (fold_rows(a) @ b).reshape(*a.shape[:-1], b.shape[-1])
    return np.matmul(a, b)


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix product with optional stacked leading axes on either operand."""
    _matmul_shapes(a, b, "matmul")
    out = _gemm(a, b)
    _tick(2 * out.size * a.shape[-1])
    return out


def linear(x: np.ndarray, w: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """x @ w + bias for a shared [K, N] weight: one GEMM, bias added in place."""
    _matmul_shapes(x, w, "linear")
    if w.ndim != 2 or bias.shape != w.shape[-1:]:
        raise DimensionError(f"linear needs a [K, N] weight and [N] bias, got "
                             f"{w.shape} and {bias.shape}")
    out = _gemm(x, w)
    out += bias
    _tick(2 * out.size * x.shape[-1] + out.size)
    return out


def softmax_rows(m: np.ndarray) -> np.ndarray:
    """Row-wise softmax over the last axis, stabilized by row-max subtraction."""
    shifted = m - m.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=-1, keepdims=True)
    _tick(4 * m.size)
    return out


# ---------------------------------------------------------------------------
# elementwise family

def sigmoid(x: np.ndarray) -> np.ndarray:
    """The tanh form 0.5 * (tanh(0.5 x) + 1): stable at both tails, every pass in
    place on one buffer. It counts no FLOPs; the tape ops that call it do."""
    out = np.multiply(x, 0.5)
    np.tanh(out, out=out)
    out += 1.0
    out *= 0.5
    return out


def _shape_compatible(a, b, op: str) -> None:
    # numpy broadcasting rules; the error names the op
    sa, sb = np.shape(a), np.shape(b)
    if sa == sb or np.size(a) == 1 or np.size(b) == 1:
        return
    try:
        np.broadcast_shapes(sa, sb)
    except ValueError:
        raise DimensionError(f"{op}: incompatible shapes {sa} vs {sb}") from None


# ---------------------------------------------------------------------------
# 3x3 convolution over token grids (zero padding, stride 1, no bias)

def _as_batched_grid(x: np.ndarray, op: str) -> tuple[np.ndarray, bool]:
    if x.ndim == 3:
        return x[None], True
    if x.ndim == 4:
        return x, False
    raise GridError(f"{op} needs an [H, W, C] or [b, H, W, C] grid, got {x.shape}")


def _pad_grid(x: np.ndarray) -> np.ndarray:
    """One ring of zeros around each [H, W] grid of a [b, H, W, C] batch."""
    b, h, w, c = x.shape
    xp = np.zeros((b, h + 2, w + 2, c), dtype=x.dtype)
    xp[:, 1:-1, 1:-1, :] = x
    return xp


def _tap_rows(xb: np.ndarray) -> np.ndarray:
    """Read-only [b, H, 3, 3, W*C] view of the padded grid: [:, i, u, v] is padded
    row i + u shifted v columns, so each tap's row is one contiguous W*C run."""
    b, h, w, c = xb.shape
    xp = _pad_grid(xb)
    sb, sh, sw, sc = xp.strides
    return as_strided(xp, (b, h, 3, 3, w * c), (sb, sh, sh, sw, sc), writeable=False)


def dwconv3x3(x: np.ndarray, k: np.ndarray) -> np.ndarray:
    """Depthwise 3x3 conv; kernel [3,3,C] shared or [b,3,3,C] per-sample.

    One contraction of the tap rows against the kernel tiled along W, which sums
    the nine taps in the same order as the shifted multiply-add loop.
    """
    xb, squeeze = _as_batched_grid(x, "dwconv3x3")
    b, h, w, c = xb.shape
    if k.shape[-1] != c or k.shape[-3:-1] != (3, 3):
        raise DimensionError(f"dwconv3x3 kernel {k.shape} does not match C={c}")
    rows = _tap_rows(xb)
    if c == 1:
        # At C = 1 the column shift and the channel step share one stride, and
        # einsum then unrolls the tap reduction in another order; the tap loop
        # keeps the order bit for bit and is as fast at this width.
        out = np.zeros((b, h, w), dtype=xb.dtype)
        prod = np.empty_like(out)
        for u in range(3):
            for v in range(3):
                tap = k[:, None, u, v] if k.ndim == 4 else k[u, v]
                out += np.multiply(rows[:, :, u, v], tap, out=prod)
    else:
        spec = "bhuvj,buvj->bhj" if k.ndim == 4 else "bhuvj,uvj->bhj"
        out = np.einsum(spec, rows, np.tile(k, w), dtype=xb.dtype, casting="same_kind")
    _tick(2 * 9 * xb.size)
    out = out.reshape(b, h, w, c)
    return out[0] if squeeze else out


def dwconv3x3_wgrad(x: np.ndarray, g: np.ndarray, per_sample: bool = True) -> np.ndarray:
    """Kernel gradient of dwconv3x3: correlate upstream grid g with x windows."""
    xb, _ = _as_batched_grid(x, "dwconv3x3_wgrad")
    gb, _ = _as_batched_grid(g, "dwconv3x3_wgrad")
    b, h, w, c = xb.shape
    xp = _pad_grid(xb)
    # each tap is one contraction of g with a shifted window of x, reduced over
    # the grid (per sample) or over batch and grid (shared kernel)
    if per_sample:
        out, spec = np.empty((b, 3, 3, c), dtype=xb.dtype), "bhwc,bhwc->bc"
    else:
        out, spec = np.empty((3, 3, c), dtype=xb.dtype), "bhwc,bhwc->c"
    for u in range(3):
        for v in range(3):
            np.einsum(spec, gb, xp[:, u:u + h, v:v + w, :], out=out[..., u, v, :])
    _tick(2 * 9 * xb.size)
    return out


def patches(x: np.ndarray) -> np.ndarray:
    """im2col: copy each 3x3 neighborhood of an [.., H, W, C] grid into one row of
    [.., H*W, 9*C], taps in (u, v) order."""
    xb, squeeze = _as_batched_grid(x, "patches")
    b, h, w, c = xb.shape
    win = sliding_window_view(_pad_grid(xb), (3, 3), axis=(1, 2))  # [b, H, W, C, 3, 3]
    cols = np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(b, h * w, 9 * c)
    return cols[0] if squeeze else cols


def unpatch(cols: np.ndarray, shape: tuple) -> np.ndarray:
    """Adjoint of patches: scatter-add the nine taps of each row back onto the grid."""
    *lead, h, w, c = shape
    taps = cols.reshape(*lead, h, w, 3, 3, c)
    xp = np.zeros((*lead, h + 2, w + 2, c), dtype=cols.dtype)
    for u in range(3):
        for v in range(3):
            xp[..., u:u + h, v:v + w, :] += taps[..., u, v, :]
    return np.ascontiguousarray(xp[..., 1:-1, 1:-1, :])


def flip_dw(k: np.ndarray) -> np.ndarray:
    """Rotate a depthwise kernel [..., 3, 3, C] 180 degrees spatially."""
    return np.ascontiguousarray(np.flip(k, axis=(-3, -2)))


# ---------------------------------------------------------------------------
# layout

def transpose(a: np.ndarray) -> np.ndarray:
    """Swap the last two axes, materialized contiguous."""
    return np.ascontiguousarray(np.swapaxes(a, -1, -2))


# ---------------------------------------------------------------------------
# serialization: flat binary container, magic "TTT1"

_MAGIC = b"TTT1"
_DTYPES = {0: np.dtype("<f4"), 1: np.dtype("<f8")}
_CODES = {np.dtype("float32"): 0, np.dtype("float64"): 1}


def write_tensor(fp, arr: np.ndarray) -> int:
    """Append one tensor record; returns the record's byte offset."""
    if arr.dtype not in _CODES:
        raise DimensionError(f"unsupported dtype {arr.dtype}")
    offset = fp.tell()
    fp.write(_MAGIC)
    fp.write(struct.pack("<BB", _CODES[arr.dtype], arr.ndim))
    for extent in arr.shape:
        fp.write(struct.pack("<I", extent))
    fp.write(np.ascontiguousarray(arr).astype(arr.dtype.newbyteorder("<")).tobytes())
    return offset


def _read_exact(fp, n: int) -> bytes:
    """The next n bytes of a record; fewer means the record was cut."""
    buf = fp.read(n)
    if len(buf) != n:
        raise ValueError("truncated tensor record")
    return buf


def read_tensor(fp) -> np.ndarray:
    """The record at fp's position; a record that is cut, or whose extents declare more
    bytes than the file holds after them, raises ValueError before its data is read."""
    magic = _read_exact(fp, 4)
    if magic != _MAGIC:
        raise ValueError(f"bad tensor magic {magic!r}")
    code, rank = struct.unpack("<BB", _read_exact(fp, 2))
    if code not in _DTYPES:
        raise ValueError(f"unknown dtype code {code}")
    shape = struct.unpack(f"<{rank}I", _read_exact(fp, 4 * rank))
    dtype = _DTYPES[code]
    size = math.prod(shape) * dtype.itemsize
    at = fp.tell()
    if size > fp.seek(0, os.SEEK_END) - at:
        raise ValueError("truncated tensor record")
    fp.seek(at)
    data = np.frombuffer(_read_exact(fp, size), dtype=dtype)
    return data.reshape(shape).astype(dtype.newbyteorder("="))
