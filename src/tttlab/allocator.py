"""Allocator policy: freed step buffers stay mapped for the next step.

A training step allocates and frees the same multi-megabyte buffers every
time. By default glibc serves a buffer above its mmap threshold from a fresh
mapping and unmaps it on free, and it trims the top of the heap back to the OS
once more than the trim threshold lies free there. Either way the next step
faults the same memory in again, page by page. At import, on Linux with glibc,
this module raises the mmap threshold to glibc's maximum (32 MiB on 64-bit)
and the trim threshold to 1 GiB, so those buffers are reused from the heap.
Elsewhere it does nothing. It acts only on this process's own allocator.
"""

from __future__ import annotations

import ctypes
import os
import sys

# mallopt parameter numbers from glibc's <malloc.h>
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

SETTINGS = (("M_MMAP_THRESHOLD", M_MMAP_THRESHOLD, 32 << 20),
            ("M_TRIM_THRESHOLD", M_TRIM_THRESHOLD, 1 << 30))


def _glibc() -> bool:
    if not sys.platform.startswith("linux"):
        return False
    try:
        return (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc")
    except (ValueError, OSError):
        return False


def _apply() -> dict[str, int] | str:
    """Set the thresholds; returns the values glibc accepted, or "default"."""
    if not _glibc():
        return "default"
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return "default"
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    applied = {name: value for name, param, value in SETTINGS if mallopt(param, value) == 1}
    return applied or "default"


POLICY = _apply()
