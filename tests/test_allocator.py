"""The allocator policy set at import keeps freed step buffers mapped."""

import resource

import numpy as np
import pytest

import tttlab
from tttlab import allocator


def minor_faults() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def churn(rounds: int) -> int:
    """Minor faults of `rounds` rounds of allocating ~50 MB as 2 MB arrays, then freeing them."""
    start = minor_faults()
    for _ in range(rounds):
        bufs = [np.ones(1 << 18) for _ in range(25)]
        del bufs
    return minor_faults() - start


@pytest.mark.skipif(allocator.POLICY == "default", reason="needs glibc on Linux")
def test_freed_buffers_are_reused_without_faults():
    assert tttlab.allocator.POLICY["M_MMAP_THRESHOLD"] == 32 << 20
    churn(1)
    # 5 rounds touch 64k fresh pages if the memory goes back to the OS each time
    assert churn(5) < 500
