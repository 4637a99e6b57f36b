"""Host-speed calibration: a fixed kernel timed between ops.

On a shared host the CPU speed a single thread gets drifts between regimes
for tens of seconds at a time; a fixed pure-Python kernel ranged from 110 to
170 ms on one 2-vCPU VM, and the same 25 s benchmark run gave 2.5 to 3.4
headline ops/s.  Timing this kernel between ops and scaling each op's time
by ``REFERENCE_NS / kernel_ns`` expresses it in reference milliseconds: the
time the op would take on a host where the kernel takes ``REFERENCE_NS``.

The kernel does not touch decpir, so a change to the package moves op times
and not the kernel.  It allocates no garbage-collected objects, so it never
triggers a collection of the package's objects; part of it is interpreter
work (integer arithmetic and list indexing) and part numpy (gather and XOR
reduce), the two kinds of work decpir's ops do.
"""

from __future__ import annotations

from time import perf_counter_ns

import numpy as np

# The kernel's time on the host the baseline was measured on; it fixes the
# unit, not the result of a comparison between two commits.
REFERENCE_NS = 1_200_000

_INTS = list(range(1 << 20, (1 << 20) + 4096))
_BITS = np.random.default_rng(0).integers(0, 2, 1 << 16, dtype=np.uint8)
_INDEX = np.random.default_rng(1).integers(0, 1 << 16, 1 << 16)
_STARTS = np.arange(0, 1 << 16, 3)


def kernel_ns() -> int:
    """Time one run of the calibration kernel."""
    start = perf_counter_ns()
    ints, acc = _INTS, 0
    for i in range(5000):
        acc = (acc + ints[(i * 40503) & 4095] * 31) & 0xFFFFFFFF
    np.bitwise_xor.reduceat(_BITS[_INDEX], _STARTS)
    return perf_counter_ns() - start
