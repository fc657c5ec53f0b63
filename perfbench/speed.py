"""A reference kernel that measures how fast the host runs at the moment.

The benchmark shares a few cores of a host with other tenants, and their
load changes its speed by tens of percent over seconds to minutes.  CPU time
drifts with wall time, so it does not help: a raw wall time says as much
about the host as about the program.  ``run.py`` therefore times this kernel
just before it starts each worker and just after the worker ends, and
reports the worker's wall time in units of the mean of the two.

The kernel does each kind of work the workloads do, because the host's drift
slows kinds of work differently: interpreter and small-array numpy call
overhead (folds of 4^2 labels, the SDP, the n=5 statevector), and random
gathers from arrays of 4^9 and 4^10 entries (folds of 4^10 labels, which
reach past the caches).  It uses Python and numpy only, never cliffproxy, so
no change to the library moves it.  It runs in ``run.py``'s process, so its
arrays add nothing to a worker's peak memory.
"""

from __future__ import annotations

import functools
import statistics
import time

import numpy as np

SAMPLES = 7


@functools.cache
def _state():
    rng = np.random.default_rng(0)
    gathers = [
        (rng.random(size), rng.permutation(size), np.empty(size)) for size in (4**9, 4**10)
    ]
    return rng.random(16), gathers


def _kernel(small, gathers):
    table = {}
    for i in range(60000):
        table[i & 1023] = table.get(i & 1023, 0) + i
    for _ in range(4000):
        small = np.sqrt(small * 1.0000001 + 0.1)
    for (values, perm, out), passes in zip(gathers, (12, 3)):
        for _ in range(passes):
            np.take(values, perm, out=out)
            values, out = out, values


def reference_seconds() -> float:
    """Median time of one pass of the kernel, after a warm-up pass."""
    small, gathers = _state()
    _kernel(small, gathers)
    times = []
    for _ in range(SAMPLES):
        start = time.perf_counter()
        _kernel(small, gathers)
        times.append(time.perf_counter() - start)
    return statistics.median(times)
