"""A fixed calibration kernel, timed next to every operation.

A shared host's speed drifts: a fixed pure-Python loop can take twice as
long for tens of seconds when other tenants load the host, so raw wall
times of the same code spread by 20-35 % between runs. The benchmark
therefore times a kernel that never changes just before and just after
each operation and divides the operation's wall time by the kernel's
mean chunk time. The mean, not the median, because an operation's time
adds up over the host's fast and slow spells, and so does the mean. A
chunk counts as at most STALL_CAP times the median chunk: the host
sometimes stops the virtual machine for 30-70 ms, and one such stall in
a 0.1 s sample would otherwise move the mean by half. The quotient,
times REFERENCE_CHUNK_S, is the operation's time in reference seconds:
its wall time on a host where one chunk takes REFERENCE_CHUNK_S, about
the typical speed of the 2-core virtual machine it was tuned on. The
gated end-to-end times are reference seconds; raw wall seconds are
printed beside them.

The kernel mixes the kinds of work ldlgen does and uses no ldlgen code,
so a change to the program moves the operation time and not the unit:
an interpreted loop filling a dict keyed by rounded floats (as the
memo tables are), `scipy.integrate.quad` over a Python integrand (as
`bath.gamma` does), a dense complex solve (as the T-matrix column
solves do), small Hermitian eigenproblems (as spectral decomposition
and the Choi checks do) and a JSON round trip (as the CLI does).
"""

import json
import math
import statistics
import time

import numpy as np
from scipy.integrate import quad

REFERENCE_CHUNK_S = 0.010
MIN_SECONDS = 0.1
STALL_CAP = 3.0
# Share of an operation's wall time spent calibrating after it.
SHARE = 0.1
# Outside the integrand's support [0, 1], so every integral is proper.
ENERGIES = (-1.0, -0.4, -0.1, 1.1, 1.3, 1.7, 2.1, 3.3)


def _bump(x):
    return math.exp(-1.0 / (x * (1.0 - x))) if 0.0 < x < 1.0 else 0.0


class Calibrator:
    def __init__(self):
        rng = np.random.default_rng(0)
        self.matrix = rng.standard_normal((200, 200)) + 1j * rng.standard_normal((200, 200))
        self.rhs = rng.standard_normal((200, 4))
        hermitian = rng.standard_normal((16, 9, 9))
        self.hermitian = hermitian + hermitian.transpose(0, 2, 1)
        self.document = [[0.1 * i, -0.3 * i] for i in range(1000)]
        self.chunk()  # warm caches and lazy imports before any sample counts

    def chunk(self):
        memo = {}
        for i in range(3000):
            memo[(i % 97, round(i * 0.37, 6))] = complex(i, 1.0)
        for e in ENERGIES:
            quad(lambda x, e=e: _bump(x) / (e - x), 0.0, 1.0, limit=200)
        np.linalg.solve(self.matrix, self.rhs)
        for h in self.hermitian:
            np.linalg.eigvalsh(h)
        json.loads(json.dumps(self.document))
        return len(memo)

    def sample(self, seconds=MIN_SECONDS):
        """Chunk times over at least `seconds` (and at least 3 chunks)."""
        times = []
        start = time.perf_counter()
        while len(times) < 3 or time.perf_counter() - start < seconds:
            t0 = time.perf_counter()
            self.chunk()
            times.append(time.perf_counter() - t0)
        return times

    def timed(self, call, reported=None):
        """Run call() between two samples; returns ((wall seconds,
        reference seconds), call's result).  `reported(result)`, if given,
        replaces the wall time of the call with a time the call measured
        itself."""
        before = self.sample()
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
        if reported is not None:
            elapsed = reported(result)
        after = self.sample(max(MIN_SECONDS, SHARE * elapsed))
        return (elapsed, elapsed * REFERENCE_CHUNK_S / capped_mean(before + after)), result


def capped_mean(times):
    cap = STALL_CAP * statistics.median(times)
    return statistics.mean(min(t, cap) for t in times)
