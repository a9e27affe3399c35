"""Host-speed probe: normalizes timings for the speed of a shared host.

The benchmark runs on a few cores of a shared host whose speed for one
thread changes by up to about 1.8x within seconds, as neighbours come and go,
while the process keeps computing (its CPU time tracks its wall time). Wall
times of the same code then spread by 20% or more from run to run.

The probe measures that speed while the workload runs. A timer signal
(``SIGALRM``) fires every ``interval`` seconds of wall time, and its handler
runs one chunk of a fixed kernel and times it. The handler runs
in the main thread between two bytecodes of the workload, so no second
thread or process competes with the workload. A normalized time is the
timed span minus the time spent in chunks, scaled by ``REF_CHUNK_S`` over
the mean chunk time within the span: the seconds the span would take on a
host where one chunk takes ``REF_CHUNK_S``.

The kernel mixes the kinds of work the package spends its time on (see
``kernel``). Changing it, or ``REF_CHUNK_S``, shifts every normalized
figure: do not, once results exist.

The normalization is not exact. Some contention slows the workload by a
quarter while the kernel's speed stays at its usual level, and in the
host's fastest state the kernel speeds up more than the workload does. Both
make a normalized time too long; too short ones are rarer and smaller. So a
run reports the lower quartile of its normalized passes (see run.py).
"""

from __future__ import annotations

import signal
import time

import numpy as np

# Seconds one chunk takes at the reference speed: about the mean chunk time
# during passes in the faster of the two usual states of the 2-core Xeon VM
# the baseline was recorded on.
REF_CHUNK_S = 1.0e-3


class _Point:
    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float):
        self.x = x
        self.y = y


def _scaled(p: _Point) -> float:
    return p.x * 2.0 + p.y


_PAIRS = [((i * 0.37) % 1.0, (i * 0.61) % 1.0) for i in range(500)]
_POINTS = [_Point(x, y) for x, y in _PAIRS[:300]]
_VALUES = [x for x, _ in _PAIRS[:120]]
_MATRIX = [[1.0 / (1 + i + j) + (10.0 if i == j else 0.0) for j in range(10)] for i in range(10)]
# 2**18 float objects (about 8 MB with the list) read in a fixed random
# order: the package's working set outgrows the core's private caches, so it
# slows with the shared cache's contention, and so must the kernel.
_rng = np.random.default_rng(0)
_TABLE = _rng.random(1 << 18).tolist()
_PICKS = _rng.integers(0, 1 << 18, 1500).tolist()


def kernel() -> float:
    """One chunk of fixed work; the result is returned so it is computed.

    It mixes what the package's hot paths do: float arithmetic in Python
    loops, attribute reads, calls and dict stores, small dense solves,
    ufuncs on short arrays, float formatting for CSV output, and reads
    scattered over a table larger than the core's private caches.
    """
    s = 0.0
    for _ in range(2):
        for x, y in _PAIRS:
            s += x * y - (x if x < y else y)
    d = {}
    for _ in range(2):
        for i, p in enumerate(_POINTS):
            d[i] = _scaled(p)
    a = np.array(_MATRIX)
    v = np.array(_VALUES[:10])
    for _ in range(8):
        s += float((a @ np.linalg.solve(a, v)).sum())
    w = np.array(_VALUES[:30])
    for _ in range(15):
        s += float(np.sqrt(w * w + 1.0).max()) + float(np.where(w > 0.5, w, 0.0).sum())
    for i in _PICKS:
        s += _TABLE[i]
    return s + d[0] + len(",".join(f"{x:.17g}" for x in _VALUES))


class Probe:
    """Times one kernel chunk per timer tick while active (a context manager).

    Only one probe can be active at a time in a process, and only in its
    main thread.
    """

    def __init__(self, interval: float = 0.02):
        self.interval = interval
        self.chunks: list[float] = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        t0 = time.perf_counter()
        kernel()
        self.chunks.append(time.perf_counter() - t0)

    def __enter__(self) -> "Probe":
        self.chunks = []
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    @property
    def probe_s(self) -> float:
        """Seconds spent in chunks."""
        return sum(self.chunks)

    @property
    def speed(self) -> float:
        """Host speed relative to the reference: below 1 is slower."""
        return REF_CHUNK_S * len(self.chunks) / self.probe_s

    def normalize(self, wall_s: float) -> float:
        """Seconds of a span of ``wall_s`` that held every chunk, less the
        chunks, at the reference speed."""
        if not self.chunks:
            raise ValueError("no probe chunk ran in the span: it is shorter than one interval")
        return (wall_s - self.probe_s) * self.speed
