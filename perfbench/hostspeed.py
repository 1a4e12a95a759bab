"""Host speed sampled while a pass runs, to take the host's drift out of its time.

On a shared virtual machine the cores run this process at a speed that
other tenants set: on the 2-core VM the benchmark was written on, the same
work took up to twice as long, switching within tenths of a second and
drifting over minutes, so raw pass times of one program spread by 20-40 %
between runs.  ``SpeedProbe`` measures that speed during the pass itself:
an interval timer (``SIGALRM``, handled in the main thread, no other thread
or process) runs a fixed reference kernel of about 1 ms every 20 ms.  The
kernel is an ensemble-style update: elementwise numpy on 100-member arrays
with Python scalar work between, the kind of work the simulation loops do
most.  It runs none of the package's code, so a change to the package
does not change it.  In trials it tracked the host's speed on all three
workloads better than a kernel of 3x3 algebra, ``eigvals`` and ``brentq``
or one of pure-Python list building.

Each sample gives the host's speed at that moment, ``REF_NOMINAL_S`` /
sample time.  A pass's normalised time is its own time (wall time minus
the time spent in the kernel) times the trimmed mean of those speeds: the
time the pass would take on a host on which one reference sample takes
``REF_NOMINAL_S``.  Speeds, not sample times, are averaged because work
done is the integral of speed over time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

REF_NOMINAL_S = 1e-3
INTERVAL_S = 0.02
ITERS = 20                 # kernel iterations per sample, about 1 ms
MIN_SAMPLES = 10           # a short pass is topped up to this many samples
TRIM = 0.2                 # share of samples dropped at each end

_THETAS = np.linspace(0.5, 2.0, 100)
_RATES = np.full(100, 0.005)


def reference_kernel() -> float:
    """One sample's fixed work; returns a value so nothing is optimised away."""
    th, acc = _THETAS.copy(), 0.0
    for k in range(ITERS):
        phi = -(0.3 + 0.001 * k) ** 2
        resid = th * phi - 0.1 * k
        th = th - (_RATES * resid) * phi
        r = 0.5 / np.maximum(th, 0.1)
        r_mean = r.mean()
        acc += float(((r - r_mean) ** 2).mean() + th.mean() + th.std())
    return acc


def trimmed_mean(values: list[float], trim: float = TRIM) -> float:
    """Mean without the lowest and highest ``trim`` share: a sample that a
    host pause or a garbage collection lands in says little about speed."""
    v = sorted(values)
    k = int(len(v) * trim)
    return statistics.fmean(v[k:len(v) - k])


class SpeedProbe:
    """Context manager: samples the reference kernel while the block runs.

    Only one probe may be active at a time, in the main thread.
    """

    def __init__(self, interval_s: float = INTERVAL_S):
        self.interval_s = interval_s
        self.samples: list[float] = []
        self._busy = False
        self._saved = None

    def _sample(self, *_) -> None:
        if self._busy:  # a signal that arrived while sampling is dropped
            return
        self._busy = True
        t0 = time.perf_counter()
        reference_kernel()
        self.samples.append(time.perf_counter() - t0)
        self._busy = False

    def __enter__(self) -> "SpeedProbe":
        self.samples = []
        self._saved = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval_s, self.interval_s)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._saved)

    @property
    def busy_s(self) -> float:
        """Time spent inside the timed block on sampling."""
        return sum(self.samples)

    def speed(self) -> float:
        """Trimmed mean host speed during the block, 1.0 when a sample takes
        ``REF_NOMINAL_S``; a block too short for ``MIN_SAMPLES`` samples is
        topped up right after it."""
        while len(self.samples) < MIN_SAMPLES:
            self._sample()
        return trimmed_mean([REF_NOMINAL_S / t for t in self.samples])
