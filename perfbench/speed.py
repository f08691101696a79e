"""Host-speed probes: pass times rescaled to an uncontended core.

On a shared VM the same pass can take anywhere from 1x to about 2x its
quiet time, depending on what other tenants run on the same physical core,
and the mix changes within milliseconds and drifts over minutes.  CPU time
inflates with wall time (the vCPU is not descheduled, it runs slower), so
neither a longer run nor process time removes that swing.

While a ``Sampler`` runs, a SIGALRM handler runs a fixed micro-kernel every
``PERIOD_S`` seconds and records how long it took.  An interval's quiet-core
time is its wall time, less the probes' own time, times the mean speed
``REF_S / duration`` of the probes that fell in it.  ``REF_S`` is the
kernel's duration on an uncontended core of the reference host, a 2-vCPU
"Intel Xeon Processor" VM; it is a constant, because a run of 30 s is not
sure to see the host uncontended.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD_S = 0.02
REF_S = 88e-6   # the 0.5% quantile of the kernel's durations in quiet runs

_X = np.linspace(0.0, 1.0, 64)


def _kernel():
    """About 0.1 ms of small numpy calls and interpreter work on a quiet core."""
    s = 0.0
    for i in range(20):
        s += float(np.sin(_X * i).sum())
        for j in range(10):
            s += j
    return s


class Sampler:
    """Runs the probe kernel every PERIOD_S seconds inside ``with sampler:``."""

    def __init__(self):
        self.times = []      # perf_counter at each probe's start
        self.durations = []  # each probe's duration, s
        self._previous = None

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        _kernel()
        self.times.append(t0)
        self.durations.append(time.perf_counter() - t0)

    def __enter__(self):
        _kernel()  # first call outside the timed probes
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def within(self, t0, t1) -> list:
        """Durations of the probes that started in [t0, t1)."""
        return [d for t, d in zip(self.times, self.durations) if t0 <= t < t1]


def quiet_time(wall_s, durations) -> float:
    """``wall_s`` rescaled to an uncontended core, from the probes inside it."""
    work = wall_s - sum(durations)
    return work * float(np.mean(REF_S / np.asarray(durations)))
