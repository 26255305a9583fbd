"""A clock that counts work, not wall time, on a host whose speed drifts.

On a shared virtual machine the speed of one vCPU can drift by 2x within
seconds, and the two vCPUs drift independently, so a solve timed twice can
differ by more than any change worth measuring.  ``HostClock`` tracks the
speed of the core the solve itself runs on: every ``PERIOD_S`` of wall time
a SIGALRM handler runs a fixed probe (small scipy FFTs and numpy elementwise
work, the same mix as the solves) and times it.  Each wall-time interval is
then weighted by the speed the probe saw at its end:

    work_s = sum over intervals of  dt_i * PROBE_REF_S / probe_i

so ``work_s`` is the time the code would have taken on a host where the probe
takes ``PROBE_REF_S``.  The probe's own time is excluded from both ``work_s``
and ``wall_s``.  The handler runs between bytecodes of the main thread, so it
never interrupts a numpy or scipy call and never touches the program's state.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.fft as sfft

PERIOD_S = 0.05
PROBE_REPS = 8
# Kernel time that defines one work second: the probe's median between the
# calls of a solve on a 2-vCPU Intel Xeon (2.0 GHz) VM in its faster state.
PROBE_REF_S = 75e-6

_RNG = np.random.default_rng(0)
_X = _RNG.standard_normal((32, 32))
_SYM = _RNG.standard_normal((32, 17))


def _kernel():
    y = sfft.irfftn(sfft.rfftn(_X, workers=1) * _SYM, s=_X.shape, workers=1)
    z = sfft.ifftn(sfft.fftn(y + 1j * _X, workers=1), workers=1)
    return float(np.sum(np.exp(-np.abs(z.real)) * _X))


def probe():
    """Median seconds of one kernel call over PROBE_REPS calls.

    The median, not the sum, so an interrupt during one call does not count.
    """
    times = []
    for _ in range(PROBE_REPS):
        t0 = time.perf_counter()
        _kernel()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class HostClock:
    """Context manager: ``wall_s`` and speed-weighted ``work_s`` of its body.

    ``probe_s`` is the time spent in the probes, which the body's process CPU
    time includes and the caller may subtract.
    """

    def __init__(self):
        self.wall_s = 0.0
        self.work_s = 0.0
        self.probe_s = 0.0
        self.probes = []
        self._last = 0.0
        self._busy = False

    def _tick(self, *_):
        if self._busy:  # an alarm that lands inside the probe waits for the next one
            return
        self._busy = True
        t0 = time.perf_counter()
        dt = t0 - self._last
        p = probe()
        self.probes.append(p)
        self.wall_s += dt
        self.work_s += dt * PROBE_REF_S / p
        self._last = time.perf_counter()
        self.probe_s += self._last - t0
        self._busy = False

    def __enter__(self):
        probe()  # warm the kernel's plans and caches before the first interval
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._last = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self._tick()  # the last partial interval, weighted by a probe of its own
        return False
