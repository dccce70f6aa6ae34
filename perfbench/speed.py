"""Host speed, sampled while an operation runs.

On a shared host the same code runs at speeds that change by up to 2x within
seconds and drift over minutes, as other tenants load the physical cores.
CPU time slows as much as wall time, so neither is steady from run to run.

A ``Probe`` samples the speed at which this process runs at the same moments
as the operation: a wall-clock timer fires every ``INTERVAL`` seconds, and
its handler times a fixed reference loop.  The loop mixes the program's two
kinds of interpreted work: tuple keys, dict stores and int arithmetic, as in
the group law and the block store, and calls on tiny numpy arrays, as in the
block products.  Either kind alone tracked the workloads' slowdowns less
closely than the mix.  The loop's nominal time over a sample's time is the
share of nominal speed at that moment; their mean over the samples is the
operation's speed factor.

The handler runs between bytecodes, so no sample is taken inside a long
native call such as a dense solve, and the handler runs late after one.  A
handler that runs more than ``NATIVE_GAP`` seconds after the previous one
ended marks the time between them as native.  Native calls slow down less
than the interpreter on a loaded host.  Over 27 ``invert-h3`` operations at
factors from 0.37 to 0.71, the dense solves took time proportional to about
the factor to the power -0.4 (least squares on the logs) to -0.5 (the power
that left the least spread between runs), where interpreted code takes time
proportional to the inverse of the factor.  So the interpreted time is
scaled by the factor, and the native time by the factor to the power
``NATIVE_ELASTICITY``.
"""

from __future__ import annotations

import math
import signal
from time import perf_counter

import numpy as np

INTERVAL = 0.02
NATIVE_GAP = 5 * INTERVAL
NATIVE_ELASTICITY = 0.5

# The reference loop's time in the handler on a quiet 2-vCPU Intel Xeon
# host (CPython 3.11, numpy 2.4); at that speed the factor is 1.
REF_S = 140e-6

_BLOCK = np.full((3, 3), 0.1 + 0.1j)


def _reference_loop() -> None:
    store: dict = {}
    acc = 0
    for i in range(300):
        store[(i, i & 7)] = acc
        acc += i * i % 7
    block = np.eye(3, dtype=complex)
    for _ in range(20):
        block = block @ _BLOCK * 0.1


class Probe:
    """Samples the reference loop's time while the ``with`` block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.overhead_s = 0.0  # time spent in the handler
        self.native_s = 0.0  # time in native calls the handler waited for
        self._busy = False

    def _sample(self, signum, frame) -> None:
        # A tick that lands inside the handler would count the same gap twice.
        if self._busy:
            return
        self._busy = True
        t0 = perf_counter()
        if t0 - self._last > NATIVE_GAP:
            self.native_s += t0 - self._last - INTERVAL
        _reference_loop()
        t1 = perf_counter()
        self.samples.append(t1 - t0)
        self.overhead_s += t1 - t0
        self._last = t1
        self._busy = False

    def __enter__(self) -> Probe:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._last = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        # One more sample, outside the block, so that none is empty and a
        # native call that ended the block is counted.
        overhead_s = self.overhead_s
        self._sample(None, None)
        self.overhead_s = overhead_s

    @property
    def factor(self) -> float:
        """Mean share of nominal speed over the samples."""
        return math.fsum(REF_S / s for s in self.samples) / len(self.samples)

    def nominal(self, seconds: float) -> float:
        """A time measured around the block at nominal speed."""
        return nominal(seconds, self.factor, self.overhead_s, self.native_s)


def nominal(seconds: float, factor: float, overhead_s: float, native_s: float) -> float:
    """``seconds`` less the handler's time, at nominal speed.

    The interpreted part is scaled by ``factor``, the native part by
    ``factor ** NATIVE_ELASTICITY``.
    """
    seconds -= overhead_s
    native_s = min(native_s, seconds)
    return (seconds - native_s) * factor + native_s * factor**NATIVE_ELASTICITY
