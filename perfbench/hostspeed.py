"""Stage times scaled to the speed the host runs at while they are taken.

A virtual machine on a shared host can change speed by up to 1.6x over
periods of seconds to minutes (seen on a 2-vCPU Xeon VM), and every kind of
work slows down with it; CPU time grows as much as wall time, so the time is
not lost to other processes of the VM.  A fixed reference kernel, timed right before and right after
each measured call, tells how fast the host is at that moment.  A scaled
time is the call's wall time times ``REF_NOMINAL_S`` over the mean of those
two reference times: the seconds the call would take on a host on which the
reference kernel takes ``REF_NOMINAL_S``.  The kernel's work and data are
fixed here and use numpy/scipy only, so no change to the program moves it.
"""
from __future__ import annotations

import gc
import statistics
import time
from contextlib import contextmanager

import numpy as np
from scipy import special
from scipy.optimize import linear_sum_assignment

REF_NOMINAL_S = 0.05
REF_REPEATS = 5

# The mix follows where the program spends its time: a KDE-like exp over
# points x knots, an assignment solve, sorting and special functions, and a
# loop in the interpreter.
_RNG = np.random.default_rng(20241015)
_X = _RNG.standard_normal(730)
_KNOTS = np.linspace(-4.0, 4.0, 512)
_COST = _RNG.random((200, 200))
_U = _RNG.random(20000)


def _kernel() -> float:
    dens = np.exp(-0.5 * np.subtract.outer(_X, _KNOTS) ** 2).sum(axis=0)
    _, cols = linear_sum_assignment(_COST)
    ranked = np.sort(_U * dens[0])
    z = special.ndtri(_U)
    g = special.gammaincinv(2.0, _U[:3000])
    acc = 0.0
    for i in range(20000):
        acc += i * 0.5
    return float(cols[0] + ranked[0] + z[0] + g[0] + acc)


def reference_s() -> float:
    """Wall time of ``REF_REPEATS`` runs of the reference kernel.

    One untimed run first brings its code and data back into the caches after
    the measured call, and the garbage collector is held off, so that the
    objects the program left behind do not land their collection in here.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        _kernel()
        t0 = time.perf_counter()
        for _ in range(REF_REPEATS):
            _kernel()
        return time.perf_counter() - t0
    finally:
        if gc_was_enabled:
            gc.enable()


class HostClock:
    """Times calls; with ``scaled`` each time is also scaled to the host speed.

    ``timed(samples)`` appends ``(wall_s, scaled_s)`` to ``samples``.  Without
    ``scaled`` no reference kernel runs and both numbers are the wall time.
    ``ref_s`` keeps every reference time taken.
    """

    def __init__(self, scaled: bool):
        self.scaled = scaled
        self.ref_s = []
        if scaled:
            reference_s()  # warm-up
            self.ref_s.append(reference_s())

    @contextmanager
    def timed(self, samples: list):
        t0 = time.perf_counter()
        yield
        wall = time.perf_counter() - t0
        if not self.scaled:
            samples.append((wall, wall))
            return
        self.ref_s.append(reference_s())
        samples.append((wall, wall * REF_NOMINAL_S / ((self.ref_s[-2] + self.ref_s[-1]) / 2)))

    def scale_by_run(self, wall: float) -> float:
        """``wall`` scaled by the median of every reference time taken so far."""
        return wall * REF_NOMINAL_S / statistics.median(self.ref_s)
