"""Correct measured times for the machine's changing speed.

On a core shared with other tenants the same Python code runs at two
speeds, switching every few tens of milliseconds to minutes: the slow state
takes about 1.8 times as long as the fast one (measured on a 2-vCPU KVM
guest, Intel Xeon, Python 3.11, numpy 2.4).  A pass of a few seconds mixes
the two in any proportion, so raw pass times of the same code spread by 40%
and more, and their medians move between runs minutes apart.

`SpeedProbe` samples the speed while a run goes on: every PERIOD_S seconds a
timer signal interrupts the program between two bytecodes and times a fixed
piece of work, a pure-Python loop and a few small-array numpy calls, like
the library's own inner loops (either part alone slows by a different
factor than the workloads do; the sum tracks them best).  A sample that
took d seconds says the program ran at REFERENCE_S / d of full speed since
the sample before it.  `corrected(start, end)` is the integral of that ratio
over the interval, with the probes' own time left out: the time the interval
would take on a machine where the probe work takes REFERENCE_S.  So the
reported times are in these reference seconds, a fixed unit; raw times are
printed beside them.  REFERENCE_S is a constant, about the probe's duration
at full speed on the guest above: a reference taken from each run's fastest
samples failed whenever a whole run stayed slow.  Applied to the same code
at different shares of slow time the corrected times spread a few percent,
where raw times spread tens of percent.

The probe also reads the program's own effect on the core, not only the
other tenants': right after large-array work (kkt_table's generation of
1000 x 1000 systems) it runs about 1.5 times slower than between small-array
calls at the same machine state, so such phases are corrected down more
than raw time would be.  For the same code the effect is the same in every
run; a change that alters a phase's memory traffic shifts it, so compare
the raw medians that run.py prints beside the corrected ones too.
"""
from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.005
PYTHON_STEPS = 400
NUMPY_CALLS = 12
REFERENCE_S = 45e-6


class SpeedProbe:
    """`with SpeedProbe() as probe:` samples the speed until the block
    ends; afterwards `probe.corrected(start, end)` converts an interval
    timed with `time.perf_counter` inside the block."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (start, duration)
        self._x = np.zeros(2)

    def _sample(self, _signum, _frame):
        perf_counter = time.perf_counter
        start = perf_counter()
        total = 0
        for i in range(PYTHON_STEPS):
            total += i * i
        x = self._x
        for _ in range(NUMPY_CALLS):
            x = x * 0.5 + np.sign(x + 0.1)
        # one append, so a sample is whole even if another signal cuts in
        self.samples.append((start, perf_counter() - start))

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self._build()
        return False

    def median_sample(self) -> float:
        """Median probe duration, for the log: REFERENCE_S over it is the
        run's typical speed."""
        return statistics.median(d for _, d in self.samples)

    def _build(self):
        """Cumulative full-speed time at every probe start and end: between
        the end of one probe and the start of the next the program ran at
        the next probe's ratio; during a probe it did no work of its own."""
        if len(self.samples) < 2:
            raise RuntimeError("speed probe took fewer than 2 samples; the run is too short to correct")
        starts, durations = np.asarray(sorted(self.samples)).T
        ends = starts + durations
        ratio = REFERENCE_S / durations
        gaps = starts[1:] - ends[:-1]
        points = np.empty(2 * len(starts))
        points[0::2], points[1::2] = starts, ends
        cumulative = np.zeros_like(points)
        cumulative[2::2] = np.cumsum(gaps * ratio[1:])
        cumulative[3::2] = cumulative[2::2]
        self._points, self._cumulative = points, cumulative
        self._first_ratio, self._last_ratio = float(ratio[0]), float(ratio[-1])

    def _at(self, t: float) -> float:
        points, cumulative = self._points, self._cumulative
        if t < points[0]:
            return (t - points[0]) * self._first_ratio
        if t > points[-1]:
            return cumulative[-1] + (t - points[-1]) * self._last_ratio
        return float(np.interp(t, points, cumulative))

    def corrected(self, start: float, end: float) -> float:
        return self._at(end) - self._at(start)


def spread(values: list[float]) -> float:
    """Interquartile range over median, for the log."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
