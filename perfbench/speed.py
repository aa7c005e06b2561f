"""Host-speed tracking, so wall times from a shared machine compare.

The benchmark runs on machines whose speed drifts by tens of percent
over tens of seconds (other tenants, frequency scaling).  A fixed probe —
an interpreter loop plus a few small NumPy calls, about 2 ms — runs
between timed intervals, never inside one.  A wall time is reported at
the reference speed: multiplied by ``REF_PROBE_MS`` over the median
probe time around the moment it was measured.  A slower host slows the
probe and the program alike and cancels out; a slower program does not
touch the probe and shows in full.
"""

from __future__ import annotations

import bisect
import statistics
import time

import numpy as np

#: probe time on the reference host (2-core x86 VM); normalized times
#: are "ms as that host at its median speed would have measured them"
REF_PROBE_MS = 1.4
#: at most one probe per this many seconds
MIN_GAP_S = 0.1
#: probes within this many seconds of a moment describe its host speed
WINDOW_S = 1.5

_A0 = np.arange(4096.0)


def probe_ms() -> float:
    """Wall time of the fixed probe workload, in ms."""
    t = time.perf_counter()
    s = 0
    for i in range(30_000):
        s += i
    a = _A0
    for _ in range(30):
        a = np.sqrt(a + 1.0)
    return (time.perf_counter() - t) * 1e3


class SpeedTrack:
    """Probe samples over one run and the speed factor they imply."""

    def __init__(self):
        self.times: list[float] = []
        self.ms: list[float] = []
        #: total wall spent probing, so callers can take it out of a
        #: measured interval that had to contain probes (set-up)
        self.spent_s = 0.0

    def sample(self, force: bool = False) -> None:
        """Probe now, unless the last probe is younger than MIN_GAP_S."""
        now = time.perf_counter()
        if force or not self.times or now - self.times[-1] >= MIN_GAP_S:
            ms = probe_ms()
            self.ms.append(ms)
            self.times.append(now)
            self.spent_s += ms / 1e3

    def factor(self, t: float) -> float:
        """Reference speed over host speed at ``t`` (1.0 without probes)."""
        if not self.times:
            return 1.0
        lo = bisect.bisect_left(self.times, t - WINDOW_S)
        hi = bisect.bisect_right(self.times, t + WINDOW_S)
        if hi - lo < 3:  # too few nearby: take the three nearest
            i = bisect.bisect_left(self.times, t)
            lo, hi = max(0, i - 2), min(len(self.times), i + 2)
        return REF_PROBE_MS / statistics.median(self.ms[lo:hi])

    def normalize(self, ms: float, t: float) -> float:
        """``ms`` measured around ``t``, at the reference speed."""
        return ms * self.factor(t)

    def median_ms(self) -> float:
        return statistics.median(self.ms) if self.ms else 0.0
