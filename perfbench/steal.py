"""Wall time with the time the hypervisor stole from the CPUs taken out.

On a shared virtual machine the host takes a CPU away from the guest now
and then; a pass on that CPU is frozen meanwhile, and on a busy host its
wall time grows by a third.  /proc/stat counts that time per CPU as
"steal".  A ``Sampler`` reads the per-CPU counters every ``PERIOD``
seconds from a thread of the parent process while a child runs.  Over
an interval, ``share`` charges each CPU's steal in each sample window to
the work in proportion to that CPU's busy share of the window, and
returns B / (B + S), B the busy time and S the charged steal summed over
windows and CPUs; a time multiplied by it is the time the same work
takes on CPUs nobody steals from.  Windows are short so that a CPU is
either busy or idle for most of one: an idle CPU also shows steal (the
host is slow to wake it), which must not be charged to the pass.  A
pass that keeps k CPUs busy and loses s seconds on each gets wall - s,
so a later change that runs jobs in parallel is measured fairly.  Where
/proc/stat is missing the share is 1.
"""

from __future__ import annotations

import threading
import time

PERIOD = 0.1


def ticks() -> list[tuple[int, int, int]]:
    """(busy, idle, steal) clock ticks of each CPU since boot."""
    out = []
    try:
        with open("/proc/stat") as f:
            for line in f:
                if line.startswith("cpu") and line[3:4].isdigit():
                    v = [int(x) for x in line.split()[1:]]
                    # user nice system idle iowait irq softirq steal ...
                    out.append((v[0] + v[1] + v[2] + v[5] + v[6], v[3] + v[4],
                                v[7] if len(v) > 7 else 0))
    except (OSError, ValueError, IndexError):
        return []
    return out


def unstolen_share(samples, t0: float, t1: float) -> float:
    """B / (B + S) over [t0, t1] from (monotonic time, ticks()) samples."""
    busy = stolen = 0.0
    for (ta, a), (tb, b) in zip(samples, samples[1:]):
        overlap = min(tb, t1) - max(ta, t0)
        if overlap <= 0 or tb <= ta:
            continue
        frac = overlap / (tb - ta)
        for (b0, i0, s0), (b1, i1, s1) in zip(a, b):
            db, di, ds = b1 - b0, i1 - i0, s1 - s0
            busy += frac * db
            if db > 0:
                stolen += frac * ds * db / (db + di)
    if busy <= 0:
        return 1.0
    return busy / (busy + stolen)


class Sampler:
    """Samples ticks() every PERIOD seconds until the with-block ends."""

    def __init__(self):
        self.samples = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _sample(self):
        self.samples.append((time.monotonic(), ticks()))

    def _run(self):
        while not self._stop.wait(PERIOD):
            self._sample()

    def __enter__(self):
        self._sample()
        self._thread.start()
        return self

    def __exit__(self, *exc):
        self._stop.set()
        self._thread.join()
        self._sample()

    def share(self, t0: float, t1: float) -> float:
        return unstolen_share(self.samples, t0, t1)
