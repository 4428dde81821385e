"""Tests of the stolen-time correction.

Run from the root of a checkout:  python3 -m pytest -q perfbench
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from steal import Sampler, ticks, unstolen_share  # noqa: E402

# (busy, idle, steal) ticks of two CPUs, sampled at 0, 1 and 2 s
ZERO = [(0, 0, 0), (0, 0, 0)]


def test_one_busy_cpu_loses_its_steal():
    # second 1: the pass runs on CPU 0 and loses 0.2 s; idle CPU 1 shows
    # 0.05 s of steal, which is not charged to it
    s1 = [(80, 0, 20), (0, 95, 5)]
    # second 2: it moved to CPU 1 and lost nothing
    s2 = [(80, 100, 20), (100, 95, 5)]
    samples = [(0.0, ZERO), (1.0, s1), (2.0, s2)]
    assert abs(unstolen_share(samples, 0.0, 2.0) - 180 / 200) < 1e-9
    assert abs(unstolen_share(samples, 0.0, 1.0) - 0.8) < 1e-9
    # half of each window
    assert abs(unstolen_share(samples, 0.5, 1.5) - 90 / 100) < 1e-9


def test_two_busy_cpus_lose_steal_once():
    samples = [(0.0, ZERO), (1.0, [(80, 0, 20), (80, 0, 20)])]
    assert abs(unstolen_share(samples, 0.0, 1.0) - 0.8) < 1e-9


def test_no_steal_or_no_counters_keeps_wall():
    assert unstolen_share([(0.0, ZERO), (1.0, [(100, 0, 0), (0, 100, 0)])], 0, 1) == 1.0
    assert unstolen_share([(0.0, []), (1.0, [])], 0, 1) == 1.0
    assert unstolen_share([], 0, 1) == 1.0


def test_sampler_samples_until_the_block_ends():
    with Sampler() as sm:
        time.sleep(0.35)
    assert len(sm.samples) >= 4
    assert not sm._thread.is_alive()
    for _, row in sm.samples:
        assert row == [] or len(row) == len(ticks())
    assert 0 < sm.share(sm.samples[0][0], sm.samples[-1][0]) <= 1
