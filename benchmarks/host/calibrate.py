"""Host-speed calibration: a fixed NumPy loop timed beside every op.

This box is a shared VM whose speed moves by up to +45% for minutes at
a time (a 15-minute series of 238 ``ref_hybrid`` ops: run medians
1.5-1.7 s, then 2.2-2.6 s for three minutes).  CPU time follows wall
time through those spells, so they are the host's, and no amount of
sampling inside a 20-second run averages them out: over ten runs the
quartile spread of the raw median op time reached 0.43.  The loop below
slows down with the ops (correlation 0.94-0.95 between run medians), so
every time this benchmark reports is

    measured seconds * REFERENCE_S / (calibration seconds beside it)

i.e. seconds at the reference box's undisturbed speed; the same series
then spreads 0.03-0.07.  Raw seconds are kept beside them in
``results.json``.  The loop is small-array NumPy arithmetic driven from
Python, like the code under test, and touches nothing under ``src/``:
no change to the repository can move it.
"""

from __future__ import annotations

import time

import numpy as np

#: Seconds ``calibrate()`` takes on the reference box (2-core Xeon
#: 2.1 GHz VM, Python 3.11.7, NumPy 2.4) when nothing disturbs it.
REFERENCE_S = 0.040

_POINTS = np.random.default_rng(0).normal(size=(64, 3))


def calibrate() -> float:
    t0 = time.perf_counter()
    x = _POINTS
    for _ in range(10_000):
        x = x * 0.999 + _POINTS * 0.001
        np.sqrt((x * x).sum(axis=1))
    return time.perf_counter() - t0
