"""Machine-speed reference for the benchmark's timings.

The benchmark shares its host with other work, and the host's speed drifts
by up to a factor of two within minutes; a plain loop shows the same drift.  So
every timed case is followed by ``reference_seconds()``: a fixed loop with
the same mix of work that dominates contactflows, driven from Python:
frozen dataclasses holding tiny arrays, small ufunc and LAPACK calls,
finiteness checks and an occasional ``array2string``.

A time ``t`` is reported as ``t * rescale(ref)`` = ``t * REF_SECONDS / ref``,
where ``ref`` is the median reference time over the pass of cases that
``t`` belongs to, or in a set-up probe its own reference time.  That reads
as seconds on a machine whose reference loop takes exactly REF_SECONDS,
close to the raw wall time on a quiet host; the raw times are kept in the
run record.  The loop runs after a full ``gc.collect()`` with the collector
off, so the objects the program leaves alive (a memo, say) do not slow it:
a change to the program moves ``t`` but not ``ref``.  The correction is
partial: when the host speeds up, the loop gains somewhat
more than the program does, so rescaled times still drift by up to about
a tenth between runs, against a third or more for raw times.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass

import numpy as np

REF_SECONDS = 0.025


@dataclass(frozen=True)
class _Point:
    x: np.ndarray
    z: float

    def __post_init__(self):
        object.__setattr__(self, "x", np.atleast_1d(np.asarray(self.x, dtype=float)))


def _reference_loop():
    a = np.arange(3.0)
    M = np.array([[2.0, 0.3], [0.3, 1.0]])
    v = np.array([1.0, 2.0])
    acc = 0.0
    for i in range(700):
        pt = _Point(a * 1.0000001, float(i))
        acc += float(pt.x @ a) + float(np.linalg.solve(M, v)[0])
        if not np.all(np.isfinite(np.concatenate([pt.x, [pt.z]]))):
            raise FloatingPointError("reference loop overflowed")
        if i % 10 == 0:
            np.array2string(v, precision=4)
    return acc


def reference_seconds() -> float:
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _reference_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def rescale(ref: float) -> float:
    """Factor that takes a time measured next to reference time ``ref`` to REF_SECONDS."""
    return REF_SECONDS / ref
