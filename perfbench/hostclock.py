"""Work time on a shared machine, and the host speed to correct it by.

On a shared 2-core host the same code runs up to 1.5× slower or faster for
stretches of several seconds, because other tenants load the same cores and
caches; the benchmark's raw wall-clock figures swing with the neighbours by
more than any regression bound.  :class:`HostClock` does two things about
it:

* It is a clock of **work time**: it runs with ``time.perf_counter`` while
  the program works, stands still while the calibration kernel runs and
  inside :meth:`HostClock.paused`, and :meth:`HostClock.sleep` jumps it
  forward at once, so an open-loop replay skips its idle gaps instead of
  sleeping through them (the kernel and :attr:`HostClock.on_idle` run in
  the gap instead, so they never split a busy stretch).  It can be the
  serving engine's clock
  (``pipeline.engine_for(..., clock=clock)``) and the replay clock
  (``replay_trace(..., clock=clock)``).
* It measures the host's speed over the same stretch of time.
  :meth:`HostClock.tick`, called between units of work, times a fixed
  calibration kernel (interpreter work and float32 matrix work, the mix
  the workloads run, independent of ``repro``) until kernel time is
  ``duty`` of the other wall time.  :attr:`HostClock.factor` is
  ``REFERENCE_SECONDS / mean kernel time``: multiplying a duration measured
  in the same stretch by it gives the duration on a host where the kernel
  takes ``REFERENCE_SECONDS``.  Work that slows with the kernel then reads
  the same; a change to ``repro`` cannot change the kernel.
* Its :attr:`HostClock.reference` view (:class:`ReferenceClock`) runs at
  the current host speed over the reference speed, for an open-loop replay,
  whose queueing a correction after the fact cannot undo.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Optional

import numpy as np

#: Kernel time, in seconds, at the host speed the corrected figures refer
#: to: about the median kernel time on an idle 2-core x86-64 VM.  Any
#: constant works; both sides of a comparison use this one.
REFERENCE_SECONDS = 0.008

_RNG = np.random.default_rng(0)
_MATRIX = _RNG.standard_normal((256, 256)).astype(np.float32) / 16.0
_VECTOR = _RNG.standard_normal(1 << 16).astype(np.float32)
_TABLE = _RNG.standard_normal(1 << 21).astype(np.float32)  # 8 MB
_INDEX = _RNG.integers(0, 1 << 21, size=1 << 16)


def kernel() -> float:
    """A fixed mix of interpreter work, float32 matrix and vector work, and
    random reads from an 8 MB table.

    Its slowdown under load tracks the workloads' (decode and serving
    repetitions slowed by 0.85–0.95× its slowdown, correlation 0.93–0.97, on
    the 2-core VM it was tuned on; without the table reads the serving
    correlation was 0.93 and one whole run slowed 1.4× unseen).
    """
    table = {}
    total = 0
    for i in range(15000):
        total = (total + i * i) % 1000003
        table[i % 97] = total
    hidden = _MATRIX
    for _ in range(12):
        hidden = np.tanh(hidden @ _MATRIX)
    decay = _VECTOR
    for _ in range(20):
        decay = np.exp(-_VECTOR * _VECTOR)
    gathered = 0.0
    for _ in range(8):
        gathered += float(_TABLE[_INDEX].sum())
    return total + len(table) + float(hidden[0, 0]) + float(decay[0]) + gathered


def timed_kernel() -> float:
    """Run :func:`kernel` once with the collector off; its wall time in seconds."""
    collecting = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        kernel()
        return time.perf_counter() - start
    finally:
        if collecting:
            gc.enable()


class HostClock:
    """Work-time clock plus host-speed factor; see the module docstring.

    Args:
        duty: Kernel time kept at this share of the other wall time of
            each timed phase (from :meth:`begin`).
        warmup: Kernel runs at construction.
    """

    def __init__(self, duty: float = 0.2, warmup: int = 10, window: int = 16) -> None:
        self.duty = duty
        self.kernel_seconds = 0.0
        self.kernel_runs = 0
        #: Reference speed over wall speed, from the last ``window`` kernel runs.
        self.speed = 1.0
        self._recent: deque = deque(maxlen=window)
        self._reference = 0.0
        self.reference = ReferenceClock(self)
        #: Idle time skipped by :meth:`sleep`, in clock seconds.
        self.skipped_seconds = 0.0
        #: Called in every idle gap :meth:`sleep` skips, with the clock stopped.
        self.on_idle: Optional[Callable[[], None]] = None
        self._created = time.perf_counter()
        self._virtual = 0.0
        self._anchor = self._created
        for _ in range(warmup):
            self._calibrate()
        self.begin()

    def __call__(self) -> float:
        return self._virtual + time.perf_counter() - self._anchor

    def _fold(self) -> None:
        now = time.perf_counter()
        self._virtual += now - self._anchor
        self._reference += (now - self._anchor) * self.speed
        self._anchor = now

    def _calibrate(self) -> None:
        self._fold()
        seconds = timed_kernel()
        self.kernel_seconds += seconds
        self.kernel_runs += 1
        self._recent.append(seconds)
        self.speed = REFERENCE_SECONDS * len(self._recent) / sum(self._recent)
        self._anchor = time.perf_counter()

    def _use_idle_gap(self) -> None:
        self.tick()
        if self.on_idle is not None:
            with self.paused():
                self.on_idle()

    def begin(self) -> None:
        """Start a timed phase: the kernel's duty counts from here."""
        self._phase_start = time.perf_counter()
        self._phase_kernel = self.kernel_seconds

    def tick(self) -> None:
        """Between units of work: run the kernel until it has its duty in this phase."""
        while True:
            kernel = self.kernel_seconds - self._phase_kernel
            if kernel >= self.duty * (time.perf_counter() - self._phase_start - kernel):
                return
            self._calibrate()

    @property
    def factor(self) -> float:
        """Reference kernel time over the mean kernel time measured so far."""
        return REFERENCE_SECONDS * self.kernel_runs / self.kernel_seconds

    def sleep(self, seconds: float) -> None:
        """Skip ``seconds`` of idle time; the kernel and ``on_idle`` use the gap."""
        self._use_idle_gap()
        self._fold()
        self._virtual += max(0.0, seconds)
        self.skipped_seconds += max(0.0, seconds)

    @contextmanager
    def paused(self):
        """Stop the clock for the work inside the block."""
        self._fold()
        try:
            yield
        finally:
            self._anchor = time.perf_counter()


class ReferenceClock:
    """The host clock's work time at the reference host speed, for an open-loop replay.

    It moves at :attr:`HostClock.speed`, taken from the host clock's last
    kernel runs (which happen in idle gaps and between units of work, never
    inside a busy stretch), and stops and skips idle gaps with the host
    clock.  On a slow host a step then takes the reference time it would take
    at the reference speed, so a replay's queues and batches see the load
    they would see there: a correction applied after the replay cannot undo
    the extra queueing a slow host causes at a fixed arrival rate.
    """

    def __init__(self, host: HostClock) -> None:
        self._host = host
        #: Idle time skipped by :meth:`sleep`, in reference seconds.
        self.skipped_seconds = 0.0

    def __call__(self) -> float:
        host = self._host
        return host._reference + (time.perf_counter() - host._anchor) * host.speed

    def sleep(self, seconds: float) -> None:
        """Skip ``seconds`` of idle time; the kernel and ``on_idle`` use the gap."""
        host = self._host
        host._use_idle_gap()
        host._fold()
        host._reference += max(0.0, seconds)
        self.skipped_seconds += max(0.0, seconds)
