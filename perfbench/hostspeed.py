"""How fast the host ran a process, so that times can be given at a
reference speed.

On a shared host other tenants slow a process by up to 2x for stretches of
seconds to minutes, in CPU time as much as in wall time, so neither clock
alone says how much work a process did.  Two references scale the times:

* Computation.  A :class:`SpeedSampler` interrupts the process at jittered
  intervals of about ``PERIOD_S`` (SIGALRM) and times a fixed pure-Python
  loop that does not touch the library.  The samples are spread uniformly
  over the timed stretch, so the mean of ``LOOP_REF_S / sample`` is its
  average speed relative to a host on which the loop takes ``LOOP_REF_S``,
  and ``(wall - sampling time) * mean(LOOP_REF_S / sample)`` is the
  stretch's time at reference speed.  The sampling costs about 7%.

* Start-up.  Starting an interpreter and importing (exec, loading shared
  libraries, reading and compiling modules) slows in ways the loop does not
  show: in one stretch of a busy host, set-up took 40% longer at the same
  loop speed.  Start-up phases are scaled instead by the median time of a
  reference process, ``python START_ARGV``, run between the measured
  processes: :func:`start_speed`.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

PERIOD_S = 0.005
LOOP = 12000
# About the loop's fastest time on the host the benchmark's bounds were set
# on (2 vCPUs, Python 3.11).  It only sets the scale of the corrected times.
# A reference measured in each run would not do: the fastest sample of a run
# itself drifts with the host's load, by 14% across five runs there.
LOOP_REF_S = 0.30e-3
START_ARGV = ("-c", "import numpy")
START_REF_S = 0.080       # about START_ARGV's time when the loop takes LOOP_REF_S


def _loop(n: int) -> int:
    s = 0
    for i in range(n):
        s += i
    return s


class SpeedSampler:
    """Times ``LOOP`` at jittered intervals while it is started."""

    def __init__(self, seed: int = 0):
        self.samples: list[float] = []
        self._rng = random.Random(seed)
        self._running = False
        self._previous = None

    def _arm(self) -> None:
        # Jitter keeps the samples from locking onto a periodic pattern in
        # the host's scheduling.
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S * (0.5 + self._rng.random()))

    def _tick(self, *_) -> None:
        t = time.perf_counter()
        _loop(LOOP)
        self.samples.append(time.perf_counter() - t)
        # A tick that was already pending when stop() began must not re-arm
        # the timer: its next signal would meet the restored handler, by
        # default one that ends the process.
        if self._running:
            self._arm()

    def start(self) -> None:
        self._running = True
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._arm()

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def summary(self, first: int = 0) -> dict:
        """The samples from index ``first`` on, as :func:`at_reference_speed` takes them."""
        s = self.samples[first:]
        if not s:
            raise ValueError("no speed samples were taken")
        return {"n": len(s), "sampling_s": sum(s),
                "mean_speed": sum(LOOP_REF_S / x for x in s) / len(s)}


def at_reference_speed(work_s: float, speed: dict) -> float:
    """``work_s``, a stretch's wall time less its sampling time, at reference speed."""
    return work_s * speed["mean_speed"]


def start_speed(start_s: list[float]) -> float:
    """The host's start-up speed relative to reference, from the wall times of
    several reference processes."""
    return START_REF_S / statistics.median(start_s)
