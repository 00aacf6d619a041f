"""Reference-speed seconds: host time corrected for the host's current speed.

On a shared host the same code runs up to 1.6x slower from one minute to
the next, and timing the code before and after a phase misses drift
inside it.  So the benchmark samples the host's speed *during* every phase:

* a ``SIGALRM`` interval timer fires every :data:`PERIOD_S` seconds;
* each tick runs :func:`snippet` on the main thread: a fixed piece of about
  1 ms of interpreter loop, dict churn and small numpy ops;
* the tick records the snippet's wall interval and its thread CPU time
  (``time.thread_time``), which excludes time spent waiting for the GIL
  behind the load generator's client threads;
* the tick also records how many CPU ticks passed on the machine's CPUs
  and how many of them the hypervisor stole since the previous tick
  (``/proc/stat``).  A thread spends no CPU time while its CPU is stolen,
  so the snippet cannot see steal, yet it stretches the wall time of
  everything that wanted to run.

A phase made of wall intervals then lasts, in reference-speed seconds::

    (wall time - snippet wall time inside it) * NOMINAL_SNIPPET_S
                                              / mean snippet CPU time inside it
                                              * (1 - stolen share inside it)

where the stolen share is stolen ticks over all ticks: the share of each
CPU's time the host took away, on average over the CPUs.
:func:`snippet` and :data:`NOMINAL_SNIPPET_S` belong to the benchmark and
never change, so numbers stay comparable across commits.  A factor above 1
means the host ran the snippet faster than nominal.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

#: Sampling period of the speed probe, in seconds.
PERIOD_S = 0.05

#: Frozen thread-CPU time of one :func:`snippet` run at reference speed
#: (median of 2,000 back-to-back runs on an idle 2-vCPU x86-64 container,
#: Python 3.11, numpy 2.4).  Never re-measure it: it defines the unit.
NOMINAL_SNIPPET_S = 0.0008

_LOOP_ITERATIONS = 4500
_DICT_ITERATIONS = 2200
_NUMPY_ITERATIONS = 150
_NUMPY_INPUT = np.linspace(0.0, 1.0, 256)


def snippet() -> float:
    """The fixed probe workload; its result only defeats dead-code removal."""
    total = 0
    for index in range(_LOOP_ITERATIONS):
        total += (index * index) % 7
    table: dict = {}
    for index in range(_DICT_ITERATIONS):
        key = index % 127
        table[key] = table.get(key, 0) + index
        if index % 5 == 0:
            table.pop((key * 3) % 127, None)
    values = _NUMPY_INPUT
    for _ in range(_NUMPY_ITERATIONS):
        values = np.sqrt(values * 1.0001 + 1.0)
    return total + len(table) + float(values.sum())


def cpu_ticks() -> Tuple[int, int]:
    """All and stolen CPU ticks of all CPUs since boot, from ``/proc/stat``
    (user, nice, system, idle, iowait, irq, softirq and steal)."""
    with open("/proc/stat") as handle:
        ticks = [int(value) for value in handle.readline().split()[1:9]]
    return sum(ticks), ticks[7]


@dataclass(frozen=True)
class Sample:
    """One probe run: its wall interval (``perf_counter``) and CPU time,
    and the CPU ticks and stolen CPU ticks since the previous run."""

    start: float
    end: float
    cpu: float
    ticks: int = 0
    stolen: int = 0


def _overlap(start: float, end: float, sample: Sample) -> float:
    return max(0.0, min(end, sample.end) - max(start, sample.start))


def _share(ticks: float, stolen: float) -> float:
    return stolen / ticks if ticks else 0.0


def _pool(intervals: Sequence[Tuple[float, float]],
          samples: Sequence[Sample]) -> List[Sample]:
    """The samples that overlap ``intervals``; all of them when none do."""
    inside = [sample for sample in samples
              if any(_overlap(start, end, sample) > 0 for start, end in intervals)]
    pool = inside or list(samples)
    if not pool:
        raise ValueError("no speed samples were taken")
    return pool


def speed_factor(intervals: Sequence[Tuple[float, float]],
                 samples: Sequence[Sample],
                 nominal: float = NOMINAL_SNIPPET_S) -> float:
    """Nominal snippet time over the mean CPU time of the samples that
    overlap ``intervals``, times the share of CPU time not stolen."""
    pool = _pool(intervals, samples)
    return (nominal / statistics.fmean(sample.cpu for sample in pool)
            * (1.0 - _share(sum(sample.ticks for sample in pool),
                            sum(sample.stolen for sample in pool))))


def stolen_share(intervals: Sequence[Tuple[float, float]],
                 samples: Sequence[Sample]) -> float:
    """Stolen over all CPU ticks, over the samples that overlap ``intervals``."""
    pool = _pool(intervals, samples)
    return _share(sum(sample.ticks for sample in pool),
                  sum(sample.stolen for sample in pool))


def snippet_wall(start: float, end: float, samples: Sequence[Sample]) -> float:
    """Wall time the probe took inside ``[start, end]``."""
    return sum(_overlap(start, end, sample) for sample in samples)


def reference_seconds(intervals: Sequence[Tuple[float, float]],
                      samples: Sequence[Sample],
                      nominal: float = NOMINAL_SNIPPET_S
                      ) -> Tuple[List[float], float]:
    """Reference-speed seconds of each interval, under one pooled factor.

    Each interval's wall time loses the probe's own wall time inside it and
    is scaled by :func:`speed_factor` over all ``intervals`` together.
    Returns ``(seconds per interval, factor)``.
    """
    factor = speed_factor(intervals, samples, nominal)
    return [(end - start - snippet_wall(start, end, samples)) * factor
            for start, end in intervals], factor


#: Operations (a request, a training step) last milliseconds while the host
#: drifts over seconds, so each one takes the speed factor of the samples
#: within this many seconds of it.
LOCAL_WINDOW_S = 1.0


def operation_seconds(operations: Sequence[Tuple[float, ...]],
                      samples: Sequence[Sample],
                      nominal: float = NOMINAL_SNIPPET_S) -> List[float]:
    """Reference-speed seconds of each short operation.

    An operation is ``(start, end)`` on the wall clock, or
    ``(start, end, cpu)`` when it runs alone on its thread and ``cpu`` is
    that thread's CPU time over it.  Like :func:`reference_seconds`, but
    each operation's factor comes from the samples that start within
    :data:`LOCAL_WINDOW_S` of its midpoint (all samples when none do).  A
    wall-clock operation loses the probe's wall time inside it and takes
    the whole factor; a CPU-clock operation loses the probe's CPU time
    inside it and takes only the snippet term, since neither steal nor
    preemption is in its CPU time.
    """
    if not samples:
        raise ValueError("no speed samples were taken")
    starts = np.array([sample.start for sample in samples])
    cpu, ticks, stolen = (np.cumsum([0.0] + [getattr(sample, name) for sample in samples])
                          for name in ("cpu", "ticks", "stolen"))
    seconds = []
    for start, end, *thread_cpu in operations:
        middle = (start + end) / 2
        low, high = np.searchsorted(starts, [middle - LOCAL_WINDOW_S,
                                             middle + LOCAL_WINDOW_S])
        if high == low:
            low, high = 0, len(samples)
        speed = nominal * (high - low) / (cpu[high] - cpu[low])
        if thread_cpu:
            probe_cpu = sum(sample.cpu * _overlap(start, end, sample)
                            / (sample.end - sample.start) for sample in samples)
            seconds.append((thread_cpu[0] - probe_cpu) * speed)
        else:
            seconds.append((end - start - snippet_wall(start, end, samples)) * speed
                           * (1.0 - _share(ticks[high] - ticks[low],
                                           stolen[high] - stolen[low])))
    return seconds


def replay_medians(units: Sequence[Sequence[float]]) -> List[float]:
    """Each operation's median over units that replay the same operations.

    ``units[u][i]`` is operation ``i``'s time in unit ``u``.  The speed
    factor corrects for the host's stolen share over a second or so, not
    for a stall of a few milliseconds; such a stall hits an operation in
    one replay but rarely in most of them, so the medians keep it out of a
    tail percentile.
    """
    if len({len(unit) for unit in units}) != 1:
        raise ValueError("the units did not replay the same operations: "
                         f"{[len(unit) for unit in units]} operations")
    return [statistics.median(times) for times in zip(*units)]


#: A reported percentile keeps at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile, refused unless the tail keeps enough samples.

    The value at rank ``ceil(fraction * n)`` has ``n - ceil(fraction * n)``
    samples beyond it; fewer than :data:`MIN_TAIL_SAMPLES` of them would make
    the percentile a single outlier, so that raises ``ValueError``.
    """
    ordered = sorted(values)
    rank = max(1, math.ceil(fraction * len(ordered) - 1e-9))
    if len(ordered) - rank < MIN_TAIL_SAMPLES:
        raise ValueError(f"p{fraction * 100:g} of {len(ordered)} samples keeps "
                         f"{len(ordered) - rank} beyond it; at least "
                         f"{MIN_TAIL_SAMPLES} are needed")
    return float(ordered[rank - 1])


def tail_fraction(count: int, fractions: Sequence[float] = (0.99, 0.98, 0.95, 0.9)
                  ) -> float:
    """The highest of ``fractions`` that :func:`percentile` may report for
    ``count`` samples."""
    for fraction in fractions:
        if count - math.ceil(fraction * count - 1e-9) >= MIN_TAIL_SAMPLES:
            return fraction
    raise ValueError(f"{count} samples are too few for a tail percentile")


class SpeedProbe:
    """Runs :func:`snippet` on every ``SIGALRM`` tick and keeps the samples.

    Signal handlers run on the main thread only, so the probe must be
    started from it.  Samples stay in memory until the run ends.
    """

    def __init__(self, period: float = PERIOD_S) -> None:
        self.period = period
        self.samples: List[Sample] = []
        self._previous_handler = None
        self._ticks = (0, 0)

    def _tick(self, _signum, _frame) -> None:
        # Reading /proc/stat falls inside the sample's wall interval, which
        # is subtracted from every phase, but outside its CPU time.
        start = time.perf_counter()
        (ticks, stolen), (last_ticks, last_stolen) = cpu_ticks(), self._ticks
        cpu = time.thread_time()
        snippet()
        cpu_end, end = time.thread_time(), time.perf_counter()
        self.samples.append(Sample(start, end, cpu_end - cpu, ticks - last_ticks,
                                   stolen - last_stolen))
        self._ticks = (ticks, stolen)

    def start(self) -> None:
        self._ticks = cpu_ticks()
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        if self._previous_handler is not None:
            signal.signal(signal.SIGALRM, self._previous_handler)

    def measure(self, intervals: Sequence[Tuple[float, float]]
                ) -> Tuple[List[float], float]:
        """:func:`reference_seconds` of ``intervals`` over this probe's samples."""
        return reference_seconds(intervals, list(self.samples))
