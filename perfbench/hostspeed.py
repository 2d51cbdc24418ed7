"""A fixed reference loop that tracks how fast the host runs Python.

The benchmark runs on shared hosts, where a fixed loop can run 30-70%
slower for minutes at a time because of other tenants' load.  Such a
stretch moves every time a run measures, and no median inside a run
removes it.  So the benchmark times this reference loop in short slices
spread over the run, in the same thread as the workload, and ``run.py``
reports every time sample scaled to a host on which one slice takes
``NOMINAL_SLICE_S``:

    reported time = measured time * NOMINAL_SLICE_S / median slice time

and rates inversely.  Each timed phase (a crawl plus classify, a
re-classify, a gateway pass) has its own median, over the slices taken
inside it, because the host's speed changes within seconds; a set-up
uses the burst of slices a repetition starts with.

A slice has two parts, because other tenants slow code down in two
ways: they take the core's speed (frequency, shared execution units) and
they take the shared cache.  The compute part walks a table small enough
to stay in the core's own cache; the memory part walks a table far
larger than that cache, in a scattered order.  A slice's time is the
geometric mean of the two.  On the 2-core host the benchmark was tuned
on, over four minutes of alternating program work and slices, the
compute part alone moved about 1.4 times as much as the program did,
the memory part about 0.6 times, and their geometric mean about as much
as the program (0.85-0.95 times), with a correlation of 0.89-0.94.

The loop uses no program code, so a change to the program does not
change the work a slice does.  It allocates no object the garbage
collector tracks, so it neither triggers nor shifts the program's
collections.  A slice runs between two operations of a timed loop (a
page visit, a verdict, a gateway request), while the program is idle,
and its time is taken out of every figure the loop measures.
"""

from __future__ import annotations

import math
import statistics
import time

#: Slice time on the host the benchmark was tuned on, in a quiet
#: stretch.  Only a unit: it scales every reported time by one constant.
NOMINAL_SLICE_S = 0.001
#: Measured time between two slices in a timed loop (about 4% overhead).
EVERY_S = 0.05
#: Slices taken back to back at each quiet point between repetitions.
BURST = 10

_COMPUTE_SIZE = 512
_COMPUTE_PASSES = 6
_COMPUTE_KEYS = [f"ref:{(i * 149) % _COMPUTE_SIZE:04d}"
                 for i in range(_COMPUTE_SIZE)]
_COMPUTE_TABLE = {key: index for index, key in enumerate(sorted(_COMPUTE_KEYS))}

_MEMORY_SIZE = 1 << 17
_MEMORY_STEP = 1500
_MEMORY_KEYS = [f"ref:{(i * 40503) % _MEMORY_SIZE:06d}"
                for i in range(_MEMORY_SIZE)]
_MEMORY_TABLE = {key: index for index, key in enumerate(sorted(_MEMORY_KEYS))}


def _walk(table: dict, keys: list, start: int, stop: int) -> int:
    acc = 0
    for index in range(start, stop):
        key = keys[index]
        acc = (acc * 31 + table[key] + len(key + "#")) & 0xFFFFFFF
    return acc


class Probe:
    """Slice times of one process, taken every ``EVERY_S`` when ticked."""

    def __init__(self) -> None:
        #: Each slice's time: geometric mean of its compute and memory parts.
        self.samples: list[float] = []
        self._offset = 0
        self._next_at = 0.0

    def _run(self) -> float:
        """One slice; returns its whole time, untimed warm-up included."""
        started = time.perf_counter()
        # An untimed first pass brings the small table into the cache.
        _walk(_COMPUTE_TABLE, _COMPUTE_KEYS, 0, _COMPUTE_SIZE)
        compute_start = time.perf_counter()
        for _ in range(_COMPUTE_PASSES):
            _walk(_COMPUTE_TABLE, _COMPUTE_KEYS, 0, _COMPUTE_SIZE)
        memory_start = time.perf_counter()
        _walk(_MEMORY_TABLE, _MEMORY_KEYS, self._offset,
              self._offset + _MEMORY_STEP)
        ended = time.perf_counter()
        self._offset = (self._offset + _MEMORY_STEP) % \
            (_MEMORY_SIZE - _MEMORY_STEP)
        self.samples.append(math.sqrt((memory_start - compute_start)
                                      * (ended - memory_start)))
        return ended - started

    def tick(self) -> float:
        """Run a slice if one is due; return the seconds it took (or 0).

        Timed loops call this between operations and take the returned
        time out of what they measure.
        """
        now = time.perf_counter()
        if now < self._next_at:
            return 0.0
        spent = self._run()
        self._next_at = now + spent + EVERY_S
        return spent

    def burst(self) -> None:
        """``BURST`` slices back to back, at a quiet point between timings."""
        for _ in range(BURST):
            self._run()

    def mark(self) -> int:
        """Where a timed phase starts, for :meth:`factor`."""
        return len(self.samples)

    def factor(self, since: int) -> float:
        """The host factor of the phase that started at ``since``.

        A phase with fewer than ``BURST`` slices of its own (a set-up, or
        a loop that takes none) uses the first ``BURST`` slices: the
        burst a repetition starts with.
        """
        window = self.samples[since:]
        return host_factor(window if len(window) >= BURST else self.samples[:BURST])


def host_factor(samples: list[float]) -> float:
    """How much slower than nominal the host ran: median slice / nominal."""
    return statistics.median(samples) / NOMINAL_SLICE_S
