"""Host-speed calibration for the gated wall-clock metrics.

On a shared virtual machine the same pure-Python work runs up to ~1.6x
slower for stretches of seconds to minutes, and one slow stretch can
cover a whole set of runs.  A fixed probe, read on the same CPUs between
the timed operations of a run, measures the host's speed; the run's wall
times are then scaled to the reference speed at which the probe takes
:data:`REFERENCE_S`.  The probe is the benchmark's own code and never
touches the program under test, so a change to the program cannot move it.

The probe does what the BDD kernel spends its time on: lookups of tuple
keys in a dict too large for the CPU caches.
"""

from __future__ import annotations

import os
import random
import statistics
from time import perf_counter
from typing import Iterable, List

#: Probe seconds per chunk at the reference host speed.  Only ratios of
#: scaled times mean anything; this puts them near this host's wall times.
REFERENCE_S = 0.09
#: Entries in the probe's table (~50 MB), and lookups per timed chunk.
TABLE_SIZE = 300_000
LOOKUPS = 100_000
#: Chunks per CPU behind each probe reading (their median).
CHUNKS = 6


class Probe:
    """A fixed memory-bound workload whose chunk time reads host speed."""

    def __init__(self) -> None:
        rng = random.Random(1)
        self._table = {
            (i % 181, rng.getrandbits(20), rng.getrandbits(20)): i
            for i in range(TABLE_SIZE)
        }
        self._keys = list(self._table)
        self._order = [rng.randrange(len(self._keys)) for _ in range(LOOKUPS)]
        self.readings: List[float] = []

    def _chunk(self) -> float:
        table, keys = self._table, self._keys
        start = perf_counter()
        total = 0
        for index in self._order:
            key = keys[index]
            total += table[key]
            if (key[0], key[2], key[1]) in table:
                total += 1
        return perf_counter() - start

    def read(self, cpus: Iterable[int]) -> float:
        """Median chunk seconds on each of ``cpus`` (the calling thread is
        pinned to each in turn), averaged over them; also kept in
        :attr:`readings`."""
        own = os.sched_getaffinity(0)
        per_cpu = []
        try:
            for cpu in sorted(cpus):
                os.sched_setaffinity(0, {cpu})
                per_cpu.append(statistics.median(
                    self._chunk() for _ in range(CHUNKS)
                ))
        finally:
            os.sched_setaffinity(0, own)
        reading = statistics.mean(per_cpu)
        self.readings.append(reading)
        return reading

    def factor(self) -> float:
        """Factor that takes this run's wall times to the reference host
        speed: the median reading of the run stands for its speed."""
        return REFERENCE_S / statistics.median(self.readings)
