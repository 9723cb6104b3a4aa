"""Order statistics for the benchmark's timings."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A tail percentile is reported only with this many samples beyond it.
SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """A tail percentile was asked of too few samples to mean anything."""


def percentile(values: Sequence[float], q: float) -> float:
    """The nearest-rank ``q``-th percentile of ``values``.

    The median (``q=50``) needs one sample.  A tail percentile needs at
    least :data:`SAMPLES_BEYOND` samples above it — 100 samples for p90,
    1000 for p99 — and raises :class:`TooFewSamples` otherwise.
    """
    if not 0 < q < 100:
        raise ValueError(f"percentile must lie strictly in (0, 100), got {q}")
    n = len(values)
    if n == 0:
        raise TooFewSamples("no samples")
    if q == 50:
        return float(statistics.median(values))
    if q > 50 and n * (100 - q) < SAMPLES_BEYOND * 100 - 1e-9:
        need = math.ceil(SAMPLES_BEYOND * 100 / (100 - q))
        raise TooFewSamples(f"p{q:g} needs >= {need} samples, got {n}")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * n))
    return float(ordered[rank - 1])
