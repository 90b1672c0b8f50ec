"""Timing summaries: a median, and percentiles that are reported only when
at least ten samples lie above them."""

from __future__ import annotations

import math
import statistics

MIN_BEYOND = 10
LADDER = (99, 95, 90, 75, 50)


class TooFewSamples(ValueError):
    pass


def beyond(n: int, pct: float) -> int:
    """Samples strictly above the nearest-rank `pct` percentile of n."""
    return n - max(1, math.ceil(pct * n / 100))


def percentile(samples, pct: float) -> float:
    """Nearest-rank percentile; refuses when fewer than MIN_BEYOND samples
    lie beyond it."""
    n = len(samples)
    if n == 0 or beyond(n, pct) < MIN_BEYOND:
        raise TooFewSamples(f"p{pct:g} of {n} samples has {beyond(n, pct) if n else 0} "
                            f"beyond it; need {MIN_BEYOND}")
    return sorted(samples)[max(1, math.ceil(pct * n / 100)) - 1]


def tail_level(n: int) -> int:
    """The highest ladder percentile that n samples support."""
    for pct in LADDER:
        if beyond(n, pct) >= MIN_BEYOND:
            return pct
    raise TooFewSamples(f"{n} samples support no percentile; need "
                        f"{2 * MIN_BEYOND}")


def median(samples) -> float:
    return statistics.median(samples)
