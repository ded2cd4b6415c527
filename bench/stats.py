"""Order statistics shared by the benchmark runner and ``compare.py``.

Stdlib only. Percentiles use the nearest-rank definition, so "p90 of 100
samples" is the 90th smallest value and exactly ten samples lie beyond
it — the rule every tail percentile here must satisfy.
"""

from __future__ import annotations

import math
import statistics
from typing import Dict, Sequence

#: A tail percentile is only reported when at least this many samples
#: lie beyond it; with fewer, it is an estimate of the maximum.
MIN_BEYOND = 10


def _rank(n: int, p: float) -> int:
    # Rounded first, so that e.g. p99.9 of 10,000 is rank 9990, not 9991.
    return math.ceil(round(p / 100.0 * n, 9))


def samples_beyond(n: int, p: float) -> int:
    """How many of *n* samples lie above the nearest-rank *p*-th percentile."""
    return n - _rank(n, p)


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank *p*-th percentile of *values*.

    Raises ``ValueError`` when fewer than :data:`MIN_BEYOND` samples lie
    beyond it (the median is exempt: it is never a tail estimate).
    """
    n = len(values)
    if n == 0:
        raise ValueError("percentile of no samples")
    if p != 50 and samples_beyond(n, p) < MIN_BEYOND:
        raise ValueError(
            f"p{p:g} of {n} samples has {samples_beyond(n, p)} beyond it "
            f"(need {MIN_BEYOND})"
        )
    ordered = sorted(values)
    return ordered[max(0, _rank(n, p) - 1)]


def summarize(values: Sequence[float]) -> Dict[str, float]:
    """Median, quartiles and relative spread of one metric's runs.

    Quartiles are ``statistics.quantiles(values, n=4)`` (the exclusive
    method); ``spread`` is their distance as a share of the median.
    """
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    spread = (q3 - q1) / abs(median) if median else 0.0
    return {"n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": spread}
