"""The benchmark's arithmetic: percentiles, TPOT, SLO attainment, medians.

Kept free of timing and I/O so ``perfbench/tests`` can pin every rule down.
Percentiles use the repo's one rule (:func:`repro.evalbench.stats.percentile`,
linear interpolation between closest ranks).
"""

from __future__ import annotations

import resource
import statistics
from typing import Optional, Sequence, Tuple

from repro.evalbench.stats import percentile

__all__ = ["percentile", "tpot_from_bursts", "slo_attainment", "median", "peak_rss_mb"]


def tpot_from_bursts(events: Sequence[Tuple[float, int]]) -> Optional[float]:
    """Time per output token from a request's commit bursts.

    ``events`` are ``(seconds, num_tokens)`` pairs, one per committed burst
    (``ServingEngine.stream_metrics()["commit_events"]``).  TPOT is
    ``(last commit - first commit) / (tokens after the first burst)``: the
    first burst is what TTFT already charges.  ``None`` when nothing
    committed after the first burst (no inter-token time exists).
    """
    if len(events) < 2:
        return None
    later_tokens = sum(n for _, n in events[1:])
    if later_tokens <= 0:
        return None
    return (events[-1][0] - events[0][0]) / later_tokens


def slo_attainment(
    ttfts: Sequence[Optional[float]],
    tpots: Sequence[Optional[float]],
    sent: int,
    ttft_limit: float,
    tpot_limit: float,
) -> float:
    """Share of requests *sent* that met both the TTFT and the TPOT limit.

    ``ttfts[i]``/``tpots[i]`` describe the i-th request that finished; a
    request that failed or was never served has no entry and counts as a
    miss, because the denominator is ``sent``.  A ``None`` TTFT is a miss; a
    ``None`` TPOT (one burst only, so no inter-token gap exists) meets the
    TPOT limit.
    """
    if sent <= 0:
        raise ValueError("sent must be positive")
    met = sum(
        1
        for ttft, tpot in zip(ttfts, tpots)
        if ttft is not None and ttft <= ttft_limit and (tpot is None or tpot <= tpot_limit)
    )
    return met / sent


def median(values: Sequence[float]) -> float:
    """Median of a non-empty series."""
    return float(statistics.median(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
