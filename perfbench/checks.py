"""Output checks and the small statistics rules the benchmark reports by.

Everything here is plain Python over plain values, so the tests can drive
each rule with hand-built inputs.
"""

from __future__ import annotations

import math
import statistics
from typing import Any, Mapping, Sequence

__all__ = [
    "SAMPLE_PAIRS",
    "sample_indices",
    "false_rejects",
    "false_accept_rate",
    "tail_percentile",
    "quartile_spread",
    "block_rates",
    "report_only",
]

#: Pairs per workload whose filter decision is checked against the exact
#: banded edit distance.
SAMPLE_PAIRS = 1024


def sample_indices(n_pairs: int, k: int = SAMPLE_PAIRS) -> "list[int]":
    """``k`` evenly spaced pair indices (all of them when there are fewer)."""
    if n_pairs <= k:
        return list(range(n_pairs))
    return [i * n_pairs // k for i in range(k)]


def false_rejects(
    reads: Sequence[str],
    segments: Sequence[str],
    accepted: Sequence[bool],
    error_threshold: int,
    indices: Sequence[int],
) -> "list[int]":
    """Sampled pairs within the threshold that the filter nevertheless rejected.

    A pre-alignment filter may let dissimilar pairs through, but must never
    drop a pair whose edit distance is at most ``error_threshold``.
    """
    from repro.align import banded_edit_distance

    if len(accepted) != len(reads) or len(reads) != len(segments):
        raise ValueError(
            f"decision vector has {len(accepted)} entries for "
            f"{len(reads)} reads and {len(segments)} segments"
        )
    return [
        i
        for i in indices
        if not accepted[i]
        and banded_edit_distance(reads[i], segments[i], error_threshold) <= error_threshold
    ]


def false_accept_rate(summary: Mapping[str, Any]) -> float:
    """Verified rejects over (verified rejects + filter rejects).

    Verified rejects are pairs the filter accepted that the exact verifier
    then refused; filter rejects never reach the verifier.  The denominator
    is every pair beyond the threshold that the run identified.
    """
    verified_rejects = int(summary["verified_rejects"])
    filter_rejects = int(summary["n_rejected"])
    total = verified_rejects + filter_rejects
    return verified_rejects / total if total else 0.0


def tail_percentile(
    samples: Sequence[float], q: float, min_beyond: int = 10
) -> "float | None":
    """The nearest-rank ``q`` percentile, or ``None`` when too few lie beyond it.

    A tail percentile is only reported when at least ``min_beyond`` samples
    are larger-ranked than it, so one slow sample cannot be the whole tail.
    """
    if not 0.0 < q < 1.0:
        raise ValueError("q must lie strictly between 0 and 1")
    n = len(samples)
    rank = math.ceil(q * n)
    if n == 0 or n - rank < min_beyond:
        return None
    return sorted(samples)[rank - 1]


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else 0.0


def block_rates(completions: Sequence["tuple[float, float]"], size: int) -> "list[float]":
    """Amount completed per second over each block of ``size`` consecutive completions.

    ``completions`` are ``(time, amount)``.  Block ``j`` runs from completion
    ``j * size`` to completion ``(j + 1) * size`` and counts the amounts of
    the ``size`` completions after its first; a trailing part block is
    dropped.  The median of these rates is steady against short host
    stalls, which a total-over-wall rate is not.
    """
    ordered = sorted(completions)
    rates = []
    for first in range(0, len(ordered) - size, size):
        last = first + size
        elapsed = ordered[last][0] - ordered[first][0]
        if elapsed > 0:
            rates.append(sum(amount for _, amount in ordered[first + 1 : last + 1]) / elapsed)
    return rates


def report_only(
    latencies: Sequence[float],
    requests_per_s: "float | None" = None,
    false_accept: "float | None" = None,
) -> "dict[str, tuple[float | None, str]]":
    """The printed and recorded figures that are not gated, as ``name -> (value, unit)``.

    Every workload reports its warm-call count and their in-run spread;
    ``requests_per_s`` and the p90 latency apply to ``serve-mix`` only and
    ``false_accept_rate`` to the verified workload only.
    """
    report: "dict[str, tuple[float | None, str]]" = {
        "requests": (float(len(latencies)), "count"),
        "latency_spread": (quartile_spread(latencies), "ratio"),
    }
    if requests_per_s is not None:
        p90 = tail_percentile(latencies, 0.9)
        report["requests_per_s"] = (requests_per_s, "1/s")
        report["latency_p90_ms"] = (None if p90 is None else 1e3 * p90, "ms")
    if false_accept is not None:
        report["false_accept_rate"] = (false_accept, "ratio")
    return report
