"""Banded (Ukkonen) edit-distance computation.

The verification stage of a read mapper only needs to know whether the edit
distance is within the error threshold ``e``; restricting the dynamic
programming to a diagonal band of half-width ``e`` reduces the work from
``O(n*m)`` to ``O(n*e)`` and is what mrFAST-style verifiers do in practice.

Two implementations share one contract:

- :func:`banded_edit_distance` is the scalar per-pair DP.  It is the test
  oracle: the differential tests and the benchmark's recount of verified
  accepts compare against it, so it must never route through the batched code.
- :func:`banded_edit_distances` is the production path.  It verifies a whole
  list of pairs in one NumPy DP, row by row, vectorised across every pair of
  a length group and every diagonal of the band, and returns exactly what the
  scalar function returns for each pair.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

__all__ = ["banded_edit_distance", "banded_edit_distances", "within_threshold"]

_INF = 1 << 30

#: Pairs per DP pass of one length group.  Bounds the peak memory of a pass:
#: two ``(length + 2e, BLOCK_PAIRS)`` code-point matrices and a few
#: ``(2e + 1, BLOCK_PAIRS)`` rows.  2048-8192 ran equally fast on a 2-CPU host.
BLOCK_PAIRS = 4096


def banded_edit_distance(a: str, b: str, band: int) -> int:
    """Edit distance if it is at most ``band``, otherwise ``band + 1``.

    The returned value is exact whenever it is ``<= band``; values above the
    band are truncated to ``band + 1`` (the caller only needs the comparison).
    """
    n, m = len(a), len(b)
    if band < 0:
        raise ValueError("band must be non-negative")
    if abs(n - m) > band:
        return band + 1
    if n == 0:
        return m if m <= band else band + 1
    if m == 0:
        return n if n <= band else band + 1

    previous = {j: j for j in range(0, min(m, band) + 1)}
    for i in range(1, n + 1):
        current: dict[int, int] = {}
        lo = max(0, i - band)
        hi = min(m, i + band)
        if lo == 0:
            current[0] = i
            lo = 1
        ai = a[i - 1]
        for j in range(lo, hi + 1):
            cost = 0 if ai == b[j - 1] else 1
            best = previous.get(j - 1, _INF) + cost
            up = previous.get(j, _INF) + 1
            left = current.get(j - 1, _INF) + 1
            current[j] = min(best, up, left)
        if min(current.values()) > band:
            return band + 1
        previous = current
    result = previous.get(m, _INF)
    return result if result <= band else band + 1


def banded_edit_distances(
    reads: Sequence[str], segments: Sequence[str], band: int
) -> np.ndarray:
    """:func:`banded_edit_distance` of every ``(reads[k], segments[k])`` pair.

    Returns an int64 array in input order: the edit distance where it is at
    most ``band``, ``band + 1`` otherwise.  Pairs are grouped by
    ``(len(read), len(segment))`` and each group runs one banded DP in blocks
    of :data:`BLOCK_PAIRS` pairs.  Characters are compared as code points, so
    ``N`` matches ``N`` exactly as in the scalar DP.
    """
    if band < 0:
        raise ValueError("band must be non-negative")
    if len(reads) != len(segments):
        raise ValueError(
            f"{len(reads)} reads but {len(segments)} segments; they must pair up"
        )
    distances = np.full(len(reads), band + 1, dtype=np.int64)
    groups: dict[tuple[int, int], list[int]] = {}
    for index, (read, segment) in enumerate(zip(reads, segments)):
        groups.setdefault((len(read), len(segment)), []).append(index)
    for (n, m), indices in groups.items():
        if abs(n - m) > band:
            continue
        if n == 0 or m == 0:
            distances[indices] = n + m
            continue
        for start in range(0, len(indices), BLOCK_PAIRS):
            block = indices[start : start + BLOCK_PAIRS]
            distances[block] = _banded_block(
                [reads[k] for k in block], [segments[k] for k in block], n, m, band
            )
    return distances


def _code_points(strings: list[str], length: int, rows: int, offset: int) -> np.ndarray:
    """``(rows, len(strings))`` code points; string ``k`` fills column ``k``
    from row ``offset`` on, the other rows are 0."""
    flat = np.frombuffer(
        "".join(strings).encode("utf-32-le", "surrogatepass"), dtype="<u4"
    )
    matrix = np.zeros((rows, len(strings)), dtype=np.uint32)
    matrix[offset : offset + length] = flat.reshape(len(strings), length).T
    return matrix


def _banded_block(reads: list[str], segments: list[str], n: int, m: int, band: int) -> np.ndarray:
    """Banded DP of equal-shape pairs (``n, m >= 1``, ``|n - m| <= band``).

    Row ``i`` of the DP is held diagonal-major as ``row[d, k]`` = D[i][j] of
    pair ``k`` at column ``j = i + d - e``, so the diagonal move stays at
    ``d``, the up move comes from ``d + 1`` and the left move from ``d - 1``.
    """
    # A band wider than both strings cannot change the DP; cap it so the
    # rows stay small when ``band`` is large.
    e = min(band, max(n, m))
    width = 2 * e + 1
    count = len(reads)
    read_codes = _code_points(reads, n, n, 0)
    # Segment column j - 1 = i - 1 + d - e lives at row i - 1 + d.
    segment_codes = _code_points(segments, m, max(n, m) + 2 * e, e)
    diagonal = np.arange(width, dtype=np.int32)[:, None]

    # Row 0: D[0][j] = j.  Cells left of column 0 start at infinity and feed
    # only each other, so they stay there and column 0 follows from the up
    # move alone: D[i][0] = D[i-1][0] + 1 = i.  Cells right of column m feed
    # only cells right of column m, so neither side needs a mask per row.
    # A cell grows by at most 1 a row, so int32 holds _INF + n for n < 2**30.
    previous = np.full((width, count), _INF, dtype=np.int32)
    previous[e:] = diagonal[e:] - e
    current = np.empty_like(previous)
    mismatch = np.empty((width, count), dtype=bool)
    for i in range(1, n + 1):
        np.not_equal(segment_codes[i - 1 : i - 1 + width], read_codes[i - 1], out=mismatch)
        np.add(previous, mismatch, out=current)  # diagonal: D[i-1][j-1] + cost
        np.minimum(current[:-1], previous[1:] + 1, out=current[:-1])  # up: D[i-1][j] + 1
        # left: D[i][j] = min over j' <= j of t[j'] + (j - j'), a prefix minimum.
        current -= diagonal
        np.minimum.accumulate(current, axis=0, out=current)
        current += diagonal
        previous, current = current, previous
    return np.minimum(previous[m - n + e], band + 1)


def within_threshold(a: str, b: str, threshold: int) -> bool:
    """True if the edit distance between ``a`` and ``b`` is at most ``threshold``."""
    return banded_edit_distance(a, b, threshold) <= threshold
