"""SneakySnake pre-alignment filter.

SneakySnake (Alser et al., Bioinformatics 2020) reformulates approximate
string matching as a *single net routing* problem: the pair defines a
``(2e+1) x n`` "chip maze" whose row ``i`` marks obstacles (mismatches) along
diagonal ``i - e``; the signal must travel from the first to the last column,
moving freely along obstacle-free cells of any row and paying one unit each
time it must pass through an obstacle column.  The minimum number of paid
columns lower-bounds the edit distance, so comparing it with the threshold
never causes a false reject.

The optimal routing can be computed greedily: from the current column, find
the diagonal with the longest run of obstacle-free cells, travel along it and
pay one unit to cross the next column.  Both paths precompute the distance
to the next obstacle at every column (one ``minimum.accumulate`` segment scan
over diagonals — no per-column Python loop) and then walk greedily, stopping
once the estimate exceeds the threshold.  The scalar path
(:meth:`SneakySnakeFilter.estimate_edits_codes`) does this for one pair's
neighborhood map.  The batch path (:meth:`SneakySnakeFilter.estimate_edits_words`)
builds the chip maze bit-parallel from the packed word arrays
(:func:`repro.filters.packed.neighborhood_lanes`) and advances all pairs'
walks in lockstep.
"""

from __future__ import annotations

import numpy as np

from .base import PreAlignmentFilter
from .native import DEFAULT_KERNEL_TIER, resolve
from .packed import neighborhood_lanes, unpack_lanes
from .shouji import neighborhood_map

__all__ = ["SneakySnakeFilter", "sneakysnake_kernel"]


def _longest_free_runs(obstacles: np.ndarray) -> np.ndarray:
    """Longest obstacle-free run starting at each column, over all diagonals.

    ``obstacles`` is ``(n_pairs, n_diagonals, n)`` (non-zero = obstacle); the
    result is ``(n_pairs, n)`` int32.  The per-diagonal distance to the next
    obstacle is a reversed ``minimum.accumulate`` of the obstacle positions —
    a single C-level segment scan instead of a Python loop over columns.
    """
    n = obstacles.shape[-1]
    columns = np.arange(n, dtype=np.int32)
    obstacle_pos = np.where(obstacles != 0, columns, np.int32(n))
    next_obstacle = np.minimum.accumulate(obstacle_pos[..., ::-1], axis=-1)[..., ::-1]
    return (next_obstacle - columns).max(axis=1)


def sneakysnake_kernel(
    read_words: np.ndarray,
    ref_words: np.ndarray,
    length: int,
    error_threshold: int,
) -> np.ndarray:
    """Pure-NumPy SneakySnake estimates for a batch of packed pairs.

    The registered reference implementation of the ``sneakysnake_kernel``
    native pair: the chip maze is built bit-parallel from the word arrays and
    routed in lockstep, returning int32 estimates bit-identical to the Numba
    twin's per-pair greedy walk.
    """
    flt = SneakySnakeFilter(error_threshold)
    lanes = neighborhood_lanes(read_words, ref_words, length, error_threshold)
    return flt._route(_longest_free_runs(unpack_lanes(lanes, length)), length)


class SneakySnakeFilter(PreAlignmentFilter):
    """SneakySnake: greedy single-net-routing filter."""

    name = "SneakySnake"

    def __init__(self, error_threshold: int):
        super().__init__(error_threshold)

    def estimate_edits_codes(self, read_codes: np.ndarray, ref_codes: np.ndarray) -> int:
        nmap = neighborhood_map(read_codes, ref_codes, self.error_threshold)
        if nmap.shape[1] == 0:
            return 0
        return int(self._route(_longest_free_runs(nmap[np.newaxis]), nmap.shape[1])[0])

    def estimate_edits_words(
        self,
        read_words: np.ndarray,
        ref_words: np.ndarray,
        length: int,
        tier: str = DEFAULT_KERNEL_TIER,
    ) -> np.ndarray:
        """Packed-word path: the chip maze is built from the encoded words.

        The neighborhood map rows are shifted-XOR lane masks of the 2-bit word
        arrays, so no per-base comparison is ever performed.  ``tier`` selects the kernel
        tier; both tiers return bit-identical estimates.
        """
        n_pairs = read_words.shape[0]
        if length == 0:
            return np.zeros(n_pairs, dtype=np.int32)
        kernel, _ = resolve("sneakysnake_kernel", tier)
        return kernel(read_words, ref_words, length, self.error_threshold)

    def _route(self, longest_run: np.ndarray, n: int) -> np.ndarray:
        """Greedy routing, all pairs in lockstep.

        A pair leaves the loop when its signal reaches the last column or its
        estimate exceeds the threshold (the scalar early exit).
        """
        e = self.error_threshold
        n_pairs = longest_run.shape[0]
        edits = np.zeros(n_pairs, dtype=np.int32)
        column = np.zeros(n_pairs, dtype=np.int64)
        active = np.ones(n_pairs, dtype=bool)
        while True:
            idx = np.flatnonzero(active)
            if idx.size == 0:
                break
            column[idx] += longest_run[idx, column[idx]]
            crossing = idx[column[idx] < n]
            # Must cross an obstacle column: one edit.
            edits[crossing] += 1
            column[crossing] += 1
            active[idx] = column[idx] < n
            active[crossing] &= edits[crossing] <= e
        return edits
