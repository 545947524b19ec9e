"""Original GateKeeper pre-alignment filter (FPGA semantics, scalar reference).

This is the baseline algorithm of Alser et al. (Bioinformatics 2017) that
GateKeeper-GPU improves upon.  The implementation follows the published
description: Hamming mask plus ``2e`` shifted masks, amendment of short zero
streaks, AND across all masks and a windowed look-up-table edit count.  The
bit positions vacated by the shifts are left 0 (``EdgePolicy.ZERO``), which is
the accuracy weakness that the GateKeeper-GPU leading/trailing amendment
fixes.

:meth:`GateKeeperFilter.estimate_edits_codes` is the per-base scalar
reference; :meth:`GateKeeperFilter.estimate_edits_words`, which GateKeeper-GPU
and SHD inherit, runs the registered packed ``gatekeeper_kernel`` of
:mod:`repro.core.kernel` (or its Numba twin) over a whole batch.
"""

from __future__ import annotations

import numpy as np

from .base import PreAlignmentFilter
from .bitvector import count_set_windows
from .masks import EdgePolicy, build_mask_set
from .native import DEFAULT_KERNEL_TIER, resolve

__all__ = ["GateKeeperFilter", "COUNT_WINDOW"]

#: Width (in bases) of the error-counting window used by the LUT approach.
COUNT_WINDOW = 4


class GateKeeperFilter(PreAlignmentFilter):
    """Original GateKeeper filter (the FPGA algorithm, reimplemented in software).

    Parameters
    ----------
    error_threshold:
        Maximum number of edits a pair may have and still be accepted.
    count_window:
        Window width (bases) for the LUT-based edit count.
    max_zero_run:
        Zero streaks of this length or shorter (flanked by ones) are amended.
    """

    name = "GateKeeper"
    edge_policy = EdgePolicy.ZERO

    def __init__(
        self,
        error_threshold: int,
        count_window: int = COUNT_WINDOW,
        max_zero_run: int = 2,
    ):
        super().__init__(error_threshold)
        self.count_window = int(count_window)
        self.max_zero_run = int(max_zero_run)

    def estimate_edits_codes(self, read_codes: np.ndarray, ref_codes: np.ndarray) -> int:
        mask_set = build_mask_set(
            read_codes,
            ref_codes,
            self.error_threshold,
            edge_policy=self.edge_policy,
            max_zero_run=self.max_zero_run,
        )
        return count_set_windows(mask_set.final(), window=self.count_window)

    def estimate_edits_words(
        self,
        read_words: np.ndarray,
        ref_words: np.ndarray,
        length: int,
        tier: str = DEFAULT_KERNEL_TIER,
    ) -> np.ndarray:
        """The GateKeeper pipeline over packed word arrays, all pairs at once.

        Shift with carry, XOR, amend, edge-force, AND and windowed count, in
        the packed ``uint64`` lane representation (the CUDA kernel's
        arithmetic); ``tier`` selects the NumPy or Numba kernel.
        """
        kernel, _ = resolve("gatekeeper_kernel", tier)
        return kernel(
            read_words,
            ref_words,
            length,
            self.error_threshold,
            self.edge_policy == EdgePolicy.ONE,
            self.count_window,
            self.max_zero_run,
        )
