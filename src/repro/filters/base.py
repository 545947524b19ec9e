"""Common interfaces for pre-alignment filters.

A *pre-alignment filter* examines a read / candidate-reference-segment pair
and decides whether the pair could possibly be within ``error_threshold``
edits.  Pairs rejected by the filter skip the expensive dynamic-programming
verification stage of the mapper; pairs accepted by the filter continue to
verification, which computes the exact edit distance.

The contract all filters in this package aim for (and the paper evaluates) is

* **no false rejects** — a pair whose true edit distance is within the
  threshold must never be rejected, otherwise mappings are lost;
* **as few false accepts as possible** — every falsely accepted pair wastes
  a verification.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..genomics.alphabet import contains_unknown
from ..genomics.encoding import encode_to_codes, unpack_words_to_codes
from ..genomics.sequence import SequencePair
from .native import DEFAULT_KERNEL_TIER

__all__ = ["FilterDecision", "FilterResult", "PreAlignmentFilter"]


class FilterDecision(enum.IntEnum):
    """Outcome of one filtration."""

    REJECT = 0
    ACCEPT = 1
    #: Pair contained an ``N`` base; passed through without filtration.
    UNDEFINED = 2

    @property
    def passes(self) -> bool:
        """True if the pair proceeds to verification (accepted or undefined)."""
        return self is not FilterDecision.REJECT


@dataclass(frozen=True)
class FilterResult:
    """Decision and approximate edit distance for a single pair."""

    decision: FilterDecision
    estimated_edits: int

    @property
    def accepted(self) -> bool:
        return self.decision.passes


class PreAlignmentFilter(ABC):
    """Base class for all pre-alignment filters.

    Subclasses implement :meth:`estimate_edits_codes`, the approximate
    edit-distance computation on a 2-bit-encoded pair that is already known to
    be defined (no ``N``).  It is the scalar reference every filter is tested
    against.

    :meth:`estimate_edits_words` is the one batch method: it takes the packed
    ``uint64`` word arrays of an
    :class:`~repro.genomics.encoding.EncodedPairBatch` and is what
    :class:`repro.engine.FilterEngine` and the mapper call.  The built-in
    filters override it with their bit-parallel kernels (property-tested
    against the scalar path); the base class supplies a per-pair fallback so
    a custom filter only has to define :meth:`estimate_edits_codes`.
    """

    #: Human readable name used by the analysis tables.
    name: str = "filter"

    def __init__(self, error_threshold: int):
        if error_threshold < 0:
            raise ValueError("error_threshold must be non-negative")
        self.error_threshold = int(error_threshold)

    # ------------------------------------------------------------------ #
    # Core API
    # ------------------------------------------------------------------ #
    @abstractmethod
    def estimate_edits_codes(
        self, read_codes: np.ndarray, ref_codes: np.ndarray
    ) -> int:
        """Approximate edit distance of one pair given as per-base 2-bit codes."""

    def estimate_edits(self, read: str, reference_segment: str) -> int:
        """Return the filter's approximation of the pair's edit distance."""
        return self.estimate_edits_codes(
            encode_to_codes(read), encode_to_codes(reference_segment)
        )

    def estimate_edits_words(
        self,
        read_words: np.ndarray,
        ref_words: np.ndarray,
        length: int,
        tier: str = DEFAULT_KERNEL_TIER,
    ) -> np.ndarray:
        """Approximate edit distances of a batch of packed ``(n_pairs, n_words)`` pairs.

        ``tier`` selects the kernel tier of filters that have a native kernel
        (:mod:`repro.filters.native`); both tiers return identical estimates.
        This fallback unpacks the words and loops the scalar
        :meth:`estimate_edits_codes`, ignoring ``tier``.
        """
        read_codes = unpack_words_to_codes(read_words, length)
        ref_codes = unpack_words_to_codes(ref_words, length)
        return np.array(
            [
                self.estimate_edits_codes(read_codes[i], ref_codes[i])
                for i in range(read_codes.shape[0])
            ],
            dtype=np.int32,
        )

    def filter_pair(self, read: str, reference_segment: str) -> FilterResult:
        """Filter one pair, handling undefined (``N``-containing) pairs."""
        if len(read) != len(reference_segment):
            raise ValueError(
                "read and reference segment must have equal length "
                f"({len(read)} != {len(reference_segment)})"
            )
        if contains_unknown(read) or contains_unknown(reference_segment):
            return FilterResult(FilterDecision.UNDEFINED, 0)
        edits = self.estimate_edits(read, reference_segment)
        decision = (
            FilterDecision.ACCEPT if edits <= self.error_threshold else FilterDecision.REJECT
        )
        return FilterResult(decision, edits)

    def filter_pairs(
        self, pairs: Iterable[SequencePair | tuple[str, str]]
    ) -> list[FilterResult]:
        """Filter an iterable of pairs, returning one result per pair."""
        results = []
        for pair in pairs:
            if isinstance(pair, SequencePair):
                read, segment = pair.read, pair.reference_segment
            else:
                read, segment = pair
            results.append(self.filter_pair(read, segment))
        return results

    # ------------------------------------------------------------------ #
    # Convenience
    # ------------------------------------------------------------------ #
    def accepts(self, read: str, reference_segment: str) -> bool:
        """True if the pair passes the filter (accepted or undefined)."""
        return self.filter_pair(read, reference_segment).accepted

    def accept_count(self, pairs: Sequence[SequencePair | tuple[str, str]]) -> int:
        """Number of pairs in ``pairs`` that pass the filter."""
        return sum(1 for r in self.filter_pairs(pairs) if r.accepted)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(error_threshold={self.error_threshold})"
