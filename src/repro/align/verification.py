"""Verification stage and ground-truth labelling.

The :class:`Verifier` is the mapper's verification stage (exact edit distance
against a threshold).  :func:`ground_truth_labels` produces the Edlib-style
accept/reject labels used by the accuracy experiments: a pair is labelled
*accept* if its exact global edit distance is within the threshold, *reject*
otherwise.  Undefined pairs (containing ``N``) are labelled accepted, exactly
as the paper does when including undefined pairs in the comparison tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ..genomics.alphabet import contains_unknown
from ..genomics.sequence import SequencePair
from .banded import banded_edit_distance, banded_edit_distances
from .edit_distance import edit_distance

__all__ = ["VerificationResult", "Verifier", "ground_truth_labels", "ground_truth_distances"]


@dataclass(frozen=True)
class VerificationResult:
    """Outcome of verifying one pair."""

    edit_distance: int
    accepted: bool


class Verifier:
    """Exact (optionally banded) verification of read / segment pairs.

    Parameters
    ----------
    error_threshold:
        Maximum edit distance for a pair to be reported as a mapping.
    banded:
        Use the Ukkonen banded DP (exact for distances within the threshold)
        instead of the full Myers computation.  This is the default because it
        is what production verifiers do.

    :meth:`verify_batch` is the production path: the banded mode verifies the
    whole batch with the vectorised :func:`banded_edit_distances`.
    :meth:`verify` runs the scalar :func:`banded_edit_distance`, the oracle
    the batched DP is tested against.  Both count into ``pairs_verified``.
    """

    def __init__(self, error_threshold: int, banded: bool = True):
        if error_threshold < 0:
            raise ValueError("error_threshold must be non-negative")
        self.error_threshold = int(error_threshold)
        self.banded = banded
        self.pairs_verified = 0

    def verify(self, read: str, reference_segment: str) -> VerificationResult:
        """Verify one pair, returning its edit distance and accept decision."""
        self.pairs_verified += 1
        if self.banded:
            distance = banded_edit_distance(read, reference_segment, self.error_threshold)
        else:
            distance = edit_distance(read, reference_segment)
        return VerificationResult(
            edit_distance=distance, accepted=distance <= self.error_threshold
        )

    def verify_batch(self, reads: Sequence[str], segments: Sequence[str]) -> np.ndarray:
        """Edit distance of every ``(reads[k], segments[k])`` pair, in order.

        Banded distances above the threshold read ``error_threshold + 1``,
        as in :meth:`verify`; a pair is accepted when its distance is at most
        ``error_threshold``.
        """
        if self.banded:
            distances = banded_edit_distances(reads, segments, self.error_threshold)
        else:
            distances = np.array(
                [edit_distance(r, s) for r, s in zip(reads, segments, strict=True)],
                dtype=np.int64,
            )
        self.pairs_verified += len(distances)
        return distances

    def verify_pairs(
        self, pairs: Iterable[SequencePair | tuple[str, str]]
    ) -> list[VerificationResult]:
        """Verify an iterable of pairs in one :meth:`verify_batch` call."""
        tuples = [
            (pair.read, pair.reference_segment) if isinstance(pair, SequencePair) else pair
            for pair in pairs
        ]
        distances = self.verify_batch([read for read, _ in tuples], [seg for _, seg in tuples])
        return [
            VerificationResult(edit_distance=distance, accepted=distance <= self.error_threshold)
            for distance in distances.tolist()
        ]


def ground_truth_distances(pairs: Sequence[SequencePair | tuple[str, str]]) -> np.ndarray:
    """Exact global edit distance of every pair (Edlib-equivalent)."""
    distances = np.empty(len(pairs), dtype=np.int32)
    for i, pair in enumerate(pairs):
        if isinstance(pair, SequencePair):
            read, segment = pair.read, pair.reference_segment
        else:
            read, segment = pair
        distances[i] = edit_distance(read, segment)
    return distances


def ground_truth_labels(
    pairs: Sequence[SequencePair | tuple[str, str]],
    error_threshold: int,
    undefined_accepted: bool = True,
) -> np.ndarray:
    """Edlib-style accept (True) / reject (False) labels for every pair.

    Undefined pairs are labelled accepted when ``undefined_accepted`` is True,
    matching how the paper folds them into the accepted counts.
    """
    labels = np.empty(len(pairs), dtype=bool)
    for i, pair in enumerate(pairs):
        if isinstance(pair, SequencePair):
            read, segment = pair.read, pair.reference_segment
        else:
            read, segment = pair
        if undefined_accepted and (contains_unknown(read) or contains_unknown(segment)):
            labels[i] = True
            continue
        labels[i] = edit_distance(read, segment) <= error_threshold
    return labels
