"""Sequence alignment and verification substrate (the Edlib/DP ground truth)."""

from .banded import banded_edit_distance, banded_edit_distances, within_threshold
from .edit_distance import dp_edit_distance, edit_distance, myers_edit_distance
from .needleman_wunsch import AlignmentResult, alignment_to_cigar, needleman_wunsch
from .smith_waterman import LocalAlignmentResult, smith_waterman
from .verification import (
    VerificationResult,
    Verifier,
    ground_truth_distances,
    ground_truth_labels,
)

__all__ = [
    "banded_edit_distance",
    "banded_edit_distances",
    "within_threshold",
    "dp_edit_distance",
    "edit_distance",
    "myers_edit_distance",
    "AlignmentResult",
    "alignment_to_cigar",
    "needleman_wunsch",
    "LocalAlignmentResult",
    "smith_waterman",
    "VerificationResult",
    "Verifier",
    "ground_truth_distances",
    "ground_truth_labels",
]
