"""Tests for the alignment substrate: edit distances, NW, SW."""

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.align import (
    alignment_to_cigar,
    banded_edit_distance,
    banded_edit_distances,
    dp_edit_distance,
    edit_distance,
    myers_edit_distance,
    needleman_wunsch,
    smith_waterman,
    within_threshold,
)
from repro.align import banded
from helpers import mutated_pair, random_sequence


class TestEditDistance:
    @pytest.mark.parametrize(
        "a,b,expected",
        [
            ("", "", 0),
            ("ACGT", "ACGT", 0),
            ("ACGT", "", 4),
            ("", "ACGT", 4),
            ("ACGT", "AGGT", 1),
            ("ACGT", "CGT", 1),
            ("ACGT", "ACGTT", 1),
            ("AAAA", "TTTT", 4),
            ("KITTEN", "SITTING", 3),
        ],
    )
    def test_known_distances(self, a, b, expected):
        assert edit_distance(a, b) == expected
        assert dp_edit_distance(a, b) == expected

    def test_symmetry(self, rng):
        for _ in range(10):
            a = random_sequence(rng.randrange(5, 60), rng)
            b = random_sequence(rng.randrange(5, 60), rng)
            assert edit_distance(a, b) == edit_distance(b, a)

    def test_triangle_inequality(self, rng):
        for _ in range(10):
            a = random_sequence(30, rng)
            b = random_sequence(30, rng)
            c = random_sequence(30, rng)
            assert edit_distance(a, c) <= edit_distance(a, b) + edit_distance(b, c)

    def test_myers_matches_dp_on_random_pairs(self, rng):
        for _ in range(20):
            read, segment = mutated_pair(70, rng.randrange(0, 15), rng)
            assert myers_edit_distance(read, segment) == dp_edit_distance(read, segment)

    def test_n_character_never_matches(self):
        assert edit_distance("ACGTN", "ACGTA") == 1
        assert edit_distance("N", "N") == 0  # identical characters still match


class TestBandedEditDistance:
    def test_exact_within_band(self, rng):
        for _ in range(20):
            read, segment = mutated_pair(60, rng.randrange(0, 6), rng)
            exact = edit_distance(read, segment)
            band = 8
            banded = banded_edit_distance(read, segment, band)
            assert banded == (exact if exact <= band else band + 1)

    def test_truncates_above_band(self, rng):
        a = random_sequence(80, rng)
        b = random_sequence(80, rng)
        assert banded_edit_distance(a, b, 3) == 4

    def test_length_difference_shortcut(self):
        assert banded_edit_distance("ACGT", "ACGTACGTACGT", 3) == 4

    def test_empty_strings(self):
        assert banded_edit_distance("", "", 2) == 0
        assert banded_edit_distance("", "AC", 2) == 2
        assert banded_edit_distance("ACGT", "", 2) == 3  # truncated to band + 1

    def test_negative_band_raises(self):
        with pytest.raises(ValueError):
            banded_edit_distance("A", "A", -1)

    def test_within_threshold(self):
        assert within_threshold("ACGT", "ACGA", 1)
        assert not within_threshold("ACGT", "TGCA", 1)


#: Reads mix ACGT with ``N`` and other non-ACGT characters; the DP compares
#: raw characters, so ``N == N`` is a match in both implementations.
ALPHABET = "ACGTNNRx-"


@st.composite
def near_pairs(draw):
    """A read and a segment a few edits (or a different length) away from it."""
    length = draw(
        st.one_of(
            st.sampled_from([0, 1, 63, 64, 65, 150, 300]), st.integers(0, 20)
        )
    )
    read = draw(st.text(st.sampled_from(ALPHABET), min_size=length, max_size=length))
    if draw(st.integers(0, 9)) == 0:  # an unrelated segment of any length
        size = draw(st.integers(0, 24))
        return read, draw(st.text(st.sampled_from(ALPHABET), min_size=size, max_size=size))
    segment = list(read)
    for _ in range(draw(st.integers(0, 8))):
        op = draw(st.sampled_from(["sub", "ins", "del"]))
        at = draw(st.integers(0, len(segment)))
        base = draw(st.sampled_from(ALPHABET))
        if op == "ins":
            segment.insert(at, base)
        elif segment and at < len(segment):
            if op == "sub":
                segment[at] = base
            else:
                del segment[at]
    return read, "".join(segment)


class TestBatchedBandedEditDistance:
    """``banded_edit_distances`` against the scalar oracle and the full DP."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(
        pairs=st.lists(near_pairs(), min_size=0, max_size=8),
        band=st.one_of(st.integers(0, 10), st.sampled_from([64, 310])),
        block=st.sampled_from([1, 2, 3, banded.BLOCK_PAIRS]),
        copies=st.integers(1, 3),
    )
    def test_matches_scalar_and_full_dp(self, pairs, band, block, copies):
        # Repeating the batch makes groups span several blocks and
        # interleaves the length groups, so input order is checked too.
        pairs = pairs * copies
        reads = [read for read, _ in pairs]
        segments = [segment for _, segment in pairs]
        with mock.patch.object(banded, "BLOCK_PAIRS", block):
            got = banded_edit_distances(reads, segments, band)
        assert got.shape == (len(pairs),)
        assert got.dtype == np.int64
        scalar = [banded_edit_distance(read, segment, band) for read, segment in pairs]
        assert got.tolist() == scalar
        full = [min(dp_edit_distance(read, segment), band + 1) for read, segment in pairs]
        assert got.tolist() == full

    def test_empty_batch(self):
        got = banded_edit_distances([], [], 5)
        assert got.shape == (0,) and got.dtype == np.int64

    @pytest.mark.parametrize(
        "read,segment,band,expected",
        [
            ("", "", 0, 0),
            ("", "AC", 2, 2),
            ("ACGT", "", 2, 3),
            ("ACGT", "ACGT", 0, 0),
            ("ACGT", "ACGA", 0, 1),
            ("NNNN", "NNNN", 0, 0),
            ("ACGT", "ACGTACGTACGT", 3, 4),
            ("KITTEN", "SITTING", 3, 3),
            ("KITTEN", "SITTING", 2, 3),
            ("A", "T", 40, 1),
            ("AAAA", "TTTT", 9, 4),
        ],
    )
    def test_batch_of_one(self, read, segment, band, expected):
        assert banded_edit_distances([read], [segment], band).tolist() == [expected]
        assert banded_edit_distance(read, segment, band) == expected

    def test_group_larger_than_one_block(self):
        rng = random.Random(11)
        n_pairs = banded.BLOCK_PAIRS + 5
        pairs = [mutated_pair(20, rng.randrange(0, 5), rng) for _ in range(n_pairs)]
        reads = [read for read, _ in pairs]
        segments = [segment for _, segment in pairs]
        expected = [banded_edit_distance(read, segment, 3) for read, segment in pairs]
        assert banded_edit_distances(reads, segments, 3).tolist() == expected

    def test_input_order_preserved(self):
        rng = random.Random(5)
        pairs = [
            mutated_pair(rng.choice([30, 64, 65]), rng.randrange(0, 7), rng) for _ in range(60)
        ]
        reads = [read for read, _ in pairs]
        segments = [segment for _, segment in pairs]
        distances = banded_edit_distances(reads, segments, 4)
        order = list(range(len(pairs)))
        rng.shuffle(order)
        shuffled = banded_edit_distances(
            [reads[k] for k in order], [segments[k] for k in order], 4
        )
        assert shuffled.tolist() == distances[order].tolist()

    def test_negative_band_raises(self):
        with pytest.raises(ValueError):
            banded_edit_distances(["A"], ["A"], -1)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(ValueError, match="pair up"):
            banded_edit_distances(["A", "C"], ["A"], 1)


class TestNeedlemanWunsch:
    def test_exact_match_score(self):
        result = needleman_wunsch("ACGT", "ACGT")
        assert result.score == 4
        assert result.aligned_a == "ACGT"
        assert result.aligned_b == "ACGT"
        assert result.edit_operations == 0

    def test_alignment_length_consistency(self, rng):
        read, segment = mutated_pair(30, 4, rng)
        result = needleman_wunsch(read, segment)
        assert len(result.aligned_a) == len(result.aligned_b)
        assert result.aligned_a.replace("-", "") == read
        assert result.aligned_b.replace("-", "") == segment

    def test_edit_operations_upper_bounds_edit_distance(self, rng):
        read, segment = mutated_pair(40, 5, rng)
        result = needleman_wunsch(read, segment)
        assert result.edit_operations >= edit_distance(read, segment)

    def test_gap_alignment(self):
        result = needleman_wunsch("ACGT", "AGT")
        assert result.edit_operations == 1

    def test_cigar(self):
        assert alignment_to_cigar("ACGT", "AC-T") == "2M1I1M"
        assert alignment_to_cigar("AC-T", "ACGT") == "2M1D1M"
        with pytest.raises(ValueError):
            alignment_to_cigar("AC", "A")


class TestSmithWaterman:
    def test_finds_embedded_match(self):
        result = smith_waterman("TTTTACGTACGTTTT", "ACGTACGT")
        assert result.score >= 14  # 8 matches with default scoring minus nothing
        assert "ACGTACGT" in result.aligned_a.replace("-", "")

    def test_no_similarity_low_score(self):
        result = smith_waterman("AAAAAAAA", "TTTTTTTT")
        assert result.score == 0

    def test_alignment_bounds(self):
        result = smith_waterman("GGACGTA", "ACGT")
        assert 0 <= result.a_start <= result.a_end <= 7
        assert 0 <= result.b_start <= result.b_end <= 4
