"""Property tests: packed-word kernels agree bit-for-bit with the per-base reference.

The per-base mask helpers of ``repro.filters.bitvector`` / ``repro.filters.masks``
are the reference implementation; every packed ``uint64`` lane kernel in
``repro.filters.packed`` (and every filter path built on it) must reproduce
them exactly across read lengths {1, 8, 64, 100, 251} and thresholds
{0, 2, 5}, including ``N``-containing pairs and length-1 edge cases.
"""

import numpy as np
import pytest

from repro.engine import FilterEngine, available_filters, get_filter
from repro.filters import GateKeeperFilter, GateKeeperGPUFilter, packed
from repro.filters.bitvector import count_set_windows
from repro.filters.masks import EdgePolicy, build_mask_set
from repro.filters.shouji import neighborhood_map_batch
from repro.genomics.encoding import EncodedPairBatch, pack_codes_to_words

READ_LENGTHS = [8, 64, 100, 251]
THRESHOLDS = [0, 2, 5]


def _random_pairs(rng, n_pairs, length, mutate=0.15):
    """Correlated code batches (reads are mostly equal to their segments)."""
    ref = rng.integers(0, 4, size=(n_pairs, length)).astype(np.uint8)
    noise = rng.integers(0, 4, size=(n_pairs, length)).astype(np.uint8)
    read = np.where(rng.random((n_pairs, length)) < mutate, noise, ref).astype(np.uint8)
    return read, ref


def _codes_to_strings(codes):
    return ["".join("ACGT"[c] for c in row) for row in codes]


class TestPackedPrimitives:
    @pytest.mark.parametrize("length", [1, 2, 8, 31, 32, 33, 64, 100, 251])
    def test_pack_unpack_roundtrip(self, length):
        rng = np.random.default_rng(length)
        mask = (rng.random((17, length)) < 0.5).astype(np.uint8)
        lanes = packed.pack_lanes(mask)
        assert np.array_equal(packed.unpack_lanes(lanes, length), mask)
        assert np.array_equal(packed.count_set_lanes(lanes), mask.sum(axis=1))

    @pytest.mark.parametrize("length", [1, 8, 64, 100, 251])
    @pytest.mark.parametrize("k", [0, 1, 2, 5, 31, 32, 40, 300])
    def test_lane_shifts_match_array_shifts(self, length, k):
        rng = np.random.default_rng(length * 1000 + k)
        mask = (rng.random((9, length)) < 0.5).astype(np.uint8)
        lanes = packed.pack_lanes(mask)
        valid = packed.lane_span_mask(0, length, lanes.shape[-1])
        expect_right = np.zeros_like(mask)
        expect_left = np.zeros_like(mask)
        if k < length:
            expect_right[:, k:] = mask[:, : length - k]
            expect_left[:, : length - k] = mask[:, k:]
        got_right = packed.unpack_lanes(packed.shift_lanes_right(lanes, k), length)
        got_left = packed.unpack_lanes(packed.shift_lanes_left(lanes, k) & valid, length)
        assert np.array_equal(got_right, expect_right)
        assert np.array_equal(got_left, expect_left)

    @pytest.mark.parametrize("length", [1, 7, 8, 64, 100, 251])
    @pytest.mark.parametrize("window", [1, 2, 3, 4, 5, 8, 16, 32])
    def test_window_count_matches_reference(self, length, window):
        rng = np.random.default_rng(length * 100 + window)
        mask = (rng.random((21, length)) < 0.3).astype(np.uint8)
        lanes = packed.pack_lanes(mask)
        got = packed.count_lane_windows(lanes, length, window=window)
        expect = np.array([count_set_windows(m, window=window) for m in mask])
        assert np.array_equal(got, expect)

    def test_popcount_lut_fallback_matches_bitwise_count(self):
        rng = np.random.default_rng(0)
        words = rng.integers(0, 2**63, size=(13, 5), dtype=np.int64).astype(np.uint64)
        expect = np.array(
            [[int(v).bit_count() for v in row] for row in words], dtype=np.uint8
        )
        assert np.array_equal(packed.popcount(words), expect)
        assert np.array_equal(packed._popcount_lut(words), expect)
        bytes_arr = rng.integers(0, 256, size=(7, 9), dtype=np.uint8)
        assert np.array_equal(
            packed._popcount_lut(bytes_arr), packed.popcount(bytes_arr)
        )

    @pytest.mark.parametrize("length", [1, 8, 100])
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_neighborhood_lanes_match_per_base_map(self, length, threshold):
        rng = np.random.default_rng(length + threshold)
        read, ref = _random_pairs(rng, 25, length)
        lanes = packed.neighborhood_lanes(
            pack_codes_to_words(read, 64), pack_codes_to_words(ref, 64),
            length, threshold,
        )
        got = packed.unpack_lanes(lanes, length)
        expect = neighborhood_map_batch(read, ref, threshold)
        assert np.array_equal(got, expect)


def _gatekeeper_words(read, ref, length, threshold, edge_policy):
    """The GateKeeper-family batch method for one edge policy."""
    cls = GateKeeperGPUFilter if edge_policy == EdgePolicy.ONE else GateKeeperFilter
    return cls(threshold).estimate_edits_words(
        pack_codes_to_words(read, 64), pack_codes_to_words(ref, 64), length
    )


class TestPackedGateKeeperKernel:
    @pytest.mark.parametrize("length", READ_LENGTHS)
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    @pytest.mark.parametrize("edge_policy", [EdgePolicy.ZERO, EdgePolicy.ONE])
    def test_kernel_matches_scalar_mask_pipeline(self, length, threshold, edge_policy):
        rng = np.random.default_rng(hash((length, threshold, edge_policy)) % 2**32)
        read, ref = _random_pairs(rng, 60, length)
        estimates = _gatekeeper_words(read, ref, length, threshold, edge_policy)
        expect = np.array(
            [
                count_set_windows(
                    build_mask_set(
                        read[i], ref[i], threshold, edge_policy=edge_policy
                    ).final(),
                    window=4,
                )
                for i in range(read.shape[0])
            ],
            dtype=np.int32,
        )
        assert np.array_equal(estimates, expect)

    def test_kernel_length_one(self):
        read = np.array([[0], [3]], dtype=np.uint8)
        ref = np.array([[0], [1]], dtype=np.uint8)
        for threshold in (0, 1):
            estimates = _gatekeeper_words(read, ref, 1, threshold, EdgePolicy.ONE)
            expect = np.array(
                [
                    count_set_windows(
                        build_mask_set(
                            read[i], ref[i], threshold, edge_policy=EdgePolicy.ONE
                        ).final(),
                        window=4,
                    )
                    for i in range(2)
                ],
                dtype=np.int32,
            )
            assert np.array_equal(estimates, expect)


class TestAllFiltersAgainstReference:
    """Every registered filter: packed/engine paths vs the scalar filter."""

    @pytest.mark.parametrize("key", available_filters())
    @pytest.mark.parametrize("length", READ_LENGTHS)
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_batch_estimates_match_scalar(self, key, length, threshold):
        rng = np.random.default_rng(hash((key, length, threshold)) % 2**32)
        read, ref = _random_pairs(rng, 30, length)
        instance = get_filter(key, threshold)
        batch = instance.estimate_edits_words(
            pack_codes_to_words(read, 64), pack_codes_to_words(ref, 64), length
        )
        scalar = np.array(
            [instance.estimate_edits_codes(read[i], ref[i]) for i in range(30)],
            dtype=np.int32,
        )
        assert np.array_equal(batch, scalar)

    @pytest.mark.parametrize("key", available_filters())
    @pytest.mark.parametrize("length", READ_LENGTHS)
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_every_tier_matches_scalar(self, key, length, threshold):
        instance = get_filter(key, threshold)
        rng = np.random.default_rng(hash((key, length, threshold, 1)) % 2**32)
        read, ref = _random_pairs(rng, 30, length)
        scalar = [instance.estimate_edits_codes(read[i], ref[i]) for i in range(30)]
        for tier in ("numpy", "native", "auto"):
            got = instance.estimate_edits_words(
                pack_codes_to_words(read, 64), pack_codes_to_words(ref, 64), length, tier=tier
            )
            assert got.tolist() == scalar, tier

    @pytest.mark.parametrize("key", available_filters())
    @pytest.mark.parametrize("threshold", THRESHOLDS)
    def test_engine_handles_n_containing_pairs(self, key, threshold):
        rng = np.random.default_rng(hash((key, threshold)) % 2**32)
        length = 64
        read, ref = _random_pairs(rng, 40, length)
        reads = _codes_to_strings(read)
        segments = _codes_to_strings(ref)
        # Inject Ns into a handful of reads and segments.
        for i in range(0, 40, 7):
            reads[i] = "N" + reads[i][1:]
        for i in range(3, 40, 11):
            segments[i] = segments[i][:-1] + "N"
        engine = FilterEngine(key, read_length=length, error_threshold=threshold)
        result = engine.filter_lists(reads, segments)
        instance = get_filter(key, threshold)
        for i in range(40):
            expect = instance.filter_pair(reads[i], segments[i])
            assert bool(result.accepted[i]) == expect.accepted, (key, i)
            assert int(result.estimated_edits[i]) == expect.estimated_edits, (key, i)
        undefined_rows = {i for i in range(0, 40, 7)} | {i for i in range(3, 40, 11)}
        assert set(np.flatnonzero(result.undefined)) == undefined_rows

    @pytest.mark.parametrize("key", available_filters())
    def test_length_one_pairs(self, key):
        engine = FilterEngine(key, read_length=1, error_threshold=0)
        result = engine.filter_lists(["A", "T", "N"], ["A", "C", "G"])
        instance = get_filter(key, 0)
        for i, (r, s) in enumerate(zip(["A", "T", "N"], ["A", "C", "G"])):
            assert bool(result.accepted[i]) == instance.filter_pair(r, s).accepted

    @pytest.mark.parametrize("key", available_filters())
    def test_encoded_batch_path_equals_string_path(self, key):
        rng = np.random.default_rng(hash(key) % 2**32)
        read, ref = _random_pairs(rng, 50, 100)
        reads, segments = _codes_to_strings(read), _codes_to_strings(ref)
        engine = FilterEngine(key, read_length=100, error_threshold=5, n_devices=2)
        via_strings = engine.filter_lists(reads, segments)
        via_encoded = engine.filter_encoded(EncodedPairBatch.from_lists(reads, segments))
        assert np.array_equal(via_strings.accepted, via_encoded.accepted)
        assert np.array_equal(via_strings.estimated_edits, via_encoded.estimated_edits)
