"""Tests for the GateKeeper-family batch method against the scalar reference."""

import numpy as np
import pytest

from repro.engine import FilterEngine
from repro.filters import EdgePolicy, GateKeeperFilter, GateKeeperGPUFilter
from repro.genomics import EncodedPairBatch
from helpers import mutated_pair, random_sequence


def word_estimates(flt, reads, refs):
    pairs = EncodedPairBatch.from_lists(reads, refs)
    return flt.estimate_edits_words(pairs.read_words, pairs.ref_words, pairs.length)


class TestBatchPrimitives:
    def test_word_kernel_rejects_unsupported_run(self):
        with pytest.raises(ValueError):
            word_estimates(GateKeeperFilter(1, max_zero_run=3), ["ACGT"], ["ACGT"])

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            GateKeeperGPUFilter(2).estimate_edits_codes(
                np.zeros(10, dtype=np.uint8), np.zeros(8, dtype=np.uint8)
            )


class TestBatchVsScalar:
    @pytest.mark.parametrize("edge_policy,filter_cls", [
        (EdgePolicy.ONE, GateKeeperGPUFilter),
        (EdgePolicy.ZERO, GateKeeperFilter),
    ])
    def test_estimates_match_scalar_filters(self, rng, edge_policy, filter_cls):
        threshold = 4
        pairs = [mutated_pair(60, rng.randrange(0, 15), rng) for _ in range(25)]
        reads = [p[0] for p in pairs]
        refs = [p[1] for p in pairs]
        scalar = filter_cls(threshold)
        assert scalar.edge_policy == edge_policy
        estimates = word_estimates(scalar, reads, refs)
        for i in range(len(pairs)):
            assert int(estimates[i]) == scalar.estimate_edits(reads[i], refs[i])

    def test_engine_handles_undefined(self):
        reads = ["ACGTACGTACGTACGT", "ACGNACGTACGTACGT", "TTTTTTTTTTTTTTTT"]
        refs = ["ACGTACGTACGTACGT", "ACGTACGTACGTACGT", "ACGTACGTACGTACGT"]
        out = FilterEngine("gatekeeper-gpu", 16, 1).filter_lists(reads, refs)
        assert out.undefined.tolist() == [False, True, False]
        assert out.accepted[0]  # exact match
        assert out.accepted[1]  # undefined passes
        assert not out.accepted[2]  # dissimilar rejected
        assert out.estimated_edits[1] == 0

    def test_engine_output_counters(self, rng):
        reads = [random_sequence(40, rng) for _ in range(8)]
        refs = list(reads[:4]) + [random_sequence(40, rng) for _ in range(4)]
        out = FilterEngine("gatekeeper-gpu", 40, 2).filter_lists(reads, refs)
        assert out.n_pairs == 8
        assert out.n_accepted + out.n_rejected == 8
        assert out.n_accepted >= 4  # the exact matches all pass

    def test_length_mismatch_raises(self):
        with pytest.raises(ValueError):
            FilterEngine("gatekeeper-gpu", 4, 1).filter_lists(["ACGT"], ["ACGT", "ACGT"])


class TestBatchMonotonicity:
    def test_zero_edge_policy_estimates_not_above_one_policy(self, rng):
        reads = [random_sequence(80, rng) for _ in range(12)]
        refs = [random_sequence(80, rng) for _ in range(12)]
        zero = word_estimates(GateKeeperFilter(5), reads, refs)
        one = word_estimates(GateKeeperGPUFilter(5), reads, refs)
        assert np.all(one >= zero)

    def test_estimates_non_increasing_in_threshold(self, rng):
        reads = [random_sequence(80, rng) for _ in range(10)]
        refs = [random_sequence(80, rng) for _ in range(10)]
        previous = None
        for threshold in range(0, 8):
            estimates = word_estimates(GateKeeperGPUFilter(threshold), reads, refs)
            if previous is not None:
                assert np.all(estimates <= previous)
            previous = estimates
