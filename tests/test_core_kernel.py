"""Tests for the word-array kernel: carry transfers and equivalence with the reference."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import device_encode
from repro.core.kernel import BLOCK_PAIRS, _mask_plan, _shift_rows, gatekeeper_kernel
from repro.engine import FilterEngine
from repro.filters import EdgePolicy, GateKeeperFilter, GateKeeperGPUFilter
from repro.filters.bitvector import count_set_windows, shifted_mask
from repro.filters.masks import build_mask_set
from repro.filters.packed import mismatch_lanes, unpack_lanes
from repro.genomics import encode_batch_codes, pack_codes_to_words, unpack_words_to_codes
from helpers import mutated_pair, random_sequence


def _codes(rng, n, length):
    reads = [random_sequence(length, rng) for _ in range(n)]
    codes, _ = encode_batch_codes(reads)
    return codes


def _word_major(codes):
    """Pack ``(n, length)`` codes and transpose to the kernel's ``(n_words, n)`` block."""
    return np.ascontiguousarray(pack_codes_to_words(codes, word_bits=64).T)


def _shifted(block, bits):
    out = np.full_like(block, 0xDEADBEEF)  # stale content must be overwritten
    _shift_rows(block, bits, out, np.empty_like(block))
    return out


class TestWordShifts:
    """The kernel's shift with carry transfer on word-major row blocks."""

    def test_shift_right_matches_code_shift(self, rng):
        codes = _codes(rng, 6, 100)
        block = _word_major(codes)
        for k in (1, 3, 7, 15, 31, 32, 33, 40):
            back = unpack_words_to_codes(_shifted(block, 2 * k).T, 100, word_bits=64)
            expected = np.zeros_like(codes)
            expected[:, k:] = codes[:, : 100 - k]
            assert np.array_equal(back, expected), f"shift {k}"

    def test_shift_left_matches_code_shift(self, rng):
        codes = _codes(rng, 6, 100)
        block = _word_major(codes)
        for k in (1, 2, 5, 16, 31, 32, 33, 40):
            back = unpack_words_to_codes(_shifted(block, -2 * k).T, 100, word_bits=64)
            # Positions beyond the original sequence receive padding bits.
            assert np.array_equal(back[:, : 100 - k], codes[:, k:]), f"shift {k}"

    def test_zero_shift_is_identity_copy(self, rng):
        block = _word_major(_codes(rng, 2, 64))
        out = _shifted(block, 0)
        assert np.array_equal(out, block)
        assert not np.shares_memory(out, block)

    def test_carry_bits_cross_word_boundary(self):
        # One T at the end of word 0; shifting right by one base must carry
        # its bits into the top of word 1.
        codes, _ = encode_batch_codes(["A" * 31 + "T" + "A" * 33])
        back = unpack_words_to_codes(_shifted(_word_major(codes), 2).T, 65, word_bits=64)
        assert back[0, 32] == 3  # the T moved into the second word
        assert back[0, 31] == 0

    def test_shift_past_the_end_clears_block(self, rng):
        block = _word_major(_codes(rng, 3, 64))
        for bits in (128, 129, -128, -200):
            assert not _shifted(block, bits).any(), f"shift {bits}"


class TestXorFold:
    """XOR and OR-fold of word-major blocks under the kernel's mask plan."""

    def test_xor_fold_equals_hamming_mask(self, rng):
        read_codes = _codes(rng, 5, 90)
        ref_codes = _codes(rng, 5, 90)
        shift, keep, _, _ = _mask_plan(90, 3, 0)[0]
        assert shift == 0
        lanes = mismatch_lanes(_word_major(read_codes), _word_major(ref_codes), keep)
        expected = (read_codes != ref_codes).astype(np.uint8)
        assert np.array_equal(unpack_lanes(lanes.T, 90), expected)

    def test_shifted_xor_fold_equals_shifted_mask(self, rng):
        read_codes = _codes(rng, 4, 80)
        ref_codes = _codes(rng, 4, 80)
        read_block, ref_block = _word_major(read_codes), _word_major(ref_codes)
        plan = _mask_plan(80, 3, 35)
        assert [shift for shift, *_ in plan[1:5]] == [1, -1, 2, -2]
        for shift, keep, edge_rows, vacated in plan:
            lanes = mismatch_lanes(_shifted(read_block, 2 * shift), ref_block, keep)
            forced = lanes.copy()
            forced[edge_rows] |= vacated[edge_rows]
            for i in range(4):
                for value, got in ((0, lanes), (1, forced)):
                    expected = shifted_mask(
                        read_codes[i], ref_codes[i], shift, vacant_value=value
                    )
                    assert np.array_equal(unpack_lanes(got[:, i], 80), expected), (
                        f"shift {shift}, vacant {value}"
                    )


class TestKernelEquivalence:
    @pytest.mark.parametrize("filter_cls", [GateKeeperGPUFilter, GateKeeperFilter])
    def test_kernel_matches_scalar_filter(self, rng, filter_cls):
        pairs = [mutated_pair(100, rng.randrange(0, 20), rng) for _ in range(30)]
        reads = [p[0] for p in pairs]
        refs = [p[1] for p in pairs]
        read_codes, _ = encode_batch_codes(reads)
        ref_codes, _ = encode_batch_codes(refs)
        flt = filter_cls(6)
        estimates = flt.estimate_edits_words(
            device_encode(read_codes), device_encode(ref_codes), 100
        )
        for i in range(len(pairs)):
            expected = flt.filter_pair(reads[i], refs[i])
            assert int(estimates[i]) == expected.estimated_edits
            assert bool(estimates[i] <= 6) == expected.accepted

    def test_kernel_undefined_pairs_pass(self, rng):
        reads = ["ACGTN" + random_sequence(95, rng)]
        refs = [random_sequence(100, rng)]
        out = FilterEngine("gatekeeper-gpu", read_length=100, error_threshold=0).filter_lists(
            reads, refs
        )
        assert out.accepted[0]
        assert out.estimated_edits[0] == 0

    def test_kernel_250bp_threshold_25(self, rng):
        # The largest configuration in the paper: 250 bp at 10% threshold.
        pairs = [mutated_pair(250, rng.randrange(0, 40), rng) for _ in range(8)]
        read_codes, _ = encode_batch_codes([p[0] for p in pairs])
        ref_codes, _ = encode_batch_codes([p[1] for p in pairs])
        flt = GateKeeperGPUFilter(25)
        out = flt.estimate_edits_words(device_encode(read_codes), device_encode(ref_codes), 250)
        for i, (read, ref) in enumerate(pairs):
            assert int(out[i]) == flt.estimate_edits(read, ref)


@st.composite
def distinct_pairs(draw):
    """A few correlated read/reference code pairs, some offset by an indel-like shift.

    Hypothesis draws the shape, substitution rate and offsets; the bases come
    from a drawn seed so that every example carries realistic, varied masks.
    """
    length = draw(
        st.one_of(st.sampled_from([1, 31, 32, 33, 64, 65, 300]), st.integers(1, 300))
    )
    n_distinct = draw(st.integers(min_value=1, max_value=7))
    rate = draw(st.sampled_from([0.0, 0.02, 0.05, 0.1, 0.3]))
    offset = draw(st.integers(min_value=-45, max_value=45))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    shape = (n_distinct, length)
    ref = rng.integers(0, 4, size=shape, dtype=np.uint8)
    substitute = rng.integers(0, 4, size=shape, dtype=np.uint8)
    read = np.where(rng.random(shape) < rate, substitute, ref)
    offsets = rng.integers(-4, 5, size=n_distinct)
    offsets[0] = offset
    for i, shift in enumerate(offsets):
        read[i] = np.roll(read[i], int(shift))
    return read, ref


def _as_view(words, kind):
    """``words`` as a contiguous array, an offset row slice or a strided row view."""
    if kind == "contiguous":
        return words
    n_rows, n_words = words.shape
    if kind == "offset":
        host = np.zeros((n_rows + 5, n_words), dtype=words.dtype)
        host[3 : 3 + n_rows] = words
        return host[3 : 3 + n_rows]
    host = np.zeros((2 * n_rows, n_words), dtype=words.dtype)
    host[::2] = words
    return host[::2]


class TestBlockedKernelDifferential:
    """The row-blocked NumPy kernel against the per-base mask pipeline.

    The reference is the scalar GateKeeper pipeline: ``build_mask_set``
    (shifted masks, amendment, edge forcing), the AND of all masks and
    ``count_set_windows``.
    Each drawn batch tiles a few distinct pairs over row counts around the
    block size, so distinct pairs straddle every block boundary.
    """

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(
        pairs=distinct_pairs(),
        threshold=st.integers(min_value=0, max_value=40),
        edge_policy=st.sampled_from([EdgePolicy.ZERO, EdgePolicy.ONE]),
        max_zero_run=st.sampled_from([1, 2]),
        count_window=st.sampled_from([4, 5]),
        n_rows=st.sampled_from(
            [BLOCK_PAIRS - 1, BLOCK_PAIRS, BLOCK_PAIRS + 1, 2 * BLOCK_PAIRS + 3]
        ),
        view=st.sampled_from(["contiguous", "offset", "strided"]),
    )
    def test_matches_per_base_reference(
        self, pairs, threshold, edge_policy, max_zero_run, count_window, n_rows, view
    ):
        read, ref = pairs
        n_distinct, length = read.shape
        expect = np.array(
            [
                count_set_windows(
                    build_mask_set(
                        read[i], ref[i], threshold,
                        edge_policy=edge_policy, max_zero_run=max_zero_run,
                    ).final(),
                    window=count_window,
                )
                for i in range(n_distinct)
            ],
            dtype=np.int32,
        )
        rows = np.arange(n_rows) % n_distinct
        got = gatekeeper_kernel(
            _as_view(pack_codes_to_words(read, 64)[rows], view),
            _as_view(pack_codes_to_words(ref, 64)[rows], view),
            length,
            threshold,
            edge_policy == EdgePolicy.ONE,
            count_window,
            max_zero_run,
        )
        assert got.dtype == np.int32
        assert np.array_equal(got, expect[rows])

    def test_empty_batch(self):
        words = np.zeros((0, 4), dtype=np.uint64)
        got = gatekeeper_kernel(words, words, 100, 5, True, 4, 2)
        assert got.dtype == np.int32 and got.shape == (0,)
