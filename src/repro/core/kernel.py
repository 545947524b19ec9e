"""The GateKeeper-GPU kernel: word-array bit-vector arithmetic with carry transfer.

The CUDA kernel cannot hold a 200-bit register the way the FPGA does, so an
encoded read is an array of machine words and every bitwise shift must repair
the bits that cross word boundaries with explicit carry transfers (paper
Section 3.4: "there are 2e shifts and 2e carry-bit operations" per
filtration).  This module implements exactly that word-level arithmetic,
vectorised over all pairs of a batch:

1. (device encoding only) pack the per-base codes into words;
2. shift the read word-array by ``k`` bases with carry-bit transfer;
3. XOR with the reference word-array (Hamming / shifted masks);
4. OR-fold each 2-bit group into the per-base difference lane;
5. amend short zero streaks, force the vacated edge bits to 1
   (the GateKeeper-GPU improvement), AND all masks and count edits.

The NumPy kernel runs word-major and in row blocks.  Each block of
:data:`BLOCK_PAIRS` pairs is transposed once to ``(n_words, n_pairs)``, so
word ``w`` of every pair in the block is one contiguous row: a shift with
carry is a shift of the block plus a shift of the block offset by one row,
and a shift of ``2k >= 64`` bits is a whole-row offset.  The ``2e+1`` masks
are built one at a time in a handful of scratch blocks that are allocated
once per call and reused through ufunc ``out=``; each mask is amended,
edge-forced and ANDed into the running result before the next is built.
Masks stay in the packed ``uint64`` lane representation
(:mod:`repro.filters.packed`) throughout — no per-base array is ever
materialised.  The property tests verify that this pipeline produces
estimates bit-identical to the per-base reference implementation
(:mod:`repro.filters.bitvector`).

:func:`gatekeeper_kernel` is registered as the NumPy twin of the native
``gatekeeper_kernel`` pair; filters reach it through
:meth:`repro.filters.GateKeeperFilter.estimate_edits_words`, which resolves
the kernel tier.
"""

from __future__ import annotations

import numpy as np

from ..filters.packed import count_lane_windows, lane_span_mask
from ..genomics.encoding import pack_codes_to_words

__all__ = [
    "BLOCK_PAIRS",
    "device_encode",
    "gatekeeper_kernel",
]

_WORD_BITS = 64
_UINT64 = np.uint64
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)

#: Pairs per row block.  Measured on a 2-CPU host with 2 MiB of L2 per core:
#: the ~10 word-major scratch blocks of a 100 bp batch then stay in L2.
BLOCK_PAIRS = 4096


def device_encode(codes: np.ndarray) -> np.ndarray:
    """Device-side encoding: pack per-base codes into 64-bit words.

    Functionally identical to host encoding; the distinction only matters to
    the timing model (who pays for the packing) and to the transfer volume.
    """
    return pack_codes_to_words(codes, word_bits=_WORD_BITS)


def _shift_rows(src: np.ndarray, bits: int, out: np.ndarray, carry: np.ndarray) -> None:
    """Shift a word-major ``(n_words, n)`` bit-vector block by ``bits`` into ``out``.

    Positive ``bits`` move content towards higher base indices (row 0 holds
    the first bases), negative ``bits`` towards lower ones; zeros are shifted
    in.  Whole words become a row offset, the remainder a sub-word shift whose
    carry comes from the neighbouring row through the ``carry`` scratch.
    """
    n_words = src.shape[0]
    rows, sub = divmod(abs(bits), _WORD_BITS)
    if rows >= n_words:
        out.fill(0)
        return
    kept = n_words - rows
    spill = carry[: kept - 1]
    if bits >= 0:
        np.right_shift(src[:kept], _UINT64(sub), out=out[rows:])
        if sub and kept > 1:
            np.left_shift(src[: kept - 1], _UINT64(_WORD_BITS - sub), out=spill)
            np.bitwise_or(out[rows + 1 :], spill, out=out[rows + 1 :])
        out[:rows] = 0
    else:
        np.left_shift(src[rows:], _UINT64(sub), out=out[:kept])
        if sub and kept > 1:
            np.right_shift(src[rows + 1 :], _UINT64(_WORD_BITS - sub), out=spill)
            np.bitwise_or(out[: kept - 1], spill, out=out[: kept - 1])
        out[kept:] = 0


def _mask_plan(
    length: int, n_words: int, e: int
) -> list[tuple[int, np.ndarray, slice, np.ndarray]]:
    """Per mask ``(shift, keep, edge_rows, vacated)``, shifts 0, +1, -1, ..., +e, -e.

    ``vacated`` is the ``(n_words, 1)`` lane column of the positions with no
    read base to compare, ``edge_rows`` the rows it touches and ``keep`` the
    lanes inside the sequence and outside the vacated span.
    """
    valid = lane_span_mask(0, length, n_words)
    spans = [(0, 0, 0)]
    for k in range(1, e + 1):
        spans += [(k, 0, min(k, length)), (-k, length - k, length)]
    plan = []
    for shift, start, stop in spans:
        vacated = lane_span_mask(start, stop, n_words)
        touched = np.flatnonzero(vacated)
        rows = slice(int(touched[0]), int(touched[-1]) + 1) if touched.size else slice(0, 0)
        plan.append((shift, (valid & ~vacated)[:, None], rows, vacated[:, None]))
    return plan


def gatekeeper_kernel(
    read_words: np.ndarray,
    ref_words: np.ndarray,
    length: int,
    error_threshold: int,
    edge_one: bool,
    count_window: int,
    max_zero_run: int,
) -> np.ndarray:
    """Pure-NumPy GateKeeper estimates for a batch of packed pairs.

    The registered reference implementation of the ``gatekeeper_kernel``
    native pair.  Pairs are processed word-major in blocks of
    :data:`BLOCK_PAIRS`; every mask is produced, amended, edge-forced and
    ANDed in the packed ``uint64`` lane representation, and the returned
    int32 estimates are bit-identical to the Numba twin's.
    """
    if max_zero_run not in (1, 2):
        raise ValueError("gatekeeper_kernel supports max_zero_run of 1 or 2")
    n_pairs, n_words = read_words.shape
    estimates = np.zeros(n_pairs, dtype=np.int32)
    if n_pairs == 0 or length == 0:
        return estimates
    plan = _mask_plan(length, n_words, int(error_threshold))
    width = min(BLOCK_PAIRS, n_pairs)
    read, ref, final, mask, shifted, prev1, next1, next2, prev2, carry = (
        np.empty((n_words, width), dtype=_UINT64) for _ in range(10)
    )
    one = _UINT64(1)

    for start in range(0, n_pairs, width):
        stop = min(start + width, n_pairs)
        n = stop - start
        r, f, acc, m, s = read[:, :n], ref[:, :n], final[:, :n], mask[:, :n], shifted[:, :n]
        p1, n1, n2, p2, c = prev1[:, :n], next1[:, :n], next2[:, :n], prev2[:, :n], carry[:, :n]
        r[...] = read_words[start:stop].T
        f[...] = ref_words[start:stop].T
        acc.fill(_ALL_ONES)
        for shift, keep, edge_rows, vacated in plan:
            # Mask: position j compares read[j - shift] with ref[j]; OR-fold
            # each 2-bit group onto its lane bit, then clear the padding and
            # vacated lanes (the raw-mask convention the amendment expects).
            if shift:
                _shift_rows(r, 2 * shift, s, c)
                np.bitwise_xor(s, f, out=m)
            else:
                np.bitwise_xor(r, f, out=m)
            np.right_shift(m, one, out=s)
            np.bitwise_or(m, s, out=m)
            np.bitwise_and(m, keep, out=m)
            # Amendment: a zero is flipped when it sits in a run of at most
            # max_zero_run zeros flanked by ones, i.e. when m[j-1] & m[j+1]
            # (single zero), or, for runs of two, m[j-1] & m[j+2] or
            # m[j-2] & m[j+1].  Zeros shifted in at the edges leave runs
            # touching either boundary untouched.
            _shift_rows(m, 2, p1, c)
            _shift_rows(m, -2, n1, c)
            if max_zero_run == 2:
                _shift_rows(m, -4, n2, c)
                _shift_rows(m, 4, p2, c)
                np.bitwise_or(n2, n1, out=n2)
                np.bitwise_and(n2, p1, out=n2)
                np.bitwise_and(n1, p2, out=n1)
                np.bitwise_or(m, n2, out=m)
            else:
                np.bitwise_and(n1, p1, out=n1)
            np.bitwise_or(m, n1, out=m)
            if edge_one:
                np.bitwise_or(m[edge_rows], vacated[edge_rows], out=m[edge_rows])
            np.bitwise_and(acc, m, out=acc)
        estimates[start:stop] = count_lane_windows(acc.T, length, window=count_window)

    return estimates
