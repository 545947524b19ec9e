"""Chunked, bounded-memory streaming execution of the filtering pipeline.

.. deprecated::
    :class:`StreamingPipeline` remains fully functional but is a legacy
    façade: new code should declare a file-backed :class:`repro.api.Workload`
    (``input.kind = "reads"`` / ``"tsv"``) and execute it on a
    :class:`repro.api.Session`, which drives this runtime with cached
    engines/references/indexes and emits the versioned
    :class:`repro.api.Result` schema.

:class:`StreamingPipeline` is the file-backed counterpart of
:class:`repro.core.pipeline.FilteringPipeline`: instead of a fully
materialised :class:`~repro.simulate.pairs.PairDataset` it consumes any
iterator of ``(read, segment)`` pairs — a FASTQ/FASTA read file seeded
against a reference, a pairs TSV, or a generator — and processes it
``chunk_size`` pairs at a time, so peak memory is O(chunk) regardless of the
input size.

Each chunk is sharded across the configured (simulated) devices with
:class:`~repro.gpusim.multi_gpu.MultiGpuDispatcher`; every device share runs
the engine's batched kernel path (:meth:`FilterEngine.filter_share`), the
surviving pairs are verified immediately, and only counters survive the
chunk.  H2D-transfer/kernel overlap is modelled with one
:class:`~repro.gpusim.stream.CudaStream` per device in a
:class:`~repro.gpusim.stream.StreamPool`, so the report can distinguish
*serial* execution (every transfer and kernel back-to-back) from
*overlapped* execution (devices run concurrently, chunks pipeline).

Equivalence contract
--------------------
For the same pairs, the accumulated :class:`StreamingReport` totals are
**byte-identical** to the in-memory pipeline's
:meth:`~repro.core.pipeline.PipelineReport.summary` — same accept/reject
decisions (each pair's decision depends only on that pair) and same modelled
times (the analytic timing model is evaluated once on the final totals, with
exactly the calls the in-memory path makes).  ``tests/test_runtime_streaming.py``
locks this down for every registered filter and several chunk sizes, and
``tests/test_streaming_golden.py`` pins the totals on a checked-in fixture.

The same per-pair determinism is what makes the adaptive planner's probe
(:mod:`repro.planner`) mode-independent: the planner samples the *prefix* of
the pair iterator — the pairs the streaming path would place in its first
chunk(s), in the order the in-memory path indexes them — so a
``filter = "auto"`` workload resolves to the same plan whether it later runs
streamed or in memory, at any chunk size.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .._defaults import DEFAULT_CHUNK_SIZE, VERIFICATION_COST_PER_PAIR_S
from ..align.verification import Verifier
from ..core.config import EncodingActor
from ..core.pipeline import resolve_error_threshold
from ..exec.reduce import (
    modelled_verification_times,
    stream_overlap_times,
    total_timing,
)
from ..filters.base import PreAlignmentFilter
from ..genomics.encoding import EncodedPairBatch
from ..gpusim.multi_gpu import MultiGpuDispatcher, split_evenly
from ..gpusim.timing import FilterTiming
from .sources import (
    ensure_pairs_path,
    pairs_from_dataset,
    pairs_from_tsv,
    seeded_pairs,
)

__all__ = ["ChunkReport", "StreamingReport", "StreamingPipeline"]


@dataclass(frozen=True)
class ChunkReport:
    """Per-chunk accounting (everything that survives a chunk besides counters)."""

    chunk_index: int
    n_pairs: int
    n_accepted: int
    n_rejected: int
    n_undefined: int
    n_batches: int
    wall_clock_s: float
    modelled_kernel_s: float
    modelled_filter_s: float

    def summary(self) -> dict:
        return {
            "chunk": self.chunk_index,
            "n_pairs": self.n_pairs,
            "n_accepted": self.n_accepted,
            "n_rejected": self.n_rejected,
            "n_undefined": self.n_undefined,
            "n_batches": self.n_batches,
            "modelled_kernel_s": self.modelled_kernel_s,
            "modelled_filter_s": self.modelled_filter_s,
        }


@dataclass
class StreamingReport:
    """Merged accounting of a full streaming run.

    The totals section mirrors :class:`repro.core.pipeline.PipelineReport`
    exactly (same fields, same formulas, same analytic-model calls on the
    final counts), so :meth:`summary` of a streaming run and of the in-memory
    pipeline on the same data are JSON-equal.  On top of that the report
    keeps the streaming-only quantities: per-chunk accounting, the number of
    chunks/devices, and the modelled serial vs overlapped wall times from the
    stream model.
    """

    dataset_name: str
    filter_name: str
    error_threshold: int
    read_length: int
    chunk_size: int
    n_devices: int
    n_pairs: int
    n_accepted: int
    n_rejected: int
    n_undefined: int
    n_batches: int
    n_chunks: int
    verified_accepts: int
    verified_rejects: int
    verification_time_s: float
    verification_wall_clock_s: float
    no_filter_verification_time_s: float
    timing: FilterTiming
    wall_clock_s: float
    serial_time_s: float
    overlapped_time_s: float
    chunks: list[ChunkReport] = field(default_factory=list)
    accepted: np.ndarray | None = None
    estimated_edits: np.ndarray | None = None
    undefined: np.ndarray | None = None
    metadata: dict = field(default_factory=dict)

    # ------------------------------------------------------------------ #
    # PipelineReport-compatible views
    # ------------------------------------------------------------------ #
    @property
    def kernel_time_s(self) -> float:
        return self.timing.kernel_s

    @property
    def filter_time_s(self) -> float:
        return self.timing.filter_s

    @property
    def pairs_entering_verification(self) -> int:
        return self.n_accepted

    @property
    def rejected_pairs(self) -> int:
        return self.n_rejected

    @property
    def reduction(self) -> float:
        """Fraction of candidate verifications eliminated by the filter."""
        return self.n_rejected / self.n_pairs if self.n_pairs else 0.0

    @property
    def filtering_plus_verification_time_s(self) -> float:
        return self.kernel_time_s + self.verification_time_s

    @property
    def verification_speedup(self) -> float:
        denominator = self.filtering_plus_verification_time_s
        return self.no_filter_verification_time_s / denominator if denominator else float("inf")

    @property
    def theoretical_speedup(self) -> float:
        surviving = self.pairs_entering_verification
        return self.n_pairs / surviving if surviving else float("inf")

    @property
    def overlap_speedup(self) -> float:
        """Modelled speedup of overlapped streams over serial execution."""
        return self.serial_time_s / self.overlapped_time_s if self.overlapped_time_s else 1.0

    def summary(self) -> dict[str, float | int | str]:
        """Totals, field-for-field identical to ``PipelineReport.summary()``."""
        return {
            "dataset": self.dataset_name,
            "error_threshold": self.error_threshold,
            "n_pairs": self.n_pairs,
            "verification_pairs": self.pairs_entering_verification,
            "rejected_pairs": self.rejected_pairs,
            "reduction_pct": round(100.0 * self.reduction, 2),
            "kernel_time_s": self.kernel_time_s,
            "filter_time_s": self.filter_time_s,
            "verification_time_s": self.verification_time_s,
            "no_filter_verification_time_s": self.no_filter_verification_time_s,
            "verification_speedup": round(self.verification_speedup, 3),
            "theoretical_speedup": round(self.theoretical_speedup, 3),
        }

    def streaming_summary(self) -> dict[str, float | int | str]:
        """The streaming-only quantities (chunking, devices, overlap model)."""
        return {
            "filter": self.filter_name,
            "chunk_size": self.chunk_size,
            "n_chunks": self.n_chunks,
            "n_devices": self.n_devices,
            "n_batches": self.n_batches,
            "n_undefined": self.n_undefined,
            "verified_accepts": self.verified_accepts,
            "verified_rejects": self.verified_rejects,
            "serial_time_s": self.serial_time_s,
            "overlapped_time_s": self.overlapped_time_s,
            "overlap_speedup": round(self.overlap_speedup, 3),
        }

    def as_dict(self, include_chunks: bool = True) -> dict:
        """JSON-ready view: totals + streaming extras (+ per-chunk rows).

        Non-finite floats (e.g. an infinite speedup when nothing survives)
        are mapped to ``None`` so the output stays strict RFC-8259 JSON.
        """

        def json_safe(mapping: dict) -> dict:
            return {
                key: (None if isinstance(value, float) and not np.isfinite(value) else value)
                for key, value in mapping.items()
            }

        out = {
            "summary": json_safe(self.summary()),
            "streaming": json_safe(self.streaming_summary()),
        }
        if include_chunks:
            out["chunks"] = [json_safe(chunk.summary()) for chunk in self.chunks]
        return out


class StreamingPipeline:
    """Filter + verify an unbounded pair stream in bounded memory.

    Parameters
    ----------
    engine:
        Anything the in-memory pipeline accepts: an engine or cascade (has
        ``filter_lists``), a :class:`PreAlignmentFilter` instance or subclass,
        a registry name string — or, additionally, a list of names, which is
        resolved into a :class:`~repro.engine.FilterCascade` when the first
        chunk fixes the read length.
    chunk_size:
        Pairs per chunk; peak memory is proportional to this.
    verifier / error_threshold / verification_cost_per_pair_s:
        As in :class:`~repro.core.pipeline.FilteringPipeline`.
    collect_decisions:
        Keep the concatenated accept/estimate/undefined vectors on the report
        (1 byte + 4 bytes + 1 byte per pair).  Disable for truly unbounded
        inputs; the totals are unaffected.
    collect_chunk_reports:
        Keep one :class:`ChunkReport` per chunk on the report.  Cheap (one
        small object per chunk), but disable it too when streaming without
        any bound on the number of chunks; the totals are unaffected.
    max_chunk_reports:
        Keep at most this many leading :class:`ChunkReport` rows (``None`` =
        unlimited).  ``StreamingReport.n_chunks`` always counts every chunk,
        so a truncated report is detectable (``n_chunks > len(chunks)``).
    collect_chunk_timings:
        Record every chunk's per-device ``[transfer_s, kernel_s, host_s]``
        stream-model triples on ``report.metadata["chunk_device_timings"]``.
        Sharded runs (:mod:`repro.cluster`) enable this so ``repro merge``
        can replay the stream-overlap accumulation in the exact single-run
        order; off by default (O(n_chunks) extra state).
    engine_kwargs:
        Extra :class:`~repro.engine.FilterEngine` constructor arguments used
        when the engine is built lazily from a name/class/list spec (e.g.
        ``n_devices=4`` or ``setup=SETUP_1``).
    executor:
        Optional :class:`~repro.exec.Executor` — every chunk's filtration
        fans out across its workers (threads or processes with shared-memory
        transport).  Decisions, modelled times and batch counts are
        byte-identical to serial execution for every backend/worker count.
    prefetch:
        Overlap input and compute: a producer thread parses and encodes chunk
        ``N + 1`` while chunk ``N`` filters (the host-side analogue of the
        modelled H2D/kernel ``CudaStream`` overlap — but measured).  Results
        are unaffected; only wall-clock changes.
    prefetch_chunks:
        Bound on encoded chunks queued ahead of the consumer (peak memory is
        proportional to ``prefetch_chunks * chunk_size``).
    """

    def __init__(
        self,
        engine,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        verifier: Verifier | None = None,
        error_threshold: int | None = None,
        verification_cost_per_pair_s: float = VERIFICATION_COST_PER_PAIR_S,
        collect_decisions: bool = True,
        collect_chunk_reports: bool = True,
        max_chunk_reports: int | None = None,
        collect_chunk_timings: bool = False,
        engine_kwargs: dict | None = None,
        executor=None,
        prefetch: bool = False,
        prefetch_chunks: int = 2,
    ):
        if chunk_size < 1:
            raise ValueError("chunk_size must be at least 1")
        if max_chunk_reports is not None and max_chunk_reports < 0:
            raise ValueError("max_chunk_reports must be non-negative or None")
        if prefetch_chunks < 1:
            raise ValueError("prefetch_chunks must be at least 1")
        self.chunk_size = int(chunk_size)
        self.engine = engine
        self.verification_cost_per_pair_s = verification_cost_per_pair_s
        self.collect_decisions = bool(collect_decisions)
        self.collect_chunk_reports = bool(collect_chunk_reports)
        self.max_chunk_reports = max_chunk_reports
        self.collect_chunk_timings = bool(collect_chunk_timings)
        self.engine_kwargs = dict(engine_kwargs or {})
        self.executor = executor
        self.prefetch = bool(prefetch)
        self.prefetch_chunks = int(prefetch_chunks)
        self._executor_support: "tuple[object, bool] | None" = None

        self.error_threshold = resolve_error_threshold(engine, error_threshold)
        self.verifier = verifier or Verifier(self.error_threshold)

        self._lazy_spec = None
        if not hasattr(engine, "filter_lists"):
            if not isinstance(engine, (str, PreAlignmentFilter, type, list, tuple)):
                raise TypeError(f"cannot filter with {engine!r}")
            self._lazy_spec = engine
            self.engine = None

    # ------------------------------------------------------------------ #
    # Engine resolution
    # ------------------------------------------------------------------ #
    def _engine_for(self, read_length: int):
        """Build/rebuild a lazily-specified engine for ``read_length``."""
        if self._lazy_spec is None:
            return self.engine
        if self.engine is None or self.engine.read_length != read_length:
            from ..engine.cascade import FilterCascade
            from ..engine.engine import FilterEngine

            if isinstance(self._lazy_spec, (list, tuple)):
                self.engine = FilterCascade.from_names(
                    list(self._lazy_spec),
                    read_length=read_length,
                    error_threshold=self.error_threshold,
                    **self.engine_kwargs,
                )
            else:
                self.engine = FilterEngine(
                    self._lazy_spec,
                    read_length=read_length,
                    error_threshold=self.error_threshold,
                    **self.engine_kwargs,
                )
        return self.engine

    def _spec_name(self) -> str:
        """Display name of the configured filter, even before any chunk ran."""
        if self.engine is not None:
            return getattr(self.engine, "name", "none")
        spec = self._lazy_spec
        from ..engine.registry import get_filter_class

        if isinstance(spec, (list, tuple)):
            return " -> ".join(get_filter_class(name).name for name in spec)
        if isinstance(spec, str):
            return get_filter_class(spec).name
        return getattr(spec, "name", getattr(spec, "__name__", "none"))

    def _configured_devices(self) -> int:
        """Device count of the configured engine, even before any chunk ran."""
        if self.engine is not None:
            return self.engine.n_devices
        if "devices" in self.engine_kwargs:
            return len(self.engine_kwargs["devices"])
        return max(1, int(self.engine_kwargs.get("n_devices", 1)))

    # ------------------------------------------------------------------ #
    # Chunk execution
    # ------------------------------------------------------------------ #
    @staticmethod
    def _iter_chunks(
        pairs: Iterable[tuple[str, str]], chunk_size: int
    ) -> Iterator[tuple[list[str], list[str]]]:
        reads: list[str] = []
        segments: list[str] = []
        for read, segment in pairs:
            reads.append(read)
            segments.append(segment)
            if len(reads) >= chunk_size:
                yield reads, segments
                reads, segments = [], []
        if reads:
            yield reads, segments

    def _encode_chunk(self, reads, segments) -> "EncodedPairBatch | None":
        """Encode one chunk ahead of filtration (the producer-side work).

        Returns ``None`` for custom string-only engines, which keep their own
        single encode inside :meth:`_filter_chunk`.  When the engine is
        already known to consume the packed word form, the words are packed
        here too, so the *whole* input-side cost sits in the producer thread
        under ``prefetch=True``.
        """
        engine = self.engine
        if engine is not None and not (
            hasattr(engine, "filter_encoded") or hasattr(engine, "filter_encoded_share")
        ):
            return None
        batch = EncodedPairBatch.from_lists(reads, segments)
        if engine is not None:
            from ..exec.executor import wants_word_arrays

            if wants_word_arrays(engine):
                batch.read_words
                batch.ref_words
        return batch

    def _iter_prepared(
        self, pairs: Iterable[tuple[str, str]]
    ) -> Iterator[tuple[list[str], list[str], "EncodedPairBatch | None"]]:
        """Yield ``(reads, segments, encoded)`` chunks, prefetching if enabled.

        Without prefetch, chunks are encoded inline (same thread, same order
        as before).  With prefetch, a producer thread reads the pair iterator
        and encodes chunk ``N + 1`` while the caller filters chunk ``N``; the
        queue is bounded by ``prefetch_chunks`` so memory stays O(chunk).
        """
        if not self.prefetch:
            for reads, segments in self._iter_chunks(pairs, self.chunk_size):
                yield reads, segments, self._encode_chunk(reads, segments)
            return

        import queue as queue_module
        import threading

        work: "queue_module.Queue" = queue_module.Queue(maxsize=self.prefetch_chunks)
        stop = threading.Event()
        done = object()

        def _put(item) -> bool:
            while not stop.is_set():
                try:
                    work.put(item, timeout=0.05)
                    return True
                except queue_module.Full:
                    continue
            return False

        def _produce() -> None:
            try:
                for reads, segments in self._iter_chunks(pairs, self.chunk_size):
                    if not _put((reads, segments, self._encode_chunk(reads, segments))):
                        return
                _put(done)
            except BaseException as exc:  # propagate parse errors to the consumer
                _put(exc)

        producer = threading.Thread(
            target=_produce, name="repro-prefetch", daemon=True
        )
        producer.start()
        try:
            while True:
                item = work.get()
                if item is done:
                    return
                if isinstance(item, BaseException):
                    raise item
                yield item
        finally:
            stop.set()
            while not work.empty():  # unblock a producer stuck on a full queue
                try:
                    work.get_nowait()
                except queue_module.Empty:  # pragma: no cover - race window
                    break
            producer.join(timeout=5.0)

    def _engine_takes_executor(self, engine) -> bool:
        """Whether ``engine.filter_encoded`` accepts ``executor=`` (cached —
        the signature reflection must not run once per chunk)."""
        if self.executor is None:
            return False
        cached = self._executor_support
        if cached is None or cached[0] is not engine:
            from ..exec.executor import accepts_executor

            cached = (engine, accepts_executor(engine.filter_encoded))
            self._executor_support = cached
        return cached[1]

    def _filter_chunk(self, engine, reads, segments, stage_inputs, encoded=None):
        """Filter one chunk; returns (estimates, accepted, undefined, n_batches,
        per-device share timings).

        The chunk is encoded into an
        :class:`~repro.genomics.encoding.EncodedPairBatch` exactly once —
        either by the (possibly prefetching) chunk preparation, arriving here
        as ``encoded``, or inline; device shares and cascade stages below only
        ever see index/slice views of it.  A configured executor fans the
        chunk across its workers without changing any reported quantity.
        """
        n = len(reads)
        if hasattr(engine, "stages"):
            # Cascade: the cascade handles the stage survivor logic itself
            # (each stage's engine splits across its devices internally).
            if hasattr(engine, "filter_encoded"):
                batch = (
                    encoded
                    if encoded is not None
                    else EncodedPairBatch.from_lists(reads, segments)
                )
                if self._engine_takes_executor(engine):
                    result = engine.filter_encoded(batch, executor=self.executor)
                else:
                    result = engine.filter_encoded(batch)
            else:  # custom cascade-like engine without the encoded protocol
                result = engine.filter_lists(reads, segments)
            for account in result.stage_accounts:
                stage_inputs[account.stage] = (
                    stage_inputs.get(account.stage, 0) + account.n_input
                )
            # Per-device stream-model timings: a proportional split of the
            # chunk's composite (all-stage) timing across the device shares.
            share_timings = []
            for share in split_evenly(n, engine.n_devices):
                fraction = (share.stop - share.start) / n
                share_timings.append(
                    FilterTiming(
                        encode_s=result.timing.encode_s * fraction,
                        host_prep_s=result.timing.host_prep_s * fraction,
                        transfer_s=result.timing.transfer_s * fraction,
                        kernel_s=result.timing.kernel_s * fraction,
                    )
                )
            return (
                result.estimated_edits,
                result.accepted,
                result.undefined,
                result.n_batches,
                share_timings,
            )

        # Single engine: shard the chunk across devices explicitly.  The chunk
        # is encoded once, up front, only when the engine speaks the encoded
        # protocol — a custom string-only engine keeps its single encode.
        pairs = None
        if hasattr(engine, "filter_encoded_share"):
            pairs = (
                encoded
                if encoded is not None
                else EncodedPairBatch.from_lists(reads, segments)
            )

        if self.executor is not None and pairs is not None and hasattr(engine, "config"):
            # Executor fan-out: decisions are reduced from worker shares; the
            # per-device stream-model timings and the batch count are the
            # analytic quantities the dispatcher would have produced (pure
            # functions of the chunk size), so every reported number matches
            # the serial dispatch exactly.
            from ..exec.fanout import expected_n_batches, fan_out_engine

            estimates, accepted, undefined = fan_out_engine(
                engine, pairs, self.executor
            )
            share_timings = MultiGpuDispatcher(
                engine.config.devices, engine.timing_model
            ).share_timings(
                n,
                engine.read_length,
                engine.error_threshold,
                encode_on_device=engine.encoding is EncodingActor.DEVICE,
            )
            stage_inputs[0] = stage_inputs.get(0, 0) + n
            return (
                estimates,
                accepted,
                undefined,
                expected_n_batches(engine.config, n),
                share_timings,
            )

        estimates = np.zeros(n, dtype=np.int32)
        accepted = np.zeros(n, dtype=bool)
        undefined = np.zeros(n, dtype=bool)

        def run_share(item_slice: slice, device_index: int):
            if pairs is not None:
                share_est, share_acc, share_undef, share_batches = (
                    engine.filter_encoded_share(pairs[item_slice])
                )
            else:  # custom engine without the encoded protocol
                share_est, share_acc, share_undef, share_batches = (
                    engine.filter_share(reads[item_slice], segments[item_slice])
                )
            estimates[item_slice] = share_est
            accepted[item_slice] = share_acc
            undefined[item_slice] = share_undef
            return share_batches

        # No executor here: this branch only runs custom engines (built-in
        # ones took the encoded fan-out above), and a custom engine's share
        # methods carry no thread-safety guarantee — racing them could
        # silently break the byte-identity contract.
        dispatcher = MultiGpuDispatcher(engine.config.devices, engine.timing_model)
        shares = dispatcher.dispatch(
            n,
            run_share,
            engine.read_length,
            engine.error_threshold,
            encode_on_device=engine.encoding is EncodingActor.DEVICE,
        )
        stage_inputs[0] = stage_inputs.get(0, 0) + n
        n_batches = sum(int(s.result) for s in shares)
        return estimates, accepted, undefined, n_batches, [s.timing for s in shares]

    def _total_timing(self, engine, n_pairs: int, stage_inputs: dict) -> FilterTiming:
        """Evaluate the analytic model on the final totals.

        Delegates to :func:`repro.exec.reduce.total_timing` — the shared
        totals-based reduction also used by the parallel cascade and the
        cluster shard merge, which is what makes the streaming totals
        byte-identical to the in-memory report (and a merged sharded run
        byte-identical to both).
        """
        return total_timing(engine, n_pairs, stage_inputs)

    # ------------------------------------------------------------------ #
    # Entry points
    # ------------------------------------------------------------------ #
    def run_pairs(
        self,
        pairs: Iterable[tuple[str, str]],
        name: str = "stream",
        verify: bool = True,
    ) -> StreamingReport:
        """Stream ``(read, segment)`` pairs through filter + verification."""
        wall_start = time.perf_counter()
        engine = None
        read_length = 0
        n_chunks_seen = 0
        n_pairs = n_accepted = n_undefined = n_batches = 0
        verified_accepts = verified_rejects = 0
        verification_wall = 0.0
        stage_inputs: dict[int, int] = {}
        chunk_reports: list[ChunkReport] = []
        accepted_parts: list[np.ndarray] = []
        estimate_parts: list[np.ndarray] = []
        undefined_parts: list[np.ndarray] = []
        # Per-device running totals for the stream model; materialised as one
        # aggregated operation per kind per stream at the end, so the model
        # state stays O(devices) no matter how many chunks went through.
        device_transfer: list[float] = []
        device_kernel: list[float] = []
        host_time = 0.0
        chunk_timings: list[list[list[float]]] = []

        for chunk_index, (reads, segments, encoded) in enumerate(
            self._iter_prepared(pairs)
        ):
            chunk_start = time.perf_counter()
            if engine is None:
                read_length = len(reads[0])
                engine = self._engine_for(read_length)
                device_transfer = [0.0] * engine.n_devices
                device_kernel = [0.0] * engine.n_devices
            estimates, accepted, undefined, chunk_batches, share_timings = (
                self._filter_chunk(engine, reads, segments, stage_inputs, encoded)
            )

            if verify:
                verify_start = time.perf_counter()
                survivors = np.flatnonzero(accepted).tolist()
                distances = self.verifier.verify_batch(
                    [reads[index] for index in survivors],
                    [segments[index] for index in survivors],
                )
                chunk_verified = int(
                    np.count_nonzero(distances <= self.verifier.error_threshold)
                )
                verified_accepts += chunk_verified
                verified_rejects += len(survivors) - chunk_verified
                verification_wall += time.perf_counter() - verify_start

            # Stream model: accumulate each device's H2D+kernel work for this
            # chunk; host-side encode/prep time is tracked separately (it is
            # not stream work).  The per-chunk modelled times use the
            # dispatcher's multi-GPU combination rules (kernels overlap
            # across devices, host phases amortise), so chunk rows stay
            # consistent with the totals.
            # These are per-*device* modelled times for the configured device
            # split — a semantic quantity fixed by n_devices, not an executor
            # partition artifact — so accumulating them is partition-invariant.
            for device_index, timing in enumerate(share_timings):
                device_transfer[device_index] += timing.transfer_s  # reprolint: disable=partition-invariant-reduction
                device_kernel[device_index] += timing.kernel_s
                host_time += timing.encode_s + timing.host_prep_s  # reprolint: disable=partition-invariant-reduction
            if self.collect_chunk_timings:
                # The same per-device semantic quantities as the accumulation
                # above, serialised per chunk so a shard merge can replay the
                # accumulation in single-run order (same waiver rationale).
                chunk_timings.append(
                    [
                        [timing.transfer_s, timing.kernel_s, timing.encode_s + timing.host_prep_s]  # reprolint: disable=partition-invariant-reduction
                        for timing in share_timings
                    ]
                )
            chunk_kernel = MultiGpuDispatcher.combined_kernel_time_from_timings(
                share_timings
            )
            chunk_filter = MultiGpuDispatcher.combined_filter_time_from_timings(
                share_timings
            )

            chunk_accepted = int(accepted.sum())
            chunk_undefined = int(undefined.sum())
            n_pairs += len(reads)
            n_accepted += chunk_accepted
            n_undefined += chunk_undefined
            n_batches += chunk_batches
            n_chunks_seen = chunk_index + 1
            if self.collect_chunk_reports and (
                self.max_chunk_reports is None
                or len(chunk_reports) < self.max_chunk_reports
            ):
                chunk_reports.append(
                    ChunkReport(
                        chunk_index=chunk_index,
                        n_pairs=len(reads),
                        n_accepted=chunk_accepted,
                        n_rejected=len(reads) - chunk_accepted,
                        n_undefined=chunk_undefined,
                        n_batches=chunk_batches,
                        wall_clock_s=time.perf_counter() - chunk_start,
                        modelled_kernel_s=chunk_kernel,
                        modelled_filter_s=chunk_filter,
                    )
                )
            if self.collect_decisions:
                accepted_parts.append(np.asarray(accepted, dtype=bool))
                estimate_parts.append(np.asarray(estimates, dtype=np.int32))
                undefined_parts.append(np.asarray(undefined, dtype=bool))

        timing = self._total_timing(engine, n_pairs, stage_inputs)
        # Model-scale verification times; identical arithmetic to the
        # in-memory pipeline (count x per-pair cost, then the quadratic
        # read-length factor).
        verification_time, no_filter_time = modelled_verification_times(
            n_accepted, n_pairs, read_length, self.verification_cost_per_pair_s
        )

        # Materialise the stream model: one stream per device with its
        # accumulated H2D and kernel work.  Concurrent streams overlap, so
        # the pool completes at the busiest device (makespan); serial
        # execution pays every operation back-to-back (serialized time).
        n_devices = engine.n_devices if engine is not None else self._configured_devices()
        serial_time, overlapped_time = stream_overlap_times(
            device_transfer, device_kernel, host_time, n_devices
        )

        def _concat(parts, dtype):
            if not self.collect_decisions:
                return None
            if not parts:
                return np.zeros(0, dtype=dtype)
            return np.concatenate(parts)

        return StreamingReport(
            dataset_name=name,
            filter_name=engine.name if engine is not None else self._spec_name(),
            error_threshold=self.error_threshold,
            read_length=read_length,
            chunk_size=self.chunk_size,
            n_devices=n_devices,
            n_pairs=n_pairs,
            n_accepted=n_accepted,
            n_rejected=n_pairs - n_accepted,
            n_undefined=n_undefined,
            n_batches=n_batches,
            n_chunks=n_chunks_seen,
            verified_accepts=verified_accepts,
            verified_rejects=verified_rejects,
            verification_time_s=verification_time,
            verification_wall_clock_s=verification_wall,
            no_filter_verification_time_s=no_filter_time,
            timing=timing,
            wall_clock_s=time.perf_counter() - wall_start,
            serial_time_s=serial_time,
            overlapped_time_s=overlapped_time,
            chunks=chunk_reports,
            accepted=_concat(accepted_parts, bool),
            estimated_edits=_concat(estimate_parts, np.int32),
            undefined=_concat(undefined_parts, bool),
            metadata={
                "chunk_size": self.chunk_size,
                "stage_inputs": dict(stage_inputs),
                "executor": getattr(self.executor, "kind", "serial"),
                "workers": getattr(self.executor, "workers", 1),
                "prefetch": self.prefetch,
                **(
                    {"chunk_device_timings": chunk_timings}
                    if self.collect_chunk_timings
                    else {}
                ),
            },
        )

    def run_dataset(self, dataset, verify: bool = True) -> StreamingReport:
        """Stream an in-memory :class:`PairDataset` (used by equivalence tests)."""
        return self.run_pairs(pairs_from_dataset(dataset), name=dataset.name, verify=verify)

    def run_file(
        self,
        input_path: str | Path,
        reference: str | Path | None = None,
        name: str | None = None,
        verify: bool = True,
        seeding_k: int = 12,
        max_candidates_per_read: int = 2048,
    ) -> StreamingReport:
        """Stream candidate pairs from files.

        With ``reference`` given, ``input_path`` is a FASTQ/FASTA read file
        whose reads are seeded against the reference genome (the mapper-index
        source).  Without it, ``input_path`` must be a two-column pairs TSV.
        """
        input_path = Path(input_path)
        if reference is not None:
            pairs = seeded_pairs(
                input_path,
                reference,
                self.error_threshold,
                k=seeding_k,
                max_candidates_per_read=max_candidates_per_read,
            )
        else:
            pairs = pairs_from_tsv(ensure_pairs_path(input_path))
        return self.run_pairs(pairs, name=name or input_path.name, verify=verify)
