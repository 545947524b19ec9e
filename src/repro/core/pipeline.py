"""End-to-end pre-alignment filtering pipeline (filter + verification).

.. deprecated::
    :class:`FilteringPipeline` remains fully functional but is a legacy
    façade: new code should declare a :class:`repro.api.Workload` and execute
    it on a :class:`repro.api.Session`, which drives this machinery (and the
    streaming runtime) behind one typed entry point and emits the versioned
    :class:`repro.api.Result` schema.

This is the standalone driver used by the experiments that do not need the
full mapper: it runs a candidate-pair pool through a pre-alignment filter,
verifies the surviving pairs with the exact verifier, and accounts for how
much verification work the filter saved (the quantity behind Tables 3-5).

Any filtering engine works: :class:`repro.core.GateKeeperGPU`, a
:class:`repro.engine.FilterEngine` wrapping one of the six registered
algorithms, a :class:`repro.engine.FilterCascade`, a bare
:class:`repro.filters.PreAlignmentFilter` instance, or just a registry name
(``FilteringPipeline("shouji", error_threshold=5)``).  Bare filters and names
are wrapped in a :class:`~repro.engine.FilterEngine` lazily, when the first
dataset fixes the read length.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

import numpy as np

from .._defaults import DEFAULT_CHUNK_SIZE
from .._defaults import VERIFICATION_COST_PER_PAIR_S as _VERIFICATION_COST_PER_PAIR_S
from ..align.verification import Verifier
from ..filters.base import PreAlignmentFilter
from ..gpusim.timing import FilterTiming
from ..simulate.pairs import PairDataset
from .results import FilterRunResult

__all__ = ["PipelineReport", "FilteringPipeline", "resolve_error_threshold"]


def __getattr__(name: str):
    # The calibrated per-pair verification cost used to be defined here; its
    # single source of truth is now repro.api.defaults (repro._defaults).
    if name == "VERIFICATION_COST_PER_PAIR_S":
        warnings.warn(
            "repro.core.pipeline.VERIFICATION_COST_PER_PAIR_S is deprecated; "
            "use repro.api.defaults.VERIFICATION_COST_PER_PAIR_S instead",
            DeprecationWarning,
            stacklevel=2,
        )
        return _VERIFICATION_COST_PER_PAIR_S
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def resolve_error_threshold(engine, error_threshold: int | None) -> int:
    """The effective threshold of ``engine`` / an explicit ``error_threshold``.

    Engines and filter instances carry their own threshold; name/class specs
    need the explicit one.  An explicit threshold that disagrees with the
    engine's is an error — shared by the in-memory and streaming pipelines so
    both resolve identically.
    """
    threshold = getattr(engine, "error_threshold", None)
    if threshold is None:
        threshold = error_threshold
    if threshold is None:
        raise ValueError(
            "error_threshold is required when the engine does not carry one"
        )
    if error_threshold is not None and int(error_threshold) != int(threshold):
        raise ValueError(
            f"engine error_threshold ({threshold}) disagrees with the "
            f"explicit error_threshold ({error_threshold})"
        )
    return int(threshold)


@dataclass
class PipelineReport:
    """Outcome of one filter + verification run over a pair pool."""

    dataset_name: str
    error_threshold: int
    filter_result: FilterRunResult
    verified_accepts: int
    verified_rejects: int
    verification_time_s: float
    verification_wall_clock_s: float
    no_filter_verification_time_s: float

    @property
    def n_pairs(self) -> int:
        return self.filter_result.n_pairs

    @property
    def pairs_entering_verification(self) -> int:
        return self.filter_result.n_accepted

    @property
    def rejected_pairs(self) -> int:
        return self.filter_result.n_rejected

    @property
    def reduction(self) -> float:
        """Fraction of candidate verifications eliminated by the filter."""
        return self.filter_result.rejection_rate

    @property
    def filtering_plus_verification_time_s(self) -> float:
        """Kernel time + remaining verification time (the paper's combined metric)."""
        return self.filter_result.kernel_time_s + self.verification_time_s

    @property
    def verification_speedup(self) -> float:
        """Speedup of (filter + verification) over verification without a filter."""
        denominator = self.filtering_plus_verification_time_s
        return self.no_filter_verification_time_s / denominator if denominator else float("inf")

    @property
    def theoretical_speedup(self) -> float:
        """Speedup if filtering itself were free (direct proportion, Table 4)."""
        surviving = self.pairs_entering_verification
        return self.n_pairs / surviving if surviving else float("inf")

    def summary(self) -> dict[str, float | int | str]:
        return {
            "dataset": self.dataset_name,
            "error_threshold": self.error_threshold,
            "n_pairs": self.n_pairs,
            "verification_pairs": self.pairs_entering_verification,
            "rejected_pairs": self.rejected_pairs,
            "reduction_pct": round(100.0 * self.reduction, 2),
            "kernel_time_s": self.filter_result.kernel_time_s,
            "filter_time_s": self.filter_result.filter_time_s,
            "verification_time_s": self.verification_time_s,
            "no_filter_verification_time_s": self.no_filter_verification_time_s,
            "verification_speedup": round(self.verification_speedup, 3),
            "theoretical_speedup": round(self.theoretical_speedup, 3),
        }


class FilteringPipeline:
    """Filter a candidate-pair pool and verify the survivors.

    Parameters
    ----------
    engine:
        Anything that filters: an engine/cascade (has ``filter_dataset``), a
        :class:`PreAlignmentFilter` instance, or a registry name string.
    verifier:
        Exact verifier for the surviving pairs; defaults to a
        :class:`~repro.align.verification.Verifier` at the engine's threshold.
    error_threshold:
        Required when ``engine`` is a name string (instances and engines carry
        their own threshold).
    executor:
        Optional :class:`~repro.exec.Executor`; the filtration fans out
        across its workers (results are byte-identical to serial execution
        for every backend and worker count).
    """

    def __init__(
        self,
        engine,
        verifier: Verifier | None = None,
        verification_cost_per_pair_s: float = _VERIFICATION_COST_PER_PAIR_S,
        error_threshold: int | None = None,
        executor=None,
    ):
        self.engine = engine
        self.error_threshold = resolve_error_threshold(engine, error_threshold)
        self.verifier = verifier or Verifier(self.error_threshold)
        self.verification_cost_per_pair_s = verification_cost_per_pair_s
        self.executor = executor
        self._lazy_spec = None
        if not hasattr(engine, "filter_dataset"):
            if not isinstance(engine, (str, PreAlignmentFilter, type)):
                raise TypeError(f"cannot filter with {engine!r}")
            self._lazy_spec = engine
            self.engine = None

    # Backwards-compatible alias from the GateKeeper-only era.
    @property
    def gatekeeper(self):
        return self.engine

    def _engine_for(self, dataset: PairDataset):
        """Wrap bare filters / names in a FilterEngine sized to ``dataset``.

        A lazily-wrapped engine is rebuilt whenever a dataset with a
        different read length arrives; explicitly-passed engines keep their
        configured length (and the engine itself rejects mismatched input).
        """
        if self._lazy_spec is None:
            return self.engine
        if self.engine is None or self.engine.read_length != dataset.read_length:
            from ..engine.engine import FilterEngine

            self.engine = FilterEngine(
                self._lazy_spec,
                read_length=dataset.read_length,
                error_threshold=self.error_threshold,
            )
        return self.engine

    def run(
        self,
        dataset: "PairDataset | str | Path | Iterable[tuple[str, str]]",
        verify: bool = True,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        reference: "str | Path | None" = None,
        collect_decisions: bool = True,
    ):
        """Run the pipeline over ``dataset``.

        ``dataset`` may be a fully materialised :class:`PairDataset` (the
        classic in-memory path, returning a :class:`PipelineReport`) — or a
        file path / pair iterator, in which case the run is delegated to the
        chunked :class:`repro.runtime.StreamingPipeline` and returns a
        :class:`~repro.runtime.StreamingReport` whose totals are
        byte-identical to the in-memory report on the same data.

        ``verify=False`` skips the actual verification loop (useful for large
        throughput-only runs); the verification *time* is still modelled from
        the per-pair cost so the speedup accounting stays available.
        ``chunk_size``, ``reference`` and ``collect_decisions`` only apply to
        the streaming path (``reference`` is the FASTA to seed a FASTQ/FASTA
        read file against; pass ``collect_decisions=False`` to drop the
        per-pair decision vectors and keep the run strictly O(chunk)).
        """
        if isinstance(dataset, (str, Path)) or not hasattr(dataset, "reads"):
            return self.run_stream(
                dataset,
                verify=verify,
                chunk_size=chunk_size,
                reference=reference,
                collect_decisions=collect_decisions,
            )
        engine = self._engine_for(dataset)
        filter_kwargs = {}
        if self.executor is not None:
            from ..exec.executor import accepts_executor

            if accepts_executor(engine.filter_dataset):
                filter_kwargs["executor"] = self.executor
        filter_result = engine.filter_dataset(dataset, **filter_kwargs)
        surviving = filter_result.accepted_indices()

        verified_accepts = 0
        verified_rejects = 0
        wall = 0.0
        if verify:
            start = time.perf_counter()
            survivors = surviving.tolist()
            distances = self.verifier.verify_batch(
                [dataset.reads[index] for index in survivors],
                [dataset.segments[index] for index in survivors],
            )
            verified_accepts = int(np.count_nonzero(distances <= self.verifier.error_threshold))
            verified_rejects = len(survivors) - verified_accepts
            wall = time.perf_counter() - start

        # Model-scale verification times (per-pair DP cost x pair counts):
        verification_time = len(surviving) * self.verification_cost_per_pair_s
        no_filter_time = filter_result.n_pairs * self.verification_cost_per_pair_s
        # The read length scales the DP cost quadratically relative to 100 bp.
        length_factor = (dataset.read_length / 100.0) ** 2
        verification_time *= length_factor
        no_filter_time *= length_factor

        return PipelineReport(
            dataset_name=dataset.name,
            error_threshold=self.error_threshold,
            filter_result=filter_result,
            verified_accepts=verified_accepts,
            verified_rejects=verified_rejects,
            verification_time_s=verification_time,
            verification_wall_clock_s=wall,
            no_filter_verification_time_s=no_filter_time,
        )

    def run_stream(
        self,
        source: "str | Path | PairDataset | Iterable[tuple[str, str]]",
        verify: bool = True,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        reference: "str | Path | None" = None,
        name: str | None = None,
        collect_decisions: bool = True,
    ):
        """Run the pipeline in O(chunk) memory via :class:`StreamingPipeline`.

        ``source`` may be a pairs-TSV path, a FASTQ/FASTA read file (with
        ``reference``), a :class:`PairDataset`, or any iterator of
        ``(read, segment)`` tuples.  Returns a
        :class:`repro.runtime.StreamingReport`.  With
        ``collect_decisions=False`` the report drops the concatenated
        per-pair vectors, so memory stays O(chunk) on unbounded inputs.
        """
        from ..runtime.streaming import StreamingPipeline

        spec = self.engine if self._lazy_spec is None else self._lazy_spec
        streaming = StreamingPipeline(
            spec,
            chunk_size=chunk_size,
            verifier=self.verifier,
            error_threshold=self.error_threshold,
            verification_cost_per_pair_s=self.verification_cost_per_pair_s,
            collect_decisions=collect_decisions,
            executor=self.executor,
        )
        if isinstance(source, (str, Path)):
            return streaming.run_file(source, reference=reference, verify=verify, name=name)
        if hasattr(source, "reads"):
            return streaming.run_dataset(source, verify=verify)
        return streaming.run_pairs(source, name=name or "stream", verify=verify)
