"""Per-layer instrumentation: wrap each layer's public entry points in spans.

:func:`install` patches the program's public functions and methods in place
(nothing under ``src/`` changes) and returns a function that restores them.
:func:`layer_metrics` turns the recorded spans into the per-layer metrics
listed in :data:`PER_LAYER`, which also records the end-to-end metric and
workload each one is expected to move.

Calls are grouped by their root ``Session.run`` span.  The first
``cold_calls`` roots build the session caches; the set-up layers
(``simulate``, ``index``, and the ``cold_`` variants of ``encode`` and
``parse``) are summed over them.  Every other busy time, count and ratio is
a mean per warm call.
"""

from __future__ import annotations

import concurrent.futures
import functools
import inspect
import os
import statistics
import threading
import time
from typing import Any, Callable

from spans import Recorder, Span, coverage, layer_busy, self_times

__all__ = ["PER_LAYER", "LEAF_LAYERS", "GAP_MEANING", "install", "group_calls", "layer_metrics"]

#: name -> (unit, better, the end-to-end metric and workload it should move).
PER_LAYER: "dict[str, tuple[str, str, str]]" = {
    "simulate.busy_s": ("s", "lower", "setup_s on bulk-filter, verify-cascade and serve-mix"),
    "encode.busy_s": ("s", "lower", "pairs_per_s on reads-stream"),
    "encode.cold_busy_s": ("s", "lower", "setup_s on bulk-filter"),
    "encode.pairs": ("count", "lower", "pairs_per_s on reads-stream; setup_s on bulk-filter"),
    "parse.busy_s": ("s", "lower", "pairs_per_s on reads-stream"),
    "parse.cold_busy_s": ("s", "lower", "setup_s on reads-stream"),
    "parse.bytes": ("B", "lower", "pairs_per_s and setup_s on reads-stream"),
    "index.busy_s": ("s", "lower", "setup_s on reads-stream"),
    "seed.busy_s": ("s", "lower", "pairs_per_s on reads-stream"),
    "seed.candidates_per_read": ("count", "lower", "pairs_per_s on reads-stream"),
    "kernel.busy_s": ("s", "lower", "pairs_per_s on bulk-filter (little on verify-cascade)"),
    "kernel.pairs": ("count", "lower", "pairs_per_s on bulk-filter"),
    "kernel.pairs_per_s": ("pairs/s", "higher", "pairs_per_s on bulk-filter"),
    "kernel.gatekeeper-gpu.busy_s": ("s", "lower", "pairs_per_s on bulk-filter"),
    "kernel.sneakysnake.busy_s": ("s", "lower", "pairs_per_s on verify-cascade (little)"),
    "kernel.bytes_computed": ("B", "lower", "pairs_per_s on bulk-filter"),
    "kernel.ops_per_pair": ("ops", "lower", "pairs_per_s on bulk-filter"),
    "cascade.stage1_survivor_ratio": ("ratio", "lower", "pairs_per_s on verify-cascade"),
    "exec.wait_s": ("s", "lower", "pairs_per_s on bulk-filter"),
    "exec.speedup_vs_serial": ("x", "higher", "pairs_per_s on bulk-filter"),
    "pipeline.self_s": ("s", "lower", "pairs_per_s on bulk-filter and verify-cascade"),
    "stream.self_s": ("s", "lower", "pairs_per_s on reads-stream; latency_p50_ms on serve-mix"),
    "stream.chunks": ("count", "lower", "pairs_per_s on reads-stream"),
    "verify.busy_s": ("s", "lower", "pairs_per_s on verify-cascade"),
    "verify.calls": ("count", "lower", "pairs_per_s on verify-cascade"),
    "verify.us_per_call": ("us", "lower", "pairs_per_s on verify-cascade"),
    "verify.accept_ratio": ("ratio", "higher", "pairs_per_s on verify-cascade"),
    "api.self_s": ("s", "lower", "latency_p50_ms on serve-mix"),
    "serialise.busy_s": ("s", "lower", "latency_p50_ms on serve-mix"),
    "cache.hits": ("count", "higher", "latency_p50_ms on serve-mix"),
    "cache.misses": ("count", "lower", "latency_p50_ms and setup_s on serve-mix"),
    "serve.run_ms": ("ms", "lower", "latency_p50_ms and the reported p90 on serve-mix"),
    "serve.overhead_ms": ("ms", "lower", "latency_p50_ms and the reported p90 on serve-mix"),
    "trace.coverage": ("ratio", "higher", "every workload: share of Session.run wall in leaf spans"),
    "trace.overhead": ("ratio", "lower", "every workload: traced against untraced pairs_per_s"),
}

#: Layers that do the work.  Their spans are the named leaves whose union
#: ``trace.coverage`` measures; a cached lookup nested inside one (a kernel
#: reading already-packed words) does not make it a container.
LEAF_LAYERS = ("simulate", "encode", "parse", "index", "seed", "kernel", "verify", "serialise")

#: Layers that orchestrate others.  Their self time is time no leaf layer
#: accounts for; the largest is a workload's biggest unattributed gap.
GAP_MEANING: "dict[str, str]" = {
    "api": "Session.run outside its layers (workload resolution, Result building)",
    "pipeline": "FilteringPipeline.run outside filtering and verification "
    "(filter_encoded set-up, timing model, survivor selection)",
    "stream": "StreamingPipeline.run_pairs outside parse/seed/encode/kernel "
    "(chunking loop and the candidate-pair generator around the seeder)",
    "cascade": "FilterCascade.filter_encoded outside its stage kernels "
    "(survivor selection, stage accounting)",
    "exec": "executor fan-out outside the worker kernels (submit, wait, reduce)",
    "cache": "Session cache accessors outside simulate/encode/index/parse",
}

_CACHE_KEYS = {
    "dataset_for": "datasets",
    "engine_for": "engines",
    "reference_for": "references",
    "index_for": "indexes",
    "executor_for": "executors",
}


def _slug(name: str) -> str:
    return name.strip().lower().replace(" ", "-")


def _kernel_attrs(engine: Any, pairs: Any) -> "dict[str, float]":
    """Pairs, computed bytes and computed mask-word operations of one share.

    Computed from array shapes, not measured: the packed word form is
    ``words_per_read(length)`` 64-bit words per sequence (the code form one
    byte per base), two sequences per pair, plus 6 bytes of output per pair
    (int32 estimate, accept and undefined flags).  The operation count is
    ``2e + 1`` shifted masks times the words of one sequence.
    """
    from repro.exec.executor import wants_word_arrays
    from repro.genomics.encoding import words_per_read

    n = int(pairs.n_pairs)
    length = int(pairs.length)
    words = words_per_read(length, 64)
    per_sequence = 8 * words if wants_word_arrays(engine) else length
    masks = 2 * int(engine.error_threshold) + 1
    return {
        "pairs": n,
        "bytes": n * (2 * per_sequence + 6),
        "ops": n * masks * words,
    }


class _Patcher:
    """Replaces attributes and remembers the originals for :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: "list[tuple[Any, str, Any]]" = []

    def replace(self, owner: Any, name: str, value: Any) -> None:
        original = owner.__dict__[name] if inspect.isclass(owner) else getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()


def _timed(
    recorder: Recorder,
    fn: Callable[..., Any],
    name: str,
    tag: "Callable[..., str | None] | None" = None,
    attrs: "Callable[..., dict[str, float] | None] | None" = None,
) -> Callable[..., Any]:
    """``fn`` wrapped in a span; ``tag``/``attrs`` see ``(result, *args)``."""

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        token = recorder.open()
        result = None
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            recorder.close(
                token,
                name,
                tag(result, *args) if tag else None,
                attrs(result, *args) if attrs and result is not None else None,
                end,
            )

    return wrapper


def _timed_generator(
    recorder: Recorder, fn: Callable[..., Any], name: str
) -> Callable[..., Any]:
    """A generator function whose every ``next`` step is a span.

    The first step carries the size of the file being parsed.
    """

    @functools.wraps(fn)
    def wrapper(path: Any, *args: Any, **kwargs: Any) -> Any:
        iterator = iter(fn(path, *args, **kwargs))
        first: "dict[str, float] | None" = {"bytes": float(os.path.getsize(path))}
        while True:
            token = recorder.open()
            try:
                item = next(iterator)
            except StopIteration:
                recorder.close(token, name, None, first)
                return
            recorder.close(token, name, None, first)
            first = None
            yield item

    return wrapper


def install(recorder: Recorder) -> Callable[[], None]:
    """Wrap every layer boundary in spans; returns the function that undoes it."""
    import repro.align.verification as verification
    import repro.api.result as result_mod
    import repro.api.session as session_mod
    import repro.core.pipeline as pipeline_mod
    import repro.engine.cascade as cascade_mod
    import repro.engine.engine as engine_mod
    import repro.exec.fanout as fanout
    import repro.genomics.encoding as encoding
    import repro.mapper.index as index_mod
    import repro.mapper.seeding as seeding
    import repro.runtime.sources as sources
    import repro.runtime.streaming as streaming
    import repro.simulate.datasets as datasets
    import repro.simulate.pairs as pairs_mod

    patch = _Patcher()

    def method(cls: Any, name: str, layer: str, **kw: Any) -> None:
        patch.replace(cls, name, _timed(recorder, getattr(cls, name), layer, **kw))

    def function(module: Any, name: str, layer: str, **kw: Any) -> None:
        patch.replace(module, name, _timed(recorder, getattr(module, name), layer, **kw))

    Session = session_mod.Session
    method(Session, "run", "api")
    for accessor, key in _CACHE_KEYS.items():
        patch.replace(Session, accessor, _cache_accessor(recorder, getattr(Session, accessor), key))

    function(datasets, "build_dataset", "simulate")
    method(pairs_mod.PairDataset, "encoded", "encode")
    raw_from_lists = encoding.EncodedPairBatch.__dict__["from_lists"].__func__
    patch.replace(
        encoding.EncodedPairBatch,
        "from_lists",
        classmethod(
            _timed(
                recorder,
                raw_from_lists,
                "encode",
                attrs=lambda result, *args: {"pairs": float(result.n_pairs)},
            )
        ),
    )
    words = encoding.EncodedBatch.__dict__["words"]
    patch.replace(
        encoding.EncodedBatch, "words", property(_timed(recorder, words.fget, "encode"))
    )

    function(sources, "read_fasta", "parse", attrs=lambda result, path: {
        "bytes": float(os.path.getsize(path))
    })
    patch.replace(sources, "iter_fastq", _timed_generator(recorder, sources.iter_fastq, "parse"))
    method(index_mod.KmerIndex, "__init__", "index")
    method(seeding.Seeder, "candidates", "seed", attrs=lambda result, *args: {
        "candidates": float(len(result))
    })

    method(
        engine_mod.FilterEngine,
        "filter_encoded_share",
        "kernel",
        tag=lambda result, engine, *args: _slug(engine.name),
        attrs=lambda result, engine, pairs: _kernel_attrs(engine, pairs),
    )
    method(cascade_mod.FilterCascade, "filter_encoded", "cascade", attrs=lambda result, *args: {
        "stage1_in": float(result.stage_accounts[0].n_input),
        "stage1_out": float(result.stage_accounts[0].n_accepted),
    })
    function(fanout, "fan_out_engine", "exec")
    function(fanout, "fan_out_cascade", "exec")

    method(pipeline_mod.FilteringPipeline, "run", "pipeline")
    method(streaming.StreamingPipeline, "run_pairs", "stream", attrs=lambda result, *args: {
        "chunks": float(result.n_chunks)
    })
    method(verification.Verifier, "verify", "verify", attrs=lambda result, *args: {
        "accepted": 1.0 if result.accepted else 0.0
    })
    method(result_mod.Result, "as_dict", "serialise")
    method(result_mod.Result, "to_json", "serialise")

    # Work handed to pool threads and to threads started inside a span keeps
    # its parent, so worker kernels nest under the fan-out that caused them.
    submit = concurrent.futures.ThreadPoolExecutor.submit

    def traced_submit(self: Any, fn: Any, /, *args: Any, **kwargs: Any) -> Any:
        return submit(self, recorder.bind(fn), *args, **kwargs)

    patch.replace(concurrent.futures.ThreadPoolExecutor, "submit", traced_submit)
    start = threading.Thread.start

    def traced_start(self: threading.Thread) -> None:
        if recorder.current() is not None:
            self.run = recorder.bind(self.run)  # type: ignore[method-assign]
        start(self)

    patch.replace(threading.Thread, "start", traced_start)
    return patch.restore


def _cache_accessor(recorder: Recorder, fn: Callable[..., Any], key: str) -> Callable[..., Any]:
    """A Session cache accessor as a ``cache`` span marking a hit or a miss.

    A miss is a call during which ``Session.cache_info[key]`` grew.  Under
    concurrent first requests another thread's insertion can be counted
    here; after warm-up nothing is inserted, so the counts are exact.
    """

    @functools.wraps(fn)
    def wrapper(session: Any, *args: Any, **kwargs: Any) -> Any:
        before = session.cache_info[key]
        token = recorder.open()
        result = None
        try:
            result = fn(session, *args, **kwargs)
            return result
        finally:
            end = time.perf_counter()
            # A serial executor is "no executor": no cache was consulted.
            counted = not (key == "executors" and result is None)
            grew = session.cache_info[key] > before
            recorder.close(
                token,
                "cache",
                key,
                {"miss": float(grew), "hit": float(not grew)} if counted else None,
                end,
            )

    return wrapper


# --------------------------------------------------------------------------- #
# Spans -> per-layer metrics
# --------------------------------------------------------------------------- #
def group_calls(spans: "list[Span]") -> "list[list[Span]]":
    """Spans grouped under their topmost ``api`` span, in call order.

    Each group starts with its root.  Spans outside any ``Session.run`` are
    dropped.
    """
    by_id = {span.id: span for span in spans}
    top: "dict[int, int]" = {}

    def topmost(span: Span) -> int:
        path = []
        while span.id not in top and span.parent in by_id:
            path.append(span.id)
            span = by_id[span.parent]
        root = top.setdefault(span.id, span.id)
        for span_id in path:
            top[span_id] = root
        return root

    groups: "dict[int, list[Span]]" = {}
    for span in spans:
        root = topmost(span)
        if by_id[root].name == "api":
            groups.setdefault(root, []).append(span)
    return [
        sorted(group, key=lambda span: (span.id != root, span.start))
        for root, group in sorted(groups.items(), key=lambda item: by_id[item[0]].start)
    ]


def _attr_sum(spans: "list[Span]", name: str, attr: str) -> float:
    return sum(
        span.attrs.get(attr, 0.0) for span in spans if span.name == name and span.attrs
    )


def _exec_wait(group: "list[Span]") -> float:
    """Fan-out wall minus the busiest worker thread, summed over fan-outs."""
    wait = 0.0
    for fan in (span for span in group if span.name == "exec"):
        per_thread: "dict[int, float]" = {}
        for child in group:
            if child.parent == fan.id and child.thread != fan.thread:
                per_thread[child.thread] = per_thread.get(child.thread, 0.0) + child.duration
        wait += fan.duration - max(per_thread.values(), default=0.0)
    return wait


def _per_call(group: "list[Span]") -> "dict[str, float]":
    """Layer numbers of one ``Session.run`` call."""
    root = group[0]
    selfs = self_times(group)
    self_by_name: "dict[str, float]" = {}
    for span in group:
        self_by_name[span.name] = self_by_name.get(span.name, 0.0) + selfs[span.id]
    kernels = [span for span in group if span.name == "kernel"]
    kernel_by_filter: "dict[str, float]" = {}
    for span in kernels:
        kernel_by_filter[span.tag or ""] = kernel_by_filter.get(span.tag or "", 0.0) + span.duration
    return {
        "encode.busy_s": layer_busy(group, "encode"),
        "encode.pairs": _attr_sum(group, "encode", "pairs"),
        "parse.busy_s": layer_busy(group, "parse"),
        "parse.bytes": _attr_sum(group, "parse", "bytes"),
        "simulate.busy_s": layer_busy(group, "simulate"),
        "index.busy_s": layer_busy(group, "index"),
        "seed.busy_s": layer_busy(group, "seed"),
        "seed.calls": float(sum(1 for span in group if span.name == "seed")),
        "seed.candidates": _attr_sum(group, "seed", "candidates"),
        "kernel.busy_s": layer_busy(group, "kernel"),
        "kernel.pairs": _attr_sum(group, "kernel", "pairs"),
        "kernel.bytes_computed": _attr_sum(group, "kernel", "bytes"),
        "kernel.ops": _attr_sum(group, "kernel", "ops"),
        "kernel.gatekeeper-gpu.busy_s": kernel_by_filter.get("gatekeeper-gpu", 0.0),
        "kernel.sneakysnake.busy_s": kernel_by_filter.get("sneakysnake", 0.0),
        "cascade.stage1_in": _attr_sum(group, "cascade", "stage1_in"),
        "cascade.stage1_out": _attr_sum(group, "cascade", "stage1_out"),
        "exec.wait_s": _exec_wait(group),
        "pipeline.self_s": self_by_name.get("pipeline", 0.0),
        "stream.self_s": self_by_name.get("stream", 0.0),
        "stream.chunks": _attr_sum(group, "stream", "chunks"),
        "verify.busy_s": layer_busy(group, "verify"),
        "verify.calls": float(sum(1 for span in group if span.name == "verify")),
        "verify.accepted": _attr_sum(group, "verify", "accepted"),
        "api.self_s": self_by_name.get("api", 0.0),
        "serialise.busy_s": layer_busy(group, "serialise"),
        "cache.hits": _attr_sum(group, "cache", "hit"),
        "cache.misses": _attr_sum(group, "cache", "miss"),
        "coverage": coverage(group, root, LEAF_LAYERS),
        **{f"gap.{name}": self_by_name.get(name, 0.0) for name in GAP_MEANING},
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(
    spans: "list[Span]", cold_calls: int
) -> "tuple[dict[str, float], tuple[str, float]]":
    """Per-layer metrics from the spans of one traced run.

    Returns ``(metrics, (gap_name, gap_seconds_per_call))``.  The metrics
    here are the span-derived ones; ``exec.speedup_vs_serial``, the
    ``serve.*`` numbers and ``trace.overhead`` come from timed runs and are
    added by the caller.  Serialisation outside ``Session.run`` (the daemon
    and ``repro run`` serialise after the run returns) is shared evenly over
    the calls.
    """
    calls = [_per_call(group) for group in group_calls(spans)]
    cold, warm = calls[:cold_calls], calls[cold_calls:] or calls[-1:]

    def mean(key: str) -> float:
        return statistics.fmean(call.get(key, 0.0) for call in warm) if warm else 0.0

    def cold_sum(key: str) -> float:
        return sum(call.get(key, 0.0) for call in cold)

    seed_calls = sum(call["seed.calls"] for call in warm)
    verify_calls = sum(call["verify.calls"] for call in warm)
    kernel_busy = sum(call["kernel.busy_s"] for call in warm)
    kernel_pairs = sum(call["kernel.pairs"] for call in warm)
    stage1_in = sum(call["cascade.stage1_in"] for call in warm)
    outside = [span for span in spans if span.name == "serialise" and span.parent is None]
    serialise_extra = layer_busy(outside, "serialise") / max(1, len(calls))
    metrics = {
        "simulate.busy_s": cold_sum("simulate.busy_s"),
        "encode.busy_s": mean("encode.busy_s"),
        "encode.cold_busy_s": cold_sum("encode.busy_s"),
        "encode.pairs": mean("encode.pairs"),
        "parse.busy_s": mean("parse.busy_s"),
        "parse.cold_busy_s": cold_sum("parse.busy_s"),
        "parse.bytes": mean("parse.bytes"),
        "index.busy_s": cold_sum("index.busy_s"),
        "seed.busy_s": mean("seed.busy_s"),
        "seed.candidates_per_read": _ratio(
            sum(call["seed.candidates"] for call in warm), seed_calls
        ),
        "kernel.busy_s": mean("kernel.busy_s"),
        "kernel.pairs": mean("kernel.pairs"),
        "kernel.pairs_per_s": _ratio(kernel_pairs, kernel_busy),
        "kernel.gatekeeper-gpu.busy_s": mean("kernel.gatekeeper-gpu.busy_s"),
        "kernel.sneakysnake.busy_s": mean("kernel.sneakysnake.busy_s"),
        "kernel.bytes_computed": mean("kernel.bytes_computed"),
        "kernel.ops_per_pair": _ratio(sum(call["kernel.ops"] for call in warm), kernel_pairs),
        "cascade.stage1_survivor_ratio": _ratio(
            sum(call["cascade.stage1_out"] for call in warm), stage1_in
        ),
        "exec.wait_s": mean("exec.wait_s"),
        "pipeline.self_s": mean("pipeline.self_s"),
        "stream.self_s": mean("stream.self_s"),
        "stream.chunks": mean("stream.chunks"),
        "verify.busy_s": mean("verify.busy_s"),
        "verify.calls": mean("verify.calls"),
        "verify.us_per_call": 1e6 * _ratio(
            sum(call["verify.busy_s"] for call in warm), verify_calls
        ),
        "verify.accept_ratio": _ratio(
            sum(call["verify.accepted"] for call in warm), verify_calls
        ),
        "api.self_s": mean("api.self_s"),
        "serialise.busy_s": mean("serialise.busy_s") + serialise_extra,
        "cache.hits": sum(call["cache.hits"] for call in calls),
        "cache.misses": sum(call["cache.misses"] for call in calls),
        "trace.coverage": mean("coverage"),
    }
    gap = max(((name, mean(f"gap.{name}")) for name in GAP_MEANING), key=lambda item: item[1])
    return metrics, gap

