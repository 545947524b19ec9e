"""Run one batch workload in a fresh process and write what it measured.

Usage: ``python3 perfbench/worker.py REQUEST.json REPLY.json``

The request names a mode:

``measure``
    Time the first ``Session.run`` on a fresh ``Session`` — what a one-shot
    ``repro run`` pays — then make warm ``Session.run`` calls for
    ``seconds``, each checked against the first call's canonical Result
    JSON; then read peak memory and, when ``checks`` is set, run the output
    checks.
``trace``
    As ``measure`` with every layer wrapped in spans for the cold call and
    the first half of the warm calls, untraced for the second half; reports
    the per-layer metrics and writes the spans.
"""

from __future__ import annotations

import dataclasses
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

from checks import false_accept_rate, false_rejects, sample_indices
from layers import install, layer_metrics
from spans import Recorder

#: Fewest warm calls a worker makes, however long each call is, so a run
#: of the slowest workload still has a median over several calls.
MIN_WARM_CALLS = 2


def _warm_calls(session: Any, workload: Any, seconds: float, expected: str) -> "tuple[list[float], int]":
    """Timed warm calls for ``seconds``; returns latencies and mismatches."""
    latencies: "list[float]" = []
    mismatches = 0
    deadline = time.perf_counter() + seconds
    while len(latencies) < MIN_WARM_CALLS or time.perf_counter() < deadline:
        start = time.perf_counter()
        result = session.run(workload)
        latencies.append(time.perf_counter() - start)
        if result.to_json() != expected:
            mismatches += 1
    return latencies, mismatches


def _sample_check(session: Any, workload: Any, first: Any) -> "list[str]":
    """The false-reject check on a fixed sample of the first call's pairs."""
    spec = workload.input
    threshold = workload.filter.error_threshold
    if spec.kind == "reads":
        from repro.runtime.sources import seeded_pairs

        pairs = list(
            seeded_pairs(
                str(spec.path),
                session.reference_for(str(spec.reference)),
                threshold,
                k=spec.seeding_k,
                max_candidates_per_read=spec.max_candidates_per_read,
                index=session.index_for(str(spec.reference), spec.seeding_k),
            )
        )
        reads = [read for read, _ in pairs]
        segments = [segment for _, segment in pairs]
        accepted = first.raw.accepted
    else:
        dataset = session.dataset_for(workload)
        reads, segments = dataset.reads, dataset.segments
        accepted = first.raw.filter_result.accepted
    missed = false_rejects(reads, segments, accepted, threshold, sample_indices(len(reads)))
    if missed:
        return [f"{len(missed)} sampled pairs within e={threshold} were rejected (first: {missed[0]})"]
    return []


def _verified_check(session: Any, workload: Any, first: Any) -> "list[str]":
    """Recount the verified accepts among the filter's survivors.

    Each survivor is recomputed with ``banded_edit_distance``; the count of
    those within the threshold must equal the Result's ``verified_accepts``.
    """
    from repro.align import banded_edit_distance

    dataset = session.dataset_for(workload)
    threshold = workload.filter.error_threshold
    survivors = first.raw.filter_result.accepted_indices()
    within = sum(
        banded_edit_distance(dataset.reads[i], dataset.segments[i], threshold) <= threshold
        for i in survivors.tolist()
    )
    reported = first.summary["verified_accepts"]
    if within != reported:
        return [
            f"verified_accepts is {reported}, but {within} of the {len(survivors)} "
            f"survivors are within e={threshold}"
        ]
    return []


def _speedup_vs_serial(session: Any, workload: Any, first: Any, reps: int = 5) -> float:
    """Serial over executor wall time of the same encoded batch (1.0 without one)."""
    executor = session.executor_for(workload)
    if executor is None or workload.input.kind != "dataset":
        return 1.0
    engine = session.engine_for(workload, first.summary["read_length"])
    batch = session.dataset_for(workload).encoded()
    serial, fanned = [], []
    for _ in range(reps):
        start = time.perf_counter()
        engine.filter_encoded(batch)
        serial.append(time.perf_counter() - start)
        start = time.perf_counter()
        engine.filter_encoded(batch, executor=executor)
        fanned.append(time.perf_counter() - start)
    return statistics.median(serial) / statistics.median(fanned)


def run(request: "dict[str, Any]") -> "dict[str, Any]":
    from repro.api import Session, Workload

    mode = request["mode"]
    workload = Workload.from_dict(request["workload"])
    session = Session()
    recorder = Recorder() if mode == "trace" else None
    restore = install(recorder) if recorder is not None else None
    try:
        start = time.perf_counter()
        first = session.run(workload)
        setup_s = time.perf_counter() - start
        first_json = first.to_json()
        reply: "dict[str, Any]" = {"setup_s": setup_s, "first_json": first_json,
                                   "n_pairs": first.summary["n_pairs"]}
        seconds = float(request["seconds"])
        if recorder is not None:
            traced, traced_bad = _warm_calls(session, workload, seconds / 2, first_json)
            restore()
            restore = None
            latencies, bad = _warm_calls(session, workload, seconds / 2, first_json)
            bad += traced_bad
        else:
            latencies, bad = _warm_calls(session, workload, seconds, first_json)
            reply["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = [f"{bad} warm calls differ from the first call's Result JSON"] if bad else []
        attempted = 1 + len(latencies) + (len(traced) if recorder is not None else 0)
        failed = bad
        if request["checks"]:
            if workload.execution.executor != "serial":
                serial_execution = dataclasses.replace(workload.execution, executor="serial", workers=1)
                serial = session.run(workload.replace(execution=serial_execution))
                attempted += 1
                if serial.to_json() != first_json:
                    failed += 1
                    problems.append("the serial-executor run differs from the fanned-out run")
            sample_problems = _sample_check(session, workload, first)
            if workload.execution.verify:
                sample_problems += _verified_check(session, workload, first)
                reply["false_accept_rate"] = false_accept_rate(first.summary)
            if sample_problems:
                failed += 1
                problems.extend(sample_problems)
        reply.update(latencies=latencies, attempted=attempted, failed=failed, problems=problems)

        if recorder is not None:
            metrics, gap = layer_metrics(recorder.spans, cold_calls=1)
            metrics["exec.speedup_vs_serial"] = _speedup_vs_serial(session, workload, first)
            metrics["trace.overhead"] = statistics.median(traced) / statistics.median(latencies) - 1.0
            reply.update(layers=metrics, gap=list(gap))
            recorder.write(request["spans_path"])
        return reply
    finally:
        if restore is not None:
            restore()
        session.close()


def main(argv: "list[str]") -> int:
    if len(argv) != 2:
        print("usage: worker.py REQUEST.json REPLY.json", file=sys.stderr)
        return 2
    request = json.loads(Path(argv[0]).read_text())
    reply = run(request)
    Path(argv[1]).write_text(json.dumps(reply))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
