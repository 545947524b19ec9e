"""The ``serve-mix`` workload: a ``repro serve`` daemon under a closed loop.

The daemon runs in its own process (``serve_boot.py``) with 2 worker
threads.  Two client threads in this process each send their next request
only after the previous reply, so a slower daemon receives less load.  Each
reply must equal an in-process ``Session.run(...).as_dict()`` of the same
workload.
"""

from __future__ import annotations

import json
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from checks import block_rates, false_rejects, report_only, sample_indices
from workloads import CONCURRENCY, SETUP_SAMPLES, request_order, serve_mix

__all__ = ["run_serve"]

#: Replies per block; the median throughput over blocks is pairs_per_s.
BLOCK_REPLIES = 32
#: Sampled pairs per distinct request for the false-reject check (6 x 200 >= 1k).
SAMPLE_PER_REQUEST = 200
DAEMON_TIMEOUT_S = 60.0


@dataclass
class Load:
    """What one closed-loop phase measured."""

    latencies: "list[float]" = field(default_factory=list)
    #: (completion time, pairs) of each checked reply.
    done: "list[tuple[float, float]]" = field(default_factory=list)
    #: Pairs per second over each block of replies of the closed loop.
    rates: "list[float]" = field(default_factory=list)
    pairs: int = 0
    attempted: int = 0
    failed: int = 0
    wall_s: float = 0.0
    problems: "list[str]" = field(default_factory=list)

    def merge(self, other: "Load") -> None:
        self.wall_s += other.wall_s
        self.latencies += other.latencies
        self.done += other.done
        self.rates += other.rates
        self.pairs += other.pairs
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems += other.problems


class Daemon:
    """One ``repro serve`` process started through ``serve_boot.py``."""

    def __init__(self, bench: Path, root: Path, work: Path, env: "dict[str, str]", tag: str,
                 trace: "Path | None" = None, cold_calls: int = 0) -> None:
        ready = work / f"ready-{tag}.json"
        self.report_path = work / f"daemon-{tag}.json"
        command = [sys.executable, str(bench / "serve_boot.py"), "--report", str(self.report_path)]
        if trace is not None:
            command += ["--trace", str(trace), "--cold-calls", str(cold_calls)]
        command += ["--", "--host", "127.0.0.1", "--port", "0",
                    "--workers", str(CONCURRENCY), "--ready-file", str(ready)]
        start = time.perf_counter()
        self.process = subprocess.Popen(
            command, cwd=root, env=env, stdout=sys.stderr.fileno(), stderr=sys.stderr.fileno()
        )
        while True:
            try:
                self.port = int(json.loads(ready.read_text())["port"])
                break
            except (FileNotFoundError, json.JSONDecodeError, KeyError):
                if self.process.poll() is not None or time.perf_counter() - start > DAEMON_TIMEOUT_S:
                    self.wait()
                    raise RuntimeError(f"repro serve did not become ready ({tag})")
                time.sleep(0.002)
        self.ready_s = time.perf_counter() - start

    def client(self, name: str) -> Any:
        from repro.serve import ServeClient

        return ServeClient("127.0.0.1", self.port, client_id=name, timeout_s=DAEMON_TIMEOUT_S)

    def terminate(self) -> None:
        """Ask the daemon to drain and exit; :meth:`wait` reaps it."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)

    def wait(self) -> "dict[str, Any]":
        """Wait for the daemon to exit and return its own report."""
        self.terminate()
        try:
            self.process.wait(timeout=DAEMON_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
            raise
        try:
            return dict(json.loads(self.report_path.read_text()))
        except FileNotFoundError:
            return {}


def _send(client: Any, label: str, payload: "dict[str, Any]", expected: str, load: Load) -> float:
    """One checked request; returns its latency (0 when it failed)."""
    from repro.serve import ServeError
    from repro.serve.protocol import canonical_result_json

    load.attempted += 1
    start = time.perf_counter()
    try:
        reply = client.run(payload)
    except ServeError as exc:
        load.failed += 1
        load.problems.append(f"{label}: {exc}")
        return 0.0
    end = time.perf_counter()
    if canonical_result_json(reply) != expected:
        load.failed += 1
        load.problems.append(f"{label}: reply differs from the in-process Result")
        return end - start
    pairs = int(reply["summary"]["n_pairs"])
    load.latencies.append(end - start)
    load.done.append((end, pairs))
    load.pairs += pairs
    return end - start


def _first_requests(daemon: Daemon, mix: "list[Any]", expected: "dict[str, str]", load: Load) -> float:
    """The first request of each distinct workload, in order; their total latency."""
    client = daemon.client("setup")
    return sum(_send(client, label, workload, expected[label], load) for label, _w, workload, _p in mix)


def _closed_loop(daemon: Daemon, mix: "list[Any]", expected: "dict[str, str]", seed: int,
                 seconds: float) -> Load:
    labels = [label for label, *_ in mix]
    weights = [weight for _label, weight, *_ in mix]
    payloads = {label: workload for label, _w, workload, _p in mix}
    per_client = [Load() for _ in range(CONCURRENCY)]

    def client_loop(index: int) -> None:
        client = daemon.client(f"client{index}")
        for label in request_order(seed, index, labels, weights, 100_000):
            if time.perf_counter() >= deadline:
                return
            _send(client, label, payloads[label], expected[label], per_client[index])

    threads = [threading.Thread(target=client_loop, args=(i,)) for i in range(CONCURRENCY)]
    start = time.perf_counter()
    deadline = start + seconds
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=seconds + 2 * DAEMON_TIMEOUT_S)
    load = Load(wall_s=time.perf_counter() - start)
    for part in per_client:
        load.merge(part)
    load.rates = block_rates(load.done, BLOCK_REPLIES)
    if any(thread.is_alive() for thread in threads):
        load.failed += 1
        load.problems.append("a client thread did not finish")
    return load


def _expectations(mix: "list[Any]") -> "tuple[dict[str, str], list[str]]":
    """In-process Result JSON of every distinct request, and the false-reject check."""
    from repro.api import Session, Workload

    expected: "dict[str, str]" = {}
    problems: "list[str]" = []
    with Session() as session:
        for label, _weight, workload, tsv_pairs in mix:
            spec = Workload.from_dict(workload)
            result = session.run(spec)
            expected[label] = result.to_json()
            if tsv_pairs is None:
                dataset = session.dataset_for(spec)
                reads, segments = dataset.reads, dataset.segments
                accepted = result.raw.filter_result.accepted
            else:
                reads = [read for read, _ in tsv_pairs]
                segments = [segment for _, segment in tsv_pairs]
                decisions = dict(workload, output={"collect_decisions": True})
                accepted = session.run(Workload.from_dict(decisions)).raw.accepted
            threshold = spec.filter.error_threshold
            indices = sample_indices(len(reads), SAMPLE_PER_REQUEST)
            missed = false_rejects(reads, segments, accepted, threshold, indices)
            if missed:
                problems.append(f"{label}: {len(missed)} sampled pairs within e={threshold} rejected")
    return expected, problems


def _run_ms(before: "dict[str, Any]", after: "dict[str, Any]") -> float:
    """Mean daemon-side run time of the requests between two ``status`` calls."""
    completed = after["totals"]["completed"] - before["totals"]["completed"]
    run_s = after["totals"]["run_time_s"] - before["totals"]["run_time_s"]
    return 1e3 * run_s / completed if completed else 0.0


def _serve_numbers(load: Load, before: "dict[str, Any]", after: "dict[str, Any]") -> "dict[str, float]":
    run_ms = _run_ms(before, after)
    mean_ms = 1e3 * statistics.fmean(load.latencies) if load.latencies else 0.0
    return {"serve.run_ms": run_ms, "serve.overhead_ms": mean_ms - run_ms}


def run_serve(seed: int, seconds: float, trace: bool, root: Path, bench: Path, work: Path,
              env: "dict[str, str]", spans_path: Path) -> "dict[str, Any]":
    """Run ``serve-mix``; returns metrics or layer metrics, and check counts.

    Untraced, the load is split over :data:`SETUP_SAMPLES` daemon starts so
    it is spread over the whole run.  A daemon takes a few seconds to drain
    after SIGTERM, so each is signalled as soon as its share is done and all
    are reaped together.
    """
    mix = serve_mix(seed, work)
    expected, problems = _expectations(mix)
    total = Load(problems=problems, failed=len(problems))
    daemons: "list[Daemon]" = []

    def start(tag: str, **daemon_kw: Any) -> "tuple[Daemon, float]":
        daemon = Daemon(bench, root, work, env, tag, **daemon_kw)
        daemons.append(daemon)
        return daemon, daemon.ready_s + _first_requests(daemon, mix, expected, total)

    def measured_load(daemon: Daemon, phase_seconds: float) -> "tuple[Load, dict[str, float]]":
        status = daemon.client("status")
        before = status.status()
        load = _closed_loop(daemon, mix, expected, seed, phase_seconds)
        numbers = _serve_numbers(load, before, status.status())
        total.merge(load)
        return load, numbers

    try:
        if not trace:
            setups, total_load = [], Load()
            for sample in range(SETUP_SAMPLES):
                daemon, setup = start(f"run{sample}")
                setups.append(setup)
                load, _numbers = measured_load(daemon, seconds / SETUP_SAMPLES)
                total_load.merge(load)
                daemon.terminate()
            reports = [daemon.wait() for daemon in daemons]
            latencies = total_load.latencies
            return {
                "metrics": {
                    "pairs_per_s": statistics.median(total_load.rates),
                    "latency_p50_ms": 1e3 * statistics.median(latencies),
                    "setup_s": statistics.median(setups),
                    "peak_rss_mb": max(float(report["peak_rss_mb"]) for report in reports),
                },
                "report_only": report_only(
                    latencies, requests_per_s=len(latencies) / total_load.wall_s
                ),
                "attempted": total.attempted,
                "failed": total.failed,
                "problems": total.problems,
            }

        daemon, _setup = start("untraced")
        untraced, numbers = measured_load(daemon, seconds / 2)
        daemon.terminate()
        daemon, _setup = start("traced", trace=spans_path, cold_calls=len(mix))
        traced, _numbers = measured_load(daemon, seconds / 2)
        report = daemon.wait()
        layers = dict(report["layers"])
        layers.update(numbers)
        layers["exec.speedup_vs_serial"] = 1.0  # requests run without an executor
        layers["trace.overhead"] = (
            (untraced.pairs / untraced.wall_s) / (traced.pairs / traced.wall_s) - 1.0
        )
        return {
            "layers": layers,
            "gap": report["gap"],
            "attempted": total.attempted,
            "failed": total.failed,
            "problems": total.problems,
        }
    finally:
        for daemon in daemons:
            daemon.terminate()
        for daemon in daemons:
            daemon.wait()
