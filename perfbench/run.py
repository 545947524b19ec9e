"""Run one workload of the repository benchmark and print its metrics.

Usage::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from its ``src/``.
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``; ``--trace
1`` runs the same workload with every layer wrapped in spans and prints the
per-layer metrics.  Human-readable lines come first; the last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  The full record, with the host fingerprint, is
also written under ``.perfbench/results/`` and the spans of a traced run
under ``.perfbench/spans/``.  The exit code is non-zero when a check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".perfbench"

from checks import report_only  # noqa: E402
from layers import GAP_MEANING, PER_LAYER  # noqa: E402
from workloads import SETUP_SAMPLES, WHY, batch_workload  # noqa: E402

WORKER_TIMEOUT_S = 170.0

#: End-to-end metrics: name -> unit.  Keep in step with BENCHMARK.json.
END_TO_END = {
    "pairs_per_s": "pairs/s",
    "latency_p50_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def fingerprint(seed: int) -> "dict[str, Any]":
    """The host and program facts every result is recorded with."""
    import numpy

    from repro.filters.native import active_tier, numba_available

    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_tier": active_tier(),
        "numba": numba_available(),
        "seed": seed,
    }


def host_probe_ms(reps: int = 7) -> float:
    """Median time of a fixed pure-Python loop, to tell host speed changes from regressions."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i % 7
        times.append(time.perf_counter() - start)
    return 1e3 * statistics.median(times)


def _program_env() -> "dict[str, str]":
    """Environment for the processes that run the program from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH)])
    return env


def _locate_program() -> None:
    """Import ``repro`` from this checkout's ``src/`` or stop."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program at {ROOT / 'src' / 'repro'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    if Path(repro.__file__).resolve().parent != (ROOT / "src" / "repro").resolve():
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not from this checkout")


def _worker(request: "dict[str, Any]", work: Path, tag: str) -> "dict[str, Any]":
    request_path, reply_path = work / f"request-{tag}.json", work / f"reply-{tag}.json"
    request_path.write_text(json.dumps(request))
    subprocess.run(
        [sys.executable, str(BENCH / "worker.py"), str(request_path), str(reply_path)],
        cwd=ROOT,
        env=_program_env(),
        stdout=sys.stderr.fileno(),
        check=True,
        timeout=WORKER_TIMEOUT_S,
    )
    return dict(json.loads(reply_path.read_text()))


def run_batch(name: str, seed: int, seconds: float, trace: bool, work: Path, spans: Path) -> "dict[str, Any]":
    """Run a batch workload in fresh worker processes.

    Untraced, each of :data:`SETUP_SAMPLES` workers times its first call and
    then takes an equal slice of the warm calls, so the measurement is spread
    over the whole run rather than one stretch of it; the last worker also
    runs the output checks.
    """
    workload = batch_workload(name, seed, work)
    request = {"workload": workload, "spans_path": str(spans)}
    if trace:
        return _worker(dict(request, mode="trace", seconds=seconds, checks=True), work, "trace")
    replies = [
        _worker(
            dict(request, mode="measure", seconds=seconds / SETUP_SAMPLES, checks=i == SETUP_SAMPLES - 1),
            work,
            f"measure{i}",
        )
        for i in range(SETUP_SAMPLES)
    ]
    problems = [problem for reply in replies for problem in reply["problems"]]
    differing = sum(reply["first_json"] != replies[0]["first_json"] for reply in replies)
    if differing:
        problems.append(f"{differing} fresh processes produced a different Result")
    latencies = [latency for reply in replies for latency in reply["latencies"]]
    p50 = statistics.median(latencies)
    return {
        "attempted": sum(reply["attempted"] for reply in replies),
        "failed": sum(reply["failed"] for reply in replies) + differing,
        "problems": problems,
        "metrics": {
            "pairs_per_s": replies[0]["n_pairs"] / p50,
            "latency_p50_ms": 1e3 * p50,
            "setup_s": statistics.median(reply["setup_s"] for reply in replies),
            "peak_rss_mb": max(reply["peak_rss_mb"] for reply in replies),
        },
        "report_only": report_only(latencies, false_accept=replies[-1].get("false_accept_rate")),
    }


def _print_report(name: str, seed: int, trace: bool, outcome: "dict[str, Any]") -> None:
    print(f"workload {name} (seed {seed}): {WHY[name]}")
    print("host " + json.dumps(fingerprint(seed), sort_keys=True))
    error_rate = outcome["failed"] / outcome["attempted"]
    print(f"  error_rate = {error_rate:.6g} ratio ({outcome['failed']} of {outcome['attempted']} calls failed)")
    for problem in outcome.get("problems", []):
        print(f"  CHECK FAILED: {problem}")
    for metric, (value, unit) in outcome["report_only"].items():
        print(f"  {metric} = {'n/a' if value is None else f'{value:.6g} {unit}'}")
    if trace:
        for metric, value in outcome["layers"].items():
            unit, _better, moves = PER_LAYER[metric]
            print(f"  {metric} = {value:.6g} {unit}    (moves {moves})")
        gap_name, gap_s = outcome["gap"]
        meaning = GAP_MEANING.get(gap_name, "")
        print(f"  largest unattributed gap: {gap_name} self time {gap_s:.6g} s per call; {meaning}")
        return
    for metric, value in outcome["metrics"].items():
        print(f"  {metric} = {value:.6g} {END_TO_END[metric]}")


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    _locate_program()
    trace = bool(args.trace)

    run_id = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / "work" / f"{run_id}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    spans = OUT / "spans" / f"{run_id}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    probe_before = host_probe_ms()
    try:
        if args.workload == "serve-mix":
            from serve_mix import run_serve

            outcome = run_serve(args.seed, args.seconds, trace, ROOT, BENCH, work, _program_env(), spans)
        else:
            outcome = run_batch(args.workload, args.seed, args.seconds, trace, work, spans)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    probe = (probe_before + host_probe_ms()) / 2
    outcome.setdefault("report_only", {})["host_probe_ms"] = (probe, "ms")
    if trace:
        layers = {metric: float(outcome["layers"].get(metric, 0.0)) for metric in PER_LAYER}
        outcome["layers"] = layers
        metrics = {metric: {"value": layers[metric], "unit": PER_LAYER[metric][0]} for metric in PER_LAYER}
    else:
        metrics = {
            metric: {"value": float(outcome["metrics"][metric]), "unit": unit}
            for metric, unit in END_TO_END.items()
        }
    correct = outcome["failed"] == 0 and not outcome.get("problems")
    _print_report(args.workload, args.seed, trace, outcome)
    record = {
        "workload": args.workload,
        "why": WHY[args.workload],
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": trace,
        "fingerprint": fingerprint(args.seed),
        "wall_s": time.perf_counter() - started,
        "metrics": metrics,
        "report_only": outcome.get("report_only"),
        "gap": outcome.get("gap"),
        "moves": {metric: PER_LAYER[metric][2] for metric in PER_LAYER} if trace else None,
        "problems": outcome.get("problems", []),
    }
    results = OUT / "results" / f"{run_id}.json"
    results.parent.mkdir(parents=True, exist_ok=True)
    results.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
