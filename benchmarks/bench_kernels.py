"""Kernel-tier benchmark: pure-NumPy reference vs Numba-compiled native tier.

Plain script, CI-runnable with or without the ``[native]`` extra:

    PYTHONPATH=src python benchmarks/bench_kernels.py

For each slow composite kernel (``magnet``, ``sneakysnake``) plus the
GateKeeper word kernel it measures encode-once filtering throughput on the
NumPy tier and — when Numba is importable — on the native tier, asserting
**byte-identical decisions between the tiers before any timing**.  It then
measures the ``threads`` executor scaling of the native tier (njit kernels
release the GIL, so thread shares genuinely overlap; the NumPy tier holds the
GIL and is reported for contrast).  Results go to ``BENCH_kernels.json``;
without Numba the native sections record ``"native_available": false`` and
only the reference numbers.

A ``verifier`` section times the verification stage on the survivors of a
GateKeeper-GPU -> SneakySnake cascade over Set 3: the scalar per-pair
``banded_edit_distance`` loop (the test oracle) against one batched
``banded_edit_distances`` call (the production path), asserting identical
distances before any timing.

Environment knobs: ``REPRO_BENCH_KERNELS_PAIRS`` (default 20,000),
``REPRO_BENCH_KERNELS_OUTPUT``, ``REPRO_BENCH_KERNELS_REPEATS``,
``REPRO_BENCH_KERNELS_WORKERS`` (comma-separated thread counts, default 1,2,4).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.align import banded_edit_distance, banded_edit_distances  # noqa: E402
from repro.api import SCHEMA_VERSION  # noqa: E402

from repro.engine import FilterCascade, FilterEngine  # noqa: E402
from repro.exec import create_executor  # noqa: E402
from repro.filters.native import numba_available  # noqa: E402
from repro.simulate.datasets import build_dataset  # noqa: E402

N_PAIRS = int(os.environ.get("REPRO_BENCH_KERNELS_PAIRS", "20000"))
ERROR_THRESHOLD = 5
FILTERS = ["gatekeeper-gpu", "sneakysnake", "magnet"]
VERIFY_DATASET = "Set 3"
VERIFY_CASCADE = ["gatekeeper-gpu", "sneakysnake"]
OUTPUT = Path(os.environ.get("REPRO_BENCH_KERNELS_OUTPUT", "BENCH_kernels.json"))
REPEATS = int(os.environ.get("REPRO_BENCH_KERNELS_REPEATS", "3"))
WORKER_COUNTS = [
    int(part)
    for part in os.environ.get("REPRO_BENCH_KERNELS_WORKERS", "1,2,4").split(",")
    if part.strip()
]


def timed(fn):
    """Best-of-``REPEATS`` wall time (first call also serves as the warm-up,
    which on the native tier includes the JIT compile)."""
    result = fn()
    best = float("inf")
    for _ in range(REPEATS):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return result, best


def assert_identical(name, reference, candidate):
    """Byte-identity of decisions between two tiers (required before timing)."""
    if not np.array_equal(reference.accepted, candidate.accepted):
        raise SystemExit(f"{name}: accepted vectors differ between tiers")
    if not np.array_equal(reference.estimated_edits, candidate.estimated_edits):
        raise SystemExit(f"{name}: estimated_edits differ between tiers")


def bench_verifier():
    """Scalar vs batched banded verification of a cascade's survivors."""
    dataset = build_dataset(VERIFY_DATASET, n_pairs=N_PAIRS, seed=42)
    cascade = FilterCascade(
        [
            FilterEngine(name, read_length=dataset.read_length, error_threshold=ERROR_THRESHOLD)
            for name in VERIFY_CASCADE
        ]
    )
    survivors = cascade.filter_dataset(dataset).accepted_indices().tolist()
    reads = [dataset.reads[i] for i in survivors]
    segments = [dataset.segments[i] for i in survivors]

    def scalar():
        return [
            banded_edit_distance(read, segment, ERROR_THRESHOLD)
            for read, segment in zip(reads, segments)
        ]

    def batched():
        return banded_edit_distances(reads, segments, ERROR_THRESHOLD)

    reference = scalar()
    distances = batched()
    if distances.tolist() != reference:
        raise SystemExit("verifier: batched distances differ from the scalar oracle")
    _, t_scalar = timed(scalar)
    _, t_batched = timed(batched)
    return {
        "dataset": VERIFY_DATASET,
        "cascade": VERIFY_CASCADE,
        "n_pairs": N_PAIRS,
        "n_survivors": len(survivors),
        "n_verified_accepts": int((distances <= ERROR_THRESHOLD).sum()),
        "scalar_pairs_per_s": round(len(survivors) / t_scalar, 1),
        "batched_pairs_per_s": round(len(survivors) / t_batched, 1),
        "speedup": round(t_scalar / t_batched, 1),
    }


def main() -> int:
    native = numba_available()
    dataset = build_dataset("Set 1", n_pairs=N_PAIRS, seed=42)
    encoded = dataset.encoded()

    kernels = {}
    for name in FILTERS:
        numpy_engine = FilterEngine(
            name,
            read_length=dataset.read_length,
            error_threshold=ERROR_THRESHOLD,
            kernel_tier="numpy",
        )
        reference = numpy_engine.filter_encoded(encoded)
        entry = {
            "native_available": native,
            "n_accepted": reference.n_accepted,
        }
        _, t_numpy = timed(lambda e=numpy_engine: e.filter_encoded(encoded))
        entry["numpy_reads_per_s"] = round(N_PAIRS / t_numpy, 1)
        if native:
            native_engine = FilterEngine(
                name,
                read_length=dataset.read_length,
                error_threshold=ERROR_THRESHOLD,
                kernel_tier="native",
            )
            candidate = native_engine.filter_encoded(encoded)
            assert_identical(name, reference, candidate)
            _, t_native = timed(lambda e=native_engine: e.filter_encoded(encoded))
            entry["native_reads_per_s"] = round(N_PAIRS / t_native, 1)
            entry["native_speedup"] = round(t_numpy / t_native, 3)
        kernels[name] = entry

    # Threads scaling: njit(nogil=True) kernels overlap across thread shares.
    scaling = {"workers": WORKER_COUNTS, "native_available": native, "filters": {}}
    tiers = ["numpy"] + (["native"] if native else [])
    for name in FILTERS:
        rows = {}
        for tier in tiers:
            engine = FilterEngine(
                name,
                read_length=dataset.read_length,
                error_threshold=ERROR_THRESHOLD,
                kernel_tier=tier,
            )
            serial_reference = engine.filter_encoded(encoded)
            throughput = {}
            for workers in WORKER_COUNTS:
                executor = create_executor("threads", workers)
                try:
                    result = engine.filter_encoded(encoded, executor=executor)
                    assert_identical(f"{name}/{tier}/threads", serial_reference, result)
                    _, t = timed(
                        lambda e=engine, x=executor: e.filter_encoded(
                            encoded, executor=x
                        )
                    )
                finally:
                    executor.close()
                throughput[str(workers)] = round(N_PAIRS / t, 1)
            rows[tier] = throughput
        scaling["filters"][name] = rows

    payload = {
        "schema_version": SCHEMA_VERSION,
        "n_pairs": N_PAIRS,
        "error_threshold": ERROR_THRESHOLD,
        "native_available": native,
        "kernels": kernels,
        "threads_scaling": scaling,
        "verifier": bench_verifier(),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
