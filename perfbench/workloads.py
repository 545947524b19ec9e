"""The benchmark's four workloads and the inputs each one generates from a seed.

Every input is a pure function of ``--seed``: dataset seeds, the FASTA and
FASTQ of ``reads-stream``, the TSV files of ``serve-mix`` and the order of
its requests.  The program only ever sees the generated inputs.
"""

from __future__ import annotations

import random
import zlib
from pathlib import Path
from typing import Any

__all__ = [
    "WHY",
    "ERROR_THRESHOLD",
    "SETUP_SAMPLES",
    "derive_seed",
    "batch_workload",
    "serve_mix",
    "request_order",
]

#: Threads, connections and executor workers (the target host has 2 CPUs).
CONCURRENCY = 2

ERROR_THRESHOLD = 5

#: Fresh processes (batch workloads) or daemon starts (serve-mix) per run.
#: Each one's first run is a setup_s sample, the median is reported, and
#: each carries an equal share of the measured load.
SETUP_SAMPLES = 3

#: Why each workload is in the benchmark, and which layers explain it.
WHY = {
    "bulk-filter": (
        "Kernel-bound warm run: 50k Set 1 pairs, GateKeeper-GPU, 2 threads, no "
        "verification; kernel.*, exec.* move pairs_per_s, simulate/encode move setup_s"
    ),
    "verify-cascade": (
        "The paper's filter-then-align job: 20k Set 3 pairs through GateKeeper-GPU "
        "then SneakySnake, verified; verify.* dominates, a kernel speedup should not show"
    ),
    "reads-stream": (
        "Streams a FASTQ against a 1 Mbp FASTA in 10k-pair chunks; parse, seed and "
        "encode move pairs_per_s, index and parse move setup_s"
    ),
    "serve-mix": (
        "repro serve with 2 workers and 2 closed-loop clients sending ~2k-pair "
        "requests, 1 in 4 over TSV files; api, serialise, cache and serve.* move latency"
    ),
}

#: Sizes from the workload definitions above.
BULK_PAIRS = 50_000
VERIFY_PAIRS = 20_000
GENOME_LENGTH = 1_000_000
N_READS = 20_000
READ_LENGTH = 100
STREAM_CHUNK = 10_000
SERVE_PAIRS = 2_000


def derive_seed(seed: int, label: str) -> int:
    """A stable 31-bit seed for one input of one run."""
    return zlib.crc32(f"{seed}:{label}".encode()) & 0x7FFFFFFF


def _filter(name: "str | list[str]") -> "dict[str, Any]":
    key = "cascade" if isinstance(name, list) else "filter"
    return {key: name, "error_threshold": ERROR_THRESHOLD}


def batch_workload(name: str, seed: int, work: Path) -> "dict[str, Any]":
    """The workload mapping of a batch workload, writing its input files to ``work``."""
    if name == "bulk-filter":
        return {
            "input": {
                "kind": "dataset",
                "dataset": "Set 1",
                "n_pairs": BULK_PAIRS,
                "seed": derive_seed(seed, "bulk"),
            },
            "filter": _filter("gatekeeper-gpu"),
            "execution": {"verify": False, "executor": "threads", "workers": CONCURRENCY},
        }
    if name == "verify-cascade":
        return {
            "input": {
                "kind": "dataset",
                "dataset": "Set 3",
                "n_pairs": VERIFY_PAIRS,
                "seed": derive_seed(seed, "verify"),
            },
            "filter": _filter(["gatekeeper-gpu", "sneakysnake"]),
            "execution": {"verify": True},
        }
    if name == "reads-stream":
        fasta, fastq = _write_reads(seed, work)
        return {
            "input": {"kind": "reads", "path": str(fastq), "reference": str(fasta)},
            "filter": _filter("gatekeeper-gpu"),
            "execution": {"verify": False, "chunk_size": STREAM_CHUNK},
            # The decision vector feeds the false-reject check.
            "output": {"collect_decisions": True},
        }
    raise KeyError(name)


def _write_reads(seed: int, work: Path) -> "tuple[Path, Path]":
    from repro.genomics.fasta import write_fasta
    from repro.genomics.fastq import write_fastq
    from repro.genomics.sequence import Sequence
    from repro.simulate.genome import generate_reference
    from repro.simulate.reads import simulate_reads

    reference = generate_reference(GENOME_LENGTH, seed=derive_seed(seed, "genome"))
    reads = simulate_reads(
        reference, N_READS, READ_LENGTH, seed=derive_seed(seed, "reads")
    )
    fasta, fastq = work / "reference.fa", work / "reads.fq"
    write_fasta(fasta, [Sequence(name=reference.name, bases=reference.bases)])
    write_fastq(fastq, reads)
    return fasta, fastq


def serve_mix(seed: int, work: Path) -> "list[tuple[str, int, dict[str, Any], list[tuple[str, str]] | None]]":
    """The distinct ``serve-mix`` requests as ``(label, weight, workload, tsv_pairs)``.

    Dataset requests reuse the daemon's cached datasets; the TSV requests
    (weight 4 of 16) re-read their file on every request and take the
    streaming path.  ``tsv_pairs`` are the pairs written to a TSV file.
    """
    from repro.simulate.datasets import build_dataset

    def dataset(name: str, label: str) -> "dict[str, Any]":
        return {
            "kind": "dataset",
            "dataset": name,
            "n_pairs": SERVE_PAIRS,
            "seed": derive_seed(seed, label),
        }

    mix: "list[tuple[str, int, dict[str, Any], list[tuple[str, str]] | None]]" = [
        ("set1-gatekeeper", 3, {"input": dataset("Set 1", "s1"), "filter": _filter("gatekeeper-gpu")}, None),
        ("set4-shouji", 3, {"input": dataset("Set 4", "s4"), "filter": _filter("shouji")}, None),
        ("set5-gatekeeper", 3, {"input": dataset("Set 5", "s5"), "filter": _filter("gatekeeper-gpu")}, None),
        (
            "set1-cascade",
            3,
            {"input": dataset("Set 1", "s1c"), "filter": _filter(["gatekeeper-gpu", "sneakysnake"])},
            None,
        ),
    ]
    for label, source in (("tsv-set1", "Set 1"), ("tsv-set4", "Set 4")):
        pool = build_dataset(source, n_pairs=SERVE_PAIRS, seed=derive_seed(seed, label))
        pairs = list(zip(pool.reads, pool.segments))
        path = work / f"{label}.tsv"
        path.write_text("".join(f"{read}\t{segment}\n" for read, segment in pairs))
        mix.append(
            (
                label,
                2,
                {"input": {"kind": "tsv", "path": str(path)}, "filter": _filter("gatekeeper-gpu")},
                pairs,
            )
        )
    for _label, _weight, workload, _pairs in mix:
        workload["execution"] = {"verify": False}
    return mix


def request_order(seed: int, client: int, labels: "list[str]", weights: "list[int]", n: int) -> "list[str]":
    """The first ``n`` request labels client ``client`` sends, drawn by weight."""
    rng = random.Random(derive_seed(seed, f"client{client}"))
    return rng.choices(labels, weights=weights, k=n)
