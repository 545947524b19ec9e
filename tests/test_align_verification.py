"""Tests for the verification stage and ground-truth labelling."""

import json
import random

import numpy as np
import pytest

from repro.align import (
    Verifier,
    banded_edit_distance,
    edit_distance,
    ground_truth_distances,
    ground_truth_labels,
)
from repro.api import Session, Workload
from repro.genomics import SequencePair
from helpers import mutated_pair, random_sequence


class TestVerifier:
    def test_accepts_within_threshold(self, rng):
        verifier = Verifier(error_threshold=5)
        read, segment = mutated_pair(80, 3, rng)
        result = verifier.verify(read, segment)
        assert result.accepted == (edit_distance(read, segment) <= 5)

    def test_banded_and_full_agree_on_decision(self, rng):
        banded = Verifier(5, banded=True)
        full = Verifier(5, banded=False)
        for _ in range(15):
            read, segment = mutated_pair(60, rng.randrange(0, 12), rng)
            assert banded.verify(read, segment).accepted == full.verify(read, segment).accepted

    def test_counts_pairs_verified(self, rng):
        verifier = Verifier(3)
        pairs = [mutated_pair(40, 1, rng) for _ in range(7)]
        verifier.verify_pairs(pairs)
        assert verifier.pairs_verified == 7

    def test_negative_threshold_raises(self):
        with pytest.raises(ValueError):
            Verifier(-1)

    def test_verify_sequence_pair_objects(self, rng):
        verifier = Verifier(4)
        read, segment = mutated_pair(50, 2, rng)
        results = verifier.verify_pairs([SequencePair(read=read, reference_segment=segment)])
        assert len(results) == 1


class TestVerifyBatch:
    """``verify_batch`` (production) against ``verify`` (the scalar oracle)."""

    @staticmethod
    def ragged_pairs(rng, n=40):
        """Mixed-length pairs, some with ``N``, some further apart than ``e``."""
        pairs = []
        for _ in range(n):
            read, segment = mutated_pair(rng.choice([1, 30, 64, 65]), rng.randrange(0, 8), rng)
            if rng.random() < 0.2:
                read = read[: len(read) // 2] + "N" + read[len(read) // 2 + 1 :]
            pairs.append((read, segment))
        pairs.append(("", "ACG"))
        pairs.append(("ACGTACGTAC", "AC"))
        return pairs

    @pytest.mark.parametrize("banded", [True, False])
    def test_equals_per_pair_verify(self, rng, banded):
        pairs = self.ragged_pairs(rng)
        reads = [read for read, _ in pairs]
        segments = [segment for _, segment in pairs]
        batch = Verifier(4, banded=banded).verify_batch(reads, segments)
        oracle = Verifier(4, banded=banded)
        assert batch.tolist() == [oracle.verify(r, s).edit_distance for r, s in pairs]

    def test_pairs_verified_counts_batch_calls(self, rng):
        verifier = Verifier(3)
        pairs = [mutated_pair(40, 1, rng) for _ in range(7)]
        verifier.verify_batch([r for r, _ in pairs], [s for _, s in pairs])
        verifier.verify_batch([], [])
        verifier.verify_batch([r for r, _ in pairs[:2]], [s for _, s in pairs[:2]])
        assert verifier.pairs_verified == 9

    def test_verify_pairs_matches_verify(self, rng):
        pairs = self.ragged_pairs(rng)
        results = Verifier(5).verify_pairs(pairs)
        oracle = Verifier(5)
        assert results == [oracle.verify(r, s) for r, s in pairs]
        assert all(type(result.edit_distance) is int for result in results)

    @pytest.mark.parametrize("banded", [True, False])
    def test_mismatched_lengths_raise(self, banded):
        verifier = Verifier(2, banded=banded)
        with pytest.raises(ValueError):
            verifier.verify_batch(["ACGT"], [])
        assert verifier.pairs_verified == 0


def _near_threshold_tsv(path, n_pairs=900, length=100, seed=3):
    """Equal-length pairs (the filters require them) at 0-9 edits, some with N."""
    rng = random.Random(seed)
    lines = []
    for _ in range(n_pairs):
        segment = random_sequence(length, rng)
        read = list(segment)
        for _ in range(rng.randrange(0, 10)):
            at = rng.randrange(length)
            if rng.random() < 0.5:  # a shifted stretch reads as an indel
                stop = min(length, at + rng.randrange(2, 12))
                read[at:stop] = read[at + 1 : stop] + [rng.choice("ACGT")]
            else:
                read[at] = rng.choice("ACGT")
        if rng.random() < 0.05:
            read[rng.randrange(length)] = "N"
        lines.append("".join(read) + "\t" + segment)
    path.write_text("\n".join(lines) + "\n")
    return [line.split("\t") for line in lines]


class TestVerifiedRunsMatchScalarRecount:
    """Verified cascades: the batched counts equal a per-pair scalar recount."""

    CASCADE = {"cascade": ["gatekeeper-gpu", "sneakysnake"], "error_threshold": 5}

    @staticmethod
    def recount(reads, segments, accepted, threshold):
        within = sum(
            banded_edit_distance(reads[i], segments[i], threshold) <= threshold
            for i in np.flatnonzero(accepted).tolist()
        )
        return within, int(np.count_nonzero(accepted)) - within

    def run_cascade(self, input_section, mode):
        workload = Workload.from_dict(
            {
                "input": input_section,
                "filter": self.CASCADE,
                "execution": {"verify": True, "mode": mode, "chunk_size": 256},
                "output": {"collect_decisions": True},
            }
        )
        return Session().run(workload)

    @staticmethod
    def decisions(result):
        raw = result.raw
        filtered = getattr(raw, "filter_result", None)  # memory runs
        return raw.accepted if filtered is None else filtered.accepted

    @staticmethod
    def mode_free(result):
        """The canonical JSON without the sections that record the mode itself."""
        payload = json.loads(result.to_json())
        for key in ("workload", "streaming", "chunks"):
            payload.pop(key, None)
        return json.dumps(payload, sort_keys=True)

    def test_dataset_memory_and_streaming(self):
        source = {"kind": "dataset", "dataset": "Set 3", "n_pairs": 1500, "seed": 7}
        results = {mode: self.run_cascade(source, mode) for mode in ("memory", "streaming")}
        dataset = Session().dataset_for(
            Workload.from_dict({"input": source, "filter": self.CASCADE})
        )
        for result in results.values():
            accepts, rejects = self.recount(
                dataset.reads, dataset.segments, self.decisions(result), 5
            )
            assert accepts > 0 and rejects > 0
            assert result.summary["verified_accepts"] == accepts
            assert result.summary["verified_rejects"] == rejects
        assert self.mode_free(results["memory"]) == self.mode_free(results["streaming"])

    def test_tsv_streaming(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        pairs = _near_threshold_tsv(path)
        result = self.run_cascade({"kind": "tsv", "path": str(path)}, "streaming")
        accepts, rejects = self.recount(
            [read for read, _ in pairs], [segment for _, segment in pairs],
            self.decisions(result), 5,
        )
        assert accepts > 0 and rejects > 0
        assert result.summary["verified_accepts"] == accepts
        assert result.summary["verified_rejects"] == rejects


class TestGroundTruth:
    def test_distances_match_edit_distance(self, rng):
        pairs = [mutated_pair(50, rng.randrange(0, 8), rng) for _ in range(10)]
        distances = ground_truth_distances(pairs)
        for (read, segment), d in zip(pairs, distances):
            assert d == edit_distance(read, segment)

    def test_labels_threshold(self, rng):
        pairs = [mutated_pair(50, rng.randrange(0, 10), rng) for _ in range(10)]
        labels = ground_truth_labels(pairs, 4)
        for (read, segment), label in zip(pairs, labels):
            assert label == (edit_distance(read, segment) <= 4)

    def test_undefined_pairs_labelled_accepted(self):
        pairs = [("ACGTN" * 10, "TTTTT" * 10)]
        assert ground_truth_labels(pairs, 0)[0]
        assert not ground_truth_labels(pairs, 0, undefined_accepted=False)[0]
