"""Tests for the unified FilterEngine API: registry, batch protocol, cascade."""

import random

import numpy as np
import pytest

from repro.align import edit_distance
from repro.core import FilteringPipeline, GateKeeperGPU
from repro.engine import (
    FilterCascade,
    FilterEngine,
    available_filters,
    get_filter,
    get_filter_class,
    register_filter,
    resolve_filter,
)
from repro.exec.executor import wants_word_arrays
from repro.filters import (
    FilterDecision,
    GateKeeperFilter,
    GateKeeperGPUFilter,
    MagnetFilter,
    PreAlignmentFilter,
    SHDFilter,
    ShoujiFilter,
    SneakySnakeFilter,
)
from repro.genomics.encoding import EncodedPairBatch
from repro.gpusim import SETUP_1
from repro.runtime import StreamingPipeline
from repro.simulate import build_dataset
from helpers import mutated_pair, random_sequence

ALL_KEYS = ["gatekeeper-gpu", "gatekeeper", "shd", "magnet", "shouji", "sneakysnake"]
ALL_CLASSES = {
    "gatekeeper-gpu": GateKeeperGPUFilter,
    "gatekeeper": GateKeeperFilter,
    "shd": SHDFilter,
    "magnet": MagnetFilter,
    "shouji": ShoujiFilter,
    "sneakysnake": SneakySnakeFilter,
}


@pytest.fixture(scope="module")
def dataset_1k():
    """The acceptance-criteria pool: 1k randomized pairs (contains N pairs)."""
    return build_dataset("Set 3", n_pairs=1_000, seed=42)


def mixed_pairs(n: int, length: int, seed: int) -> tuple[list[str], list[str]]:
    """Random mutated/unrelated pairs spanning the accept/reject boundary."""
    rng = random.Random(seed)
    reads, segments = [], []
    for i in range(n):
        if i % 4 == 3:
            read, segment = random_sequence(length, rng), random_sequence(length, rng)
        else:
            read, segment = mutated_pair(length, rng.randrange(0, 12), rng)
        reads.append(read)
        segments.append(segment)
    return reads, segments


class TestRegistry:
    def test_available_filters(self):
        assert available_filters() == ALL_KEYS

    def test_get_filter_classes(self):
        for key, cls in ALL_CLASSES.items():
            assert get_filter_class(key) is cls
            instance = get_filter(key, 5)
            assert isinstance(instance, cls)
            assert instance.error_threshold == 5

    def test_aliases_and_normalisation(self):
        assert get_filter_class("GateKeeper-GPU") is GateKeeperGPUFilter
        assert get_filter_class("gatekeeper_gpu") is GateKeeperGPUFilter
        assert get_filter_class("SneakySnake") is SneakySnakeFilter
        assert get_filter_class("snake") is SneakySnakeFilter
        assert get_filter_class("MAGNET") is MagnetFilter
        assert get_filter_class("  Shouji ") is ShoujiFilter

    def test_unknown_filter_raises(self):
        with pytest.raises(KeyError, match="unknown filter"):
            get_filter_class("minimap9000")

    def test_filter_kwargs_forwarded(self):
        assert get_filter("shouji", 5, window=6).window == 6

    def test_resolve_filter_specs(self):
        instance = ShoujiFilter(5)
        assert resolve_filter(instance, 5) is instance
        assert isinstance(resolve_filter("shd", 3), SHDFilter)
        assert isinstance(resolve_filter(MagnetFilter, 3), MagnetFilter)
        with pytest.raises(ValueError):
            resolve_filter(instance, 7)  # threshold mismatch
        with pytest.raises(ValueError, match="already-constructed"):
            resolve_filter(instance, 5, window=8)  # kwargs cannot apply
        with pytest.raises(TypeError):
            resolve_filter(123, 5)

    def test_register_filter_guards(self):
        with pytest.raises(ValueError):
            register_filter("shouji", ShoujiFilter)  # already registered
        with pytest.raises(TypeError):
            register_filter("not-a-filter", dict)


class CountMismatches(PreAlignmentFilter):
    """A custom filter that defines only the scalar estimate_edits_codes."""

    name = "CountMismatches"

    def estimate_edits_codes(self, read_codes, ref_codes):
        return int((read_codes != ref_codes).sum())


class TestBatchProtocol:
    """The batch method estimate_edits_words agrees with the per-pair path."""

    @pytest.mark.parametrize("key", ALL_KEYS)
    @pytest.mark.parametrize("threshold", [0, 2, 5])
    def test_batch_matches_scalar(self, key, threshold):
        reads, segments = mixed_pairs(60, 100, seed=threshold * 101 + 7)
        pairs = EncodedPairBatch.from_lists(reads, segments)
        flt = get_filter(key, threshold)
        batch = flt.estimate_edits_words(pairs.read_words, pairs.ref_words, pairs.length)
        assert batch.shape == (60,)
        for i in range(60):
            assert int(batch[i]) == flt.estimate_edits(reads[i], segments[i])

    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_batch_matches_scalar_odd_length(self, key):
        reads, segments = mixed_pairs(20, 73, seed=5)
        pairs = EncodedPairBatch.from_lists(reads, segments)
        flt = get_filter(key, 4)
        batch = flt.estimate_edits_words(pairs.read_words, pairs.ref_words, pairs.length)
        for i in range(20):
            assert int(batch[i]) == flt.estimate_edits(reads[i], segments[i])

    def test_base_fallback_loop(self):
        """A filter without a packed kernel still honours the protocol."""
        reads, segments = mixed_pairs(10, 50, seed=3)
        pairs = EncodedPairBatch.from_lists(reads, segments)
        flt = CountMismatches(5)
        batch = flt.estimate_edits_words(pairs.read_words, pairs.ref_words, pairs.length)
        assert batch.dtype == np.int32
        for i in range(10):
            assert int(batch[i]) == flt.estimate_edits(reads[i], segments[i])

    def test_scalar_shape_validation(self):
        flt = get_filter("shouji", 2)
        with pytest.raises(ValueError):
            flt.estimate_edits_codes(
                np.zeros(10, dtype=np.uint8), np.zeros(8, dtype=np.uint8)
            )


class TestCustomFilterFallback:
    """The base-class batch fallback through the engine and the streaming runtime."""

    @staticmethod
    def pool():
        reads, segments = mixed_pairs(45, 73, seed=11)
        rng = random.Random(12)
        for i in (0, 9, 30):
            j = rng.randrange(73)
            reads[i] = reads[i][:j] + "N" + reads[i][j + 1 :]
        segments[20] = "N" * 73
        return reads, segments

    def expected(self, reads, segments):
        flt = CountMismatches(5)
        return [flt.filter_pair(r, s) for r, s in zip(reads, segments)]

    def test_engine_matches_filter_pair(self):
        reads, segments = self.pool()
        engine = FilterEngine(
            CountMismatches(5), read_length=73, error_threshold=5, n_devices=2,
            max_reads_per_batch=7,
        )
        result = engine.filter_lists(reads, segments)
        expected = self.expected(reads, segments)
        assert result.n_batches == 8  # 23 + 22 pairs in batches of at most 7
        assert result.undefined.tolist() == [
            r.decision is FilterDecision.UNDEFINED for r in expected
        ]
        assert result.accepted.tolist() == [r.accepted for r in expected]
        assert result.estimated_edits.tolist() == [r.estimated_edits for r in expected]
        assert 0 < result.n_accepted < len(reads)

    def test_streaming_matches_filter_pair(self):
        reads, segments = self.pool()
        pipeline = StreamingPipeline(
            CountMismatches(5), chunk_size=16, error_threshold=5, collect_decisions=True
        )
        report = pipeline.run_pairs(zip(reads, segments), verify=False)
        expected = self.expected(reads, segments)
        assert report.n_chunks == 3
        assert report.undefined.tolist() == [
            r.decision is FilterDecision.UNDEFINED for r in expected
        ]
        assert report.accepted.tolist() == [r.accepted for r in expected]
        assert report.estimated_edits.tolist() == [r.estimated_edits for r in expected]


class TestFilterEngine:
    @pytest.mark.parametrize("key", ALL_KEYS)
    def test_engine_matches_filter_pair_on_1k_pairs(self, dataset_1k, key):
        """Acceptance criterion: engine decisions == per-pair filter_pair path."""
        engine = FilterEngine(key, read_length=100, error_threshold=5)
        result = engine.filter_dataset(dataset_1k)
        assert result.n_pairs == 1_000
        scalar = get_filter(key, 5)
        step = 7 if key in ("magnet", "sneakysnake") else 1
        for i in range(0, dataset_1k.n_pairs, step):
            expected = scalar.filter_pair(
                dataset_1k.reads[i], dataset_1k.segments[i]
            ).accepted
            assert bool(result.accepted[i]) == expected, (key, i)

    def test_engine_accepts_instance_and_class_specs(self, dataset_1k):
        by_name = FilterEngine("shd", 100, 5).filter_dataset(dataset_1k)
        by_cls = FilterEngine(SHDFilter, 100, 5).filter_dataset(dataset_1k)
        by_instance = FilterEngine(SHDFilter(5), 100, 5).filter_dataset(dataset_1k)
        assert np.array_equal(by_name.accepted, by_cls.accepted)
        assert np.array_equal(by_name.accepted, by_instance.accepted)

    def test_instance_threshold_mismatch_raises(self):
        with pytest.raises(ValueError):
            FilterEngine(ShoujiFilter(3), read_length=100, error_threshold=5)

    def test_read_length_mismatch_raises(self):
        engine = FilterEngine("shouji", read_length=100, error_threshold=5)
        with pytest.raises(ValueError, match="read_length=100"):
            engine.filter_lists(["ACGT" * 30], ["ACGT" * 30])

    def test_every_engine_and_cascade_wants_word_arrays(self):
        for key in ALL_KEYS:
            assert wants_word_arrays(FilterEngine(key, 100, 5))
        assert wants_word_arrays(FilterEngine(CountMismatches(5), 100, 5))
        assert wants_word_arrays(
            FilterCascade.from_names(["shouji", "magnet"], read_length=100, error_threshold=5)
        )

    def test_device_split_and_batching_stable(self, dataset_1k):
        single = FilterEngine("shouji", 100, 5)
        multi = FilterEngine("shouji", 100, 5, setup=SETUP_1, n_devices=4, max_reads_per_batch=77)
        r1 = single.filter_dataset(dataset_1k)
        r4 = multi.filter_dataset(dataset_1k)
        assert np.array_equal(r1.accepted, r4.accepted)
        assert r4.n_batches >= 4

    def test_undefined_pairs_pass(self):
        engine = FilterEngine("sneakysnake", read_length=8, error_threshold=0)
        result = engine.filter_lists(["ACGTNACG", "ACGTACGT"], ["ACGTAACG", "TTTTTTTT"])
        assert result.undefined.tolist() == [True, False]
        assert bool(result.accepted[0])  # N pair passes unfiltered
        assert not bool(result.accepted[1])
        assert result.metadata["filter"] == "SneakySnake"

    def test_timing_and_summary(self, dataset_1k):
        result = FilterEngine("magnet", 100, 5).filter_dataset(dataset_1k)
        assert result.kernel_time_s > 0
        assert result.filter_time_s > result.kernel_time_s
        assert result.summary()["n_pairs"] == 1_000

    def test_gatekeeper_gpu_facade_equivalence(self, dataset_1k):
        facade = GateKeeperGPU(read_length=100, error_threshold=5)
        engine = FilterEngine("gatekeeper-gpu", read_length=100, error_threshold=5)
        a = facade.filter_dataset(dataset_1k)
        b = engine.filter_dataset(dataset_1k)
        assert np.array_equal(a.accepted, b.accepted)
        assert np.array_equal(a.estimated_edits, b.estimated_edits)
        assert isinstance(facade, FilterEngine)
        assert facade.edge_policy == "one"


class TestFilterCascade:
    def test_cascade_runs_and_accounts(self, dataset_1k):
        cascade = FilterCascade.from_names(
            ["gatekeeper-gpu", "sneakysnake"], read_length=100, error_threshold=5
        )
        result = cascade.filter_dataset(dataset_1k)
        assert result.n_pairs == 1_000
        assert len(result.stage_accounts) == 2
        first, second = result.stage_accounts
        assert first.filter_name == "GateKeeper-GPU"
        assert second.filter_name == "SneakySnake"
        assert first.n_input == 1_000
        assert second.n_input == first.n_accepted
        assert result.n_accepted == second.n_accepted
        summaries = result.stage_summaries()
        assert summaries[0]["filter"] == "GateKeeper-GPU"

    def test_cascade_subset_of_first_stage(self, dataset_1k):
        stage1 = FilterEngine("gatekeeper-gpu", 100, 5)
        cascade = FilterCascade(
            [stage1, FilterEngine("sneakysnake", 100, 5)]
        )
        alone = stage1.filter_dataset(dataset_1k)
        combined = cascade.filter_dataset(dataset_1k)
        # The cascade can only reject more, never resurrect a rejected pair.
        assert not np.any(combined.accepted & ~alone.accepted)

    def test_cascade_never_false_rejects(self):
        """A pair within the threshold survives every no-false-reject stage.

        Only the stages that compute true lower bounds of the edit distance
        participate (GateKeeper-GPU and SneakySnake); Shouji/MAGNET trade a
        few false rejects for tighter estimates, as the paper observes.
        """
        threshold = 5
        reads, segments = mixed_pairs(400, 100, seed=99)
        cascade = FilterCascade.from_names(
            ["gatekeeper-gpu", "sneakysnake"],
            read_length=100,
            error_threshold=threshold,
        )
        result = cascade.filter_lists(reads, segments)
        for i in range(len(reads)):
            if edit_distance(reads[i], segments[i]) <= threshold:
                assert bool(result.accepted[i]), i

    def test_cascade_validation(self):
        with pytest.raises(ValueError):
            FilterCascade([])
        with pytest.raises(ValueError):
            FilterCascade(
                [FilterEngine("shd", 100, 5), FilterEngine("shouji", 100, 4)]
            )
        with pytest.raises(ValueError):
            FilterCascade(
                [FilterEngine("shd", 100, 5), FilterEngine("shouji", 150, 5)]
            )


class TestPipelineWithAnyFilter:
    def test_pipeline_with_non_gatekeeper_engine(self, dataset_1k):
        engine = FilterEngine("shouji", read_length=100, error_threshold=5)
        report = FilteringPipeline(engine).run(dataset_1k.subset(200))
        assert report.n_pairs == 200
        assert report.pairs_entering_verification + report.rejected_pairs == 200
        assert report.error_threshold == 5

    def test_pipeline_with_bare_filter_instance(self, dataset_1k):
        report = FilteringPipeline(SneakySnakeFilter(5)).run(dataset_1k.subset(150))
        assert report.n_pairs == 150
        assert report.reduction > 0

    def test_pipeline_with_registry_name(self, dataset_1k):
        report = FilteringPipeline("magnet", error_threshold=5).run(dataset_1k.subset(100))
        assert report.n_pairs == 100

    def test_lazy_pipeline_rebuilds_for_new_read_length(self, dataset_1k):
        """A name-spec pipeline must not silently reuse a stale read length."""
        pipeline = FilteringPipeline("gatekeeper-gpu", error_threshold=5)
        pipeline.run(dataset_1k.subset(50), verify=False)
        assert pipeline.engine.read_length == 100
        ds_150 = build_dataset("Set 6", n_pairs=50, seed=8)
        assert ds_150.read_length == 150
        report = pipeline.run(ds_150, verify=False)
        assert pipeline.engine.read_length == 150
        # Decisions match a correctly-sized engine, not a truncated one.
        fresh = FilterEngine("gatekeeper-gpu", 150, 5).filter_dataset(ds_150)
        assert np.array_equal(report.filter_result.accepted, fresh.accepted)

    def test_pipeline_name_without_threshold_raises(self):
        with pytest.raises(ValueError):
            FilteringPipeline("magnet")

    def test_pipeline_with_cascade(self, dataset_1k):
        cascade = FilterCascade.from_names(
            ["gatekeeper-gpu", "sneakysnake"], read_length=100, error_threshold=5
        )
        report = FilteringPipeline(cascade).run(dataset_1k.subset(200))
        assert report.n_pairs == 200
        assert report.filter_result.stage_accounts


class TestMapperWithRegistry:
    def test_mapper_accepts_filter_name(self):
        from repro.analysis import experiments

        run = experiments.run_whole_genome(
            n_reads=40, genome_length=8_000, filter_name="shouji", seed=3
        )
        rows = experiments.whole_genome_mapping_rows(run)
        assert rows[1]["mrFAST with"] == "Shouji"
        # The filter saves verifications but must not lose mappings.
        assert rows[1]["mappings"] == rows[0]["mappings"]
        assert rows[1]["verification_pairs"] <= rows[0]["candidate_pairs"]


class TestCli:
    def test_filter_cli_with_shouji(self, capsys):
        from repro.cli import filter_main

        assert filter_main(["--filter", "shouji", "--pairs", "150"]) == 0
        out = capsys.readouterr().out
        assert "Shouji" in out and "reduction_pct" in out

    def test_filter_cli_with_cascade(self, capsys):
        from repro.cli import filter_main

        assert (
            filter_main(["--cascade", "gatekeeper-gpu,sneakysnake", "--pairs", "200"]) == 0
        )
        out = capsys.readouterr().out
        assert "GateKeeper-GPU -> SneakySnake" in out
        assert "Per-stage accounting" in out

    def test_filter_cli_rejects_single_stage_cascade(self):
        from repro.cli import filter_main

        with pytest.raises(SystemExit):
            filter_main(["--cascade", "shouji", "--pairs", "10"])
