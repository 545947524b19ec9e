"""The output checks and the reporting rules."""

import pytest

from checks import (
    block_rates,
    false_accept_rate,
    false_rejects,
    quartile_spread,
    report_only,
    sample_indices,
    tail_percentile,
)


def test_tail_percentile_needs_ten_samples_beyond_it():
    samples = [float(i) for i in range(1, 100)]  # 99 samples: 9 beyond p90
    assert tail_percentile(samples, 0.9) is None
    samples.append(100.0)  # 100 samples: 10 beyond p90
    assert tail_percentile(samples, 0.9) == 90.0
    assert tail_percentile(samples, 0.99) is None
    assert tail_percentile([], 0.5) is None
    with pytest.raises(ValueError):
        tail_percentile(samples, 1.0)


def test_false_accept_rate_on_a_hand_built_result():
    from repro.api import Result

    result = Result(
        kind="filter",
        workload={},
        dataset="hand-built",
        filter="GateKeeper-GPU -> SneakySnake",
        summary={"n_pairs": 1000, "n_accepted": 150, "n_rejected": 850,
                 "verified_accepts": 120, "verified_rejects": 30},
    )
    # 30 accepted-but-refused pairs out of 30 + 850 pairs beyond the threshold.
    assert false_accept_rate(result.summary) == pytest.approx(30 / 880)
    assert false_accept_rate({"verified_rejects": 0, "n_rejected": 0}) == 0.0


def test_sample_indices_are_fixed_and_spread():
    assert sample_indices(10, 1024) == list(range(10))
    picked = sample_indices(50_000, 1024)
    assert len(picked) == 1024 == len(set(picked))
    assert picked[0] == 0 and picked[-1] > 49_000
    assert sample_indices(50_000, 1024) == picked


def test_a_corrupted_decision_vector_fails_the_output_check():
    from repro.engine import FilterEngine
    from repro.simulate.datasets import build_dataset

    dataset = build_dataset("Set 1", n_pairs=300, seed=3)
    accepted = FilterEngine("gatekeeper-gpu", read_length=100, error_threshold=5).filter_dataset(
        dataset
    ).accepted.copy()
    indices = sample_indices(len(dataset.reads))
    assert false_rejects(dataset.reads, dataset.segments, accepted, 5, indices) == []

    identical = 7
    segments = list(dataset.segments)
    segments[identical] = dataset.reads[identical]  # edit distance 0: must be accepted
    accepted[identical] = False
    assert false_rejects(dataset.reads, segments, accepted, 5, indices) == [identical]
    with pytest.raises(ValueError):
        false_rejects(dataset.reads, segments, accepted[:-1], 5, indices)


def test_quartile_spread():
    assert quartile_spread([1.0]) == 0.0
    assert quartile_spread([10.0, 10.0, 10.0, 10.0]) == 0.0
    assert quartile_spread([8.0, 9.0, 10.0, 11.0, 12.0]) == pytest.approx(0.3)


def test_block_rates_time_whole_blocks_of_completions():
    done = [(10.5, 4), (10.0, 9), (11.0, 2), (12.0, 8), (13.0, 1), (13.5, 5)]
    # Sorted: blocks of 2 run 10.0 -> 11.0 (4 + 2 pairs) and 11.0 -> 13.0 (8 + 1);
    # the completion at 13.5 only starts a part block.
    assert block_rates(done, 2) == [6.0, 4.5]
    assert block_rates(done[:2], 2) == []


def test_report_only_figures_apply_only_where_they_belong():
    latencies = [0.001 * (i + 1) for i in range(100)]
    batch = report_only(latencies)
    assert set(batch) == {"requests", "latency_spread"}
    verified = report_only(latencies, false_accept=0.25)
    assert verified["false_accept_rate"] == (0.25, "ratio")
    served = report_only(latencies, requests_per_s=40.0)
    assert served["requests_per_s"] == (40.0, "1/s")
    assert served["latency_p90_ms"] == (pytest.approx(90.0), "ms")
    assert report_only(latencies[:99], requests_per_s=40.0)["latency_p90_ms"] == (None, "ms")
