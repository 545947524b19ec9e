"""Per-layer metrics from a real traced run, and BENCHMARK.json consistency."""

import json
import re
from pathlib import Path

import pytest

from layers import GAP_MEANING, PER_LAYER, install, layer_metrics
from run import END_TO_END
from spans import Recorder
from workloads import WHY

ROOT = Path(__file__).resolve().parents[2]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_traced_cascade_run_reports_its_layers():
    from repro.api import Session, Workload

    workload = Workload.from_dict({
        "input": {"kind": "dataset", "dataset": "Set 3", "n_pairs": 400, "seed": 5},
        "filter": {"cascade": ["gatekeeper-gpu", "sneakysnake"], "error_threshold": 5},
        "execution": {"verify": True},
    })
    original_run = Session.run
    recorder = Recorder()
    restore = install(recorder)
    try:
        session = Session()
        first = session.run(workload)
        second = session.run(workload)
    finally:
        restore()
    assert Session.run is original_run
    assert first.to_json() == second.to_json()

    metrics, (gap_name, gap_s) = layer_metrics(recorder.spans, cold_calls=1)
    stages = second.stages
    assert metrics["simulate.busy_s"] > 0
    assert metrics["kernel.pairs"] == stages[0]["n_input"] + stages[1]["n_input"]
    assert metrics["cascade.stage1_survivor_ratio"] == pytest.approx(
        stages[0]["n_accepted"] / stages[0]["n_input"]
    )
    assert metrics["verify.calls"] == second.summary["n_accepted"]
    assert metrics["verify.accept_ratio"] == pytest.approx(
        second.summary["verified_accepts"] / second.summary["n_accepted"]
    )
    assert metrics["kernel.gatekeeper-gpu.busy_s"] > 0 and metrics["kernel.sneakysnake.busy_s"] > 0
    assert metrics["cache.misses"] >= 2  # the engine and the dataset, built once
    assert metrics["cache.hits"] >= 2  # and found again by the second call
    assert 0.5 < metrics["trace.coverage"] <= 1.0
    assert gap_name in GAP_MEANING and gap_s >= 0
    assert set(metrics) <= set(PER_LAYER)


def test_benchmark_json_matches_the_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == WHY
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == list(PER_LAYER)
    for metric in spec["per_layer"]:
        unit, better, _moves = PER_LAYER[metric["name"]]
        assert (metric["unit"], metric["better"]) == (unit, better)
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])
    for metric in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        assert NAME.match(metric["name"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        assert UNIT.match(metric["unit"]) and metric["better"] in ("lower", "higher")
    for metric in spec["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    assert all(len(why) <= 200 and "\n" not in why for why in WHY.values())
