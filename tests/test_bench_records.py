"""Every root-level BENCH_*.json record names a benchmark workload and keeps
its per-layer splits under metric names that BENCHMARK.json declares."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_there_are_records():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_matches_the_benchmark(path):
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(path.read_text())
    assert record["workload"] in {w["name"] for w in benchmark["workloads"]}
    names = {m["name"] for m in benchmark["per_layer"]}
    for side in ("parent", "change"):
        layers = record["per_layer"][side]["per_layer"]
        assert isinstance(layers, dict) and layers
        assert set(layers) <= names, sorted(set(layers) - names)
