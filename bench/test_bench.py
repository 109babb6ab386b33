"""Smoke tests of the benchmark itself, on tiny bounds.

    python3 -m pytest -q bench
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import leavitt  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _results(done):
    assert done.returncode == 0, done.stderr
    lines = [json.loads(line) for line in done.stdout.splitlines()]
    return list(zip(lines[0::2], lines[1::2]))


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace, key", [("0", "end_to_end"), ("1", "per_layer")])
def test_smoke_run_prints_every_metric_and_passes_its_checks(trace, key):
    results = _results(_bench("--workload", "all", "--smoke", "--trace", trace))
    assert [info["workload"] for info, _ in results] == list(run.WORKLOAD_NAMES)
    for info, result in results:
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert info["failed_share"] == 0
        assert {m: v["unit"] for m, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in SPEC[key]}
        assert info.get("absent", []) == []


def test_smoke_trace_splits_time_by_layer():
    (info, result), = _results(_bench("--workload", "normal-form", "--smoke", "--trace", "1"))
    metrics = {m: v["value"] for m, v in result["metrics"].items()}
    assert metrics["algebra.rewrite.terms"] > 0
    assert metrics["algebra.parse_element.self_s"] > 0
    assert 0 < sum(v for m, v in metrics.items() if m.startswith("layer.")) <= 1.0 + 1e-9


@pytest.mark.parametrize(
    "name, wrong",
    [
        ("epsilon-window", {"epsilon": "a + b"}),
        ("grading-sweep", {"monomials": 22}),
        ("sampled-verify", {"samples": 6}),
        ("normal-form", {"power": "a"}),
    ],
)
def test_a_wrong_expected_answer_is_counted_as_failed(name, wrong):
    prepared = workloads.WORKLOADS[name].prepare(3, workloads.SMOKE, expect=wrong)
    loop = run.run_loop(prepared, 0, min_rounds=1)
    assert 0 < loop.failed <= loop.attempted
    right = run.run_loop(workloads.WORKLOADS[name].prepare(3, workloads.SMOKE), 0, min_rounds=1)
    assert right.failed == 0


def test_own_counts_match_the_recorded_baselines():
    assert workloads.normal_monomial_count(3) == 345
    assert sum(2 * workloads.monomials_by_degree(8)[g] for g in range(-3, 4)) == 309_138
    assert workloads.nf_closed_form(2) == "a - x.(x)* - w.x.(w.x)*"
    word = workloads.random_walk(random.Random(1), 50)
    assert all(workloads.R3_EDGES[a][1] == workloads.R3_EDGES[b][0] for a, b in zip(word, word[1:]))


def test_tracer_rebinds_every_import_site_and_restores_them():
    # the package's `epsilon` attribute is the function, so go by module name
    sites = [sys.modules[f"leavitt.{m}"] for m in ("grading", "epsilon", "sampling", "cli")]
    original = leavitt.enumerate_Xg
    tr = tracer.Tracer().install()
    try:
        wrapped = leavitt.enumerate_Xg
        assert wrapped is not original
        assert all(site.enumerate_Xg is wrapped for site in sites)
        dm = leavitt.DegreeMap.canonical(leavitt.parse_graph(workloads.GRAPH_FILE.read_text()))
        leavitt.epsilon(1, dm, 2)
    finally:
        tr.uninstall()
    assert all(site.enumerate_Xg is original for site in [leavitt, *sites])
    assert tr.calls["grading.enumerate_Xg"] == 2 and tr.calls["epsilon.minimal_classes"] == 1
    assert tr.counts["epsilon.identity_checks"] > 0


def test_tracer_reports_missing_or_unexported_targets_as_absent(monkeypatch):
    monkeypatch.setattr(
        tracer,
        "SPANS",
        tracer.SPANS
        + (
            ("grading.gone", "grading", "no_such_function"),
            ("grading.buckets", "grading", "path_degree_buckets"),
            ("graph.gone", "graph", "Graph.no_such_method"),
        ),
    )
    tr = tracer.Tracer().install()
    tr.uninstall()
    assert tr.absent == [
        "leavitt.grading.no_such_function",
        "leavitt.grading.path_degree_buckets",
        "leavitt.graph.Graph.no_such_method",
    ]
    assert tr.metrics(1, 1.0)["grading.enumerate_Xg.calls"] == 0


def test_fails_without_printing_a_result_when_the_sources_are_missing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "grading-sweep", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
