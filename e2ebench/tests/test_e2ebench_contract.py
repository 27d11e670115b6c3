"""The benchmark prints exactly the metrics, units and workloads BENCHMARK.json names."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
from reference import REFERENCE_S  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, RoundResult  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_workloads_and_paths_match_benchmark_json():
    assert list(WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    assert SPEC["paths"] == [BENCH.name]


def test_computed_metrics_cover_exactly_the_printed_names():
    setup = [{"import_s": 0.3, "prepare_s": 0.1, "reference_s": 0.1},
             {"import_s": 0.4, "prepare_s": 0.1, "reference_s": 0.1}]
    rounds = [RoundResult(wall_s=2.0, rates={"candidates_per_s": 400.0},
                          exact={"explored": 800, "cache_hits": 0}, fingerprint=(),
                          reference_s=0.1)]
    end_to_end = bench_run.end_to_end_metrics(setup, rounds, peak_rss_mb=50.0)
    assert set(end_to_end) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(value > 0 for value in end_to_end.values())

    tracer = Tracer()
    tracer.counts["dse.search.proposed"] = 1000
    layers = [(layer_metrics(tracer, {}), {"dse.space.digest": 0.5}, {})]
    per_layer = bench_run.per_layer_metrics(setup, rounds, rounds, layers)
    assert set(per_layer) == {m["name"] for m in SPEC["per_layer"]}


def test_end_to_end_times_are_scaled_by_the_reference_loop():
    reference = REFERENCE_S
    setup = [{"import_s": 0.35, "prepare_s": 0.1, "reference_s": reference * 1.5},
             {"import_s": 0.2, "prepare_s": 0.1, "reference_s": reference}]
    rounds = [RoundResult(wall_s=3.0, rates={}, exact={}, fingerprint=(),
                          reference_s=reference * 1.5),
              RoundResult(wall_s=2.0, rates={}, exact={}, fingerprint=(),
                          reference_s=reference)]
    metrics = bench_run.end_to_end_metrics(setup, rounds, peak_rss_mb=50.0)
    # a host 1.5x slower in both the work and the loop reads the same
    assert abs(metrics["round_s"] - 2.0) < 1e-9
    assert abs(metrics["setup_s"] - 0.3) < 1e-9


def test_exits_nonzero_without_a_result_when_the_sources_are_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    completed = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "dse-chain", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode != 0
    assert '"metrics"' not in completed.stdout
