"""End-to-end benchmark of the ``repro`` library, with a per-layer trace.

Run from the root of a checkout::

    python3 e2ebench/run.py --workload dse-chain --seed 1 --seconds 12 --trace 0

One process, one caller, one fixed unit of work per round (see
``workloads.py``).  After an untimed warm-up (one unit of a round's work) it
runs timed rounds for ``--seconds`` (at least :data:`MIN_ROUNDS`), then checks
the results without timing them.  ``--trace 0`` reports the end-to-end
metrics; ``--trace 1`` spends half the time on untraced rounds and half on
rounds traced layer by layer (see ``tracing.py``), reports the per-layer
metrics and prints a layer table to standard error.  The last line of
standard output is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.

The end-to-end times are scaled to a reference host speed: every unit of a
timed round's work and every set-up sample is bracketed by timings of a fixed
reference loop
(``reference.py``), because the shared host's own speed moves more than the
bounds allow.  The unscaled figures are per-layer metrics (``host.*``).

Inputs come from ``--seed`` only.  Everything the run writes (stores, ledger,
temporary files) goes to a fresh directory under ``.bench_run/`` that is
removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from reference import scaled, time_reference

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_ROOT = ROOT / ".bench_run"

#: Timed rounds run for --seconds, but never fewer than this.
MIN_ROUNDS = 3
#: Fresh-interpreter set-up samples per run.  A fixed count, so that a run's
#: median never depends on when sampling stopped.
SETUP_SAMPLES = 9

#: The metrics BENCHMARK.json declares: name -> unit.  ``--trace 0`` prints
#: the end-to-end ones (untraced rounds), ``--trace 1`` the per-layer ones.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

#: Per-layer metrics taken from the untraced rounds of a ``--trace 1`` run
#: (medians): throughputs and the paper's speed-up must not carry tracing cost.
UNTRACED_RATES = ("candidates_per_s", "explicit_items_per_s", "equivalent_items_per_s",
                  "paper.speedup")

#: The paper's Table I Example 4 figures, printed beside the measured ones.
PAPER_EVENT_RATIO = 9.33
PAPER_SPEEDUP = 8.35


def isolate(run_dir: Path) -> None:
    """Point every file the library writes into ``run_dir``; drop path switches."""
    tmp = run_dir / "tmp"
    tmp.mkdir(parents=True)
    os.environ["REPRO_LEDGER"] = str(run_dir / "ledger.jsonl")
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = None
    for name in ("REPRO_DSE_BACKEND", "REPRO_DSE_COMPILE", "REPRO_TELEMETRY"):
        os.environ.pop(name, None)
    os.environ["PYTHONPATH"] = str(SRC)
    os.chdir(run_dir)


def median_of(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def setup_median(samples: Sequence[Dict[str, float]], scale: bool = True) -> float:
    """Median set-up time, scaled to the reference speed unless ``scale`` is false."""
    return median_of([
        scaled(s["import_s"] + s["prepare_s"], s["reference_s"]) if scale
        else s["import_s"] + s["prepare_s"]
        for s in samples
    ])


class SetupSampler:
    """Set-up samples from fresh interpreters, taken one at a time.

    One sample follows every timed round, so the samples spread over the whole
    run rather than one moment of it; :meth:`complete` then tops them up to
    SETUP_SAMPLES.
    """

    def __init__(self, workload: str, seed: int) -> None:
        self.command = [sys.executable, str(HERE / "probe.py"), "--workload", workload,
                        "--seed", str(seed)]
        self.samples: List[Dict[str, float]] = []
        self._probe()  # untimed: byte-compiles the sources and warms the file cache

    def _probe(self) -> Dict[str, float]:
        completed = subprocess.run(self.command, capture_output=True, text=True,
                                   check=True, timeout=120)
        return json.loads(completed.stdout.strip().splitlines()[-1])

    def take(self) -> None:
        if len(self.samples) < SETUP_SAMPLES:
            self.samples.append(self._probe())

    def complete(self) -> List[Dict[str, float]]:
        while len(self.samples) < SETUP_SAMPLES:
            self.take()
        return self.samples


def ledger_counters(path: Path, skip: int) -> Tuple[int, Dict[str, int]]:
    """Line count of the ledger and the summed counters of lines after ``skip``."""
    if not path.exists():
        return 0, {}
    lines = path.read_text(encoding="utf-8").splitlines()
    counters: Dict[str, int] = {}
    for line in lines[skip:]:
        folded = (json.loads(line).get("telemetry") or {}).get("counters", {})
        for name, value in folded.items():
            counters[name] = counters.get(name, 0) + value
    return len(lines), counters


def run_rounds(workload: Any, seconds: float, gate: Any, sampler: SetupSampler,
               first: Optional[Any] = None, tracer: Any = None) -> Tuple[list, list]:
    """Rounds until they total ``seconds`` (at least MIN_ROUNDS), gated against ``first``.

    The reference loop is timed before each unit of a round's work and after
    the last, and a set-up sample follows the round, all outside the round's
    clock.  With a
    ``tracer`` installed, also returns each round's layer metrics, self times
    and call counts.
    """
    from tracing import layer_metrics

    ledger = Path(os.environ["REPRO_LEDGER"])
    rounds: list = []
    layers: list = []
    while len(rounds) < MIN_ROUNDS or sum(r.wall_s for r in rounds) < seconds:
        workload.before_round()
        gc.collect()
        if tracer is not None:
            tracer.reset()
            mark, _ = ledger_counters(ledger, 0)
        references: List[float] = []
        result = workload.run_round(lambda: references.append(time_reference()))
        result.reference_s = statistics.mean(references)
        if tracer is not None:
            _, counters = ledger_counters(ledger, mark)
            layers.append((layer_metrics(tracer, counters), dict(tracer.self_s),
                           dict(tracer.calls)))
        if first is None:
            first = result
        workload.check_round(gate, result, first)
        rounds.append(result)
        sampler.take()
    return rounds, layers


def end_to_end_metrics(setup: Sequence[Dict[str, float]], rounds: Sequence[Any],
                       peak_rss_mb: float) -> Dict[str, float]:
    return {
        "setup_s": setup_median(setup),
        "round_s": median_of([scaled(r.wall_s, r.reference_s) for r in rounds]),
        "peak_rss_mb": peak_rss_mb,
    }


def per_layer_metrics(setup: Sequence[Dict[str, float]], untraced: Sequence[Any],
                      traced: Sequence[Any], layers: Sequence[Any]) -> Dict[str, float]:
    """Per-layer metrics: layer times are medians over traced rounds."""
    from tracing import TIME_METRICS

    metrics: Dict[str, float] = {}
    first_layers = layers[0][0]
    for name in first_layers:
        if name in TIME_METRICS:
            metrics[name] = median_of([row[name] for row, _, _ in layers])
        else:
            metrics[name] = first_layers[name]
    metrics["import.s"] = median_of([s["import_s"] for s in setup])
    metrics["host.setup_s"] = setup_median(setup, scale=False)
    metrics["host.round_s"] = median_of([r.wall_s for r in untraced])
    metrics["host.reference_s"] = median_of([r.reference_s for r in untraced])
    for name in UNTRACED_RATES:
        metrics[name] = median_of([r.rates.get(name, 0.0) for r in untraced])
    exact = traced[0].exact
    for name, value in exact.items():
        if name in PER_LAYER:
            metrics[name] = float(value)
    explored = exact.get("explored", 0)
    metrics["dse.search.fresh_ratio"] = (
        explored / metrics["dse.search.proposed"] if metrics["dse.search.proposed"] else 0.0
    )
    metrics["campaign.runner.cache_hit_ratio"] = (
        exact.get("cache_hits", 0) / explored if explored else 0.0
    )
    traced_self = [sum(self_s.values()) for _, self_s, _ in layers]
    walls = [r.wall_s for r in traced]
    metrics["trace.coverage"] = median_of([s / w for s, w in zip(traced_self, walls)])
    metrics["trace.unattributed_s"] = median_of([w - s for s, w in zip(traced_self, walls)])
    metrics["trace.overhead"] = (
        median_of(walls) / median_of([r.wall_s for r in untraced]) - 1.0
    )
    for name in PER_LAYER:
        metrics.setdefault(name, 0.0)  # a layer the workload never enters
    return metrics


def layer_table(layers: Sequence[Any], traced: Sequence[Any]) -> str:
    """Layers sorted by median self time per traced round, with coverage."""
    names = sorted({name for _, self_s, _ in layers for name in self_s})
    wall = median_of([r.wall_s for r in traced])
    rows = []
    for name in names:
        seconds = median_of([self_s.get(name, 0.0) for _, self_s, _ in layers])
        calls = layers[0][2].get(name, 0)
        rows.append((seconds, name, calls))
    rows.sort(reverse=True)
    lines = [f"{'layer':<32} {'self s/round':>12} {'share':>7} {'calls':>8}"]
    for seconds, name, calls in rows:
        lines.append(f"{name:<32} {seconds:>12.4f} {seconds / wall:>7.1%} {calls:>8}")
    covered = sum(seconds for seconds, _, _ in rows)
    lines.append(f"{'(unattributed)':<32} {wall - covered:>12.4f} "
                 f"{(wall - covered) / wall:>7.1%}")
    lines.append(f"traced round wall {wall:.4f} s, coverage {covered / wall:.1%} "
                 f"over {len(traced)} traced round(s)")
    return "\n".join(lines)


def provenance(workload: str, seed: int, rounds: str) -> List[str]:
    from repro.dse.engine import numpy_available, resolve_backend

    numpy_version = "absent"
    if numpy_available():
        import numpy

        numpy_version = numpy.__version__
    return [
        f"# workload {workload}, seed {seed}, rounds {rounds}",
        f"# backend {resolve_backend(None)}, numpy {numpy_version}, "
        f"python {platform.python_version()}, nproc {os.cpu_count()}",
    ]


def benchmark(name: str, seed: int, seconds: float, trace: bool,
              run_dir: Path) -> Tuple[Dict[str, Any], List[str]]:
    from tracing import Tracer, install_layers
    from workloads import WORKLOADS, Gate, check_repeat

    sampler = SetupSampler(name, seed)
    workload = WORKLOADS[name](seed, run_dir)
    gate = Gate()
    workload.warm_up()
    if not trace:
        rounds, _ = run_rounds(workload, seconds, gate, sampler)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics = end_to_end_metrics(sampler.complete(), rounds, peak_rss_mb)
        counts = (f"{len(rounds)} timed ({' '.join(f'{r.wall_s:.3f}' for r in rounds)} s; "
                  f"reference {' '.join(f'{r.reference_s:.4f}' for r in rounds)} s)")
        first = rounds[0]
    else:
        untraced, _ = run_rounds(workload, seconds / 2, gate, sampler)
        first = untraced[0]
        with Tracer() as tracer:
            install_layers(tracer)
            traced, layers = run_rounds(workload, seconds / 2, gate, sampler, first, tracer)
        for row, _, _ in layers[1:]:
            check_repeat(gate, "per-layer counts",
                         {k: v for k, v in layers[0][0].items() if not k.endswith("_s")},
                         {k: v for k, v in row.items() if not k.endswith("_s")})
        metrics = per_layer_metrics(sampler.complete(), untraced, traced, layers)
        counts = f"{len(untraced)} untraced + {len(traced)} traced"
        print(layer_table(layers, traced), file=sys.stderr)
        if name == "paper-table1":
            print(f"paper Table I Example 4: event ratio {metrics['paper.event_ratio']:.2f} "
                  f"(paper {PAPER_EVENT_RATIO}), speed-up {metrics['paper.speedup']:.2f} "
                  f"(paper {PAPER_SPEEDUP})", file=sys.stderr)
    workload.verify(gate, first)
    for failure in gate.failures:
        print(f"# gate failed: {failure}", file=sys.stderr)
    units = PER_LAYER if trace else END_TO_END
    result = {
        "correct": gate.failed == 0,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {n: {"value": metrics[n], "unit": unit} for n, unit in units.items()},
    }
    return result, provenance(name, seed, counts)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    arguments = parser.parse_args(argv)

    if not (SRC / "repro" / "cli.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    run_dir = RUN_ROOT / f"{arguments.workload}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    cwd = Path.cwd()
    try:
        isolate(run_dir)
        result, lines = benchmark(arguments.workload, arguments.seed, arguments.seconds,
                                  bool(arguments.trace), run_dir)
    finally:
        os.chdir(cwd)
        shutil.rmtree(run_dir, ignore_errors=True)
        with contextlib.suppress(OSError):
            RUN_ROOT.rmdir()  # only when no concurrent run still uses it
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
