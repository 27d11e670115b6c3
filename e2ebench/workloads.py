"""The benchmark's workloads: one fixed unit of work per round, and its gates.

Every round of a workload does identical work.  Its inputs come from the
benchmark seed alone: the seed is the stimulus seed, and the DSE workloads
explore the fixed :data:`SEARCH_SEEDS` in full in every round.  Nothing in a
round depends on the time limit or on which round it is.  A workload whose
unit of work is short repeats it (``REPEATS``) so that a round takes several
seconds: rounds of about a second spread too much on a shared host.  Only the
units of work are timed; the runner's ``between`` callback runs before each
unit and after the last, outside the clock (it times the reference loop).

Each workload is driven by one caller in this process (a closed loop with one
client): the DSE rounds call ``repro.cli.main`` exactly as the ``repro dse
run`` command line does, with ``--jobs`` at its default of 1.
"""

from __future__ import annotations

import contextlib
import functools
import io
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

#: Search seeds every DSE round explores, each in full.  Fixed, so that two
#: runs with different benchmark seeds differ only in their stimulus.
SEARCH_SEEDS = (1, 2)


class Gate:
    """Counts correctness checks attempted and failed, keeping the messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(message)


@dataclass
class Exploration:
    """What one ``repro dse run`` produced: exit code, counters and its front."""

    exit_code: int
    errors: int
    evaluated: int
    cache_hits: int
    explored: int
    #: (candidate digest, objective vector) per front point, in front order.
    front: Tuple[Tuple[str, Tuple[float, ...]], ...]
    points: List[Any] = field(repr=False, default_factory=list)
    best_latency_us: float = 0.0
    hypervolume: float = 0.0


@dataclass
class RoundResult:
    """One round: its host wall time plus everything the gates and layers read."""

    wall_s: float
    #: Throughputs of this round (only the metrics that describe the workload).
    rates: Dict[str, float]
    #: Exact simulated results and model counts (identical in every round).
    exact: Dict[str, float]
    #: The values the per-round gate compares against the first round.
    fingerprint: Any
    explorations: List[Exploration] = field(default_factory=list)
    instants_identical: bool = True
    #: Mean of the reference-loop timings taken around the round's units of
    #: work, set by the runner (see ``reference.py``).
    reference_s: float = 0.0


def run_units(units: Sequence[Callable[[], Any]],
              between: Callable[[], None]) -> Tuple[List[Any], float]:
    """Each of ``units`` in order, with ``between()`` before each and after the last.

    Only the units are timed: returns their results and their summed seconds.
    """
    results: List[Any] = []
    wall = 0.0
    for unit in units:
        between()
        start = time.perf_counter()
        results.append(unit())
        wall += time.perf_counter() - start
    between()
    return results, wall


def check_repeat(gate: Gate, what: str, first: Any, observed: Any) -> None:
    """Gate: a round reproduced the first timed round's result exactly."""
    gate.check(observed == first, f"{what} differs from the first timed round")


def check_exploration(gate: Gate, label: str, exploration: Exploration) -> None:
    """Gate: an exploration exited 0 with no errors and a non-empty front."""
    gate.check(exploration.exit_code == 0, f"{label}: exit code {exploration.exit_code}")
    gate.check(exploration.errors == 0, f"{label}: {exploration.errors} errors")
    gate.check(len(exploration.front) > 0, f"{label}: empty Pareto front")


class Workload:
    """Base class; see the module docstring for the contract of a round."""

    name = ""
    #: Times a round repeats the workload's unit of work.
    REPEATS = 1

    def __init__(self, seed: int, run_dir: Path) -> None:
        self.seed = seed
        self.run_dir = run_dir

    def prepare_invocation(self) -> None:
        """What a command-line user pays once per invocation (setup probe)."""
        raise NotImplementedError

    def before_round(self) -> None:
        """Untimed per-round reset (runs before the round's clock starts)."""

    def warm_up(self) -> None:
        """Untimed, before the first round: one unit of the round's work.

        It loads and byte-compiles the modules a round uses.  One unit is
        enough for that; a whole round would only lengthen the run.
        """
        raise NotImplementedError

    def run_round(self, between: Callable[[], None]) -> RoundResult:
        raise NotImplementedError

    def check_round(self, gate: Gate, result: RoundResult, first: RoundResult) -> None:
        check_repeat(gate, f"{self.name} result", first.fingerprint, result.fingerprint)

    def verify(self, gate: Gate, first: RoundResult) -> None:
        """Untimed checks after the rounds (not part of any metric)."""


# ----------------------------------------------------------------------
# paper-table1
# ----------------------------------------------------------------------
class PaperTable1(Workload):
    """Table I Example 4: explicit model, equivalent model, instant comparison."""

    name = "paper-table1"
    #: One pass of Table I Example 4 takes 1.5-2.5 s.
    REPEATS = 2
    STAGES = 4
    ITEMS = 4000

    def _plan(self) -> Any:
        from repro.campaign.registry import default_registry

        planner = default_registry().get("table1-sweep").planner
        return planner({"stages": self.STAGES, "items": self.ITEMS, "seed": self.seed})

    def prepare_invocation(self) -> None:
        plan = self._plan()
        plan.architecture_factory()
        plan.stimuli_factory()

    def warm_up(self) -> None:
        self._measure()

    def _measure(self) -> Any:
        from repro.analysis.speedup import measure_speedup

        plan = self._plan()
        return measure_speedup(
            plan.architecture_factory,
            plan.stimuli_factory,
            label=plan.label,
            capture_instants=True,
        )

    def run_round(self, between: Callable[[], None]) -> RoundResult:
        passes, wall = run_units([self._measure] * self.REPEATS, between)
        measurement = passes[0]
        instants = measurement.output_instants or ()
        items = sum(m.iterations for m in passes)
        explicit_s = sum(m.explicit_wall_seconds for m in passes)
        equivalent_s = sum(m.equivalent_wall_seconds for m in passes)
        return RoundResult(
            wall_s=wall,
            rates={
                "explicit_items_per_s": items / explicit_s,
                "equivalent_items_per_s": items / equivalent_s,
                "paper.speedup": explicit_s / equivalent_s,
            },
            exact={
                "sim.last_output_us": (instants[-1] or 0) / 1e6 if instants else 0.0,
                "explicit.relation_events": sum(m.explicit_relation_events for m in passes),
                "explicit.process_activations":
                    sum(m.explicit_kernel.process_activations for m in passes),
                "core.relation_events": sum(m.equivalent_relation_events for m in passes),
                "core.process_activations":
                    sum(m.equivalent_kernel.process_activations for m in passes),
                "tdg.nodes": measurement.tdg_nodes,
                "paper.event_ratio": measurement.event_ratio,
            },
            fingerprint=instants,
            instants_identical=all(
                m.outputs_identical and m.mismatching_outputs == 0
                and (m.output_instants or ()) == instants
                for m in passes
            ),
        )

    def check_round(self, gate: Gate, result: RoundResult, first: RoundResult) -> None:
        gate.check(result.instants_identical,
                   "explicit and equivalent output instants differ")
        gate.check(len(result.fingerprint) == self.ITEMS,
                   f"{len(result.fingerprint)} output instants, expected {self.ITEMS}")
        check_repeat(gate, "output instants", first.fingerprint, result.fingerprint)


# ----------------------------------------------------------------------
# the design-space exploration workloads
# ----------------------------------------------------------------------
@contextlib.contextmanager
def captured_reports():
    """Collect the report of every ``MappingExplorer.run`` inside the block."""
    from repro.dse.explore import MappingExplorer

    reports: List[Any] = []
    original = MappingExplorer.run

    def run(self: Any) -> Any:
        report = original(self)
        reports.append(report)
        return report

    MappingExplorer.run = run  # type: ignore[method-assign]
    try:
        yield reports
    finally:
        MappingExplorer.run = original  # type: ignore[method-assign]


def explore(argv: Sequence[str]) -> Exploration:
    """Run ``repro`` with ``argv`` in this process; its output is kept, not shown.

    Standard output and error are captured like a pipe would capture them, so
    the command behaves as under a non-interactive caller (no progress line).
    The per-process compilation cache is emptied first, so that every
    exploration compiles and tabulates its problem as a fresh ``repro dse run``
    does, and none starts from the state another exploration left behind.
    """
    from repro import cli
    from repro.dse import compile as dse_compile

    dse_compile._CACHE.clear()

    stdout, stderr = io.StringIO(), io.StringIO()
    with captured_reports() as reports, contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        exit_code = cli.main(list(argv))
    if not reports:
        raise RuntimeError(f"repro {' '.join(argv)} ran no exploration:\n{stderr.getvalue()}")
    report = reports[-1]
    best = report.best()
    return Exploration(
        exit_code=exit_code,
        errors=report.errors,
        evaluated=report.evaluated,
        cache_hits=report.cache_hits,
        explored=report.explored,
        front=tuple((point.digest, point.vector) for point in report.front.points()),
        points=report.front.points(),
        best_latency_us=best.metrics["latency_us"] if best is not None else 0.0,
        hypervolume=report.front.hypervolume() if len(report.objectives) == 2 else 0.0,
    )


def exploration_fingerprint(explorations: Sequence[Exploration]) -> Tuple[Any, ...]:
    return tuple(
        (e.exit_code, e.errors, e.evaluated, e.cache_hits, e.explored, e.front)
        for e in explorations
    )


class DseWorkload(Workload):
    """``repro dse run`` once per search seed; subclasses pick the flags."""

    PROBLEM = "chain"
    BUDGET = 400
    #: ``--items`` and ``--evaluator`` when the workload names them.
    ITEMS: Optional[int] = None
    EVALUATOR: Optional[str] = None

    def parameters(self) -> Dict[str, Any]:
        """The problem parameters the command line resolves (stimulus seed, items)."""
        parameters: Dict[str, Any] = {"seed": self.seed}
        if self.ITEMS is not None:
            parameters["items"] = self.ITEMS
        return parameters

    def argv(self, search_seed: int, store: Optional[Path] = None,
             evaluator: Optional[str] = None) -> List[str]:
        argv = ["dse", "run", "--problem", self.PROBLEM, "--strategy", "nsga2",
                "--budget", str(self.BUDGET)]
        if self.ITEMS is not None:
            argv += ["--items", str(self.ITEMS)]
        evaluator = evaluator or self.EVALUATOR
        if evaluator is not None:
            argv += ["--evaluator", evaluator]
        argv += ["--seed", str(search_seed), "--set", f"seed={self.seed}"]
        if store is not None:
            argv += ["--store", str(store)]
        return argv

    def prepare_invocation(self) -> None:
        from repro.dse.compile import compiled_problem
        from repro.dse.explore import MappingExplorer

        explorer = MappingExplorer(problem=self.PROBLEM, strategy="nsga2",
                                   budget=self.BUDGET, parameters=self.parameters())
        explorer.build_space()
        compiled_problem(explorer.problem, self.parameters())

    def store_for(self, search_seed: int) -> Optional[Path]:
        return None

    def warm_up(self) -> None:
        explore(self.argv(SEARCH_SEEDS[0]))

    def round_seeds(self) -> Tuple[int, ...]:
        """The search seed of each exploration in a round, in order."""
        return SEARCH_SEEDS * self.REPEATS

    def run_round(self, between: Callable[[], None]) -> RoundResult:
        explorations, wall = run_units(
            [functools.partial(explore, self.argv(s, self.store_for(s)))
             for s in self.round_seeds()],
            between,
        )
        explored = sum(e.explored for e in explorations)
        once = explorations[:len(SEARCH_SEEDS)]
        return RoundResult(
            wall_s=wall,
            rates={"candidates_per_s": explored / wall},
            exact={
                "sim.best_latency_us": min(e.best_latency_us for e in once),
                "sim.front_size": sum(len(e.front) for e in once),
                "sim.front_hypervolume": sum(e.hypervolume for e in once),
                "explored": explored,
                "cache_hits": sum(e.cache_hits for e in explorations),
            },
            fingerprint=exploration_fingerprint(explorations),
            explorations=explorations,
        )

    def check_round(self, gate: Gate, result: RoundResult, first: RoundResult) -> None:
        for search_seed, exploration in zip(self.round_seeds(), result.explorations):
            check_exploration(gate, f"{self.name} seed {search_seed}", exploration)
        check_repeat(gate, f"{self.name} fronts", first.fingerprint, result.fingerprint)

    def verify(self, gate: Gate, first: RoundResult) -> None:
        """Re-score every front member from scratch; replay one explicitly."""
        from repro.archmodel.architecture import ArchitectureModel
        from repro.dse.evaluate import evaluate_candidate
        from repro.dse.pareto import objective_vector
        from repro.dse.problems import get_problem
        from repro.explicit.model import ExplicitArchitectureModel

        problem = get_problem(self.PROBLEM)
        resolved = problem.parameters(self.parameters())
        best = None
        for exploration in first.explorations[:len(SEARCH_SEEDS)]:
            for point in exploration.points:
                scratch = evaluate_candidate(problem, point.payload, resolved, compiled=False)
                gate.check(
                    scratch.feasible
                    and objective_vector(scratch.metrics(), problem.objectives) == point.vector
                    and scratch.latency_ps == point.metrics["latency_ps"],
                    f"front member {point.digest[:12]} re-scores differently from scratch",
                )
                if best is None or point.vector < best[0].vector:
                    best = (point, scratch)
        if best is None:
            gate.check(False, "no front member to replay explicitly")
            return
        point, scratch = best
        architecture = ArchitectureModel(
            "e2ebench-explicit",
            problem.application_factory(resolved),
            problem.platform_factory(resolved),
            point.payload.build_mapping("e2ebench-best"),
        )
        model = ExplicitArchitectureModel(architecture, problem.stimuli_factory(resolved))
        model.run()
        output = architecture.external_outputs()[0].name
        explicit = tuple(instant.picoseconds for instant in model.output_instants(output))
        gate.check(
            explicit == tuple(scratch.output_instants),
            f"front member {point.digest[:12]}: explicit instants differ",
        )


class DseChain(DseWorkload):
    """Each search seed explored into a fresh store, then run again against it.

    The second pass is a user re-running the same command: every candidate is
    a cache hit, so the store's read path (load, get, ``from_record``) is
    measured beside the first pass's writes.
    """

    name = "dse-chain"
    REPEATS = 2

    def store_for(self, search_seed: int) -> Optional[Path]:
        return self.run_dir / f"dse-chain-{search_seed}.jsonl"

    def before_round(self) -> None:
        for search_seed in SEARCH_SEEDS:
            self.store_for(search_seed).unlink(missing_ok=True)

    def check_round(self, gate: Gate, result: RoundResult, first: RoundResult) -> None:
        super().check_round(gate, result, first)
        fresh = result.explorations[:len(SEARCH_SEEDS)]
        again = result.explorations[len(SEARCH_SEEDS):]
        for search_seed, written, hit in zip(SEARCH_SEEDS, fresh, again):
            gate.check(hit.evaluated == 0,
                       f"dse-chain seed {search_seed} re-run: {hit.evaluated} evaluated")
            gate.check(hit.front == written.front,
                       f"dse-chain seed {search_seed} re-run: front differs from the "
                       "fresh exploration's")


class DsePeriodicLong(DseWorkload):
    name = "dse-periodic-long"
    PROBLEM = "chain-periodic"
    BUDGET = 64
    ITEMS = 4000
    EVALUATOR = "auto"

    def verify(self, gate: Gate, first: RoundResult) -> None:
        super().verify(gate, first)
        replay = explore(self.argv(SEARCH_SEEDS[0], evaluator="replay"))
        gate.check(
            replay.front == first.explorations[0].front,
            "dse-periodic-long: --evaluator replay front differs from --evaluator auto",
        )


WORKLOADS = {cls.name: cls for cls in (PaperTable1, DseChain, DsePeriodicLong)}
