"""Unit tests for TDG template compilation (repro.dse.compile + core.builder split)."""

import dataclasses
import random
import time

import pytest

from repro import telemetry
from repro.archmodel import ArchitectureModel
from repro.core.builder import build_equivalent_spec, build_template, specialize_template
from repro.core.compute import InstantComputer
from repro.dse import (
    CandidateEvaluation,
    CompiledProblem,
    compiled_problem,
    evaluate_candidate,
    get_problem,
)
from repro.dse import compile as compile_module
from repro.dse import evaluate as evaluate_module
from repro.dse.compile import _CACHE
from repro.dse.engine import LoweringUnsupported, numpy_available
from repro.dse.problems import problem_names
from repro.dse.space import MappingCandidate
from repro.errors import ModelError


@pytest.fixture()
def problem():
    return get_problem("didactic")


@pytest.fixture(autouse=True)
def clear_compile_cache():
    _CACHE.clear()
    yield
    _CACHE.clear()


def assert_same_evaluation(fast, slow):
    """Every objective field identical (wall-clock aside)."""
    for field in dataclasses.fields(fast):
        if field.name == "wall_seconds":
            continue
        assert getattr(fast, field.name) == getattr(slow, field.name), field.name


class TestTemplateSpecialisation:
    def test_specialised_spec_matches_from_scratch_build(self, problem):
        parameters = problem.parameters({"items": 5})
        application = problem.application_factory(parameters)
        platform = problem.platform_factory(parameters)
        template = build_template(application)
        space = problem.space({"items": 5})
        candidate = space.default_candidate()
        architecture = ArchitectureModel(
            "spec-test", application, platform, candidate.build_mapping()
        )
        specialised = specialize_template(template, architecture)
        scratch = build_equivalent_spec(architecture)
        assert [n.name for n in specialised.graph.nodes] == [
            n.name for n in scratch.graph.nodes
        ]
        assert specialised.graph.arc_count == scratch.graph.arc_count
        assert specialised.relation_nodes == scratch.relation_nodes
        assert specialised.primary_input == scratch.primary_input
        assert [b.relation for b in specialised.boundary_inputs] == [
            b.relation for b in scratch.boundary_inputs
        ]
        assert [e.resource for e in specialised.execute_nodes] == [
            e.resource for e in scratch.execute_nodes
        ]
        # resource tags are bound during specialisation
        for entry in specialised.execute_nodes:
            assert specialised.graph.node(entry.start_node).tags["resource"] == entry.resource

    def test_template_is_allocation_independent(self, problem):
        parameters = problem.parameters({"items": 5})
        template = build_template(problem.application_factory(parameters))
        # no node or arc of the template mentions a platform resource
        for node in template.nodes:
            assert "resource" not in (node.tags or {})

    def test_template_rejects_foreign_application(self, problem):
        # Identity check: even a structurally *identical* application must be
        # rejected, because the template's arcs embed the original workload
        # model objects and would silently mis-time a lookalike.
        parameters = problem.parameters({"items": 5})
        template = build_template(problem.application_factory(parameters))
        lookalike = problem.application_factory(parameters)  # fresh, equal-looking
        platform = problem.platform_factory(parameters)
        candidate = problem.space({"items": 5}).default_candidate()
        architecture = ArchitectureModel(
            "lookalike", lookalike, platform, candidate.build_mapping()
        )
        with pytest.raises(ModelError, match="own application instance"):
            specialize_template(template, architecture)


class TestCompiledProblem:
    def test_compiled_matches_uncompiled_default_candidate(self, problem):
        compiled = CompiledProblem(problem, {"items": 8})
        candidate = problem.space({"items": 8}).default_candidate()
        fast = compiled.evaluate(candidate)
        slow = evaluate_candidate(problem, candidate, {"items": 8}, compiled=False)
        assert fast.feasible
        assert_same_evaluation(fast, slow)

    def test_infeasible_reason_matches_uncompiled(self, problem):
        space = problem.space({"items": 4})
        base = space.canonical({"F1": "P1", "F2": "P1", "F3": "P1", "F4": "P1"})
        broken = MappingCandidate(
            allocation=base.allocation,
            orders=(("P1", tuple(reversed(base.orders[0][1]))),),
        )
        compiled = CompiledProblem(problem, {"items": 4})
        fast = compiled.evaluate(broken)
        slow = evaluate_candidate(problem, broken, {"items": 4}, compiled=False)
        assert not fast.feasible
        assert fast.infeasible == slow.infeasible
        assert "cycle" in fast.infeasible

    def test_cache_ignores_candidate_encoding_keys(self, problem):
        first = compiled_problem(problem, {"items": 8})
        # candidate encodings riding along in campaign job parameters must not
        # defeat the cache
        second = compiled_problem(
            problem, {"items": 8, "allocation": {"F1": "P1"}, "orders": {}}
        )
        third = compiled_problem(problem, {"items": 9})
        assert first is second
        assert first is not third

    def test_cache_keeps_undeclared_problem_parameters(self, problem):
        # a problem factory may read optional keys absent from its defaults;
        # the compiled path must see them exactly like the uncompiled one
        first = compiled_problem(problem, {"items": 8, "custom": 1})
        second = compiled_problem(problem, {"items": 8, "custom": 2})
        assert first is not second
        assert first.parameters["custom"] == 1

    def test_cache_distinguishes_same_named_problem_objects(self, problem):
        # an unregistered problem variant sharing a registered name must never
        # be served another problem's compilation
        variant = dataclasses.replace(problem, description="variant")
        first = compiled_problem(problem, {"items": 8})
        second = compiled_problem(variant, {"items": 8})
        assert first is not second
        assert second.problem is variant

    def test_evaluate_candidate_routes_through_compiled_cache(self, problem):
        candidate = problem.space({"items": 6}).default_candidate()
        evaluation = evaluate_candidate(problem, candidate, {"items": 6}, compiled=True)
        assert evaluation.feasible
        assert len(_CACHE) == 1

    def test_env_toggle_disables_compiled_path(self, problem, monkeypatch):
        monkeypatch.setenv("REPRO_DSE_COMPILE", "0")
        candidate = problem.space({"items": 6}).default_candidate()
        evaluation = evaluate_candidate(problem, candidate, {"items": 6})
        assert evaluation.feasible
        assert len(_CACHE) == 0  # never compiled

    def test_forced_fallback_replays_through_event_driven_harness(self, problem, monkeypatch):
        # When the closed-form replay bails out (_run -> None), evaluate must
        # hand the candidate to the exact evaluate_mapping path with the
        # problem's own stimuli and still produce identical objectives.
        compiled = CompiledProblem(problem, {"items": 6})
        candidate = problem.space({"items": 6}).default_candidate()
        monkeypatch.setattr(
            CompiledProblem, "_run", lambda self, spec, computer, steady=False: None
        )
        fast = compiled.evaluate(candidate)
        slow = evaluate_candidate(problem, candidate, {"items": 6}, compiled=False)
        assert fast.feasible
        assert_same_evaluation(fast, slow)

    def test_non_monotonic_outputs_trigger_the_fallback(self, problem, monkeypatch):
        # Boundary feedback detection: if a computed output regresses below an
        # already-emitted one, the kernel-free loop must abandon the closed
        # form (the event-driven harness would have applied a correction).
        compiled = CompiledProblem(problem, {"items": 4})
        candidate = problem.space({"items": 4}).default_candidate()
        original = InstantComputer.compute_iteration

        def regressing(self, instants, tokens):
            outputs = original(self, instants, tokens)
            # negating makes iteration 1's offer smaller than iteration 0's
            return {rel: (None if v is None else -v) for rel, v in outputs.items()}

        monkeypatch.setattr(InstantComputer, "compute_iteration", regressing)
        sentinel = CandidateEvaluation(candidate=candidate, infeasible="fallback-sentinel")
        monkeypatch.setattr(evaluate_module, "evaluate_mapping", lambda *a, **k: sentinel)
        assert compiled.evaluate(candidate) is sentinel

    def test_compiled_matches_uncompiled_on_fork_problem(self):
        fork = get_problem("fork")
        compiled = CompiledProblem(fork, {"items": 6})
        for candidate in list(fork.space({"items": 6}).enumerate_candidates(limit=12)):
            assert_same_evaluation(
                compiled.evaluate(candidate),
                evaluate_candidate(fork, candidate, {"items": 6}, compiled=False),
            )


NEEDS_NUMPY = pytest.mark.skipif(not numpy_available(), reason="numpy is not importable")
BACKENDS = ["python", pytest.param("numpy", marks=NEEDS_NUMPY)]


def random_candidates(problem, parameters, count, seed=11):
    space = problem.space(parameters)
    rng = random.Random(seed)
    return [space.random_candidate(rng) for _ in range(count)]


class TestBatchFallbacks:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_replay_fallback_lane_is_scored_explicitly(self, problem, backend, monkeypatch):
        # A lane the sweep cannot finish (boundary feedback) is re-scored by
        # explicit simulation; the other lanes keep their swept results.
        parameters = {"items": 6}
        candidates = list(problem.space(parameters).enumerate_candidates(limit=4))
        original = compile_module.replay_batch

        def dropping_second_lane(programs, backend):
            runs = original(programs, backend)
            runs[1] = None
            return runs

        monkeypatch.setattr(compile_module, "replay_batch", dropping_second_lane)
        compiled = CompiledProblem(problem, parameters)
        with telemetry.collect(enable=True) as scope:
            results = compiled.evaluate_batch(candidates, backend=backend)
            counters = scope.snapshot()["counters"]
        assert_same_evaluation(
            results[1], evaluate_candidate(problem, candidates[1], parameters, compiled=False)
        )
        backends = [evaluation.backend for evaluation in results]
        assert backends == [backend, "python", backend, backend]
        assert counters["dse.compile.explicit_fallbacks"] == 1
        assert counters["dse.engine.replay_fallbacks"] == 1

    def test_unlowerable_spec_is_scored_explicitly(self, problem, monkeypatch):
        parameters = {"items": 6}
        candidates = list(problem.space(parameters).enumerate_candidates(limit=3))

        def refusing(*args, **kwargs):
            raise LoweringUnsupported("dynamic_weight")

        monkeypatch.setattr(compile_module, "lower_spec", refusing)
        compiled = CompiledProblem(problem, parameters)
        with telemetry.collect(enable=True) as scope:
            results = compiled.evaluate_batch(candidates, backend="python")
            counters = scope.snapshot()["counters"]
        for candidate, evaluation in zip(candidates, results):
            assert_same_evaluation(
                evaluation,
                evaluate_candidate(problem, candidate, parameters, compiled=False),
            )
        assert counters["dse.engine.lower_fallbacks"] == len(candidates)
        assert counters["dse.engine.lower_fallback.dynamic_weight"] == len(candidates)
        # Neither swept nor walked on the object graph: scored explicitly.
        assert "dse.compile.replay_steps" not in counters

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("name", problem_names())
    def test_registered_problems_never_fall_back(self, name, backend):
        # Every registered problem lowers and sweeps every candidate: the
        # lowering and replay fallbacks exist for specs no problem produces.
        problem = get_problem(name)
        parameters = {"items": 4}
        candidates = random_candidates(problem, parameters, count=12)
        compiled = CompiledProblem(problem, parameters)
        with telemetry.collect(enable=True) as scope:
            for evaluator in ("replay", "auto"):
                compiled.evaluate_batch(candidates, evaluator=evaluator, backend=backend)
            counters = scope.snapshot()["counters"]
        assert counters.get("dse.engine.lower_fallbacks", 0) == 0
        assert counters.get("dse.engine.replay_fallbacks", 0) == 0
        assert counters.get("dse.compile.explicit_fallbacks", 0) == 0


class TestBatchWallTime:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_candidate_wall_times_sum_within_the_batch(self, backend):
        # Each swept candidate reports its own work plus a share of the one
        # shared sweep, so a batch never claims more time than it took.
        problem = get_problem("chain")
        parameters = {"items": 40}
        candidates = random_candidates(problem, parameters, count=24)
        compiled = CompiledProblem(problem, parameters)
        tick = time.perf_counter()
        results = compiled.evaluate_batch(candidates, backend=backend)
        elapsed = time.perf_counter() - tick
        assert all(evaluation.wall_seconds > 0 for evaluation in results)
        assert sum(evaluation.wall_seconds for evaluation in results) <= elapsed
