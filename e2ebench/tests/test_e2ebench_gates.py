"""The benchmark's correctness gates fail on perturbed results."""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from repro.dse.evaluate import evaluate_candidate  # noqa: E402
from repro.dse.pareto import FrontPoint, objective_vector  # noqa: E402
from repro.dse.problems import get_problem  # noqa: E402
from workloads import (  # noqa: E402
    SEARCH_SEEDS,
    DseChain,
    DsePeriodicLong,
    Exploration,
    Gate,
    PaperTable1,
    RoundResult,
    exploration_fingerprint,
)


def _table1_round(instants, identical=True):
    return RoundResult(wall_s=1.0, rates={}, exact={}, fingerprint=tuple(instants),
                       instants_identical=identical)


def test_table1_gate_passes_on_a_repeat_and_fails_on_a_perturbed_instant(tmp_path):
    workload = PaperTable1(1, tmp_path)
    instants = list(range(1, PaperTable1.ITEMS + 1))
    first = _table1_round(instants)

    gate = Gate()
    workload.check_round(gate, _table1_round(instants), first)
    assert gate.failed == 0 and gate.attempted > 0

    perturbed = list(instants)
    perturbed[1234] += 1
    gate = Gate()
    workload.check_round(gate, _table1_round(perturbed), first)
    assert gate.failed > 0

    gate = Gate()
    workload.check_round(gate, _table1_round(instants, identical=False), first)
    assert gate.failed > 0


def _exploration(front, evaluated=400, exit_code=0):
    return Exploration(exit_code=exit_code, errors=0, evaluated=evaluated,
                       cache_hits=400 - evaluated, explored=400, front=tuple(front))


def _dse_round(explorations):
    return RoundResult(wall_s=1.0, rates={}, exact={},
                       fingerprint=exploration_fingerprint(explorations),
                       explorations=list(explorations))


def test_dse_gate_fails_on_a_perturbed_front_or_exit_code(tmp_path):
    workload = DsePeriodicLong(1, tmp_path)
    front = [("a" * 64, (1000.0, 2.0)), ("b" * 64, (2000.0, 1.0))]
    first = _dse_round([_exploration(front) for _ in SEARCH_SEEDS])

    gate = Gate()
    workload.check_round(gate, _dse_round([_exploration(front) for _ in SEARCH_SEEDS]), first)
    assert gate.failed == 0

    moved = [front[0], ("b" * 64, (2001.0, 1.0))]
    gate = Gate()
    workload.check_round(
        gate, _dse_round([_exploration(front), _exploration(moved)]), first)
    assert gate.failed > 0

    gate = Gate()
    workload.check_round(
        gate, _dse_round([_exploration(front, exit_code=1) for _ in SEARCH_SEEDS]), first)
    assert gate.failed > 0

    gate = Gate()
    workload.check_round(gate, _dse_round([_exploration([]) for _ in SEARCH_SEEDS]),
                         _dse_round([_exploration([]) for _ in SEARCH_SEEDS]))
    assert gate.failed > 0


def test_re_run_pass_needs_zero_evaluations_and_the_fresh_front(tmp_path):
    workload = DseChain(1, tmp_path)
    front = [("a" * 64, (1000.0, 2.0))]
    fresh = [_exploration(front) for _ in SEARCH_SEEDS]

    def round_with(again):
        return _dse_round(fresh + again)

    hits = round_with([_exploration(front, evaluated=0) for _ in SEARCH_SEEDS])
    gate = Gate()
    workload.check_round(gate, hits, hits)
    assert gate.failed == 0

    evaluated = round_with([_exploration(front, evaluated=3) for _ in SEARCH_SEEDS])
    gate = Gate()
    workload.check_round(gate, evaluated, evaluated)
    assert gate.failed > 0

    other = round_with([_exploration([("c" * 64, (900.0, 2.0))], evaluated=0)
                        for _ in SEARCH_SEEDS])
    gate = Gate()
    workload.check_round(gate, other, other)
    assert gate.failed > 0


def test_verification_rescores_from_scratch_and_catches_a_wrong_front(tmp_path):
    workload = DseChain(3, tmp_path)
    problem = get_problem("chain")
    resolved = problem.parameters(workload.parameters())
    candidate = problem.space(resolved).default_candidate()
    metrics = evaluate_candidate(problem, candidate, resolved, compiled=False).metrics()
    vector = objective_vector(metrics, problem.objectives)

    def round_with(point_vector):
        point = FrontPoint(candidate.digest(), metrics, point_vector, payload=candidate)
        exploration = _exploration([(point.digest, point.vector)])
        exploration.points = [point]
        return _dse_round([exploration])

    gate = Gate()
    workload.verify(gate, round_with(vector))
    assert gate.failed == 0
    assert gate.attempted == 2  # one from-scratch re-score, one explicit replay

    gate = Gate()
    workload.verify(gate, round_with((vector[0] + 1.0, vector[1])))
    assert gate.failed > 0
