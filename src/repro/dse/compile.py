"""Compiled candidate evaluation: one TDG template, many cheap specialisations.

The paper's value proposition is that evaluating one mapping is cheap;
a design-space exploration evaluates *thousands*.  The from-scratch
evaluator (:func:`repro.dse.evaluate.evaluate_mapping`) spends most of
its wall-clock on Python-level work that does not depend on the
candidate at all: re-deriving the relation topology and node vocabulary
of the temporal dependency graph, re-instantiating the event-driven
harness around the instant computer, and re-evaluating the same
data-dependent workload durations for the same stimulus tokens.

:class:`CompiledProblem` hoists all of that out of the inner loop:

* the application, platform, stimuli and the allocation-independent
  :class:`~repro.core.spec.EquivalentModelTemplate` are built **once**
  per ``(problem, parameters)``;
* per candidate, the template is *specialised* -- resource bindings and
  service-order arcs only -- via
  :func:`~repro.core.builder.specialize_template`;
* data-dependent workload durations are tabulated per iteration and
  shared across every candidate (the stimulus, and hence the token
  sequence, is identical for all of them);
* the Reception/Emission protocol of the equivalent model is replayed
  as a plain computation loop, with no simulation kernel: with the
  always-ready observer of the paper's experiments the boundary
  exchanges have closed forms.  Whenever that closed form would diverge
  from the event-driven harness (an output offered out of order, i.e. a
  case needing boundary feedback), the evaluation transparently falls
  back to the exact from-scratch path.

Two further accelerations stack on top of the compiled replay:

* **Incremental delta-specialisation**: inside :meth:`CompiledProblem.
  evaluate` the previous candidate's specialised graph is kept and only
  the *difference* to the next candidate is applied -- schedule arcs of
  resources whose static service order changed are removed and rebuilt,
  and resource-dependent duration weights are swapped in place.  The
  untouched cone of the graph (every data-dependency arc and every
  schedule whose resource kept its order) is reused verbatim, which the
  ``dse.compile.delta_arcs_reused`` counter makes visible.
* **Steady-state evaluation** (``evaluator="steady"``/``"auto"``): on
  periodic stimuli with iteration-independent durations the evolution
  instants enter a periodic regime ``x(k+1) = x(k) + c`` where ``c`` is
  the (max, +) cycle time ``max(lambda, T)`` of the specialised graph
  (:mod:`repro.maxplus.spectral`).  The steady runner replays exactly
  until the regime is *certified* -- every node value drifted by the same
  ``c`` for ``max_delay + 1`` consecutive iteration pairs and every input
  schedule is provably locked -- then extrapolates the remaining
  iterations arithmetically.  Because the certificate implies the replay
  would have produced exactly those instants, the objectives are
  bit-identical to the replay path; aperiodic or data-dependent problems
  fall back to plain replay automatically.

The results are identical, instant for instant, to
:func:`~repro.dse.evaluate.evaluate_mapping` -- asserted candidate by
candidate over the whole ``didactic`` space in the test-suite.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from typing import Any, Dict, Hashable, List, Mapping, Optional, Sequence, Tuple, Union

from .. import telemetry
from ..archmodel.architecture import ArchitectureModel
from ..archmodel.token import DataToken
from ..archmodel.workload import (
    ConstantExecutionTime,
    ResourceDependentExecutionTime,
)
from ..campaign.spec import canonical_json
from ..core.builder import (
    _check_resource_isolation,
    _template_spec,
    add_resource_schedule_arcs,
    build_template,
    scheduled_resource_entries,
    specialize_template,
)
from ..core.compute import InstantComputer
from ..core.spec import EquivalentModelSpec
from ..tdg.arc import DependencyArc
from ..environment.stimulus import Stimulus
from ..errors import ModelError, ReproError
from .engine import (
    _TabulatedWeight,
    _TokenTable,
    LoweringUnsupported,
    ProgramResult,
    lower_spec,
    replay_batch,
    resolve_backend,
)
from .evaluate import (
    EVALUATOR_MODES,
    CandidateEvaluation,
    _check_evaluator,
    _evaluate_from_scratch,
    _record_evaluation,
    per_kind_summary,
)
from .problems import DesignProblem, get_problem
from .space import MappingCandidate

__all__ = ["CompiledProblem", "compiled_problem", "EVALUATOR_MODES"]


class _DeltaCache:
    """The previous candidate's specialisation, indexed for incremental reuse.

    ``spec`` owns the live graph that delta-specialisation mutates; the other
    fields describe *how* the previous candidate shaped it -- which resource
    ran each function, each scheduled resource's service order and the arcs it
    contributed, and which duration table each resource-dependent execute slot
    was bound to -- so the next candidate only touches what actually differs.
    The cache is private to :meth:`CompiledProblem.evaluate`; the public
    :meth:`CompiledProblem.specialize` always builds a fresh graph.
    """

    __slots__ = ("spec", "resource_of", "schedules", "schedule_arcs", "slot_arcs", "overrides")

    def __init__(
        self,
        spec: EquivalentModelSpec,
        resource_of: Dict[str, str],
        schedules: Dict[str, Tuple[int, Tuple[Tuple[str, int], ...]]],
        schedule_arcs: Dict[str, List[DependencyArc]],
        slot_arcs: Dict[Tuple[str, int], DependencyArc],
        overrides: Mapping[Tuple[str, int], _TabulatedWeight],
    ) -> None:
        self.spec = spec
        self.resource_of = resource_of
        self.schedules = schedules
        self.schedule_arcs = schedule_arcs
        self.slot_arcs = slot_arcs
        self.overrides = overrides


class CompiledProblem:
    """A design problem compiled for fast repeated candidate evaluation.

    Construction resolves the problem parameters and builds everything a
    candidate evaluation needs that does not depend on the candidate: the
    application and platform models, the stimuli, the allocation-independent
    TDG template and the shared workload-duration tables.
    :meth:`specialize` binds one candidate's mapping into a full
    :class:`~repro.core.spec.EquivalentModelSpec`; :meth:`evaluate` scores it
    with the same objectives as :func:`~repro.dse.evaluate.evaluate_mapping`.
    """

    def __init__(
        self,
        problem: DesignProblem,
        parameters: Optional[Mapping[str, Any]] = None,
    ) -> None:
        self.problem = get_problem(problem) if isinstance(problem, str) else problem
        self.parameters: Dict[str, Any] = self.problem.parameters(parameters)
        self.application = self.problem.application_factory(self.parameters)
        self.platform = self.problem.platform_factory(self.parameters)
        self.stimuli: Dict[str, Stimulus] = dict(
            self.problem.stimuli_factory(self.parameters)
        )
        self._name = f"dse-{self.problem.name}"
        with telemetry.span(
            "dse.compile.template", category="dse", args={"problem": self.problem.name}
        ):
            self.template = build_template(self.application, name=f"{self._name}-tdg")
        primary = self.template.primary_input
        self._tokens = _TokenTable(self.stimuli.get(primary) if primary else None)
        #: (function, step_index) -> tabulated weight for data-dependent
        #: workloads whose durations do not depend on the serving resource
        #: (one table shared by every candidate).
        self._shared_overrides: Dict[Tuple[str, int], _TabulatedWeight] = {}
        #: (function, step_index) -> resource-dependent workload; bound (and
        #: tabulated) lazily per binding key at specialisation time.
        self._resource_dependent: Dict[Tuple[str, int], ResourceDependentExecutionTime] = (
            dict(self.template.resource_dependent_slots)
        )
        for slot in self.template.execute_slots:
            key = (slot.function, slot.step_index)
            if key in self._resource_dependent:
                continue
            if not isinstance(slot.workload, ConstantExecutionTime):
                self._shared_overrides[key] = _TabulatedWeight(slot.workload, self._tokens)
        #: ((function, step_index), binding key) -> tabulated bound weight.
        #: Heterogeneous banks key duration tables by the resource *class*
        #: the function landed on -- candidates agreeing on the class share
        #: the table, so mixed banks keep the tabulation benefit.
        self._bound_tables: Dict[Tuple[Tuple[str, int], Hashable], _TabulatedWeight] = {}
        #: previous specialisation kept for incremental re-specialisation
        #: (private to :meth:`evaluate`; cleared whenever it goes stale).
        self._delta: Optional[_DeltaCache] = None
        #: (function, step_index) -> (source, target, delay, label) of the
        #: weight arc of each *resource-dependent* execute slot -- the only
        #: template arcs whose weight can change between candidates.
        self._rd_arc_shapes: Dict[Tuple[str, int], Tuple[str, str, int, str]] = {
            arc.slot: (arc.source, arc.target, arc.delay, arc.label)
            for arc in self.template.arcs
            if arc.slot is not None and arc.slot in self._resource_dependent
        }
        #: lazily computed: do all boundary-input stimuli promise a period?
        self._periodic_inputs: Optional[bool] = None

    # ------------------------------------------------------------------
    def _candidate_overrides(
        self, candidate: MappingCandidate
    ) -> Dict[Tuple[str, int], _TabulatedWeight]:
        """The weight overrides of one candidate: shared + kind-bound tables."""
        if not self._resource_dependent:
            return self._shared_overrides
        overrides = dict(self._shared_overrides)
        for key, workload in self._resource_dependent.items():
            resource = self.platform.resource(candidate.resource_of(key[0]))
            bound_key = (key, workload.binding_key(resource))
            table = self._bound_tables.get(bound_key)
            if table is None:
                table = _TabulatedWeight(workload.bind(resource), self._tokens)
                self._bound_tables[bound_key] = table
            overrides[key] = table
        return overrides

    def specialize(self, candidate: MappingCandidate) -> EquivalentModelSpec:
        """Bind one candidate mapping into a full equivalent-model spec.

        Raises a :class:`~repro.errors.ReproError` subclass when the candidate
        is infeasible (e.g. its static service orders create a zero-delay
        cycle), exactly like the from-scratch builder.
        """
        telemetry.count("dse.compile.specializations")
        with telemetry.span("dse.compile.specialize", category="dse"):
            mapping = candidate.build_mapping(f"{self._name}-mapping")
            architecture = ArchitectureModel(
                self._name, self.application, self.platform, mapping
            )
            return specialize_template(
                self.template,
                architecture,
                weight_overrides=self._candidate_overrides(candidate),
            )

    # ------------------------------------------------------------------
    # incremental delta-specialisation (private to evaluate())
    # ------------------------------------------------------------------
    def _specialize_for_evaluation(self, candidate: MappingCandidate) -> EquivalentModelSpec:
        """Specialise ``candidate``, reusing the previous candidate's graph.

        The first call (and the first call after any failure) builds a fresh
        specialisation and indexes it; subsequent calls apply only the delta.
        A :class:`~repro.errors.ReproError` from the delta path clears the
        cache before propagating, because the shared graph may have been left
        half-mutated.
        """
        delta = self._delta
        if delta is not None:
            try:
                return self._delta_specialize(candidate, delta)
            except ReproError:
                self._delta = None
                raise
        spec = self.specialize(candidate)
        self._delta = self._capture_delta(candidate, spec)
        return spec

    def _capture_delta(
        self, candidate: MappingCandidate, spec: EquivalentModelSpec
    ) -> _DeltaCache:
        """Index a freshly built specialisation for incremental reuse."""
        graph = spec.graph
        schedule_arcs: Dict[str, List[DependencyArc]] = {}
        for arc in graph.arcs:
            if arc.label in ("service order", "server free"):
                # Schedule arcs always target an execute start node, which
                # specialisation tagged with its serving resource.
                resource = graph.node(arc.target).tags["resource"]
                schedule_arcs.setdefault(resource, []).append(arc)
        slot_arcs: Dict[Tuple[str, int], DependencyArc] = {}
        for slot, (source, target, delay, label) in self._rd_arc_shapes.items():
            for arc in graph.arcs_from(source):
                if arc.target.name == target and arc.delay == delay and arc.label == label:
                    slot_arcs[slot] = arc
                    break
        schedules = _service_orders(scheduled_resource_entries(self.template, spec.architecture))
        resource_of = {
            function: spec.architecture.mapping.resource_of(function)
            for function in self.template.abstracted_functions
        }
        return _DeltaCache(
            spec=spec,
            resource_of=resource_of,
            schedules=schedules,
            schedule_arcs=schedule_arcs,
            slot_arcs=slot_arcs,
            overrides=self._candidate_overrides(candidate),
        )

    def _delta_specialize(
        self, candidate: MappingCandidate, delta: _DeltaCache
    ) -> EquivalentModelSpec:
        """Respecialise the cached graph by applying only the candidate diff.

        Equivalent, instant for instant, to a fresh :meth:`specialize`: the
        graph differs from a fresh build only in arc ordering, which the
        (max, +) evaluation is insensitive to.
        """
        telemetry.count("dse.compile.specializations")
        telemetry.count("dse.compile.delta_specializations")
        with telemetry.span("dse.compile.specialize", category="dse", args={"mode": "delta"}):
            # Validations first: nothing is mutated until the candidate's
            # mapping is known to be structurally sound.
            mapping = candidate.build_mapping(f"{self._name}-mapping")
            architecture = ArchitectureModel(
                self._name, self.application, self.platform, mapping
            )
            architecture.validate()
            _check_resource_isolation(architecture, set(self.template.abstracted_functions))
            overrides = self._candidate_overrides(candidate)
            entry_map = scheduled_resource_entries(self.template, architecture)
            new_schedules = _service_orders(entry_map)

            graph = delta.spec.graph
            arcs_before = graph.arc_count

            # 1. Swap the duration weights of re-bound resource-dependent
            #    slots in place (tables are shared per binding key, so an
            #    unchanged binding is an identity hit).
            swapped = 0
            for slot, arc in delta.slot_arcs.items():
                table = overrides[slot]
                if table is not delta.overrides[slot]:
                    arc.set_weight(table)
                    swapped += 1

            # 2. Rebuild the schedule arcs of resources whose static service
            #    order changed; everything else keeps its arcs verbatim.
            schedule_arcs = dict(delta.schedule_arcs)
            removed = 0
            added = 0
            for name in set(delta.schedules) | set(new_schedules):
                if delta.schedules.get(name) == new_schedules.get(name):
                    continue
                stale = schedule_arcs.pop(name, [])
                if stale:
                    removed += graph.remove_arcs(stale)
                if name in entry_map:
                    concurrency, entries = entry_map[name]
                    fresh = add_resource_schedule_arcs(graph, entries, concurrency)
                    schedule_arcs[name] = fresh
                    added += len(fresh)

            # 3. Re-tag the execute nodes of functions that moved resource.
            resource_of = {
                function: mapping.resource_of(function)
                for function in self.template.abstracted_functions
            }
            for slot in self.template.execute_slots:
                resource = resource_of[slot.function]
                if delta.resource_of[slot.function] != resource:
                    graph.node(slot.start_node).tags["resource"] = resource
                    graph.node(slot.end_node).tags["resource"] = resource

            # An infeasible service order (zero-delay cycle) raises here, and
            # the caller drops the cache: the graph mutations above are then
            # discarded with it.
            graph.validate()

            telemetry.count(
                "dse.compile.delta_arcs_reused", arcs_before - removed - swapped
            )
            telemetry.count("dse.compile.delta_arcs_rebuilt", removed + added + swapped)

            spec = _template_spec(self.template, architecture, graph, resource_of)
            delta.spec = spec
            delta.resource_of = resource_of
            delta.schedules = new_schedules
            delta.schedule_arcs = schedule_arcs
            delta.overrides = overrides
            return spec

    # ------------------------------------------------------------------
    # the evaluation ladder: _prepare -> run -> _finish
    # ------------------------------------------------------------------
    def evaluate(
        self, candidate: MappingCandidate, evaluator: str = "replay"
    ) -> CandidateEvaluation:
        """Score one candidate (same objectives as ``evaluate_mapping``).

        ``evaluator`` selects the scoring path: ``"replay"`` replays every
        iteration, ``"steady"`` and ``"auto"`` extrapolate the periodic regime
        when the problem admits it (and fall back to replay when it does not).
        All modes produce bit-identical objectives.
        """
        _check_evaluator(evaluator)
        start = time.perf_counter()
        prepared = self._prepare(candidate, evaluator, start, "python")
        if isinstance(prepared, CandidateEvaluation):
            return prepared
        spec, steady = prepared
        return self._walk_graph(candidate, spec, steady, start, "python")

    def evaluate_batch(
        self,
        candidates: Sequence[MappingCandidate],
        evaluator: str = "replay",
        backend: Optional[str] = None,
    ) -> List[CandidateEvaluation]:
        """Score a whole generation of candidates with one batched array sweep.

        Per candidate, the template is delta-specialised exactly as in
        :meth:`evaluate`, then *lowered* onto flat integer tables
        (:func:`repro.dse.engine.lower_spec`); the pending programs are
        replayed together on the selected backend -- pure-Python list
        arithmetic or one numpy sweep vectorised across candidates.
        Results are bit-identical, instant for instant and field for field
        (wall-clock aside), to mapping :meth:`evaluate` over the list:

        * infeasible candidates produce the same infeasibility reports;
        * ``"steady"``/``"auto"`` candidates whose certificate holds take
          the (already certified, per-candidate) steady path;
        * candidates whose spec refuses to lower (context-dependent
          weights) or whose outputs need boundary feedback are scored by
          explicit simulation.

        ``backend`` is ``"python"``/``"numpy"``/``"auto"``/``None``
        (see :func:`repro.dse.engine.resolve_backend`).  Each candidate's
        ``wall_seconds`` is its own work -- specialisation, lowering and
        objective extraction -- plus an equal share of the shared sweep, so
        the values of one batch sum to at most the batch's wall time; it is
        provenance, not an objective.
        """
        _check_evaluator(evaluator)
        backend = resolve_backend(backend)
        candidates = list(candidates)
        results: List[Optional[CandidateEvaluation]] = [None] * len(candidates)
        # swept lanes: (position, candidate, spec, seconds of own work so far)
        lanes: List[Tuple[int, MappingCandidate, EquivalentModelSpec, float]] = []
        programs: List[Any] = []
        stream_cache: Dict[Any, List[int]] = {}
        for position, candidate in enumerate(candidates):
            start = time.perf_counter()
            prepared = self._prepare(candidate, evaluator, start, backend)
            if isinstance(prepared, CandidateEvaluation):
                results[position] = prepared
                continue
            spec, steady = prepared
            if steady:
                # The certificate can hold: extrapolate per candidate
                # (certified bit-identical to the swept replay).
                results[position] = self._walk_graph(candidate, spec, True, start, backend)
                continue
            iterations = min(len(self.stimuli[b.relation]) for b in spec.boundary_inputs)
            try:
                programs.append(
                    lower_spec(spec, self.stimuli, iterations, stream_cache=stream_cache)
                )
            except LoweringUnsupported as gate:
                # Context-dependent weights the tables cannot hold.
                telemetry.count("dse.engine.lower_fallbacks")
                telemetry.count(f"dse.engine.lower_fallback.{gate.reason}")
                results[position] = self._explicit_fallback(candidate)
                continue
            except ReproError as error:
                # Lowering surfaces the same failures the replay would
                # (invalid workload durations, delay-0 ready arcs).
                results[position] = self._finish(candidate, spec, error, start, False, backend)
                continue
            lanes.append((position, candidate, spec, time.perf_counter() - start))

        if programs:
            sweep_start = time.perf_counter()
            with telemetry.span(
                "dse.compile.replay",
                category="dse",
                args={"backend": backend, "size": len(programs)},
            ):
                runs = replay_batch(programs, backend)
            telemetry.count(
                "dse.compile.replay_steps",
                sum(program.iterations for program in programs),
            )
            share = (time.perf_counter() - sweep_start) / len(programs)
            for (position, candidate, spec, own), run in zip(lanes, runs):
                if run is None:
                    telemetry.count("dse.engine.replay_fallbacks")
                # Backdate the start so the lane's wall time counts its own
                # work and sweep share, not the other lanes' work.
                start = time.perf_counter() - own - share
                results[position] = self._finish(candidate, spec, run, start, False, backend)
        return list(results)

    def _prepare(
        self,
        candidate: MappingCandidate,
        evaluator: str,
        start: float,
        backend: str,
    ) -> Union[CandidateEvaluation, Tuple[EquivalentModelSpec, bool]]:
        """Specialise ``candidate`` and pick its path: ``(spec, steady)``.

        An infeasible candidate comes back as its finished record instead.
        """
        try:
            spec = self._specialize_for_evaluation(candidate)
            missing = {b.relation for b in spec.boundary_inputs} - set(self.stimuli)
            if missing:
                raise ModelError(f"missing stimuli for external inputs: {sorted(missing)}")
        except ReproError as error:
            return self._finish(candidate, None, error, start, False, backend)
        if evaluator == "replay":
            return spec, False
        reason = self._steady_gate(spec)
        if reason is not None:
            # The steady certificate cannot hold (aperiodic inputs or
            # iteration-dependent durations): score by plain replay.
            telemetry.count("dse.steady.fallbacks")
            telemetry.count(f"dse.steady.fallback.{reason}")
        return spec, reason is None

    def _walk_graph(
        self,
        candidate: MappingCandidate,
        spec: EquivalentModelSpec,
        steady: bool,
        start: float,
        backend: str,
    ) -> CandidateEvaluation:
        """Score a prepared candidate by :meth:`_run` on its object graph."""
        try:
            run = self._run(spec, InstantComputer(spec, record_usage=True), steady)
        except ReproError as error:
            run = error
        return self._finish(candidate, spec, run, start, steady, backend)

    def _finish(
        self,
        candidate: MappingCandidate,
        spec: Optional[EquivalentModelSpec],
        run: Union[ReproError, None, ProgramResult],
        start: float,
        steady: bool,
        backend: str,
    ) -> CandidateEvaluation:
        """Turn one lane's outcome into its recorded evaluation.

        ``run`` is the ``(offers, actual, usage)`` result of a replay, the
        :class:`~repro.errors.ReproError` that made the candidate infeasible,
        or ``None`` when an output would be accepted later than computed
        (boundary feedback), which only the explicit simulation handles.
        """
        if isinstance(run, ReproError):
            # Mirror of evaluate_mapping wrapping model.run(): a workload or
            # computation failure is an infeasibility fact, not a crash.  The
            # record carries the requested backend even when no sweep ran, so
            # a mixed-backend store is only reported when sweeps mixed.
            return _record_evaluation(
                CandidateEvaluation(
                    candidate=candidate,
                    infeasible=f"{type(run).__name__}: {run}",
                    wall_seconds=time.perf_counter() - start,
                    backend=backend,
                )
            )
        if run is None:
            telemetry.count("dse.compile.explicit_fallbacks")
            return self._explicit_fallback(candidate)
        offers, actual, usage = run
        return _record_evaluation(
            self._assemble(
                candidate,
                spec,
                usage,
                offers,
                actual,
                start,
                evaluator="steady" if steady else "replay",
                backend=backend,
            )
        )

    def _explicit_fallback(self, candidate: MappingCandidate) -> CandidateEvaluation:
        """Exact event-driven scoring (records its own evaluation telemetry)."""
        return _evaluate_from_scratch(self.problem, candidate, self.parameters)

    # ------------------------------------------------------------------
    # the object-graph replay, and steady-state evaluation
    # ------------------------------------------------------------------
    def _steady_gate(self, spec: EquivalentModelSpec) -> Optional[str]:
        """Why ``spec`` cannot be steady-evaluated, or ``None`` when it can.

        The gate is what makes extrapolation *sound*: every boundary-input
        stimulus must promise a constant offer period, and every
        data-dependent arc weight must be a tabulated stream whose durations
        are provably identical over the whole horizon.  Only then does an
        observed uniform drift certify the future.
        """
        if self._periodic_inputs is None:
            self._periodic_inputs = all(
                self.stimuli[b.relation].offer_period_ps() is not None
                for b in self.template.boundary_inputs
            )
        if not self._periodic_inputs:
            return "aperiodic_stimulus"
        horizon = min(len(self.stimuli[b.relation]) for b in spec.boundary_inputs)
        for arc in spec.graph.arcs:
            if arc.is_constant:
                continue
            table = arc.weight_callable
            if not isinstance(table, _TabulatedWeight):
                return "dynamic_weight"
            if table.constant_stream_ps(horizon) is None:
                return "data_dependent"
        return None

    def _run(
        self, spec: EquivalentModelSpec, computer: InstantComputer, steady: bool = False
    ) -> Optional[ProgramResult]:
        """Replay the Reception/Emission protocol without the simulation kernel.

        Returns ``(offer instants per input, output instants per output, usage
        instants per observation node)`` or ``None`` when the run needs the
        event-driven harness (non-monotonic computed outputs, which trigger
        boundary feedback).

        With ``steady`` (the caller checked :meth:`_steady_gate`) the loop
        replays only until the periodic regime is certified, then
        extrapolates.  The certificate has two halves:

        * every node value drifted by the same ``c`` for ``max_delay + 1``
          consecutive iteration pairs, so the evaluator's whole ring state
          satisfies ``x(k) = x(k-1) + c`` -- with constant weights (the gate)
          the (max, +) recurrence then reproduces the shift forever, because
          ``max`` commutes with adding ``c`` to every operand;
        * each input schedule is *locked*: either its period equals ``c``
          (the schedule shifts with everything else) or the last exchange
          already overtook the next scheduled offer and ``c >= T`` keeps it
          ahead (the schedule term never re-enters the ``max``).

        Together these imply the remaining replay would produce exactly
        ``value + j*c`` everywhere, which is what the extrapolation appends.
        """
        stimuli = self.stimuli
        boundary_inputs = spec.boundary_inputs
        iterations = min(len(stimuli[b.relation]) for b in boundary_inputs)
        output_relations = [b.relation for b in spec.boundary_outputs]
        actual: Dict[str, List[int]] = {relation: [] for relation in output_relations}
        offers: Dict[str, List[int]] = {b.relation: [] for b in boundary_inputs}
        previous_exchange: Dict[str, Optional[int]] = {
            b.relation: None for b in boundary_inputs
        }
        evaluator = computer.evaluator
        min_pairs = spec.graph.max_delay + 1
        prev_snapshot: Optional[List[Optional[int]]] = None
        streak_delta: Optional[int] = None
        streak = 0
        replayed = iterations

        now = 0  # the Reception process's local clock
        with telemetry.span(
            "dse.compile.steady" if steady else "dse.compile.replay", category="dse"
        ):
            for k in range(iterations):
                instants: Dict[str, int] = {}
                tokens: Dict[str, Optional[DataToken]] = {}
                for boundary in boundary_inputs:
                    relation = boundary.relation
                    # Reception: wait until the abstracted consumer is ready.
                    ready = computer.ready_instant(relation)
                    if ready is not None and ready > now:
                        now = ready
                    # Stimulus driver: resumes after its previous exchange,
                    # then waits for the scheduled offer time; u(k) is the
                    # later one.
                    stimulus = stimuli[relation]
                    scheduled = stimulus.offer_time(k).picoseconds
                    previous = previous_exchange[relation]
                    arrival = scheduled if previous is None or previous <= scheduled else previous
                    offers[relation].append(arrival)
                    # Rendezvous: the exchange completes when both sides arrived.
                    if arrival > now:
                        now = arrival
                    instants[relation] = now
                    tokens[relation] = stimulus.token(k)
                    previous_exchange[relation] = now
                outputs = computer.compute_iteration(instants, tokens)
                for relation in output_relations:
                    offered = outputs[relation]
                    emitted = actual[relation]
                    if offered is None or (emitted and offered < emitted[-1]):
                        return None
                    # Always-ready observer: the exchange happens at the offer.
                    emitted.append(offered)
                if not steady:
                    continue

                # -- regime detection --------------------------------------
                snapshot = evaluator.values_snapshot()
                delta = _uniform_delta(prev_snapshot, snapshot)
                prev_snapshot = snapshot
                if delta is None:
                    streak = 0
                    streak_delta = None
                    continue
                if delta == streak_delta:
                    streak += 1
                else:
                    streak_delta = delta
                    streak = 1
                if streak < min_pairs or delta < 0 or k + 1 >= iterations:
                    continue
                locked = True
                for boundary in boundary_inputs:
                    relation = boundary.relation
                    period = stimuli[relation].offer_period_ps()
                    if delta == period:
                        continue
                    scheduled = stimuli[relation].offer_time(k).picoseconds
                    if delta > period and instants[relation] > scheduled + period:
                        continue
                    locked = False
                    break
                if not locked:
                    continue

                # -- certified: extrapolate the remaining iterations -------
                extra = iterations - (k + 1)
                evaluator.extend_recorded(extra, delta)
                for boundary in boundary_inputs:
                    relation = boundary.relation
                    sequence = offers[relation]
                    if delta == stimuli[relation].offer_period_ps():
                        # Schedule and exchanges shift together, so the
                        # arrival branch is stable and the whole sequence
                        # drifts by c.
                        sequence.extend(_arithmetic_tail(sequence[-1] + delta, delta, extra))
                    else:
                        # Dominance-locked input: every future arrival is the
                        # previous exchange.  The transition iteration may
                        # leave the last *replayed* arrival on the schedule
                        # branch, so anchor on the exchange instant, not on
                        # the last offer.
                        sequence.extend(_arithmetic_tail(instants[relation], delta, extra))
                for sequence in actual.values():
                    sequence.extend(_arithmetic_tail(sequence[-1] + delta, delta, extra))
                replayed = k + 1
                telemetry.count("dse.steady.extrapolations")
                telemetry.count("dse.steady.extrapolated_steps", extra)
                telemetry.gauge("dse.steady.cycle_ps", delta)
                break
            else:
                if steady:
                    # The horizon ended before the regime settled (or never
                    # settles): everything was replayed.
                    telemetry.count("dse.steady.exhausted")
        telemetry.count("dse.compile.replay_steps", replayed)
        return offers, actual, computer.usage_instants()

    # ------------------------------------------------------------------
    def _assemble(
        self,
        candidate: MappingCandidate,
        spec: EquivalentModelSpec,
        usage: Mapping[str, List[Optional[int]]],
        offers: Mapping[str, List[int]],
        actual: Mapping[str, List[int]],
        start: float,
        evaluator: str = "replay",
        backend: str = "python",
    ) -> CandidateEvaluation:
        """Extract the objectives (mirror of ``evaluate_mapping``'s epilogue).

        ``usage`` maps observation-node names to per-iteration instants
        (ε as ``None``) -- ``InstantComputer.usage_instants()`` on the
        object-graph paths, the lowered history on the array paths.
        """
        outputs = self.application.external_outputs()
        if not outputs:
            raise ModelError("design-space evaluation needs an external output relation")
        per_output = tuple(
            (spec_rel.name, tuple(actual[spec_rel.name])) for spec_rel in outputs
        )
        instants = per_output[0][1]
        if not instants:
            return CandidateEvaluation(
                candidate=candidate,
                infeasible="the model produced no output instants",
                wall_seconds=time.perf_counter() - start,
            )

        inputs = self.application.external_inputs()
        offer_list = offers.get(inputs[0].name, []) if inputs else []
        pairs = min(len(offer_list), len(instants))
        # Exact integer sums (C-speed) instead of a per-item generator; the
        # quotient is the same float because the subtraction is exact.
        mean_latency = (
            (sum(instants[:pairs]) - sum(offer_list[:pairs])) / pairs if pairs else 0.0
        )

        # Resource utilisation straight from the computed start/end instants
        # (equivalent to reconstructing the activity trace and running
        # busy_profile over one whole-window bin, without the trace objects).
        intervals: Dict[str, List[Tuple[int, int]]] = {}
        window_lo: Optional[int] = None
        window_hi: Optional[int] = None
        for entry in spec.execute_nodes:
            starts = usage[entry.start_node]
            ends = usage[entry.end_node]
            bucket = intervals.setdefault(entry.resource, [])
            if starts and None not in starts and None not in ends:
                # Common case -- every iteration computed both instants:
                # build the interval list and the window bounds with C-speed
                # primitives instead of a per-iteration Python loop.
                bucket.extend(zip(starts, ends))
                lo = min(starts)
                hi = max(ends)
                if window_lo is None or lo < window_lo:
                    window_lo = lo
                if window_hi is None or hi > window_hi:
                    window_hi = hi
                continue
            for start_ps, end_ps in zip(starts, ends):
                if start_ps is None or end_ps is None:
                    continue
                bucket.append((start_ps, end_ps))
                if window_lo is None or start_ps < window_lo:
                    window_lo = start_ps
                if window_hi is None or end_ps > window_hi:
                    window_hi = end_ps

        utilization: Dict[str, float] = {}
        degenerate = window_lo is None or window_hi is None or window_hi <= window_lo
        for resource in candidate.resources_used():
            if degenerate:
                utilization[resource] = 0.0
            else:
                utilization[resource] = round(
                    _busy_fraction(intervals.get(resource, []), window_lo, window_hi), 4
                )
        mean_utilization = (
            sum(utilization.values()) / len(utilization) if utilization else 0.0
        )
        resources_by_kind, utilization_by_kind = per_kind_summary(
            self.platform, utilization
        )

        return CandidateEvaluation(
            candidate=candidate,
            iterations=len(instants),
            latency_ps=max(seq[-1] for _, seq in per_output if seq),
            mean_latency_ps=mean_latency,
            tdg_nodes=spec.graph.node_count,
            resources_used=len(candidate.resources_used()),
            utilization=tuple(sorted(utilization.items())),
            mean_utilization=round(mean_utilization, 4),
            resources_by_kind=resources_by_kind,
            utilization_by_kind=utilization_by_kind,
            wall_seconds=time.perf_counter() - start,
            output_instants=instants,
            per_output_instants=per_output,
            evaluator=evaluator,
            backend=backend,
        )

    def __repr__(self) -> str:
        return (
            f"CompiledProblem({self.problem.name!r}, "
            f"nodes={self.template.node_count})"
        )


def _service_orders(
    entry_map: Mapping[str, Tuple[int, Sequence[Any]]],
) -> Dict[str, Tuple[int, Tuple[Tuple[str, int], ...]]]:
    """Comparable form of ``scheduled_resource_entries``: concurrency and service order."""
    return {
        name: (concurrency, tuple((e.function, e.step_index) for e in entries))
        for name, (concurrency, entries) in entry_map.items()
    }


def _arithmetic_tail(start: int, delta_ps: int, count: int) -> Sequence[int]:
    """``count`` values ``start, start + delta_ps, ...`` as a C-speed sequence."""
    if delta_ps:
        return range(start, start + delta_ps * count, delta_ps)
    return [start] * count


def _uniform_delta(
    previous: Optional[List[Optional[int]]], current: List[Optional[int]]
) -> Optional[int]:
    """The single drift every node value advanced by, or ``None``.

    ``None`` is also returned while any node is still at ε: the steady
    certificate needs the *whole* state vector to shift uniformly.
    """
    if previous is None:
        return None
    delta: Optional[int] = None
    for new_value, old_value in zip(current, previous):
        if new_value is None or old_value is None:
            return None
        diff = new_value - old_value
        if delta is None:
            delta = diff
        elif diff != delta:
            return None
    return delta


def _busy_fraction(intervals: List[Tuple[int, int]], lo: int, hi: int) -> float:
    """Merged busy fraction of ``[lo, hi)`` (mirror of ActivityTrace.utilization)."""
    if not intervals:
        return 0.0
    intervals = sorted(intervals)
    merged_total = 0
    current_start, current_end = intervals[0]
    for interval_start, interval_end in intervals[1:]:
        if interval_start <= current_end:
            if interval_end > current_end:
                current_end = interval_end
        else:
            merged_total += current_end - current_start
            current_start, current_end = interval_start, interval_end
    merged_total += current_end - current_start
    return merged_total / (hi - lo)


# ----------------------------------------------------------------------
# per-process compilation cache
# ----------------------------------------------------------------------
_CACHE: "OrderedDict[Tuple[int, str, str], CompiledProblem]" = OrderedDict()
_CACHE_LIMIT = 4

#: Campaign-job bookkeeping keys that never parameterise the problem itself:
#: the candidate encoding and the problem selector.  Everything else is kept,
#: so problems reading optional parameters absent from ``defaults`` still see
#: them on the compiled path.
_NON_PROBLEM_KEYS = frozenset(("problem", "allocation", "orders"))


def compiled_problem(
    problem: DesignProblem, parameters: Optional[Mapping[str, Any]] = None
) -> CompiledProblem:
    """The (cached) compiled form of ``problem`` under resolved parameters.

    The cache key strips the candidate encoding riding along in a campaign
    job's parameter dict (``allocation``/``orders``/``problem``) so proposals
    do not defeat the cache, and includes the problem object's identity so a
    same-named unregistered problem variant never reuses another problem's
    compilation.  Worker processes each keep their own small cache; templates
    are compiled at most once per ``(problem, parameters)`` per process.
    """
    resolved = problem.parameters(parameters)
    relevant = {
        key: value for key, value in resolved.items() if key not in _NON_PROBLEM_KEYS
    }
    # id() is stable here: the cached CompiledProblem keeps ``problem`` alive,
    # so its id cannot be reused while the entry exists.
    key = (id(problem), problem.name, canonical_json(relevant))
    compiled = _CACHE.get(key)
    if compiled is None:
        telemetry.count("dse.compile.cache_misses")
        compiled = CompiledProblem(problem, relevant)
        _CACHE[key] = compiled
        while len(_CACHE) > _CACHE_LIMIT:
            _CACHE.popitem(last=False)
    else:
        telemetry.count("dse.compile.cache_hits")
        _CACHE.move_to_end(key)
    return compiled
