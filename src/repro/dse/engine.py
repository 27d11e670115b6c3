"""Array-lowered replay: flat int64 tables behind ``CompiledProblem.evaluate_batch``.

The compiled replay loop in :mod:`repro.dse.compile` walks per-candidate
Python object graphs -- node objects, arc objects, a function call per
weight per iteration.  This module lowers one *specialised*
:class:`~repro.core.spec.EquivalentModelSpec` into an
:class:`ArrayProgram`: contiguous integer tables (a node index
vocabulary, per-node predecessor arc lists, per-iteration duration
streams materialised up front, stimulus offer schedules as plain int
lists) so that replaying the Reception/Emission protocol becomes a
tight loop over list indices -- and, with the optional ``numpy``
backend, one vectorised sweep across every candidate of an NSGA-II
generation at once.

Invariants:

* **Exactness.**  Both backends compute the very same (max, +)
  recurrence as :class:`~repro.tdg.evaluator.TDGEvaluator` over int64
  picoseconds; results are bit-identical, instant for instant, to the
  per-candidate replay of :meth:`CompiledProblem.evaluate` (asserted by
  the equivalence suites).  ε is represented by the sentinel
  :data:`NEG_EPSILON`; real instants are non-negative and durations are
  far below ``2**61``, so ``sentinel + weight`` stays below
  :data:`EPSILON_THRESHOLD` and can never collide with a real instant
  (and stays far from int64 overflow on the numpy path).
* **Reference path stays pure Python.**  The ``python`` backend has no
  third-party dependency; ``numpy`` is auto-detected and selected via
  :func:`resolve_backend` / the ``REPRO_DSE_BACKEND`` environment
  variable, and vectorises across candidates sharing a template.
* **Lowering is conservative.**  Any weight that is not a constant or a
  :class:`_TabulatedWeight` stream (i.e. genuinely context-dependent)
  refuses to lower (:class:`LoweringUnsupported`), and the caller scores
  that candidate by explicit simulation -- never a silently wrong instant.

This module also owns :class:`_TabulatedWeight` and :class:`_TokenTable`
(shared per-iteration duration/token streams), which
:mod:`repro.dse.compile` re-exports for backward compatibility.
"""

from __future__ import annotations

import os
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from .. import telemetry
from ..archmodel.token import DataToken
from ..archmodel.workload import ExecutionTimeModel
from ..environment.stimulus import Stimulus
from ..errors import ComputationError, GraphError, ModelError
from ..kernel.simtime import Duration

__all__ = [
    "BACKENDS",
    "NEG_EPSILON",
    "EPSILON_THRESHOLD",
    "ArrayProgram",
    "LoweringUnsupported",
    "lower_spec",
    "numpy_available",
    "replay_batch",
    "replay_program",
    "resolve_backend",
]

#: Supported array backends, in reference-first order.
BACKENDS: Tuple[str, ...] = ("python", "numpy")

#: ε (no value yet) as an int64 sentinel.  Real instants are >= 0.
NEG_EPSILON = -(1 << 62)

#: Anything at or below this is ε.  ``NEG_EPSILON + weight`` stays below it
#: for every valid duration (durations are validated non-negative and far
#: below 2**61), so ε never masquerades as a real instant after a (+).
EPSILON_THRESHOLD = -(1 << 61)


class _TabulatedWeight:
    """Per-iteration workload durations, evaluated once and shared across candidates.

    The arc-weight protocol is ``weight(k, context) -> Duration``; the table
    ignores the per-candidate context and uses the problem's own (identical)
    token sequence, growing lazily with the iteration index.
    """

    __slots__ = ("workload", "_tokens", "_cache_ps", "_constant_checked", "_divergence")

    def __init__(self, workload: ExecutionTimeModel, tokens: "_TokenTable") -> None:
        self.workload = workload
        self._tokens = tokens
        self._cache_ps: List[int] = []
        #: iterations already verified to share the first duration.
        self._constant_checked = 0
        #: first iteration whose duration differs from iteration 0 (if found).
        self._divergence: Optional[int] = None

    def weight_ps(self, k: int, context: Mapping[str, object]) -> int:
        """Integer fast path used by the evaluator (see DependencyArc.weight_callable)."""
        cache = self._cache_ps
        while len(cache) <= k:
            index = len(cache)
            duration = self.workload.duration(index, self._tokens[index])
            # Same validation the arc's weight_ps applies to untrusted
            # callables, so a misbehaving workload stays an infeasibility
            # report instead of a silently wrong instant.
            if not isinstance(duration, Duration) or duration.is_negative():
                raise GraphError(
                    f"workload {type(self.workload).__name__} returned an invalid "
                    f"duration for iteration {index}: {duration!r}"
                )
            cache.append(duration.picoseconds)
        return cache[k]

    def __call__(self, k: int, context: Mapping[str, object]) -> Duration:
        return Duration(self.weight_ps(k, context))

    def stream_ps(self, horizon: int) -> List[int]:
        """The materialised duration list for iterations ``< horizon``.

        Fills the memoised cache (validating every duration exactly like
        :meth:`weight_ps`) and returns it -- the lowered arc then reads
        ``stream[k]`` with a plain list index instead of a function call.
        The list is shared: callers must not mutate it.
        """
        if horizon > 0:
            self.weight_ps(horizon - 1, {})
        return self._cache_ps

    def constant_stream_ps(self, horizon: int) -> Optional[int]:
        """The single duration all iterations ``< horizon`` share, or ``None``.

        This is the steady-state evaluator's exact decision procedure for
        "data-dependent durations": tokens may vary freely as long as the
        workload maps them all to the same duration.  The scan is memoised,
        so the per-problem cost is one pass over the table -- the same work
        the replay loop would spend evaluating the weights anyway.
        """
        if horizon <= 0:
            return None
        if self._divergence is not None and self._divergence < horizon:
            return None
        first = self.weight_ps(0, {})
        for k in range(max(self._constant_checked, 1), horizon):
            if self.weight_ps(k, {}) != first:
                self._divergence = k
                self._constant_checked = k + 1
                return None
        if horizon > self._constant_checked:
            self._constant_checked = horizon
        return first


class _TokenTable:
    """Lazy, memoised token sequence of the primary stimulus (or all-``None``)."""

    __slots__ = ("stimulus", "_tokens")

    def __init__(self, stimulus: Optional[Stimulus]) -> None:
        self.stimulus = stimulus
        self._tokens: List[Optional[DataToken]] = []

    def __getitem__(self, k: int) -> Optional[DataToken]:
        tokens = self._tokens
        while len(tokens) <= k:
            index = len(tokens)
            tokens.append(None if self.stimulus is None else self.stimulus.token(index))
        return tokens[k]


class LoweringUnsupported(Exception):
    """A specialised spec refused to lower to arrays (engine gate).

    ``reason`` is a short telemetry-friendly slug (e.g. ``dynamic_weight``);
    the caller falls back to explicit simulation, which handles every
    weight protocol.
    """

    def __init__(self, reason: str) -> None:
        super().__init__(reason)
        self.reason = reason


#: One lowered dependency: (source node index, delay, per-iteration weight
#: stream).  The stream is always a materialised int list of length >= the
#: program horizon, so the replay loop indexes instead of calling.
Arc = Tuple[int, int, Sequence[int]]


class ArrayProgram:
    """One candidate's specialised model lowered onto flat integer tables.

    Everything the replay needs, with every name resolved to an index and
    every weight resolved to a per-iteration int stream:

    * ``plan_nodes[p]`` / ``plan_arcs[p]`` -- the computed (non-input) nodes
      in this candidate's topological order, each with its predecessor arcs;
    * ``plan_levels`` -- contiguous ``(start, stop)`` position ranges such
      that no position in a range depends (via a delay-0 arc) on another
      position in the same range; the plan is sorted so each level is one
      slice, letting a vectorised backend sweep a whole level per step;
    * ``inputs`` -- per boundary input, in protocol order: the relation, the
      exchange node's index, the stimulus offer schedule (ps per iteration)
      and the *delayed* arcs of the ready node (the ``peek_delayed`` set);
    * ``outputs`` -- per boundary output: the relation and offer node index;
    * ``observed`` -- (node name, index) pairs whose history rebuilds
      resource usage.

    The program is immutable once built and holds no references to the
    (mutable, shared) specialised graph, so many programs from successive
    delta-specialisations can coexist in one batch.
    """

    __slots__ = (
        "iterations",
        "node_count",
        "plan_nodes",
        "plan_arcs",
        "plan_levels",
        "inputs",
        "outputs",
        "observed",
    )

    def __init__(
        self,
        iterations: int,
        node_count: int,
        plan_nodes: List[int],
        plan_arcs: List[Tuple[Arc, ...]],
        plan_levels: Tuple[Tuple[int, int], ...],
        inputs: List[Tuple[str, int, List[int], Tuple[Arc, ...]]],
        outputs: List[Tuple[str, int]],
        observed: List[Tuple[str, int]],
    ) -> None:
        self.iterations = iterations
        self.node_count = node_count
        self.plan_nodes = plan_nodes
        self.plan_arcs = plan_arcs
        self.plan_levels = plan_levels
        self.inputs = inputs
        self.outputs = outputs
        self.observed = observed


#: replay result: (offer instants per input relation, output instants per
#: output relation, usage history per observed node with ε back as None).
ProgramResult = Tuple[
    Dict[str, List[int]], Dict[str, List[int]], Dict[str, List[Optional[int]]]
]


def numpy_available() -> bool:
    """Whether the optional numpy backend can be imported."""
    try:
        import numpy  # noqa: F401
    except Exception:
        return False
    return True


def resolve_backend(backend: Optional[str] = None) -> str:
    """Resolve an explicit/None/``"auto"`` backend request to a concrete one.

    Precedence: explicit argument, then the ``REPRO_DSE_BACKEND``
    environment variable, then auto-detection (numpy when importable,
    else the pure-Python reference).  Raises
    :class:`~repro.errors.ModelError` for unknown names or when numpy is
    requested but not importable.
    """
    if backend in (None, "", "auto"):
        env = os.environ.get("REPRO_DSE_BACKEND", "").strip().lower()
        backend = env or None
    if backend in (None, "", "auto"):
        return "numpy" if numpy_available() else "python"
    if backend not in BACKENDS:
        raise ModelError(
            f"unknown DSE backend {backend!r}; expected one of {BACKENDS} (or 'auto')"
        )
    if backend == "numpy" and not numpy_available():
        raise ModelError("backend 'numpy' requested but numpy is not importable")
    return backend


def lower_spec(
    spec: Any,
    stimuli: Mapping[str, Stimulus],
    iterations: int,
    stream_cache: Optional[Dict[Any, Any]] = None,
) -> ArrayProgram:
    """Lower one specialised equivalent-model spec onto flat tables.

    ``stream_cache`` (optional, shared across a batch) memoises the
    candidate-independent lowering artefacts -- materialised constant
    streams, stimulus offer schedules and the node index map -- so a
    batch of candidates builds each of them once.  Raises
    :class:`LoweringUnsupported` when a weight cannot be materialised and
    :class:`~repro.errors.ComputationError`/:class:`~repro.errors.GraphError`
    exactly where the object-graph replay would (delay-0 ready arcs,
    invalid workload durations) so infeasibility reporting is unchanged.
    """
    graph = spec.graph
    # Same structural validation TDGEvaluator performs on construction.
    graph.validate()
    cache: Dict[Any, Any] = stream_cache if stream_cache is not None else {}

    def stream_of(arc: Any) -> Sequence[int]:
        if arc.is_constant:
            value = arc.constant_weight.picoseconds
            key = ("const", value, iterations)
            materialised = cache.get(key)
            if materialised is None:
                materialised = [value] * iterations
                cache[key] = materialised
            return materialised
        table = arc.weight_callable
        if not isinstance(table, _TabulatedWeight):
            raise LoweringUnsupported("dynamic_weight")
        return table.stream_ps(iterations)

    # The node vocabulary is delta-stable (specialisation swaps arcs, never
    # nodes), so successive candidates of one batch share the index map.
    index_key = ("index_of", id(graph))
    index_of = cache.get(index_key)
    if index_of is None:
        index_of = {node.name: node.index for node in graph.nodes}
        cache[index_key] = index_of
    plan_nodes: List[int] = []
    plan_arcs: List[Tuple[Arc, ...]] = []
    # Delay-0 depth of every plan node: positions sharing a level have no
    # same-iteration dependency on each other, so a vectorised backend can
    # sweep each level as one block.  Delay-0 arcs from input/exchange
    # nodes do not order plan positions (inputs resolve first each round).
    depth_of: Dict[int, int] = {}
    levels: List[int] = []
    for node in graph.topological_order():
        if node.is_input:
            continue
        plan_nodes.append(node.index)
        arcs = tuple(
            (arc.source.index, arc.delay, stream_of(arc))
            for arc in graph.arcs_into(node)
        )
        plan_arcs.append(arcs)
        depth = 0
        for src, delay, _ in arcs:
            if delay == 0:
                src_depth = depth_of.get(src)
                if src_depth is not None and src_depth >= depth:
                    depth = src_depth + 1
        depth_of[node.index] = depth
        levels.append(depth)
    # Stable-sort the plan by level: still a topological order (a delay-0
    # predecessor always has a strictly smaller level).
    order = sorted(range(len(plan_nodes)), key=levels.__getitem__)
    plan_nodes = [plan_nodes[p] for p in order]
    plan_arcs = [plan_arcs[p] for p in order]
    plan_levels: List[Tuple[int, int]] = []
    start = 0
    for position in range(1, len(order) + 1):
        if position == len(order) or levels[order[position]] != levels[order[start]]:
            plan_levels.append((start, position))
            start = position

    inputs: List[Tuple[str, int, List[int], Tuple[Arc, ...]]] = []
    for boundary in spec.boundary_inputs:
        ready_arcs: List[Arc] = []
        for arc in graph.arcs_into(boundary.ready_node):
            if arc.delay == 0:
                # Mirror of TDGEvaluator.peek_delayed's contract.
                raise ComputationError(
                    f"peek_delayed({boundary.ready_node!r}) requires delayed arcs "
                    f"only, but the arc from {arc.source.name!r} has delay 0"
                )
            ready_arcs.append((arc.source.index, arc.delay, stream_of(arc)))
        stimulus = stimuli[boundary.relation]
        schedule_key = ("schedule", boundary.relation, id(stimulus), iterations)
        schedule = cache.get(schedule_key)
        if schedule is None:
            schedule = [stimulus.offer_time(k).picoseconds for k in range(iterations)]
            cache[schedule_key] = schedule
        inputs.append(
            (boundary.relation, index_of[boundary.exchange_node], schedule, tuple(ready_arcs))
        )

    outputs = [(b.relation, index_of[b.offer_node]) for b in spec.boundary_outputs]
    observed = [(name, index_of[name]) for name in spec.observation_nodes()]
    return ArrayProgram(
        iterations=iterations,
        node_count=graph.node_count,
        plan_nodes=plan_nodes,
        plan_arcs=plan_arcs,
        plan_levels=tuple(plan_levels),
        inputs=inputs,
        outputs=outputs,
        observed=observed,
    )


def replay_program(program: ArrayProgram) -> Optional[ProgramResult]:
    """Replay one lowered program with the pure-Python reference loop.

    Bit-identical to :meth:`CompiledProblem._run` over the object graph:
    the same Reception/rendezvous protocol, the same (max, +) sweep, the
    same monotonic-output check (``None`` means "needs the event-driven
    harness", exactly when the object path would say so).
    """
    iterations = program.iterations
    neg = NEG_EPSILON
    eps = EPSILON_THRESHOLD
    hist: List[List[int]] = [[neg] * iterations for _ in range(program.node_count)]
    inputs = program.inputs
    offer_lists: List[List[int]] = [[] for _ in inputs]
    out_lists: List[List[int]] = [[] for _ in program.outputs]
    prev = [neg] * len(inputs)  # previous exchange instants (ε = neg)
    # Bind history rows into the tables once, so the hot loop below works
    # on list references instead of re-indexing the vocabulary per visit.
    plan = [
        (
            hist[node_idx],
            tuple((hist[src], delay, weights) for src, delay, weights in arcs),
        )
        for node_idx, arcs in zip(program.plan_nodes, program.plan_arcs)
    ]
    bound_inputs = [
        (
            i,
            hist[exchange_idx],
            schedule,
            tuple((hist[src], delay, weights) for src, delay, weights in ready_arcs),
        )
        for i, (_, exchange_idx, schedule, ready_arcs) in enumerate(inputs)
    ]
    bound_outputs = [
        (hist[offer_idx], out_lists[out_i])
        for out_i, (_, offer_idx) in enumerate(program.outputs)
    ]
    now = 0  # the Reception process's local clock, persistent across iterations
    for k in range(iterations):
        for i, exchange_row, schedule, ready_arcs in bound_inputs:
            # Reception: wait until the abstracted consumer is ready
            # (peek_delayed over the ready node's delayed arcs).
            ready = neg
            for source_row, delay, weights in ready_arcs:
                j = k - delay
                if j >= 0:
                    value = source_row[j]
                    if value > eps:
                        candidate = value + weights[k]
                        if candidate > ready:
                            ready = candidate
            if ready > now:
                now = ready
            # Stimulus driver: resumes after its previous exchange, then
            # waits for the scheduled offer time; u(k) is the later one.
            scheduled = schedule[k]
            previous = prev[i]
            arrival = previous if previous > scheduled else scheduled
            offer_lists[i].append(arrival)
            # Rendezvous: the exchange completes when both sides arrived.
            if arrival > now:
                now = arrival
            exchange_row[k] = now
            prev[i] = now
        # ComputeInstant(): the (max, +) sweep in topological order.
        for node_row, arcs in plan:
            best = neg
            for source_row, delay, weights in arcs:
                j = k - delay
                if j >= 0:
                    value = source_row[j]
                    if value > eps:
                        candidate = value + weights[k]
                        if candidate > best:
                            best = candidate
            node_row[k] = best
        for offer_row, emitted in bound_outputs:
            offered = offer_row[k]
            if offered <= eps or (emitted and offered < emitted[-1]):
                return None
            # Always-ready observer: the exchange happens at the offer.
            emitted.append(offered)
    offers = {relation: offer_lists[i] for i, (relation, _, _, _) in enumerate(inputs)}
    actual = {relation: out_lists[i] for i, (relation, _) in enumerate(program.outputs)}
    usage = {
        name: [value if value > eps else None for value in hist[idx]]
        for name, idx in program.observed
    }
    return offers, actual, usage

def replay_batch(
    programs: Sequence[ArrayProgram], backend: str = "python"
) -> List[Optional[ProgramResult]]:
    """Replay a batch of lowered programs on the selected backend.

    Results align with ``programs``; an entry is ``None`` exactly when the
    reference replay would fall back to the event-driven harness for that
    candidate.  The numpy backend vectorises the per-step max/+ reduction
    across *all* candidates at once: because every arc resolves to a flat
    index into one shared history buffer, candidates' plan structures may
    differ freely (order arcs come and go with the allocation) and still
    sweep together -- only the horizon and the boundary-input protocol
    must match, so candidates are grouped by those alone.
    """
    programs = list(programs)
    telemetry.count("dse.engine.batches")
    telemetry.gauge("dse.engine.batch_size", len(programs))
    telemetry.count(f"dse.engine.backend.{backend}", len(programs))
    if backend != "numpy":
        return [replay_program(program) for program in programs]
    results: List[Optional[ProgramResult]] = [None] * len(programs)
    groups: Dict[Any, List[int]] = {}
    for position, program in enumerate(programs):
        signature = (
            program.iterations,
            tuple(relation for relation, _, _, _ in program.inputs),
        )
        groups.setdefault(signature, []).append(position)
    for positions in groups.values():
        swept = _replay_sweep_numpy([programs[p] for p in positions])
        for position, result in zip(positions, swept):
            results[position] = result
    return results


def _replay_sweep_numpy(programs: List[ArrayProgram]) -> List[Optional[ProgramResult]]:
    """One vectorised sweep over candidates sharing a horizon.

    Strategy: concatenate level ``l`` of *every* candidate's plan into one
    row block whose arcs are flat indices into one guard-padded history
    buffer, so one step of one topological level is four whole-array ops
    (gather, add, max, scatter) over every candidate at once -- the per-
    iteration Python overhead is independent of the batch size.  Two
    layout tricks remove the validity masks the reference loop needs:

    * every node row is prefixed with ``pad`` guard cells (``pad`` >= the
      largest arc delay) that stay at ε forever, so a delayed read before
      its first valid iteration lands on ε instead of wrapping into a
      neighbouring row; one extra all-ε row absorbs the arc-count padding;
    * ε is *not* re-masked after the add: with non-negative weights an
      ε-region value can only drift up by the total weight along a path,
      which the headroom check below proves stays under the ε threshold
      (otherwise the batch falls back to the reference loop, preserving
      masked semantics for adversarial weights).

    Candidates advance in lockstep through ``(iteration, level)`` space;
    their instants never interact, so failed candidates (ε or
    non-monotonic outputs) are detected post-hoc on their output rows --
    equivalent to the reference's early exit.
    """
    import numpy as np

    first = programs[0]
    iterations = first.iterations
    n_candidates = len(programs)
    n_inputs = len(first.inputs)
    neg = NEG_EPSILON
    eps = EPSILON_THRESHOLD

    # -- weight-stream matrix: one row per distinct materialised stream ---
    stream_arrays: List[Any] = [np.zeros(iterations, dtype=np.int64)]  # row 0 pads
    stream_ids: Dict[int, int] = {}

    def stream_row(weights: Sequence[int]) -> int:
        key = id(weights)
        row = stream_ids.get(key)
        if row is None:
            row = len(stream_arrays)
            stream_arrays.append(np.asarray(weights[:iterations], dtype=np.int64))
            stream_ids[key] = row
        return row

    # -- guard padding and per-candidate row bases ------------------------
    pad = 1
    max_arcs = 1
    max_ready = 0
    n_levels = 0
    for program in programs:
        if len(program.plan_levels) > n_levels:
            n_levels = len(program.plan_levels)
        for arcs in program.plan_arcs:
            if len(arcs) > max_arcs:
                max_arcs = len(arcs)
            for _, delay, _ in arcs:
                if delay > pad:
                    pad = delay
        for entry in program.inputs:
            if len(entry[3]) > max_ready:
                max_ready = len(entry[3])
            for _, delay, _ in entry[3]:
                if delay > pad:
                    pad = delay
    span = pad + iterations
    bases: List[int] = []
    rows_total = 0
    for program in programs:
        bases.append(rows_total)
        rows_total += program.node_count
    pad_cell = rows_total * span + pad  # in the extra all-ε guard row

    # -- level-concatenated plan tables -----------------------------------
    level_tables: List[Tuple[Any, Any, Any]] = []
    for level in range(n_levels):
        plan_rows: List[int] = []
        arc_rows: List[List[int]] = []
        stream_rows: List[List[int]] = []
        for c, program in enumerate(programs):
            if level >= len(program.plan_levels):
                continue
            start, stop = program.plan_levels[level]
            base = bases[c]
            for p in range(start, stop):
                plan_rows.append((base + program.plan_nodes[p]) * span + pad)
                row = [pad_cell] * max_arcs
                srow = [0] * max_arcs
                for a, (src, delay, weights) in enumerate(program.plan_arcs[p]):
                    row[a] = (base + src) * span + pad - delay
                    srow[a] = stream_row(weights)
                arc_rows.append(row)
                stream_rows.append(srow)
        level_tables.append(
            (
                np.asarray(plan_rows, dtype=np.intp),
                np.asarray(arc_rows, dtype=np.intp).reshape(len(arc_rows), max_arcs),
                np.asarray(stream_rows, dtype=np.intp).reshape(
                    len(stream_rows), max_arcs
                ),
            )
        )

    # -- boundary-input tables --------------------------------------------
    ready_span = max(max_ready, 1)
    exchange_idx = np.empty((n_inputs, n_candidates), dtype=np.intp)
    ready_idx = np.full((n_inputs, n_candidates, ready_span), pad_cell, dtype=np.intp)
    ready_streams = np.zeros((n_inputs, n_candidates, ready_span), dtype=np.intp)
    for c, program in enumerate(programs):
        base = bases[c]
        for i, (_, exch, _, ready_arcs) in enumerate(program.inputs):
            exchange_idx[i, c] = (base + exch) * span + pad
            for a, (src, delay, weights) in enumerate(ready_arcs):
                ready_idx[i, c, a] = (base + src) * span + pad - delay
                ready_streams[i, c, a] = stream_row(weights)
    scheds: List[Any] = []
    for i in range(n_inputs):
        schedule = first.inputs[i][2]
        if all(program.inputs[i][2] is schedule for program in programs):
            scheds.append(np.asarray(schedule[:iterations], dtype=np.int64))  # [K]
        else:
            table = np.empty((iterations, n_candidates), dtype=np.int64)
            for c, program in enumerate(programs):
                table[:, c] = program.inputs[i][2][:iterations]
            scheds.append(table)  # [K, C]

    streams = (
        np.vstack(stream_arrays)
        if iterations
        else np.zeros((len(stream_arrays), 0), dtype=np.int64)
    )
    # Mask-free ε semantics need non-negative weights with enough headroom
    # that an ε value drifting up by one weight per hop can never cross
    # the ε threshold.  Real duration tables sit many orders of magnitude
    # below the bound; fall back to the masked reference loop otherwise.
    if streams.size:
        max_positions = max(len(program.plan_nodes) for program in programs)
        max_hops = iterations * (max_positions + n_inputs) + 1
        if int(streams.min()) < 0 or int(streams.max()) * max_hops >= eps - neg:
            return [replay_program(program) for program in programs]

    # -- the sweep --------------------------------------------------------
    # Read/write indices advance by one cell per iteration, so each table
    # keeps a working copy that is incremented in place; gather/add/max
    # reuse preallocated buffers to keep the hot loop allocation-free.
    plan_state = [
        (
            plan_rows.copy(),
            arc_rows.copy(),
            streams[stream_rows],  # [rows, arcs, K] pre-gathered weights
            np.empty(arc_rows.shape, dtype=np.int64),
            np.empty(len(plan_rows), dtype=np.int64),
        )
        for plan_rows, arc_rows, stream_rows in level_tables
    ]
    ready_state = [
        (
            ready_idx[i].copy(),
            streams[ready_streams[i]],
            np.empty((n_candidates, ready_span), dtype=np.int64),
            np.empty(n_candidates, dtype=np.int64),
        )
        for i in range(n_inputs)
    ]
    exch_state = exchange_idx.copy()
    hist_flat = np.full((rows_total + 1) * span, neg, dtype=np.int64)
    now = np.zeros(n_candidates, dtype=np.int64)
    prev = np.full((n_candidates, n_inputs), neg, dtype=np.int64)
    offer_hist = np.zeros((n_candidates, n_inputs, iterations), dtype=np.int64)
    for k in range(iterations):
        for i in range(n_inputs):
            if max_ready:
                ridx, rweights, rval, rbest = ready_state[i]
                hist_flat.take(ridx, out=rval)
                np.add(rval, rweights[:, :, k], out=rval)
                rval.max(axis=1, out=rbest)
                np.maximum(now, rbest, out=now)
                ridx += 1
            arrival = np.maximum(prev[:, i], scheds[i][k])
            offer_hist[:, i, k] = arrival
            np.maximum(now, arrival, out=now)
            hist_flat[exch_state[i]] = now
            prev[:, i] = now
        exch_state += 1
        for plan_idx, arc_idx, weights_lk, val_buf, best_buf in plan_state:
            hist_flat.take(arc_idx, out=val_buf)
            np.add(val_buf, weights_lk[:, :, k], out=val_buf)
            val_buf.max(axis=1, out=best_buf)
            hist_flat[plan_idx] = best_buf
            arc_idx += 1
            plan_idx += 1

    # -- unpack per candidate (post-hoc monotonic/ε check) ----------------
    hist_rows = hist_flat[: rows_total * span].reshape(rows_total, span)
    results: List[Optional[ProgramResult]] = []
    for c, program in enumerate(programs):
        base = bases[c]
        failed = False
        actual: Dict[str, List[int]] = {}
        for relation, offer_idx in program.outputs:
            sequence = hist_rows[base + offer_idx, pad:]
            if iterations and (
                bool((sequence <= eps).any()) or bool((np.diff(sequence) < 0).any())
            ):
                failed = True
                break
            actual[relation] = sequence.tolist()
        if failed:
            results.append(None)
            continue
        offers = {
            relation: offer_hist[c, i, :].tolist()
            for i, (relation, _, _, _) in enumerate(program.inputs)
        }
        usage: Dict[str, List[Optional[int]]] = {}
        for name, idx in program.observed:
            row = hist_rows[base + idx, pad:]
            values = row.tolist()
            if bool((row <= eps).any()):
                keep = (row > eps).tolist()
                values = [v if f else None for v, f in zip(values, keep)]
            usage[name] = values
        results.append((offers, actual, usage))
    return results
