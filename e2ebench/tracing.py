"""Self-time tracing of ``repro`` layers, installed from outside the program.

:class:`Tracer` swaps the public entry points of ``repro`` modules for thin
wrappers for the length of a ``with`` block and puts every original back on
exit.  A module-level function is rebound at every place that holds it by
name -- each ``repro.*`` module that imported it and each registered campaign
scenario that stores it -- so a call through any of those names is traced.

A wrapper records one span: its **self time** is its duration minus the
durations of the wrapped calls nested inside it, so the self times of all
layers add up to the traced share of the round without double counting.  A
wrapped call entered while a call of the *same layer name* is open folds into
the outer call (no second span, no second call count): a strategy's
``observe`` calling ``super().observe`` is one observation.

:func:`install_layers` wraps the entry points the benchmark reports, named
after their modules; :func:`layer_metrics` turns one traced round into those
metrics.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

OnResult = Callable[["Tracer", Any, Tuple[Any, ...]], None]


class Tracer:
    """Wraps callables for one block and accumulates per-layer self time.

    ``clock`` returns seconds; a test can pass a fake one.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        #: Free-form counts added by result hooks (records loaded, proposals).
        self.counts: Dict[str, int] = defaultdict(int)
        #: (enclosing layer, counted callable) -> calls, for count-only wraps.
        self.nested: Dict[Tuple[Optional[str], str], int] = defaultdict(int)
        self._stack: List[List[Any]] = []  # [layer name, child seconds]
        self._undo: List[Callable[[], None]] = []

    # -- accumulation ----------------------------------------------------
    def reset(self) -> None:
        """Forget everything recorded so far (the wrappers stay installed)."""
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()
        self.nested.clear()

    def _timed(self, func: Callable[..., Any], name: str,
               on_result: Optional[OnResult]) -> Callable[..., Any]:
        stack = self._stack
        self_s = self.self_s
        calls = self.calls
        clock = self.clock

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if stack and stack[-1][0] == name:
                return func(*args, **kwargs)
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[name] += elapsed - frame[1]
                calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if on_result is not None:
                on_result(self, result, args)
            return result

        return wrapper

    def _counted(self, func: Callable[..., Any], name: str) -> Callable[..., Any]:
        stack = self._stack
        nested = self.nested

        @functools.wraps(func)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            nested[(stack[-1][0] if stack else None, name)] += 1
            return func(*args, **kwargs)

        return wrapper

    # -- installation ----------------------------------------------------
    def wrap_function(self, module: str, attr: str, name: str,
                      on_result: Optional[OnResult] = None) -> None:
        """Trace a module-level function under ``name``, at every holder."""
        original = getattr(sys.modules[module], attr)
        self._rebind(original, self._timed(original, name, on_result))

    def wrap_method(self, cls: type, attr: str, name: str,
                    on_result: Optional[OnResult] = None) -> None:
        """Trace ``cls.attr`` (plain, class- or static method) under ``name``."""
        own = attr in cls.__dict__
        raw = next(klass.__dict__[attr] for klass in cls.__mro__ if attr in klass.__dict__)
        if isinstance(raw, (classmethod, staticmethod)):
            replacement: Any = type(raw)(self._timed(raw.__func__, name, on_result))
        else:
            replacement = self._timed(raw, name, on_result)
        setattr(cls, attr, replacement)
        if own:
            self._undo.append(lambda: setattr(cls, attr, raw))
        else:
            self._undo.append(lambda: delattr(cls, attr))

    def count_calls(self, owner: Any, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` per enclosing layer, without timing them."""
        original = getattr(owner, attr)
        setattr(owner, attr, self._counted(original, name))
        self._undo.append(lambda: setattr(owner, attr, original))

    def _rebind(self, original: Any, replacement: Any) -> None:
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "")
            if module_name != "repro" and not module_name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, replacement)
                    self._undo.append(functools.partial(setattr, module, key, original))
        registry_module = sys.modules.get("repro.campaign.registry")
        if registry_module is None:
            return
        for scenario in registry_module.default_registry().scenarios():
            for field in ("planner", "executor", "batch_executor"):
                if getattr(scenario, field) is original:
                    # Scenarios are frozen dataclasses holding their callables.
                    object.__setattr__(scenario, field, replacement)
                    self._undo.append(
                        functools.partial(object.__setattr__, scenario, field, original)
                    )

    def close(self) -> None:
        """Put every original back, newest wrap first."""
        while self._undo:
            self._undo.pop()()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


# ----------------------------------------------------------------------
# The layers the benchmark reports
# ----------------------------------------------------------------------
def _count_records_loaded(tracer: Tracer, result: Any, args: Tuple[Any, ...]) -> None:
    tracer.counts["campaign.store.records_loaded"] += len(args[0])


def _count_proposed(tracer: Tracer, result: Any, args: Tuple[Any, ...]) -> None:
    tracer.counts["dse.search.proposed"] += len(result)


def _count_batch(tracer: Tracer, result: Any, args: Tuple[Any, ...]) -> None:
    tracer.counts["dse.compile.batch_candidates"] += len(result)


def install_layers(tracer: Tracer) -> None:
    """Wrap the public entry point of every reported ``repro`` layer."""
    import repro.cli  # noqa: F401  (every by-name holder must be loaded first)
    from repro.campaign.results import JobResult
    from repro.campaign.runner import CampaignRunner
    from repro.campaign.store import ResultStore
    from repro.core.model import EquivalentArchitectureModel
    from repro.dse.compile import CompiledProblem
    from repro.dse.pareto import ParetoFront
    from repro.dse.search import SearchStrategy
    from repro.dse.space import DesignSpace, MappingCandidate
    from repro.explicit.model import ExplicitArchitectureModel
    from repro.tdg.evaluator import TDGEvaluator
    from repro.telemetry.ledger import RunLedger

    pending = [SearchStrategy]
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "propose" in cls.__dict__:
            tracer.wrap_method(cls, "propose", "dse.search.propose", _count_proposed)
        if "observe" in cls.__dict__:
            tracer.wrap_method(cls, "observe", "dse.search.observe")
    tracer.wrap_method(MappingCandidate, "digest", "dse.space.digest")
    tracer.wrap_method(DesignSpace, "crossover", "dse.space.crossover")
    tracer.wrap_method(DesignSpace, "mutate", "dse.space.mutate")
    tracer.wrap_function("repro.campaign.spec", "canonical_json",
                         "campaign.spec.canonical_json")
    tracer.wrap_method(CampaignRunner, "run", "campaign.runner")
    tracer.wrap_method(ResultStore, "__init__", "campaign.store.load",
                       _count_records_loaded)
    tracer.wrap_method(ResultStore, "get", "campaign.store.get")
    tracer.wrap_method(ResultStore, "put", "campaign.store.put")
    tracer.count_calls(os, "fsync", "os.fsync")
    tracer.wrap_method(JobResult, "from_record", "campaign.results.from_record")
    tracer.wrap_function("repro.dse.scenario", "execute_dse_batch",
                         "dse.scenario.execute_batch")
    tracer.wrap_function("repro.dse.scenario", "evaluation_record", "dse.scenario.record")
    # The per-candidate specialisation entry of evaluate_batch; the public
    # ``specialize`` it falls back to folds into the same layer.
    tracer.wrap_method(CompiledProblem, "_specialize_for_evaluation",
                       "dse.compile.specialize")
    tracer.wrap_method(CompiledProblem, "specialize", "dse.compile.specialize")
    tracer.wrap_method(CompiledProblem, "evaluate_batch", "dse.compile.evaluate_batch",
                       _count_batch)
    tracer.wrap_function("repro.dse.engine", "lower_spec", "dse.engine.lower")
    tracer.wrap_function("repro.dse.engine", "replay_batch", "dse.engine.sweep")
    tracer.wrap_method(ParetoFront, "offer", "dse.pareto.offer")
    tracer.wrap_method(RunLedger, "append", "telemetry.ledger.append")
    tracer.wrap_method(ExplicitArchitectureModel, "run", "explicit.run")
    tracer.wrap_function("repro.core.builder", "build_equivalent_spec", "core.build_spec")
    tracer.wrap_method(EquivalentArchitectureModel, "run", "core.run")
    tracer.wrap_method(TDGEvaluator, "step", "tdg.step")
    tracer.wrap_function("repro.observation.compare", "compare_instants",
                         "observation.compare")


#: Layer time metrics: metric name -> traced layer whose self time it reports.
TIME_METRICS = {
    "dse.search.propose_s": "dse.search.propose",
    "dse.search.observe_s": "dse.search.observe",
    "dse.space.digest_s": "dse.space.digest",
    "dse.space.crossover_s": "dse.space.crossover",
    "dse.space.mutate_s": "dse.space.mutate",
    "campaign.spec.canonical_json_s": "campaign.spec.canonical_json",
    "campaign.runner.self_s": "campaign.runner",
    "campaign.store.load_s": "campaign.store.load",
    "campaign.store.get_s": "campaign.store.get",
    "campaign.store.put_s": "campaign.store.put",
    "campaign.results.from_record_s": "campaign.results.from_record",
    "dse.scenario.execute_batch_self_s": "dse.scenario.execute_batch",
    "dse.scenario.record_s": "dse.scenario.record",
    "dse.compile.specialize_s": "dse.compile.specialize",
    "dse.compile.evaluate_batch_self_s": "dse.compile.evaluate_batch",
    "dse.engine.lower_s": "dse.engine.lower",
    "dse.engine.sweep_s": "dse.engine.sweep",
    "dse.pareto.offer_s": "dse.pareto.offer",
    "telemetry.ledger.append_s": "telemetry.ledger.append",
    "explicit.run_s": "explicit.run",
    "core.build_spec_s": "core.build_spec",
    "core.run_s": "core.run",
    "tdg.step_s": "tdg.step",
    "observation.compare_s": "observation.compare",
}

#: Layer call-count metrics: metric name -> traced layer whose calls it counts.
CALL_METRICS = {
    "dse.space.digest_calls": "dse.space.digest",
    "campaign.spec.canonical_json_calls": "campaign.spec.canonical_json",
    "campaign.store.puts": "campaign.store.put",
    "dse.compile.specialize_calls": "dse.compile.specialize",
    "dse.compile.batches": "dse.compile.evaluate_batch",
    "dse.engine.lower_calls": "dse.engine.lower",
    "dse.engine.sweep_calls": "dse.engine.sweep",
}

#: Telemetry counters a CLI run folds into its ledger manifest, reported as is.
COUNTER_METRICS = (
    "dse.compile.replay_steps",
    "dse.compile.explicit_fallbacks",
    "dse.steady.fallbacks",
    "dse.engine.lower_fallbacks",
)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, counters: Dict[str, int]) -> Dict[str, float]:
    """One traced round's layer metrics (times in s, counts as counts).

    ``counters`` are the telemetry counters of the round's ledger manifests.
    Ratios whose base is zero (an idle layer) report 0.
    """
    metrics: Dict[str, float] = {}
    for metric, layer in TIME_METRICS.items():
        metrics[metric] = tracer.self_s.get(layer, 0.0)
    for metric, layer in CALL_METRICS.items():
        metrics[metric] = float(tracer.calls.get(layer, 0))
    for counter in COUNTER_METRICS:
        metrics[counter] = float(counters.get(counter, 0))
    metrics["dse.search.proposed"] = float(tracer.counts.get("dse.search.proposed", 0))
    metrics["campaign.store.records_loaded"] = float(
        tracer.counts.get("campaign.store.records_loaded", 0)
    )
    metrics["campaign.store.fsyncs"] = float(
        tracer.nested.get(("campaign.store.put", "os.fsync"), 0)
    )
    metrics["dse.compile.candidates_per_batch"] = _ratio(
        tracer.counts.get("dse.compile.batch_candidates", 0),
        tracer.calls.get("dse.compile.evaluate_batch", 0),
    )
    metrics["dse.steady.extrapolated_ratio"] = _ratio(
        counters.get("dse.steady.extrapolations", 0),
        counters.get("dse.evaluate.evaluations", 0),
    )
    return metrics
