"""The benchmark's tracer: wrappers come off cleanly and self times add up."""

from __future__ import annotations

import os
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import repro.cli  # noqa: E402,F401  (loads every by-name holder)
from repro.campaign.registry import default_registry  # noqa: E402
from tracing import Tracer, install_layers  # noqa: E402


def _holders():
    """Every callable reachable by name from repro modules, classes and scenarios."""
    seen = {}
    for module in list(sys.modules.values()):
        name = getattr(module, "__name__", "")
        if name != "repro" and not name.startswith("repro."):
            continue
        for key, value in vars(module).items():
            seen[(name, key)] = value
            if isinstance(value, type) and value.__module__.startswith("repro"):
                for attr, member in vars(value).items():
                    seen[(name, key, attr)] = member
    for scenario in default_registry().scenarios():
        for field in ("planner", "executor", "batch_executor"):
            seen[("scenario", scenario.name, field)] = getattr(scenario, field)
    seen[("os", "fsync")] = os.fsync
    return seen


def test_every_original_comes_back_after_the_block():
    import repro.campaign.spec as spec
    import repro.dse.scenario as scenario
    import repro.dse.space as space

    default_registry()  # built lazily; build it before the snapshot
    before = _holders()
    canonical_json = spec.canonical_json
    batch = scenario.execute_dse_batch
    with Tracer() as tracer:
        install_layers(tracer)
        # by-name rebinds: the importing modules and the registered scenario
        assert space.canonical_json is not canonical_json
        assert space.canonical_json is spec.canonical_json
        assert default_registry().get("dse-eval").batch_executor is not batch
        assert os.fsync is not before[("os", "fsync")]
    after = _holders()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
    assert space.canonical_json is canonical_json
    assert default_registry().get("dse-eval").batch_executor is batch


def test_a_by_name_call_site_is_traced():
    from repro.dse.problems import get_problem

    candidate = get_problem("chain").space({}).default_candidate()
    with Tracer() as tracer:
        tracer.wrap_function("repro.campaign.spec", "canonical_json", "canonical")
        candidate.digest()  # repro.dse.space calls canonical_json by name
    assert tracer.calls["canonical"] == 1


class _Clock:
    """A fake clock: time passes only when a test advances it."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class _Layers:
    """Calls nested three deep; each method spends fixed time on ``clock``."""

    def __init__(self, clock):
        self.clock = clock

    def outer(self):
        self.clock.now += 2.0
        self.inner()
        self.inner()
        return self.same()

    def inner(self):
        self.clock.now += 1.0

    def same(self):
        return self.same_nested()

    def same_nested(self):
        self.clock.now += 1.0
        return 7


def test_nested_self_times_sum_to_the_outer_call():
    clock = _Clock()
    with Tracer(clock) as tracer:
        tracer.wrap_method(_Layers, "outer", "outer")
        tracer.wrap_method(_Layers, "inner", "inner")
        tracer.wrap_method(_Layers, "same", "same")
        tracer.wrap_method(_Layers, "same_nested", "same")
        assert _Layers(clock).outer() == 7
    # no double counting: the outer span excludes its nested spans, so the
    # self times add up to the outer call's duration
    assert clock.now == 5.0
    assert sum(tracer.self_s.values()) == clock.now
    assert tracer.self_s == {"outer": 2.0, "inner": 2.0, "same": 1.0}
    # a same-name call nested in an open call folds into it
    assert tracer.calls == {"outer": 1, "inner": 2, "same": 1}


def test_inherited_methods_are_removed_not_overwritten():
    class Child(_Layers):
        pass

    with Tracer(_Clock()) as tracer:
        tracer.wrap_method(Child, "inner", "inner")
        assert "inner" in Child.__dict__
        Child(_Clock()).inner()
    assert "inner" not in Child.__dict__
    assert tracer.calls["inner"] == 1
