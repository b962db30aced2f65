"""Per-layer counts and self times, gathered by temporarily rebinding negosim functions.

negosim modules import one another's functions by name (``tactics``,
``protocol`` and ``prediction`` all hold their own ``total_profit``), so
wrapping a function means replacing every binding of it: in each negosim
module's namespace and in each negosim class's ``__dict__``. ``Tracer``
does that on entry and puts every original object back on exit.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass

# (span name, defining module, qualified name); the span name's prefix is the layer
TARGETS = (
    ("domain.enumerate_offers", "negosim.domain", "enumerate_offers"),
    ("domain.total_profit", "negosim.domain", "total_profit"),
    ("domain.reservation_utility", "negosim.domain", "reservation_utility"),
    ("tactics.propose", "negosim.tactics", "Tactic.propose"),
    ("tactics.offer_for_target", "negosim.tactics", "offer_for_target"),
    ("tactics.behavior_target", "negosim.tactics", "behavior_target"),
    ("protocol.run_session", "negosim.protocol", "run_session"),
    ("protocol.check_termination", "negosim.protocol", "check_termination"),
    ("protocol.respond", "negosim.protocol", "respond"),
    ("prediction.advise", "negosim.prediction", "advise"),
    ("prediction.select_model", "negosim.prediction", "select_model"),
    ("prediction.estimate_crossing", "negosim.prediction", "estimate_crossing"),
    ("coordination.run_one_to_many", "negosim.coordination", "run_one_to_many"),
    ("coordination.coordinate", "negosim.coordination", "coordinate"),
    ("harness.load_scenario", "negosim.harness", "load_scenario"),
    ("harness.run_batch", "negosim.harness", "run_batch"),
    ("harness.write_outputs", "negosim.harness", "write_outputs"),
    ("harness.trace_csv", "negosim.harness", "trace_csv"),
)

# spans whose results are also counted: name -> size of one result
ITEM_COUNTS = {"domain.enumerate_offers": len}


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0  # duration minus the part covered by traced callees
    total_s: float = 0.0
    items: int = 0


def _negosim_namespaces():
    """Every namespace that may hold a binding: negosim modules and their classes."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "negosim" or name.startswith("negosim.")):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == name:
                yield value


def _resolve(module_name: str, qualname: str):
    owner = sys.modules[module_name]
    *parents, attr = qualname.split(".")
    for parent in parents:
        owner = getattr(owner, parent)
    return vars(owner)[attr]


class Tracer:
    """Context manager: while active, every call to a target records a span."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {name: SpanStats() for name, _, _ in TARGETS}
        self._stack: list[float] = []  # per open span: time covered by its traced callees
        self._rebound: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        wrappers = {}
        for name, module_name, qualname in TARGETS:
            original = _resolve(module_name, qualname)
            wrappers[id(original)] = (original, self._wrap(name, original))
        try:
            for namespace in _negosim_namespaces():
                for attr, value in list(vars(namespace).items()):
                    found = wrappers.get(id(value))
                    if found is not None and found[0] is value:
                        setattr(namespace, attr, found[1])
                        self._rebound.append((namespace, attr, value))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self._restore()

    def _restore(self) -> None:
        while self._rebound:
            namespace, attr, original = self._rebound.pop()
            setattr(namespace, attr, original)

    def _wrap(self, name: str, fn):
        stat = self.stats[name]
        stack = self._stack
        count_items = ITEM_COUNTS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                covered = stack.pop()
                stat.calls += 1
                stat.self_s += elapsed - covered
                stat.total_s += elapsed
                if stack:
                    stack[-1] += elapsed
            if count_items is not None:
                stat.items += count_items(result)
            return result

        return traced
