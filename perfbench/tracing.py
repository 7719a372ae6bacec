"""Spans around the calls into netsel's layers, recorded from outside.

The library is not edited: ``Tracer.install`` replaces each traced
function at every module attribute that binds it (``netsel.chain.classify``
and ``netsel.montecarlo.classify`` alike), so calls between modules are
seen too.  Spans stay in memory as ``(name, start, end, parent)`` tuples
and are aggregated once the traced pass is over.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# Layer entry points worth a span.  Helpers called O(n) times per
# analysis (utility_primary, social_welfare, Fermi.probability) are left
# out: wrapping them would measure the wrapper, not the layer.
TRACED = {
    "config": ("parse_config",),
    "protocols": ("fermi_from_ratio", "beta_reference"),
    "model": ("expected_poa", "critical_state"),
    "chain": (
        "build_kernel",
        "classify",
        "stationary_product",
        "stationary_eigen",
        "stationary_noise_free",
        "absorption_analysis",
    ),
    "replicator": ("integrate",),
    "montecarlo": ("run", "absorption_frequency"),
    "cli": ("main",),
}
# Bound outside netsel too, so solves are counted however chain imports it.
EXTERNAL = {"scipy.linalg": {"solve_banded": "linalg.solve_banded"}}

# Work counted at the same boundaries: span name -> counters from the
# call's arguments and result.
COUNTERS = {
    "montecarlo.run": lambda args, kwargs, result: {
        "events": args[0].steps * args[0].replicas,
        "replicas": args[0].replicas,
    },
    "montecarlo.absorption_frequency": lambda args, kwargs, result: {
        "replicas": result.replicas,
        "unabsorbed": result.unabsorbed,
        "absorbed_steps": result.mean_steps * (result.replicas - result.unabsorbed),
    },
    "replicator.integrate": lambda args, kwargs, result: {"samples": len(result.trajectory)},
}


class Tracer:
    """Nested spans in memory; ``install`` adds the library's calls to them."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append((name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _exit(self, index: int) -> None:
        self._stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, time.perf_counter(), parent)

    @contextmanager
    def span(self, name: str):
        index = self._enter(name)
        try:
            yield
        finally:
            self._exit(index)

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(index)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    key = f"{name}.{key}"
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every traced function wherever a netsel module binds it."""
        import netsel.cli  # noqa: F401  (loads every layer module)

        targets = {}
        for layer, names in TRACED.items():
            module = sys.modules[f"netsel.{layer}"]
            for attr in names:
                fn = getattr(module, attr)
                targets[id(fn)] = self._wrap(f"{layer}.{attr}", fn)
        for mod_name, names in EXTERNAL.items():
            module = sys.modules.get(mod_name)
            for attr, span_name in names.items():
                fn = getattr(module, attr, None)
                if fn is not None:
                    targets[id(fn)] = self._wrap(span_name, fn)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name in EXTERNAL or mod_name == "netsel" or mod_name.startswith("netsel.")):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = targets.get(id(value))
                if wrapper is not None:
                    self._saved.append((module, attr, value))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._saved):
            setattr(module, attr, value)
        self._saved.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self._stack.clear()


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive seconds and self seconds.

    Self time is a span's duration minus the durations of its direct
    children, which nest inside it on one thread.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[str, dict[str, float]] = {}
    for i, (name, start, end, _) in enumerate(spans):
        entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
    return out


def count_under(spans, name: str, root: str) -> int:
    """Spans called ``name`` that have an ancestor called ``root``."""
    hits = 0
    for span_name, _, _, parent in spans:
        if span_name != name:
            continue
        while parent >= 0:
            if spans[parent][0] == root:
                hits += 1
                break
            parent = spans[parent][3]
    return hits
