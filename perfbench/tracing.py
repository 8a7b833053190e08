"""Span tracing for one traced benchmark invocation, and its analysis.

``Tracer.install`` replaces every public function of the layer modules
``rieszfd.coeffs``, ``operators``, ``pde``, ``harness`` and ``cli`` with a
timing wrapper, at every ``rieszfd`` module attribute that is bound to it
(``pde.step`` and ``harness.step`` alike), since callers look those up at
call time.  ``restore`` puts every original back.  A few extra points are
wrapped as well:

* ``harness._solver_error`` and ``harness._operator_error`` as
  ``harness.cell``, one span per convergence-study cell;
* the ``source`` and ``exact`` callables of the problem returned by
  ``harness.example42_problem``, as ``harness.source`` and ``harness.exact``;
* ``harness.ThreadPoolExecutor``, by a subclass that runs each task in a
  copy of the submitting thread's context, so spans on worker threads nest
  under the span that submitted them.

A span is ``(id, parent id, name, thread id, start, end)`` with times from
``time.perf_counter``.  Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import contextvars
import dataclasses
import functools
import importlib
import inspect
import itertools
import json
import math
import sys
import threading
import time
from collections import defaultdict

LAYERS = ("coeffs", "operators", "pde", "harness", "cli")
CELL_FUNCTIONS = ("_solver_error", "_operator_error")

ID, PARENT, NAME, THREAD, START, END = range(6)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {}
        self._current = contextvars.ContextVar("perfbench_span", default=None)
        self._ids = itertools.count(1)
        self._patches: list[tuple] = []

    def wrap(self, name, fn, after=None):
        """Return ``fn`` wrapped to record one span per call.  ``after``,
        if given, maps the result to the value returned to the caller."""
        spans, current, ids, clock = self.spans, self._current, self._ids, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = next(ids)
            parent = current.get()
            token = current.set(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return after(result) if after is not None else result
            finally:
                end = clock()
                current.reset(token)
                spans.append((sid, parent, name, threading.get_ident(), start, end))

        return traced

    def _problem_with_traced_callables(self, problem):
        return dataclasses.replace(
            problem,
            source=self.wrap("harness.source", problem.source),
            exact=self.wrap("harness.exact", problem.exact),
        )

    def _record_system_bytes(self, system):
        held = 0
        for field in dataclasses.fields(system):
            value = getattr(system, field.name)
            for item in value if isinstance(value, tuple) else (value,):
                held += getattr(item, "nbytes", 0)
        self.counters["pde.system_bytes"] = max(self.counters.get("pde.system_bytes", 0), held)
        return system

    def install(self) -> None:
        """Patch every layer's public functions; see the module docstring."""
        from concurrent.futures import ThreadPoolExecutor

        modules = [importlib.import_module(f"rieszfd.{layer}") for layer in LAYERS]
        after = {
            "harness.example42_problem": self._problem_with_traced_callables,
            "pde.assemble_system": self._record_system_bytes,
        }
        wrappers: dict[int, tuple] = {}
        for layer, module in zip(LAYERS, modules):
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    name = f"{layer}.{attr}"
                    wrappers[id(fn)] = (fn, self.wrap(name, fn, after.get(name)))
        harness = sys.modules["rieszfd.harness"]
        for attr in CELL_FUNCTIONS:
            fn = getattr(harness, attr)
            wrappers[id(fn)] = (fn, self.wrap("harness.cell", fn))

        for module_name, module in sorted(sys.modules.items()):
            if module is None or not (module_name == "rieszfd" or module_name.startswith("rieszfd.")):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(module, attr, entry[1])

        class ContextThreadPoolExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(contextvars.copy_context().run, fn, *args, **kwargs)

        self._patch(harness, "ThreadPoolExecutor", ContextThreadPoolExecutor)

    def _patch(self, module, attr, replacement) -> None:
        self._patches.append((module, attr, getattr(module, attr)))
        setattr(module, attr, replacement)

    def restore(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump({"spans": self.spans, "counters": self.counters}, handle)


def _covered(start: float, end: float, intervals: list) -> float:
    """Length of the union of ``intervals`` clipped to [start, end]."""
    total, reach = 0.0, start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        children[span[PARENT]].append((span[START], span[END]))
    return {
        span[ID]: (span[END] - span[START])
        - _covered(span[START], span[END], children.get(span[ID], []))
        for span in spans
    }


def _percentile(sorted_values: list, q: float) -> float:
    """Nearest-rank percentile of a non-empty ascending list."""
    return sorted_values[max(1, math.ceil(q / 100 * len(sorted_values))) - 1]


def summarise(spans, counters) -> dict[str, float]:
    """Per-layer metrics of one traced invocation.  ``trace.wall_s`` is the
    duration of the root ``cli.run`` span."""
    selfs = self_times(spans)
    calls = defaultdict(int)
    busy = defaultdict(float)
    own = defaultdict(float)
    step_self = []
    for span in spans:
        name = span[NAME]
        calls[name] += 1
        busy[name] += span[END] - span[START]
        own[name] += selfs[span[ID]]
        if name == "pde.step":
            step_self.append(selfs[span[ID]])
    step_self.sort()
    study = busy["harness.convergence_study"]
    return {
        "cli.self_s": own["cli.run"],
        "harness.source.calls": calls["harness.source"],
        "harness.source.busy_s": busy["harness.source"],
        "harness.exact.calls": calls["harness.exact"],
        "harness.exact.busy_s": busy["harness.exact"],
        "pde.step.calls": calls["pde.step"],
        "pde.step.self_s": own["pde.step"],
        "pde.step.p50_us": 1e6 * _percentile(step_self, 50) if step_self else 0.0,
        "pde.step.p99_us": 1e6 * _percentile(step_self, 99) if step_self else 0.0,
        "pde.step.samples": len(step_self),
        "pde.system_bytes": counters.get("pde.system_bytes", 0),
        "pde.assemble_system.calls": calls["pde.assemble_system"],
        "pde.assemble_system.self_s": own["pde.assemble_system"],
        "operators.riesz_matrix.calls": calls["operators.riesz_matrix"],
        "operators.riesz_matrix.busy_s": busy["operators.riesz_matrix"],
        "coeffs.kappa_weights.calls": calls["coeffs.kappa_weights"],
        "coeffs.kappa_weights.busy_s": busy["coeffs.kappa_weights"],
        "harness.convergence_study.busy_s": study,
        "harness.parallelism": busy["harness.cell"] / study if study > 0 else 0.0,
        "trace.spans": len(spans),
        "trace.wall_s": busy["cli.run"],
    }
