"""Span tracing around the package's public functions, from outside it.

The package modules import each other's functions by name
(``from .graphs import parse_graph6``), so a function is reachable
through several module attributes.  ``Tracer.install`` replaces every
attribute in every ``immersions`` module that is the original function,
and ``remove`` puts the originals back.

Spans stay in memory as lists and are written out only at the end.  A
span's busy time is its duration; for a generator function it is the
sum of the time spent inside each resumption, so time the consumer
spends between two items is not charged to the generator.  Self time is
busy time minus the busy time of the spans it caused.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict

# span fields
ID, PARENT, NAME, START, END, BUSY, CHILD, FOUND = range(8)

# (module, function, labeller, outcome).  The labeller adds a suffix to
# the span name from the call's arguments; the outcome maps a return
# value to whether the call produced something useful.  A generator's
# span counts the items it yielded instead.
TRACED = (
    ("graphs", "parse_graph6", None, None),
    ("graphs", "encode_graph6", None, None),
    ("graphs", "independence_number", None, None),
    ("graphs", "max_clique", None, None),
    ("coloring", "chromatic_number", None, None),
    ("immersion", "find_clique_immersion", None, lambda cert: cert is not None),
    ("immersion", "max_clique_immersion", lambda args, kwargs: _flags_label(args, kwargs), None),
    ("immersion", "verify_certificate", None, None),
    ("construct", "build_third_immersion", None, None),
    ("families", "canonical_form", None, None),
    ("families", "enumerate_graphs", None, None),
    ("families", "enumerate_alpha_le2", None, None),
    ("checks", "run_batch", None, None),
    ("checks", "evaluate_graph", None, None),
)

PACKAGE = "immersions"
MODULES = ("graphs", "coloring", "immersion", "construct", "families", "checks")


def _flags_label(args, kwargs) -> str:
    flags = kwargs["flags"] if "flags" in kwargs else args[1]
    if flags.strong and flags.odd:
        return "strong_odd"
    if not flags.strong and not flags.odd:
        return "plain"
    return flags.label().replace("+", "_")


def span_names() -> list[str]:
    """Every span name the traced functions can produce on the workloads."""
    names = []
    for module, function, labeller, _ in TRACED:
        base = f"{module}.{function}"
        if labeller is None:
            names.append(base)
        else:
            names += [f"{base}.plain", f"{base}.strong_odd"]
    return names


class Tracer:
    def __init__(self, now=time.perf_counter):
        self.now = now
        self.spans: list[list] = []
        self.stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> list:
        parent = self.stack[-1][ID] if self.stack else -1
        span = [len(self.spans), parent, name, self.now(), 0.0, 0.0, 0.0, None]
        self.spans.append(span)
        return span

    def _close(self, span: list, busy: float) -> None:
        span[BUSY] += busy
        if span[PARENT] >= 0:
            self.spans[span[PARENT]][CHILD] += busy

    def _wrap(self, base: str, original, labeller, outcome):
        tracer = self

        def name_of(args, kwargs):
            return f"{base}.{labeller(args, kwargs)}" if labeller else base

        if inspect.isgeneratorfunction(original):
            def traced_generator(*args, **kwargs):
                span = tracer._open(name_of(args, kwargs))
                iterator = original(*args, **kwargs)
                while True:
                    tracer.stack.append(span)
                    start = tracer.now()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                    finally:
                        end = tracer.now()
                        tracer.stack.pop()
                        span[END] = end
                        tracer._close(span, end - start)
                    span[FOUND] = (span[FOUND] or 0) + 1
                    yield item

            return traced_generator

        def traced(*args, **kwargs):
            span = tracer._open(name_of(args, kwargs))
            tracer.stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                end = tracer.now()
                tracer.stack.pop()
                span[END] = end
                tracer._close(span, end - span[START])
            if outcome is not None:
                span[FOUND] = bool(outcome(result))
            return result

        return traced

    def install(self) -> None:
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for module_name, function, labeller, outcome in TRACED:
            original = getattr(sys.modules[f"{PACKAGE}.{module_name}"], function)
            wrapper = self._wrap(f"{module_name}.{function}", original, labeller, outcome)
            for module in modules:
                for attribute, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attribute, wrapper)
                        self._patches.append((module, attribute, original))

    def remove(self) -> None:
        for module, attribute, original in reversed(self._patches):
            setattr(module, attribute, original)
        self._patches.clear()

    def write(self, path) -> None:
        with open(path, "w", encoding="ascii") as handle:
            for span in self.spans:
                handle.write(json.dumps(span[: FOUND + 1]) + "\n")

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, outermost busy total, self time, busy list, found count."""
        out: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0, "busy": [], "found": 0}
        )
        for span in self.spans:
            entry = out[span[NAME]]
            entry["calls"] += 1
            entry["self_s"] += span[BUSY] - span[CHILD]
            entry["busy"].append(span[BUSY])
            entry["found"] += int(span[FOUND] or 0)
            ancestor = span[PARENT]
            while ancestor >= 0 and self.spans[ancestor][NAME] != span[NAME]:
                ancestor = self.spans[ancestor][PARENT]
            if ancestor < 0:
                entry["total_s"] += span[BUSY]
        return dict(out)
