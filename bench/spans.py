"""Span recording from outside the package, for the traced run only.

The tracer swaps span-recording wrappers in at the boundaries between the
package's layers and restores the originals afterwards:

  * every name that one layer module imports from another (for example
    ``ghk.discord.standard_form`` or ``ghk.cli.correlation_report``);
  * every public method of a public class of a layer, since a method call
    on another layer's object (``sf.to_cm()`` in ``ghk.cli``) crosses the
    same boundary;
  * the entry points the benchmark calls (the public names of ``ghk`` and
    ``ghk.cli.main``).

A span belongs to the layer that defines the wrapped callable. Spans are
kept in memory, one list per span:
``[name, layer, start_ns, end_ns, parent, op, tag]``, where ``op`` is the
index of the operation span at the root of the call chain. Calls made
outside an operation (reference values, checks) are not recorded.
"""

from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "states", "symplectic", "discord", "affinity", "oracle")

NAME, LAYER, START, END, PARENT, OP, TAG = range(7)

REDUCTIONS = frozenset({"standard_form", "reduce_to_standard_form"})


def _report_family(report) -> str:
    return "out_of_family" if report.entropic_discord is None else "in_family"


# Spans of these callables are tagged from their result.
CLASSIFY = {
    "correlation_report": _report_family,
    "closest_product_state": lambda _: "closest_product",
}


class Tracer:
    """Install with ``with Tracer() as tracer:``; wrappers go when it exits."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation ------------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            self._install()
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc) -> None:
        self.restore()

    def _patch(self, owner, attr: str, fn, layer: str) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, self._wrap(fn, attr, layer))

    def _install(self) -> None:
        modules = {
            layer: importlib.import_module(f"ghk.{layer}") for layer in LAYERS
        }
        layer_of = {mod.__name__: layer for layer, mod in modules.items()}
        # Public methods first, so the classes wrapped below call them.
        for mod in modules.values():
            for cls in vars(mod).values():
                if not inspect.isclass(cls) or cls.__module__ != mod.__name__:
                    continue
                if cls.__name__.startswith("_"):
                    continue
                for attr, fn in list(vars(cls).items()):
                    if inspect.isfunction(fn) and not attr.startswith("_"):
                        self._patch(cls, attr, fn, layer_of[mod.__name__])
        owners = [*modules.values(), importlib.import_module("ghk")]
        for owner in owners:
            for attr, obj in list(vars(owner).items()):
                home = getattr(obj, "__module__", None)
                if attr.startswith("_") or home not in layer_of:
                    continue
                if home == owner.__name__ or not callable(obj):
                    continue
                self._patch(owner, attr, obj, layer_of[home])
        self._patch(modules["cli"], "main", modules["cli"].main, "cli")

    def restore(self) -> None:
        """Put every patched attribute back, last patched first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- recording ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter_ns
        classify = CLASSIFY.get(name)

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            span = [name, layer, clock(), 0, stack[-1], stack[0], None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
                if classify is not None:
                    span[TAG] = classify(result)
                return result
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def op(self, kind: str, call, *args):
        """Run ``call(*args)`` as one operation: the root span of its calls."""
        index = len(self.spans)
        span = [kind, "bench", time.perf_counter_ns(), 0, -1, index, None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            return call(*args)
        finally:
            span[END] = time.perf_counter_ns()
            self._stack.pop()


# -- analysis ----------------------------------------------------------------


def _covered(intervals: list[tuple[int, int]]) -> int:
    """Length of the union of half-open intervals."""
    total, reach = 0, None
    for start, end in sorted(intervals):
        if reach is None or start >= reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans: list[list]) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    return [
        span[END] - span[START] - _covered(children.get(i, []))
        for i, span in enumerate(spans)
    ]


def call_counts(spans: list[list]) -> Counter:
    """Number of recorded calls per (layer, name): the counts that must repeat."""
    return Counter((span[LAYER], span[NAME]) for span in spans)


def reductions_by_kind(spans: list[list]) -> dict[str, tuple[int, int]]:
    """(reductions, tagged calls) for each tag of ``CLASSIFY``.

    A reduction counts toward the nearest enclosing tagged span; calls that
    raised carry no tag and are left out.
    """
    reductions = Counter()
    calls = Counter(span[TAG] for span in spans if span[TAG] is not None)
    for span in spans:
        if span[NAME] not in REDUCTIONS:
            continue
        parent = span[PARENT]
        while parent >= 0 and spans[parent][NAME] not in CLASSIFY:
            parent = spans[parent][PARENT]
        if parent >= 0 and spans[parent][TAG] is not None:
            reductions[spans[parent][TAG]] += 1
    return {tag: (reductions[tag], calls[tag]) for tag in calls}
