"""In-memory spans around the public functions of a package, and their roll-up.

A ``Tracer`` replaces every binding of a package's public functions (in
every submodule that imported them, so intra-package calls are caught
too) with a wrapper that records one span per call:
``(name, start_ns, end_ns, parent, run, value)``.  ``parent`` is the index
of the enclosing span in ``Tracer.spans`` (-1 at the top), ``run`` the
tracer's current run id, and ``value`` an optional per-call quantity
(bytes written, matrix elements) computed after the call returns.
``uninstall`` restores the original bindings, so untraced code pays
nothing.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from typing import Callable, NamedTuple


class Span(NamedTuple):
    name: str
    start_ns: int
    end_ns: int
    parent: int
    run: int
    value: int = 0

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, measure: Callable | None = None) -> Callable:
        """Return *fn* recording a span named *name* per call.

        ``measure(args, kwargs)`` gives the span's value once *fn* returned.
        """
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)  # placeholder keeps parents ahead of children
            stack.append(index)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[index] = Span(name, start, end, stack[-1] if stack else -1, self.run)
            if measure is not None:
                spans[index] = spans[index]._replace(value=int(measure(args, kwargs)))
            return result

        return traced

    def install(self, modules, extra=(), measures=None) -> None:
        """Wrap the public functions defined in *modules* wherever they are bound.

        *modules* maps a short name (the span prefix) to a module.  *extra*
        holds ``(owner, attribute, span_name)`` triples for outside
        functions, such as ``numpy.linalg.svd``.  *measures* maps span
        names to ``measure`` callables.
        """
        measures = measures or {}
        wrapped = {}
        for short, mod in modules.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped[id(fn)] = (fn, self.wrap(name, fn, measures.get(name)))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                entry = wrapped.get(id(value))
                if entry is not None and entry[0] is value:
                    self._patch(mod, attr, entry[1])
        for owner, attr, name in extra:
            self._patch(owner, attr, self.wrap(name, getattr(owner, attr), measures.get(name)))

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **span._asdict()}) + "\n")


def by_run(spans: list[Span]) -> dict[int, list[int]]:
    """Span indices grouped by run id."""
    runs: dict[int, list[int]] = {}
    for index, span in enumerate(spans):
        runs.setdefault(span.run, []).append(index)
    return runs


def _has_ancestor(spans: list[Span], index: int, match: Callable[[str], bool]) -> bool:
    parent = spans[index].parent
    while parent >= 0:
        if match(spans[parent].name):
            return True
        parent = spans[parent].parent
    return False


def calls(spans: list[Span], indices, name: str, within: tuple = ()) -> int:
    """Calls of *name*; with *within*, only those under a span named in it."""
    return sum(
        1
        for i in indices
        if spans[i].name == name
        and (not within or _has_ancestor(spans, i, within.__contains__))
    )


def busy_seconds(spans: list[Span], indices, match: Callable[[str], bool]) -> float:
    """Inclusive time of the matching spans, nested matches counted once."""
    return sum(
        spans[i].seconds
        for i in indices
        if match(spans[i].name) and not _has_ancestor(spans, i, match)
    )


def self_seconds(spans: list[Span], indices, name: str) -> float:
    """Time inside spans of *name* not covered by their child spans."""
    indices = list(indices)
    child_time: dict[int, int] = {}
    for i in indices:
        parent = spans[i].parent
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0) + spans[i].end_ns - spans[i].start_ns
    return sum(
        (spans[i].end_ns - spans[i].start_ns - child_time.get(i, 0)) * 1e-9
        for i in indices
        if spans[i].name == name
    )


def value_sum(spans: list[Span], indices, name: str) -> int:
    return sum(spans[i].value for i in indices if spans[i].name == name)
