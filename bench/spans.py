"""In-memory spans around calls into cvlbi's public functions.

A span is ``[name, start, end, parent]`` with ``parent`` the index of the span
that was open when it started (-1 for none). The process is single-threaded,
so spans nest and a span's self time is its duration minus the durations of
its direct children.
"""

from __future__ import annotations

import csv
import functools
import sys
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, keep_results=()):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._keep = frozenset(keep_results)
        #: return values of the traced functions named in ``keep_results``
        self.results: dict[str, list] = defaultdict(list)

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def wrap(self, name: str, fn):
        keep = name in self._keep

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(index)
            if keep:
                self.results[name].append(out)
            return out

        return traced

    def durations(self, name: str, parent: str | None = None) -> list[float]:
        """Durations in seconds of the spans called ``name`` (under a parent called ``parent``)."""
        return [
            end - start
            for span_name, start, end, up in self.spans
            if span_name == name and (parent is None or (up >= 0 and self.spans[up][0] == parent))
        ]

    def self_times(self, roots) -> dict[str, float]:
        """Self time in seconds per span name, summed over the subtrees of ``roots``."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, up in self.spans:
            if up >= 0:
                own[up] -= end - start
        inside = [False] * len(self.spans)
        for index in roots:
            inside[index] = True
        totals: dict[str, float] = defaultdict(float)
        for index, (name, _, _, up) in enumerate(self.spans):
            if up >= 0 and inside[up]:
                inside[index] = True
            if inside[index]:
                totals[name] += own[index]
        return dict(totals)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as handle:
            writer = csv.writer(handle)
            writer.writerow(["index", "name", "start_s", "end_s", "parent"])
            for index, (name, start, end, up) in enumerate(self.spans):
                writer.writerow([index, name, repr(start), repr(end), up])


@contextmanager
def instrumented(tracer: Tracer, targets: dict[str, list[str]]):
    """Replace each ``module.function`` of cvlbi by a traced wrapper while the block runs.

    Every loaded ``cvlbi`` module that holds the same function object under the
    same name (the package re-exports, ``from .x import f``) gets the wrapper, so
    calls made inside the package are traced too.
    """
    modules = [m for n, m in list(sys.modules.items()) if n == "cvlbi" or n.startswith("cvlbi.")]
    patched = []
    for module_name, names in targets.items():
        home = sys.modules[f"cvlbi.{module_name}"]
        for name in names:
            original = getattr(home, name)
            wrapper = tracer.wrap(name, original)
            for module in modules:
                if getattr(module, name, None) is original:
                    setattr(module, name, wrapper)
                    patched.append((module, name, original))
    try:
        yield
    finally:
        for module, name, original in patched:
            setattr(module, name, original)
