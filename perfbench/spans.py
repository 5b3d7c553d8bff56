"""In-memory spans around calls into the ltspread modules.

A traced run rebinds the package's public cross-module names (for example
``build_system`` as seen by ``constructions``, ``extremal`` and ``cli``, or
``is_weakly_spreading`` as seen by ``extremal``) to wrappers that record a
span per call.  Nothing private is wrapped and no package file is edited;
``Tracer.uninstall`` restores every original binding.
"""

from __future__ import annotations

import contextlib
import sys
import time
import tracemalloc
from dataclasses import dataclass
from math import comb
from typing import Any, Callable, Iterator

# layer -> (defining module, public functions wrapped in that layer)
LAYER_FUNCTIONS: dict[str, tuple[str, tuple[str, ...]]] = {
    "core": ("ltspread.core", ("build_system",)),
    "constructions": (
        "ltspread.constructions",
        ("bose_skolem", "spreading_6p3", "crowning", "cayley_latin", "star_expansion"),
    ),
    "closure": (
        "ltspread.closure",
        (
            "closure",
            "neighbourhood",
            "is_spreading",
            "is_weakly_spreading",
            "is_strongly_connected",
            "expander_deficiency",
        ),
    ),
    "extremal": ("ltspread.extremal", ("min_weakly_spreading",)),
    "bounds": (
        "ltspread.bounds",
        ("tau", "lower_bound_constants", "bounds_report", "construction_density"),
    ),
    "cli": ("ltspread.cli", ("parse_system", "serialize_system", "run")),
}

LAYERS = ("process", *LAYER_FUNCTIONS)


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    start: float
    end: float
    parent: int | None  # index into the tracer's span list
    info: dict[str, Any]

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            parent = spans[span.parent]
            start, end = max(span.start, parent.start), min(span.end, parent.end)
            if end > start:
                children[span.parent].append((start, end))
    return [s.duration - _covered(c) for s, c in zip(spans, children)]


def top_level_covered(spans: list[Span]) -> float:
    """Wall time covered by at least one span."""
    return _covered([(s.start, s.end) for s in spans if s.parent is None])


def _describe(name: str, args: tuple, kwargs: dict, result: Any) -> dict[str, int]:
    """Additive work counts for one call, from its arguments and result."""
    func = name.split(".", 1)[1]
    if func in ("is_spreading", "is_weakly_spreading", "is_strongly_connected"):
        return {"seeds": result.checked_count}
    if func == "expander_deficiency":
        n = args[0].n
        sizes = result.per_size_min_neighbourhood
        return {"subsets": sum(comb(n, k) for k in sizes)}
    if func == "closure":
        return {"size": len(result)}
    if func == "min_weakly_spreading":
        return {"nodes": result.nodes_explored}
    if func == "build_system":
        return {"triples": len(result.triples)}
    if func == "parse_system":
        text = args[0] if args else kwargs["text"]
        return {"bytes": len(text.encode())}
    return {}


class Tracer:
    """Records spans in memory while installed.

    With ``measure_alloc`` set, each ``min_weakly_spreading`` call also runs
    under tracemalloc and records its peak allocation; that slows the call,
    so spans from such runs are not used for times.
    """

    def __init__(self, measure_alloc: bool = False) -> None:
        self.spans: list[Span] = []
        self.measure_alloc = measure_alloc
        self._stack: list[int] = []
        self._saved: list[tuple[Any, str, Callable]] = []

    def wrap(self, name: str, func: Callable) -> Callable:
        alloc = self.measure_alloc and name == "extremal.min_weakly_spreading"

        def traced(*args, **kwargs):
            with self.span(name) as span:
                if alloc:
                    tracemalloc.start()
                try:
                    result = func(*args, **kwargs)
                finally:
                    if alloc:
                        span.info["peak_alloc"] = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
            span.info.update(_describe(name, args, kwargs, result))
            return result

        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        """Record a span, nested in the open one, around the enclosed block."""
        span = Span(name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else None, {})
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def install(self) -> None:
        """Rebind every public layer function in every loaded ltspread module."""
        modules = [m for k, m in sys.modules.items() if k.split(".")[0] == "ltspread"]
        for layer, (module_name, names) in LAYER_FUNCTIONS.items():
            defining = sys.modules[module_name]
            for func_name in names:
                original = getattr(defining, func_name)
                wrapper = self.wrap(f"{layer}.{func_name}", original)
                for module in modules:
                    if getattr(module, func_name, None) is original:
                        self._saved.append((module, func_name, original))
                        setattr(module, func_name, wrapper)

    def uninstall(self) -> None:
        for module, func_name, original in reversed(self._saved):
            setattr(module, func_name, original)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()


def spans_to_json(spans: list[Span]) -> list[dict[str, Any]]:
    return [
        {"name": s.name, "start": s.start, "end": s.end, "parent": s.parent, "info": s.info}
        for s in spans
    ]


def spans_from_json(rows: list[dict[str, Any]], offset: int = 0) -> list[Span]:
    """Rebuild spans, shifting parent indices by offset for concatenation."""
    return [
        Span(
            r["name"],
            r["start"],
            r["end"],
            None if r["parent"] is None else r["parent"] + offset,
            r["info"],
        )
        for r in rows
    ]
