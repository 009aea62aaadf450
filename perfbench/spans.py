"""Span bookkeeping for the traced run.

A span is ``(name, parent, start, end)``: ``parent`` is the index of the
enclosing span in the same list, or ``None`` for a root. Names are
``<module>.<function>``, so the module (the layer) is the part before the
first dot.
"""

from __future__ import annotations

from collections import defaultdict


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the part of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for name, parent, start, end in spans:
        if parent is not None:
            children[parent].append((start, end))
    return [(end - start) - covered(children[i], start, end)
            for i, (_, _, start, end) in enumerate(spans)]


def aggregate(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, inclusive and self seconds.

    Inclusive time counts only the outermost span of a name, so a function
    that re-enters itself is not counted twice.
    """
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for i, (name, parent, start, end) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["self_s"] += selfs[i]
        ancestor = parent
        while ancestor is not None and spans[ancestor][0] != name:
            ancestor = spans[ancestor][1]
        if ancestor is None:
            agg["total_s"] += end - start
    return out


def layer_self_times(spans) -> dict[str, float]:
    """Self seconds summed per layer (the module part of each span name)."""
    out: dict[str, float] = defaultdict(float)
    for (name, *_), s in zip(spans, self_times(spans)):
        out[name.split(".", 1)[0]] += s
    return dict(out)
