"""In-memory spans for the traced benchmark run, and what is derived from them.

A span is a dict: ``id``, ``name``, ``start``, ``end`` (seconds on the
``time.perf_counter`` clock), ``parent`` (the enclosing span's id or None)
and ``attrs``.  ``run.py`` adds ``rep``, the repetition the span belongs to.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    """Collects spans while enabled; otherwise each call does almost nothing."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: list = []
        self._stack: list = []

    def record(self, name: str, start: float, end: float, **attrs) -> None:
        if self.enabled:
            self.spans.append({"id": len(self.spans), "name": name, "start": start,
                               "end": end, "parent": self._parent(), "attrs": attrs})

    def _parent(self):
        return self._stack[-1] if self._stack else None

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the block; it receives ``attrs``, to which it may add counts."""
        if not self.enabled:
            yield attrs
            return
        span = {"id": len(self.spans), "name": name, "start": 0.0, "end": 0.0,
                "parent": self._parent(), "attrs": attrs}
        self.spans.append(span)
        self._stack.append(span["id"])
        span["start"] = time.perf_counter()
        try:
            yield attrs
        finally:
            span["end"] = time.perf_counter()
            self._stack.pop()


def self_times(spans: list) -> dict:
    """Span id -> duration minus the time its direct children cover."""
    children: dict = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        last = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo, hi = max(c["start"], last), min(c["end"], s["end"])
            if hi > lo:
                covered += hi - lo
                last = hi
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def check_tree(spans: list) -> list:
    """Problems with a span list: dangling parents, inverted or escaping spans."""
    by_id = {s["id"]: s for s in spans}
    problems = []
    for s in spans:
        if s["end"] < s["start"]:
            problems.append(f"span {s['id']} {s['name']} ends before it starts")
        parent = s["parent"]
        if parent is None:
            continue
        if parent not in by_id:
            problems.append(f"span {s['id']} {s['name']} has no parent {parent}")
        elif (s["start"] < by_id[parent]["start"] or s["end"] > by_id[parent]["end"]):
            problems.append(f"span {s['id']} {s['name']} escapes its parent")
    for sid, t in self_times(spans).items():
        if t < 0:
            problems.append(f"span {sid} {by_id[sid]['name']} has negative self time {t}")
    return problems
