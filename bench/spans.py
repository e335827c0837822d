"""Span records for traced benchmark ops, and the arithmetic over them.

A span is one call of a wrapped function: its id, the id of the span that
was open when it started (its parent), its name, and its start and end on
the ``time.perf_counter_ns`` clock. All spans of one op share that op's id.
A ``Tracer`` keeps spans in memory and writes them as JSONL only when told
to, which the traced entry script does once, when the op exits.

This module is imported by the traced child and by the driver, so it uses
the standard library only.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    """In-memory span recorder for one op."""

    def __init__(self, op_id: str):
        self.op_id = op_id
        self.spans: list[list] = []     # [id, parent, name, start_ns, end_ns, attrs]
        self._open: list[int] = []

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` recording one span per call under ``name``.

        ``attrs(args, kwargs, result)`` may return a dict of counts to attach
        to the span; it runs after the span has closed, so its cost is not
        part of the span's duration.
        """
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [len(spans), open_[-1] if open_ else None, name,
                    time.perf_counter_ns(), None, None]
            spans.append(span)
            open_.append(span[0])
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                open_.pop()
            if attrs is not None:
                span[5] = attrs(args, kwargs, result)
            return result

        return wrapper

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for sid, parent, name, start, end, attrs in self.spans:
                rec = {"op": self.op_id, "id": sid, "parent": parent, "name": name,
                       "start_ns": start, "end_ns": end}
                if attrs:
                    rec["attrs"] = attrs
                f.write(json.dumps(rec, separators=(",", ":")) + "\n")


def load(path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]


def _covered_ns(lo: int, hi: int, intervals) -> int:
    """Length of the part of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times_ns(spans: list[dict]) -> dict[int, int]:
    """Span id -> its duration minus the time its child spans cover.

    Children are clipped to the parent's interval and overlapping children
    count once, so self time is never negative.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start_ns"], s["end_ns"]))
    return {s["id"]: (s["end_ns"] - s["start_ns"])
            - _covered_ns(s["start_ns"], s["end_ns"], children.get(s["id"], ()))
            for s in spans}


def summarize(spans: list[dict]) -> dict[str, dict]:
    """Per span name: calls, inclusive ms, self ms and summed attributes."""
    selfs = self_times_ns(spans)
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s["name"], {"calls": 0, "ms": 0.0, "self_ms": 0.0,
                                         "attrs": defaultdict(float)})
        row["calls"] += 1
        row["ms"] += (s["end_ns"] - s["start_ns"]) / 1e6
        row["self_ms"] += selfs[s["id"]] / 1e6
        for key, value in (s.get("attrs") or {}).items():
            row["attrs"][key] += value
    return out
