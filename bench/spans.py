"""Span recording and the arithmetic the benchmark reports.

A span is one call into a layer: its name, start and end on the
``time.perf_counter`` clock, and the index of the span that was open
when it started (-1 for none). Spans live in memory and are written out
once the run ends.
"""

from __future__ import annotations

import bisect
import functools
import json
import time
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span


class Recorder:
    """Collects spans from wrapped callables; single-threaded."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped so that each call records a span ``name``."""
        spans, open_ = self.spans, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = Span(name, time.perf_counter(), 0.0, open_[-1] if open_ else -1)
            spans.append(span)
            open_.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                open_.pop()
                span.end = time.perf_counter()

        return traced

    def write_jsonl(self, fh, **tags) -> None:
        """One JSON object per span, with ``tags`` added to each."""
        for i, s in enumerate(self.spans):
            record = {"id": i, "name": s.name, "start": s.start, "end": s.end, "parent": s.parent}
            fh.write(json.dumps(record | tags) + "\n")


class Patched:
    """Context manager that swaps attributes for wrapped versions.

    ``replacements`` holds ``(owner, attribute, wrap)`` triples, where
    ``wrap`` takes the original callable and returns its stand-in. The
    originals are put back on exit, in reverse order.
    """

    def __init__(self, replacements):
        self.replacements = list(replacements)
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        for owner, attr, wrap in self.replacements:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        return self

    def __exit__(self, *exc):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        return False


# ---------------------------------------------------------------------------
# arithmetic


def percentile(values, q: float) -> float:
    """Linear interpolation between closest ranks (numpy's default)."""
    data = sorted(values)
    if not data:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must lie in [0, 100], got {q}")
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def union_length(intervals) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: list[list[tuple[float, float]]] = [[] for _ in spans]
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append((s.start, s.end))
    out = []
    for s, kids in zip(spans, children):
        clipped = [(max(a, s.start), min(b, s.end)) for a, b in kids if b > s.start and a < s.end]
        out.append((s.end - s.start) - union_length(clipped))
    return out


def batch_intervals(requests: list[float]) -> list[float]:
    """Batch i lasts from the request for batch i to the request for i+1.

    ``requests`` holds one time per request, including the final request
    that found the stream exhausted, so n batches give n+1 times.
    """
    return [b - a for a, b in zip(requests, requests[1:])]


def samples_per_s(batch_size: int, batches: int, seconds: float) -> float:
    if seconds <= 0.0:
        raise ValueError(f"stream wall time must be > 0, got {seconds}")
    return batch_size * batches / seconds


@dataclass
class BatchSplit:
    """Per-batch totals of one traced stream, in seconds."""

    inclusive: list[dict[str, float]]  # span name -> summed durations
    exclusive: list[dict[str, float]]  # span name -> summed self times
    calls: list[dict[str, int]]
    uncovered: list[float]  # batch time no root span covers


def split_by_batch(spans: list[Span], requests: list[float]) -> BatchSplit:
    """Assign spans to batches by start time and total them per name.

    A span belongs to batch i when it starts in [requests[i],
    requests[i+1]); spans starting after the last request are dropped.
    """
    n = len(requests) - 1
    inclusive: list[dict[str, float]] = [{} for _ in range(n)]
    exclusive: list[dict[str, float]] = [{} for _ in range(n)]
    calls: list[dict[str, int]] = [{} for _ in range(n)]
    roots: list[list[tuple[float, float]]] = [[] for _ in range(n)]
    for s, own in zip(spans, self_times(spans)):
        i = bisect.bisect_right(requests, s.start) - 1
        if not 0 <= i < n:
            continue
        inclusive[i][s.name] = inclusive[i].get(s.name, 0.0) + (s.end - s.start)
        exclusive[i][s.name] = exclusive[i].get(s.name, 0.0) + own
        calls[i][s.name] = calls[i].get(s.name, 0) + 1
        if s.parent < 0:
            roots[i].append((max(s.start, requests[i]), min(s.end, requests[i + 1])))
    uncovered = [
        (requests[i + 1] - requests[i]) - union_length(roots[i]) for i in range(n)
    ]
    return BatchSplit(inclusive, exclusive, calls, uncovered)
