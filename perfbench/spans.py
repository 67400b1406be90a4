"""Arithmetic on recorded spans and samples, kept free of I/O so it can be
tested on hand-built inputs.

A span is (name, start, end, parent, cmd) with times in seconds; parent is
the index of the enclosing span in the same list, or -1 for the root span.
"""

from __future__ import annotations

import math
from collections import defaultdict


def percentile(values, q: float) -> float:
    """The q-th percentile (0 <= q <= 100), interpolating linearly between
    the two closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100
    lo, hi = math.floor(pos), math.ceil(pos)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values) -> float:
    return percentile(values, 50)


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its child spans cover.  Spans of
    one command come from one thread, so children never overlap."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [end - start - covered[i] for i, (_, start, end, _, _) in enumerate(spans)]


def layer_times(spans) -> dict[str, float]:
    """'<name>.s': time inside spans of that name, counting a span nested in
    another of the same name once; '<name>.self_s': summed self time."""
    out: dict[str, float] = defaultdict(float)
    for i, own in enumerate(self_times(spans)):
        name, start, end, parent, _ = spans[i]
        out[name + ".self_s"] += own
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            out[name + ".s"] += end - start
    return dict(out)


def tree_error(spans, tol: float = 1e-6) -> str | None:
    """Why the spans of one command do not form one well-nested tree whose
    self times add up to the root's duration, or None when they do."""
    roots = [s for s in spans if s[3] < 0]
    if len(roots) != 1 or spans[0][3] >= 0:
        return f"{len(roots)} root spans"
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            return f"{name} ends before it starts"
        if parent >= 0:
            if parent >= i:
                return f"{name} opened before its parent"
            _, pstart, pend, _, _ = spans[parent]
            if start < pstart or end > pend:
                return f"{name} leaves its parent {spans[parent][0]}"
    total = sum(self_times(spans))
    root = spans[0][2] - spans[0][1]
    if abs(total - root) > tol:
        return f"self times add to {total:.6f}s, root span is {root:.6f}s"
    return None
