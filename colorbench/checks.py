"""Output checks owned by the benchmark.

Nothing here calls gscolor: properness, the color range and the bound
sandwich are recomputed from the instance's edge list, so a defect in
gscolor's own validators cannot hide a wrong answer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# Every workload stays at or below gscolor's 16-vertex density cap; the
# subset scan below is exponential and refuses anything much larger.
MAX_VERTICES = 20
_CHUNK = 4096


class Violation(Exception):
    """The program produced a wrong output; the run must end nonzero."""


@dataclass(frozen=True)
class Bounds:
    delta: int
    lower: int       # max(Delta, ceil(Gamma))
    gs_upper: int    # max(Delta + 1, ceil(Gamma))


def density(n: int, pairs) -> Fraction:
    """max 2|E(U)|/(|U|-1) over odd U with |U| >= 3, by scanning every subset."""
    if n > MAX_VERTICES:
        raise ValueError(f"reference density scan limited to {MAX_VERTICES} vertices")
    if n < 3 or not pairs:
        return Fraction(0)
    mult = np.zeros((n, n))
    for u, v in pairs:
        mult[u, v] += 1
        mult[v, u] += 1
    bits = np.int64(1) << np.arange(n, dtype=np.int64)
    best = Fraction(0)
    for start in range(0, 1 << n, _CHUNK):
        masks = np.arange(start, min(start + _CHUNK, 1 << n), dtype=np.int64)
        member = ((masks[:, None] & bits) != 0).astype(np.float64)
        twice_edges = ((member @ mult) * member).sum(axis=1)
        size = member.sum(axis=1)
        for s in range(3, n + 1, 2):
            chosen = twice_edges[size == s]
            if chosen.size:
                best = max(best, Fraction(int(chosen.max()), s - 1))
    return best


def reference_bounds(n: int, pairs) -> Bounds:
    degree = [0] * n
    for u, v in pairs:
        degree[u] += 1
        degree[v] += 1
    delta = max(degree, default=0)
    gamma_ceil = math.ceil(density(n, pairs))
    return Bounds(delta, max(delta, gamma_ceil), max(delta + 1, gamma_ceil))


def check_coloring(n: int, pairs, k_used, colors, bounds: Bounds) -> None:
    """Raise Violation unless `colors` (indexed by edge id) is a proper total
    coloring with colors in 1..k_used and lower <= k_used <= gs_upper."""
    if not isinstance(k_used, int) or isinstance(k_used, bool):
        raise Violation(f"k_used is not an integer: {k_used!r}")
    if not bounds.lower <= k_used <= bounds.gs_upper:
        raise Violation(f"k_used={k_used} outside [{bounds.lower}, {bounds.gs_upper}]")
    if len(colors) != len(pairs):
        raise Violation(f"{len(colors)} colors for {len(pairs)} edges")
    seen = [set() for _ in range(n)]
    for eid, ((u, v), c) in enumerate(zip(pairs, colors)):
        if c is None:
            raise Violation(f"edge {eid} is uncolored")
        if not isinstance(c, int) or isinstance(c, bool) or not 1 <= c <= k_used:
            raise Violation(f"edge {eid}: color {c!r} outside 1..{k_used}")
        for w in (u, v):
            if c in seen[w]:
                raise Violation(f"vertex {w} repeats color {c}")
            seen[w].add(c)


def check_sandwich(chi: int, bounds: Bounds) -> None:
    """Raise Violation unless lower <= chi' <= gs_upper."""
    if not bounds.lower <= chi <= bounds.gs_upper:
        raise Violation(f"chi'={chi} outside [{bounds.lower}, {bounds.gs_upper}]")


def colors_from_json(obj, m: int) -> list:
    """Edge-id-indexed colors from a result file's "assignment" list."""
    assignment = obj.get("assignment") if isinstance(obj, dict) else None
    if not isinstance(assignment, list):
        raise Violation("result has no assignment list")
    colors = [None] * m
    for item in assignment:
        if not (isinstance(item, list) and len(item) == 2 and isinstance(item[0], int)
                and 0 <= item[0] < m and colors[item[0]] is None):
            raise Violation(f"bad assignment entry {item!r}")
        colors[item[0]] = item[1]
    return colors
