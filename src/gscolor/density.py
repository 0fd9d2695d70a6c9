"""Exact density, the bound family, and the brute-force oracles.

Everything here is ground truth for the rest of the package: density and the
chromatic index are computed by exhaustive search at desk scale, and every
bound comparison uses exact rational arithmetic. Inputs beyond the hard size
caps fail loudly instead of answering approximately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from . import _kernels
from .graph import DENSITY_VERTEX_CAP, Multigraph, ScaleExceededError

ORACLE_EDGE_CAP = 25


@dataclass(frozen=True)
class DensityCertificate:
    """Odd vertex set U with value 2|E(U)|/(|U|-1); value > k proves chi' > k."""
    u: frozenset
    value: Fraction


def density(G: Multigraph) -> DensityCertificate:
    """Maximum of 2|E(U)|/(|U|-1) over odd |U| >= 3, with an argmax witness.

    Exhaustive over vertex subsets; value 0 with an empty witness when no odd
    set contains an edge (in particular whenever n < 3).
    """
    n = G.vertex_count
    if n > DENSITY_VERTEX_CAP:
        raise ScaleExceededError(
            f"density enumeration capped at {DENSITY_VERTEX_CAP} vertices, got {n}")
    if n < 3 or G.m == 0:
        return DensityCertificate(frozenset(), Fraction(0))
    cnt, size, mask = _kernels.density_scan(G.edge_masks(), n)
    if cnt == 0:
        return DensityCertificate(frozenset(), Fraction(0))
    members = frozenset(v for v in range(n) if mask >> v & 1)
    return DensityCertificate(members, Fraction(2 * cnt, size - 1))


@dataclass(frozen=True)
class BoundReport:
    """The classical bound family around the chromatic index."""
    n: int
    m: int
    delta: int
    mu: int
    gamma: Fraction
    gamma_ceil: int
    chi_star: Fraction          # max(delta, gamma)
    lower: int                  # max(delta, ceil(gamma))
    gs_upper: int               # max(delta + 1, ceil(gamma))
    shannon: int                # floor(3*delta/2)
    vizing: int                 # delta + mu

    def to_json_obj(self) -> dict:
        return {
            "v": 1,
            "n": self.n, "m": self.m, "delta": self.delta, "mu": self.mu,
            "gamma": {"num": self.gamma.numerator, "den": self.gamma.denominator},
            "gamma_ceil": self.gamma_ceil,
            "chi_star": {"num": self.chi_star.numerator,
                         "den": self.chi_star.denominator},
            "lower": self.lower, "gs_upper": self.gs_upper,
            "shannon": self.shannon, "vizing": self.vizing,
        }


def bound_report(G: Multigraph) -> BoundReport:
    n, m, delta, mu = G.stats()
    gamma = density(G).value
    gamma_ceil = math.ceil(gamma)
    return BoundReport(
        n=n, m=m, delta=delta, mu=mu,
        gamma=gamma, gamma_ceil=gamma_ceil,
        chi_star=max(Fraction(delta), gamma),
        lower=max(delta, gamma_ceil),
        gs_upper=max(delta + 1, gamma_ceil),
        shannon=(3 * delta) // 2,
        vizing=delta + mu,
    )


def set_density(G: Multigraph, members) -> Fraction:
    """2|E(U)|/(|U|-1) for a vertex set U of at least two vertices."""
    u = frozenset(members)
    return Fraction(2 * G.induced_edge_count(u), len(u) - 1)


def certificate_check(G: Multigraph, members, k: int) -> bool:
    """Does the odd set prove that k colors cannot suffice (chi' >= k+1)?"""
    u = frozenset(members)
    if len(u) < 3 or len(u) % 2 == 0:
        raise ValueError(f"certificate set must be odd with >= 3 vertices, got {len(u)}")
    return set_density(G, u) > k


def _oracle_edge_order(G: Multigraph):
    def key(eid):
        u, v = G.endpoints(eid)
        return (-(G.degree(u) + G.degree(v)), eid)
    ordered = sorted(G.edge_ids, key=key)
    eu = [G.endpoints(e)[0] for e in ordered]
    ev = [G.endpoints(e)[1] for e in ordered]
    return ordered, eu, ev


def chromatic_index_exact(G: Multigraph) -> int:
    """Exact chi' by backtracking feasibility search, k = Delta, Delta+1, ...

    Deterministic: edges are tried in descending endpoint degree-sum order and
    colors first-fit with canonical color introduction. Refuses graphs with
    more than ORACLE_EDGE_CAP edges.
    """
    if G.m == 0:
        return 0
    if G.m > ORACLE_EDGE_CAP:
        raise ScaleExceededError(
            f"exact chromatic index capped at {ORACLE_EDGE_CAP} edges, got {G.m}")
    _, eu, ev = _oracle_edge_order(G)
    k = G.max_degree()
    shannon = (3 * G.max_degree()) // 2
    while True:
        if _kernels.chromatic_feasible(eu, ev, G.vertex_count, k) is not None:
            return k
        k += 1
        if k > shannon + 1:
            raise AssertionError("feasibility search escaped the Shannon bound")


def enumerate_colorings(G: Multigraph, k: int, *, cap: int = 1000):
    """Up to `cap` proper k-edge-colorings (maps eid -> color), plus an
    exhausted flag.

    Enumeration is canonical up to global color permutation: a new color may
    only be introduced in increasing order along the fixed edge order.
    """
    ordered, eu, ev = _oracle_edge_order(G)
    m = len(ordered)
    if m == 0:
        return [{}], True
    results = []
    used = [set() for _ in range(G.vertex_count)]
    color = [0] * m

    def rec(i, maxc):
        if len(results) >= cap:
            return False
        if i == m:
            results.append({ordered[j]: color[j] for j in range(m)})
            return len(results) < cap
        u, v = eu[i], ev[i]
        for c in range(1, min(maxc + 1, k) + 1):
            if c in used[u] or c in used[v]:
                continue
            color[i] = c
            used[u].add(c)
            used[v].add(c)
            more = rec(i + 1, max(maxc, c))
            used[u].discard(c)
            used[v].discard(c)
            color[i] = 0
            if not more:
                return False
        return True

    exhausted = rec(0, 0)
    return results, exhausted


def is_critical(G: Multigraph) -> bool:
    """Does every single-edge deletion strictly lower chi'?

    Parallel edges are checked once per endpoint pair (deletions are
    isomorphic). Edgeless graphs are critical only when they have no proper
    subgraph at all, i.e. n == 0.
    """
    if G.m == 0:
        return G.vertex_count == 0
    chi = chromatic_index_exact(G)
    seen_pairs = set()
    for eid in G.edge_ids:
        u, v = G.endpoints(eid)
        pair = (u, v) if u < v else (v, u)
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        if chromatic_index_exact(G.without_edge(eid)) >= chi:
            return False
    return True
