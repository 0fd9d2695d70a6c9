"""Exact density, the bound family, and the brute-force oracles.

Everything here is ground truth for the rest of the package: density and the
chromatic index are computed by exhaustive search at desk scale, and every
bound comparison uses exact rational arithmetic. Inputs beyond the hard size
caps fail loudly instead of answering approximately.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from . import _kernels
from .graph import Multigraph, ScaleExceededError

# Size caps of the exact searches: the 2^n density scan refuses more
# vertices, and the exact chromatic index (and extend's fallback) more edges.
DENSITY_VERTEX_CAP = 16
ORACLE_EDGE_CAP = 25


class DensityCertificate(NamedTuple):
    """Odd vertex set U with value 2|E(U)|/(|U|-1); value > k proves chi' > k."""
    u: frozenset
    value: Fraction


def density(G: Multigraph) -> DensityCertificate:
    """Maximum of 2|E(U)|/(|U|-1) over odd |U| >= 3, with an argmax witness.

    Exhaustive over vertex subsets; value 0 with an empty witness when no odd
    set contains an edge (in particular whenever n < 3).
    """
    return _density(G.vertex_count, G.pair_counts())


def _density(n: int, pair_counts: dict) -> DensityCertificate:
    """`density` of the graph on n vertices with these pair multiplicities."""
    if n > DENSITY_VERTEX_CAP:
        raise ScaleExceededError(
            f"density enumeration capped at {DENSITY_VERTEX_CAP} vertices, got {n}")
    if n < 3 or not pair_counts:
        return DensityCertificate(frozenset(), Fraction(0))
    cnt, size, mask = _kernels.density_scan(pair_counts, n)
    if cnt == 0:
        return DensityCertificate(frozenset(), Fraction(0))
    members = frozenset(v for v in range(n) if mask >> v & 1)
    return DensityCertificate(members, Fraction(2 * cnt, size - 1))


class BoundReport(NamedTuple):
    """The classical bound family around the chromatic index."""
    n: int
    m: int
    delta: int
    mu: int
    gamma: Fraction
    gamma_set: frozenset        # an odd set of density gamma; empty when gamma is 0
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
    pairs = G.pair_counts()     # one table gives both mu and Gamma
    n, m, delta = G.vertex_count, G.m, G.max_degree()
    mu = max(pairs.values(), default=0)
    witness = _density(n, pairs)
    gamma = witness.value
    gamma_ceil = math.ceil(gamma)
    return BoundReport(
        n=n, m=m, delta=delta, mu=mu,
        gamma=gamma, gamma_set=witness.u, gamma_ceil=gamma_ceil,
        chi_star=max(Fraction(delta), gamma),
        lower=max(delta, gamma_ceil),
        gs_upper=max(delta + 1, gamma_ceil),
        shannon=(3 * delta) // 2,
        vizing=delta + mu,
    )


def odd_set_density(G: Multigraph, members) -> Fraction:
    """2|E(U)|/(|U|-1) for an odd set U of at least 3 vertices of G;
    ValueError on any other set, including one naming a vertex G lacks."""
    u = frozenset(members)
    if len(u) < 3 or len(u) % 2 == 0:
        raise ValueError(f"certificate set must be odd with >= 3 vertices, got {len(u)}")
    return Fraction(2 * G.induced_edge_count(u), len(u) - 1)


def certificate_check(G: Multigraph, members, k: int) -> bool:
    """Does the odd set prove that k colors cannot suffice (chi' >= k+1)?"""
    return odd_set_density(G, members) > k


def _oracle_edge_ids(G: Multigraph) -> list:
    """Edge ids by descending endpoint degree sum; the stable sort keeps ties
    in ascending id order."""
    degree = [G.degree(v) for v in range(G.vertex_count)]
    key = [-(degree[u] + degree[v]) for u, v in G._ends]
    return sorted(G.edge_ids, key=key.__getitem__)


def _oracle_edge_order(G: Multigraph):
    """(edge ids, their first ends, their second ends) in the oracle's edge
    order (`_oracle_edge_ids`)."""
    ends = G._ends
    ordered = _oracle_edge_ids(G)
    eu = [ends[e][0] for e in ordered]
    ev = [ends[e][1] for e in ordered]
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
    exhausted flag, True when fewer than `cap` were found.

    Enumeration is canonical up to global color permutation: a new color may
    only be introduced in increasing order along the oracle's edge order.
    It is the exact search (`_kernels.colorings`) without the parallel-edge
    rule, so every ordering of a parallel class is listed.
    """
    ordered, eu, ev = _oracle_edge_order(G)
    if not ordered:
        return [{}], True
    search = _kernels.colorings(eu, ev, [-1] * len(ordered), G.vertex_count, k)
    results = [dict(zip(ordered, colors)) for colors in itertools.islice(search, cap)]
    return results, len(results) < cap

