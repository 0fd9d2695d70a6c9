"""Exact density, the bound family, and the brute-force oracles.

Everything here is ground truth for the rest of the package: density and the
chromatic index are computed by exhaustive search at desk scale, and every
bound comparison uses exact rational arithmetic. Inputs beyond the hard size
caps fail loudly instead of answering approximately.
"""

from __future__ import annotations

import itertools
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
    """The bound family of G, with gamma the maximum of 2|E(U)|/(|U|-1) over
    odd |U| >= 3 and gamma_set an argmax witness, both exhaustive over the
    vertex subsets of a graph of at most DENSITY_VERTEX_CAP vertices; gamma
    is 0 with an empty witness when no odd set contains an edge (in
    particular whenever n < 3)."""
    n, m = G.vertex_count, G.m
    if n > DENSITY_VERTEX_CAP:
        raise ScaleExceededError(
            f"density enumeration capped at {DENSITY_VERTEX_CAP} vertices, got {n}")
    pairs = G.pair_counts()     # one table gives both mu and Gamma
    delta, mu = G.max_degree(), max(pairs.values(), default=0)
    # Gamma = twice / den, rounded up and compared in integers
    cnt, size, mask = _kernels.density_scan(pairs, n)
    twice, den = 2 * cnt, size - 1 if cnt else 1
    gamma, gamma_ceil = Fraction(twice, den), -(-twice // den)
    gamma_set = frozenset(v for v in range(n) if mask >> v & 1)
    chi_star = gamma if twice > delta * den else Fraction(delta)
    return BoundReport(
        n, m, delta, mu, gamma, gamma_set, gamma_ceil, chi_star,
        gamma_ceil if gamma_ceil > delta else delta,
        gamma_ceil if gamma_ceil > delta + 1 else delta + 1,
        (3 * delta) // 2, delta + mu)


def odd_set_density(G: Multigraph, members) -> Fraction:
    """2|E(U)|/(|U|-1) for an odd set U of at least 3 vertices of G;
    ValueError on any other set, including one naming a vertex G lacks."""
    u = frozenset(members)
    if len(u) < 3 or len(u) % 2 == 0:
        raise ValueError(f"certificate set must be odd with >= 3 vertices, got {len(u)}")
    return Fraction(2 * G.induced_edge_count(u), len(u) - 1)


def certificate_check(G: Multigraph, members, k: int) -> bool:
    """Does the odd set prove that k colors cannot suffice (chi' >= k+1)?
    2|E(U)| is at most U's degree sum, so a set whose degree sum is at most
    k(|U| - 1) is refused without counting E(U)."""
    u = frozenset(members)
    if len(u) >= 3 and len(u) % 2 and sum(map(G.degree, u)) <= k * (len(u) - 1):
        return False
    return odd_set_density(G, u) > k


def oracle_edge_ids(G: Multigraph) -> list:
    """Edge ids in the exact search's order: by descending endpoint degree
    sum; the stable sort keeps ties in ascending id order."""
    degree = G._degrees
    key = [-(degree[u] + degree[v]) for u, v in G._ends]
    return sorted(G.edge_ids, key=key.__getitem__)


def _oracle_edge_order(G: Multigraph):
    """(edge ids, their first ends, their second ends) in the oracle's edge
    order (`oracle_edge_ids`)."""
    ends = G._ends
    ordered = oracle_edge_ids(G)
    eu = [ends[e][0] for e in ordered]
    ev = [ends[e][1] for e in ordered]
    return ordered, eu, ev


def first_coloring(G: Multigraph, k: int):
    """The first proper k-edge-coloring of G, {edge id: color}, that the
    backtracking search finds in the oracle's edge order (colors first-fit,
    introduced canonically); None when G has none."""
    ordered, eu, ev = _oracle_edge_order(G)
    colors = _kernels.chromatic_feasible(eu, ev, G.vertex_count, k)
    return None if colors is None else dict(zip(ordered, colors))


def chromatic_index_exact(G: Multigraph) -> int:
    """Exact chi': the least k from Delta up at which the exact search, in
    the oracle's edge order, finds a coloring. Refuses graphs with more than
    ORACLE_EDGE_CAP edges."""
    if G.m > ORACLE_EDGE_CAP:
        raise ScaleExceededError(
            f"exact chromatic index capped at {ORACLE_EDGE_CAP} edges, got {G.m}")
    _, eu, ev = _oracle_edge_order(G)
    n, delta = G.vertex_count, G.max_degree()
    for k in range(delta, 3 * delta // 2 + 2):
        if _kernels.chromatic_feasible(eu, ev, n, k) is not None:
            return k
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

