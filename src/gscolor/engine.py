"""End-to-end coloring driver with verification.

Colors every edge using at most max(Delta+1, ceil(density)) colors: the lower
bound max(Delta, ceil(density)) is attempted first so class-1-like instances
come out optimal, and a failed attempt escalates once to the guaranteed
bound. The driver gives the edges, in the exact search's order, to one
`coloring.direct_pass`, which colors each edge whose ends miss a common
color. Only an edge that the pass yields goes to `extend`,
which tries `coloring.chain_step` (a two-colored chain swap); on a graph of
at most ORACLE_EDGE_CAP (25) edges an exact backtracking fallback makes the
contract unconditional. The edge count is fixed, not a setting, because it
is the exact search's own cap. The fallback is one `density.first_coloring`
over the colored edges plus the new one, written in place: all three steps
mutate the coloring they are given.
Between the chain swap and the fallback, the extension series
(`tashkinov.build_series`) runs once per resisting edge, for a certificate
only: a final tree of odd order at least 3 whose density exceeds k proves
that k colors cannot suffice, whether or not the tree is strongly closed or
elementary. The series colors no edge.
`color` only tries k >= ceil(Gamma), where no odd set has density above k,
so under `color` the series never certifies: every escalation follows a
failed search. Instead `color` proves its bound from `bound_report`: a record
for k > Delta+1, complete or partial, carries one certificate, Gamma's odd
set against k - 1. There k = ceil(Gamma), so Gamma > k - 1, and the set
shows that no coloring has fewer than k colors. A record for k <= Delta+1
needs no certificate and carries none. Certificates from the series come as
evidence from `color_at_k` and `extend` at a k below ceil(Gamma).
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, NamedTuple

from .coloring import PartialColoring, chain_step, direct_pass, validate
from .density import (ORACLE_EDGE_CAP, DensityCertificate, bound_report,
                      certificate_check, first_coloring, odd_set_density,
                      oracle_edge_ids)
from .graph import Multigraph

if TYPE_CHECKING:
    from .tashkinov import TreeSequence

METHODS = ("direct", "kempe", "tashkinov", "fallback")   # how extend colors an edge


class FailureEvidence(NamedTuple):
    """Why extension stopped at this k.

    kind "elementary_strongly_closed_tree" is a proof that k colors cannot
    suffice: the tree's vertex set, which contains both ends of the
    uncolored edge, is odd, has at least 3 vertices and density above k.
    The name is kept from when the tree also had to be elementary and
    strongly closed; density alone proves the bound. "budget_exhausted"
    claims nothing beyond the failed search.
    """
    kind: str
    tree: TreeSequence
    k: int


class ExtendOutcome(NamedTuple):
    status: str                    # "colored" | "evidence"
    evidence: FailureEvidence | None
    method: str | None


class ColoringResult(NamedTuple):
    """A run's record: complete when `color` returns it, partial (uncolored
    edges null, trace over the colored ones) when IncompleteColoringError
    carries it."""
    coloring: PartialColoring
    certificates: list             # [(DensityCertificate, k it was emitted against)]
    trace: dict                    # edge id -> one of METHODS

    @property
    def k_used(self) -> int:       # the colors offered: the coloring's k
        return self.coloring.k

    def to_json_obj(self) -> dict:
        return {
            "v": 1,
            "k_used": self.k_used,
            "assignment": [[e, self.coloring.color_of(e)]
                           for e in self.coloring.graph.edge_ids],
            "trace": [[e, self.trace[e]] for e in sorted(self.trace)],
            "certificates": [
                {"u": sorted(cert.u),
                 "value": {"num": cert.value.numerator, "den": cert.value.denominator},
                 "k": k}
                for cert, k in self.certificates],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), separators=(",", ":"))


def _expect(ok: bool, wanted: str) -> None:
    if not ok:
        raise ValueError(f"malformed result: expected {wanted}")


def _pairs(obj: dict, key: str, types: tuple, wanted: str):
    """The [edge id, value] pairs of the list obj[key], each checked as it is
    read: ValueError at the first that is not a pair of an int and a value
    of one of `types`."""
    pairs = obj.get(key)
    _expect(type(pairs) is list, wanted)
    for p in pairs:
        _expect(type(p) is list and len(p) == 2 and type(p[0]) is int
                and type(p[1]) in types, wanted)
        yield p


def result_from_json(G: Multigraph, text: str) -> ColoringResult:
    """Load a result file; ValueError if it is malformed or not about G
    (its trace names each edge of G at most once, by one of METHODS, and a
    certificate each vertex at most once), RecursionError if it nests too
    deeply for the JSON parser. Keys the schema does not name are ignored,
    so files with keys that older versions wrote still load. No result for
    G needs more than max(Delta+1, ceil(Gamma)) <= m + 1 colors; a larger
    k_used is refused before it sizes the (k+1)-bit masks of `missing_mask`
    and `direct_pass`.

    Every coloring is proper by construction: a pair that `assign` refuses
    (a color outside 1..k_used, or one already at an end of the edge)
    leaves its edge uncolored, and `verify_result` finds the record not
    total."""
    obj = json.loads(text)
    _expect(type(obj) is dict, "a JSON object")
    _expect(type(obj.get("v")) is int and obj["v"] == 1, '"v": 1')
    k, m = obj.get("k_used"), G.m
    _expect(type(k) is int, 'an integer "k_used"')
    if k > m + 1:
        raise ValueError(f"k_used {k} exceeds m + 1 = {m + 1}")
    pc, ids = PartialColoring(G, k), []
    for eid, c in _pairs(obj, "assignment", (int, type(None)),
                         '"assignment" as [edge id, integer color or null] pairs'):
        ids.append(eid)
        if c is not None:
            try:
                pc.assign(eid, c)
            except ValueError:
                pass
    if sorted(ids) != list(G.edge_ids):
        raise ValueError("result does not describe this graph's edges")
    trace = {}
    for eid, method in _pairs(obj, "trace", (str,), '"trace" as [edge id, method] pairs'):
        if method not in METHODS:
            raise ValueError(f"trace names an unknown method {method!r}")
        if eid in trace or not 0 <= eid < m:
            raise ValueError("trace names an edge twice or one this graph lacks")
        trace[eid] = method
    wanted = '"certificates" as {u, value: {num, den != 0}, k} objects of integers'
    raw, certs = obj.get("certificates"), []
    _expect(type(raw) is list, wanted)
    for c in raw:
        _expect(type(c) is dict and type(c.get("value")) is dict, wanted)
        u, num, den = c.get("u"), c["value"].get("num"), c["value"].get("den")
        _expect(type(u) is list and all(type(v) is int for v in u)
                and type(num) is int and type(den) is int and den != 0
                and type(c.get("k")) is int, wanted)
        if len(set(u)) != len(u):
            raise ValueError("a certificate names a vertex twice")
        certs.append((DensityCertificate(frozenset(u), Fraction(num, den)), c["k"]))
    return ColoringResult(pc, certs, trace)


class IncompleteColoringError(Exception):
    """Heuristic extension failed at the guaranteed bound on a graph of more
    than ORACLE_EDGE_CAP edges, where no exact fallback runs; `result` is
    the partial record at that k, and `edge` is the edge that resisted,
    uncolored in that record."""

    def __init__(self, result: ColoringResult, edge: int):
        super().__init__(f"incomplete (budget) at k={result.k_used}, edge {edge}")
        self.result = result
        self.edge = edge


# -- per-edge extension -------------------------------------------------------


def extend(pc: PartialColoring, eid: int) -> ExtendOutcome:
    """Color uncolored edge eid of pc.graph (G) or say why pc.k colors resist.

    `color_at_k` calls it only for an edge that its direct pass yields;
    an edge whose ends miss a common color is colored by `chain_step`'s
    empty chain, as "kempe". The steps are `chain_step`, which writes
    unchecked (so eid is checked here), the series and the fallback; one
    that colors the edge does so in pc itself, and one that fails leaves pc
    untouched. The extension series runs once, to a strongly closed row or
    a stuck step, and never changes pc. Its final tree is the evidence when
    the tree has odd order of at least 3 and density above k, which proves
    that k colors cannot suffice; the series' outcome and the tree's
    elementarity add nothing to that proof, so neither is tested. Uncolored
    edges other than eid are invisible to the machinery, so this works
    midway through a coloring run. On a graph of at most ORACLE_EDGE_CAP
    edges, the edge cap of `chromatic_index_exact`, the answer is exact:
    `first_coloring` of a graph of the colored edges plus eid, whose edge i
    is G's edge keep[i], either finds a k-coloring, which, mapped back
    through keep, is written into pc by the checked `recolor` and `assign`,
    or establishes that there is none. keep ascends, so the oracle's edge
    order breaks ties on that graph as it would on G's ids. Otherwise the
    evidence is budget_exhausted, with the series' final tree.
    """
    G = pc.graph
    if not 0 <= eid < G.m:
        raise ValueError(f"edge {eid} outside 0..{G.m - 1}")
    if pc.is_colored(eid):
        raise ValueError("edge already colored")
    if chain_step(pc, eid) is not None:
        return ExtendOutcome("colored", None, "kempe")

    from .tashkinov import build_series   # loaded by the slow path only
    tree = build_series(pc, eid).final_tree
    u = tree.vertex_set
    if len(u) >= 3 and len(u) % 2 and certificate_check(G, u, pc.k):
        return ExtendOutcome(
            "evidence", FailureEvidence("elementary_strongly_closed_tree", tree, pc.k),
            None)

    if G.m <= ORACLE_EDGE_CAP:
        keep = [e for e in G.edge_ids if pc.is_colored(e) or e == eid]
        H = Multigraph.build(G.vertex_count, [G.endpoints(e) for e in keep])
        found = first_coloring(H, pc.k)
        if found is not None:
            found = {keep[i]: c for i, c in found.items()}
            pc.recolor([(e, found[e]) for e in keep if e != eid])
            pc.assign(eid, found[eid])
            return ExtendOutcome("colored", None, "fallback")
    return ExtendOutcome(
        "evidence", FailureEvidence("budget_exhausted", tree, pc.k), None)


# -- the driver -----------------------------------------------------------------


def color_at_k(G: Multigraph, k: int):
    """Try to color every edge with k colors.

    Returns (coloring, trace, evidence). The trace maps each colored edge
    to its method, in the oracle's edge order. evidence is None on success;
    otherwise it is what the first edge that resisted produced against k,
    and the coloring is partial. One `direct_pass` over the edges, in the
    oracle's edge order, colors every edge it can; `extend` runs only for
    the edges that the pass yields, before the pass goes on, so each edge
    in turn gets the direct step and, if that fails, `extend`. The trace
    starts as "direct" for every edge, `extend` overwrites the methods of
    the edges it colors, and a failed run keeps only the edges before the
    one that resisted.
    """
    pc = PartialColoring(G, k)
    order = oracle_edge_ids(G)
    trace = dict.fromkeys(order, "direct")
    for eid in direct_pass(pc, order):
        out = extend(pc, eid)
        if out.status != "colored":
            colored = order[:order.index(eid)]
            return pc, {e: trace[e] for e in colored}, out.evidence
        trace[eid] = out.method
    return pc, trace, None


def color(G: Multigraph) -> ColoringResult:
    """Color G with at most max(Delta+1, ceil(density)) colors.

    Starts at the certified lower bound and escalates once on failure; at
    desk scale (m <= ORACLE_EDGE_CAP) the escalated attempt cannot fail.
    Identical inputs give identical results, including the trace.
    IncompleteColoringError carries the partial record of the last attempt.
    Certificates: see the module docstring.
    """
    return _color(G, bound_report(G))


def _color(G: Multigraph, rep) -> ColoringResult:
    """`color` against a bound report of G that the caller already has."""
    schedule = [rep.lower] if rep.lower == rep.gs_upper else [rep.lower, rep.gs_upper]
    for k in schedule:
        pc, trace, evidence = color_at_k(G, k)
        # certificates: see the module docstring
        certs = ([(DensityCertificate(rep.gamma_set, rep.gamma), k - 1)]
                 if k > rep.delta + 1 else [])
        result = ColoringResult(pc, certs, trace)
        if evidence is None:
            if not verify_result(G, result):
                raise AssertionError("engine produced a result that fails verification")
            return result
    raise IncompleteColoringError(result, evidence.tree.root_edge)


def verify_result(G: Multigraph, result: ColoringResult) -> bool:
    """Re-validate properness, totality, all certificates, and the color bound.

    Properness, totality and every certificate are checked on every call:
    a certificate is sound when its set is an odd set of at least 3
    vertices of G whose density is the recorded value and exceeds the
    certificate's k. The bound k_used <= max(Delta+1, ceil(Gamma)) is then
    decided in this order: k_used <= Delta+1 meets it; a certificate with
    density above k_used - 1 meets it, since Gamma is at least that
    density; only otherwise is Gamma computed by the density scan
    (ScaleExceededError above the 16-vertex cap). Each shortcut answers
    exactly what the scan would. A `color` result never reaches the scan:
    above Delta+1 it carries Gamma's odd set against k_used - 1.
    """
    pc, k_used = result.coloring, result.k_used
    if pc.graph is not G and pc.graph != G or validate(G, pc) or not pc.is_total():
        return False
    settled = k_used <= G.max_degree() + 1
    for cert, k in result.certificates:
        try:
            d = odd_set_density(G, cert.u)
        except ValueError:
            return False
        if d != cert.value or not d > k:
            return False
        settled = settled or d > k_used - 1
    return settled or k_used <= bound_report(G).gs_upper
