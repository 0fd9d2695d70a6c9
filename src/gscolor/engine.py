"""End-to-end coloring driver with verification.

Colors every edge using at most max(Delta+1, ceil(density)) colors: the lower
bound max(Delta, ceil(density)) is attempted first so class-1-like instances
come out optimal, and a failed attempt escalates once to the guaranteed
bound. Per edge the driver tries a shared missing color (the direct step)
in its own loop. Only an edge that resists it goes to `extend`, which tries
a two-colored chain swap between the ends' missing colors; on a graph of at
most ORACLE_EDGE_CAP (25) edges an exact backtracking fallback makes the
contract unconditional. The edge count is fixed, not a setting, because it
is the exact search's own cap. The fallback is one search
(`_kernels.chromatic_feasible`) over the colored edges plus the new one, in
the oracle's edge order (`density._oracle_edge_order`), and its first
coloring is written in place: all three steps mutate the coloring they are
given.
Between the chain swap and the fallback, the extension series
(`tashkinov.build_series`) runs once per resisting edge, for a certificate
only: a strongly closed, elementary final tree of odd order whose density
exceeds k proves that k colors cannot suffice. The series colors no edge.
`color` only tries k >= ceil(Gamma), where no odd set has density above k,
so under `color` the series never certifies: every escalation follows a
failed search. Instead `color` proves its bound from `bound_report`: a record
for k > Delta+1, complete or partial, carries one certificate, Gamma's odd
set against k - 1. There k = ceil(Gamma), so Gamma > k - 1, and the set
shows that no coloring has fewer than k colors. A record for k <= Delta+1
needs no certificate and carries none. Certificates from the series come as
evidence from `color_at_k` and `extend` at a k below ceil(Gamma).

The chain swap scans chains from one end x of the edge xy only. It runs after
the shared-color test failed, so the ends' missing sets are disjoint: an
(a, b)-chain from x that avoids y always succeeds (afterwards both ends miss
b), and one that reaches y is the very chain a scan from y would find and
skip, so scanning from y can never succeed. Most chains from x do reach y,
and the per-color vertex masks say which without a walk: in a proper
coloring the (a, b)-edges form paths and even cycles, whose path ends are
the vertices with exactly one of a and b, the bits of
present[a] ^ present[b]. x (missing a, having b) and y (missing b, having
a) are two of them; when they are the only two, x's path ends at y, so
skipping the pair unwalked picks the chain that walking every pair picks.
Any other pair is walked once, for both its far end and its edges.

Verification decides the color bound max(Delta+1, ceil(Gamma)) without the
2^n density scan whenever it can, and the shortcut is exact. A result with
k_used <= Delta+1 meets the bound whatever Gamma is. A result with more
colors meets it when one of its (already checked) certificates U has
density(U) > k_used - 1: Gamma >= density(U), so ceil(Gamma) >= k_used. Only
otherwise does `verify_result` compute Gamma, which is also the only case in
which it refuses a graph above the 16-vertex cap. Every `color` result is
settled by the first two rules, so verifying one never runs the scan.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import NamedTuple

from . import _kernels
from .coloring import PartialColoring, alternating_path, mask_colors, validate
from .density import (ORACLE_EDGE_CAP, DensityCertificate, _oracle_edge_ids,
                      _oracle_edge_order, bound_report, certificate_check,
                      odd_set_density)
from .graph import Multigraph
from .tashkinov import TreeSequence, build_series, elementary_audit

METHODS = ("direct", "kempe", "tashkinov", "fallback")   # how extend colors an edge


class FailureEvidence(NamedTuple):
    """Why extension stopped at this k.

    kind "elementary_strongly_closed_tree" is a proof that k colors cannot
    suffice (the tree's vertex set is elementary, strongly closed, odd, and
    contains both ends of the uncolored edge); "budget_exhausted" claims
    nothing beyond the failed search.
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


def _is_int(x) -> bool:
    return type(x) is int


def _is_pairs(x, first, second) -> bool:
    return isinstance(x, list) and all(
        isinstance(p, list) and len(p) == 2 and first(p[0]) and second(p[1])
        for p in x)


def _is_certificate(c) -> bool:
    if not (isinstance(c, dict) and isinstance(c.get("value"), dict)):
        return False
    value = c["value"]
    return (isinstance(c.get("u"), list) and all(_is_int(v) for v in c["u"])
            and _is_int(value.get("num")) and _is_int(value.get("den"))
            and value["den"] != 0 and _is_int(c.get("k")))


def _check_schema(obj):
    """Raise ValueError unless obj has the shape ColoringResult.to_json_obj gives."""
    if not isinstance(obj, dict):
        raise ValueError("malformed result: expected a JSON object")
    checks = [
        (_is_int(obj.get("v")) and obj["v"] == 1, '"v": 1'),
        (_is_int(obj.get("k_used")), 'an integer "k_used"'),
        (_is_pairs(obj.get("assignment"), _is_int,
                   lambda c: c is None or _is_int(c)),
         '"assignment" as [edge id, integer color or null] pairs'),
        (_is_pairs(obj.get("trace"), _is_int, lambda t: isinstance(t, str)),
         '"trace" as [edge id, method] pairs'),
        (isinstance(obj.get("certificates"), list)
         and all(_is_certificate(c) for c in obj["certificates"]),
         '"certificates" as {u, value: {num, den != 0}, k} objects of integers'),
    ]
    for ok, wanted in checks:
        if not ok:
            raise ValueError(f"malformed result: expected {wanted}")


def result_from_json(G: Multigraph, text: str) -> ColoringResult:
    """Load a result file; ValueError if it is malformed or not about G
    (its trace names each edge of G at most once, by one of METHODS, and a
    certificate each vertex at most once), RecursionError if it nests too
    deeply for the JSON parser. Keys the schema does not name are ignored,
    so files with keys that older versions wrote still load. No result for
    G needs more than max(Delta+1, ceil(Gamma)) <= m + 1 colors, so a larger
    k_used is rejected before any per-color table is sized from it."""
    obj = json.loads(text)
    _check_schema(obj)
    ids = [e for e, _ in obj["assignment"]]
    if sorted(ids) != list(G.edge_ids):
        raise ValueError("result does not describe this graph's edges")
    trace = dict(obj["trace"])
    if len(trace) != len(obj["trace"]) or not trace.keys() <= set(G.edge_ids):
        raise ValueError("trace names an edge twice or one this graph lacks")
    unknown = sorted(set(trace.values()) - set(METHODS))
    if unknown:
        raise ValueError(f"trace names unknown methods {unknown}")
    if any(len(set(c["u"])) != len(c["u"]) for c in obj["certificates"]):
        raise ValueError("a certificate names a vertex twice")
    if obj["k_used"] > G.m + 1:
        raise ValueError(f"k_used {obj['k_used']} exceeds m + 1 = {G.m + 1}")
    # every coloring is proper by construction: a pair that assign refuses
    # (a color outside 1..k_used, or one already at an end of the edge)
    # leaves its edge uncolored, and verify_result finds the record not total
    pc = PartialColoring(G, obj["k_used"])
    for eid, c in obj["assignment"]:
        if c is not None:
            try:
                pc.assign(eid, c)
            except ValueError:
                pass
    certs = [(DensityCertificate(frozenset(c["u"]),
                                 Fraction(c["value"]["num"], c["value"]["den"])),
              c["k"])
             for c in obj["certificates"]]
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


def _try_direct(pc: PartialColoring, eid: int):
    """Give the uncolored edge eid the smallest color missing at both ends,
    in place (unchecked: the color is free there); pc or None."""
    x, y = pc.graph._ends[eid]
    common = ((1 << (pc.k + 1)) - 2) & ~(pc._mask[x] | pc._mask[y])
    if not common:
        return None
    pc._write(eid, (common & -common).bit_length() - 1)
    return pc


def _try_kempe(pc: PartialColoring, eid: int):
    """Swap a chain from x between the ends' missing colors when it avoids y.

    Only called after _try_direct failed, so the missing sets are disjoint:
    x has an edge of every color b missing at y, and y misses b, so y can
    only be the far end of the (a, b)-chain that leaves x on b. A chain
    ending elsewhere is flipped in place; then b is the one color missing at
    both ends, and eid takes it. Pairs whose only path ends are x and y are
    skipped unwalked, and each other pair is walked once (see the module
    docstring). A scan that finds no such chain only reads pc. The scan
    from y is never needed.
    """
    present = pc._present
    x, y = pc.graph._ends[eid]
    both_ends = (1 << x) | (1 << y)
    far_missing = pc.missing_mask(y)
    for a in mask_colors(pc.missing_mask(x)):
        with_a = present.get(a, 0)
        for b in mask_colors(far_missing):
            if with_a ^ present.get(b, 0) == both_ends:
                continue
            edges, end = alternating_path(pc, x, b, a)
            if end == y:
                continue
            pc.recolor([(e, b if i % 2 else a) for i, e in enumerate(edges)])
            pc._write(eid, b)
            return pc
    return None


def extend(pc: PartialColoring, eid: int) -> ExtendOutcome:
    """Color uncolored edge eid of pc.graph (G) or say why pc.k colors resist.

    `color_at_k` calls it only for an edge that its own direct step left
    uncolored; called directly, it tries that step first too. Every step
    that colors the edge does so in pc itself; a step that fails leaves pc
    untouched. The direct step takes a color missing at both ends. The chain
    swap scans from one end only, because the direct step failing leaves the
    ends' missing sets disjoint (see the module docstring). Then the
    extension series runs once, and a stuck step ends it as
    budget_exhausted; its tree is audited only when the last row is strongly
    closed and the tree has odd order of at least 3, and evidence is
    returned when that tree is elementary and certifies k. The series never
    changes pc. Uncolored edges other than eid are invisible to the
    machinery, so this works midway through a coloring run. On a graph of
    at most ORACLE_EDGE_CAP edges, the edge cap of `chromatic_index_exact`,
    the answer is exact: one search over a graph of the colored edges plus
    eid, whose edge i is G's edge keep[i], either finds a k-coloring, and
    its first one, mapped back through keep, is written into pc by the
    checked `recolor` and `assign`, or establishes that there is none. keep
    ascends, so the oracle's edge order breaks ties on that graph as it
    would on G's ids. Otherwise the evidence is budget_exhausted, with the
    series' final tree.
    """
    G = pc.graph
    if not 0 <= eid < G.m:
        raise ValueError(f"edge {eid} outside 0..{G.m - 1}")
    if pc.is_colored(eid):
        raise ValueError("edge already colored")
    if _try_direct(pc, eid) is not None:
        return ExtendOutcome("colored", None, "direct")
    if _try_kempe(pc, eid) is not None:
        return ExtendOutcome("colored", None, "kempe")

    state = build_series(pc, eid)
    tree = state.final_tree
    u = tree.vertex_set
    if (state.outcome == "strongly_closed" and len(u) >= 3 and len(u) % 2
            and elementary_audit(state.final_coloring, tree.vertices) is None
            and certificate_check(G, u, pc.k)):
        return ExtendOutcome(
            "evidence", FailureEvidence("elementary_strongly_closed_tree", tree, pc.k),
            None)

    if G.m <= ORACLE_EDGE_CAP:
        keep = [e for e in G.edge_ids if pc.is_colored(e) or e == eid]
        H = Multigraph.build(G.vertex_count, [G.endpoints(e) for e in keep])
        ordered, eu, ev = _oracle_edge_order(H)
        colors = _kernels.chromatic_feasible(eu, ev, H.vertex_count, pc.k)
        if colors is not None:
            found = {keep[i]: c for i, c in zip(ordered, colors)}
            pc.recolor([(e, found[e]) for e in keep if e != eid])
            pc.assign(eid, found[eid])
            return ExtendOutcome("colored", None, "fallback")
    return ExtendOutcome(
        "evidence", FailureEvidence("budget_exhausted", tree, pc.k), None)


# -- the driver -----------------------------------------------------------------


def color_at_k(G: Multigraph, k: int):
    """Try to color every edge with k colors.

    Returns (coloring, trace, evidence). The trace maps each colored edge
    to its method. evidence is None on success; otherwise it is what the
    first edge that resisted produced against k, and the coloring is
    partial. Each edge, in the oracle's edge order, first gets the direct
    step here; `extend` runs only for the edges that resist it, so the
    results are those of calling `extend` on every edge.
    """
    pc = PartialColoring(G, k)
    trace = {}
    for eid in _oracle_edge_ids(G):
        if _try_direct(pc, eid) is not None:
            trace[eid] = "direct"
            continue
        out = extend(pc, eid)
        if out.status != "colored":
            return pc, trace, out.evidence
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

    Properness, totality and every certificate are checked on every call.
    The bound k_used <= max(Delta+1, ceil(Gamma)) is then decided in this
    order: k_used <= Delta+1 meets it; a certificate with density above
    k_used - 1 meets it, since Gamma is at least that density; only
    otherwise is Gamma computed by the density scan (ScaleExceededError
    above the 16-vertex cap). Each shortcut answers exactly what the scan
    would. A `color` result never reaches the scan: above Delta+1 it carries
    Gamma's odd set against k_used - 1.
    """
    if not _valid_coloring(G, result):
        return False
    densities = _certificate_densities(G, result)
    if densities is None:
        return False
    if result.k_used <= G.max_degree() + 1:
        return True
    if any(d > result.k_used - 1 for d in densities):
        return True
    return result.k_used <= bound_report(G).gs_upper


def _valid_coloring(G: Multigraph, result: ColoringResult) -> bool:
    """A proper, total coloring of G."""
    pc = result.coloring
    if pc.graph is not G and pc.graph != G:
        return False
    return not validate(G, pc) and len(pc._color) == G.m


def _certificate_densities(G: Multigraph, result: ColoringResult):
    """The density of each certificate, or None unless every one is sound:
    an odd set of at least 3 vertices of G whose density is the recorded
    value and exceeds the certificate's k."""
    densities = []
    for cert, k in result.certificates:
        try:
            d = odd_set_density(G, cert.u)
        except ValueError:
            return None
        if d != cert.value or not d > k:
            return None
        densities.append(d)
    return densities

