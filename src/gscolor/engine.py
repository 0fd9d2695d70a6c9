"""End-to-end coloring driver with verification.

Colors every edge using at most max(Delta+1, ceil(density)) colors: the lower
bound max(Delta, ceil(density)) is attempted first so class-1-like instances
come out optimal, and a proof of infeasibility (or budget exhaustion)
escalates once to the guaranteed bound. Per edge the driver tries a shared
missing color, then a two-colored chain swap between the ends' missing
colors; at or below a configurable edge count an exact backtracking fallback
makes the contract unconditional. The fallback is one search
(`_kernels.chromatic_feasible`) over the colored edges plus the new one, in
the oracle's edge order (`density._oracle_edge_order`), and its first
coloring becomes the new coloring. The direct and chain-swap steps mutate
the coloring they are given and return it; the fallback returns a new one.
Between the chain swap and the fallback, the extension series
(`tashkinov.build_series`) runs once per resisting edge, for a certificate
only: a strongly closed, elementary final tree of odd order whose density
exceeds k proves that k colors cannot suffice. The series colors no edge.

The chain swap scans chains from one end x of the edge xy only. It runs after
the shared-color test failed, so the ends' missing sets are disjoint: an
(a, b)-chain from x that avoids y always succeeds (afterwards both ends miss
b), and one that reaches y is the very chain a scan from y would find and
skip, so scanning from y can never succeed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

from . import _kernels
from .coloring import PartialColoring, alternating_path, mask_colors, validate
from .density import (DensityCertificate, _oracle_edge_order, bound_report,
                      certificate_check, set_density)
from .graph import Multigraph
from .tashkinov import TreeSequence, build_series, elementary_audit

METHODS = ("direct", "kempe", "tashkinov", "fallback")   # how extend colors an edge


@dataclass(frozen=True)
class FailureEvidence:
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
    coloring: PartialColoring | None
    evidence: FailureEvidence | None
    method: str | None


@dataclass
class ColoringResult:
    """A run's record: complete when `color` returns it, partial (uncolored
    edges null, trace over the colored ones) when IncompleteColoringError
    carries it."""
    coloring: PartialColoring
    k_used: int
    certificates: list             # [(DensityCertificate, k it was emitted against)]
    trace: dict                    # edge id -> one of METHODS

    def to_json_obj(self) -> dict:
        return {
            "v": 1,
            "k_used": self.k_used,
            "assignment": [[e, self.coloring.color_of(e)]
                           for e in sorted(self.coloring.graph.edge_ids)],
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
    (its trace included: each edge of G at most once, by one of METHODS),
    RecursionError if it nests too deeply for the JSON parser. Keys the
    schema does not name are ignored, so files with keys that older
    versions wrote still load. No result for G needs more than
    max(Delta+1, ceil(Gamma)) <= m + 1 colors, so a larger k_used is rejected before
    any per-color table is sized from it."""
    obj = json.loads(text)
    _check_schema(obj)
    ids = [e for e, _ in obj["assignment"]]
    if sorted(ids) != sorted(G.edge_ids):
        raise ValueError("result does not describe this graph's edges")
    trace = dict(obj["trace"])
    if len(trace) != len(obj["trace"]) or not trace.keys() <= set(G.edge_ids):
        raise ValueError("trace names an edge twice or one this graph lacks")
    unknown = sorted(set(trace.values()) - set(METHODS))
    if unknown:
        raise ValueError(f"trace names unknown methods {unknown}")
    if obj["k_used"] > G.m + 1:
        raise ValueError(f"k_used {obj['k_used']} exceeds m + 1 = {G.m + 1}")
    # properness is verify_result's job, so tampered colorings stay loadable
    pc = PartialColoring.unchecked(G, obj["k_used"], dict(obj["assignment"]))
    certs = [(DensityCertificate(frozenset(c["u"]),
                                 Fraction(c["value"]["num"], c["value"]["den"])),
              c["k"])
             for c in obj["certificates"]]
    return ColoringResult(pc, obj["k_used"], certs, trace)


class IncompleteColoringError(Exception):
    """Heuristic extension failed at the guaranteed bound above the exact
    fallback threshold; `result` is the partial record at that k."""

    def __init__(self, result: ColoringResult):
        super().__init__(f"incomplete (budget) at k={result.k_used}")
        self.result = result


# -- per-edge extension -------------------------------------------------------


def _lowest_color(mask: int) -> int:
    return (mask & -mask).bit_length() - 1


def _try_direct(pc: PartialColoring, eid: int):
    """Assign the smallest color missing at both ends, in place; pc or None."""
    x, y = pc.graph.endpoints(eid)
    common = pc.missing_mask(x) & pc.missing_mask(y)
    if not common:
        return None
    pc.assign(eid, _lowest_color(common))
    return pc


def _try_kempe(pc: PartialColoring, eid: int):
    """Swap a chain from x between the ends' missing colors when it avoids y.

    Only called after _try_direct failed, so the missing sets are disjoint:
    x has an edge of every color b missing at y, and y misses b, so y can
    only be the far end of the (a, b)-chain that leaves x on b. A chain
    ending elsewhere is flipped in place; then b is the one color missing at
    both ends, and eid takes it. A scan that finds no such chain only reads
    pc. The scan from y is never needed (see the module docstring).
    """
    x, y = pc.graph.endpoints(eid)
    far_missing = pc.missing_mask(y)
    for a in mask_colors(pc.missing_mask(x)):
        for b in mask_colors(far_missing):
            edges, end = alternating_path(pc, x, b, a)
            if end == y:
                continue
            pc.recolor([(e, b if i % 2 else a) for i, e in enumerate(edges)])
            pc.assign(eid, b)
            return pc
    return None


def _tree_evidence(G, tree, k):
    """Evidence from the tree of a series that ended strongly closed and
    passed the elementary audit (`extend` checks both), or None."""
    u = tree.vertex_set
    if len(u) >= 3 and len(u) % 2 and certificate_check(G, u, k):
        return FailureEvidence("elementary_strongly_closed_tree", tree, k)
    return None


def extend(G: Multigraph, pc: PartialColoring, eid: int, *,
           fallback_threshold: int = 25) -> ExtendOutcome:
    """Color one edge or report why k colors resist.

    The direct step (a color missing at both ends) and the chain swap mutate
    pc: they color the edge in place and return pc itself as the coloring;
    when they fail they leave pc untouched. The chain swap scans from one
    end only, because the direct step failing leaves the ends' missing sets
    disjoint (see the module docstring). Then the extension series runs once,
    with stuck steps downgraded to budget_exhausted; its tree is audited
    only when the last row is strongly closed, and evidence is returned when
    that tree is elementary and certifies k. The series never changes pc.
    Uncolored edges other than eid are invisible to the machinery, so this
    works midway through a coloring run. Within the fallback threshold the
    answer is exact: one search over the colored subgraph plus eid, in the
    oracle's edge order, either finds a k-coloring, and its first one is
    returned as a new coloring, or establishes that there is none. Otherwise
    the evidence is budget_exhausted, with the series' final tree.
    """
    if pc.color_of(eid) is not None:
        raise ValueError("edge already colored")
    out = _try_direct(pc, eid)
    if out is not None:
        return ExtendOutcome("colored", out, None, "direct")
    out = _try_kempe(pc, eid)
    if out is not None:
        return ExtendOutcome("colored", out, None, "kempe")

    state = build_series(G, eid, pc, strict=False)
    tree = state.final_tree
    if (state.outcome == "strongly_closed"
            and elementary_audit(state.final_coloring, tree) is None):
        ev = _tree_evidence(G, tree, pc.k)
        if ev is not None:
            return ExtendOutcome("evidence", None, ev, None)

    if G.m <= fallback_threshold:
        keep = [e for e in G.edge_ids if pc.is_colored(e) or e == eid]
        H = G.subgraph_of_edges(keep)
        ordered, eu, ev = _oracle_edge_order(H)
        colors = _kernels.chromatic_feasible(eu, ev, H.vertex_count, pc.k)
        if colors is not None:
            fresh = PartialColoring(G, pc.k, dict(zip(ordered, colors)))
            return ExtendOutcome("colored", fresh, None, "fallback")
    return ExtendOutcome(
        "evidence", None,
        FailureEvidence("budget_exhausted", tree, pc.k), None)


# -- the driver -----------------------------------------------------------------


def color_at_k(G: Multigraph, k: int, *, fallback_threshold: int = 25):
    """Try to color every edge with k colors.

    Returns (coloring, trace, evidence). The trace maps each colored edge
    to its method. evidence is None on success; otherwise it is what the
    first edge that resisted produced against k, and the coloring is
    partial.
    """
    pc = PartialColoring(G, k)
    trace = {}
    for eid in _oracle_edge_order(G)[0]:
        out = extend(G, pc, eid, fallback_threshold=fallback_threshold)
        if out.status == "colored":
            pc = out.coloring
            trace[eid] = out.method
        else:
            return pc, trace, out.evidence
    return pc, trace, None


def color(G: Multigraph, *, fallback_threshold: int = 25) -> ColoringResult:
    """Color G with at most max(Delta+1, ceil(density)) colors.

    Starts at the certified lower bound and escalates once on failure; at
    desk scale (m within the fallback threshold) the escalated attempt cannot
    fail. Identical inputs give identical results, including the trace.
    IncompleteColoringError carries the partial record of the last attempt.
    """
    rep = bound_report(G)
    schedule = [rep.lower] if rep.lower == rep.gs_upper else [rep.lower, rep.gs_upper]
    certificates = []
    for k in schedule:
        pc, trace, evidence = color_at_k(G, k, fallback_threshold=fallback_threshold)
        result = ColoringResult(pc, k, certificates, trace)
        if evidence is None:
            if not (_valid_coloring(G, result) and _within_bounds(G, result, rep)):
                raise AssertionError("engine produced a result that fails verification")
            return result
        if evidence.kind == "elementary_strongly_closed_tree":
            u = evidence.tree.vertex_set
            certificates.append((DensityCertificate(u, set_density(G, u)), evidence.k))
    raise IncompleteColoringError(result)


def verify_result(G: Multigraph, result: ColoringResult) -> bool:
    """Re-validate properness, totality, the color bound, and all certificates."""
    return _valid_coloring(G, result) and _within_bounds(G, result, bound_report(G))


def _valid_coloring(G: Multigraph, result: ColoringResult) -> bool:
    """A proper, total coloring of G with exactly k_used colors available."""
    pc = result.coloring
    if pc.graph is not G and pc.graph != G:
        return False
    if pc.k != result.k_used:
        return False
    if validate(G, pc):
        return False
    return not pc.uncolored_edges


def _within_bounds(G: Multigraph, result: ColoringResult, rep) -> bool:
    """k_used within the guaranteed bound of rep, and every certificate sound."""
    if result.k_used > rep.gs_upper:
        return False
    for cert, k in result.certificates:
        try:
            if not certificate_check(G, cert.u, k):
                return False
        except ValueError:
            return False
        if set_density(G, cert.u) != cert.value:
            return False
    return True
