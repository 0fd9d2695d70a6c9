import hashlib
import json
import math
import random
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from gscolor import (Multigraph, PartialColoring, bound_report, build_series,
                     certificate_check, chromatic_index_exact, color,
                     color_at_k, extend, verify_result)
from colorbench.workloads import tight_family
from gscolor import _kernels, engine
from gscolor.engine import ColoringResult, IncompleteColoringError, result_from_json
from gscolor.coloring import (alternating_path, chain_step, direct_pass,
                              kempe_chain, kempe_swap, validate)
from gscolor.density import DensityCertificate, odd_set_density, oracle_edge_ids
from gscolor.generators import (exhaustive_connected, petersen,
                                random_multigraph, ring, shannon_triangle)
from conftest import make_pe_instance, make_se_instance
from oracles import (assert_tables_consistent, random_multigraph_pairs,
                     random_proper_coloring, reference_color_at_k,
                     reference_direct_step, reference_kempe_step, scan_density,
                     verify_by_scan)


def test_color_petersen():
    G = petersen()
    res = color(G)
    assert res.k_used == 4
    assert verify_result(G, res)
    assert chromatic_index_exact(G) == 4


def test_color_shannon():
    G = shannon_triangle(2)
    res = color(G)
    assert res.k_used == 6
    assert verify_result(G, res)


def test_color_edgeless():
    G = Multigraph.build(4, [])
    res = color(G)
    assert res.k_used == 0
    assert res.coloring.uncolored_edges == frozenset()
    assert verify_result(G, res)


def test_color_deterministic():
    G = petersen()
    a = color(G)
    b = color(G)
    assert a.to_json() == b.to_json()


def test_color_uses_lower_bound_when_feasible():
    # C4 is class 1: the engine must return Delta colors, not Delta + 1
    G = ring(4)
    assert color(G).k_used == 2


def test_extend_direct(triangle):
    """extend has no direct step of its own: an edge whose ends miss a
    common color takes it through the chain step's empty chain."""
    pc = PartialColoring(triangle, 3, {0: 1, 1: 2})
    out = extend(pc, 2)
    assert out.status == "colored" and out.method == "kempe"
    assert pc.color_of(2) == 3
    assert_tables_consistent(pc)
    assert validate(triangle, pc) == []


def test_extend_kempe_swap_case():
    # path a-b-c-d with edge (b,c) uncolored, k = 2: phi(ab)=1, phi(cd)=2,
    # b misses 2, c misses 1, and the (1,2)-chain from b is just a-b
    G = Multigraph.build(4, [(0, 1), (1, 2), (2, 3)])
    pc = PartialColoring(G, 2, {0: 1, 2: 2})
    out = extend(pc, 1)
    assert out.status == "colored" and out.method == "kempe"
    assert_tables_consistent(pc)
    assert validate(G, pc) == []
    assert pc.color_of(1) is not None


def test_failed_kempe_step_leaves_coloring_untouched(triangle):
    # k = 2: 0 misses 2, 2 misses 1, and the (1, 2)-chain from 0 ends at 2
    pc = PartialColoring(triangle, 2, {0: 1, 1: 2})
    before = pc.clone()
    assert chain_step(pc, 2) is None
    assert pc == before


def test_kempe_step_colors_in_place():
    G = Multigraph.build(4, [(0, 1), (1, 2), (2, 3)])
    pc = PartialColoring(G, 2, {0: 1, 2: 2})
    assert chain_step(pc, 1) is pc
    assert_tables_consistent(pc)
    assert validate(G, pc) == [] and not pc.uncolored_edges


def _reference_kempe(pc, eid):
    """The chain-swap step as it was before it worked in place."""
    x, y = pc.graph.endpoints(eid)
    for a in sorted(pc.missing(x)):
        for b in sorted(pc.missing(y)):
            ch = kempe_chain(pc, x, a, b)
            if y in ch.vertices:
                continue
            out = kempe_swap(pc, ch)
            out.assign(eid, min(out.missing(x) & out.missing(y)))
            return out
    return None


@given(st.integers(3, 7), st.integers(3, 16), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_kempe_step_matches_clone_and_swap(n, m, seed):
    """On every edge the greedy coloring left uncolored (so the ends'
    missing sets are disjoint), the in-place step gives the coloring the
    clone-and-swap step gave, or fails and leaves pc as it was."""
    rng = random.Random(seed)
    m = min(m, 4 * n * (n - 1) // 2)
    G = Multigraph.build(n, random_multigraph_pairs(n, m, rng, mu_max=4))
    greedy = random_proper_coloring(G, G.max_degree(), rng)
    for eid in sorted(greedy.uncolored_edges):
        pc = PartialColoring(G, greedy.k, {e: greedy.color_of(e) for e in G.edge_ids})
        before = pc.clone()
        expected = _reference_kempe(pc.clone(), eid)
        got = chain_step(pc, eid)
        assert_tables_consistent(pc)
        if expected is None:
            assert got is None and pc == before
        else:
            assert got is pc and pc == expected
            assert validate(G, pc) == []


def _path_ends(pc, a, b):
    """The vertices with exactly one of colors a and b: the ends of the
    (a, b)-paths of a proper coloring."""
    return [v for v in range(pc.graph.vertex_count)
            if (pc.edge_at(v, a) is None) != (pc.edge_at(v, b) is None)]


def test_kempe_ends_test_matches_walking_every_pair():
    """The chain swap walks each pair to its far end without keeping the
    path's edges and flips the chosen path in place; on a few hundred random
    partial colorings with n from 3 to 16 it gives the answer and the
    coloring of `reference_kempe_step`, which walks every pair with
    `alternating_path` and flips with the checked `recolor`. The corpus has
    pairs whose only path ends are x and y, pairs with more path ends whose
    chain from x still ends at y, and pairs where x has no b-edge (the ends
    share the missing color b), whose chain is the empty path. Each pair
    whose only path ends are x and y is also walked, and ends at y: the
    lemma that lets `chain_step` skip such pairs unwalked."""
    rng = random.Random(18)
    only_x_and_y = walked_to_y = no_b_edge = 0
    for trial in range(300):
        n = 3 + trial % 14
        m = rng.randint(n, min(6 * n, 2 * n * (n - 1)))
        G = Multigraph.build(n, random_multigraph_pairs(n, m, rng, mu_max=4))
        base = random_proper_coloring(G, G.max_degree(), rng,
                                      leave_uncolored=rng.randint(0, 2))
        for eid in sorted(base.uncolored_edges):
            x, y = G.endpoints(eid)
            for a in base.missing(x):
                for b in base.missing(y):
                    if base.edge_at(x, b) is None:
                        no_b_edge += 1
                    elif _path_ends(base, a, b) == sorted((x, y)):
                        assert alternating_path(base, x, b, a)[1] == y
                        only_x_and_y += 1
                    else:
                        walked_to_y += alternating_path(base, x, b, a)[1] == y
            pc = base.clone()
            expected = reference_kempe_step(base.clone(), eid)
            got = chain_step(pc, eid)
            assert_tables_consistent(pc)
            if expected is None:
                assert got is None and pc == base
            else:
                assert got is pc and pc == expected
    assert only_x_and_y > 0 and walked_to_y > 0 and no_b_edge > 0


def _twins_skipped(pc, eid):
    """The pairs that `chain_step` skips unwalked on eid, counted with the
    reference walks: for each a missing at x, once the walks that ended at y
    have taken n - 2 steps, each later b whose only path ends are x and y,
    with x having b, up to the first walk that does not end at y. Every such
    pair is walked anyway and must end at y."""
    x, y = pc.graph.endpoints(eid)
    scan_at = pc.graph.vertex_count - 2
    skipped = 0
    for a in sorted(pc.missing(x)):
        spent = 0
        for b in sorted(pc.missing(y)):
            twin = (pc.edge_at(x, b) is not None
                    and _path_ends(pc, a, b) == sorted((x, y)))
            edges, end = alternating_path(pc, x, b, a)
            assert end == y or not twin
            if twin and 0 < scan_at <= spent:
                skipped += 1
            elif end != y:
                return skipped
            else:
                spent += len(edges)
    return skipped


def test_chain_step_matches_walking_every_pair_where_it_skips():
    """On the heavy n = 12 sizes of colorbench's dense_multi (m from 1,100 to
    1,500, Delta far above n), most chain walks fail and the twin scan
    fires. Every edge that `direct_pass` yields at k = Delta goes through
    `chain_step`, which must give the answer and the coloring of
    `reference_kempe_step` with tables that match the assignment, and the
    pass goes on over the result. The corpus must hold pairs that the scan
    skips."""
    skipped = resisting = 0
    for m, seed in ((1100, 1), (1300, 2), (1500, 3)):
        G = random_multigraph(12, m, seed)
        pc = PartialColoring(G, G.max_degree())
        for eid in direct_pass(pc, oracle_edge_ids(G)):
            resisting += 1
            before = pc.clone()
            skipped += _twins_skipped(before, eid)
            expected = reference_kempe_step(before.clone(), eid)
            got = chain_step(pc, eid)
            assert_tables_consistent(pc)
            if expected is None:
                assert got is None and pc == before
            else:
                assert got is pc and pc == expected
    assert resisting > 0 and skipped > 0


def test_chain_step_takes_the_empty_path_after_the_scan():
    """x = 0 and y = 1 of edge 0 both miss color 3, and x misses 1. For
    a = 1 the walk on b = 2 runs x, 2, y: it fails after n - 2 = 2 steps,
    so the twin scan runs before b = 3 is tried. x has no 3-edge, so its
    (1, 3)-path is empty and ends at x: the step gives edge 0 color 3 with
    no flip, as `reference_kempe_step` does. Vertex 3 has 3 and not 1, so
    a scan that let only the vertices with color 1 rule twins out, and did
    not start from x's colors, would skip b = 3. (Starting from x's colors
    alone cannot change the answer of a proper coloring: once a walk has
    ended at y, y has a, and then x lacking b leaves an odd count of path
    ends among x, y and b's twins, so some other vertex rules b out.)"""
    G = Multigraph.build(4, [(0, 1), (0, 2), (2, 1), (2, 3)])
    pc = PartialColoring(G, 3, {1: 2, 2: 1, 3: 3})
    assert alternating_path(pc, 0, 2, 1) == ([1, 2], 1)
    expected = reference_kempe_step(pc.clone(), 0)
    assert chain_step(pc, 0) is pc
    assert_tables_consistent(pc)
    assert pc == expected
    assert [pc.color_of(e) for e in G.edge_ids] == [3, 2, 1, 3]


@pytest.mark.parametrize("length", [1, 2, 3])
def test_chain_step_flips_a_path_in_place(length):
    """A hand-built chain swap whose flipped path has `length` edges. Edge 0
    joins x = 0, which misses color 1, and y = 1, which misses 2 and 3 and
    has a 1-edge to vertex 2. x's 2-edge starts the (1, 2)-path 0, 3, 4, ...
    and a parallel 3-edge joins 0 and 3. The step flips the path in place,
    leaving the parallel edge alone and tables that match the assignment,
    with no stale `_at` entry at either path end, and gives the coloring of
    `reference_kempe_step`."""
    path = [0] + list(range(3, 3 + length))
    G = Multigraph.build(3 + length, [(0, 1), (1, 2), (0, 3)] + list(zip(path, path[1:])))
    flipped = range(3, 3 + length)
    pc = PartialColoring(G, 3, {1: 1, 2: 3, **{e: 2 - (e - 3) % 2 for e in flipped}})
    expected = reference_kempe_step(pc.clone(), 0)
    assert chain_step(pc, 0) is pc
    assert_tables_consistent(pc)
    assert pc == expected
    assert [pc.color_of(e) for e in (0, 1, 2)] == [2, 1, 3]
    assert [pc.color_of(e) for e in flipped] == [1 + (e - 3) % 2 for e in flipped]


def test_direct_pass_matches_direct_step_edge_by_edge():
    """Draining `direct_pass` over a coloring with nothing colored gives the
    coloring that `reference_direct_step` gives edge by edge in the same
    order, and yields, in order, exactly the edges it leaves uncolored: on
    150 random multigraphs with n from 3 to 16, in a shuffled edge order,
    at every k from Delta - 1 to Delta + 1."""
    rng = random.Random(30)
    resisting_runs = 0
    for trial in range(150):
        n = 3 + trial % 14
        m = rng.randint(n, min(6 * n, 2 * n * (n - 1)))
        G = Multigraph.build(n, random_multigraph_pairs(n, m, rng, mu_max=4))
        order = list(G.edge_ids)
        rng.shuffle(order)
        for k in range(G.max_degree() - 1, G.max_degree() + 2):
            pc = PartialColoring(G, k)
            resisted = list(direct_pass(pc, order))
            ref = PartialColoring(G, k)
            ref_resisted = [e for e in order if reference_direct_step(ref, e) is None]
            assert pc == ref and resisted == ref_resisted
            assert resisted == [e for e in order if not pc.is_colored(e)]
            assert_tables_consistent(pc)
            resisting_runs += bool(resisted)
    assert resisting_runs > 0


def _run_matches_the_reference(G, k):
    """color_at_k(G, k) and reference_color_at_k(G, k) give the same
    coloring, trace and evidence; returns the trace and the evidence."""
    pc, trace, ev = color_at_k(G, k)
    ref_pc, ref_trace, ref_ev = reference_color_at_k(G, k)
    assert pc == ref_pc and list(trace.items()) == list(ref_trace.items())
    assert (ev is None) == (ref_ev is None)
    if ev is not None:
        assert (ev.kind, ev.k, ev.tree.edges, ev.tree.vertices) == \
            (ref_ev.kind, ref_ev.k, ref_ev.tree.edges, ref_ev.tree.vertices)
    return trace, ev


def test_color_at_k_matches_extend_on_every_edge():
    """Running the direct step in color_at_k's own loop, and extend only on
    the edges it leaves, changes no coloring, trace or evidence: on 300
    random multigraphs with n from 3 to 16 at k = Delta and Delta + 1, and
    on the canonical tight instances (the odd multi-rings and Petersen
    multiples) at every k from one below the lower bound to the guaranteed
    bound. Every method and both evidence kinds occur."""
    rng = random.Random(23)
    runs = []
    for trial in range(300):
        n = 3 + trial % 14
        m = rng.randint(n, min(8 * n, 2 * n * (n - 1)))
        G = Multigraph.build(n, random_multigraph_pairs(n, m, rng, mu_max=4))
        runs += [(G, G.max_degree()), (G, G.max_degree() + 1)]
    P = petersen()
    tight = [ring(n, mu) for n in range(5, 16, 2) for mu in range(2, 6)]
    tight += [Multigraph.build(10, [P.endpoints(e) for e in P.edge_ids for _ in range(mu)])
              for mu in (1, 2, 3)]
    for G in tight:
        rep = bound_report(G)
        runs += [(G, k) for k in range(rep.lower - 1, rep.gs_upper + 1)]
    methods, kinds = set(), set()
    for G, k in runs:
        trace, ev = _run_matches_the_reference(G, k)
        methods.update(trace.values())
        kinds.add(ev and ev.kind)
    assert methods == {"direct", "kempe", "fallback"}
    assert kinds == {None, "elementary_strongly_closed_tree", "budget_exhausted"}


@pytest.mark.parametrize("below", [0, 1], ids=["completed", "failed"])
def test_extend_sees_only_the_edges_the_direct_step_leaves(below, monkeypatch):
    """color_at_k calls extend on exactly the edges whose trace is not
    "direct", in coloring order, and then on the edge that resists:
    random_multigraph(16, 400, 1) completes at Delta and fails at Delta - 1,
    with chain swaps in both runs."""
    seen = []
    real = engine.extend
    monkeypatch.setattr(engine, "extend",
                        lambda pc, eid: seen.append(eid) or real(pc, eid))
    G = random_multigraph(16, 400, 1)
    pc, trace, ev = color_at_k(G, G.max_degree() - below)
    resisted = [] if ev is None else [ev.tree.root_edge]
    assert len(resisted) == below
    assert "direct" in trace.values() and "kempe" in trace.values()
    assert seen == [e for e, m in trace.items() if m != "direct"] + resisted


@pytest.mark.parametrize("eid", [-1, 3])
def test_extend_refuses_an_edge_outside_the_graph(triangle, eid):
    """The chain step writes unchecked, so extend checks the edge id: a
    negative id would otherwise name an edge from the end."""
    pc = PartialColoring(triangle, 3)
    with pytest.raises(ValueError, match="outside 0..2"):
        extend(pc, eid)
    assert pc == PartialColoring(triangle, 3)
    assert_tables_consistent(pc)


def test_extend_emits_certificate_evidence(triangle):
    # k = 2 < density 3: the grown tree is all of V, elementary and strongly
    # closed, and certifies that 2 colors cannot suffice
    pc, trace, ev = color_at_k(triangle, 2)
    assert ev is not None
    assert ev.kind == "elementary_strongly_closed_tree"
    assert ev.tree.vertex_set == {0, 1, 2}
    assert certificate_check(triangle, ev.tree.vertex_set, 2)


def test_tree_certificate_above_the_density_cap():
    # ring(1001, 7) at k = 14 < density 14 + 7/500: the last edge resists,
    # and the series grows one tree over all 1,001 vertices that certifies
    # the bound, far above the 16-vertex cap of the density scan
    G = ring(1001, 7)
    pc, trace, ev = color_at_k(G, 14)
    assert len(trace) == 7000
    assert ev.kind == "elementary_strongly_closed_tree"
    assert ev.tree.vertex_set == set(range(1001))
    assert certificate_check(G, ev.tree.vertex_set, 14)


def test_extend_evidence_structure():
    # the evidence invariants: odd vertex count, both root ends inside,
    # density above k
    G = shannon_triangle(2)
    pc, trace, ev = color_at_k(G, 5)
    assert ev is not None
    if ev.kind == "elementary_strongly_closed_tree":
        assert len(ev.tree.vertex_set) % 2 == 1
        x, y = G.endpoints(ev.tree.root_edge)
        assert {x, y} <= ev.tree.vertex_set
        assert certificate_check(G, ev.tree.vertex_set, ev.k)


def test_a_certificate_skips_the_exact_search(monkeypatch):
    """ring(5, 3) at k = 7 < Gamma = 15/2: the first edge that resists the
    chain step ends the run. Its series' tree spans {0..4}, whose density
    is above 7, so that tree is the evidence and no exact search runs."""
    calls = []
    real = _kernels.chromatic_feasible
    monkeypatch.setattr(_kernels, "chromatic_feasible",
                        lambda *args: calls.append(args) or real(*args))
    _, trace, ev = color_at_k(ring(5, 3), 7)
    assert (ev.kind, ev.tree.vertex_set, len(trace), calls) == \
        ("elementary_strongly_closed_tree", set(range(5)), 13, [])
    assert "fallback" not in trace.values()


def test_evidence_certifies_exactly_when_its_tree_is_dense(monkeypatch):
    """With no exact fallback, every attempt on the canonical tight_family
    graphs and on mu K_9 (mu 1 to 5), at each k from Delta to gs_upper - 1,
    fails, and its evidence is a certificate exactly when the series' final
    tree is an odd set of at least 3 vertices with density above k (by
    `scan_density`). Where m <= 25, each certified k is below the exact
    chromatic index."""
    monkeypatch.setattr(engine, "ORACLE_EDGE_CAP", 0)
    graphs = [inst.graph for inst in tight_family(1) if inst.canonical]
    graphs += [Multigraph.build(9, [p for p in combinations(range(9), 2) for _ in range(mu)])
               for mu in range(1, 6)]
    seen = Counter()
    for G in graphs:
        rep = bound_report(G)
        for k in range(rep.delta, rep.gs_upper):
            _, _, ev = color_at_k(G, k)
            d = scan_density(G, ev.tree.vertex_set)
            certified = ev.kind == "elementary_strongly_closed_tree"
            assert certified == (d is not None and d > k), (G, k)
            assert certified or ev.kind == "budget_exhausted"
            if certified and G.m <= 25:
                assert chromatic_index_exact(G) > k
                seen["exact"] += 1
            seen[ev.kind] += 1
    assert seen == {"elementary_strongly_closed_tree": 46, "budget_exhausted": 3,
                    "exact": 12}


@pytest.mark.parametrize("make", [make_pe_instance, make_se_instance])
def test_failed_extend_reports_the_series_tree(make, monkeypatch):
    """With no fallback, an edge that resists the direct step and the chain
    swap ends in budget_exhausted: the series ran once, left the coloring
    as it was, and its own final tree is the evidence."""
    monkeypatch.setattr(engine, "ORACLE_EDGE_CAP", 0)
    G, pc = make()
    before = pc.clone()
    out = extend(pc, 0)
    assert out.status == "evidence" and out.evidence.kind == "budget_exhausted"
    assert pc == before
    assert out.evidence.tree == build_series(pc, 0).final_tree


def test_verify_rejects_recolored_clash():
    G = petersen()
    res = color(G)
    obj = res.to_json_obj()
    # force two adjacent edges into the same color
    e0, e1 = G.edges_at(0)[:2]
    obj["assignment"][e1][1] = obj["assignment"][e0][1]
    assert not verify_result(G, result_from_json(G, json.dumps(obj)))


def test_verify_rejects_inflated_k():
    G = petersen()
    obj = color(G).to_json_obj()
    obj["k_used"] = 9
    assert not verify_result(G, result_from_json(G, json.dumps(obj)))


def test_verify_rejects_incomplete():
    G = petersen()
    obj = color(G).to_json_obj()
    obj["assignment"][0][1] = None
    obj["certificates"] = []
    assert not verify_result(G, result_from_json(G, json.dumps(obj)))


def _desk_corpus_seed_1():
    """colorbench's desk_corpus at seed 1: the exhaustive n <= 5, m <= 10
    family plus 500 random multigraphs drawn from random.Random(1)."""
    out = list(exhaustive_connected(5, 10))
    rng = random.Random(1)
    for _ in range(500):
        n = rng.randint(2, 8)
        m = rng.randint(1, min(20, 4 * n * (n - 1) // 2))
        out.append(random_multigraph(n, m, rng.randrange(10 ** 9), mu_max=4))
    return out


def _certificate_variants(G, k_used):
    """(sound, forged) certificate lists. Sound: none, and the density
    argmax. Forged: a wrong value, an even set, a set naming a vertex G
    lacks, and the first three vertices claimed against k_used - 1. The
    first three vertices at their own k are sound but, mostly, too low to
    settle the bound; they go with the forgeries."""
    n = G.vertex_count
    sound = [[]]
    forged = [[(DensityCertificate(frozenset({0, 1, n}), Fraction(1)), 0)],
              [(DensityCertificate(frozenset(range(2)), Fraction(2)), 1)]]
    rep = bound_report(G)
    if rep.gamma_set:
        sound.append([(DensityCertificate(rep.gamma_set, rep.gamma),
                       math.ceil(rep.gamma) - 1)])
        forged.append([(DensityCertificate(rep.gamma_set, rep.gamma + 1), 0)])
    if n >= 3:
        u = frozenset(range(3))
        low = DensityCertificate(u, odd_set_density(G, u))
        forged += [[(low, math.ceil(low.value) - 1)], [(low, k_used - 1)]]
    return sound, forged


def _improper(G, colors):
    """colors with two edges at a vertex of top degree sharing a color, or
    None when no vertex has two edges."""
    v = max(range(G.vertex_count), key=G.degree)
    if G.degree(v) < 2:
        return None
    e0, e1 = G.edges_at(v)[:2]
    return {**colors, e1: colors[e0]}


def test_verify_result_equals_the_scan_on_the_desk_corpus(monkeypatch):
    """On every seed-1 desk_corpus result and its tampered variants (k_used
    raised, sound and forged certificates, improper and partial colorings),
    loaded from JSON as untrusted input is, verify_result answers what the
    density scan answers on the raw record, and it runs the scan only when
    k_used > Delta + 1 and no certificate settles the bound. A k_used above
    m + 1 is refused at loading; the scan would reject it too."""
    from gscolor import engine
    scans = []
    real = engine.bound_report
    monkeypatch.setattr(engine, "bound_report",
                        lambda G: scans.append(G) or real(G))
    hits = {"delta": 0, "certificate": 0, "scan": 0}
    for G in _desk_corpus_seed_1():
        res = color(G)
        colors = {e: res.coloring.color_of(e) for e in G.edge_ids}
        tampered = [c for c in (_improper(G, colors),
                                {**colors, G.edge_ids[0]: None} if G.m else None)
                    if c is not None]
        sound, forged = _certificate_variants(G, res.k_used)
        cases = [(res.k_used + raise_by, colors, certs)
                 for raise_by in (0, 1, 2) for certs in sound]
        cases += [(res.k_used, colors, certs) for certs in forged]
        cases += [(res.k_used, c, []) for c in tampered]
        for k, assignment, certs in cases:
            obj = ColoringResult(res.coloring, certs, res.trace).to_json_obj()
            obj["k_used"] = k
            obj["assignment"] = [[e, assignment[e]] for e in G.edge_ids]
            if k > G.m + 1:
                with pytest.raises(ValueError, match="exceeds m"):
                    result_from_json(G, json.dumps(obj))
                assert k > real(G).gs_upper
                continue
            r = result_from_json(G, json.dumps(obj))
            before = len(scans)
            got = verify_result(G, r)
            scanned = len(scans) > before
            assert got == verify_by_scan(G, r, assignment), (G, k, assignment, certs)
            if k <= G.max_degree() + 1:
                assert not scanned
            if scanned:
                hits["scan"] += 1
            elif got:
                hits["delta" if k <= G.max_degree() + 1 else "certificate"] += 1
    assert all(hits.values()), hits


# Records with k_used > Delta+1 among the seed-1 color() results, partial
# records included.
CERTIFIED = {"desk_corpus": 62, "tight_family": 279 + 15, "cli_roundtrip": 2}


@pytest.mark.parametrize("workload", sorted(CERTIFIED))
def test_color_results_prove_their_own_bound(workload, tmp_path, monkeypatch):
    """Every seed-1 color() record, complete or partial, carries exactly one
    certificate when k_used > Delta + 1, and none otherwise; that one is
    (gamma_set, Gamma) of bound_report(G) against k_used - 1. So
    verify_result accepts every complete one without calling bound_report."""
    from colorbench.workloads import build
    from gscolor import engine
    calls = []
    real = engine.bound_report
    monkeypatch.setattr(engine, "bound_report", lambda G: calls.append(G) or real(G))
    certified = 0
    for inst in build(workload, 1, str(tmp_path)):
        G = inst.graph
        try:
            res = color(G)
        except IncompleteColoringError as exc:
            res = exc.result
        rep = bound_report(G)
        if res.k_used > rep.delta + 1:
            want = [(DensityCertificate(rep.gamma_set, rep.gamma), res.k_used - 1)]
            certified += 1
        else:
            want = []
        assert res.certificates == want, inst.id
        if not res.coloring.uncolored_edges:
            before = len(calls)
            assert verify_result(G, res), inst.id
            assert len(calls) == before, inst.id
    assert certified == CERTIFIED[workload]


def test_result_json_round_trip():
    G = shannon_triangle(2)
    res = color(G)
    back = result_from_json(G, res.to_json())
    assert back.k_used == res.k_used
    assert back.to_json() == res.to_json()
    assert verify_result(G, back)


def test_result_json_rejects_wrong_graph():
    res = color(shannon_triangle(2))
    with pytest.raises(ValueError):
        result_from_json(petersen(), res.to_json())


def test_result_json_rejects_a_certificate_that_repeats_a_vertex():
    """ring(5, 3) carries Gamma's odd set {0..4} against k_used - 1; the same
    set written with vertex 0 three times is refused at loading, as a trace
    that names an edge twice is (it used to load and verify)."""
    G = ring(5, 3)
    obj = color(G).to_json_obj()
    assert [c["u"] for c in obj["certificates"]] == [[0, 1, 2, 3, 4]]
    obj["certificates"][0]["u"] = [0, 1, 2, 3, 4, 0, 0]
    with pytest.raises(ValueError, match="names a vertex twice"):
        result_from_json(G, json.dumps(obj))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10 ** 30) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12)


@given(st.sampled_from(["v", "k_used", "seed", "assignment", "trace",
                        "certificates", "assignment.0", "assignment.0.1",
                        "certificates.0", "certificates.0.value.den"]),
       JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_result_from_json_rejects_or_verifies_any_edit(path, value):
    """Any value at any place in a result file either loads (and then
    verifies to a plain bool) or raises ValueError; nothing else escapes."""
    G = ring(5, 2)
    obj = color(G).to_json_obj()
    obj["certificates"] = [{"u": [0, 1, 2], "value": {"num": 4, "den": 2}, "k": 3}]
    *parents, last = path.split(".")
    target = obj
    for key in parents:
        target = target[int(key)] if isinstance(target, list) else target[key]
    target[int(last) if isinstance(target, list) else last] = value
    try:
        res = result_from_json(G, json.dumps(obj))
    except ValueError:
        return
    assert verify_result(G, res) in (True, False)


def test_engine_random_instances_within_bounds():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(2, 7)
        m = rng.randint(1, min(14, 4 * n * (n - 1) // 2))
        G = Multigraph.build(n, random_multigraph_pairs(n, m, rng, mu_max=4))
        res = color(G)
        rep = bound_report(G)
        assert res.k_used <= rep.gs_upper
        assert verify_result(G, res)
        chi = chromatic_index_exact(G)
        assert chi <= res.k_used


def test_incomplete_carries_partial_coloring(monkeypatch):
    """With the exact fallback disabled, a heuristic dead end at the
    guaranteed bound raises an explicit incomplete failure holding the
    partial coloring (never an improper or over-budget result)."""
    pairs = [(0, 3), (0, 3), (0, 4), (0, 4), (1, 2), (1, 2), (1, 3), (1, 4),
             (2, 3), (2, 4)]
    G = Multigraph.build(5, pairs)
    with monkeypatch.context() as patch, \
            pytest.raises(IncompleteColoringError) as exc:
        patch.setattr(engine, "ORACLE_EDGE_CAP", 0)
        color(G)
    partial = exc.value.result.coloring
    assert validate(G, partial) == []
    assert 0 < sum(1 for e in G.edge_ids if partial.color_of(e) is not None) < G.m
    # the edge that resisted is one of G's, left uncolored in the record
    assert exc.value.edge in G.edge_ids
    assert partial.color_of(exc.value.edge) is None
    # the exact fallback, at its 25-edge cap, completes the same instance
    res = color(G)
    assert res.k_used == 5
    assert "fallback" in res.trace.values()


def _doubled(G):
    return Multigraph.build(G.vertex_count,
                            [G.endpoints(e) for e in G.edge_ids for _ in range(2)])


# sha256 of the record's to_json(), complete or the partial one an incomplete
# run carries, pinned so that speed-ups of the extension loop cannot change a
# single output byte.
GOLDEN = [
    (lambda: random_multigraph(16, 400, 1),
     "13ebe6c12e5b7cf09dbac581628c8dca4cb84ab81674c7fa2d298902ad0c8383"),
    (lambda: random_multigraph(16, 800, 2),
     "7cf7fef66d6caf9a899ed67bf6f193185e8fb00faba93a181d972a2eed7e8366"),
    (lambda: random_multigraph(16, 1200, 3),
     "6e662e88c6c5c541e7061993c1469570453e4fc1abcd4cd7909b7d6c1aa97d15"),
    (lambda: random_multigraph(16, 1600, 4),
     "176ec5979fb6c2a80a26e8760b1b87c7e8dd933eed0f8b2691bdc0c1bf6d5d6d"),
    (lambda: ring(9, 2),
     "86222afec0ff886d8bba50b1106014c27757870d1bd0b91dc04fa15258757f2e"),
    (lambda: _doubled(petersen()),
     "7e24a5e31c4679d81db34fa27e824f82b3f6338550fe0a5b36f7a3711d6d8672"),
]


@pytest.mark.parametrize("make, digest", GOLDEN,
                         ids=["rand400", "rand800", "rand1200", "rand1600",
                              "ring9x2", "petersen_x2"])
def test_color_output_is_pinned(make, digest):
    G = make()
    try:
        result = color(G)
    except IncompleteColoringError as exc:
        result = exc.result
    assert hashlib.sha256(result.to_json().encode()).hexdigest() == digest


def test_scale_bench_prints_one_row_per_size(stage_bench_smoke):
    """The scale rows of benchmarks/stage_bench.py at n = 10^3, each sampled
    in a fresh process: `random_multigraph(n, 3n, 1)` at k = Delta, and the
    8-regular configuration-model multigraph, less its self-loops, at
    k = Delta + 1 = 9 and at k = Delta = 8, with the MB resident once the
    graph is built no more than the peak MB."""
    record, _ = stage_bench_smoke
    scale = [r for r in record["rows"] if r["stage"] == "scale"]
    assert [r["case"] for r in scale] == ["random n=1000 k=Delta", "8-regular n=1000 k=Delta+1",
                                          "8-regular n=1000 k=Delta"]
    random_row, regular, at_delta = scale
    assert random_row["m"] == 3000
    assert random_row["k"] == random_multigraph(1000, 3000, 1).max_degree()
    assert 3900 < regular["m"] <= 4000 and regular["k"] == 9
    assert at_delta["m"] == regular["m"] and at_delta["k"] == 8
    for r in scale:
        assert 0 < r["graph_MB"]["min"] <= r["peak_MB"]["min"]


# The same pins for instances that reach the exact fallback, taken before it
# became a single search with the parallel-edge rule; ring5x5 and ring5x4,
# colored above Delta+1, were re-taken when results gained Gamma's certificate.
GOLDEN_FALLBACK = [
    (lambda: ring(5, 5),
     "eec1afd0c445e23e88af1b4b29efaf9517a60430b6b9790cae6b8baa7a55f6ab"),
    (lambda: ring(7, 3),
     "6d3f1b53a6c6c2024e8d07055c1719522b3e947638995ca8017f53591f8a0378"),
    (lambda: ring(5, 4),
     "31c7b8e9cb00783a8593ec7e71de79ca76da2ba1e2399dd237a76e143fe2005f"),
]


@pytest.mark.parametrize("make, digest", GOLDEN_FALLBACK,
                         ids=["ring5x5", "ring7x3", "ring5x4"])
def test_fallback_output_is_pinned(make, digest):
    res = color(make())
    assert "fallback" in res.trace.values()
    assert hashlib.sha256(res.to_json().encode()).hexdigest() == digest


def test_fallback_runs_one_search_per_edge(monkeypatch):
    """ring(5, 5) is colored at its one scheduled k; each fallback edge costs
    one chromatic_feasible call, and no coloring is enumerated, whatever
    name enumerate_colorings is reached by."""
    import sys
    from gscolor import _kernels
    from gscolor.density import enumerate_colorings
    calls = {"feasible": 0, "enumerate": 0}
    feasible = _kernels.chromatic_feasible

    def counted_feasible(*args):
        calls["feasible"] += 1
        return feasible(*args)

    def count_enumerations(frame, event, arg):
        if event == "call" and frame.f_code is enumerate_colorings.__code__:
            calls["enumerate"] += 1

    monkeypatch.setattr(_kernels, "chromatic_feasible", counted_feasible)
    G = ring(5, 5)
    rep = bound_report(G)
    assert rep.lower == rep.gs_upper
    sys.setprofile(count_enumerations)
    try:
        res = color(G)
    finally:
        sys.setprofile(None)
    fallback_edges = sum(1 for m in res.trace.values() if m == "fallback")
    assert fallback_edges > 0
    assert calls == {"feasible": fallback_edges, "enumerate": 0}
    assert verify_result(G, res)


def test_series_invariant_failure_is_raised(monkeypatch):
    """A broken series invariant is a bug: color() raises it instead of
    treating it like a stuck series and falling through."""
    from gscolor import tashkinov
    from gscolor.tashkinov import SeriesInvariantError

    def broken(*args, **kwargs):
        raise SeriesInvariantError("planted")

    monkeypatch.setattr(tashkinov, "series_step", broken)
    with pytest.raises(SeriesInvariantError, match="planted"):
        color(_doubled(petersen()))
