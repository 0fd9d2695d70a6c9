import collections
import hashlib
import random

import pytest

from colorbench import workloads
from gscolor import (Multigraph, PartialColoring, build_series,
                     elementary_audit, engine, kempe_chain, taa_close, tashkinov)
from gscolor.coloring import alternating_path
from gscolor.density import bound_report, chromatic_index_exact
from gscolor.tashkinov import (SeriesInvariantError, SeriesState, SeriesTuple,
                               TreeSequence, Witness, assert_series_invariants,
                               series_step)
from conftest import make_pe_instance, make_se_instance
from oracles import (colorings_without_edge, graph_boundary, random_multigraph_pairs,
                     random_proper_coloring, reference_closure_vertices,
                     reference_cycle_reaches, reference_taa_close)
from paper_structures import defective_colors, is_closed, is_critical


# -- tree sequences ------------------------------------------------------------

def test_tree_sequence_shape(triangle):
    t = TreeSequence.root(triangle, 0)
    assert t.vertices == (0, 1) and t.edges == (0,)
    grown = t.grow(1, 2)
    assert grown.segment_to(1) == t
    with pytest.raises(ValueError):
        TreeSequence((0, 1), (0, 1, 0))      # repeated vertex


def test_tree_sequence_value_semantics():
    # lists and tuples give the same value; the order is part of it
    a = TreeSequence([0, 1], [0, 1, 2])
    b = TreeSequence((0, 1), (0, 1, 2))
    assert a == b and hash(a) == hash(b)
    assert a.edges == (0, 1) and a.vertices == (0, 1, 2)
    assert a.vertex_set == frozenset({0, 1, 2})
    swapped = TreeSequence((1, 0), (0, 2, 1))
    assert swapped != a and swapped.vertex_set == a.vertex_set
    with pytest.raises(ValueError, match="shape mismatch"):
        TreeSequence([0], [0, 1, 2])


# -- closures -------------------------------------------------------------------

def test_taa_close_already_closed():
    G, pc = make_pe_instance()
    tree = taa_close(pc, TreeSequence.root(G, 0))
    assert taa_close(pc, tree) == tree


def test_taa_close_k4():
    # all of K4 minus one edge colored with 4 colors: the closure must end
    # closed, its boundary free of tree-missing colors
    G = Multigraph.build(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    for cmap in colorings_without_edge(G, 0, 4, cap=5):
        pc = PartialColoring(G, 4, cmap)
        tree = taa_close(pc, TreeSequence.root(G, 0))
        boundary_colors = pc.colors_on(graph_boundary(G, tree.vertex_set))
        assert not (boundary_colors & pc.missing_union(tree.vertices))


def test_taa_close_order_independent():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(4, 8)
        G = Multigraph.build(n, random_multigraph_pairs(n, rng.randint(4, 13), rng))
        pc = random_proper_coloring(G, G.max_degree() + 1, rng, leave_uncolored=1)
        root = TreeSequence.root(G, sorted(pc.uncolored_edges)[0])
        tree = taa_close(pc, root)
        assert tree.vertex_set == reference_closure_vertices(pc, root)


def test_taa_close_matches_reference():
    """The one forward scan against a brute-force reference in the same
    order, from the root of every uncolored edge, some of them left
    uncolored by k < Delta. A join at a lower tree index than the join
    before it is the scan's restart, so the sweep must take that branch."""
    rng = random.Random(20)
    restarts = 0
    for _ in range(80):
        n = rng.randint(3, 12)
        G = Multigraph.build(n, random_multigraph_pairs(n, rng.randint(3, 30), rng))
        k = max(1, G.max_degree() + rng.randint(-2, 1))
        pc = random_proper_coloring(G, k, rng, leave_uncolored=rng.randint(0, 2))
        for eid in sorted(pc.uncolored_edges):
            root = TreeSequence.root(G, eid)
            got = taa_close(pc, root)
            want = reference_taa_close(G, pc, root)
            assert (got.edges, got.vertices) == (want.edges, want.vertices)
            in_ends = [got.vertices.index(G.other_end(e, w))
                       for e, w in zip(got.edges[1:], got.vertices[2:])]
            restarts += sum(b < a for a, b in zip(in_ends, in_ends[1:]))
    assert restarts > 0


# -- elementary audit -----------------------------------------------------------

def test_elementary_audit_ok_and_witness(triangle):
    pc = PartialColoring(triangle, 3, {1: 2, 2: 3})
    bare = TreeSequence.root(triangle, 0)
    # phi(0) misses {1}... vertex 0 has edge 2 (color 3): missing {1, 2};
    # vertex 1 has edge 1 (color 2): missing {1, 3} -> shared color 1
    w = elementary_audit(pc, bare.vertices)
    assert w is not None and w.color == 1 and {w.u, w.v} == {0, 1}
    # a singleton prefix is trivially elementary
    assert elementary_audit(pc, bare.vertices[:1]) is None
    # a larger k only adds shared missing colors: 1 is still the first
    pc5 = PartialColoring(triangle, 5, {1: 2, 2: 3})
    assert elementary_audit(pc5, bare.vertices) == Witness(u=0, v=1, color=1)
    # audit as extension detector: shared missing color at the root ends is
    # exactly colorability of the root edge
    assert (elementary_audit(pc, bare.vertices) is None) == \
        (not (pc.missing(0) & pc.missing(1)))


def test_elementary_audit_on_critical_triples():
    """Trees grown on critical chi' >= Delta+2 instances are elementary."""
    for bundles in [(2, 2, 2), (2, 2, 3), (3, 3, 3)]:
        a, b, c = bundles
        G = Multigraph.build(3, [(0, 1)] * a + [(1, 2)] * b + [(0, 2)] * c)
        assert is_critical(G)
        k = chromatic_index_exact(G) - 1
        for eid in (0, G.m - 1):
            for cmap in colorings_without_edge(G, eid, k, cap=40):
                pc = PartialColoring(G, k, cmap)
                tree = taa_close(pc, TreeSequence.root(G, eid))
                assert elementary_audit(pc, tree.vertices) is None


# -- the series ------------------------------------------------------------------

def test_series_strongly_closed_immediately(shannon2):
    colorings = colorings_without_edge(shannon2, 0, 5, cap=1)
    pc = PartialColoring(shannon2, 5, colorings[0])
    state = build_series(pc, 0)
    assert state.outcome == "strongly_closed"
    assert state.n == 0
    assert state.tree(1).vertex_set == {0, 1, 2}


def test_series_pe_step():
    G, pc = make_pe_instance()
    state = build_series(pc, 0)
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
    gamma_edges = [e for e in graph_boundary(G, t1.vertex_set)
                   if phi1.color_of(e) == pe.gamma]
    assert gamma_edges == [9]
    for c in phi1.missing_union(t1.vertices) - {pe.delta}:
        assert all(phi1.color_of(e) != c for e in graph_boundary(G, t1.vertex_set))


def test_series_se_step():
    G, pc = make_se_instance()
    state = build_series(pc, 0)
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
    state = build_series(pc, 0)
    assert state.outcome == "strongly_closed"
    pe = state.tuples[1]
    assert pe.theta == "pe"
    assert pe.v_n == 2
    assert pe.connecting_edges == {18}
    assert pe.delta == 8 and pe.gamma == 5


def test_series_ledger_json():
    G, pc = make_se_instance()
    state = build_series(pc, 0)
    text = state.to_ledger_json()
    assert '"theta":"se"' in text and '"outcome":"strongly_closed"' in text


def test_series_d_sets_bounded():
    G, pc = make_se_instance()
    state = build_series(pc, 0)
    assert state.outcome == "strongly_closed"
    for i in range(1, state.n + 1):
        assert len(state.d_set(i)) <= i


def test_series_rejects_colored_root(triangle):
    pc = PartialColoring(triangle, 3, {0: 1, 1: 2, 2: 3})
    with pytest.raises(ValueError):
        build_series(pc, 0)


def test_series_strict_false_degrades():
    # non-elementary regime: PE postconditions become void, so the stuck
    # step ends the series with budget exhaustion, keeping the PE row
    pairs = [(0, 1), (0, 2), (0, 3), (1, 4), (2, 5)]
    G = Multigraph.build(6, pairs)
    pc = PartialColoring(G, 13, {1: 1, 2: 9, 3: 9, 4: 9})
    state = build_series(pc, 0)
    assert state.outcome == "budget_exhausted"
    assert state.stuck_reason == \
        "PE: missing color 2 not closed in T_n (tree not elementary)"
    assert [t.theta for t in state.tuples] == ["none", "pe"]


def test_series_void_hypothesis_is_read_before_the_step():
    """T_1 = [1, 5] is not elementary under phi_0 (both ends miss color 2),
    but the PE step's swap makes it so under phi_1: the failed postcondition
    is a void hypothesis, judged on the coloring the step started from."""
    G = Multigraph.build(7, [(3, 5), (1, 6), (1, 5), (0, 6)])
    state = build_series(PartialColoring(G, 2, {0: 1, 1: 1, 3: 2}), 2)
    assert elementary_audit(state.coloring(0), state.tree(1).vertices) is not None
    assert elementary_audit(state.coloring(1), state.tree(1).vertices) is None
    assert state.outcome == "budget_exhausted"
    assert state.stuck_reason == \
        "PE: missing color 2 not closed in T_n (tree not elementary)"
    assert [t.theta for t in state.tuples] == ["none", "pe"]


def test_series_step_rejects_unclosed_tree():
    G, pc = make_pe_instance()
    state = SeriesState(graph=G, tuples=[
        SeriesTuple(tree=TreeSequence.root(G, 0), coloring=pc)])
    with pytest.raises(SeriesInvariantError, match="series tree lost closedness"):
        series_step(state)


def test_pe_exit_path_that_is_not_the_connecting_edge_is_raised(monkeypatch):
    """On a closed tree the PE exit path is the connecting edge alone, since
    the connecting color is missing at the supporting vertex. A color that
    is not (here the least color present there) leaves an exit path that is
    not the connecting edge: a broken invariant, raised with the ledger, not
    a stuck step."""
    def present(state, pi, v_n):
        return min(set(range(1, pi.k + 1)) - pi.missing(v_n))

    monkeypatch.setattr(tashkinov, "_pick_gamma", present)
    G, pc = make_pe_instance()
    with pytest.raises(SeriesInvariantError,
                       match='(?s)not the single connecting edge.*"outcome":"running"'):
        build_series(pc, 0)


def _forged_state(tree_edges, rows):
    """A ledger over vertices 0..5: the uncolored root edge 0 = (0, 1), and
    edges 1 = (0, 2), 2 = (0, 3), 3 = (1, 4), 4 = (1, 5) colored 1, 2, 1, 2
    under k = 3, so only color 3 is missing at the root's ends. Row 0 holds
    the tree over the root's ends and tree_edges (each joins its far end)
    and the base coloring; each later row is (changes to the coloring,
    SeriesTuple fields) on the same tree."""
    G = Multigraph.build(6, [(0, 1), (0, 2), (0, 3), (1, 4), (1, 5)])
    base = {1: 1, 2: 2, 3: 1, 4: 2}
    tree = TreeSequence.root(G, 0)
    for e in tree_edges:
        tree = tree.grow(e, max(G.endpoints(e)))
    tuples = [SeriesTuple(tree=tree, coloring=PartialColoring(G, 3, base))]
    for recolored, fields in rows:
        pc = PartialColoring(G, 3, {**base, **recolored})
        tuples.append(SeriesTuple(tree=tree, coloring=pc, **fields))
    return SeriesState(graph=G, tuples=tuples)


@pytest.mark.parametrize("tree_edges, rows, message", [
    ((), [({}, {"theta": "se", "delta": 1, "gamma": 2})], r"\|D_1\| = 2 > 1"),
    ((1,), [({}, {"theta": "se"})],
     r"T_1 carries colors outside missing\|D: \[1\]"),
    ((), [({1: 3, 3: 3}, {"theta": "se"})],
     "iteration 1 shrank the protected color pool"),
    ((), [({}, {"theta": "pe", "delta": 1, "gamma": 3, "v_n": 0}),
          ({}, {"theta": "pe", "delta": 2, "gamma": 3, "v_n": 0}),
          ({}, {"theta": "se"})],
     "supporting vertex 0: gamma 3 does not chain from previous delta 1"),
], ids=["d-set-too-large", "tree-color-outside-pool", "pool-shrank",
        "pe-colors-do-not-chain"])
def test_ledger_invariants_on_forged_rows(tree_edges, rows, message):
    """Each ledger invariant that a correct series never breaks is raised,
    with the ledger, on a forged ledger that breaks it alone."""
    state = _forged_state(tree_edges, rows)
    with pytest.raises(SeriesInvariantError, match=f"(?s){message}.*" + '"rows"'):
        assert_series_invariants(state)


def test_series_step_that_does_not_grow_the_tree_is_raised(monkeypatch):
    """An extending step must grow the tree; a forged step that appends its
    row with the same tree is a broken invariant."""
    from gscolor.tashkinov import StepOutcome

    def stalled(state):
        state.tuples.append(state.tuples[-1]._replace(theta="se"))
        return StepOutcome("extended", "se")

    monkeypatch.setattr(tashkinov, "series_step", stalled)
    G, pc = make_pe_instance()
    with pytest.raises(SeriesInvariantError,
                       match="series step failed to grow the tree"):
        build_series(pc, 0)


@pytest.mark.parametrize("change, message", [
    ({"edge": 10},
     "PE: recolored-color boundary is not exactly the connecting edge"),
    ({"delta": 5}, "PE: missing color 6 not closed in T_n"),
])
def test_pe_postconditions_on_forged_row(change, message):
    """The PE step's tree is elementary under the coloring it started from,
    so a broken postcondition is a corrupt ledger, not a void hypothesis."""
    G, pc = make_pe_instance()
    state = build_series(pc, 0)
    assert elementary_audit(state.coloring(0), state.tree(1).vertices) is None
    state.tuples[1] = state.tuples[1]._replace(**change)
    with pytest.raises(SeriesInvariantError, match=message):
        assert_series_invariants(state)


def test_colored_boundary_matches_whole_graph_scan():
    """The one boundary read per row against `oracles.graph_boundary`, on the
    root, the closure and every segment of the closure of each uncolored
    edge, with the closure and defective-color predicates derived from it
    as `series_step` derives them."""
    rng = random.Random(19)
    for _ in range(60):
        n = rng.randint(3, 12)
        G = Multigraph.build(n, random_multigraph_pairs(n, rng.randint(3, 30), rng))
        pc = random_proper_coloring(G, G.max_degree() + rng.randint(0, 1), rng,
                                    leave_uncolored=rng.randint(1, 3))
        for eid in sorted(pc.uncolored_edges):
            closure = taa_close(pc, TreeSequence.root(G, eid))
            trees = [closure] + [closure.segment_to(v) for v in closure.vertices[1:]]
            for tree in trees:
                boundary = tashkinov._colored_boundary(pc, tree)
                scanned = {}
                for e in sorted(graph_boundary(G, tree.vertex_set)):
                    if pc.is_colored(e):
                        scanned.setdefault(pc.color_of(e), []).append(e)
                assert {c: [e for e, _ in found]
                        for c, found in boundary.items()} == scanned
                for found in boundary.values():
                    for e, i in found:
                        assert tree.vertices[i] in G.endpoints(e)
                closed = not (boundary.keys() & pc.missing_union(tree.vertices))
                defective = {c for c, found in boundary.items() if len(found) >= 2}
                assert closed == is_closed(pc, tree.vertex_set)
                assert defective == defective_colors(pc, tree.vertex_set)
                if defective:
                    v, f, alpha = tashkinov._max_defective(tree, boundary)
                    assert (tree.vertices.index(v), -f) == max(
                        (tree.vertices.index(w), -e)
                        for e in graph_boundary(G, tree.vertex_set)
                        if pc.color_of(e) in defective
                        for w in G.endpoints(e) if w in tree.vertex_set)
                    assert alpha == pc.color_of(f)


# -- maximum defective vertex -----------------------------------------------------

def test_max_defective_budget_zero():
    G, pc = make_pe_instance()
    tree = taa_close(pc, TreeSequence.root(G, 0))
    boundary = tashkinov._colored_boundary(pc, tree)
    v, f, delta = tashkinov._max_defective(tree, boundary)
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
    r1 = taa_close(phi1, t1)
    assert r1.vertex_set == t2.vertex_set

    state = SeriesState(graph=G, tuples=[
        SeriesTuple(tree=t1, coloring=phi1),
        SeriesTuple(tree=t2, coloring=phi1, theta="pe", edge=9,
                    delta=6, gamma=5, v_n=2)])

    out = series_step(state)
    assert out.kind == "extended" and out.reason == "re"
    re_row = state.tuples[-1]
    assert re_row.theta == "re"
    assert re_row.connecting_colors == {5, 6}     # inherited from the PE rung
    assert re_row.connecting_edges == {10}
    assert re_row.coloring is phi1                # revisiting never recolors
    assert series_step(state).kind == "strongly_closed"


def test_cycle_reaches_matches_the_canonical_cycle_walk():
    """The RE test walks alternating_path's edges from v both ways, and so
    answers as the walk of kempe_chain's canonical vertex list does: on
    paths (no cycle), on cycles that reach the target inside `allowed`, and
    on cycles that touch the target only past a vertex outside it. Colors 1
    and 2 are two random matchings with a few edges dropped, so their
    components are long cycles and paths."""
    rng = random.Random(45)
    seen = collections.Counter()
    for _ in range(300):
        n = 2 * rng.randint(2, 7)
        pairs, colors = [], []
        for c in (1, 2):
            order = rng.sample(range(n), n)
            kept = [p for p in zip(order[::2], order[1::2]) if rng.random() < 0.9]
            pairs += kept
            colors += [c] * len(kept)
        G = Multigraph.build(n, pairs)
        pc = PartialColoring(G, 2, dict(enumerate(colors)))
        a, b = rng.sample((1, 2), 2)
        starts = [v for v in range(n) if pc.edge_at(v, a) is not None]
        if not starts:
            continue
        v = rng.choice(starts)
        allowed = {v} | {w for w in range(n) if rng.random() < 0.7}
        target = {w for w in allowed if rng.random() < 0.2}
        edges, end = alternating_path(pc, v, a, b)
        got = (tashkinov._cycle_reaches(G, edges, v, allowed, target)
               if end == v else None)
        assert got == reference_cycle_reaches(pc, v, a, b, allowed, target)
        on_cycle = set(kempe_chain(pc, v, a, b).vertices) & target
        seen["path" if got is None else "reaches" if got else
             "leaves first" if on_cycle else "no target"] += 1
    assert min(seen[kind] for kind in ("path", "reaches", "leaves first")) >= 3, seen


def test_pe_connecting_color_chains_at_recurring_vertex():
    """When a vertex supports a second parallel extension, the new first
    connecting color is forced to the previous step's second one (and it is
    an error for the search state to offer anything but exactly one)."""
    from gscolor.tashkinov import SeriesStuck, _pick_gamma

    G, pc = make_pe_instance()
    state = build_series(pc, 0)
    assert state.outcome == "strongly_closed"
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


# -- ledger pin --------------------------------------------------------------------

# sha256 over every series ledger of the sweep below. A change to the series
# that moves a row, a stuck reason or a final tree moves this digest; such a
# change re-pins it and says why. The pin is taken under `taa_close`'s least
# (tree index, color) join order.
SERIES_PIN = "5c4fab8430d4af877d87f559bbffb6c1af0eb0bd32fe1674ed528b796cf687d1"


def test_series_ledgers_pinned(monkeypatch, tmp_path):
    """Every series run of seed-1 tight_family colored at each k from
    lower - 1 to gs_upper, with no exact fallback: 2,050 runs, which between
    them take every step kind. A run starts from each coloring and edge that
    the chain step leaves uncolored, so the series is built here from those,
    whether or not `extend` builds it."""
    starts = []
    original = engine.chain_step

    def recording(pc, eid):
        swapped = original(pc, eid)
        if swapped is None:
            starts.append((pc.clone(), eid))
        return swapped

    monkeypatch.setattr(engine, "chain_step", recording)
    monkeypatch.setattr(engine, "ORACLE_EDGE_CAP", 0)
    for inst in workloads.build("tight_family", 1, str(tmp_path)):
        G = inst.graph
        rep = bound_report(G)
        for k in range(rep.lower - 1, rep.gs_upper + 1):
            engine.color_at_k(G, k)
    states = [tashkinov.build_series(pc, eid) for pc, eid in starts]
    digest = hashlib.sha256()
    for state in states:
        digest.update(state.to_ledger_json().encode())
        digest.update(repr(state.stuck_reason).encode())
        tree = state.final_tree
        digest.update(repr((tree.edges, tree.vertices)).encode())
    outcomes = collections.Counter(s.outcome for s in states)
    steps = collections.Counter(t.theta for s in states for t in s.tuples)
    assert outcomes == {"strongly_closed": 1990, "budget_exhausted": 60}
    assert steps == {"none": 2050, "se": 98, "pe": 29, "re": 1}
    assert digest.hexdigest() == SERIES_PIN
