import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from gscolor import (ColoringResult, Multigraph, PartialColoring, color,
                     elementary_audit, kempe_chain, kempe_swap, validate,
                     verify_result)
from gscolor.coloring import alternating_path, interchange
from gscolor.engine import result_from_json
from gscolor.generators import petersen, ring
from paper_structures import (chain_components, defective_colors, is_closed,
                              is_strongly_closed)
from oracles import (assert_tables_consistent, graph_boundary,
                     random_multigraph_pairs, random_proper_coloring,
                     reference_kempe_chain, reference_validate)


def colored_triangle(triangle, colors=(1, 2, 3), k=3):
    return PartialColoring(triangle, k, dict(zip(triangle.edge_ids, colors)))


def test_validate_proper(triangle):
    assert validate(triangle, colored_triangle(triangle)) == []


def test_validate_reports_clash(triangle):
    """validate reports the clash that an unchecked write, the one an engine
    bug would go through, leaves behind."""
    pc = PartialColoring(triangle, 3, {0: 1})
    pc._write(1, 1)
    assert validate(triangle, pc) == ["vertex 1: color 1 on edges 0 and 1"]


def test_validate_reports_range(triangle):
    pc = PartialColoring(triangle, 3, {0: 1, 1: 2})
    pc._write(2, 4)
    assert validate(triangle, pc) == ["edge 2: color 4 outside 1..3"]


def test_validate_matches_the_message_loop():
    """validate, which reads a proper coloring off pc's tables, gives the
    message loop's list on random colorings whose faults, clashes and colors
    outside 1..k, come from unchecked writes, also when asked about another
    graph than pc's."""
    rng = random.Random(18)
    proper = 0
    for _ in range(400):
        n = rng.randint(2, 9)
        G = Multigraph.build(n, random_multigraph_pairs(n, rng.randint(1, 3 * n), rng))
        k = rng.randint(1, G.max_degree() + 1)
        pc = random_proper_coloring(G, k, rng)
        faulty = rng.sample(G.edge_ids, min(G.m, rng.choice([0, 0, 1, 2, 3])))
        for eid in faulty:
            if pc.is_colored(eid):
                pc.unassign(eid)
        for eid in faulty:
            pc._write(eid, rng.choice([0, k + 1, rng.randint(1, k)]))
        other = Multigraph.build(n, random_multigraph_pairs(n, G.m, rng))
        for H in (G, Multigraph.build(n, G._ends), other):
            assert validate(H, pc) == reference_validate(H, pc)
        proper += not validate(G, pc)
    assert 0 < proper < 400


@pytest.mark.parametrize("eid", [-1, 2])
def test_edge_ids_outside_the_graph_are_rejected(eid):
    """-1 and m are ValueErrors, not a wrap to edge m - 1 or an IndexError."""
    G = Multigraph.build(3, [(0, 1), (1, 2)])
    pc = PartialColoring(G, 2)
    with pytest.raises(ValueError, match="outside 0..1"):
        pc.assign(eid, 1)
    assert pc == PartialColoring(G, 2)
    assert_tables_consistent(pc)
    with pytest.raises(ValueError, match="outside 0..1"):
        PartialColoring(G, 2, {eid: 1})


def test_missing_triangle(triangle):
    pc = colored_triangle(triangle)
    # each vertex misses exactly the one color not incident to it
    assert pc.missing(0) == {2}
    assert pc.missing(1) == {3}
    assert pc.missing(2) == {1}


def test_missing_isolated_vertex():
    G = Multigraph.build(3, [(0, 1)])
    pc = PartialColoring(G, 5, {0: 1})
    assert pc.missing(2) == {1, 2, 3, 4, 5}


def test_missing_saturated_vertex():
    G = Multigraph.build(4, [(0, 1), (0, 2), (0, 3)])
    pc = PartialColoring(G, 3, {0: 1, 1: 2, 2: 3})
    assert pc.missing(0) == frozenset()


@given(st.integers(2, 6), st.integers(1, 10), st.integers(0, 10 ** 6))
@settings(max_examples=50, deadline=None)
def test_missing_size_lower_bound(n, m, seed):
    rng = random.Random(seed)
    G = Multigraph.build(n, random_multigraph_pairs(n, m, rng))
    k = G.max_degree() + 1
    pc = random_proper_coloring(G, k, rng)
    for v in range(n):
        assert len(pc.missing(v)) >= k - G.degree(v) >= 1


def _expected_missing(pc, v):
    return frozenset(c for c in range(1, pc.k + 1) if pc.edge_at(v, c) is None)


@given(st.integers(2, 6), st.integers(1, 12), st.integers(0, 3), st.data())
@settings(max_examples=60, deadline=None)
def test_missing_masks_track_mutations(n, m, extra, data):
    """assign, unassign and kempe_swap keep the present-color masks exact
    (the tables are re-derived and cross-checked after every mutation), and
    clone shares no mutable state with its source."""
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    G = Multigraph.build(n, random_multigraph_pairs(n, m, rng))
    k = G.max_degree() + extra
    pc = PartialColoring(G, k)
    for op in data.draw(st.lists(st.sampled_from(["assign", "unassign", "swap"]),
                                 max_size=25)):
        colored = sorted(e for e in G.edge_ids if pc.is_colored(e))
        if op == "assign":
            eid = data.draw(st.sampled_from(G.edge_ids))
            u, v = G.endpoints(eid)
            options = sorted(pc.missing(u) & pc.missing(v))
            if not pc.is_colored(eid) and options:
                pc.assign(eid, data.draw(st.sampled_from(options)))
        elif op == "unassign" and colored:
            pc.unassign(data.draw(st.sampled_from(colored)))
        elif op == "swap" and k >= 2:
            v = data.draw(st.integers(0, n - 1))
            a, b = data.draw(st.lists(st.integers(1, k), min_size=2, max_size=2,
                                      unique=True))
            pc = kempe_swap(pc, kempe_chain(pc, v, a, b))
        assert_tables_consistent(pc)
        for w in range(n):
            assert pc.missing(w) == _expected_missing(pc, w)
            assert pc.missing_mask(w) == sum(1 << c for c in pc.missing(w))

    # a snapshot that does not go through clone, the method under test
    before = {e: pc.color_of(e) for e in G.edge_ids}
    copy = pc.clone()
    assert copy == pc
    assert copy._color is not pc._color and copy._mask is not pc._mask
    assert all(a is not b for a, b in zip(copy._at, pc._at))
    for eid in sorted(e for e in G.edge_ids if copy.is_colored(e)):
        copy.unassign(eid)
        assert_tables_consistent(copy)
    assert {e: pc.color_of(e) for e in G.edge_ids} == before
    assert_tables_consistent(pc)
    for w in range(n):
        assert pc.missing(w) == _expected_missing(pc, w)


def _tables(pc):
    return dict(pc._color), [dict(d) for d in pc._at], list(pc._mask)


def test_unassign_refuses_before_changing_anything():
    """Unassigning an uncolored edge is a KeyError that leaves all three
    tables as they were."""
    G = Multigraph.build(3, [(0, 1), (0, 2)])
    bare = PartialColoring(G, 2, {0: 1})
    before = _tables(bare)
    with pytest.raises(KeyError):
        bare.unassign(1)
    assert _tables(bare) == before


@pytest.mark.parametrize("flips, error", [
    ([(0, 2)], ValueError),                    # clashes with edge 1 at vertex 1
    ([(0, 2), (1, 1), (0, 3)], KeyError),      # edge 0 listed twice
    ([(0, 3), (1, 3)], ValueError),            # edge 0 takes 3, then edge 1 clashes
])
def test_rejected_recolor_restores_the_coloring(flips, error):
    """A flip list that recolor rejects midway raises with every edge back
    in its old color and the tables matching the assignment."""
    G = Multigraph.build(3, [(0, 1), (1, 2)])
    pc = PartialColoring(G, 3, {0: 1, 1: 2})
    before = pc.clone()
    with pytest.raises(error):
        pc.recolor(flips)
    assert pc == before
    assert _tables(pc) == _tables(before)
    assert_tables_consistent(pc)


@pytest.mark.parametrize("color", [True, 1.0])
def test_assign_accepts_only_int_colors(color):
    """True and 1.0 compare equal to 1 but are not colors: a ValueError
    with every table untouched, so no later unassign can skip a mask."""
    G = Multigraph.build(3, [(0, 1), (1, 2)])
    pc = PartialColoring(G, 2)
    before = _tables(pc)
    with pytest.raises(ValueError, match=f"color {color} outside 1..2"):
        pc.assign(0, color)
    assert _tables(pc) == before
    with pytest.raises(ValueError, match=f"color {color} outside 1..2"):
        PartialColoring(G, 2, {0: color})
    pc.assign(1, 1)
    assert_tables_consistent(pc)


@pytest.mark.parametrize("G", [petersen(), ring(5, 2)], ids=["petersen", "ring5x2"])
def test_loaded_colorings_are_proper(G):
    """result_from_json keeps only the proper part of a file: a clashing,
    zero, k+1, huge or null color leaves its edge uncolored, one edit at a
    time or all at once. The coloring it returns has consistent tables, no
    mask bit outside 1..k and nothing for validate to report, and
    verify_result rejects the record as not total."""
    obj = color(G).to_json_obj()
    k = obj["k_used"]
    colors = dict(obj["assignment"])
    e0, e1 = G.edges_at(0)[:2]
    zero, above, huge, null = [e for e in G.edge_ids if e not in (e0, e1)][:4]
    edits = [{e1: colors[e0]}, {zero: 0}, {above: k + 1}, {huge: 10 ** 30},
             {null: None}]
    for edit in edits + [{e: c for one in edits for e, c in one.items()}]:
        text = json.dumps({**obj, "assignment": [[e, edit.get(e, c)]
                                                 for e, c in colors.items()]})
        res = result_from_json(G, text)
        pc = res.coloring
        assert_tables_consistent(pc)
        assert all(mask >> (k + 1) == 0 and not mask & 1 for mask in pc._mask)
        assert validate(G, pc) == []
        assert pc.uncolored_edges == edit.keys()
        assert not verify_result(G, res)


def test_kempe_chain_triangle(triangle):
    pc = colored_triangle(triangle)
    ch = kempe_chain(pc, 0, 1, 2)
    assert ch.kind == "path"
    assert ch.edges == (0, 1)
    assert set(ch.end_vertices) == {0, 2}


def test_kempe_chain_cycle(c4):
    pc = PartialColoring(c4, 2, {0: 1, 1: 2, 2: 1, 3: 2})
    for v in range(4):
        ch = kempe_chain(pc, v, 1, 2)
        assert ch.kind == "cycle"
        assert set(ch.edges) == {0, 1, 2, 3}


def test_kempe_chain_empty(c4):
    pc = PartialColoring(c4, 5, {0: 1, 1: 2, 2: 1, 3: 2})
    ch = kempe_chain(pc, 1, 3, 4)
    assert ch.kind == "path" and ch.edges == () and ch.end_vertices == (1,)


@given(st.integers(2, 7), st.integers(1, 14), st.integers(0, 2),
       st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_kempe_chain_matches_reference_walker(n, m, extra, seed):
    """Every chain of a random partial coloring, path or cycle, is the one
    the earlier two-direction walker returns, in the same orientation."""
    rng = random.Random(seed)
    m = min(m, 3 * n * (n - 1) // 2)
    G = Multigraph.build(n, random_multigraph_pairs(n, m, rng, mu_max=3))
    k = max(2, G.max_degree() + extra)
    pc = random_proper_coloring(G, k, rng)
    for v in range(n):
        for a in range(1, k + 1):
            for b in range(1, k + 1):
                if a != b:
                    assert kempe_chain(pc, v, a, b) == \
                        reference_kempe_chain(pc, v, a, b)


def test_kempe_swap_involution_and_properness(triangle):
    pc = colored_triangle(triangle)
    ch = kempe_chain(pc, 0, 1, 2)
    swapped = kempe_swap(pc, ch)
    assert {e: swapped.color_of(e) for e in triangle.edge_ids} == {0: 2, 1: 1, 2: 3}
    assert validate(triangle, swapped) == []
    assert kempe_swap(swapped, kempe_chain(swapped, 0, 1, 2)) == pc


def test_kempe_swap_empty_chain(c4):
    pc = PartialColoring(c4, 5, {0: 1, 1: 2, 2: 1, 3: 2})
    ch = kempe_chain(pc, 1, 3, 4)
    assert kempe_swap(pc, ch) == pc


def test_kempe_swap_refuses_a_chain_of_non_int_colors(triangle):
    """A chain whose colors merely compare equal to ints (1.0) is refused
    before anything is written."""
    pc = colored_triangle(triangle)
    ch = kempe_chain(pc, 0, 1, 2)._replace(colors=frozenset((1.0, 2)))
    with pytest.raises(ValueError, match="outside 1..3"):
        kempe_swap(pc, ch)


def test_kempe_swap_rejects_stale_chain(triangle):
    pc = colored_triangle(triangle)
    ch = kempe_chain(pc, 0, 1, 2)
    assert ch.edges == (0, 1)
    other = colored_triangle(triangle, (1, 3, 2))   # its (1,2)-chain is edges 0, 2
    with pytest.raises(ValueError, match="not a chain"):
        kempe_swap(other, ch)


def _interchanged(pc, edges, a, b):
    """A clone of pc with a and b swapped on `edges` by `interchange`, once
    the checked `recolor` of the same flips has written the same three
    tables into another clone, the tables have been found consistent, and a
    second call on the same edges has restored pc."""
    out, slow = pc.clone(), pc.clone()
    interchange(out, edges, a, b)
    slow.recolor([(e, b if pc.color_of(e) == a else a) for e in edges])
    assert _tables(out) == _tables(slow)
    assert_tables_consistent(out)
    back = out.clone()
    interchange(back, edges, a, b)
    assert _tables(back) == _tables(pc)
    return out


def test_interchange_matches_the_checked_recolor():
    """On whole (a, b)-components, the edge sets that kempe_swap, the
    series' PE step and the chain step flip, interchange writes what recolor
    writes, and undoes itself."""
    rng = random.Random(34)
    seen = Counter()
    for _ in range(400):
        n = rng.randint(2, 12)
        G = Multigraph.build(n, random_multigraph_pairs(n, rng.randint(1, 3 * n), rng))
        k = max(2, G.max_degree() + rng.randint(0, 2))
        pc = random_proper_coloring(G, k, rng)
        a, b = rng.sample(range(1, k + 1), 2)

        chain = kempe_chain(pc, rng.randrange(n), a, b)
        seen["empty" if not chain.edges else
             "2-cycle" if chain.kind == "cycle" and len(chain.edges) == 2 else
             chain.kind] += 1
        _interchanged(pc, chain.edges, a, b)

        components = {kempe_chain(pc, v, a, b).vertices for v in range(n)}
        inside = set().union(*(c for c in components if rng.random() < 0.5))
        outside = [e for e in G.edge_ids if pc.color_of(e) in (a, b)
                   and G.endpoints(e)[0] not in inside]
        seen["outside"] += bool(outside)
        _interchanged(pc, outside, a, b)

        free = [v for v in range(n) if pc.edge_at(v, a) is None]
        if free:
            edges = alternating_path(pc, rng.choice(free), b, a)[0]
            seen["step"] += bool(edges)
            _interchanged(pc, edges, a, b)
    assert min(seen[kind] for kind in
               ("path", "cycle", "2-cycle", "empty", "outside", "step")) >= 3, seen


def _long_alternating(length, cycle, rng):
    """(pc, 1, 2): a (1, 2)-path of `length` edges, or a cycle of that many,
    over shuffled vertex and edge ids, beside random edges of colors 3..5."""
    n = length + (not cycle)
    verts = rng.sample(range(n), n)
    links = [(verts[i], verts[(i + 1) % n]) for i in range(length)]
    extra = random_multigraph_pairs(n, n, rng)
    order = rng.sample(range(length + n), length + n)
    G = Multigraph.build(n, [(links + extra)[i] for i in order])
    pc = PartialColoring(G, 5, {e: 1 + i % 2 for e, i in enumerate(order) if i < length})
    for e in G.edge_ids:
        free = pc.missing(G.endpoints(e)[0]) & pc.missing(G.endpoints(e)[1]) - {1, 2}
        if not pc.is_colored(e) and free:
            pc.assign(e, rng.choice(sorted(free)))
    return pc, 1, 2


def test_interchange_does_not_depend_on_edge_order():
    """Every caller passes its edges in walk or id order, but one pass finds
    the path ends in any order: a random union of whole (a, b)-components,
    shuffled, gives what recolor and the same edges in id order give, and a
    second call in another shuffled order restores pc. The components
    include parallel 2-cycles and paths and cycles of 12 edges or more."""
    rng = random.Random(39)
    cases = [_long_alternating(length, cycle, rng) for length in (12, 13, 14, 16, 20, 31)
             for cycle in (False, True) if not cycle or length % 2 == 0]
    for _ in range(300):
        n = rng.randint(2, 8)
        m = rng.randint(1, min(4 * n, 2 * n * (n - 1)))   # mu <= 4 leaves room for 2n(n - 1)
        G = Multigraph.build(n, random_multigraph_pairs(n, m, rng, mu_max=4))
        k = max(2, G.max_degree() + rng.randint(0, 2))
        cases.append((random_proper_coloring(G, k, rng), *rng.sample(range(1, k + 1), 2)))
    seen = Counter()
    for pc, a, b in cases:
        chains = dict.fromkeys(kempe_chain(pc, v, a, b) for v in range(pc.graph.vertex_count))
        chosen = [c for c in chains if c.edges and (len(c.edges) >= 12 or rng.random() < 0.7)]
        for c in chosen:
            seen["2-cycle" if c.kind == "cycle" and len(c.edges) == 2 else
                 f"long {c.kind}" if len(c.edges) >= 12 else c.kind] += 1
        edges = [e for c in chosen for e in c.edges]
        rng.shuffle(edges)
        out = _interchanged(pc, edges, a, b)
        in_order = pc.clone()
        interchange(in_order, sorted(edges), a, b)
        assert _tables(out) == _tables(in_order)
        interchange(out, rng.sample(edges, len(edges)), a, b)
        assert _tables(out) == _tables(pc)
    assert min(seen[kind] for kind in
               ("path", "2-cycle", "long path", "long cycle")) >= 3, seen


def test_elementary_trivial_cases(triangle):
    pc = colored_triangle(triangle)
    assert elementary_audit(pc, (0,)) is None
    assert is_closed(pc, {0, 1, 2})
    assert is_strongly_closed(pc, {0, 1, 2})


def test_predicates_on_triangle_pair(triangle):
    pc = colored_triangle(triangle)
    # missing sets at 0 and 1 are {2} and {3}: disjoint, so elementary;
    # edge 2 joins vertex 2 and carries color 3, missing inside {0,1}
    assert elementary_audit(pc, (0, 1)) is None
    assert not is_closed(pc, {0, 1})
    assert not is_strongly_closed(pc, {0, 1})


def test_defective_colors_examples(triangle):
    pc = colored_triangle(triangle)
    assert defective_colors(pc, {0, 1, 2}) == frozenset()
    star = Multigraph.build(4, [(0, 1), (0, 2), (0, 3)])
    spc = PartialColoring(star, 3, {0: 1, 1: 2, 2: 3})
    assert defective_colors(spc, {0}) == frozenset()
    path = Multigraph.build(4, [(0, 1), (1, 2), (2, 3)])
    ppc = PartialColoring(path, 2, {0: 1, 1: 2, 2: 1})
    assert defective_colors(ppc, {1, 2}) == frozenset({1})


def test_defective_iff_boundary_at_least_two(shannon2):
    rng = random.Random(5)
    pc = random_proper_coloring(shannon2, 6, rng)
    h = {0, 1}
    boundary = graph_boundary(shannon2, h)
    for alpha in range(1, 7):
        count = sum(1 for e in boundary if pc.color_of(e) == alpha)
        assert (count >= 2) == (alpha in defective_colors(pc, h))


def test_chain_components_partition_colored_edges():
    rng = random.Random(9)
    for _ in range(20):
        G = Multigraph.build(6, random_multigraph_pairs(6, 10, rng))
        pc = random_proper_coloring(G, G.max_degree() + 1, rng)
        comps = chain_components(pc, 1, 2)
        covered = [e for ch in comps for e in ch.edges]
        expect = [e for e in G.edge_ids if pc.color_of(e) in (1, 2)]
        assert sorted(covered) == sorted(expect)
        for ch in comps:
            assert ch.kind == "path" or len(ch.edges) % 2 == 0


def test_debug_mode_cross_check(triangle):
    """There is no debug mode; the tests cross-check the incremental tables
    with the oracle after each mutation they drive."""
    with pytest.raises(TypeError):
        PartialColoring(triangle, 3, debug=True)
    pc = PartialColoring(triangle, 3)
    for op, *args in [("assign", 0, 1), ("assign", 1, 2), ("unassign", 0),
                      ("assign", 0, 3)]:
        getattr(pc, op)(*args)
        assert_tables_consistent(pc)
    assert validate(triangle, pc) == []
    pc._mask[0] ^= 1 << 2
    with pytest.raises(AssertionError, match="masks diverged"):
        assert_tables_consistent(pc)


def test_json_round_trip(triangle):
    """A complete record and a partial one (uncolored edges null, as an
    incomplete run carries it) load back to the same record."""
    complete = ColoringResult(colored_triangle(triangle), [],
                              {0: "direct", 1: "direct", 2: "direct"})
    partial = ColoringResult(PartialColoring(triangle, 3, {0: 1}), [],
                             {0: "direct"})
    for original in (complete, partial):
        text = original.to_json()
        back = result_from_json(triangle, text)
        assert back.coloring == original.coloring
        assert back.to_json() == text
    assert partial.to_json() == ('{"v":1,"k_used":3,"assignment":[[0,1],[1,null],'
                                 '[2,null]],"trace":[[0,"direct"]],"certificates":[]}')
