import random

import pytest
from hypothesis import given, settings, strategies as st

from gscolor import (ColoringResult, Multigraph, PartialColoring,
                     defective_colors, is_closed, is_elementary,
                     is_strongly_closed, kempe_chain, kempe_swap,
                     swap_outside, validate)
from gscolor.coloring import chain_components
from gscolor.engine import result_from_json
from oracles import (random_multigraph_pairs, random_proper_coloring,
                     reference_kempe_chain)


def colored_triangle(triangle, colors=(1, 2, 3), k=3):
    return PartialColoring(triangle, k, dict(zip(triangle.edge_ids, colors)))


def test_validate_proper(triangle):
    assert validate(triangle, colored_triangle(triangle)) == []


def test_validate_reports_clash(triangle):
    pc = PartialColoring.unchecked(triangle, 3, {0: 1, 1: 1, 2: 2})
    out = validate(triangle, pc)
    assert len(out) == 1 and "vertex 1" in out[0]


def test_validate_reports_range(triangle):
    pc = PartialColoring.unchecked(triangle, 3, {0: 4, 1: 2, 2: 3})
    assert any("outside" in v for v in validate(triangle, pc))


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
    (debug mode re-derives them after every mutation), and clone shares no
    mutable state with its source."""
    rng = random.Random(data.draw(st.integers(0, 10 ** 6)))
    G = Multigraph.build(n, random_multigraph_pairs(n, m, rng))
    k = G.max_degree() + extra
    pc = PartialColoring(G, k, debug=True)
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
        for w in range(n):
            assert pc.missing(w) == _expected_missing(pc, w)
            assert pc.missing_mask(w) == sum(1 << c for c in pc.missing(w))

    before = pc.signature()
    copy = pc.clone()
    assert copy == pc
    assert copy._color is not pc._color and copy._mask is not pc._mask
    assert all(a is not b for a, b in zip(copy._at, pc._at))
    for eid in sorted(e for e in G.edge_ids if copy.is_colored(e)):
        copy.unassign(eid)
    assert pc.signature() == before
    for w in range(n):
        assert pc.missing(w) == _expected_missing(pc, w)


def test_unchecked_keeps_bad_colors_out_of_the_masks(triangle):
    bad = {0: 10 ** 30, 1: "2", 2: 2.5}
    pc = PartialColoring.unchecked(triangle, 3, bad)
    # no bad color became a shift count: every mask fits in bits 1..k
    assert all(mask.bit_length() <= 4 for mask in pc._mask)
    assert pc.missing(0) == {1, 2, 3}
    out = validate(triangle, pc)
    for eid, c in bad.items():
        assert f"edge {eid}: color {c} outside 1..3" in out
    huge_k = PartialColoring.unchecked(triangle, 10 ** 30, {0: 1, 1: 0, 2: True})
    assert [v for v in validate(triangle, huge_k) if "outside" in v] == \
        [f"edge 1: color 0 outside 1..{10 ** 30}",
         f"edge 2: color True outside 1..{10 ** 30}"]


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


def test_kempe_swap_rejects_stale_chain(triangle):
    pc = colored_triangle(triangle)
    ch = kempe_chain(pc, 0, 1, 2)
    assert ch.edges == (0, 1)
    other = colored_triangle(triangle, (1, 3, 2))   # its (1,2)-chain is edges 0, 2
    with pytest.raises(ValueError, match="not a chain"):
        kempe_swap(other, ch)


def test_swap_outside_whole_graph_is_identity(triangle):
    pc = colored_triangle(triangle)
    assert swap_outside(pc, {0, 1, 2}, 1, 2) == pc


def test_swap_outside_unused_colors(c4):
    pc = PartialColoring(c4, 6, {0: 1, 1: 2, 2: 1, 3: 2})
    assert swap_outside(pc, {0}, 5, 6) == pc


def test_swap_outside_two_cycles():
    # two disjoint alternating 4-cycles outside H = {8}
    pairs = [(i, (i + 1) % 4) for i in range(4)] + \
            [(4 + i, 4 + (i + 1) % 4) for i in range(4)]
    G = Multigraph.build(9, pairs)
    pc = PartialColoring(G, 2, {0: 1, 1: 2, 2: 1, 3: 2, 4: 1, 5: 2, 6: 1, 7: 2})
    out = swap_outside(pc, {8}, 1, 2)
    assert all(out.color_of(e) != pc.color_of(e) for e in G.edge_ids)
    assert validate(G, out) == []


def test_swap_outside_rejects_boundary_color(triangle):
    pc = colored_triangle(triangle)
    # edge 0 is on the boundary of {0} and carries color 1
    with pytest.raises(ValueError, match="boundary edge"):
        swap_outside(pc, {0}, 1, 2)


def test_elementary_trivial_cases(triangle):
    pc = colored_triangle(triangle)
    assert is_elementary(pc, {0})
    assert is_closed(pc, {0, 1, 2})
    assert is_strongly_closed(pc, {0, 1, 2})


def test_predicates_on_triangle_pair(triangle):
    pc = colored_triangle(triangle)
    # missing sets at 0 and 1 are {2} and {3}: disjoint, so elementary;
    # edge 2 joins vertex 2 and carries color 3, missing inside {0,1}
    assert is_elementary(pc, {0, 1})
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
    boundary = shannon2.boundary(h)
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
    pc = PartialColoring(triangle, 3, debug=True)
    pc.assign(0, 1)
    pc.assign(1, 2)
    pc.unassign(0)
    pc.assign(0, 3)
    assert validate(triangle, pc) == []


def test_json_round_trip(triangle):
    """A complete record and a partial one (uncolored edges null, as an
    incomplete run carries it) load back to the same record."""
    complete = ColoringResult(colored_triangle(triangle), 3, [],
                              {0: "direct", 1: "direct", 2: "direct"})
    partial = ColoringResult(PartialColoring(triangle, 3, {0: 1}), 3, [],
                             {0: "direct"})
    for original in (complete, partial):
        text = original.to_json()
        back = result_from_json(triangle, text)
        assert back.coloring == original.coloring
        assert back.to_json() == text
    assert partial.to_json() == ('{"v":1,"k_used":3,"assignment":[[0,1],[1,null],'
                                 '[2,null]],"trace":[[0,"direct"]],"certificates":[]}')
