from collections import Counter
from typing import NamedTuple

import pytest
from hypothesis import given, settings, strategies as st

from gscolor import (Multigraph, ParseError, PartialColoring, chromatic_index_exact,
                     format_multigraph, parse_multigraph, validate)
from gscolor.generators import exhaustive_connected
from gscolor.graph import MAX_PARSE_VERTICES
from oracles import (bfs_connected, colorings_without_edge, graph_boundary,
                     random_multigraph_pairs, stats, without_edge)
from paper_structures import is_r_graph

import random


def test_build_triangle(triangle):
    assert stats(triangle) == (3, 3, 2, 1)


def test_build_parallel_bundle():
    G = Multigraph.build(2, [(0, 1), (0, 1), (0, 1)])
    assert stats(G) == (2, 3, 3, 3)


def test_build_empty():
    G = Multigraph.build(0, [])
    assert stats(G) == (0, 0, 0, 0)


def test_build_rejects_self_loop_with_position():
    with pytest.raises(ValueError, match="edge 1"):
        Multigraph.build(3, [(0, 1), (2, 2)])


def test_build_rejects_out_of_range_with_position():
    with pytest.raises(ValueError, match="edge 2"):
        Multigraph.build(3, [(0, 1), (1, 2), (0, 3)])


class _Pair(NamedTuple):
    u: int
    v: int


def test_build_keeps_a_callers_tuple_and_makes_other_pairs_plain_tuples():
    """A plain tuple is stored as the object given, so one tuple passed for
    every parallel edge is held once; a list or a NamedTuple becomes a new
    plain tuple with the same ends."""
    t = (0, 1)
    G = Multigraph.build(3, [t, [1, 2], _Pair(0, 2), t, t])
    assert G._ends[0] is t and G._ends[3] is t and G._ends[4] is t
    assert [type(p) for p in G._ends] == [tuple] * 5
    assert G._ends == ((0, 1), (1, 2), (0, 2), (0, 1), (0, 1))
    assert G._degrees == (4, 4, 2)


def _unpack_error(pair):
    try:
        u, v = pair
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)
    raise AssertionError(f"{pair!r} unpacks")


@pytest.mark.parametrize("pairs, error", [
    ([(0, 1), (1, 2), (0, 3)], (ValueError, "edge 2: endpoint out of range: (0, 3)")),
    ([(0, 1), [-1, 2]], (ValueError, "edge 1: endpoint out of range: (-1, 2)")),
    ([(0, 1), _Pair(2, 2)], (ValueError, "edge 1: self-loop at vertex 2")),
    ([(0, 1), (0, 1, 2)], _unpack_error((0, 1, 2))),
    ([[0]], _unpack_error([0])),
    ([(0, 1), 5], _unpack_error(5))])
def test_build_errors_name_the_edge_or_are_the_unpacking_error(pairs, error):
    """Range and self-loop errors carry the edge id; a pair of the wrong
    arity, or no pair at all, raises what unpacking it into (u, v) raises."""
    with pytest.raises(error[0]) as exc:
        Multigraph.build(3, pairs)
    assert str(exc.value) == error[1]


@pytest.mark.parametrize("v", [-1, 3])
def test_vertex_ids_outside_the_graph_are_rejected(v):
    """-1 and n are ValueErrors, not a wrap to vertex n - 1 or an IndexError."""
    G = Multigraph.build(3, [(0, 1), (1, 2)])
    with pytest.raises(ValueError, match=f"^vertex {v} out of range$"):
        G.degree(v)
    with pytest.raises(ValueError, match=f"^vertex {v} out of range$"):
        G.edges_at(v)


def test_graph_queries_match_the_endpoint_pairs():
    """edges_at, degree, max_degree and is_connected agree with definitions
    read off the endpoint pairs alone, on random multigraphs of 0 to 12
    vertices whose edges stay inside up to three random vertex blocks, so
    that isolated vertices and several components are common."""
    rng = random.Random(33)
    connected = Counter()
    for _ in range(500):
        n = rng.randint(0, 12)
        blocks = rng.randint(1, 3)
        block = [rng.randrange(blocks) for _ in range(n)]
        joinable = [(u, v) for u in range(n) for v in range(n)
                    if u != v and block[u] == block[v]]
        pairs = [rng.choice(joinable) for _ in range(rng.randint(0, 3 * n))] if joinable else []
        G = Multigraph.build(n, pairs)
        degrees = [sum(p.count(v) for p in pairs) for v in range(n)]
        for v in range(n):
            assert G.edges_at(v) == tuple(e for e, p in enumerate(pairs) if v in p)
            assert G.degree(v) == degrees[v]
        assert G.max_degree() == max(degrees, default=0)
        assert G.is_connected() == bfs_connected(n, pairs)
        if n >= 2:
            connected[G.is_connected()] += 1
    assert min(connected.values()) > 50


def test_stats_shannon(shannon2):
    assert stats(shannon2) == (3, 6, 4, 2)


def test_stats_petersen(petersen_graph):
    assert stats(petersen_graph) == (10, 15, 3, 1)


def test_stats_single_edge(single_edge):
    assert stats(single_edge) == (2, 1, 1, 1)


def test_pair_counts_key_each_pair_once():
    """Reversed endpoints and parallel edges land on one (u < v) key."""
    G = Multigraph.build(4, [(1, 0), (0, 1), (3, 2), (2, 1), (1, 2), (1, 2), (0, 3)])
    assert G.pair_counts() == {(0, 1): 2, (2, 3): 1, (1, 2): 3, (0, 3): 1}
    assert Multigraph.build(3, []).pair_counts() == {}
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randint(2, 7)
        pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(0, 20))]
        G = Multigraph.build(n, pairs)
        want = Counter(tuple(sorted(p)) for p in pairs)
        assert G.pair_counts() == want


def test_pair_counts_folds_a_shared_tuple_and_its_reverse():
    """One tuple object and one of its reverse, each repeated hundreds of
    times and interleaved, count on one (u < v) key; a pair given only
    reversed gets its (u < v) key too."""
    fwd, rev = (2, 5), (5, 2)
    pairs = [fwd] * 300 + [rev] * 200 + [(4, 0)] * 9 + [rev, fwd] * 50
    G = Multigraph.build(6, pairs)
    assert len(set(map(id, G._ends))) == 3
    counts = G.pair_counts()
    assert isinstance(counts, Counter)
    assert counts == {(2, 5): 600, (0, 4): 9}
    assert Multigraph.build(6, [rev] * 400).pair_counts() == {(2, 5): 400}


def test_induced_edge_count(triangle, shannon2):
    assert triangle.induced_edge_count({0, 1, 2}) == 3
    assert shannon2.induced_edge_count({0, 1, 2}) == 6
    assert shannon2.induced_edge_count({1}) == 0


def test_boundary_triangle(triangle):
    assert graph_boundary(triangle, {0}) == frozenset({0, 2})
    assert graph_boundary(triangle, {0, 1, 2}) == frozenset()


def test_boundary_petersen_pentagon(petersen_graph):
    # outer pentagon is vertices 0..4; the spokes are edge ids 5..9
    assert graph_boundary(petersen_graph, {0, 1, 2, 3, 4}) == frozenset({5, 6, 7, 8, 9})


def test_r_graph_petersen(petersen_graph):
    assert is_r_graph(petersen_graph, 3)


def test_r_graph_shannon_false(shannon2):
    # 4-regular, but odd order: the full vertex set has an empty boundary
    assert not is_r_graph(shannon2, 4)


def test_r_graph_single_edge(single_edge):
    assert is_r_graph(single_edge, 1)


@given(st.integers(2, 7), st.integers(0, 12), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_degree_sum_and_partition_identity(n, m, seed):
    rng = random.Random(seed)
    G = Multigraph.build(n, random_multigraph_pairs(n, m, rng) if m else [])
    assert sum(G.degree(v) for v in range(n)) == 2 * G.m
    u = frozenset(v for v in range(n) if rng.random() < 0.5)
    rest = frozenset(range(n)) - u
    assert (G.induced_edge_count(u) + len(graph_boundary(G, u))
            + G.induced_edge_count(rest)) == G.m


def test_without_edge_renumbers_and_colorings_map_back(shannon2):
    """Edges after the removed one move down one id, and each coloring of
    G - e, mapped back onto G's ids, is proper on G with only e uncolored."""
    H = without_edge(shannon2, 3)
    assert [H.endpoints(e) for e in H.edge_ids] == \
        [shannon2.endpoints(e) for e in (0, 1, 2, 4, 5)]
    checked = 0
    for G in list(exhaustive_connected(4, 6))[::4]:
        k = chromatic_index_exact(G)
        for eid in G.edge_ids:
            for cmap in colorings_without_edge(G, eid, k, cap=4):
                pc = PartialColoring(G, k, cmap)
                assert validate(G, pc) == [] and pc.uncolored_edges == {eid}
                checked += 1
    assert checked > 0


def test_text_round_trip(petersen_graph, shannon2, triangle):
    for G in (petersen_graph, shannon2, triangle, Multigraph.build(1, [])):
        text = format_multigraph(G)
        H = parse_multigraph(text)
        assert H == G
        assert format_multigraph(H) == text


def test_parse_accepts_comments():
    G = parse_multigraph("c hello\np multigraph 2 1\nc mid\ne 0 1\n")
    assert stats(G) == (2, 1, 1, 1)


@pytest.mark.parametrize("text,line", [
    ("p multigraph x 1\ne 0 1\n", 1),
    ("e 0 1\n", 1),
    ("p multigraph 2 1\ne 0 2\n", 2),
    ("p multigraph 2 1\ne 1 1\n", 2),
    ("p multigraph 2 1\nq 0 1\n", 2),
    ("p multigraph 3 2\ne 0 1\n", 1),
    ("c a\nc b\np multigraph 3 1\ne 0 1\ne 1 2\n", 3),
    # only ASCII decimal integers, though int() takes all of these
    ("p multigraph 1_1 2\ne 0 1\ne 1 2\n", 1),
    ("p multigraph +3 0\n", 1),
    ("p multigraph 11 1\ne 0 1_0\n", 2),
    ("p multigraph 11 1\ne +1 2\n", 2),
    ("p multigraph 11 1\ne 0 \u0661\u0660\n", 2),
])
def test_parse_errors_carry_line_numbers(text, line):
    with pytest.raises(ParseError) as exc:
        parse_multigraph(text)
    assert exc.value.line == line


def test_parse_rejects_vertex_count_above_cap():
    # refused at the header line, before any per-vertex table is allocated
    text = f"c big\np multigraph {MAX_PARSE_VERTICES + 1} 0\n"
    with pytest.raises(ParseError) as exc:
        parse_multigraph(text)
    assert exc.value.line == 2


# Line kinds and fields that make the fuzzer reach every branch of the
# parser: headers and edge lines with good and bad counts, endpoints and
# field numbers, comments, blank lines and unknown line types.
_KINDS = ["p multigraph", "p graph", "p", "e", "c", "q", ""]
_FIELDS = ["0", "1", "2", "3", "-1", "x", "1_0", "99999999",
           str(MAX_PARSE_VERTICES + 1)]


@st.composite
def _graph_like_text(draw):
    lines = draw(st.lists(st.tuples(st.sampled_from(_KINDS),
                                    st.lists(st.sampled_from(_FIELDS), max_size=3)),
                          max_size=8))
    sep = draw(st.sampled_from([" ", "\t", "  "]))
    return "\n".join(sep.join([kind, *fields]).strip() for kind, fields in lines)


@given(st.one_of(st.text(max_size=200), _graph_like_text()))
@settings(max_examples=300, deadline=None)
def test_parse_fuzz_gives_a_graph_or_a_parse_error(text):
    try:
        G = parse_multigraph(text)
    except ParseError as exc:
        assert exc.line >= 1
    else:
        assert isinstance(G, Multigraph)
        assert parse_multigraph(format_multigraph(G)) == G


@given(st.integers(0, 8), st.data())
@settings(max_examples=100, deadline=None)
def test_format_parse_round_trip_is_identity(n, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, max(n - 1, 0)), st.integers(0, max(n - 1, 0)))
        .filter(lambda p: p[0] != p[1]), max_size=30)) if n >= 2 else []
    G = Multigraph.build(n, pairs)
    H = parse_multigraph(format_multigraph(G))
    assert H == G
    assert [H.endpoints(e) for e in H.edge_ids] == pairs


def test_is_connected(triangle):
    assert triangle.is_connected()
    assert not Multigraph.build(4, [(0, 1), (2, 3)]).is_connected()
    assert Multigraph.build(1, []).is_connected()
