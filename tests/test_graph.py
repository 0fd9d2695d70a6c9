import pytest
from hypothesis import given, settings, strategies as st

from gscolor import (Multigraph, ParseError, ScaleExceededError,
                     format_multigraph, is_r_graph, parse_multigraph)
from gscolor.graph import MAX_PARSE_VERTICES
from oracles import brute_min_odd_cut, random_multigraph_pairs

import random


def test_build_triangle(triangle):
    assert triangle.stats() == (3, 3, 2, 1)


def test_build_parallel_bundle():
    G = Multigraph.build(2, [(0, 1), (0, 1), (0, 1)])
    assert G.stats() == (2, 3, 3, 3)


def test_build_empty():
    G = Multigraph.build(0, [])
    assert G.stats() == (0, 0, 0, 0)


def test_build_rejects_self_loop_with_position():
    with pytest.raises(ValueError, match="edge 1"):
        Multigraph.build(3, [(0, 1), (2, 2)])


def test_build_rejects_out_of_range_with_position():
    with pytest.raises(ValueError, match="edge 2"):
        Multigraph.build(3, [(0, 1), (1, 2), (0, 3)])


def test_stats_shannon(shannon2):
    assert shannon2.stats() == (3, 6, 4, 2)


def test_stats_petersen(petersen_graph):
    assert petersen_graph.stats() == (10, 15, 3, 1)


def test_stats_single_edge(single_edge):
    assert single_edge.stats() == (2, 1, 1, 1)


def test_induced_edge_count(triangle, shannon2):
    assert triangle.induced_edge_count({0, 1, 2}) == 3
    assert shannon2.induced_edge_count({0, 1, 2}) == 6
    assert shannon2.induced_edge_count({1}) == 0


def test_boundary_triangle(triangle):
    assert triangle.boundary({0}) == frozenset({0, 2})
    assert triangle.boundary({0, 1, 2}) == frozenset()


def test_boundary_petersen_pentagon(petersen_graph):
    # outer pentagon is vertices 0..4; the spokes are edge ids 5..9
    assert petersen_graph.boundary({0, 1, 2, 3, 4}) == frozenset({5, 6, 7, 8, 9})


def test_r_graph_petersen(petersen_graph):
    assert is_r_graph(petersen_graph, 3)


def test_r_graph_shannon_false(shannon2):
    # 4-regular, but odd order: the full vertex set has an empty boundary
    assert not is_r_graph(shannon2, 4)


def test_r_graph_single_edge(single_edge):
    assert is_r_graph(single_edge, 1)


def test_r_graph_scale_cap():
    G = Multigraph.build(18, [(i, i + 1) for i in range(17)])
    with pytest.raises(ScaleExceededError):
        is_r_graph(G, 1)


def test_min_odd_cut_matches_brute():
    rng = random.Random(7)
    from gscolor import _kernels
    for _ in range(20):
        n = rng.randint(2, 6)
        m = rng.randint(1, 9)
        G = Multigraph.build(n, random_multigraph_pairs(n, m, rng))
        assert _kernels.min_odd_cut(G.edge_masks(), n) == brute_min_odd_cut(G)


@given(st.integers(2, 7), st.integers(0, 12), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_degree_sum_and_partition_identity(n, m, seed):
    rng = random.Random(seed)
    G = Multigraph.build(n, random_multigraph_pairs(n, m, rng) if m else [])
    assert sum(G.degree(v) for v in range(n)) == 2 * G.m
    u = frozenset(v for v in range(n) if rng.random() < 0.5)
    rest = frozenset(range(n)) - u
    assert (G.induced_edge_count(u) + len(G.boundary(u))
            + G.induced_edge_count(rest)) == G.m


def test_subgraph_preserves_ids(shannon2):
    H = shannon2.without_edge(3)
    assert H.edge_ids == (0, 1, 2, 4, 5)
    assert H.endpoints(4) == shannon2.endpoints(4)


def test_text_round_trip(petersen_graph, shannon2, triangle):
    for G in (petersen_graph, shannon2, triangle, Multigraph.build(1, [])):
        text = format_multigraph(G)
        H = parse_multigraph(text)
        assert H == G
        assert format_multigraph(H) == text


def test_parse_accepts_comments():
    G = parse_multigraph("c hello\np multigraph 2 1\nc mid\ne 0 1\n")
    assert G.stats() == (2, 1, 1, 1)


@pytest.mark.parametrize("text,line", [
    ("p multigraph x 1\ne 0 1\n", 1),
    ("e 0 1\n", 1),
    ("p multigraph 2 1\ne 0 2\n", 2),
    ("p multigraph 2 1\ne 1 1\n", 2),
    ("p multigraph 2 1\nq 0 1\n", 2),
    ("p multigraph 3 2\ne 0 1\n", 1),
    ("c a\nc b\np multigraph 3 1\ne 0 1\ne 1 2\n", 3),
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
