"""The enumeration kernels against the independent oracles."""

import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gscolor import Multigraph, PartialColoring, _kernels
from gscolor.coloring import validate
from gscolor.density import _oracle_edge_order, enumerate_colorings, first_coloring
from gscolor.generators import ring
from oracles import (brute_density_maximizers, brute_density_scan,
                     random_multigraph_pairs, reference_colorings)


def _instances(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 7)
        m = rng.randint(1, 12)
        yield Multigraph.build(n, random_multigraph_pairs(n, m, rng))


def _interleaved_parallels(n, rng):
    """Random endpoint pairs, each repeated up to three times in either
    orientation, shuffled so parallel edges are interleaved in id order."""
    base = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 6))]
    pairs = [p if rng.random() < 0.5 else p[::-1]
             for p in base for _ in range(rng.randint(1, 3))]
    rng.shuffle(pairs)
    return Multigraph.build(n, pairs[:14])


def _first_canonical(G, k):
    """The first coloring the recursive reference enumeration reaches, in
    oracle order."""
    ordered, _, _ = _oracle_edge_order(G)
    solutions, _ = reference_colorings(G, k, cap=1)
    return [solutions[0][e] for e in ordered] if solutions else None


def _assert_first_coloring(G, k):
    ordered, eu, ev = _oracle_edge_order(G)
    colors = _kernels.chromatic_feasible(eu, ev, G.vertex_count, k)
    assert colors == _first_canonical(G, k)
    if colors is not None:
        pc = PartialColoring(G, k, dict(zip(ordered, colors)))
        assert validate(G, pc) == [] and not pc.uncolored_edges
    return colors


def test_search_returns_the_first_canonical_coloring():
    """The parallel-edge rule leaves the witness and the infeasibility
    answers of the unrestricted enumeration unchanged, k from Delta - 1 to
    Shannon + 1."""
    rng = random.Random(17)
    infeasible = 0
    for _ in range(150):
        G = _interleaved_parallels(rng.randint(2, 7), rng)
        delta = G.max_degree()
        for k in range(delta - 1, 3 * delta // 2 + 2):
            infeasible += _assert_first_coloring(G, k) is None
    assert infeasible > 150


@given(st.integers(2, 6), st.data())
@settings(max_examples=80, deadline=None)
def test_search_matches_enumeration_on_arbitrary_multigraphs(n, data):
    pairs = data.draw(st.lists(
        st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
        .filter(lambda p: p[0] != p[1]), max_size=12))
    G = Multigraph.build(n, pairs)
    k = data.draw(st.integers(max(G.max_degree() - 1, 0), G.max_degree() + 2))
    _assert_first_coloring(G, k)
    # the helper that extend's fallback and chromatic_index_exact share
    solutions, _ = enumerate_colorings(G, k, cap=1)
    assert first_coloring(G, k) == (solutions[0] if solutions else None)


def test_search_on_the_tight_rings():
    """ring(5, 5) at its chromatic index 13 and at 12, where every ordering
    of the five parallel classes used to be searched before giving up."""
    for G, k, feasible in ((ring(5, 5), 13, True), (ring(5, 5), 12, False),
                           (ring(7, 3), 7, True), (ring(5, 3), 7, False)):
        _, eu, ev = _oracle_edge_order(G)
        colors = _kernels.chromatic_feasible(eu, ev, G.vertex_count, k)
        assert (colors is not None) == feasible


def test_search_without_edges_returns_the_empty_coloring():
    assert _kernels.chromatic_feasible([], [], 3, 0) == []
    assert _kernels.chromatic_feasible([0], [1], 2, 0) is None


def test_search_takes_any_color_count():
    """Colors are python-int bits, so k is not capped at the int64 width."""
    eu, ev = [0] * 70, list(range(1, 71))
    assert _kernels.chromatic_feasible(eu, ev, 71, 70) == list(range(1, 71))
    assert _kernels.chromatic_feasible(eu, ev, 71, 69) is None


def test_parallel_prev_links_each_edge_to_the_last_parallel_one():
    assert _kernels.parallel_prev([0, 1, 1, 0, 2], [1, 2, 0, 1, 1]) == [-1, -1, 0, 2, 1]


def _heavy_instances(count, seed):
    """A few vertex pairs, each joined by 10 to 14 parallel edges."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(3, 8)
        pairs = []
        for _ in range(rng.randint(2, 6)):
            pair = tuple(rng.sample(range(n), 2))
            pairs += [pair] * rng.randint(10, 14)
        rng.shuffle(pairs)
        yield Multigraph.build(n, pairs)


def _assert_density_matches_brute(G):
    """The scan's value and first maximizer in ascending mask order agree
    with itertools enumeration; returns the scan's result."""
    cnt, size, mask = _kernels.density_scan(G.pair_counts(), G.vertex_count)
    value, maximizers = brute_density_maximizers(G)
    if maximizers:
        assert Fraction(2 * cnt, size - 1) == value
        assert mask == min(sum(1 << v for v in u) for u in maximizers)
    else:
        assert (cnt, size, mask) == (0, 0, 0)
    return cnt, size, mask


def _regular(n, mu):
    """mu-fold cycle, complete graph and disjoint triangles (on the first
    3 * (n // 3) vertices) on n vertices: regular, so many odd sets tie for
    the maximum."""
    cycle = [(v, (v + 1) % n) for v in range(n)] if n >= 3 else [(0, 1)]
    complete = [(u, v) for u in range(n) for v in range(u + 1, n)]
    triangles = [(v, v + 1 if v % 3 < 2 else v - 2) for v in range(n - n % 3)]
    return [Multigraph.build(n, pairs * mu) for pairs in (cycle, complete, triangles)]


def _graphs_on(n, rng):
    """A random graph, a heavy-multiplicity one and tie-rich regular ones."""
    if n < 2:
        return [Multigraph.build(n, [])]
    pairs = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 3 * n))]
    heavy = []
    for _ in range(rng.randint(1, 4)):
        heavy += [tuple(rng.sample(range(n), 2))] * rng.randint(10, 40)
    return [Multigraph.build(n, pairs), Multigraph.build(n, heavy),
            *_regular(n, rng.randint(1, 3))]


def test_density_paths_agree():
    """n = 1 to 12, across the plain scan's cutoff. On each side of it
    (n = 10, plain, and n = 11, numpy) the disjoint triangles tie for the
    maximum, and a doubled triangle on the top three vertices ties with a
    lower 5-set (K5 with two edges doubled), so the first best mask is in
    the larger size class."""
    cutoff = _kernels.PLAIN_SCAN_VERTICES
    k5 = [(u, v) for u in range(5) for v in range(u + 1, 5)] + [(0, 1), (2, 3)]
    for n in (cutoff, cutoff + 1):
        triangles = _regular(n, 2)[2]
        assert len(brute_density_maximizers(triangles)[1]) == n // 3
        top = [(n - 3, n - 2), (n - 2, n - 1), (n - 3, n - 1)] * 2
        G = Multigraph.build(n, k5 + top)
        assert sorted(map(len, brute_density_maximizers(G)[1])) == [3, 5]
        assert _assert_density_matches_brute(G)[1] == 5
    rng = random.Random(15)
    graphs = [G for n in range(1, 13) for G in _graphs_on(n, rng)]
    for G in [*_instances(25, 12), *graphs]:
        _assert_density_matches_brute(G)


def test_density_numpy_matches_brute_force_above_the_half_split():
    """Every n from 11 to 16, the numpy scan's sizes up to the density cap."""
    rng = random.Random(16)
    for n in range(11, 17):
        pairs = random_multigraph_pairs(n, 30, rng, mu_max=3)
        for G in (Multigraph.build(n, pairs), _regular(n, 2)[0]):
            _assert_density_matches_brute(G)


def _scan_with_triangles(n, triangles, rng):
    """density_scan on light random edges plus each triangle with every edge
    five times; checked against the brute scan, and its mask returned."""
    pair_counts = dict.fromkeys(rng.sample(list(combinations(range(n), 2)), n), 1)
    for triangle in triangles:
        pair_counts.update(dict.fromkeys(combinations(sorted(triangle), 2), 5))
    found = _kernels.density_scan(pair_counts, n)
    assert found == brute_density_scan(pair_counts, n)
    return found[2]


def test_numpy_scan_finds_the_best_set_in_either_parity_block():
    """The numpy scan splits the vertices at lo = n // 2 and computes the
    odd sets in two blocks by the parity of their part B above lo. A heavy
    triangle with 0, 1, 2 or 3 vertices above lo is the first best set, and
    the scan finds it in its block, at every n from 11 to 16."""
    rng = random.Random(22)
    for n in range(11, 17):
        lo = n // 2
        for above in range(4):
            triangle = rng.sample(range(lo), 3 - above) + rng.sample(range(lo, n), above)
            mask = _scan_with_triangles(n, [triangle], rng)
            assert mask == sum(1 << v for v in triangle)
            assert (mask >> lo).bit_count() == above


def test_numpy_scan_breaks_a_cross_block_tie_toward_the_lower_mask():
    """Two equally dense sets, one in each parity block: the lower mask wins
    whichever block holds it, for two triangles and for a triangle against a
    five-vertex set (K5 with two edges doubled, 12 edges over 4, as dense as
    a doubled triangle's 6 over 2)."""
    rng = random.Random(23)
    for n in range(11, 17):
        lo = n // 2
        # |B| odd holds the lower mask, then |B| even does
        for first, second in (([0, 1, lo], [2, lo + 1, lo + 2]),
                              ([0, lo, lo + 1], [1, 2, lo + 2])):
            assert _scan_with_triangles(n, [second, first], rng) == \
                sum(1 << v for v in first)
        # |B| odd holds the lower set, a five-set, then |B| even does
        for k5, triangle in (([0, 1, 2, 3, lo], [4, lo + 1, lo + 2]),
                             ([0, 1, 2, lo, lo + 1], [3, 4, lo + 2])):
            pair_counts = dict.fromkeys(combinations(k5, 2), 1)
            pair_counts.update({(0, 1): 2, (2, k5[4]): 2})
            pair_counts.update(dict.fromkeys(combinations(triangle, 2), 2))
            found = _kernels.density_scan(pair_counts, n)
            assert found == brute_density_scan(pair_counts, n)
            assert found[2] == sum(1 << v for v in k5)


def test_density_paths_agree_under_heavy_multiplicity():
    for G in _heavy_instances(15, 14):
        assert max(G.pair_counts().values()) >= 10
        cnt, size, mask = _assert_density_matches_brute(G)
        members = {v for v in range(G.vertex_count) if mask >> v & 1}
        assert len(members) == size
        assert G.induced_edge_count(members) == cnt


def test_density_scan_is_exact_under_huge_multiplicities():
    """Pair multiplicities near 10^9 at n = 8, 13 and 16: the plain scan's
    integers, and the numpy scan's float64 products and ratios, give the
    exact best count and the first best mask."""
    rng = random.Random(18)
    for n in (8, 13, 16):
        pairs = list(combinations(range(n), 2))
        near = {p: rng.randint(10 ** 9 - 50, 10 ** 9) for p in rng.sample(pairs, 3 * n)}
        uniform = dict.fromkeys(pairs, 10 ** 9)    # every largest odd set ties
        for pair_counts in (near, uniform):
            assert _kernels.density_scan(pair_counts, n) == \
                brute_density_scan(pair_counts, n)


def _table_summing_to(total, pairs, rng):
    """Near-equal multiplicities on the given pairs, summing to total."""
    share = total // len(pairs)
    pair_counts = {p: share - rng.randint(0, 9) for p in pairs}
    pair_counts[pairs[0]] += total - sum(pair_counts.values())
    assert sum(pair_counts.values()) == total
    return pair_counts


def test_plain_scan_field_widths():
    """The plain scan packs its counts in fields of 4 bytes while the
    multiplicities sum below 2^32 and of 8 from there up; each width gives
    the exact best count and first best mask at n = 8 and 10, with a total
    just below and just at the boundary."""
    rng = random.Random(19)
    for n in (8, 10):
        pairs = rng.sample(list(combinations(range(n), 2)), 2 * n)
        for total in (2 ** 32 - 1, 2 ** 32):
            pair_counts = _table_summing_to(total, pairs, rng)
            assert _kernels._plain_density_scan(pair_counts, n) == \
                brute_density_scan(pair_counts, n)


def _near_tie(total):
    """Two disjoint edges of multiplicities a + 1 and a summing to an odd
    total: the triples through either differ by one edge."""
    return {(0, 1): total // 2 + 1, (3, 4): total // 2}


def test_density_scan_refuses_a_sum_of_2_to_the_40():
    """From a multiplicity sum of 2^40 up, on both sides of the plain scan's
    cutoff, density_scan raises instead of answering: float64 no longer
    holds every count of the numpy scan there (it read the near tie's
    2^60 + 1 edges as 2^60)."""
    rng = random.Random(20)
    cutoff = _kernels.PLAIN_SCAN_VERTICES
    for n in (8, cutoff, cutoff + 1):
        pairs = rng.sample(list(combinations(range(n), 2)), 2 * n)
        tables = [_table_summing_to(total, pairs, rng)
                  for total in (2 ** 40, 2 ** 64 - 1, 2 ** 64, 10 ** 30)]
        for pair_counts in [*tables, _near_tie(2 ** 61 + 1)]:
            with pytest.raises(ValueError, match="2\\^40"):
                _kernels.density_scan(pair_counts, n)


def test_density_scan_is_exact_just_below_2_to_the_40():
    """At a multiplicity sum of 2^40 - 1, both scans give the exact best
    count and first best mask, near tie included."""
    rng = random.Random(21)
    cutoff = _kernels.PLAIN_SCAN_VERTICES
    for n in (cutoff, cutoff + 1, 13):
        pairs = rng.sample(list(combinations(range(n), 2)), 2 * n)
        for pair_counts in (_table_summing_to(2 ** 40 - 1, pairs, rng),
                            _near_tie(2 ** 40 - 1)):
            assert _kernels.density_scan(pair_counts, n) == \
                brute_density_scan(pair_counts, n)
    assert _kernels.density_scan(_near_tie(2 ** 40 - 1), cutoff + 1) == \
        (2 ** 39, 3, 0b111)


def test_density_scan_answers_small_and_empty_tables_itself():
    """Fewer than 3 vertices, or no edge, give (0, 0, 0) at any n."""
    for n, pair_counts in ((0, {}), (1, {}), (2, {}), (2, {(0, 1): 7})):
        assert _kernels.density_scan(pair_counts, n) == (0, 0, 0)
    for n in (3, 10, 11, 16):
        zeros = dict.fromkeys(combinations(range(n), 2), 0)
        assert _kernels.density_scan(zeros, n) == (0, 0, 0)
        assert _kernels.density_scan({}, n) == (0, 0, 0)


_EMPTY_SCAN = """
import itertools, sys
from gscolor import _kernels
zeros = dict.fromkeys(itertools.combinations(range(12), 2), 0)
print(_kernels.density_scan(zeros, 12), "numpy" in sys.modules)
"""


def test_empty_scan_loads_no_numpy():
    """An all-zero 12-vertex table stops at density_scan's gate, in a fresh
    process, before the numpy scan could import numpy."""
    src = str(Path(_kernels.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", _EMPTY_SCAN],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    assert run.stdout == "(0, 0, 0) False\n"


def test_kernel_bench_runs(stage_bench_smoke):
    """The kernel rows of benchmarks/stage_bench.py keep calling the kernels
    as they are: the row count of each stage, and a traced memory peak on
    the generation rows only, a positive one."""
    record, _ = stage_bench_smoke
    rows = record["rows"]
    stages = [r["stage"] for r in rows]
    assert (stages.count("feasible"), stages.count("density"), stages.count("extend"),
            stages.count("interchange")) == (7, 12, 4, 4)
    for r in rows:
        assert ("traced_MB" in r) == (r["stage"] == "generate")
    assert all(r["traced_MB"] > 0 for r in rows if r["stage"] == "generate")


def test_dispatch_matches_loop_semantics():
    G = Multigraph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    eu = [G.endpoints(e)[0] for e in G.edge_ids]
    ev = [G.endpoints(e)[1] for e in G.edge_ids]
    assert _kernels.chromatic_feasible(eu, ev, 4, 3) == [1, 2, 1, 2, 3]
    assert _kernels.chromatic_feasible(eu, ev, 4, 2) is None
    cnt, size, mask = _kernels.density_scan(G.pair_counts(), 4)
    assert (cnt, size) == (3, 3) and mask == 0b0111
