import inspect
import random
from fractions import Fraction
from itertools import combinations

import pytest

from colorbench.workloads import desk_corpus, tight_family
from gscolor import (Multigraph, ScaleExceededError, bound_report,
                     certificate_check, chromatic_index_exact)
from gscolor.density import enumerate_colorings, odd_set_density
from gscolor.generators import exhaustive_connected, random_multigraph, ring, shannon_triangle
from oracles import (brute_chi_prime, brute_density, random_multigraph_pairs,
                     reference_bound_report, reference_colorings, stats)
from paper_structures import is_critical


def test_density_triangle(triangle):
    rep = bound_report(triangle)
    assert rep.gamma == 3 and rep.gamma_set == {0, 1, 2}


def test_density_shannon(shannon2):
    rep = bound_report(shannon2)
    assert rep.gamma == 6 and rep.gamma_set == {0, 1, 2}


def test_density_petersen(petersen_graph):
    rep = bound_report(petersen_graph)
    assert rep.gamma == 3           # 12 edges on any 9 vertices: 24/8
    assert len(rep.gamma_set) == 9
    assert petersen_graph.induced_edge_count(rep.gamma_set) == 12


def test_density_degenerate(single_edge):
    rep = bound_report(single_edge)
    assert rep.gamma == 0 and rep.gamma_set == frozenset()
    assert bound_report(Multigraph.build(0, [])).gamma == 0


def test_package_attribute_is_the_density_module():
    """gscolor.density names the submodule, not its density function."""
    import gscolor
    assert inspect.ismodule(gscolor.density)


def test_density_matches_brute_oracle():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(3, 7)
        m = rng.randint(1, 12)
        G = Multigraph.build(n, random_multigraph_pairs(n, m, rng))
        value, _ = brute_density(G)
        rep = bound_report(G)
        assert rep.gamma == value
        if value > 0:
            assert Fraction(2 * G.induced_edge_count(rep.gamma_set),
                            len(rep.gamma_set) - 1) == value


def _fields(rep):
    return [(type(value), value) for value in rep]


def test_bound_report_matches_the_fraction_record():
    """Every field of bound_report, and its type, equals the record built
    with Fraction arithmetic, math.ceil and max: on every seed-1 desk_corpus
    instance; on the canonical tight_family graphs (5 to 15 vertices, so
    both the plain and the numpy scan); at n < 3 and m = 0; and where
    Gamma = Delta, where chi_star is Fraction(Delta)."""
    graphs = [inst.graph for inst in desk_corpus(1)]
    tight = [inst.graph for inst in tight_family(1) if inst.canonical]
    assert {G.vertex_count for G in tight} >= {5, 10, 11, 15}
    k4 = Multigraph.build(4, [(u, v) for u in range(4) for v in range(u + 1, 4)])
    path = Multigraph.build(3, [(0, 1), (1, 2)])
    small = [Multigraph.build(0, []), Multigraph.build(1, []), Multigraph.build(2, [(0, 1)] * 3),
             Multigraph.build(5, []), k4, path]
    for G in graphs + tight + small:
        assert _fields(bound_report(G)) == _fields(reference_bound_report(G)), stats(G)
    for G in (k4, path):
        rep = bound_report(G)
        assert rep.gamma == rep.delta and _fields(rep)[7] == (Fraction, Fraction(rep.delta))


def test_density_scale_cap():
    G = Multigraph.build(17, [(i, i + 1) for i in range(16)])
    with pytest.raises(ScaleExceededError):
        bound_report(G)


def test_bound_report_petersen(petersen_graph):
    rep = bound_report(petersen_graph)
    assert (rep.delta, rep.gamma, rep.chi_star) == (3, 3, 3)
    assert (rep.lower, rep.gs_upper, rep.shannon, rep.vizing) == (3, 4, 4, 4)


def test_bound_report_shannon(shannon2):
    rep = bound_report(shannon2)
    assert (rep.delta, rep.gamma, rep.gs_upper) == (4, 6, 6)
    assert rep.shannon == 6 and rep.vizing == 6


def test_bound_report_single_edge(single_edge):
    rep = bound_report(single_edge)
    assert (rep.delta, rep.gamma, rep.chi_star) == (1, 0, 1)
    assert (rep.lower, rep.gs_upper) == (1, 2)


def test_bound_report_consistency():
    rng = random.Random(33)
    for _ in range(20):
        n = rng.randint(2, 7)
        m = rng.randint(0, 12)
        G = Multigraph.build(n, random_multigraph_pairs(n, m, rng) if m else [])
        rep = bound_report(G)
        assert rep.lower <= rep.gs_upper <= rep.lower + 1
        assert rep.chi_star <= rep.gs_upper


def test_chromatic_index_named(triangle, petersen_graph, shannon2):
    assert chromatic_index_exact(triangle) == 3
    assert chromatic_index_exact(petersen_graph) == 4
    assert chromatic_index_exact(shannon2) == 6
    assert chromatic_index_exact(Multigraph.build(3, [])) == 0


def test_chromatic_index_matches_brute_oracle():
    rng = random.Random(55)
    for _ in range(25):
        n = rng.randint(2, 6)
        m = rng.randint(1, 9)
        G = Multigraph.build(n, random_multigraph_pairs(n, m, rng))
        assert chromatic_index_exact(G) == brute_chi_prime(G)


def test_chromatic_index_scale_cap():
    G = Multigraph.build(10, [(i % 5, 5 + i % 5) for i in range(26)])
    with pytest.raises(ScaleExceededError):
        chromatic_index_exact(G)


def test_certificate_check(triangle, petersen_graph):
    assert certificate_check(triangle, {0, 1, 2}, 2)
    assert not certificate_check(triangle, {0, 1, 2}, 3)
    # Petersen has chi' = 4, yet no odd set certifies k = 3: certificates
    # are sufficient, not necessary
    witness = bound_report(petersen_graph).gamma_set
    assert not certificate_check(petersen_graph, witness, 3)


def test_certificate_check_rejects_bad_sets(triangle):
    with pytest.raises(ValueError):
        certificate_check(triangle, {0, 1}, 2)
    with pytest.raises(ValueError):
        certificate_check(triangle, {0}, 2)


def test_certificate_check_skips_the_count_below_the_degree_bound(monkeypatch):
    """2|E(U)| is at most U's degree sum, so a set whose sum is at most
    k(|U| - 1) is refused without counting E(U): the whole of ring(21, 7)
    at k = 15 (sum 294, bound 300). A set above the bound is still counted,
    and one naming a vertex the graph lacks still raises. Over every odd
    set of small graphs, the answer is the density's."""
    sets = [(G, u, k) for G in exhaustive_connected(5, 7) for size in (3, 5)
            for u in combinations(range(G.vertex_count), size) for k in range(8)]
    want = [odd_set_density(G, u) > k for G, u, k in sets]

    def count(self, members):
        raise AssertionError("E(U) counted")

    monkeypatch.setattr(Multigraph, "induced_edge_count", count)
    G = ring(21, 7)
    assert not certificate_check(G, range(21), 15)
    assert not certificate_check(G, range(3), 21)
    with pytest.raises(AssertionError):
        certificate_check(G, range(21), 14)
    with pytest.raises(ValueError, match="vertex 21 out of range"):
        certificate_check(G, {0, 1, 21}, 15)
    monkeypatch.undo()
    assert [certificate_check(G, u, k) for G, u, k in sets] == want


def test_is_critical(triangle, c4, single_edge):
    assert is_critical(triangle)
    assert not is_critical(c4)
    assert is_critical(single_edge)


def test_fat_triangles_are_critical_with_chi_equal_ceil_density():
    """The fat triangles are critical, have chi' >= Delta+2, and reach
    chi' = ceil(density)."""
    for bundles in [(2, 2, 2), (2, 2, 3), (2, 3, 3), (3, 3, 3)]:
        a, b, c = bundles
        G = Multigraph.build(3, [(0, 1)] * a + [(1, 2)] * b + [(0, 2)] * c)
        assert is_critical(G)
        chi = chromatic_index_exact(G)
        assert chi >= G.max_degree() + 2
        rep = bound_report(G)
        assert chi == rep.gamma_ceil


def test_enumerate_colorings_triangle(triangle):
    cols, exhausted = enumerate_colorings(triangle, 3, cap=100)
    assert exhausted
    # up to color permutation the triangle has exactly one proper 3-coloring
    assert len(cols) == 1
    cols2, exhausted2 = enumerate_colorings(triangle, 3, cap=1)
    assert len(cols2) == 1


def test_enumerate_colorings_matches_the_recursive_reference():
    """Same colorings in the same order, and the same exhausted flag, as
    plain recursion: every connected multigraph with n <= 5 and m <= 8 plus
    random ones, every k from 0 to Delta + 2, at four caps."""
    graphs = [*exhaustive_connected(5, 8),
              *(random_multigraph(6, 10, seed) for seed in range(30))]
    exhausted = 0
    for G in graphs:
        for k in range(G.max_degree() + 3):
            for cap in (1, 5, 40, 1000):
                got = enumerate_colorings(G, k, cap=cap)
                assert got == reference_colorings(G, k, cap), (stats(G), k, cap)
                exhausted += got[1]
    assert len(graphs) == 535 and exhausted > 0
    assert enumerate_colorings(Multigraph.build(2, []), 0, cap=1) == ([{}], True)


def test_shannon_family_chi():
    for mu in (1, 2, 3):
        G = shannon_triangle(mu)
        assert chromatic_index_exact(G) == 3 * mu


def test_certificate_consistent_with_density():
    """Whenever ceil(density) exceeds k, the density witness itself certifies
    that k colors cannot suffice."""
    import math
    rng = random.Random(71)
    checked = 0
    for _ in range(40):
        n = rng.randint(3, 7)
        m = rng.randint(3, 14)
        G = Multigraph.build(n, random_multigraph_pairs(n, m, rng))
        rep = bound_report(G)
        if rep.gamma == 0:
            continue
        for k in range(1, math.ceil(rep.gamma)):
            assert certificate_check(G, rep.gamma_set, k)
            checked += 1
    assert checked > 20
