import inspect
import random
from fractions import Fraction

import pytest

from gscolor import (Multigraph, ScaleExceededError, bound_report,
                     certificate_check, chromatic_index_exact, is_critical)
from gscolor.density import density, enumerate_colorings
from gscolor.generators import shannon_triangle
from oracles import brute_chi_prime, brute_density, random_multigraph_pairs


def test_density_triangle(triangle):
    cert = density(triangle)
    assert cert.value == 3 and cert.u == {0, 1, 2}


def test_density_shannon(shannon2):
    cert = density(shannon2)
    assert cert.value == 6 and cert.u == {0, 1, 2}


def test_density_petersen(petersen_graph):
    cert = density(petersen_graph)
    assert cert.value == 3          # 12 edges on any 9 vertices: 24/8
    assert len(cert.u) == 9
    assert petersen_graph.induced_edge_count(cert.u) == 12


def test_density_degenerate(single_edge):
    cert = density(single_edge)
    assert cert.value == 0 and cert.u == frozenset()
    assert density(Multigraph.build(0, [])).value == 0


def test_package_attribute_is_the_density_module():
    """gscolor.density names the submodule, not its density function."""
    import gscolor
    assert inspect.ismodule(gscolor.density)
    assert callable(gscolor.density.density)


def test_density_matches_brute_oracle():
    rng = random.Random(21)
    for _ in range(25):
        n = rng.randint(3, 7)
        m = rng.randint(1, 12)
        G = Multigraph.build(n, random_multigraph_pairs(n, m, rng))
        value, _ = brute_density(G)
        cert = density(G)
        assert cert.value == value
        if value > 0:
            assert Fraction(2 * G.induced_edge_count(cert.u),
                            len(cert.u) - 1) == value


def test_density_scale_cap():
    G = Multigraph.build(17, [(i, i + 1) for i in range(16)])
    with pytest.raises(ScaleExceededError):
        density(G)


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
    cert = density(petersen_graph)
    assert not certificate_check(petersen_graph, cert.u, 3)


def test_certificate_check_rejects_bad_sets(triangle):
    with pytest.raises(ValueError):
        certificate_check(triangle, {0, 1}, 2)
    with pytest.raises(ValueError):
        certificate_check(triangle, {0}, 2)


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
        cert = density(G)
        if cert.value == 0:
            continue
        for k in range(1, math.ceil(cert.value)):
            assert certificate_check(G, cert.u, k)
            checked += 1
    assert checked > 20
