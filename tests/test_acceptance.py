"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. The corpus is the exhaustive family of connected multigraphs with
n <= 5 and m <= 10 (one representative per isomorphism class) plus 500
seeded random multigraphs with n <= 8 and multiplicity <= 4; every expected
value here is computed by an oracle, never assumed.
"""

import random
from fractions import Fraction

import pytest

from gscolor import (Multigraph, PartialColoring, bound_report,
                     certificate_check, chromatic_index_exact, color,
                     color_at_k, elementary_audit, kempe_chain, kempe_swap,
                     taa_close, validate, verify_result)
from gscolor.engine import IncompleteColoringError
from gscolor.generators import exhaustive_connected, petersen, random_multigraph, shannon_triangle
from gscolor.tashkinov import SeriesInvariantError, TreeSequence, build_series
from paper_structures import is_critical, is_r_graph, is_stable, stable_neighbors
from oracles import (all_chain_paths, colorings_without_edge, random_multigraph_pairs,
                     random_proper_coloring)


def _random_corpus():
    out = []
    rng = random.Random(20240817)
    while len(out) < 500:
        n = rng.randint(2, 8)
        cap = 4 * n * (n - 1) // 2
        m = rng.randint(1, min(20, cap))
        out.append(random_multigraph(n, m, rng.randrange(10 ** 9), mu_max=4))
    return out


@pytest.fixture(scope="module")
def corpus_runs():
    """Engine result, bound report, and exact chi' for every corpus instance."""
    runs = []
    instances = list(exhaustive_connected(5, 10)) + _random_corpus()
    for G in instances:
        rep = bound_report(G)
        try:
            res = color(G)
        except IncompleteColoringError:
            res = None
        chi = chromatic_index_exact(G) if G.m <= 25 else None
        runs.append((G, rep, res, chi))
    return runs


@pytest.fixture(scope="module")
def critical_triples(corpus_runs):
    """Corpus instances that are critical with chi' >= Delta + 2, by oracle."""
    out = []
    for G, rep, res, chi in corpus_runs:
        if chi is None or chi < rep.delta + 2:
            continue
        if is_critical(G):
            out.append((G, chi))
    return out


def test_criterion_1_gs_bound(corpus_runs):
    incomplete = sum(1 for _, _, res, _ in corpus_runs if res is None)
    over = sum(1 for _, rep, res, _ in corpus_runs
               if res is not None and res.k_used > rep.gs_upper)
    assert incomplete == 0
    assert over == 0
    for G, rep, res, _ in corpus_runs:
        assert verify_result(G, res)
    print(f"\nACCEPTANCE 1: k_used <= max(Delta+1, ceil(Gamma)) on "
          f"{len(corpus_runs)} instances, 0 incomplete: PASS")


def test_criterion_2_two_value_dichotomy(corpus_runs):
    checked = 0
    for _, rep, _, chi in corpus_runs:
        if chi is None:
            continue
        assert chi in (rep.lower, rep.gs_upper)
        checked += 1
    assert checked == len(corpus_runs)
    print(f"\nACCEPTANCE 2: chi' in {{lower, gs_upper}} on {checked} instances: PASS")


def test_criterion_3_classical_bounds(corpus_runs):
    for _, rep, _, chi in corpus_runs:
        if chi is None:
            continue
        assert chi <= rep.shannon or rep.m == 0
        assert chi <= rep.vizing
    print(f"\nACCEPTANCE 3: chi' <= floor(3*Delta/2) and chi' <= Delta+mu: PASS")


def test_criterion_4_fractional_gap(corpus_runs):
    for _, rep, _, chi in corpus_runs:
        if chi is None:
            continue
        assert Fraction(chi) - rep.chi_star <= 1
    print(f"\nACCEPTANCE 4: chi' - max(Delta, Gamma) <= 1 in exact arithmetic: PASS")


def test_criterion_5_named_instances():
    P = petersen()
    chi_p = chromatic_index_exact(P)
    res_p = color(P)
    rep_p = bound_report(P)
    assert chi_p == 4 == res_p.k_used == rep_p.gs_upper
    for mu in (2, 3):
        S = shannon_triangle(mu)
        assert chromatic_index_exact(S) == 3 * mu == color(S).k_used
    print("\nACCEPTANCE 5: petersen chi'=4=k_used=gs bound; "
          "shannon mu=2,3 chi'=3mu=k_used: PASS")


def test_criterion_6_kempe_properties():
    rng = random.Random(1234)
    trials = 0
    while trials < 10_000:
        n = rng.randint(3, 8)
        m = rng.randint(2, min(16, 4 * n * (n - 1) // 2))
        G = Multigraph.build(n, random_multigraph_pairs(n, m, rng, mu_max=4))
        k = G.max_degree() + rng.randint(0, 2)
        if k < 2:
            continue
        pc = random_proper_coloring(G, k, rng)
        a = rng.randint(1, k)
        b = rng.randint(1, k)
        if a == b:
            continue
        v = rng.randrange(n)
        chain = kempe_chain(pc, v, a, b)
        # well-formedness: path or even cycle, alternating colors
        if chain.kind == "cycle":
            assert len(chain.edges) % 2 == 0
        colors = [pc.color_of(e) for e in chain.edges]
        assert all(c in (a, b) for c in colors)
        assert all(x != y for x, y in zip(colors, colors[1:]))
        swapped = kempe_swap(pc, chain)
        assert validate(G, swapped) == []
        again = kempe_swap(swapped, kempe_chain(swapped, v, a, b))
        assert again == pc
        # missing sets preserved off the chain ends; at a path end the swap
        # flips which of the two colors is missing
        for w in range(n):
            if w not in chain.end_vertices:
                assert swapped.missing(w) == pc.missing(w)
        if chain.kind == "path" and chain.edges:
            for w in chain.end_vertices:
                assert (a in pc.missing(w)) == (b in swapped.missing(w))
                assert (b in pc.missing(w)) == (a in swapped.missing(w))
                assert pc.missing(w) - {a, b} == swapped.missing(w) - {a, b}
        trials += 1
    print(f"\nACCEPTANCE 6: involution, properness, well-formedness over "
          f"{trials} randomized Kempe trials: PASS")


def _stable_setup(rng):
    n = rng.randint(5, 8)
    m = rng.randint(6, min(16, 4 * n * (n - 1) // 2))
    G = Multigraph.build(n, random_multigraph_pairs(n, m, rng, mu_max=4))
    k = G.max_degree() + rng.randint(0, 1)
    if k < 2:
        return None
    pc = random_proper_coloring(G, k, rng, leave_uncolored=1)
    root = sorted(pc.uncolored_edges)[0]
    tree = taa_close(pc, TreeSequence.root(G, root))
    return G, pc, tree


def test_criterion_7_stable_equivalence():
    rng = random.Random(777)
    reflexive = 0
    while reflexive < 1000:
        setup = _stable_setup(rng)
        if setup is None:
            continue
        _, pc, tree = setup
        assert is_stable(pc, tree, pc)
        reflexive += 1

    sym = trans = 0
    while sym < 1000 or trans < 1000:
        setup = _stable_setup(rng)
        if setup is None:
            continue
        G, pc, tree = setup
        neighbors = stable_neighbors(pc, tree.vertex_set)
        for pi in neighbors:
            if sym < 1000 and is_stable(pi, tree, pc):
                assert is_stable(pc, tree, pi)
                sym += 1
        for pi in neighbors[:6]:
            for rho in stable_neighbors(pi, tree.vertex_set)[:6]:
                if trans >= 1000:
                    break
                if (is_stable(pi, tree, pc)
                        and is_stable(rho, tree, pi)):
                    assert is_stable(rho, tree, pc)
                    trans += 1
    print(f"\nACCEPTANCE 7: stability reflexive x1000, symmetric x{sym}, "
          f"transitive x{trans}: PASS")


def test_criterion_8_tashkinov_elementarity(critical_triples):
    assert critical_triples, "no critical chi' >= Delta+2 instances found"
    witnesses = 0
    trees = 0
    for G, chi in critical_triples:
        k = chi - 1
        seen_pairs = set()
        for eid in G.edge_ids:
            pair = tuple(sorted(G.endpoints(eid)))
            if pair in seen_pairs:
                continue
            seen_pairs.add(pair)
            for cmap in colorings_without_edge(G, eid, k, cap=40):
                pc = PartialColoring(G, k, cmap)
                tree = taa_close(pc, TreeSequence.root(G, eid))
                if elementary_audit(pc, tree.vertices) is not None:
                    witnesses += 1
                trees += 1
    assert witnesses == 0
    print(f"\nACCEPTANCE 8: {trees} trees on {len(critical_triples)} critical "
          f"instances, 0 elementarity witnesses: PASS")


def test_criterion_9_interchangeability(critical_triples):
    violations = 0
    checked = 0
    for G, chi in critical_triples:
        if G.vertex_count > 10:
            continue
        k = chi - 1
        for eid in (G.edge_ids[0], G.edge_ids[-1]):
            for cmap in colorings_without_edge(G, eid, k, cap=25):
                pc = PartialColoring(G, k, cmap)
                tree = taa_close(pc, TreeSequence.root(G, eid))
                miss = pc.missing_union(tree.vertices)
                for a in range(1, k + 1):
                    for b in range(a + 1, k + 1):
                        if a not in miss and b not in miss:
                            continue
                        paths = [p for p, _ in all_chain_paths(pc, a, b)
                                 if set(p) & tree.vertex_set]
                        if len(paths) > 1:
                            violations += 1
                        checked += 1
    assert checked > 0 and violations == 0
    print(f"\nACCEPTANCE 9: at most one two-colored path meets a closed tree "
          f"({checked} enumerations, 0 violations): PASS")


def test_criterion_10_series_ledger(corpus_runs, critical_triples):
    invariant_failures = 0
    runs = 0
    # on the k-triples the machinery is proven for, no step gets stuck
    for G, chi in critical_triples:
        k = chi - 1
        for cmap in colorings_without_edge(G, 0, k, cap=10):
            pc = PartialColoring(G, k, cmap)
            try:
                state = build_series(pc, 0)
            except SeriesInvariantError:
                invariant_failures += 1
            else:
                assert state.outcome == "strongly_closed", state.stuck_reason
            runs += 1
    # across arbitrary corpus instances at k = Delta + 1 a step may get stuck
    for G, rep, _, _ in corpus_runs[::7]:
        if G.m == 0 or G.m > 16:
            continue
        k = max(rep.delta + 1, rep.gamma_ceil)
        colorings = colorings_without_edge(G, G.edge_ids[0], k, cap=1)
        if not colorings:
            continue
        pc = PartialColoring(G, k, colorings[0])
        try:
            build_series(pc, G.edge_ids[0])
        except SeriesInvariantError:
            invariant_failures += 1
        runs += 1
    assert runs > 200
    assert invariant_failures == 0
    print(f"\nACCEPTANCE 10: |D_n| <= n and pool containment/monotonicity over "
          f"{runs} series runs, 0 violations: PASS")


def test_criterion_11_certificate_soundness(corpus_runs):
    emitted = 0
    for G, rep, res, chi in corpus_runs:
        for cert, k in res.certificates:
            assert certificate_check(G, cert.u, k)
            if chi is not None:
                assert chi > k
            emitted += 1
    # every run above Delta+1 colors proves its bound with Gamma's odd set
    assert emitted > 0
    # drive evidence on purpose: one color below the certified lower bound,
    # where a certificate exists whenever the density is the binding bound
    forced = 0
    for G, rep, res, chi in corpus_runs[::11]:
        if rep.lower < 2 or G.m > 16:
            continue
        k = rep.lower - 1
        _, _, ev = color_at_k(G, k)
        if ev is None:
            continue
        if ev.kind == "elementary_strongly_closed_tree":
            assert certificate_check(G, ev.tree.vertex_set, ev.k)
            if chi is not None:
                assert chi > ev.k
            forced += 1
    assert forced > 0
    print(f"\nACCEPTANCE 11: {emitted} certificates from criterion-1 runs and "
          f"{forced} forced low-k certificates all sound: PASS")


def test_supplementary_r_graph_and_parity(corpus_runs, critical_triples):
    """Corpus-wide spot checks riding on the same oracle data: r-graphs color
    within r+1, and critical chi' >= Delta+2 instances have odd order."""
    r_checked = 0
    for G, rep, res, chi in corpus_runs:
        if chi is None or G.m == 0:
            continue
        d = rep.delta
        if d > 0 and all(G.degree(v) == d for v in range(G.vertex_count)):
            if is_r_graph(G, d):
                assert chi <= d + 1
                r_checked += 1
    for G, _ in critical_triples:
        assert G.vertex_count % 2 == 1
    print(f"\nSUPPLEMENTARY: {r_checked} r-graphs within r+1; critical "
          f"chi'>=Delta+2 instances all odd-order: PASS")
