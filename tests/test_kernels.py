"""The JIT loop kernels and their fallbacks must agree exactly."""

import random
from fractions import Fraction

import numpy as np
from hypothesis import given, settings, strategies as st

from gscolor import Multigraph, PartialColoring, _kernels
from gscolor.coloring import validate
from gscolor.density import _oracle_edge_order, enumerate_colorings
from gscolor.generators import ring
from oracles import brute_density, brute_density_maximizers, random_multigraph_pairs


def _instances(count, seed):
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randint(2, 7)
        m = rng.randint(1, 12)
        yield Multigraph.build(n, random_multigraph_pairs(n, m, rng))


def _search_inputs(G, order):
    eu = [G.endpoints(e)[0] for e in order]
    ev = [G.endpoints(e)[1] for e in order]
    return eu, ev, _kernels.parallel_prev(eu, ev)


def test_feasible_paths_agree():
    """Both implementations reach the same first coloring, or neither finds one."""
    impls = _kernels.IMPLEMENTATIONS["feasible"]
    for G in _instances(25, 11):
        eu, ev, prev = _search_inputs(G, G.edge_ids)
        for k in range(1, G.max_degree() + 3):
            loop = impls["loop"](np.asarray(eu, np.int64), np.asarray(ev, np.int64),
                                 np.asarray(prev, np.int64), G.vertex_count, k)
            fallback = impls["fallback"](eu, ev, prev, G.vertex_count, k)
            assert [int(c) for c in loop] == fallback


def _interleaved_parallels(n, rng):
    """Random endpoint pairs, each repeated up to three times in either
    orientation, shuffled so parallel edges are interleaved in id order."""
    base = [tuple(rng.sample(range(n), 2)) for _ in range(rng.randint(1, 6))]
    pairs = [p if rng.random() < 0.5 else p[::-1]
             for p in base for _ in range(rng.randint(1, 3))]
    rng.shuffle(pairs)
    return Multigraph.build(n, pairs[:14])


def _first_canonical(G, k):
    """The first coloring enumerate_colorings reaches, in oracle order."""
    ordered, _, _ = _oracle_edge_order(G)
    solutions, _ = enumerate_colorings(G, k, cap=1)
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


def _density_both_paths(G):
    impls = _kernels.IMPLEMENTATIONS["density"]
    em, weights = _kernels.distinct_masks(G.edge_masks())
    loop = tuple(int(x) for x in impls["loop"](em, weights, G.vertex_count))
    fallback = tuple(int(x) for x in impls["fallback"](em, weights, G.vertex_count))
    return loop, fallback


def _regular(n, mu):
    """mu-fold cycle and mu-fold complete graph on n vertices: regular, so
    many odd sets tie for the maximum."""
    cycle = [(v, (v + 1) % n) for v in range(n)] if n >= 3 else [(0, 1)]
    complete = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return [Multigraph.build(n, pairs * mu) for pairs in (cycle, complete)]


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
    rng = random.Random(15)
    graphs = [G for n in range(1, 13) for G in _graphs_on(n, rng)]
    for G in [*_instances(25, 12), *graphs]:
        loop, fallback = _density_both_paths(G)
        assert loop == fallback


def test_density_numpy_matches_brute_force_above_the_half_split():
    """n = 13, 15 and 16: the value and the first maximizer in ascending
    mask order agree with itertools enumeration."""
    impls = _kernels.IMPLEMENTATIONS["density"]
    rng = random.Random(16)
    for n in (13, 15, 16):
        pairs = random_multigraph_pairs(n, 30, rng, mu_max=3)
        for G in (Multigraph.build(n, pairs), _regular(n, 2)[0]):
            em, weights = _kernels.distinct_masks(G.edge_masks())
            cnt, size, mask = impls["fallback"](em, weights, n)
            value, maximizers = brute_density_maximizers(G)
            assert Fraction(2 * cnt, size - 1) == value
            assert mask == min(sum(1 << v for v in u) for u in maximizers)


def test_density_paths_agree_under_heavy_multiplicity():
    for G in _heavy_instances(15, 14):
        assert G.max_multiplicity() >= 10
        loop, fallback = _density_both_paths(G)
        assert loop == fallback
        cnt, size, mask = loop
        value, _ = brute_density(G)
        members = {v for v in range(G.vertex_count) if mask >> v & 1}
        assert len(members) == size
        assert G.induced_edge_count(members) == cnt
        assert Fraction(2 * cnt, size - 1) == value


def test_min_odd_cut_paths_agree():
    impls = _kernels.IMPLEMENTATIONS["min_odd_cut"]
    for G in _instances(25, 13):
        em = np.asarray(G.edge_masks(), np.int64)
        assert int(impls["loop"](em, G.vertex_count)) == \
            int(impls["fallback"](em, G.vertex_count))


def test_dispatch_matches_loop_semantics():
    G = Multigraph.build(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)])
    eu = [G.endpoints(e)[0] for e in G.edge_ids]
    ev = [G.endpoints(e)[1] for e in G.edge_ids]
    assert _kernels.chromatic_feasible(eu, ev, 4, 3) == [1, 2, 1, 2, 3]
    assert _kernels.chromatic_feasible(eu, ev, 4, 2) is None
    cnt, size, mask = _kernels.density_scan(G.edge_masks(), 4)
    assert (cnt, size) == (3, 3) and mask == 0b0111
    assert _kernels.min_odd_cut(G.edge_masks(), 4) == 2


def test_no_numba_env_selects_fallback_with_identical_results():
    """GSCOLOR_NO_NUMBA=1 must flip the dispatch and leave every answer
    byte-identical (checked through the CLI in a subprocess)."""
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    cmd = [sys.executable, "-m", "gscolor.cli", "report", "--gen", "shannon",
           "2", "--json"]
    base = subprocess.run(cmd, capture_output=True, text=True, env=env)
    env["GSCOLOR_NO_NUMBA"] = "1"
    probe = subprocess.run(
        [sys.executable, "-c",
         "from gscolor import _kernels; print(_kernels.USING_NUMBA)"],
        capture_output=True, text=True, env=env)
    assert probe.stdout.strip() == "False"
    fallback = subprocess.run(cmd, capture_output=True, text=True, env=env)
    assert base.returncode == fallback.returncode == 0
    assert base.stdout == fallback.stdout

    cmd2 = [sys.executable, "-m", "gscolor.cli", "color", "--gen", "petersen",
            "--json"]
    base2 = subprocess.run(cmd2, capture_output=True, text=True,
                           env=dict(os.environ))
    fb2 = subprocess.run(cmd2, capture_output=True, text=True, env=env)
    assert base2.stdout == fb2.stdout
