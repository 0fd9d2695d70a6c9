"""Stable colorings (definition, equivalence, the strengthened test) and the
at-most-one-path cross-check for closed trees."""

import random

import pytest

from gscolor import (Multigraph, PartialColoring, is_stable, kempe_chain,
                     kempe_swap, taa_close)
from gscolor.tashkinov import TreeSequence, stable_neighbors
from oracles import all_chain_paths, random_multigraph_pairs, random_proper_coloring


def _setup(seed, n=8, m=13, slack=0):
    """Random graph, at least one uncolored edge, the tree grown from the
    first one. k = Delta + slack; small slack keeps the closure from
    swallowing the whole graph, leaving chains outside the tree."""
    rng = random.Random(seed)
    G = Multigraph.build(n, random_multigraph_pairs(n, m, rng))
    k = G.max_degree() + slack
    pc = random_proper_coloring(G, k, rng, leave_uncolored=1)
    root = sorted(pc.uncolored_edges)[0]
    tree = taa_close(G, pc, TreeSequence.root(G, root))
    return rng, G, pc, tree


def test_stable_reflexive():
    for seed in range(10):
        _, _, pc, tree = _setup(seed)
        assert is_stable(pc, tree, pc)


def test_stable_after_tree_avoiding_swap():
    hits = 0
    for seed in range(40):
        rng, G, pc, tree = _setup(seed)
        for pi in stable_neighbors(pc, tree.vertex_set):
            assert is_stable(pi, tree, pc)
            hits += 1
    assert hits >= 15


def test_stable_rejects_changed_missing_set():
    for seed in range(40):
        rng, G, pc, tree = _setup(seed)
        # swap a chain ending at a tree vertex in a tree-missing color: that
        # vertex's missing set flips, so stability must fail
        found = False
        for v in sorted(tree.vertex_set):
            for a in sorted(pc.missing(v)):
                for b in sorted(set(range(1, pc.k + 1)) - pc.missing(v)):
                    ch = kempe_chain(pc, v, a, b)
                    if not ch.edges:
                        continue
                    pi = kempe_swap(pc, ch)
                    assert pi.missing(v) != pc.missing(v)
                    assert not is_stable(pi, tree, pc)
                    found = True
                    break
                if found:
                    break
            if found:
                break
        if found:
            return
    pytest.fail("no missing-set-changing swap found in any sample")


def test_stable_rejects_mismatched_k(triangle):
    pc3 = PartialColoring(triangle, 3, {0: 1, 1: 2})
    pc4 = PartialColoring(triangle, 4, {0: 1, 1: 2})
    with pytest.raises(ValueError):
        is_stable(pc3, (0, 1), pc4)


def test_stable_rejects_mismatched_uncolored(triangle):
    a = PartialColoring(triangle, 3, {0: 1, 1: 2})
    b = PartialColoring(triangle, 3, {0: 1, 2: 2})
    with pytest.raises(ValueError):
        is_stable(a, (0, 1), b)


def test_strengthened_condition_equivalent():
    """The plain and strengthened acceptance tests agree on sampled colorings."""
    checked = 0
    for seed in range(40):
        rng, G, pc, tree = _setup(seed)
        candidates = [pc]
        candidates += stable_neighbors(pc, tree.vertex_set)
        # also arbitrary chain swaps, which are usually not stable at all
        for _ in range(8):
            a = rng.randint(1, pc.k)
            b = rng.randint(1, pc.k)
            if a == b:
                continue
            ch = kempe_chain(pc, rng.randrange(G.vertex_count), a, b)
            if ch.edges:
                candidates.append(kempe_swap(pc, ch))
        for pi in candidates:
            plain = is_stable(pi, tree, pc)
            strong = is_stable(pi, tree, pc, strengthened=True)
            assert plain == strong
            checked += 1
    assert checked > 50


def test_at_most_one_path_meets_closed_tree():
    """Full chain enumeration over k-triples: a closed tree grown from the
    uncolored edge meets at most one (a, b)-path when it misses one of the
    two colors. The hypotheses need critical instances, and at desk scale
    the critical chi' >= Delta+2 family is the fat triangles."""
    from gscolor.density import chromatic_index_exact, enumerate_colorings, is_critical

    checked = 0
    for bundles in [(2, 2, 2), (2, 2, 3), (2, 3, 3)]:
        a_, b_, c_ = bundles
        G = Multigraph.build(3, [(0, 1)] * a_ + [(1, 2)] * b_ + [(0, 2)] * c_)
        assert is_critical(G)
        k = chromatic_index_exact(G) - 1
        for eid in (0, G.m - 1):
            colorings, _ = enumerate_colorings(G.without_edge(eid), k, cap=60)
            for cmap in colorings:
                pc = PartialColoring(G, k, cmap)
                tree = taa_close(G, pc, TreeSequence.root(G, eid))
                miss = pc.missing_union(tree.vertices)
                for a in range(1, k + 1):
                    for b in range(a + 1, k + 1):
                        if a not in miss and b not in miss:
                            continue
                        paths = [p for p, _ in all_chain_paths(pc, a, b)
                                 if set(p) & tree.vertex_set]
                        assert len(paths) <= 1, (bundles, eid, a, b, paths)
                        checked += 1
    assert checked >= 90
