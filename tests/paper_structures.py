"""The paper's analysis structures that no coloring path uses, for the tests.

Stable colorings are the colorings the paper's series quantifies over: one
that keeps the tree's missing sets and the colors of the tree's incident
edges in those colors. The series steps on the coloring it is given, so no
coloring path needs these; they back the stability criterion and the
stable-coloring tests. Closure (`is_closed`), the defective boundary colors
(`defective_colors`) and strong closure back the set-predicate tests and
cross-check the series, which reads a tree's boundary once per row; r-graphs
and criticality back the r-graph check and the critical-instance criteria.
"""

from gscolor.coloring import PartialColoring, kempe_chain, kempe_swap
from gscolor.density import chromatic_index_exact
from oracles import brute_min_odd_cut, graph_boundary, without_edge


def is_closed(pc: PartialColoring, members) -> bool:
    """No color missing in the set appears on its boundary."""
    boundary_colors = pc.colors_on(graph_boundary(pc.graph, members))
    return not (boundary_colors & pc.missing_union(members))


def defective_colors(pc: PartialColoring, members) -> frozenset:
    """Colors appearing on at least two boundary edges of the set."""
    counts = {}
    for e in graph_boundary(pc.graph, members):
        c = pc.color_of(e)
        if c is not None:
            counts[c] = counts.get(c, 0) + 1
    return frozenset(c for c, cnt in counts.items() if cnt >= 2)


def is_strongly_closed(pc: PartialColoring, members) -> bool:
    """Closed, and the colored boundary edges carry pairwise distinct colors."""
    return is_closed(pc, members) and not defective_colors(pc, members)


def is_r_graph(G, r: int) -> bool:
    """True iff G is r-regular and every odd vertex subset has boundary >= r,
    by enumeration over the odd subsets."""
    if r <= 0:
        raise ValueError("r must be positive")
    if G.vertex_count == 0 or any(G.degree(v) != r for v in range(G.vertex_count)):
        return False
    return brute_min_odd_cut(G) >= r


def is_critical(G) -> bool:
    """Does every single-edge deletion strictly lower chi'?

    Parallel edges are checked once per endpoint pair (deletions are
    isomorphic). Edgeless graphs are critical only when they have no proper
    subgraph at all, i.e. n == 0.
    """
    if G.m == 0:
        return G.vertex_count == 0
    chi = chromatic_index_exact(G)
    seen_pairs = set()
    for eid in G.edge_ids:
        u, v = G.endpoints(eid)
        pair = (u, v) if u < v else (v, u)
        if pair in seen_pairs:
            continue
        seen_pairs.add(pair)
        if chromatic_index_exact(without_edge(G, eid)) >= chi:
            return False
    return True


def chain_components(pc: PartialColoring, alpha: int, beta: int) -> list:
    """All nonempty (alpha, beta)-chains, each component reported once."""
    seen = set()
    out = []
    for v in range(pc.graph.vertex_count):
        if v in seen:
            continue
        ch = kempe_chain(pc, v, alpha, beta)
        if ch.edges:
            seen.update(ch.vertices)
            out.append(ch)
    return out


def _tree_vertices(tree) -> tuple:
    verts = getattr(tree, "vertices", tree)
    return tuple(verts)


def is_stable(pi: PartialColoring, tree, phi: PartialColoring) -> bool:
    """Does pi preserve phi around the tree, in the tree's missing colors?

    Condition (i): every edge incident to the tree whose phi-color lies in
    missing(tree) keeps its color; condition (ii): missing sets agree on
    every tree vertex. `tree` is a TreeSequence or a sequence of vertices.
    """
    if pi.k != phi.k:
        raise ValueError("colorings disagree on k")
    if pi.uncolored_edges != phi.uncolored_edges:
        raise ValueError("colorings disagree on the uncolored edges")
    verts = _tree_vertices(tree)
    for v in verts:
        if pi.missing(v) != phi.missing(v):
            return False
    protected = phi.missing_union(verts)
    incident = sorted({e for v in verts for e in phi.graph.edges_at(v)})
    for e in incident:
        pc = phi.color_of(e)
        if pc is not None and pc in protected and pi.color_of(e) != pc:
            return False
    return True


def stable_neighbors(pc: PartialColoring, tree_vertices: frozenset):
    """Colorings one stability-preserving chain swap away.

    Two classes of chain are safe: chains disjoint from the tree (they touch
    nothing incident to it), and chains whose two colors both avoid the
    tree's missing colors (they may cross the tree but cannot end there, so
    tree missing sets and edges in those colors are untouched). Deterministic
    order: color pairs ascending, then the chain's smallest vertex.
    """
    tree_missing = pc.missing_union(tree_vertices)
    out = []
    k = pc.k
    for a in range(1, k + 1):
        for b in range(a + 1, k + 1):
            colors_free = a not in tree_missing and b not in tree_missing
            for ch in chain_components(pc, a, b):
                crosses = bool(tree_vertices & set(ch.vertices))
                if crosses and not colors_free:
                    continue
                if crosses and any(u in tree_vertices for u in ch.end_vertices):
                    continue
                out.append(kempe_swap(pc, ch))
    return out
