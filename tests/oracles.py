"""Independent brute-force oracles for the tests.

Deliberately different implementations from the package: subset scans use
itertools over vertex combinations instead of bitmask loops, and the
chromatic-index check is a plain recursion over edges in id order. These are
the reference values the package's answers are frozen against.
"""

from fractions import Fraction
from itertools import combinations

from gscolor.coloring import KempeChain, PartialColoring


def brute_density(G):
    """(value, argmax set) by itertools enumeration over odd subsets."""
    best, sets = brute_density_maximizers(G)
    return best, (sets[0] if sets else frozenset())


def brute_density_maximizers(G):
    """(value, every odd set attaining it, in enumeration order); no sets
    when the value is 0."""
    best = Fraction(0)
    sets = []
    for size in range(3, G.vertex_count + 1, 2):
        for combo in combinations(range(G.vertex_count), size):
            u = frozenset(combo)
            val = Fraction(2 * G.induced_edge_count(u), size - 1)
            if val > best:
                best, sets = val, [u]
            elif val == best and val > 0:
                sets.append(u)
    return best, sets


def brute_min_odd_cut(G):
    best = G.m + 1
    for size in range(1, G.vertex_count + 1, 2):
        for combo in combinations(range(G.vertex_count), size):
            best = min(best, len(G.boundary(frozenset(combo))))
    return best


def brute_chi_prime(G):
    """Exact chi' by naive recursion over edges in id order."""
    if G.m == 0:
        return 0
    edges = [G.endpoints(e) for e in G.edge_ids]
    delta = G.max_degree()

    def feasible(k):
        at = [set() for _ in range(G.vertex_count)]

        def rec(i):
            if i == len(edges):
                return True
            u, v = edges[i]
            limit = k if i else 1   # first edge pinned to color 1
            for c in range(1, limit + 1):
                if c not in at[u] and c not in at[v]:
                    at[u].add(c)
                    at[v].add(c)
                    if rec(i + 1):
                        return True
                    at[u].remove(c)
                    at[v].remove(c)
            return False

        return rec(0)

    k = delta
    while not feasible(k):
        k += 1
    return k


def random_proper_coloring(G, k, rng, *, leave_uncolored=0):
    """Greedy proper partial coloring with randomized edge and color order.

    Edges that cannot be colored within k stay uncolored; additionally the
    first `leave_uncolored` edges of the shuffle are skipped.
    """
    pc = PartialColoring(G, k)
    order = list(G.edge_ids)
    rng.shuffle(order)
    for i, eid in enumerate(order):
        if i < leave_uncolored:
            continue
        u, v = G.endpoints(eid)
        options = sorted(pc.missing(u) & pc.missing(v))
        if options:
            pc.assign(eid, rng.choice(options))
    return pc


def all_chain_paths(pc, alpha, beta):
    """Every maximal (alpha, beta)-path, as (vertex tuple, edge tuple)."""
    G = pc.graph
    seen = set()
    paths = []
    for v in range(G.vertex_count):
        if v in seen:
            continue
        deg2 = [e for c in (alpha, beta)
                if (e := pc.edge_at(v, c)) is not None]
        if len(deg2) != 1:
            continue
        verts, edges = [v], []
        cur, last = v, None
        while True:
            nxt = None
            for c in (alpha, beta):
                e = pc.edge_at(cur, c)
                if e is not None and e != last:
                    nxt = e
                    break
            if nxt is None:
                break
            last = nxt
            edges.append(nxt)
            cur = G.other_end(nxt, cur)
            verts.append(cur)
        if verts[-1] >= v:
            seen.update(verts)
            paths.append((tuple(verts), tuple(edges)))
    return paths


def random_multigraph_pairs(n, m, rng, mu_max=None):
    pairs = []
    counts = {}
    draw = list(combinations(range(n), 2))
    for _ in range(m):
        avail = [p for p in draw if mu_max is None or counts.get(p, 0) < mu_max]
        p = rng.choice(avail)
        counts[p] = counts.get(p, 0) + 1
        pairs.append(p)
    return pairs


def reference_kempe_chain(pc, v, alpha, beta):
    """The maximal (alpha, beta)-chain through v, by the walker the package
    used before its single alternating-path walker: both directions walked
    with their vertex lists, then put in canonical orientation."""
    colors = frozenset((alpha, beta))
    first = [(e, c) for c in (alpha, beta) if (e := pc.edge_at(v, c)) is not None]
    if not first:
        return KempeChain(colors, "path", (), (v,), (v,))

    def walk(start_edge, start_color):
        edges, verts = [start_edge], [v]
        cur = pc.graph.other_end(start_edge, v)
        want = beta if start_color == alpha else alpha
        while True:
            verts.append(cur)
            if cur == v:
                return edges, verts, True
            nxt = pc.edge_at(cur, want)
            if nxt is None:
                return edges, verts, False
            edges.append(nxt)
            cur = pc.graph.other_end(nxt, cur)
            want = beta if want == alpha else alpha

    edges, verts, is_cycle = walk(*first[0])
    if is_cycle:
        verts = verts[:-1]
        i = verts.index(min(verts))
        verts = verts[i:] + verts[:i]
        edges = edges[i:] + edges[:i]
        back = pc.edge_at(verts[0], next(iter(colors - {pc.color_of(edges[0])})))
        if back is not None and back < edges[0]:
            verts = [verts[0]] + verts[1:][::-1]
            edges = edges[::-1]
        return KempeChain(colors, "cycle", tuple(edges), tuple(verts), ())
    if len(first) == 2:
        edges2, verts2, _ = walk(*first[1])
        edges = edges2[::-1] + edges
        verts = verts2[::-1] + verts[1:]
    if verts[0] > verts[-1]:
        edges, verts = edges[::-1], verts[::-1]
    return KempeChain(colors, "path", tuple(edges), tuple(verts),
                      (verts[0], verts[-1]))


def reference_closure_vertices(pc, tree):
    """The vertex set of the tree's closure, grown with the opposite tie-break
    to the package's: of the boundary edges colored with a color missing in
    the tree, the highest edge id is absorbed first."""
    G = pc.graph
    inside = set(tree.vertices)
    while True:
        missing = set()
        for v in inside:
            missing |= pc.missing(v)
        cand = [e for e in G.boundary(frozenset(inside))
                if pc.color_of(e) in missing]
        if not cand:
            return frozenset(inside)
        inside.update(G.endpoints(max(cand)))
