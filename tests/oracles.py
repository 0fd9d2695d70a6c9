"""Independent brute-force oracles for the tests.

Deliberately different implementations from the package: subset scans use
itertools over vertex combinations instead of bitmask loops, and the
chromatic-index check is a plain recursion over edges in id order. These are
the reference values the package's answers are frozen against.
"""

import random
from collections import deque
from fractions import Fraction
from itertools import combinations

from gscolor import Multigraph
from gscolor.coloring import KempeChain, PartialColoring, alternating_path, kempe_chain
from gscolor.density import _oracle_edge_order, enumerate_colorings


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
            best = min(best, len(graph_boundary(G, combo)))
    return best


def graph_boundary(G, members):
    """Edge ids with exactly one end in `members`, by a scan of every edge
    of G; the package reads a tree's boundary off the coloring instead."""
    inside = frozenset(members)
    return frozenset(e for e in G.edge_ids
                     if sum(w in inside for w in G.endpoints(e)) == 1)


def bfs_connected(n, pairs):
    """Is the graph on 0..n-1 with these endpoint pairs connected? A
    breadth-first search from vertex 0 over neighbor lists built from the
    pairs; True for n <= 1."""
    if n <= 1:
        return True
    neighbors = [[] for _ in range(n)]
    for u, v in pairs:
        neighbors[u].append(v)
        neighbors[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        for w in neighbors[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


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


def reference_colorings(G, k, cap=1000):
    """enumerate_colorings by plain recursion with per-vertex color sets: up
    to `cap` proper k-edge-colorings (maps eid -> color) and an exhausted
    flag, edges in descending endpoint degree-sum order (ties by id), a new
    color only once every smaller one appears earlier in that order."""
    ordered = sorted(G.edge_ids, key=lambda e: (
        -sum(G.degree(w) for w in G.endpoints(e)), e))
    m = len(ordered)
    if m == 0:
        return [{}], True
    ends = [G.endpoints(e) for e in ordered]
    results = []
    used = [set() for _ in range(G.vertex_count)]
    color = [0] * m

    def rec(i, maxc):
        if len(results) >= cap:
            return False
        if i == m:
            results.append({ordered[j]: color[j] for j in range(m)})
            return len(results) < cap
        u, v = ends[i]
        for c in range(1, min(maxc + 1, k) + 1):
            if c in used[u] or c in used[v]:
                continue
            color[i] = c
            used[u].add(c)
            used[v].add(c)
            more = rec(i + 1, max(maxc, c))
            used[u].discard(c)
            used[v].discard(c)
            color[i] = 0
            if not more:
                return False
        return True

    exhausted = rec(0, 0)
    return results, exhausted


def assert_tables_consistent(pc):
    """Re-derive pc's per-vertex color tables and present-color masks from
    its assignment, and assert that pc is proper and that the incrementally
    kept tables match."""
    G = pc.graph
    rebuilt = [dict() for _ in range(G.vertex_count)]
    masks = [0] * G.vertex_count
    for eid in G.edge_ids:
        c = pc.color_of(eid)
        if c is None:
            continue
        for w in G.endpoints(eid):
            assert c not in rebuilt[w], f"improper: color {c} twice at vertex {w}"
            rebuilt[w][c] = eid
            masks[w] |= 1 << c
    assert rebuilt == pc._at, "incremental color tables diverged from assignment"
    assert masks == pc._mask, "incremental color masks diverged from assignment"


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


def reference_kempe_step(pc, eid):
    """coloring.chain_step through the checked public calls: for each color
    a missing at x and b missing at y, both ascending, walk the chain that
    leaves x on b with `alternating_path`, keeping its edges; flip the first
    that does not end at y with `recolor` and give eid color b with
    `assign`. pc, or None with pc untouched. The checked `recolor` keeps
    this reference independent of `coloring.interchange`."""
    x, y = pc.graph.endpoints(eid)
    for a in sorted(pc.missing(x)):
        for b in sorted(pc.missing(y)):
            edges, end = alternating_path(pc, x, b, a)
            if end == y:
                continue
            pc.recolor([(e, b if i % 2 else a) for i, e in enumerate(edges)])
            pc.assign(eid, b)
            return pc
    return None


def reference_direct_step(pc, eid):
    """The direct step on the one uncolored edge eid through the public
    calls: the smallest color in both ends' `missing` sets, given with the
    checked `assign`. pc, or None with pc untouched when they share none."""
    x, y = pc.graph.endpoints(eid)
    common = pc.missing(x) & pc.missing(y)
    if not common:
        return None
    pc.assign(eid, min(common))
    return pc


def reference_color_at_k(G, k):
    """engine.color_at_k edge by edge, without its direct pass: in the
    oracle's edge order, `reference_direct_step` and, where it fails,
    `extend`, stopping at the first edge that returns evidence."""
    from gscolor.engine import extend
    pc = PartialColoring(G, k)
    trace = {}
    for eid in _oracle_edge_order(G)[0]:
        if reference_direct_step(pc, eid) is not None:
            trace[eid] = "direct"
            continue
        out = extend(pc, eid)
        if out.status != "colored":
            return pc, trace, out.evidence
        trace[eid] = out.method
    return pc, trace, None


def reference_validate(G, pc):
    """coloring.validate as the message-writing loop alone: one message per
    edge of G whose color is not an int in 1..k, then one per repeat of a
    color among each vertex's edges, in incidence order."""
    out = []
    for eid in G.edge_ids:
        c = pc.color_of(eid)
        if c is not None and not (type(c) is int and 1 <= c <= pc.k):
            out.append(f"edge {eid}: color {c} outside 1..{pc.k}")
    for v in range(G.vertex_count):
        seen = {}
        for eid in G.edges_at(v):
            c = pc.color_of(eid)
            if c is None:
                continue
            if c in seen:
                out.append(f"vertex {v}: color {c} on edges {seen[c]} and {eid}")
            else:
                seen[c] = eid
    return out


def brute_density_scan(pair_counts, n):
    """_kernels.density_scan's (edge count, |U|, mask) by exact Fractions:
    |E(U)| of every mask from that of the mask without its lowest vertex,
    and the first best odd set in ascending mask order."""
    weight = [[0] * n for _ in range(n)]
    for (u, v), c in pair_counts.items():
        weight[u][v] = weight[v][u] = c
    count = [0] * (1 << n)
    best, found = Fraction(0), (0, 0, 0)
    for mask in range(1, 1 << n):
        low = (mask & -mask).bit_length() - 1
        rest = mask & (mask - 1)
        row = weight[low]
        count[mask] = count[rest] + sum(row[u] for u in range(low + 1, n)
                                        if rest >> u & 1)
        size = bin(mask).count("1")
        if size >= 3 and size % 2 and Fraction(count[mask], size - 1) > best:
            best, found = Fraction(count[mask], size - 1), (count[mask], size, mask)
    return found


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


def reference_random_multigraph(n, m, seed, mu_max=None):
    """`generators.random_multigraph` as it was before it kept one list of
    open pairs: every draw filters all n(n-1)/2 pairs afresh."""
    if n < 2 and m > 0:
        raise ValueError("need at least two vertices to place an edge")
    rng = random.Random(seed)
    all_pairs = list(combinations(range(n), 2))
    counts = {p: 0 for p in all_pairs}
    pairs = []
    for _ in range(m):
        avail = [p for p in all_pairs if mu_max is None or counts[p] < mu_max]
        if not avail:
            raise ValueError("multiplicity cap leaves no room for more edges")
        p = rng.choice(avail)
        counts[p] += 1
        pairs.append(p)
    return Multigraph.build(n, pairs)


def open_list_random_multigraph(n, m, seed, mu_max):
    """`generators.random_multigraph` with a cap, as it was before it skipped
    the full pairs by index: one list of all n(n-1)/2 pairs, from which each
    pair is removed once it is full, so O(n^2) time and memory."""
    if m < 0:
        raise ValueError(f"edge count must be non-negative, got {m}")
    if n < 2 and m > 0:
        raise ValueError("need at least two vertices to place an edge")
    rng = random.Random(seed)
    avail = list(combinations(range(n), 2)) if mu_max > 0 else []
    counts = dict.fromkeys(avail, 0)
    pairs = []
    for _ in range(m):
        if not avail:
            raise ValueError("multiplicity cap leaves no room for more edges")
        p = rng.choice(avail)
        counts[p] += 1
        if counts[p] == mu_max:
            avail.remove(p)
        pairs.append(p)
    return Multigraph.build(n, pairs)


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


def reference_cycle_reaches(pc, v, alpha, beta, allowed, target):
    """The series' RE test as it read kempe_chain's canonical cycle: None
    when the (alpha, beta)-chain through v is no cycle, else whether a walk
    of its vertex list from v, one way or the other, touches `target`
    before it leaves `allowed` or comes back to v."""
    chain = kempe_chain(pc, v, alpha, beta)
    if chain.kind != "cycle":
        return None
    verts = chain.vertices
    i = verts.index(v)
    for step in (1, -1):
        j = i
        while verts[j] not in target:
            j = (j + step) % len(verts)
            if j == i or verts[j] not in allowed:
                break
        else:
            return True
    return False


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
        cand = [e for e in graph_boundary(G, inside)
                if pc.color_of(e) in missing]
        if not cand:
            return frozenset(inside)
        inside.update(G.endpoints(max(cand)))


def reference_taa_close(G, pc, T):
    """tashkinov.taa_close's order by brute force: after every join, every
    edge of G is scanned for the boundary, and of the edges colored with a
    color missing in the tree, the one with the least (tree index of its
    in-end, color) is absorbed."""
    cur = T
    while True:
        miss = pc.missing_union(cur.vertices)
        index = {v: i for i, v in enumerate(cur.vertices)}
        cand = []
        for e in graph_boundary(G, cur.vertex_set):
            if pc.color_of(e) in miss:
                u, v = G.endpoints(e)
                inner, outer = (u, v) if u in index else (v, u)
                cand.append((index[inner], pc.color_of(e), e, outer))
        if not cand:
            return cur
        _, _, f, w = min(cand)
        cur = cur.grow(f, w)


def proper_total_assignment(G, k, assignment):
    """Does assignment (edge id -> color or None) give every edge of G an
    int color in 1..k, with no color twice at a vertex?"""
    seen = set()
    for eid in G.edge_ids:
        c = assignment.get(eid)
        if type(c) is not int or not 1 <= c <= k:
            return False
        for w in G.endpoints(eid):
            if (w, c) in seen:
                return False
            seen.add((w, c))
    return True


def verify_by_scan(G, result, assignment):
    """verify_result's answer by the density scan on every call, for a result
    loaded from a file with that raw assignment: properness and totality of
    the assignment itself, sound certificates and k_used <= gs_upper of
    bound_report(G)."""
    from gscolor.density import bound_report
    from gscolor.engine import _certificate_densities
    return (proper_total_assignment(G, result.k_used, assignment)
            and _certificate_densities(G, result) is not None
            and result.k_used <= bound_report(G).gs_upper)


def stats(G):
    """(n, m, max degree, max multiplicity); degree counts parallels."""
    return (G.vertex_count, G.m, G.max_degree(), max(G.pair_counts().values(), default=0))


def without_edge(G, eid):
    """G without edge eid; the edges after it move down one id."""
    return Multigraph.build(G.vertex_count,
                            [G.endpoints(e) for e in G.edge_ids if e != eid])


def colorings_without_edge(G, eid, k, cap):
    """Up to `cap` proper k-colorings of G - eid from enumerate_colorings,
    each mapped back onto G's ids, so eid is the one edge left uncolored."""
    keep = [e for e in G.edge_ids if e != eid]
    colorings, _ = enumerate_colorings(without_edge(G, eid), k, cap=cap)
    return [{keep[e]: c for e, c in cmap.items()} for cmap in colorings]
