"""Tree sequences, tree-growing closures, the extension series, and hierarchies.

The series alternates three augmentation kinds over a growing closed tree:
revisiting (RE) re-enters through a two-colored cycle, series (SE) absorbs a
defective boundary edge whose far end stays color-disjoint from the tree, and
parallel (PE) recolors a one-edge exit path at a supporting vertex before
reclosing. A ledger of connecting colors/edges is kept per step and checked
against the structural invariants after every iteration.

The paper quantifies each step over all colorings stable for the current
tree. The series steps on the coloring it is given, which is one of them: the
defective boundary edge and the PE witness come from the row's own coloring.
`stable_search` and `max_defective_vertex` are the analysis-side search over
the colorings reachable by chain swaps that avoid the tree (every such swap
yields a stable coloring); no coloring path calls them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .coloring import (PartialColoring, chain_components, defective_colors,
                       is_closed, is_elementary, is_strongly_closed,
                       kempe_chain, kempe_swap, swap_outside)
from .graph import Multigraph

MAX_LEVELS = 64                 # levels build_hierarchy grows before giving up


class SeriesInvariantError(AssertionError):
    """A structural ledger invariant failed; carries a state dump."""


class SeriesStuck(Exception):
    """A series step could not proceed within its search hypotheses."""


class HierarchyInapplicable(Exception):
    """The hierarchy's color supply or growth preconditions are not met."""


# -- tree sequences -----------------------------------------------------------

class TreeSequence:
    """Alternating vertex/edge sequence rooted at an uncolored edge.

    vertices[0], vertices[1] are the root edge's ends; every later edge joins
    its new vertex to some earlier vertex. Prefixes are the segments; the
    vertex order defines the precedence used throughout the series.
    """

    __slots__ = ("edges", "vertices", "_vset", "_pos")

    def __init__(self, edges: tuple, vertices: tuple):
        if len(vertices) != len(edges) + 1:
            raise ValueError("tree sequence shape mismatch")
        self.edges = tuple(edges)
        self.vertices = tuple(vertices)
        self._vset = frozenset(vertices)
        self._pos = {v: i for i, v in enumerate(vertices)}
        if len(self._vset) != len(vertices) or len(set(edges)) != len(edges):
            raise ValueError("tree sequence repeats a vertex or edge")

    @classmethod
    def root(cls, G: Multigraph, eid: int) -> "TreeSequence":
        u, v = sorted(G.endpoints(eid))
        return cls((eid,), (u, v))

    @property
    def root_edge(self) -> int:
        return self.edges[0]

    @property
    def vertex_set(self) -> frozenset:
        return self._vset

    def has_vertex(self, v: int) -> bool:
        return v in self._vset

    def order(self, v: int) -> int:
        return self._pos[v]

    def grow(self, eid: int, v: int) -> "TreeSequence":
        return TreeSequence(self.edges + (eid,), self.vertices + (v,))

    def segment_to(self, v: int) -> "TreeSequence":
        """The prefix ending at v."""
        i = self._pos[v]
        if i == 0:
            raise ValueError("segment must contain the root edge")
        return TreeSequence(self.edges[:i], self.vertices[:i + 1])

    def is_prefix_of(self, other: "TreeSequence") -> bool:
        p = len(self.vertices)
        return (other.vertices[:p] == self.vertices
                and other.edges[:p - 1] == self.edges)

    def __eq__(self, other):
        if not isinstance(other, TreeSequence):
            return NotImplemented
        return self.edges == other.edges and self.vertices == other.vertices

    def __hash__(self):
        return hash((self.edges, self.vertices))

    def __repr__(self):
        return f"TreeSequence(vertices={self.vertices})"


def validate_tree_sequence(G: Multigraph, T: TreeSequence):
    """Raise unless T is a tree sequence of G: each edge joins its new vertex
    to an earlier one."""
    u, v = G.endpoints(T.edges[0])
    if {u, v} != set(T.vertices[:2]):
        raise ValueError("root edge does not join the first two vertices")
    for j in range(1, len(T.edges)):
        a, b = G.endpoints(T.edges[j])
        new = T.vertices[j + 1]
        if new not in (a, b):
            raise ValueError(f"edge {T.edges[j]} does not reach vertex {new}")
        older = a if b == new else b
        if older not in T.vertices[:j + 1]:
            raise ValueError(f"edge {T.edges[j]} does not attach to an earlier vertex")


def is_tashkinov_tree(G: Multigraph, pc: PartialColoring, eid: int,
                      T: TreeSequence) -> bool:
    """Every non-root edge is colored with a color missing at an earlier vertex."""
    if T.root_edge != eid:
        return False
    validate_tree_sequence(G, T)
    missing_so_far = pc.missing(T.vertices[0]) | pc.missing(T.vertices[1])
    for j in range(1, len(T.edges)):
        c = pc.color_of(T.edges[j])
        if c is None or c not in missing_so_far:
            return False
        missing_so_far = missing_so_far | pc.missing(T.vertices[j + 1])
    return True


def taa_close(G: Multigraph, pc: PartialColoring, T: TreeSequence, *,
              check_order_independence: bool = False) -> TreeSequence:
    """Greedy closure: absorb boundary edges colored with tree-missing colors.

    Ties go to the lowest edge id, which fixes the edge list; the vertex set
    of a closure does not depend on the order, and check_order_independence
    re-runs with the opposite tie-break and asserts exactly that.
    """
    def run(pick_last):
        cur = T
        while True:
            miss = pc.missing_union(cur.vertices)
            cand = sorted(e for e in G.boundary(cur.vertex_set)
                          if pc.color_of(e) in miss)
            if not cand:
                return cur
            f = cand[-1] if pick_last else cand[0]
            u, v = G.endpoints(f)
            cur = cur.grow(f, v if cur.has_vertex(u) else u)

    out = run(False)
    if check_order_independence:
        again = run(True)
        if again.vertex_set != out.vertex_set:
            raise AssertionError("closure vertex set depended on augmentation order")
    return out


@dataclass(frozen=True)
class Witness:
    u: int
    v: int
    color: int


def elementary_audit(pc: PartialColoring, T: TreeSequence):
    """None if the tree's vertex set is elementary, else the first offending
    pair in tree order with their shared missing color."""
    first_owner = {}
    for v in T.vertices:
        for c in sorted(pc.missing(v)):
            if c in first_owner:
                return Witness(first_owner[c], v, c)
            first_owner[c] = v
    return None


# -- stable-coloring search ----------------------------------------------------

def stable_neighbors(pc: PartialColoring, tree_vertices: frozenset,
                     protected: frozenset):
    """Colorings one stability-preserving chain swap away.

    Two classes of chain are safe: chains disjoint from the tree (they touch
    nothing incident to it), and chains whose two colors both avoid the
    protected pool (they may cross the tree but cannot end there, so tree
    missing sets and protected-color edges are untouched). Deterministic
    order: color pairs ascending, then the chain's smallest vertex.
    """
    out = []
    k = pc.k
    for a in range(1, k + 1):
        for b in range(a + 1, k + 1):
            colors_free = a not in protected and b not in protected
            for ch in chain_components(pc, a, b):
                crosses = bool(tree_vertices & set(ch.vertices))
                if crosses and not colors_free:
                    continue
                if crosses and any(u in tree_vertices for u in ch.end_vertices):
                    continue
                out.append(kempe_swap(pc, ch))
    return out


def stable_search(pc: PartialColoring, tree_vertices: frozenset,
                  depth: int, cap: int = 400):
    """Analysis-side BFS over stability-preserving swaps, yielding distinct
    colorings.

    The protected colors are the tree's missing colors. Yields pc itself
    first; bounded by `depth` swap layers and `cap` visited colorings in total.
    """
    protected = pc.missing_union(tree_vertices)
    seen = {pc.signature()}
    frontier = [pc]
    yield pc
    for _ in range(depth):
        nxt = []
        for cur in frontier:
            for cand in stable_neighbors(cur, tree_vertices, protected):
                sig = cand.signature()
                if sig in seen:
                    continue
                seen.add(sig)
                yield cand
                nxt.append(cand)
                if len(seen) >= cap:
                    return
        frontier = nxt
        if not frontier:
            return


def _max_defective(G: Multigraph, pc: PartialColoring, T: TreeSequence):
    """The defective boundary edge of T under pc whose in-end is latest in
    tree order, lowest edge id on ties: (sort key, in-end, edge, its color),
    or None when no boundary color repeats."""
    best = None
    for alpha in sorted(defective_colors(pc, T.vertex_set)):
        for e in sorted(G.boundary(T.vertex_set)):
            if pc.color_of(e) != alpha:
                continue
            u, v = G.endpoints(e)
            inner = u if T.has_vertex(u) else v
            key = (T.order(inner), -e)
            if best is None or key > best[0]:
                best = (key, inner, e, alpha)
    return best


def max_defective_vertex(G: Multigraph, pc: PartialColoring, T: TreeSequence,
                         *, depth: int = 1):
    """Analysis-side search: the latest-in-tree-order in-end of a defective
    boundary edge, over stable colorings reachable within `depth`
    tree-avoiding swaps.

    Returns (vertex, edge, its color, the achieving coloring). Depth 0
    degrades to scoring pc itself. Rejects trees that are strongly closed
    (nothing is defective) or not closed; on any other tree pc itself has a
    defective boundary edge, so a result always exists.
    """
    if not is_closed(pc, T.vertex_set):
        raise ValueError("tree must be closed")
    if is_strongly_closed(pc, T.vertex_set):
        raise ValueError("tree is strongly closed; no defective vertex exists")
    best = None
    for pi in stable_search(pc, T.vertex_set, depth):
        s = _max_defective(G, pi, T)
        if s is not None and (best is None or s[0] > best[0][0]):
            best = (s, pi)
    (_, v, e, alpha), pi = best
    return v, e, alpha, pi


# -- the extension series (RE / SE / PE) ----------------------------------------

@dataclass(frozen=True)
class SeriesTuple:
    """Ledger row i: the tree T_i, the coloring that exhibited it, and the
    connecting data of the step that created it."""
    tree: TreeSequence
    coloring: PartialColoring
    connecting_colors: frozenset      # S_{i-1}, at most 2 colors
    connecting_edges: frozenset       # F_{i-1}, at most 1 edge
    theta: str                        # "none" | "re" | "se" | "pe"
    delta: int | None = None
    gamma: int | None = None
    v_n: int | None = None            # extension / supporting vertex
    r_tree: TreeSequence | None = None  # PE only: closure of the segment at v_n


@dataclass
class SeriesState:
    """The series ledger: tuples (T_i, phi_{i-1}, S_{i-1}, F_{i-1}, theta_{i-1})."""
    graph: Multigraph
    root_edge: int
    k: int
    tuples: list = field(default_factory=list)
    outcome: str = "running"           # "running" | "strongly_closed" | "budget_exhausted"
    stuck_reason: str | None = None

    @property
    def n(self) -> int:
        """Number of completed iterations (rung count of the final tree)."""
        return len(self.tuples) - 1

    def tree(self, i: int) -> TreeSequence:
        """T_i for 1 <= i <= n+1; T_0 is empty and has no TreeSequence."""
        return self.tuples[i - 1].tree

    def coloring(self, i: int) -> PartialColoring:
        """phi_i for 0 <= i <= n."""
        return self.tuples[i].coloring

    @property
    def final_tree(self) -> TreeSequence:
        return self.tuples[-1].tree

    @property
    def final_coloring(self) -> PartialColoring:
        return self.tuples[-1].coloring

    def connecting_union(self, upto: int) -> frozenset:
        out = set()
        for t in self.tuples[:upto + 1]:
            out |= t.connecting_colors
        return frozenset(out)

    def d_set(self, i: int) -> frozenset:
        """D_i = union of connecting colors up to i, minus missing(T_i) under phi_i."""
        if i == 0:
            return frozenset()
        missing = self.coloring(i).missing_union(self.tree(i).vertices)
        return self.connecting_union(i) - missing

    def to_ledger_json(self) -> str:
        rows = []
        for i, t in enumerate(self.tuples):
            rows.append({
                "i": i + 1,
                "theta": t.theta,
                "S": sorted(t.connecting_colors),
                "F": sorted(t.connecting_edges),
                "tree_vertices": list(t.tree.vertices),
                "D": sorted(self.d_set(i)) if i >= 1 else [],
            })
        return json.dumps({"v": 1, "outcome": self.outcome, "rows": rows},
                          separators=(",", ":"))


def assert_series_invariants(state: SeriesState):
    """Ledger invariants after every iteration.

    |D_n| <= n; colors on T_n's edges lie in missing(T_n) | D_n; the
    missing-or-connecting pool only grows across an iteration; PE steps leave
    exactly the connecting edge in the recolored-color boundary; repeated
    supporting vertices chain their connecting colors.
    """
    n = state.n
    for i in range(1, n + 1):
        d_i = state.d_set(i)
        if len(d_i) > i:
            raise SeriesInvariantError(
                f"|D_{i}| = {len(d_i)} > {i}\n" + state.to_ledger_json())
        t_i = state.tree(i)
        phi_i = state.coloring(i)
        pool_i = phi_i.missing_union(t_i.vertices) | d_i
        tree_colors = phi_i.colors_on(t_i.edges)
        if not tree_colors <= pool_i:
            raise SeriesInvariantError(
                f"T_{i} carries colors outside missing|D: {sorted(tree_colors - pool_i)}\n"
                + state.to_ledger_json())
        prev_pool = (state.coloring(i - 1).missing_union(t_i.vertices)
                     | state.d_set(i - 1))
        if not prev_pool <= pool_i:
            raise SeriesInvariantError(
                f"iteration {i} shrank the protected color pool\n"
                + state.to_ledger_json())
    # PE postconditions on the most recent step; these rest on the tree being
    # elementary (the regime the series is proven for), so outside that regime
    # a failure means the hypotheses are void, not that the ledger is corrupt
    last = state.tuples[-1]
    if last.theta == "pe" and n >= 1:
        t_n = state.tree(n)
        phi_n = state.coloring(n)
        failure = None
        gamma_bound = [e for e in state.graph.boundary(t_n.vertex_set)
                       if phi_n.color_of(e) == last.gamma]
        if set(gamma_bound) != set(last.connecting_edges):
            failure = "PE: recolored-color boundary is not exactly the connecting edge"
        else:
            for c in sorted(phi_n.missing_union(t_n.vertices) - {last.delta}):
                if any(phi_n.color_of(e) == c
                       for e in state.graph.boundary(t_n.vertex_set)):
                    failure = f"PE: missing color {c} not closed in T_n"
                    break
        if failure is not None:
            if is_elementary(phi_n, t_n.vertex_set):
                raise SeriesInvariantError(failure + "\n" + state.to_ledger_json())
            raise SeriesStuck(failure + " (tree not elementary)")
    # connecting-color chaining at a recurring supporting vertex
    by_vertex = {}
    for t in state.tuples:
        if t.theta == "pe":
            by_vertex.setdefault(t.v_n, []).append(t)
    for rows in by_vertex.values():
        for prev, cur in zip(rows, rows[1:]):
            if cur.gamma != prev.delta:
                raise SeriesInvariantError(
                    f"supporting vertex {cur.v_n}: gamma {cur.gamma} does not chain "
                    f"from previous delta {prev.delta}\n" + state.to_ledger_json())


@dataclass(frozen=True)
class StepOutcome:
    kind: str                         # "strongly_closed" | "extended" | "budget_exhausted"
    reason: str | None = None


def series_step(G: Multigraph, state: SeriesState) -> StepOutcome:
    """One iteration: stop on a strongly closed tree, else extend by RE, SE,
    or PE and append the new ledger row."""
    n = state.n + 1                    # the tree about to be extended is T_n
    t_n = state.tree(n)
    phi = state.coloring(n - 1)

    if is_strongly_closed(phi, t_n.vertex_set):
        state.outcome = "strongly_closed"
        return StepOutcome("strongly_closed")
    if not is_closed(phi, t_n.vertex_set):
        raise SeriesInvariantError(
            "series tree lost closedness\n" + state.to_ledger_json())

    re_hit = _find_revisit(G, state, t_n, phi)
    if re_hit is not None:
        f_n, delta_h, gamma_h = re_hit
        u, v = G.endpoints(f_n)
        out_end = v if t_n.has_vertex(u) else u
        t_next = taa_close(G, phi, t_n.grow(f_n, out_end))
        state.tuples.append(SeriesTuple(
            tree=t_next, coloring=phi,
            connecting_colors=frozenset((delta_h, gamma_h)),
            connecting_edges=frozenset((f_n,)), theta="re",
            delta=delta_h, gamma=gamma_h))
        assert_series_invariants(state)
        return StepOutcome("extended", "re")

    # closed and not strongly closed, so some boundary color repeats
    _, v_n, f_n, delta_n = _max_defective(G, phi, t_n)
    u_n = G.other_end(f_n, v_n)
    hit = phi.missing(u_n) & phi.missing_union(t_n.vertices)

    if not hit:
        t_next = taa_close(G, phi, t_n.grow(f_n, u_n))
        state.tuples.append(SeriesTuple(
            tree=t_next, coloring=phi,
            connecting_colors=frozenset((delta_n,)),
            connecting_edges=frozenset((f_n,)), theta="se",
            delta=delta_n, v_n=v_n))
        assert_series_invariants(state)
        return StepOutcome("extended", "se")

    alpha = min(hit)
    gamma_n = _pick_gamma(state, phi, v_n)
    pi_prime = (phi if alpha == gamma_n
                else swap_outside(phi, t_n.vertex_set, alpha, gamma_n))
    path = kempe_chain(pi_prime, v_n, gamma_n, delta_n)
    if (path.kind != "path" or set(path.edges) != {f_n}
            or len(set(path.vertices) & t_n.vertex_set) != 1):
        raise SeriesStuck("PE: constructed exit path is not the single connecting edge")
    phi_n = kempe_swap(pi_prime, path)
    r_tree = taa_close(G, phi_n, t_n.segment_to(v_n))
    t_next = taa_close(G, phi_n, _join(t_n, r_tree))
    state.tuples.append(SeriesTuple(
        tree=t_next, coloring=phi_n,
        connecting_colors=frozenset((delta_n, gamma_n)),
        connecting_edges=frozenset((f_n,)), theta="pe",
        delta=delta_n, gamma=gamma_n, v_n=v_n, r_tree=r_tree))
    assert_series_invariants(state)
    return StepOutcome("extended", "pe")


def _find_revisit(G, state: SeriesState, t_n: TreeSequence, phi):
    """The RE trigger: the last non-RE step was a PE whose color pair now runs
    a cycle through a tree boundary edge and back into that step's tree."""
    n = state.n + 1
    h = None
    for i in range(n - 1, 0, -1):
        if state.tuples[i].theta != "re":
            h = i
            break
    if h is None or state.tuples[h].theta != "pe":
        return None
    delta_h = state.tuples[h].delta
    gamma_h = state.tuples[h].gamma
    t_h_vertices = state.tree(h).vertex_set
    for f in sorted(G.boundary(t_n.vertex_set)):
        if phi.color_of(f) != gamma_h:
            continue
        u, v = G.endpoints(f)
        v_n = u if t_n.has_vertex(u) else v
        ch = kempe_chain(phi, v_n, gamma_h, delta_h)
        if ch.kind != "cycle" or f not in ch.edges:
            continue
        if _cycle_reaches(ch, v_n, t_n.vertex_set, t_h_vertices):
            return f, delta_h, gamma_h
    return None


def _cycle_reaches(cycle, start, allowed, target) -> bool:
    """Walking the cycle from `start` inside `allowed`, do we touch `target`?"""
    verts = cycle.vertices
    i = verts.index(start)
    size = len(verts)
    for direction in (1, -1):
        j = i
        while True:
            if verts[j] in target:
                return True
            j = (j + direction) % size
            if j == i or verts[j] not in allowed:
                break
    return False


def _pick_gamma(state: SeriesState, pi: PartialColoring, v_n: int) -> int:
    """The PE connecting color at v_n: forced to the unique earlier-series
    color when v_n supported a PE before, else the smallest missing color."""
    missing = pi.missing(v_n)
    if not missing:
        raise SeriesStuck(f"supporting vertex {v_n} has no missing color")
    prior = set()
    for t in state.tuples:
        if t.theta == "pe" and t.v_n == v_n:
            prior |= t.connecting_colors
    if prior:
        inter = missing & prior
        if len(inter) != 1:
            raise SeriesStuck(
                f"supporting vertex {v_n}: expected exactly one reusable "
                f"connecting color, found {sorted(inter)}")
        return next(iter(inter))
    return min(missing)


def _join(base: TreeSequence, extra: TreeSequence) -> TreeSequence:
    """base with extra's vertices appended in extra's order via extra's edges."""
    cur = base
    for j, v in enumerate(extra.vertices):
        if j == 0 or cur.has_vertex(v):
            continue
        cur = cur.grow(extra.edges[j - 1], v)
    return cur


def series(G: Multigraph, eid: int, phi0: PartialColoring):
    """Run the extension series from the closure of the uncolored root edge,
    yielding the ledger (one SeriesState, growing) after T_1 and every step.

    phi0 must leave `eid` uncolored; other uncolored edges are simply
    invisible to the machinery. Strong closure is tested once per row,
    before it is yielded; a strongly closed row has outcome "strongly_closed"
    and is the last. A stuck step raises SeriesStuck; a step that does not
    grow the tree raises SeriesInvariantError.
    """
    if phi0.color_of(eid) is not None:
        raise ValueError("root edge must be uncolored")
    t1 = taa_close(G, phi0, TreeSequence.root(G, eid))
    state = SeriesState(graph=G, root_edge=eid, k=phi0.k)
    state.tuples.append(SeriesTuple(
        tree=t1, coloring=phi0, connecting_colors=frozenset(),
        connecting_edges=frozenset(), theta="none"))
    while True:
        if is_strongly_closed(state.final_coloring, state.final_tree.vertex_set):
            state.outcome = "strongly_closed"
        yield state
        if state.outcome == "strongly_closed":
            return
        before = len(state.final_tree.vertices)
        series_step(G, state)
        if len(state.final_tree.vertices) <= before:
            raise SeriesInvariantError("series step failed to grow the tree\n"
                                       + state.to_ledger_json())


def build_series(G: Multigraph, eid: int, phi0: PartialColoring, *,
                 max_steps: int | None = None, strict: bool = True) -> SeriesState:
    """The whole series as one ledger: `series` until the tree is strongly
    closed or after max_steps iterations (default: one per graph vertex).
    With strict=False a stuck step downgrades to a budget_exhausted outcome
    instead of raising.
    """
    limit = G.vertex_count if max_steps is None else max_steps
    try:
        for state in series(G, eid, phi0):
            if state.outcome == "running" and state.n >= limit:
                state.outcome = "budget_exhausted"
                break
    except SeriesStuck as exc:
        if strict:
            raise
        state.outcome = "budget_exhausted"
        state.stuck_reason = str(exc)
    return state


# -- good hierarchies (level structure with reserved color pairs) ---------------

@dataclass
class Hierarchy:
    """Levels T_{n,0} subset ... subset T_{n,q+1} with reserved 2-color sets.

    gamma maps (level j, outstanding color eta) to its reserved pair; d_sets
    maps level j to the outstanding connecting colors at that level. count_ok
    records whether the tree had the full missing-color supply (2n + 11) that
    guarantees the reserve quota.
    """
    rung: int
    base: TreeSequence                 # T_{n,0} = T_n
    base_star: TreeSequence            # T_n v R_n under PE, else T_n (+ f_n seed)
    levels: list                       # [T_{n,1}, ..., T_{n,q+1}]
    dividers: tuple
    gamma: dict
    d_sets: dict
    count_ok: bool

    @property
    def q(self) -> int:
        return len(self.levels) - 1


def build_hierarchy(state: SeriesState) -> Hierarchy:
    """Construct the level structure for the final rung of a series.

    Rung 0 yields the trivial hierarchy (no dividers, nothing reserved).
    Raises HierarchyInapplicable when the missing-color supply cannot fund the
    reserved pairs or the guarded growth deadlocks before closing.
    """
    n = state.n
    if n == 0:
        t1 = state.tree(1)
        return Hierarchy(rung=0, base=t1, base_star=t1, levels=[t1],
                         dividers=(), gamma={}, d_sets={0: frozenset()},
                         count_ok=False)
    G = state.graph
    phi = state.coloring(n)
    t_n = state.tree(n)
    last = state.tuples[n]
    if last.theta == "pe":
        base_star = _join(t_n, last.r_tree)
    else:
        (f_n,) = last.connecting_edges
        u, v = G.endpoints(f_n)
        base_star = t_n.grow(f_n, v if t_n.has_vertex(u) else u)

    missing_tn = phi.missing_union(t_n.vertices)
    count_ok = len(missing_tn) >= 2 * n + 11
    all_s = state.connecting_union(n)
    d0 = all_s - phi.missing_union(base_star.vertices)

    pool = sorted(missing_tn)
    avoid = None
    if last.theta == "pe":
        open_missing = sorted(
            c for c in phi.missing_union(base_star.vertices)
            if any(phi.color_of(e) == c for e in G.boundary(base_star.vertex_set)))
        if not open_missing:
            raise HierarchyInapplicable(
                "base closure is already closed; no seed color to leave open")
        avoid = open_missing[0]
        r_missing = phi.missing_union(last.r_tree.vertices)
        primary = [c for c in pool if c not in r_missing and c != avoid]
        secondary = [c for c in pool if c in r_missing and c != avoid]
        supply = primary + secondary
    else:
        supply = list(pool)
    if len(supply) < 2 * len(d0):
        raise HierarchyInapplicable(
            f"need {2 * len(d0)} reserve colors, only {len(supply)} available")
    gamma = {}
    it = iter(supply)
    for eta in sorted(d0):
        gamma[(0, eta)] = frozenset((next(it), next(it)))

    def v_eta(tree, eta):
        for v in tree.vertices:
            if eta in phi.missing(v):
                return v
        return tree.vertices[-1]

    def guard_ok(tree, level_j, base_tree, d_here):
        # reserved colors must not be spent before their outstanding color
        # first goes missing along the tree (whole tree if it never does)
        for eta in sorted(d_here):
            ve = v_eta(tree, eta)
            if eta in phi.missing(ve) and ve == tree.vertices[0]:
                continue
            seg = tree.segment_to(ve) if eta in phi.missing(ve) else tree
            new_edges = [e for e in seg.edges if e not in base_tree.edges]
            if gamma[(level_j, eta)] & phi.colors_on(new_edges):
                return False
        return True

    def grow_guarded(start, level_j, base_tree, d_here):
        cur = start
        while True:
            miss = phi.missing_union(cur.vertices)
            grown = False
            for f in sorted(e for e in G.boundary(cur.vertex_set)
                            if phi.color_of(e) in miss):
                u, v = G.endpoints(f)
                cand = cur.grow(f, v if cur.has_vertex(u) else u)
                if guard_ok(cand, level_j, base_tree, d_here):
                    cur = cand
                    grown = True
                    break
            if not grown:
                return cur

    levels = []
    d_sets = {0: frozenset(d0)}
    t_cur = grow_guarded(base_star, 0, base_star, d0)
    if t_cur == base_star and last.theta == "pe":
        raise HierarchyInapplicable("guarded growth could not leave the base closure")
    levels.append(t_cur)

    j = 1
    while not is_closed(phi, levels[-1].vertex_set):
        if j >= MAX_LEVELS:
            raise HierarchyInapplicable("level limit hit before the tree closed")
        t_j = levels[-1]
        d_j = all_s - phi.missing_union(t_j.vertices)
        d_sets[j] = frozenset(d_j)
        for eta in sorted(d_j):
            gamma[(j, eta)] = gamma[(j - 1, eta)]
        crossing = None
        for f in sorted(G.boundary(t_j.vertex_set)):
            c = phi.color_of(f)
            hit = [eta for eta in sorted(d_j) if c in gamma[(j - 1, eta)]]
            if hit:
                crossing = (f, hit[0])
                break
        if crossing is None:
            raise HierarchyInapplicable(
                f"level {j}: no boundary edge in a reserved color")
        f, eta_g = crossing
        prev_star = base_star if j == 1 else levels[-2]
        fresh = sorted(phi.missing_union(
            v for v in t_j.vertices if not prev_star.has_vertex(v)))
        if len(fresh) < 2:
            raise HierarchyInapplicable(
                f"level {j}: fewer than two fresh reserve colors")
        gamma[(j, eta_g)] = frozenset(fresh[:2])
        u, v = G.endpoints(f)
        seed = t_j.grow(f, v if t_j.has_vertex(u) else u)
        levels.append(grow_guarded(seed, j, t_j, d_j))
        j += 1

    hierarchy = Hierarchy(
        rung=n, base=t_n, base_star=base_star, levels=levels,
        dividers=tuple(lvl.vertices[-1] for lvl in levels[:-1]),
        gamma=gamma, d_sets=d_sets, count_ok=count_ok)
    conds = hierarchy_conditions(state, hierarchy)
    bad = [name for name, ok in conds.items() if not ok]
    if bad:
        raise HierarchyInapplicable(f"constructed levels violate {bad}")
    return hierarchy


def hierarchy_conditions(state: SeriesState, h: Hierarchy) -> dict:
    """Independent re-check of the five structural conditions.

    (i) each reserved pair avoids the colors already spent before its
    outstanding color goes missing; (ii) reserved pairs are disjoint per
    level; (iii) each level refreshes exactly one pair, drawn from the
    level's fresh vertices; (iv) under PE the base closure keeps one
    unreserved open color and the reserve was drawn outside the segment
    closure's missing colors first; (v) each level is closed except possibly
    in the reserved colors.
    """
    if h.rung == 0:
        return {c: True for c in ("i", "ii", "iii", "iv", "v")}
    phi = state.coloring(h.rung)
    G = state.graph
    final = h.levels[-1]
    last = state.tuples[h.rung]

    def v_eta(eta):
        for v in final.vertices:
            if eta in phi.missing(v):
                return v
        return final.vertices[-1]

    def lam(j, eta):
        base_tree = h.base_star if j == 0 else h.levels[j - 1]
        upper = h.levels[j]
        ve = v_eta(eta)
        if upper.has_vertex(ve) and eta in phi.missing(ve):
            seg_edges = () if ve == upper.vertices[0] \
                else upper.segment_to(ve).edges
        else:
            seg_edges = upper.edges
        spent = phi.colors_on(e for e in seg_edges if e not in base_tree.edges)
        base_missing = phi.missing_union(
            (h.base if j == 0 else h.levels[j - 1]).vertices)
        return base_missing - spent

    cond_i = all(h.gamma[(j, eta)] <= lam(j, eta)
                 for j in range(h.q + 1) for eta in sorted(h.d_sets[j]))

    cond_ii = True
    for j in range(h.q + 1):
        seen = set()
        for eta in sorted(h.d_sets[j]):
            if h.gamma[(j, eta)] & seen:
                cond_ii = False
            seen |= h.gamma[(j, eta)]

    cond_iii = True
    for j in range(1, h.q + 1):
        changed = [eta for eta in sorted(h.d_sets[j])
                   if h.gamma[(j, eta)] != h.gamma[(j - 1, eta)]]
        if len(changed) != 1:
            cond_iii = False
            continue
        prev_star = h.base_star if j == 1 else h.levels[j - 2]
        fresh = phi.missing_union(v for v in h.levels[j - 1].vertices
                                  if not prev_star.has_vertex(v))
        if not h.gamma[(j, changed[0])] <= fresh:
            cond_iii = False

    cond_iv = True
    if last.theta == "pe":
        gamma0 = set()
        for eta in sorted(h.d_sets[0]):
            gamma0 |= h.gamma[(0, eta)]
        open_colors = [c for c in phi.missing_union(h.base_star.vertices) - gamma0
                       if any(phi.color_of(e) == c
                              for e in G.boundary(h.base_star.vertex_set))]
        if not open_colors:
            cond_iv = False
        r_missing = phi.missing_union(last.r_tree.vertices)
        tn_missing = phi.missing_union(h.base.vertices)
        outside = tn_missing - r_missing
        # the reserve must exhaust the priority pool before dipping into the
        # overlap with the segment closure
        if gamma0 & r_missing and len(gamma0 & outside) < min(len(gamma0),
                                                              len(outside) - 1):
            cond_iv = False
        if h.count_ok and len((tn_missing & r_missing) - gamma0) < 4:
            cond_iv = False

    cond_v = True
    for j in range(1, h.q + 1):
        reserved = set()
        for eta in sorted(h.d_sets[j]):
            reserved |= h.gamma[(j - 1, eta)]
        t_j = h.levels[j - 1]
        for c in phi.missing_union(t_j.vertices) - reserved:
            if any(phi.color_of(e) == c for e in G.boundary(t_j.vertex_set)):
                cond_v = False

    return {"i": cond_i, "ii": cond_ii, "iii": cond_iii, "iv": cond_iv, "v": cond_v}
