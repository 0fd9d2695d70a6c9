"""Tree sequences, tree-growing closures, and the extension series.

The series alternates three augmentation kinds over a growing closed tree:
revisiting (RE) re-enters through a two-colored cycle, series (SE) absorbs a
defective boundary edge whose far end stays color-disjoint from the tree, and
parallel (PE) recolors a one-edge exit path at a supporting vertex before
reclosing. A ledger of connecting colors/edges is kept per step and checked
against the structural invariants after every iteration. `build_series`
runs the series to the end; the coloring driver calls it once per edge that
resists the direct step and the chain swap, for its certificate only (a
strongly closed, elementary final tree), and never takes a coloring from it.

The paper quantifies each step over all colorings stable for the current
tree. The series steps on the coloring it is given, which is one of them: the
defective boundary edge and the PE witness come from the row's own coloring.
`stable_neighbors` lists the colorings one tree-avoiding chain swap away
(every such swap yields a stable coloring); no coloring path calls it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .coloring import (PartialColoring, chain_components, defective_colors,
                       is_closed, is_elementary, is_strongly_closed,
                       kempe_chain, kempe_swap, swap_outside)
from .graph import Multigraph


class SeriesInvariantError(AssertionError):
    """A structural ledger invariant failed; carries a state dump."""


class SeriesStuck(Exception):
    """A series step could not proceed within its search hypotheses."""


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

    def __eq__(self, other):
        if not isinstance(other, TreeSequence):
            return NotImplemented
        return self.edges == other.edges and self.vertices == other.vertices

    def __hash__(self):
        return hash((self.edges, self.vertices))

    def __repr__(self):
        return f"TreeSequence(vertices={self.vertices})"


def taa_close(G: Multigraph, pc: PartialColoring, T: TreeSequence) -> TreeSequence:
    """Greedy closure: absorb boundary edges colored with tree-missing colors.

    Ties go to the lowest edge id, which fixes the edge list; the vertex set
    of a closure does not depend on the order.
    """
    cur = T
    while True:
        miss = pc.missing_union(cur.vertices)
        cand = [e for e in G.boundary(cur.vertex_set) if pc.color_of(e) in miss]
        if not cand:
            return cur
        f = min(cand)
        u, v = G.endpoints(f)
        cur = cur.grow(f, v if cur.has_vertex(u) else u)


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


# -- stable neighbors and defective boundary edges ------------------------------

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
        delta=delta_n, gamma=gamma_n, v_n=v_n))
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


def build_series(G: Multigraph, eid: int, phi0: PartialColoring, *,
                 strict: bool = True) -> SeriesState:
    """Run the extension series from the closure of the uncolored root edge
    until the tree is strongly closed, as one ledger.

    phi0 must leave `eid` uncolored; other uncolored edges are simply
    invisible to the machinery. Strong closure is tested once per row. Every
    step grows the tree (one that does not raises SeriesInvariantError), so
    the series ends: a tree spanning its component has no boundary. A stuck
    step raises SeriesStuck; with strict=False it ends the series with a
    budget_exhausted outcome instead, keeping any row the step appended.
    """
    if phi0.color_of(eid) is not None:
        raise ValueError("root edge must be uncolored")
    t1 = taa_close(G, phi0, TreeSequence.root(G, eid))
    state = SeriesState(graph=G, root_edge=eid, k=phi0.k)
    state.tuples.append(SeriesTuple(
        tree=t1, coloring=phi0, connecting_colors=frozenset(),
        connecting_edges=frozenset(), theta="none"))
    try:
        while not is_strongly_closed(state.final_coloring,
                                     state.final_tree.vertex_set):
            before = len(state.final_tree.vertices)
            series_step(G, state)
            if len(state.final_tree.vertices) <= before:
                raise SeriesInvariantError("series step failed to grow the tree\n"
                                           + state.to_ledger_json())
    except SeriesStuck as exc:
        if strict:
            raise
        state.outcome = "budget_exhausted"
        state.stuck_reason = str(exc)
        return state
    state.outcome = "strongly_closed"
    return state
