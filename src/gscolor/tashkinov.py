"""Tree sequences, tree-growing closures, and the extension series.

The series alternates three augmentation kinds over a growing closed tree:
revisiting (RE) re-enters through a two-colored cycle, series (SE) absorbs a
defective boundary edge whose far end stays color-disjoint from the tree,
and parallel (PE) recolors a one-edge exit path at a supporting vertex
before reclosing. PE makes its Kempe changes as the chain step does, with
`coloring.interchange` on one clone. A ledger of connecting colors/edges is
kept per step and checked against the structural invariants after every
iteration. `build_series` runs the series to the end, a strongly closed tree
or a stuck step; `engine.extend` calls it once per resisting edge, for its
certificate only (a strongly closed, elementary final tree), and takes no
coloring from it. The `engine` module docstring says when such a certificate
can arise.

The paper quantifies each step over all colorings stable for the current
tree. The series steps on the coloring it is given, which is one of them: the
defective boundary edge and the PE witness come from the row's own coloring.
A row reads its tree's colored boundary once, off the coloring's tables, and
takes closedness, the defective colors, the maximum defective edge and the
revisiting candidates from that one read. Every step reads the graph off the
coloring (`pc.graph`); only `TreeSequence.root`, which has none, takes it.
"""

from __future__ import annotations

import json
from typing import NamedTuple

from .coloring import PartialColoring, alternating_path, interchange, mask_colors
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

    An immutable value: edges and vertices are stored as tuples (lists are
    accepted), and two sequences are equal, and hash alike, when both are.
    """
    __slots__ = ("edges", "vertices", "vertex_set")

    def __init__(self, edges, vertices):
        edges, vertices = tuple(edges), tuple(vertices)
        if len(vertices) != len(edges) + 1:
            raise ValueError("tree sequence shape mismatch")
        vertex_set = frozenset(vertices)
        if len(vertex_set) != len(vertices) or len(set(edges)) != len(edges):
            raise ValueError("tree sequence repeats a vertex or edge")
        for name, value in (("edges", edges), ("vertices", vertices),
                            ("vertex_set", vertex_set)):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to TreeSequence.{name}")

    def __eq__(self, other):
        if type(other) is not TreeSequence:
            return NotImplemented
        return self.edges == other.edges and self.vertices == other.vertices

    def __hash__(self):
        return hash((self.edges, self.vertices))

    def __repr__(self):
        return f"TreeSequence(edges={self.edges!r}, vertices={self.vertices!r})"

    @classmethod
    def root(cls, G: Multigraph, eid: int) -> "TreeSequence":
        u, v = sorted(G.endpoints(eid))
        return cls((eid,), (u, v))

    @property
    def root_edge(self) -> int:
        return self.edges[0]

    def grow(self, eid: int, v: int) -> "TreeSequence":
        return TreeSequence(self.edges + (eid,), self.vertices + (v,))

    def segment_to(self, v: int) -> "TreeSequence":
        """The prefix ending at v."""
        i = self.vertices.index(v)
        if i == 0:
            raise ValueError("segment must contain the root edge")
        return TreeSequence(self.edges[:i], self.vertices[:i + 1])


def taa_close(pc: PartialColoring, T: TreeSequence) -> TreeSequence:
    """Greedy closure: absorb boundary edges colored with tree-missing colors.

    Each join takes the boundary edge with the least (tree index of its
    in-end, color) among those whose color some tree vertex misses. One
    forward scan over the tree finds it, off pc's per-vertex tables: a
    vertex with no such edge is passed, and stays passed until a join adds
    a new missing color to the tree, which sends the scan back to index 0.
    So each vertex is read once per new missing color. The vertex set is
    the same in any order.
    """
    ends, at, present = pc.graph._ends, pc._at, pc._mask
    full = (1 << (pc.k + 1)) - 2
    edges, vertices = list(T.edges), list(T.vertices)
    inside = set(vertices)
    miss = 0
    for v in vertices:
        miss |= full & ~present[v]
    i = 0
    while i < len(vertices):
        v = vertices[i]
        i += 1
        for c in mask_colors(present[v] & miss):
            e = at[v][c]
            a, b = ends[e]
            w = b if a == v else a
            if w in inside:
                continue
            edges.append(e)
            vertices.append(w)
            inside.add(w)
            new = full & ~present[w] & ~miss
            if new:
                miss |= new
                i = 0
                break
    return TreeSequence(edges, vertices)


class Witness(NamedTuple):
    u: int
    v: int
    color: int


def elementary_audit(pc: PartialColoring, vertices):
    """None if the vertices' missing sets are pairwise disjoint (the set is
    elementary), else the first offending pair in the given order with their
    shared missing color."""
    first_owner = {}
    for v in vertices:
        for c in mask_colors(pc.missing_mask(v)):
            if c in first_owner:
                return Witness(first_owner[c], v, c)
            first_owner[c] = v
    return None


# -- the colored boundary ------------------------------------------------------

def _colored_boundary(pc: PartialColoring, T: TreeSequence) -> dict:
    """T's colored boundary edges under pc, read once from pc's per-vertex
    color tables at T's vertices, so uncolored edges are never touched: for
    each color, the ascending list of (edge, tree index of its in-end). A
    color is defective when its list has two or more entries."""
    inside = T.vertex_set
    ends = pc.graph._ends
    by_color = {}
    for i, v in enumerate(T.vertices):
        for c, e in pc._at[v].items():
            a, b = ends[e]
            if (b if a == v else a) not in inside:
                by_color.setdefault(c, []).append((e, i))
    for found in by_color.values():
        found.sort()
    return by_color


def _max_defective(T: TreeSequence, boundary: dict):
    """The defective boundary edge whose in-end is latest in T's order,
    lowest edge id on ties, from T's `_colored_boundary`: (in-end, edge,
    its color). T must have a defective color."""
    i, neg_e, alpha = max((i, -e, c) for c, found in boundary.items()
                          if len(found) >= 2 for e, i in found)
    return T.vertices[i], -neg_e, alpha


# -- the extension series (RE / SE / PE) ----------------------------------------

class SeriesTuple(NamedTuple):
    """Ledger row i: the tree T_i, the coloring that exhibited it, and the
    connecting data of the step that created it. The step's connecting
    colors S_{i-1} and edges F_{i-1} are derived from delta, gamma and edge."""
    tree: TreeSequence
    coloring: PartialColoring
    theta: str = "none"               # "none" | "re" | "se" | "pe"
    edge: int | None = None           # the connecting edge f_n, None on row 1
    delta: int | None = None
    gamma: int | None = None
    v_n: int | None = None            # extension / supporting vertex

    @property
    def connecting_colors(self) -> frozenset:
        return frozenset((self.delta, self.gamma)) - {None}

    @property
    def connecting_edges(self) -> frozenset:
        return frozenset((self.edge,)) - {None}


class SeriesState:
    """The series ledger: tuples (T_i, phi_{i-1}, S_{i-1}, F_{i-1}, theta_{i-1})."""
    __slots__ = ("graph", "tuples", "outcome", "stuck_reason")

    def __init__(self, graph: Multigraph, tuples: list | None = None,
                 outcome: str = "running", stuck_reason: str | None = None):
        self.graph = graph
        self.tuples = [] if tuples is None else tuples
        self.outcome = outcome          # "running" | "strongly_closed" | "budget_exhausted"
        self.stuck_reason = stuck_reason

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

    def d_set(self, i: int) -> frozenset:
        """D_i = union of connecting colors up to i, minus missing(T_i) under phi_i."""
        if i == 0:
            return frozenset()
        union = frozenset().union(*(t.connecting_colors for t in self.tuples[:i + 1]))
        return union - self.coloring(i).missing_union(self.tree(i).vertices)

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
    # PE postconditions on the most recent step; these rest on T_n being
    # elementary under phi_{n-1}, the coloring the step started from (the
    # regime the series is proven for), so outside that regime a failure
    # means the hypotheses are void, not that the ledger is corrupt
    last = state.tuples[-1]
    if last.theta == "pe" and n >= 1:
        t_n = state.tree(n)
        phi_n = state.coloring(n)
        failure = None
        boundary = _colored_boundary(phi_n, t_n)
        unclosed = sorted((phi_n.missing_union(t_n.vertices) - {last.delta})
                          & boundary.keys())
        gamma_bound = {e for e, _ in boundary.get(last.gamma, ())}
        if gamma_bound != set(last.connecting_edges):
            failure = "PE: recolored-color boundary is not exactly the connecting edge"
        elif unclosed:
            failure = f"PE: missing color {unclosed[0]} not closed in T_n"
        if failure is not None:
            if elementary_audit(state.coloring(n - 1), t_n.vertices) is None:
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


class StepOutcome(NamedTuple):
    kind: str                         # "strongly_closed" | "extended" | "budget_exhausted"
    reason: str | None = None


def series_step(state: SeriesState) -> StepOutcome:
    """One iteration: stop on a strongly closed tree, else extend by RE, SE,
    or PE and append the new ledger row."""
    G = state.graph
    n = state.n + 1                    # the tree about to be extended is T_n
    t_n = state.tree(n)
    phi = state.coloring(n - 1)

    boundary = _colored_boundary(phi, t_n)
    closed = not (boundary.keys() & phi.missing_union(t_n.vertices))
    if closed and all(len(found) < 2 for found in boundary.values()):
        state.outcome = "strongly_closed"
        return StepOutcome("strongly_closed")
    if not closed:
        raise SeriesInvariantError(
            "series tree lost closedness\n" + state.to_ledger_json())

    re_hit = _find_revisit(state, t_n, phi, boundary)
    if re_hit is not None:
        f_n, v_in, delta_h, gamma_h = re_hit
        row = SeriesTuple(
            tree=taa_close(phi, t_n.grow(f_n, G.other_end(f_n, v_in))),
            coloring=phi, theta="re", edge=f_n, delta=delta_h, gamma=gamma_h)
    else:
        # closed and not strongly closed, so some boundary color repeats
        v_n, f_n, delta_n = _max_defective(t_n, boundary)
        u_n = G.other_end(f_n, v_n)
        hit = phi.missing(u_n) & phi.missing_union(t_n.vertices)
        if not hit:
            row = SeriesTuple(
                tree=taa_close(phi, t_n.grow(f_n, u_n)), coloring=phi,
                theta="se", edge=f_n, delta=delta_n, v_n=v_n)
        else:
            alpha = min(hit)
            gamma_n = _pick_gamma(state, phi, v_n)
            # alpha and gamma_n are missing in the closed tree, so on no
            # boundary edge: their edges outside it are whole components; once
            # flipped, u_n and v_n both miss gamma_n, so the exit path is f_n
            phi_n = phi.clone()
            if alpha != gamma_n:
                interchange(phi_n, [e for e, c in phi._color.items() if c in (alpha, gamma_n)
                                    and G._ends[e][0] not in t_n.vertex_set], alpha, gamma_n)
            if not (phi_n.missing_mask(u_n) & phi_n.missing_mask(v_n)) >> gamma_n & 1:
                raise SeriesInvariantError(
                    "PE: constructed exit path is not the single connecting edge\n"
                    + state.to_ledger_json())
            interchange(phi_n, (f_n,), gamma_n, delta_n)
            r_tree = taa_close(phi_n, t_n.segment_to(v_n))
            row = SeriesTuple(
                tree=taa_close(phi_n, _join(t_n, r_tree)), coloring=phi_n,
                theta="pe", edge=f_n, delta=delta_n, gamma=gamma_n, v_n=v_n)
    state.tuples.append(row)
    assert_series_invariants(state)
    return StepOutcome("extended", row.theta)


def _find_revisit(state: SeriesState, t_n: TreeSequence, phi, boundary: dict):
    """The RE trigger: the last non-RE step was a PE whose color pair now runs
    a cycle through a tree boundary edge and back into that step's tree.
    Returns (edge, its in-end, delta_h, gamma_h) or None; `boundary` is
    t_n's `_colored_boundary` under phi."""
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
    for f, i in boundary.get(gamma_h, ()):
        v_n = t_n.vertices[i]
        # the walk leaves v_n on f, which has color gamma_h there
        edges, end = alternating_path(phi, v_n, gamma_h, delta_h)
        if end == v_n and _cycle_reaches(phi.graph, edges, v_n, t_n.vertex_set,
                                         t_h_vertices):
            return f, v_n, delta_h, gamma_h
    return None


def _cycle_reaches(G: Multigraph, edges, start, allowed, target) -> bool:
    """Walking the cycle `edges`, which leaves `start` and returns there,
    either way from `start` inside `allowed`, do we touch `target`?"""
    for walk in (edges, edges[::-1]):
        v = start
        for e in walk:
            if v in target:
                return True
            v = G.other_end(e, v)
            if v not in allowed:
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
    inside = base.vertex_set
    added = [(e, v) for e, v in zip(extra.edges, extra.vertices[1:])
             if v not in inside]
    return TreeSequence(base.edges + tuple(e for e, _ in added),
                        base.vertices + tuple(v for _, v in added))


def build_series(phi0: PartialColoring, eid: int) -> SeriesState:
    """Run the extension series from the closure of the uncolored root edge
    until the tree is strongly closed, as one ledger.

    phi0 must leave `eid` uncolored; other uncolored edges are simply
    invisible to the machinery. Each row is classified once, by
    `series_step`, whose last call finds the tree strongly closed. Every
    extending step grows the tree (one that does not raises
    SeriesInvariantError), so the series ends: a tree spanning its component
    has no boundary. A stuck step (SeriesStuck) ends the series with outcome
    "budget_exhausted" and its message as `stuck_reason`, keeping any row
    the step appended; a broken invariant (SeriesInvariantError) is raised.
    """
    if phi0.color_of(eid) is not None:
        raise ValueError("root edge must be uncolored")
    t1 = taa_close(phi0, TreeSequence.root(phi0.graph, eid))
    state = SeriesState(graph=phi0.graph, tuples=[SeriesTuple(tree=t1, coloring=phi0)])
    try:
        before = len(t1.vertices)
        while series_step(state).kind == "extended":
            if len(state.final_tree.vertices) <= before:
                raise SeriesInvariantError("series step failed to grow the tree\n"
                                           + state.to_ledger_json())
            before = len(state.final_tree.vertices)
    except SeriesStuck as exc:
        state.outcome = "budget_exhausted"
        state.stuck_reason = str(exc)
    return state
