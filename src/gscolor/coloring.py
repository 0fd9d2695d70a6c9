"""Partial k-edge-colorings, Kempe chains, and vertex-set predicates.

A coloring assigns colors 1..k to a subset of the edges so that adjacent
colored edges differ; uncolored edges are simply absent from every
bookkeeping structure, which is what lets the tree machinery run against a
coloring that still has edges waiting to be colored.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Multigraph


class PartialColoring:
    """Proper partial assignment of colors 1..k to the edges of a multigraph.

    Per-vertex color tables, and a per-vertex bitmask with bit c set when
    color c is present, are maintained incrementally; with debug=True they
    are re-derived from scratch and cross-checked after every mutation.
    Values are cheaply clonable snapshots; one instance has a single writer.
    """

    __slots__ = ("graph", "k", "_color", "_at", "_mask", "debug")

    def __init__(self, graph: Multigraph, k: int, assignment=None, *, debug=False):
        if k < 0:
            raise ValueError("k must be non-negative")
        self.graph = graph
        self.k = k
        self._color = {}
        self._at = [dict() for _ in range(graph.vertex_count)]
        self._mask = [0] * graph.vertex_count
        self.debug = debug
        if assignment:
            for eid, c in assignment.items():
                if c is not None:
                    self.assign(eid, c)

    @classmethod
    def unchecked(cls, graph: Multigraph, k: int, assignment) -> "PartialColoring":
        """Build without properness enforcement, for validating untrusted data.

        Violations stay representable so `validate` can report them; the
        per-vertex tables keep the last edge seen per color. Only colors in
        1..k enter the bitmasks, so a huge or non-integer color from an
        untrusted file never becomes a shift count.
        """
        pc = cls(graph, k)
        for eid, c in assignment.items():
            if c is None:
                continue
            pc._color[eid] = c
            for w in graph.endpoints(eid):
                pc._at[w][c] = eid
                if _in_range(c, k):
                    pc._mask[w] |= 1 << c
        return pc

    def clone(self) -> "PartialColoring":
        pc = PartialColoring.__new__(PartialColoring)
        pc.graph = self.graph
        pc.k = self.k
        pc._color = dict(self._color)
        pc._at = [dict(d) for d in self._at]
        pc._mask = list(self._mask)
        pc.debug = self.debug
        return pc

    # -- queries ------------------------------------------------------------

    def color_of(self, eid: int):
        """The edge's color, or None while uncolored."""
        return self._color.get(eid)

    def is_colored(self, eid: int) -> bool:
        return eid in self._color

    @property
    def uncolored_edges(self) -> frozenset:
        return frozenset(e for e in self.graph.edge_ids if e not in self._color)

    def missing_mask(self, v: int) -> int:
        """Bitmask of the colors in 1..k on no colored edge at v (bit c)."""
        return ((1 << (self.k + 1)) - 2) & ~self._mask[v]

    def missing(self, v: int) -> frozenset:
        """Colors in 1..k that appear on no colored edge at v."""
        return frozenset(mask_colors(self.missing_mask(v)))

    def missing_union(self, vertices) -> frozenset:
        mask = 0
        for v in vertices:
            mask |= self.missing_mask(v)
        return frozenset(mask_colors(mask))

    def edge_at(self, v: int, color: int):
        """The edge of that color at v, or None."""
        return self._at[v].get(color)

    def colors_on(self, eids) -> frozenset:
        """Colors appearing on the colored edges among `eids`."""
        return frozenset(self._color[e] for e in eids if e in self._color)

    # -- mutation -----------------------------------------------------------

    def assign(self, eid: int, color: int):
        if not (1 <= color <= self.k):
            raise ValueError(f"color {color} outside 1..{self.k}")
        if eid in self._color:
            raise ValueError(f"edge {eid} already colored")
        u, v = self.graph.endpoints(eid)
        bit = 1 << color
        if (self._mask[u] | self._mask[v]) & bit:
            raise ValueError(f"color {color} already present at an end of edge {eid}")
        self._color[eid] = color
        self._at[u][color] = eid
        self._at[v][color] = eid
        self._mask[u] |= bit
        self._mask[v] |= bit
        if self.debug:
            self._check_consistency()

    def unassign(self, eid: int):
        color = self._color.pop(eid)
        u, v = self.graph.endpoints(eid)
        del self._at[u][color]
        del self._at[v][color]
        if _in_range(color, self.k):
            self._mask[u] &= ~(1 << color)
            self._mask[v] &= ~(1 << color)
        if self.debug:
            self._check_consistency()

    def recolor(self, flips):
        """Apply (edge, new color) pairs in place; all listed edges are
        uncolored first, so they may trade colors as a chain swap does."""
        for e, _ in flips:
            self.unassign(e)
        for e, c in flips:
            self.assign(e, c)

    def _check_consistency(self):
        rebuilt = [dict() for _ in range(self.graph.vertex_count)]
        masks = [0] * self.graph.vertex_count
        for eid, c in self._color.items():
            for w in self.graph.endpoints(eid):
                if c in rebuilt[w]:
                    raise AssertionError(f"improper: color {c} twice at vertex {w}")
                rebuilt[w][c] = eid
                masks[w] |= 1 << c
        if rebuilt != self._at:
            raise AssertionError("incremental color tables diverged from assignment")
        if masks != self._mask:
            raise AssertionError("incremental color masks diverged from assignment")

    def __eq__(self, other):
        if not isinstance(other, PartialColoring):
            return NotImplemented
        return (self.graph is other.graph and self.k == other.k
                and self._color == other._color)

    def signature(self) -> tuple:
        """Hashable identity of the assignment (for dedup in searches)."""
        return (self.k, tuple(sorted(self._color.items())))

    def __repr__(self):
        return f"PartialColoring(k={self.k}, colored={len(self._color)}/{self.graph.m})"


def _in_range(c, k: int) -> bool:
    """Is c an integer color in 1..k? (bool is not a color)"""
    return type(c) is int and 1 <= c <= k


def mask_colors(mask: int):
    """The colors whose bits are set in mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def validate(G: Multigraph, pc: PartialColoring) -> list:
    """Violation descriptions; empty iff pc is proper with colors in 1..k."""
    out = []
    for eid in G.edge_ids:
        c = pc.color_of(eid)
        if c is not None and not _in_range(c, pc.k):
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


# -- Kempe chains ------------------------------------------------------------

@dataclass(frozen=True)
class KempeChain:
    """Maximal two-colored component: an alternating path or even cycle.

    For a path, vertices runs end to end and end_vertices has both ends.
    A bare vertex missing both colors yields the empty chain anchored there
    (no edges, end_vertices just the anchor). Cycles carry no ends; their
    vertex list starts at the smallest vertex.
    """
    colors: frozenset
    kind: str                 # "path" | "cycle"
    edges: tuple
    vertices: tuple
    end_vertices: tuple

    def __len__(self):
        return len(self.edges)


def alternating_path(pc: PartialColoring, v: int, first: int, second: int) -> tuple:
    """(edges, end) of the walk leaving v on color `first`, then alternating.

    The walk stops at a vertex where the next color is absent, or on coming
    back to v, which closes a cycle (end is then v). With no `first`-colored
    edge at v it is ([], v).
    """
    at = pc._at
    ends = pc.graph._ends
    edges = []
    cur = v
    e = at[v].get(first)
    while e is not None:
        edges.append(e)
        a, b = ends[e]
        cur = b if a == cur else a
        if cur == v:
            break
        first, second = second, first
        e = at[cur].get(first)
    return edges, cur


def _path_vertices(graph: Multigraph, v: int, edges) -> list:
    """The vertices of the walk from v along `edges`, v included."""
    verts = [v]
    for e in edges:
        verts.append(graph.other_end(e, verts[-1]))
    return verts


def kempe_chain(pc: PartialColoring, v: int, alpha: int, beta: int) -> KempeChain:
    """The maximal (alpha, beta)-chain through v."""
    if alpha == beta:
        raise ValueError("chain colors must differ")
    for c in (alpha, beta):
        if not (1 <= c <= pc.k):
            raise ValueError(f"color {c} outside 1..{pc.k}")
    colors = frozenset((alpha, beta))
    starts = [c for c in (alpha, beta) if c in pc._at[v]]
    if not starts:
        return KempeChain(colors, "path", (), (v,), (v,))
    other = {alpha: beta, beta: alpha}
    edges, end = alternating_path(pc, v, starts[0], other[starts[0]])
    verts = _path_vertices(pc.graph, v, edges)
    if end == v:
        return _canonical_cycle(pc, colors, edges, verts[:-1])
    if len(starts) == 2:
        edges2, _ = alternating_path(pc, v, starts[1], other[starts[1]])
        verts2 = _path_vertices(pc.graph, v, edges2)
        edges = edges2[::-1] + edges
        verts = verts2[::-1] + verts[1:]
    return _canonical_path(colors, edges, verts)


def _canonical_path(colors, edges, verts):
    if verts[0] > verts[-1]:
        edges = list(reversed(edges))
        verts = list(reversed(verts))
    return KempeChain(colors, "path", tuple(edges), tuple(verts),
                      (verts[0], verts[-1]))


def _canonical_cycle(pc, colors, edges, verts):
    # rotate to the smallest vertex, orient toward its smaller-id edge
    i = verts.index(min(verts))
    verts = verts[i:] + verts[:i]
    edges = edges[i:] + edges[:i]
    back = pc.edge_at(verts[0], next(iter(colors - {pc.color_of(edges[0])})))
    if back is not None and back < edges[0]:
        verts = [verts[0]] + list(reversed(verts[1:]))
        edges = list(reversed(edges))
    return KempeChain(colors, "cycle", tuple(edges), tuple(verts), ())


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


def kempe_swap(pc: PartialColoring, chain: KempeChain) -> PartialColoring:
    """Interchange the chain's two colors on exactly its edges.

    The chain must be a chain of pc (re-derived and compared); swapping
    twice restores the original coloring.
    """
    anchor = chain.vertices[0]
    a, b = sorted(chain.colors)
    current = kempe_chain(pc, anchor, a, b)
    if frozenset(current.edges) != frozenset(chain.edges):
        raise ValueError("not a chain of this coloring")
    out = pc.clone()
    out.recolor([(e, b if pc.color_of(e) == a else a) for e in chain.edges])
    return out


def swap_outside(pc: PartialColoring, members, alpha: int, beta: int) -> PartialColoring:
    """Interchange alpha and beta on every edge disjoint from `members`.

    Requires that neither color appears on the boundary of `members`; edges
    meeting the set are untouched, so its missing sets are preserved.
    """
    inside = frozenset(members)
    for e in sorted(pc.graph.boundary(inside)):
        if pc.color_of(e) in (alpha, beta):
            raise ValueError(f"color {pc.color_of(e)} on boundary edge {e}")
    out = pc.clone()
    flips = []
    for eid in pc.graph.edge_ids:
        c = pc.color_of(eid)
        if c in (alpha, beta):
            u, v = pc.graph.endpoints(eid)
            if u not in inside and v not in inside:
                flips.append((eid, beta if c == alpha else alpha))
    out.recolor(flips)
    return out


# -- set predicates -----------------------------------------------------------

def is_elementary(pc: PartialColoring, members) -> bool:
    """Missing sets over the vertex set are pairwise disjoint."""
    seen = set()
    for v in members:
        miss = pc.missing(v)
        if seen & miss:
            return False
        seen |= miss
    return True


def is_closed(pc: PartialColoring, members) -> bool:
    """No color missing in the set appears on its boundary."""
    boundary_colors = pc.colors_on(pc.graph.boundary(members))
    return not (boundary_colors & pc.missing_union(members))


def is_strongly_closed(pc: PartialColoring, members) -> bool:
    """Closed, and the colored boundary edges carry pairwise distinct colors."""
    boundary = pc.graph.boundary(members)
    colors = [pc.color_of(e) for e in boundary if pc.is_colored(e)]
    if len(colors) != len(set(colors)):
        return False
    return not (set(colors) & pc.missing_union(members))


def defective_colors(pc: PartialColoring, members) -> frozenset:
    """Colors appearing on at least two boundary edges of the set."""
    counts = {}
    for e in pc.graph.boundary(members):
        c = pc.color_of(e)
        if c is not None:
            counts[c] = counts.get(c, 0) + 1
    return frozenset(c for c, cnt in counts.items() if cnt >= 2)


# -- stable colorings ----------------------------------------------------------

def _tree_vertices(tree) -> tuple:
    verts = getattr(tree, "vertices", tree)
    return tuple(verts)


def is_stable(pi: PartialColoring, tree, phi: PartialColoring, *,
              strengthened: bool = False) -> bool:
    """Does pi preserve phi around the tree, in the tree's missing colors?

    Condition (i): every edge incident to the tree whose phi-color lies in
    missing(tree) keeps its color; condition (ii): missing sets agree on
    every tree vertex. With strengthened=True, (i) additionally protects
    edges whose *pi*-color lies in that set, which accepts exactly the same
    colorings (checked as a property test).
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
        if pc is None:
            continue
        hit = pc in protected or (strengthened and pi.color_of(e) in protected)
        if hit and pi.color_of(e) != pc:
            return False
    return True
