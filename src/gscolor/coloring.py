"""Partial k-edge-colorings and Kempe chains.

A coloring assigns colors 1..k to a subset of the edges so that adjacent
colored edges differ; uncolored edges are simply absent from every
bookkeeping structure, which is what lets the tree machinery run against a
coloring that still has edges waiting to be colored.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Multigraph


class PartialColoring:
    """Proper partial assignment of colors 1..k to the edges of a multigraph.

    Every coloring is proper by construction: `assign` and `recolor` refuse a
    color outside 1..k or one already at an end of the edge, and `_write`,
    which skips those checks, is for callers that know the color is free.
    A result file loads through `assign` too, so it keeps only the proper
    part of its assignment.

    Three tables are maintained incrementally: per vertex, the edge of each
    color (`_at`) and a bitmask with bit c set when color c is present
    (`_mask`); per color, a bitmask with bit v set when the color is present
    at vertex v (`_present`, a dict keyed by color, so no table is sized
    from k). Edge ids must lie in 0..m-1. Values are cheaply clonable
    snapshots; one instance has a single writer.
    """

    __slots__ = ("graph", "k", "_color", "_at", "_mask", "_present")

    def __init__(self, graph: Multigraph, k: int, assignment=None):
        if k < 0:
            raise ValueError("k must be non-negative")
        self.graph = graph
        self.k = k
        self._color = {}
        self._at = [dict() for _ in range(graph.vertex_count)]
        self._mask = [0] * graph.vertex_count
        self._present = {}
        if assignment:
            for eid, c in assignment.items():
                if c is not None:
                    self.assign(eid, c)

    def clone(self) -> "PartialColoring":
        pc = PartialColoring.__new__(PartialColoring)
        pc.graph = self.graph
        pc.k = self.k
        pc._color = dict(self._color)
        pc._at = [dict(d) for d in self._at]
        pc._mask = list(self._mask)
        pc._present = dict(self._present)
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
        ends = self.graph._ends
        if not 0 <= eid < len(ends):
            raise ValueError(f"edge {eid} outside 0..{len(ends) - 1}")
        if type(color) is not int or not 1 <= color <= self.k:
            raise ValueError(f"color {color} outside 1..{self.k}")
        if eid in self._color:
            raise ValueError(f"edge {eid} already colored")
        u, v = ends[eid]
        if (self._mask[u] | self._mask[v]) & (1 << color):
            raise ValueError(f"color {color} already present at an end of edge {eid}")
        self._write(eid, color)

    def _write(self, eid: int, color: int):
        """`assign` without its checks: the caller knows that eid is an
        uncolored edge of the graph and that color, in 1..k, is missing at
        both its ends."""
        u, v = self.graph._ends[eid]
        mask, present = self._mask, self._present
        bit = 1 << color
        self._color[eid] = color
        self._at[u][color] = eid
        self._at[v][color] = eid
        mask[u] |= bit
        mask[v] |= bit
        present[color] = present.get(color, 0) | (1 << u) | (1 << v)

    def unassign(self, eid: int):
        """Uncolor the edge; KeyError when it is uncolored."""
        color = self._color.pop(eid)
        u, v = self.graph._ends[eid]
        del self._at[u][color]
        del self._at[v][color]
        self._mask[u] &= ~(1 << color)
        self._mask[v] &= ~(1 << color)
        self._present[color] &= ~((1 << u) | (1 << v))

    def recolor(self, flips):
        """Apply (edge, new color) pairs in place; all listed edges are
        uncolored first, so they may trade colors as a chain swap does.
        A list that `unassign` or `assign` rejects (an uncolored or repeated
        edge, a color out of range or clashing) raises with every edge back
        in its old color."""
        old = {e: self._color[e] for e, _ in flips}
        try:
            for e, _ in flips:
                self.unassign(e)
            for e, c in flips:
                self.assign(e, c)
        except (KeyError, ValueError):
            for e in old.keys() & self._color.keys():
                self.unassign(e)
            for e, c in old.items():
                self._write(e, c)
            raise

    def __eq__(self, other):
        if not isinstance(other, PartialColoring):
            return NotImplemented
        return (self.graph is other.graph and self.k == other.k
                and self._color == other._color)

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
    """Violation descriptions; empty iff pc is proper with colors in 1..k.

    A proper coloring is recognized off pc's tables in one pass: every color
    is an int in 1..k, and on a graph equal to G the per-vertex tables, one
    entry per distinct color at a vertex, hold two entries per colored edge
    exactly when no color repeats at a vertex. Only otherwise are G's edges
    walked for the messages.
    """
    colors = pc._color.values()
    if ((pc.graph is G or pc.graph == G)
            and (not colors or (set(map(type, colors)) == {int}
                                and 1 <= min(colors) and max(colors) <= pc.k))
            and sum(map(len, pc._at)) == 2 * len(colors)):
        return []
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

class KempeChain(NamedTuple):
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

    Requires that neither color appears on the boundary of `members`: the
    first such edge of one ascending pass over the edges is a ValueError,
    before pc is cloned. Edges meeting the set are untouched, so its
    missing sets are preserved.
    """
    inside = frozenset(members)
    flips = []
    for eid, (u, v) in enumerate(pc.graph._ends):
        c = pc.color_of(eid)
        if c in (alpha, beta):
            if (u in inside) != (v in inside):
                raise ValueError(f"color {c} on boundary edge {eid}")
            if u not in inside:
                flips.append((eid, beta if c == alpha else alpha))
    out = pc.clone()
    out.recolor(flips)
    return out
