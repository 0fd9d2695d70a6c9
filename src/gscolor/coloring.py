"""Partial k-edge-colorings, Kempe chains, the direct pass and the chain step.

A coloring assigns colors 1..k to a subset of the edges so that adjacent
colored edges differ; uncolored edges are simply absent from every
bookkeeping structure, which is what lets the tree machinery run against a
coloring that still has edges waiting to be colored. Every Kempe change is
one in-place `interchange` of two colors on whole two-colored components.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Multigraph


class PartialColoring:
    """Proper partial assignment of colors 1..k to the edges of a multigraph.

    Every coloring is proper by construction: `assign` and `recolor` refuse a
    color outside 1..k or one already at an end of the edge; `_write` and
    `interchange` skip those checks for this module's steps, which know the
    result is proper. A result file loads through `assign` too, so it keeps
    only the proper part of its assignment.

    Besides the edge colors (`_color`), two per-vertex tables are maintained
    incrementally: the edge of each color at the vertex (`_at`, a dict
    keyed by color, so no table is sized from k) and a bitmask with bit c
    set when color c is present there (`_mask`). No table is kept per
    color, so a write costs O(1) whatever the vertex count. Edge ids must
    lie in 0..m-1. Values are cheaply clonable snapshots; one instance has
    a single writer.
    """

    __slots__ = ("graph", "k", "_color", "_at", "_mask")

    def __init__(self, graph: Multigraph, k: int, assignment=None):
        if k < 0:
            raise ValueError("k must be non-negative")
        self.graph = graph
        self.k = k
        self._color = {}
        self._at = [dict() for _ in range(graph.vertex_count)]
        self._mask = [0] * graph.vertex_count
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
        return pc

    # -- queries ------------------------------------------------------------

    def color_of(self, eid: int):
        """The edge's color, or None while uncolored."""
        return self._color.get(eid)

    def is_colored(self, eid: int) -> bool:
        return eid in self._color

    def is_total(self) -> bool:
        """Is every edge of the graph colored?"""
        return len(self._color) == self.graph.m

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
        mask = self._mask
        bit = 1 << color
        self._color[eid] = color
        self._at[u][color] = eid
        self._at[v][color] = eid
        mask[u] |= bit
        mask[v] |= bit

    def unassign(self, eid: int):
        """Uncolor the edge; KeyError when it is uncolored."""
        color = self._color.pop(eid)
        u, v = self.graph._ends[eid]
        del self._at[u][color]
        del self._at[v][color]
        self._mask[u] &= ~(1 << color)
        self._mask[v] &= ~(1 << color)

    def recolor(self, flips):
        """Apply (edge, new color) pairs in place; all listed edges are
        uncolored first, so they may trade colors; the exact fallback of
        `engine.extend` writes its coloring so. A list that `unassign` or
        `assign` rejects (an uncolored or repeated edge, a color out of
        range or clashing) raises with every edge back in its old color."""
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
    walked, once, for the messages: by vertex, then by the later edge's id.
    """
    colors = pc._color.values()
    if ((pc.graph is G or pc.graph == G)
            and (not colors or (set(map(type, colors)) == {int}
                                and 1 <= min(colors) and max(colors) <= pc.k))
            and sum(map(len, pc._at)) == 2 * len(colors)):
        return []
    out = []
    first = {}                                # (vertex, color) -> first edge
    repeats = {}                              # vertex -> its repeat messages
    for eid, ends in enumerate(G._ends):
        c = pc.color_of(eid)
        if c is None:
            continue
        if not (type(c) is int and 1 <= c <= pc.k):
            out.append(f"edge {eid}: color {c} outside 1..{pc.k}")
        for v in ends:
            seen = first.setdefault((v, c), eid)
            if seen != eid:
                repeats.setdefault(v, []).append(
                    f"vertex {v}: color {c} on edges {seen} and {eid}")
    for v in sorted(repeats):
        out += repeats[v]
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


def interchange(pc: PartialColoring, edges, a: int, b: int):
    """Swap colors a != b on `edges`, whole (a, b)-components of pc, in
    place and without checks; a second call on the same edges restores pc.

    One pass, in any edge order: each edge takes the other color at both
    ends. An end with no entry yet for the new color is a path end: its old
    color's entry goes and both its mask bits flip. An inner vertex has the
    entry from its other edge, unflipped, or flipped with its old entry left.
    """
    color, at, mask, ends = pc._color, pc._at, pc._mask, pc.graph._ends
    both = (1 << a) | (1 << b)
    for e in edges:
        old = color[e]
        new = color[e] = b if old == a else a
        for w in ends[e]:
            row = at[w]
            if new not in row:              # w is a path end
                del row[old]
                mask[w] ^= both
            row[new] = e


# -- the per-edge steps ------------------------------------------------------


def direct_pass(pc: PartialColoring, order):
    """Give each uncolored edge of `order` in turn the smallest color missing
    at both its ends, in place, and yield, uncolored, each edge whose ends
    miss no common color. Each write is `_write`'s, unchecked (the color is
    free there) and inlined, reusing the masks and the bit it has in hand.

    The caller may color a yielded edge, or change pc in place in any other
    way, before it asks for the next edge: each edge's missing colors are
    read when its turn comes.
    """
    color, at, mask, ends = pc._color, pc._at, pc._mask, pc.graph._ends
    full = (1 << (pc.k + 1)) - 2
    for eid in order:
        x, y = ends[eid]
        have_x, have_y = mask[x], mask[y]
        common = full & ~(have_x | have_y)
        if common:
            bit = common & -common
            c = bit.bit_length() - 1
            color[eid] = c
            at[x][c] = eid
            at[y][c] = eid
            mask[x] = have_x | bit
            mask[y] = have_y | bit
        else:
            yield eid


def chain_step(pc: PartialColoring, eid: int):
    """Color the uncolored edge eid = xy by swapping a chain from x between
    the ends' missing colors, in place; pc, or None with pc only read.

    For a missing at x and b missing at y, both ascending, the (a, b)-chain
    that leaves x on b either ends at y, or elsewhere and is flipped; then b
    is missing at both ends, and eid takes it. A b that x misses too needs
    no case of its own: its chain from x is empty, so eid takes b, and the
    twin skip below drops only colors present at x. A chain that reaches y
    is the very chain a scan from y would find and skip, so scanning from y
    can never succeed and is never done. x misses a, so its (a, b)-component is
    a path with x at one end: each pair is walked to its far end without
    keeping its edges, and x without a b-edge is the empty path, which ends
    at x. Only the pair that is flipped is walked again, by
    `alternating_path`, for its edges; `interchange` finds its ends as it flips.

    Most walks for one a fail, and many provably. In a proper coloring the
    ends of the (a, b)-paths are the vertices with exactly one of a and b;
    x is one when it has b. When every vertex but x and y has both or
    neither (b is a twin of a), x and y are the only ends, so x's path ends
    at y. Finding the twins among the b's still to try is one scan of the
    vertex masks. It runs at most once per a, after the failed walks for
    that a have taken n - 2 steps, as many as the scan visits vertices, so
    it never costs more than the walks before it; the twins are then
    dropped unwalked. The pair that is flipped, and so the coloring, is the
    one that walking every pair gives, and no table is kept for the skip.
    """
    at, mask, ends = pc._at, pc._mask, pc.graph._ends
    x, y = ends[eid]
    at_x = at[x]
    far_missing = pc.missing_mask(y)
    for a in mask_colors(pc.missing_mask(x)):
        todo = far_missing
        unpaid = len(mask) - 2      # failed steps until a vertex scan pays
        while todo:
            low = todo & -todo
            todo ^= low
            b = low.bit_length() - 1
            cur, here, there, steps = x, b, a, 0
            e = at_x.get(b)
            while e is not None:
                u, v = ends[e]
                cur = v if u == cur else u
                here, there = there, here
                e = at[cur].get(here)
                steps += 1
            if cur == y:
                if unpaid > 0:
                    unpaid -= steps
                    if unpaid <= 0:
                        twins = todo & mask[x]
                        for w, have in enumerate(mask):
                            if w != x and w != y:
                                twins &= have if have >> a & 1 else ~have
                        todo ^= twins
                continue
            interchange(pc, alternating_path(pc, x, b, a)[0], a, b)
            pc._write(eid, b)
            return pc
    return None


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
        if type(c) is not int or not 1 <= c <= pc.k:
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
    """Interchange the chain's two colors on exactly its edges, in a clone.

    The chain must be a chain of pc: it is re-derived and compared, so its
    edges are one whole component, which `interchange` flips. Swapping twice
    restores the original coloring.
    """
    a, b = sorted(chain.colors)
    current = kempe_chain(pc, chain.vertices[0], a, b)
    if frozenset(current.edges) != frozenset(chain.edges):
        raise ValueError("not a chain of this coloring")
    out = pc.clone()
    interchange(out, current.edges, a, b)
    return out
