"""Multigraph whose edges are numbered by position, with parallel edges and
subset queries."""

from __future__ import annotations

from collections import Counter


class ScaleExceededError(Exception):
    """An exact enumeration was asked to run beyond its hard size cap."""


class ParseError(ValueError):
    """Malformed multigraph text; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Multigraph:
    """Undirected multigraph on vertices 0..vertex_count-1.

    Edge e is the e-th endpoint pair given, so edge ids are 0..m-1 and
    parallel edges stay distinguishable by position. Self-loops are
    rejected at construction. Instances are immutable once built and safe
    to share; all mutation in this package happens on colorings.
    """

    __slots__ = ("vertex_count", "_ends", "_incident")

    def __init__(self, vertex_count: int, endpoint_pairs):
        """Build from (u, v) pairs; edge ids are 0..m-1 in input order."""
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        self.vertex_count = vertex_count
        ends = []
        incident = [[] for _ in range(vertex_count)]
        for eid, (u, v) in enumerate(endpoint_pairs):
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge {eid}: endpoint out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"edge {eid}: self-loop at vertex {u}")
            ends.append((u, v))
            incident[u].append(eid)
            incident[v].append(eid)
        self._ends = tuple(ends)
        self._incident = tuple(map(tuple, incident))

    @classmethod
    def build(cls, vertex_count: int, endpoint_pairs) -> "Multigraph":
        """Build a multigraph from (u, v) pairs; edge e is the e-th pair."""
        return cls(vertex_count, endpoint_pairs)

    # -- basic accessors --------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._ends)

    @property
    def edge_ids(self) -> range:
        return range(len(self._ends))

    def endpoints(self, eid: int) -> tuple:
        return self._ends[eid]

    def other_end(self, eid: int, v: int) -> int:
        u, w = self._ends[eid]
        if v == u:
            return w
        if v == w:
            return u
        raise ValueError(f"vertex {v} is not an end of edge {eid}")

    def edges_at(self, v: int) -> tuple:
        return self._incident[v]

    def degree(self, v: int) -> int:
        return len(self._incident[v])

    def max_degree(self) -> int:
        return max((len(es) for es in self._incident), default=0)

    def pair_counts(self) -> dict:
        """Multiplicity of each joined vertex pair, keyed (u, v) with u < v."""
        return Counter((u, v) if u < v else (v, u) for u, v in self._ends)

    # -- subset queries ----------------------------------------------------

    def induced_edge_count(self, members) -> int:
        """Number of edges with both ends in `members`, multiplicity included."""
        inside = self._checked_set(members)
        return sum(1 for (u, v) in self._ends if u in inside and v in inside)

    def _checked_set(self, members) -> frozenset:
        s = frozenset(members)
        for v in s:
            if not (0 <= v < self.vertex_count):
                raise ValueError(f"vertex {v} out of range")
        return s

    # -- connectivity ------------------------------------------------------

    def is_connected(self) -> bool:
        """True for the empty graph and any graph whose vertices form one component."""
        if self.vertex_count <= 1:
            return True
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for e in self._incident[v]:
                w = self.other_end(e, v)
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.vertex_count

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        return (self.vertex_count == other.vertex_count
                and self._ends == other._ends)

    def __repr__(self):
        return f"Multigraph(n={self.vertex_count}, m={self.m})"


# -- text edge-list format -------------------------------------------------
#
#   c optional comments
#   p multigraph <n> <m>
#   e <u> <v>          (m lines)

# Largest vertex count a header may declare: the graph allocates per-vertex
# tables from it before any edge is read.
MAX_PARSE_VERTICES = 1 << 20

# Largest edge count a generator spec may ask for (`generators.from_spec`):
# a generator builds its whole pair list before anything else sees the graph.
MAX_GEN_EDGES = 1 << 22


def parse_multigraph(text: str) -> Multigraph:
    """Parse the text edge-list format; raises ParseError with a line number."""
    header = header_line = None
    pairs = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        fields = line.split()
        if fields[0] == "p":
            if header is not None:
                raise ParseError(lineno, "duplicate header")
            if len(fields) != 4 or fields[1] != "multigraph":
                raise ParseError(lineno, f"bad header: {line!r}")
            header_line = lineno
            try:
                header = (int(fields[2]), int(fields[3]))
            except ValueError:
                raise ParseError(lineno, f"bad header counts: {line!r}") from None
            if header[0] < 0 or header[1] < 0:
                raise ParseError(lineno, "negative count in header")
            if header[0] > MAX_PARSE_VERTICES:
                raise ParseError(lineno, f"vertex count {header[0]} above the "
                                         f"limit of {MAX_PARSE_VERTICES}")
        elif fields[0] == "e":
            if header is None:
                raise ParseError(lineno, "edge line before header")
            if len(fields) != 3:
                raise ParseError(lineno, f"bad edge line: {line!r}")
            try:
                u, v = int(fields[1]), int(fields[2])
            except ValueError:
                raise ParseError(lineno, f"bad edge endpoints: {line!r}") from None
            n = header[0]
            if not (0 <= u < n and 0 <= v < n):
                raise ParseError(lineno, f"endpoint out of range: ({u}, {v})")
            if u == v:
                raise ParseError(lineno, f"self-loop at vertex {u}")
            pairs.append((u, v))
        else:
            raise ParseError(lineno, f"unknown line type: {line!r}")
    if header is None:
        raise ParseError(1, "missing header")
    if len(pairs) != header[1]:
        raise ParseError(header_line,
                         f"header promises {header[1]} edges, found {len(pairs)}")
    return Multigraph.build(header[0], pairs)


def format_multigraph(G: Multigraph) -> str:
    """Serialize to the text edge-list format; bit-exact on round-trip."""
    lines = [f"p multigraph {G.vertex_count} {G.m}"]
    lines.extend(f"e {u} {v}" for (u, v) in (G.endpoints(e) for e in G.edge_ids))
    return "\n".join(lines) + "\n"
