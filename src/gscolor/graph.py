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
    rejected at construction. The graph stores its endpoint pairs and its
    vertex degrees, nothing per vertex beyond that: `edges_at(v)` is one
    pass over the edges. A pair given as a plain tuple is kept as that
    object, and any other pair (a list, a NamedTuple) as a new plain
    tuple, so a caller that passes one tuple for every parallel edge of a
    vertex pair has the graph store the pair once. Instances are immutable
    once built and safe to share; all mutation in this package happens on
    colorings.
    """

    __slots__ = ("vertex_count", "_ends", "_degrees")

    def __init__(self, vertex_count: int, endpoint_pairs):
        """Build from (u, v) pairs; edge ids are 0..m-1 in input order."""
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        self.vertex_count = vertex_count
        ends = []
        degrees = [0] * vertex_count
        for eid, pair in enumerate(endpoint_pairs):
            u, v = pair
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge {eid}: endpoint out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"edge {eid}: self-loop at vertex {u}")
            ends.append(pair if type(pair) is tuple else (u, v))
            degrees[u] += 1
            degrees[v] += 1
        self._ends = tuple(ends)
        self._degrees = tuple(degrees)

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
        """Ids of the edges at v, ascending; one pass over all the edges."""
        self._check_vertex(v)
        return tuple(e for e, (a, b) in enumerate(self._ends) if a == v or b == v)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self._degrees[v]

    def max_degree(self) -> int:
        return max(self._degrees, default=0)

    def pair_counts(self) -> Counter:
        """Multiplicity of each joined vertex pair keyed (u, v), u < v: a
        Counter of the stored endpoint tuples, (v, u) folded into (u, v)."""
        counts = Counter(self._ends)
        for u, v in [pair for pair in counts if pair[0] > pair[1]]:
            counts[v, u] = counts.pop((u, v)) + counts.get((v, u), 0)
        return counts

    # -- subset queries ----------------------------------------------------

    def induced_edge_count(self, members) -> int:
        """Number of edges with both ends in `members`, multiplicity included."""
        inside = frozenset(members)
        for v in inside:
            self._check_vertex(v)
        return sum(1 for (u, v) in self._ends if u in inside and v in inside)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.vertex_count):
            raise ValueError(f"vertex {v} out of range")

    # -- connectivity ------------------------------------------------------

    def is_connected(self) -> bool:
        """True for the empty graph and any graph whose vertices form one component."""
        return joins_all(self.vertex_count, self._ends)

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        return (self.vertex_count == other.vertex_count
                and self._ends == other._ends)

    def __repr__(self):
        return f"Multigraph(n={self.vertex_count}, m={self.m})"


def joins_all(vertex_count: int, pairs) -> bool:
    """True when the (u, v) pairs leave vertices 0..vertex_count-1 in at most
    one component; one union-find pass over the pairs."""
    parent = list(range(vertex_count))
    components = vertex_count
    for u, v in pairs:
        # walk both ends to their roots, halving the paths on the way
        while parent[u] != u:
            parent[u] = u = parent[parent[u]]
        while parent[v] != v:
            parent[v] = v = parent[parent[v]]
        if u != v:
            parent[u] = v
            components -= 1
    return components <= 1


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


def decimal_int(token: str) -> int:
    """The integer an ASCII decimal token (-?[0-9]+) spells; ValueError for any
    other token, such as the '+1', '1_0' and non-ASCII digits that int() takes."""
    digits = token[1:] if token.startswith("-") else token
    if digits.isascii() and digits.isdigit():
        return int(token)
    raise ValueError(f"not a decimal integer: {token!r}")


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
                header = (decimal_int(fields[2]), decimal_int(fields[3]))
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
                u, v = decimal_int(fields[1]), decimal_int(fields[2])
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
