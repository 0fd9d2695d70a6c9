"""Multigraph with stable edge identities, parallel edges, and subset queries."""

from __future__ import annotations


# Largest vertex count of the 2^n odd-subset scans: density.density and
# is_r_graph refuse larger graphs.
DENSITY_VERTEX_CAP = 16


class ScaleExceededError(Exception):
    """An exact enumeration was asked to run beyond its hard size cap."""


class ParseError(ValueError):
    """Malformed multigraph text; carries the 1-based offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class Multigraph:
    """Undirected multigraph on vertices 0..vertex_count-1.

    Edges carry stable integer identifiers, so parallel edges stay
    distinguishable and subgraphs keep the parent's ids. Self-loops are
    rejected at construction. Instances are immutable once built and safe
    to share; all mutation in this package happens on colorings.
    """

    __slots__ = ("vertex_count", "_ids", "_ends", "_incident")

    def __init__(self, vertex_count: int, edges):
        """Build from an iterable of (edge_id, u, v) triples."""
        if vertex_count < 0:
            raise ValueError("vertex_count must be non-negative")
        self.vertex_count = vertex_count
        ids = []
        ends = {}
        incident = [[] for _ in range(vertex_count)]
        for pos, (eid, u, v) in enumerate(edges):
            if not (0 <= u < vertex_count and 0 <= v < vertex_count):
                raise ValueError(f"edge {pos}: endpoint out of range: ({u}, {v})")
            if u == v:
                raise ValueError(f"edge {pos}: self-loop at vertex {u}")
            if eid in ends:
                raise ValueError(f"edge {pos}: duplicate edge id {eid}")
            ids.append(eid)
            ends[eid] = (u, v)
            incident[u].append(eid)
            incident[v].append(eid)
        self._ids = tuple(ids)
        self._ends = ends
        self._incident = tuple(tuple(sorted(eids)) for eids in incident)

    @classmethod
    def build(cls, vertex_count: int, endpoint_pairs) -> "Multigraph":
        """Build a multigraph from (u, v) pairs; ids are assigned in input order."""
        return cls(vertex_count, ((i, u, v) for i, (u, v) in enumerate(endpoint_pairs)))

    # -- basic accessors --------------------------------------------------

    @property
    def m(self) -> int:
        return len(self._ids)

    @property
    def edge_ids(self) -> tuple:
        return self._ids

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

    def max_multiplicity(self) -> int:
        counts = {}
        for u, v in self._ends.values():
            key = (u, v) if u < v else (v, u)
            counts[key] = counts.get(key, 0) + 1
        return max(counts.values(), default=0)

    def stats(self) -> tuple:
        """(n, m, max degree, max multiplicity); degree counts parallels."""
        return (self.vertex_count, self.m, self.max_degree(), self.max_multiplicity())

    # -- subset queries ----------------------------------------------------

    def induced_edge_count(self, members) -> int:
        """Number of edges with both ends in `members`, multiplicity included."""
        inside = self._checked_set(members)
        return sum(1 for (u, v) in self._ends.values() if u in inside and v in inside)

    def boundary(self, members) -> frozenset:
        """Edge ids with exactly one end in `members`."""
        inside = self._checked_set(members)
        return frozenset(e for e, (u, v) in self._ends.items()
                         if (u in inside) != (v in inside))

    def _checked_set(self, members) -> frozenset:
        s = frozenset(members)
        for v in s:
            if not (0 <= v < self.vertex_count):
                raise ValueError(f"vertex {v} out of range")
        return s

    # -- derived graphs ----------------------------------------------------

    def subgraph_of_edges(self, keep) -> "Multigraph":
        """Same vertices, only the edges in `keep`; ids are preserved."""
        keep = set(keep)
        return Multigraph(self.vertex_count,
                          ((e, *self._ends[e]) for e in self._ids if e in keep))

    def without_edge(self, eid: int) -> "Multigraph":
        if eid not in self._ends:
            raise ValueError(f"no edge {eid}")
        return self.subgraph_of_edges(set(self._ids) - {eid})

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

    def edge_masks(self) -> list:
        """Per-edge vertex bitmask (1<<u)|(1<<v), in edge-id order."""
        return [(1 << u) | (1 << v) for (u, v) in
                (self._ends[e] for e in self._ids)]

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        return (self.vertex_count == other.vertex_count
                and self._ids == other._ids
                and all(self._ends[e] == other._ends[e] for e in self._ids))

    def __repr__(self):
        return f"Multigraph(n={self.vertex_count}, m={self.m})"


def is_r_graph(G: Multigraph, r: int) -> bool:
    """True iff G is r-regular and every odd vertex subset has boundary >= r.

    Decided by enumeration over all odd subsets, so it refuses graphs larger
    than DENSITY_VERTEX_CAP vertices rather than guessing.
    """
    if r <= 0:
        raise ValueError("r must be positive")
    n = G.vertex_count
    if n == 0:
        return False
    if n > DENSITY_VERTEX_CAP:
        raise ScaleExceededError(
            f"odd-subset enumeration capped at {DENSITY_VERTEX_CAP} vertices, got {n}")
    if any(G.degree(v) != r for v in range(n)):
        return False
    from . import _kernels
    return _kernels.min_odd_cut(G.edge_masks(), n) >= r


# -- text edge-list format -------------------------------------------------
#
#   c optional comments
#   p multigraph <n> <m>
#   e <u> <v>          (m lines)

# Largest vertex count a header may declare: the graph allocates per-vertex
# tables from it before any edge is read.
MAX_PARSE_VERTICES = 1 << 20


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
