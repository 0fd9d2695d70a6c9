"""Named and random instance generators, plus the exhaustive desk corpus."""

from __future__ import annotations

import math
import random
from itertools import combinations, islice, permutations

from .graph import MAX_GEN_EDGES, MAX_PARSE_VERTICES, Multigraph, decimal_int


def petersen() -> Multigraph:
    """Outer pentagon 0-4, inner pentagram 5-9, five spokes."""
    pairs = [(i, (i + 1) % 5) for i in range(5)]
    pairs += [(i, i + 5) for i in range(5)]
    pairs += [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Multigraph.build(10, pairs)


def shannon_triangle(mu: int) -> Multigraph:
    """Triangle with every pair joined by mu parallel edges; chi' = 3*mu."""
    if mu < 1:
        raise ValueError("mu must be positive")
    pairs = [(u, v) for (u, v) in ((0, 1), (0, 2), (1, 2)) for _ in range(mu)]
    return Multigraph.build(3, pairs)


def ring(n: int, mu: int = 1) -> Multigraph:
    """Cycle on n vertices with mu parallel edges per cycle edge."""
    if n < 3 or mu < 1:
        raise ValueError("ring needs n >= 3 and mu >= 1")
    pairs = [(i, (i + 1) % n) for i in range(n) for _ in range(mu)]
    return Multigraph.build(n, pairs)


def _nth_pair(n: int, i: int) -> tuple:
    """Item i of combinations(range(n), 2), found without the list: counted
    from the end, it lies in the r-th last row, which starts at vertex
    n - 2 - r and holds r + 1 pairs."""
    j = n * (n - 1) // 2 - 1 - i
    r = (math.isqrt(8 * j + 1) - 1) // 2
    return n - 2 - r, n - 1 - (j - r * (r + 1) // 2)


def random_multigraph(n: int, m: int, seed: int, *, mu_max: int | None = None) -> Multigraph:
    """Uniform random endpoint pairs, optionally capped per-pair; deterministic.
    Uncapped, no pair list is built, so the cost is O(n + m) whatever n is."""
    if m < 0:
        raise ValueError(f"edge count must be non-negative, got {m}")
    if n < 2 and m > 0:
        raise ValueError("need at least two vertices to place an edge")
    rng = random.Random(seed)
    if mu_max is None:
        # choice draws the same index from a range as from the pair list
        indices = range(n * (n - 1) // 2)
        return Multigraph.build(n, [_nth_pair(n, rng.choice(indices)) for _ in range(m)])
    # the pairs below the cap, in order: each draw sees what a full filter gives
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


# Vectors per call of the canonicity filter, which holds one block at a time.
SURVIVOR_BLOCK = 4096

# The most vertices the exhaustive corpus takes: the 15 pairs of 6 vertices
# fill 60 bits of the int64 nibble key, and 21 pairs would not fit.
EXHAUSTIVE_N_CAP = 6


def _canonical_survivors(n: int, m_max: int, pairs):
    """Multiplicity vectors over `pairs` (those of range(n)) with at most
    m_max edges, canonical under vertex relabeling, in lexicographic order.

    The vectors are made lazily from the bar positions of stars and bars,
    whose lexicographic order is the vectors' own, and are filtered
    SURVIVOR_BLOCK at a time. Each is packed into a nibble key
    (multiplicities stay below 16) so that the test against every
    relabeling vectorizes. numpy is imported here, not at module level, so
    that importing gscolor does not load it.
    """
    import numpy as np

    p = len(pairs)
    pair_index = {pr: i for i, pr in enumerate(pairs)}
    # the key of a vector is its dot product with the nibble place values
    place = np.int64(1) << (4 * np.arange(p - 1, -1, -1, dtype=np.int64))
    relabeled_places = []
    for perm in permutations(range(n)):
        # relabeling moves entry i to position mapping[i]
        mapping = [pair_index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
        relabeled_places.append(place[mapping])
    bars = combinations(range(m_max + p), p)
    while True:
        block = list(islice(bars, SURVIVOR_BLOCK))
        if not block:
            return
        # bar positions b give the vector b[i] - b[i-1] - 1, with b[-1] = -1
        arr = np.diff(np.array(block, np.int64), axis=1, prepend=-1) - 1
        base = arr @ place
        # a vector is dropped at the first relabeling that beats it
        for relabeled in relabeled_places:
            keep = arr @ relabeled >= base
            arr, base = arr[keep], base[keep]
        yield from map(tuple, arr.tolist())


def exhaustive_connected(n_max: int, m_max: int):
    """All connected multigraphs with n <= n_max and m <= m_max, one labeled
    representative per isomorphism class, in a deterministic order.
    ValueError when n_max < 1 or m_max < 0, or when graphs of more than
    EXHAUSTIVE_N_CAP vertices would be enumerated."""
    if n_max < 1 or m_max < 0:
        raise ValueError(f"exhaustive needs N >= 1 and M_MAX >= 0, "
                         f"got N = {n_max}, M_MAX = {m_max}")
    # a connected graph on n vertices has at least n - 1 edges
    n_top = min(n_max, m_max + 1)
    if n_top > EXHAUSTIVE_N_CAP:
        raise ValueError(f"exhaustive takes at most {EXHAUSTIVE_N_CAP} vertices, "
                         f"got min(N, M_MAX + 1) = {n_top}")
    yield Multigraph.build(1, [])
    for n in range(2, n_top + 1):
        pairs = list(combinations(range(n), 2))
        for vec in _canonical_survivors(n, m_max, pairs):
            if sum(vec) == 0:
                continue
            edge_pairs = [pr for pr, c in zip(pairs, vec) for _ in range(c)]
            G = Multigraph.build(n, edge_pairs)
            if all(G.degree(v) > 0 for v in range(n)) and G.is_connected():
                yield G


# name -> (builder, fewest and most integer arguments, its edge count)
_SPECS = {"petersen": (petersen, 0, 0, lambda: 15),
          "shannon": (shannon_triangle, 1, 1, lambda mu: 3 * mu),
          "ring": (ring, 1, 2, lambda n, mu=1: n * mu),
          "random": (random_multigraph, 3, 3, lambda n, m, seed: m)}


def spec_ints(name: str, args, fewest: int, most: int) -> list:
    """The arguments of generator `name` as integers. ValueError when there
    are fewer than `fewest` or more than `most`, or one is not an ASCII
    decimal integer."""
    if not fewest <= len(args) <= most:
        wanted = fewest if fewest == most else f"{fewest} to {most}"
        raise ValueError(f"{name} takes {wanted} argument(s), got {len(args)}")
    try:
        return [decimal_int(a) for a in args]
    except ValueError:
        raise ValueError(f"{name} arguments must be integers, got {args}") from None


def from_spec(tokens) -> Multigraph:
    """Build a named instance: petersen | shannon mu | ring n [mu] |
    random n m seed. ValueError on an unknown name, a missing or extra
    argument, one that is not an ASCII decimal integer, a ring or random
    vertex count above the graph-file limit MAX_PARSE_VERTICES, or an edge
    count above MAX_GEN_EDGES; both limits are checked before building."""
    name, *args = tokens
    if name not in _SPECS:
        raise ValueError(f"unknown generator {name!r}")
    build, fewest, most, edge_count = _SPECS[name]
    ints = spec_ints(name, args, fewest, most)
    if name in ("ring", "random") and ints[0] > MAX_PARSE_VERTICES:
        raise ValueError(f"vertex count {ints[0]} above the limit of "
                         f"{MAX_PARSE_VERTICES}")
    m = edge_count(*ints)
    if m > MAX_GEN_EDGES:
        raise ValueError(f"edge count {m} above the limit of {MAX_GEN_EDGES}")
    return build(*ints)
