"""Named and random instance generators, plus the exhaustive desk corpus."""

from __future__ import annotations

import random
from itertools import combinations, permutations

import numpy as np

from .graph import Multigraph


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


def random_multigraph(n: int, m: int, seed: int, *, mu_max: int | None = None) -> Multigraph:
    """Uniform random endpoint pairs, optionally capped per-pair; deterministic."""
    if n < 2 and m > 0:
        raise ValueError("need at least two vertices to place an edge")
    rng = random.Random(seed)
    all_pairs = list(combinations(range(n), 2))
    counts = {p: 0 for p in all_pairs}
    pairs = []
    for _ in range(m):
        avail = [p for p in all_pairs if mu_max is None or counts[p] < mu_max]
        if not avail:
            raise ValueError("multiplicity cap leaves no room for more edges")
        p = rng.choice(avail)
        counts[p] += 1
        pairs.append(p)
    return Multigraph.build(n, pairs)


def _canonical_survivors(n: int, m_max: int):
    """Multiplicity vectors over vertex pairs, canonical under vertex relabeling.

    Vectors are packed into nibble keys (multiplicities stay below 16) so the
    120-permutation canonicity test vectorizes.
    """
    pairs = list(combinations(range(n), 2))
    p = len(pairs)
    pair_index = {pr: i for i, pr in enumerate(pairs)}

    vectors = []
    vec = [0] * p

    def emit(i, left):
        if i == p:
            vectors.append(tuple(vec))
            return
        for c in range(left + 1):
            vec[i] = c
            emit(i + 1, left - c)
        vec[i] = 0

    emit(0, m_max)
    arr = np.array(vectors, dtype=np.int64)

    shift = np.int64(4) * np.arange(p - 1, -1, -1, dtype=np.int64)

    def keys(mat):
        return (mat << shift).sum(axis=1)

    base = keys(arr)
    keep = np.ones(len(arr), dtype=bool)
    for perm in permutations(range(n)):
        mapping = [0] * p
        for i, (u, v) in enumerate(pairs):
            a, b = perm[u], perm[v]
            mapping[i] = pair_index[(a, b) if a < b else (b, a)]
        permuted = np.empty_like(arr)
        permuted[:, mapping] = arr
        keep &= keys(permuted) >= base
    return [vectors[i] for i in np.nonzero(keep)[0]], pairs


def exhaustive_connected(n_max: int, m_max: int):
    """All connected multigraphs with n <= n_max and m <= m_max, one labeled
    representative per isomorphism class, in a deterministic order.
    ValueError when n_max < 1 or m_max < 0."""
    if n_max < 1 or m_max < 0:
        raise ValueError(f"exhaustive needs N >= 1 and M_MAX >= 0, "
                         f"got N = {n_max}, M_MAX = {m_max}")
    yield Multigraph.build(1, [])
    for n in range(2, n_max + 1):
        survivors, pairs = _canonical_survivors(n, m_max)
        for vec in survivors:
            if sum(vec) == 0:
                continue
            edge_pairs = [pr for pr, c in zip(pairs, vec) for _ in range(c)]
            G = Multigraph.build(n, edge_pairs)
            if all(G.degree(v) > 0 for v in range(n)) and G.is_connected():
                yield G


# name -> (builder, fewest and most integer arguments)
_SPECS = {"petersen": (petersen, 0, 0), "shannon": (shannon_triangle, 1, 1),
          "ring": (ring, 1, 2), "random": (random_multigraph, 3, 3)}


def from_spec(tokens) -> Multigraph:
    """Build a named instance: petersen | shannon mu | ring n [mu] |
    random n m seed. ValueError on an unknown name, a missing or extra
    argument, or one that is not an integer."""
    name, *args = tokens
    if name not in _SPECS:
        raise ValueError(f"unknown generator {name!r}")
    build, fewest, most = _SPECS[name]
    if not fewest <= len(args) <= most:
        wanted = fewest if fewest == most else f"{fewest} to {most}"
        raise ValueError(f"{name} takes {wanted} argument(s), got {len(args)}")
    try:
        ints = [int(a) for a in args]
    except ValueError:
        raise ValueError(f"{name} arguments must be integers, got {args}") from None
    return build(*ints)
