"""Named and random instance generators, plus the exhaustive desk corpus."""

from __future__ import annotations

import math
import random
from bisect import insort
from itertools import combinations, compress, islice, permutations, repeat

from .graph import MAX_GEN_EDGES, MAX_PARSE_VERTICES, Multigraph, decimal_int, joins_all


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
    pairs = [pair for pair in ((0, 1), (0, 2), (1, 2)) for _ in range(mu)]
    return Multigraph.build(3, pairs)


def ring(n: int, mu: int = 1) -> Multigraph:
    """Cycle on n vertices with mu parallel edges per cycle edge; the mu
    edges of a cycle pair share one endpoint tuple."""
    if n < 3 or mu < 1:
        raise ValueError("ring needs n >= 3 and mu >= 1")
    pairs = [pair for i in range(n) for pair in repeat((i, (i + 1) % n), mu)]
    return Multigraph.build(n, pairs)


def _nth_pair(n: int, i: int) -> tuple:
    """Item i of combinations(range(n), 2), found without the list: counted
    from the end, it lies in the r-th last row, which starts at vertex
    n - 2 - r and holds r + 1 pairs."""
    j = n * (n - 1) // 2 - 1 - i
    r = (math.isqrt(8 * j + 1) - 1) // 2
    return n - 2 - r, n - 1 - (j - r * (r + 1) // 2)


def _draws(rng: random.Random, count: int, m: int):
    """Yield m indices below count, drawn by the rule that
    `random_multigraph`'s docstring states."""
    getrandbits, k = rng.getrandbits, count.bit_length()
    for _ in range(m):
        r = getrandbits(k)
        while r >= count:
            r = getrandbits(k)
        yield r


def random_multigraph(n: int, m: int, seed: int, *, mu_max: int | None = None) -> Multigraph:
    """Uniform random endpoint pairs, optionally capped per-pair; deterministic.
    Parallel edges share one tuple. Uncapped, the pair list is built only
    when it has at most m pairs; with more, each drawn index is turned into
    its pair. Capped, the i-th open pair is the i-th pair once the full ones
    are skipped, found by bisecting the sorted full-pair indices. Neither
    holds a list longer than m, so memory is O(n + m) whatever n is.

    An index below a count c is c.bit_length() bits from the generator's
    `getrandbits`, drawn again while it is at least c. That is the rule by
    which `random.Random.choice` picks an item of a sequence of length c,
    so the graph is the one that choosing each pair from its candidates
    gives, without choice's two Python calls per edge. The draws are
    streamed to the graph, never kept in a list."""
    if m < 0:
        raise ValueError(f"edge count must be non-negative, got {m}")
    if n < 2 and m > 0:
        raise ValueError("need at least two vertices to place an edge")
    rng = random.Random(seed)
    if mu_max is None:
        count = n * (n - 1) // 2
        if count <= m:
            pairs = list(combinations(range(n), 2))
            return Multigraph.build(n, map(pairs.__getitem__, _draws(rng, count, m)))
        return Multigraph.build(n, map(_nth_pair, repeat(n), _draws(rng, count, m)))
    # each draw picks among the pairs below the cap, as a full filter would:
    # the i-th open pair's index is i plus the full pairs' indices below it
    count = n * (n - 1) // 2 if mu_max > 0 else 0
    full, drawn, pairs = [], {}, []
    draws = _draws(rng, count, m)   # a new stream whenever the open count falls
    for _ in range(m):
        if len(full) == count:
            raise ValueError("multiplicity cap leaves no room for more edges")
        i = next(draws)
        lo, hi = 0, len(full)
        while lo < hi:      # full[t] - t open pairs come before the full pair t
            mid = (lo + hi) // 2
            if full[mid] - mid <= i:
                lo = mid + 1
            else:
                hi = mid
        j = i + lo
        p, times = drawn.get(j) or (_nth_pair(n, j), 0)
        drawn[j] = p, times + 1
        if times + 1 == mu_max:
            insort(full, j)
            draws = _draws(rng, count - len(full), m)
        pairs.append(p)
    return Multigraph.build(n, pairs)


# Rows per block of candidate vectors, at each stage of making and filtering them.
SURVIVOR_BLOCK = 8192

# The most vertices the exhaustive corpus takes: the 15 pairs of 6 vertices
# fill 60 bits of an int64 key in base 16, and 21 pairs would not fit.
EXHAUSTIVE_N_CAP = 6


def _key_base(m_max: int) -> int:
    return max(16, m_max + 1)  # the key's digits: above every multiplicity, 16 or more


def _lex_blocks(length: int, budget: int, dtype):
    """Every vector of `length` non-negative entries with sum at most
    `budget`, in lexicographic order, in blocks of at most SURVIVOR_BLOCK
    rows: each head (a row of a block of first entries) is followed by the
    tails (rows of a table of last entries, built the same way: the longest
    within a block, or one entry) that fit the budget it leaves, and a block
    is cut from that sequence by searching the heads' running row counts."""
    import numpy as np

    if length == 0:
        yield np.zeros((1, 0), dtype)
        return
    tail = max([t for t in range(2, length) if math.comb(budget + t, t) <= SURVIVOR_BLOCK],
               default=1)
    table = (np.arange(budget + 1, dtype=dtype)[:, None] if length == 1
             else np.concatenate(list(_lex_blocks(tail, budget, dtype))))
    sums = table.sum(axis=1, dtype=np.int64)
    # the tails within a budget r are the rows of sum at most r, still in
    # order: fits[r] of them, stacked for r = 0, 1, ..., budget
    fits = np.cumsum(np.bincount(sums, minlength=budget + 1))
    tails = table[np.concatenate([np.flatnonzero(sums <= r) for r in range(budget + 1)])]
    stops = np.cumsum(fits)
    for heads in _lex_blocks(length - tail, budget, dtype):
        room = budget - heads.sum(axis=1, dtype=np.int64)
        ends = np.cumsum(fits[room])
        for start in range(0, int(ends[-1]), SURVIVOR_BLOCK):
            row = np.arange(start, min(start + SURVIVOR_BLOCK, int(ends[-1])))
            head = np.searchsorted(ends, row, side="right")
            # a head's rows end where the tails of its room end in `tails`
            yield np.column_stack([heads[head], tails[stops[room[head]] - ends[head] + row]])


def _canonical_survivors(n: int, m_max: int, pairs):
    """Multiplicity vectors over `pairs` (those of range(n)) with at most
    m_max edges, canonical under vertex relabeling, in lexicographic order.

    _lex_blocks makes them in blocks of the narrowest integer type that
    holds m_max. Each block is widened to int64 keys, one digit of base
    _key_base(m_max) per pair, so that the test against every relabeling
    vectorizes. numpy is imported here, not at module level, so that
    importing gscolor does not load it.
    """
    import numpy as np

    p = len(pairs)
    pair_index = {pr: i for i, pr in enumerate(pairs)}
    base = _key_base(m_max)
    # the key of a vector is its dot product with the digit place values
    place = np.array([base ** (p - 1 - i) for i in range(p)], np.int64)
    relabeled_places = []
    # the first permutation is the identity, which beats no vector
    for perm in islice(permutations(range(n)), 1, None):
        # relabeling moves entry i to position mapping[i]
        mapping = [pair_index[tuple(sorted((perm[u], perm[v])))] for u, v in pairs]
        relabeled_places.append(place[mapping])
    for block in _lex_blocks(p, m_max, np.min_scalar_type(m_max)):
        arr = block.astype(np.int64)
        base_key = arr @ place
        # a vector is dropped at the first relabeling that beats it
        for relabeled in relabeled_places:
            if not len(arr):
                break
            keep = arr @ relabeled >= base_key
            arr, base_key = arr[keep], base_key[keep]
        yield from map(tuple, arr.tolist())


def exhaustive_connected(n_max: int, m_max: int):
    """All connected multigraphs with n <= n_max and m <= m_max, one labeled
    representative per isomorphism class, in a deterministic order.
    ValueError when n_max < 1 or m_max < 0, when graphs of more than
    EXHAUSTIVE_N_CAP vertices would be enumerated, or when their canonicity
    keys would not fit an int64."""
    if n_max < 1 or m_max < 0:
        raise ValueError(f"exhaustive needs N >= 1 and M_MAX >= 0, "
                         f"got N = {n_max}, M_MAX = {m_max}")
    # a connected graph on n vertices has at least n - 1 edges
    n_top = min(n_max, m_max + 1)
    if n_top > EXHAUSTIVE_N_CAP:
        raise ValueError(f"exhaustive takes at most {EXHAUSTIVE_N_CAP} vertices, "
                         f"got min(N, M_MAX + 1) = {n_top}")
    p_top = n_top * (n_top - 1) // 2
    if _key_base(m_max) ** p_top >= 2 ** 63:
        # keys of p_top digits stay below 2**63 in bases below ceil(2 ** (63 / p_top))
        raise ValueError(f"exhaustive on {n_top} vertices takes M_MAX <= "
                         f"{math.ceil(2 ** (63 / p_top)) - 2}, got {m_max}")
    yield Multigraph.build(1, [])
    for n in range(2, n_top + 1):
        pairs = list(combinations(range(n), 2))
        for vec in _canonical_survivors(n, m_max, pairs):
            # survivors are least: if a vertex is isolated, vertex 0 is (its
            # pairs lead); else the joined pairs, once each, decide connectivity
            if any(vec[:n - 1]) and joins_all(n, compress(pairs, vec)):
                yield Multigraph.build(n, [pr for pr, c in zip(pairs, vec) for _ in range(c)])


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
