"""Hot enumeration kernels: the exact edge-coloring feasibility search and
the best-odd-subset density scan.

The backtracking search runs on plain-python bitmasks (backtracking does
not vectorize). The density scan has two exact implementations, chosen by
vertex count inside `density_scan`: plain python up to PLAIN_SCAN_VERTICES
(10) vertices, vectorized numpy above. The `density` rows `plain` and
`numpy` of `benchmarks/stage_bench.py` time both at n = 10 and 11, and
numpy is faster at each: 17 us against the plain scan's 44 us at n = 10,
18 us against 77 us at n = 11 (median of three runs, a 2-core VM, Python
3.11, numpy 2.4). The plain scan still
takes n = 10, because a process that imports numpy pays about 150 ms for
it, the cost of some three thousand plain scans: so `color` and `report`
on Petersen, or on any graph of at most 10 vertices, run in a fresh
process without numpy. numpy is imported by the numpy scan's functions
when they run, so importing this module, the search and a scan of at most
10 vertices load no numpy.

The backtracking search (`colorings`) yields every proper coloring it
reaches, in lexicographic order over colorings whose colors first appear in
increasing order; under the parallel-edge rule, an edge parallel to an
earlier one takes a larger color than the last of them. Its first coloring,
which `chromatic_feasible` returns, is still the least canonical proper
coloring: if that one broke the rule, sorting the colors within each
parallel class and renaming them by first appearance would give a smaller
one. So the witness, and whether one exists, are those of the search
without the rule (`density.enumerate_colorings`), which lists every
ordering of each parallel class.

The plain scan builds |E(U)| for all 2^n masks by doubling over the
vertices: the masks whose highest vertex is v have the counts of the masks
below 1 << v plus the multiplicity from v into each, and that second list is
itself doubled over the lower vertices. Each list is packed into one
integer, one fixed-width field per mask, so that a doubling step is a few
whole-integer additions and shifts, not a python loop over the entries
(about a third faster at n = 8 to 10). A field has 4 bytes while the
multiplicities sum below 2^32, and 8 from there up to the gate's 2^40; no
count exceeds that sum, so no field carries into the next. The fields are
read back as a memoryview of the integer's bytes. Each odd size class
reads its counts through one cached `itemgetter`, and the classes are
compared by integer cross-multiplication.

The numpy scan splits the vertices into a low half L (the n // 2
lowest) and a high half H, and writes each subset as U = A | B with A in L
and B in H, so that its mask is B << lo | A. U is odd exactly when |A| and
|B| differ in parity, so the scan computes two blocks: rows B with |B| even
by columns A with |A| odd, then |B| odd by |A| even, rows and columns each
ascending, so that row-major order is ascending mask order. |E(U)| is
E_L[A] + E_H[B] + X[A, B]: the (weighted) edges inside each half and those
between them. A half gives a subset a 0/1 feature per vertex and per vertex
pair that it holds, and a constant 1. The multiplicities fill a weight core
that maps B's features to (B's edges to each vertex of L, E_H[B], 1) and
A's to (A's vertices, 1, E_L[A]); one product of the two gives a block's
counts. The feature tables have 2^(n/2 - 1) rows, not 2^n, and are cached
per n, with the cell of the core that each vertex pair (u < v) fills. The
products run in float64, so numpy hands them to BLAS (its int64 matmul is
a plain loop).

Both scans take only what `density_scan` lets through: 3 to 62 vertices and
multiplicities that sum to at least 1 and below 2^40. No graph nears that
sum, its edge count m: `--gen` caps m at 2^22, and 2^40 edges would take
some 10^14 bytes. Below it the numpy scan is exact. In each product it
forms, one factor is 0 or 1 and the other 1 or a sum of multiplicities, so
every count, and every partial sum BLAS forms, is an integer below 2^40,
exact in float64 in any order. A block divides each count by |U| - 1,
and that of a singleton (the only |U| < 3 it holds, count 0) by 1. Each
ratio cnt / den < 2^39 rounds by at most 2^-14, equal ones alike, and
unequal ones (even denominators up to 60) differ by at least 1 / 3480 >
2^-13, so `argmax` keeps their order and takes the block's first, lowest,
best mask, whose count is then recomputed from its row of each factor,
exact by the same argument. The blocks' bests are compared by integer
cross-multiplication, a tie going to the lower mask, as the plain scan
compares its size classes. Some odd set holds an edge (its pair and any
third vertex), so neither scan finds a best count of 0.
"""

import functools
import sys
from itertools import combinations, count
from operator import itemgetter

# No JIT path; kept because colorbench records it in every run.
USING_NUMBA = False

# The largest vertex count that density_scan hands to the plain-python scan.
PLAIN_SCAN_VERTICES = 10


# --------------------------------------------------------------------------
# exact k-edge-colorability (backtracking over edges in the given order)
#
# Colors are tried in increasing order, and two rules cut branches that only
# rename colors or permute parallel edges: a color may be used only if every
# smaller color already appears earlier in the edge order (color classes are
# introduced canonically, so the first edge always gets color 1), and an
# edge with prev[i] >= 0 must take a larger color than the edge at position
# prev[i] (see parallel_prev; -1 everywhere switches the rule off). Color c
# is bit c - 1 of a vertex's `used` mask, so the candidates at a node are
# one window mask and the next color is its lowest free bit. A vertex keeps
# enough free colors for its uncolored edges exactly when its degree is at
# most k, so that test runs once per call, in chromatic_feasible.

def colorings(eu, ev, prev, n, k):
    """Yield the colors of every proper coloring the search reaches, each as
    a new list, in the order it reaches them; one empty list when m == 0."""
    m = len(eu)
    used = [0] * n
    color = [0] * m
    maxc = [0] * (m + 1)
    i = 0
    while True:
        while 0 <= i < m:
            u, v, lo = eu[i], ev[i], color[i]
            if lo:
                b = 1 << (lo - 1)
                used[u] ^= b
                used[v] ^= b
            p = prev[i]
            if p >= 0 and color[p] > lo:
                lo = color[p]
            hi = min(maxc[i] + 1, k)
            free = ((1 << hi) - (1 << lo)) & ~(used[u] | used[v]) if lo < hi else 0
            if free:
                b = free & -free
                nxt = b.bit_length()
                used[u] |= b
                used[v] |= b
                color[i] = nxt
                maxc[i + 1] = max(maxc[i], nxt)
                i += 1
            else:
                color[i] = 0
                i -= 1
        if i < 0:
            return
        yield list(color)
        # resume at the last edge, from the color above its current one
        i -= 1


# --------------------------------------------------------------------------
# best odd subset: maximize 2*|E(U)| / (|U|-1) over odd |U| >= 3

@functools.lru_cache(maxsize=None)
def _parity_blocks(n):
    """The numpy scan's tables at n (module docstring), both parity blocks
    in each: B's features (block, row, feature), A's (block, feature,
    column), |U| - 1 (1 for a singleton), each block's masks B and A, the
    weight core with every weight 0 (H's part, then L's transposed, flat)
    and each vertex pair's (u < v) index in it. Built at the first scan of
    each n and shared read-only afterwards."""
    import numpy as np
    lo = n // 2
    halves = []
    for bits, odd_first in ((n - lo, 0), (lo, 1)):
        # B's subsets with |B| even, then odd, and A's odd, then even, so
        # that block k pairs the k-th of each; each part ascending
        masks = sorted(range(1 << bits), key=lambda m: (m.bit_count() + odd_first) % 2)
        # feature j of a subset is 1 when it holds every vertex of pattern j
        patterns = [1 << u for u in range(bits)]
        patterns += [a | b for a, b in combinations(patterns, 2)] + [0]
        by_block = np.array(masks).reshape(2, -1)
        halves.append((by_block, np.array(patterns), by_block.tolist()))
    (b, b_patterns, b_masks), (a, a_patterns, a_masks) = halves
    rows = ((b[:, :, None] & b_patterns) == b_patterns).astype(float)
    cols = ((a[:, None] & a_patterns[:, None]) == a_patterns[:, None]).astype(float)
    size_b, size_a = rows[:, :, :n - lo].sum(axis=2), cols[:, :lo].sum(axis=1)
    den = np.maximum(size_b[:, :, None] + size_a[:, None] - 1, 1.0)
    f_hi, f_lo, width = len(b_patterns), len(a_patterns), lo + 2
    split = f_hi * width
    core = np.zeros(split + width * f_lo)
    # the ones: H's empty pattern to column lo + 1, L's vertices to
    # themselves, L's empty pattern to row lo
    core.put([split - 1, split + (lo + 1) * f_lo - 1]
             + [split + u * (f_lo + 1) for u in range(lo)], 1)
    # combinations lists each half's pairs in the order of its pair features
    slot, low_pairs, high_pairs = {}, count(lo), count(n - lo)
    for u, v in combinations(range(n), 2):
        if v < lo:      # E_L: row lo + 1 of L's part, the pair's feature
            slot[u, v] = split + (lo + 1) * f_lo + next(low_pairs)
        elif u >= lo:   # E_H: the pair's feature row of H's part, column lo
            slot[u, v] = next(high_pairs) * width + lo
        else:           # across: v's feature row of H's part, column u
            slot[u, v] = (v - lo) * width + u
    for table in (rows, cols, den, core):
        table.flags.writeable = False
    return rows, cols, den, b_masks, a_masks, core, slot


def chromatic_feasible(eu, ev, n: int, k: int):
    """The first proper k-edge-coloring the search reaches, or None.

    Edges are tried in the given order. The result holds one color in 1..k
    per given edge, and is [] when there are no edges, so test it with
    `is not None`. It is the lexicographically least proper coloring whose
    colors first appear in increasing order (see the module docstring).
    """
    if k < 0:
        raise ValueError(f"negative color count {k}")
    degree = [0] * n
    for u, v in zip(eu, ev):
        degree[u] += 1
        degree[v] += 1
    if max(degree, default=0) > k:
        return None
    search = colorings(list(eu), list(ev), parallel_prev(eu, ev), n, k)
    return next(search, None)


def parallel_prev(eu, ev):
    """For each position i, the last earlier position with the same two ends
    as edge i, or -1: the search's parallel-edge rule."""
    prev = []
    last = {}
    for i, (u, v) in enumerate(zip(eu, ev)):
        pair = (u, v) if u < v else (v, u)
        prev.append(last.get(pair, -1))
        last[pair] = i
    return prev


def density_scan(pair_counts, n: int):
    """(edge count, |U|, mask) of the best odd subset; (0, 0, 0) if none.

    pair_counts maps each vertex pair (u, v), u < v, to its multiplicity, as
    `Multigraph.pair_counts` does; ties go to the lowest mask. ValueError
    unless n <= 62 and the sum is below 2^40, where both scans are exact
    (module docstring); n < 3 or a zero sum never reaches a scan or numpy.
    """
    if n > 62:
        raise ValueError("vertex bitmasks limited to 62 vertices")
    total = sum(pair_counts.values())
    if total >= 1 << 40:
        raise ValueError(f"multiplicities sum to {total}, not below 2^40")
    if n < 3 or total == 0:
        return 0, 0, 0
    if n <= PLAIN_SCAN_VERTICES:
        return _plain_density_scan(pair_counts, n)
    return _numpy_density_scan(pair_counts, n)


def _plain_density_scan(pair_counts, n):
    """density_scan in plain python, on its domain; exact integer arithmetic."""
    # no count exceeds the total, so a field that holds it never overflows
    width, field = (4, "I") if sum(pair_counts.values()) < 1 << 32 else (8, "Q")
    bits, ones = 8 * width, _ones(width, n)
    up = [[0] * v for v in range(n)]
    for (u, v), c in pair_counts.items():
        up[v][u] = c
    packed = 0
    for v, row in enumerate(up):
        into = 0
        for u, w in enumerate(row):
            into |= (into + w * ones[u] if w else into) << (bits << u)
        packed |= (packed + into) << (bits << v)
    counts = memoryview(packed.to_bytes(width << n, sys.byteorder)).cast(field)
    best_cnt, best_den, best_mask = 0, 1, 0
    for den, masks, read in _odd_size_classes(n):
        found = read(counts)
        cnt = max(found)
        # cnt / den against best_cnt / best_den; a tie goes to the lower mask
        lhs, rhs = cnt * best_den, best_cnt * den
        if lhs > rhs or lhs == rhs and masks[found.index(cnt)] < best_mask:
            best_cnt, best_den, best_mask = cnt, den, masks[found.index(cnt)]
    return best_cnt, best_den + 1, best_mask


@functools.lru_cache(maxsize=None)
def _ones(width, n):
    """For each u < n, the packed list of 2^u fields of `width` bytes that
    all hold 1."""
    one = (1).to_bytes(width, sys.byteorder)
    return tuple(int.from_bytes(one * (1 << u), sys.byteorder) for u in range(n))


@functools.lru_cache(maxsize=None)
def _odd_size_classes(n):
    """For each odd size s >= 3: (s - 1, its masks in ascending order, a
    function reading their counts from the mask-indexed list as a tuple)."""
    classes = []
    for size in range(3, n + 1, 2):
        masks = tuple(m for m in range(1 << n) if m.bit_count() == size)
        if len(masks) > 1:
            read = itemgetter(*masks)
        else:                           # itemgetter of one item is no tuple
            read = functools.partial(_read_one, masks[0])
        classes.append((size - 1, masks, read))
    return tuple(classes)


def _read_one(mask, counts):
    return (counts[mask],)


def _numpy_density_scan(pair_counts, n):
    """density_scan on the half split's two parity blocks, on its domain."""
    import numpy as np
    rows, cols, den, b_masks, a_masks, core, slot = _parity_blocks(n)
    core, pairs = core.copy(), len(pair_counts)
    core.put(np.fromiter(map(slot.__getitem__, pair_counts), np.intp, pairs),
             np.fromiter(pair_counts.values(), float, pairs))
    width = n // 2 + 2
    split = rows.shape[2] * width
    left = rows @ core[:split].reshape(-1, width)
    right = core[split:].reshape(width, -1) @ cols
    ratio = left @ right
    # exact, and the first best mask of each block: see the module docstring;
    # in place, since a second table costs more than recomputing two counts
    firsts = np.divide(ratio, den, out=ratio).reshape(2, -1).argmax(axis=1).tolist()
    best_cnt, best_den, best_mask = 0, 1, 0
    for block, first in enumerate(firsts):
        row, col = divmod(first, ratio.shape[2])
        c, d = int(left[block, row] @ right[block, :, col]), int(den[block, row, col])
        mask = b_masks[block][row] << n // 2 | a_masks[block][col]
        # a tie goes to the lower mask; a block whose best count is 0 loses
        lhs, rhs = c * best_den, best_cnt * d
        if lhs > rhs or lhs == rhs and mask < best_mask:
            best_cnt, best_den, best_mask = c, d, mask
    return best_cnt, best_den + 1, best_mask
