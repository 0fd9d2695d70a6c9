"""Hot enumeration kernels: the exact edge-coloring feasibility search and
the best-odd-subset density scan.

The backtracking search runs on plain-python bitmasks (backtracking does
not vectorize). The density scan has two exact implementations, chosen by
vertex count inside `density_scan`: plain python up to PLAIN_SCAN_VERTICES
(10) vertices, vectorized numpy above. `benchmarks/kernel_bench.py` times
both at n = 10 and 11, and numpy is faster at each: 27 us against the
plain scan's 43 us at n = 10, 37 us against 94 us at n = 11 (one run, a
2-core VM, Python 3.11). The plain scan still takes n = 10, because a
process that imports numpy pays about 150 ms for it, the cost of some
three thousand plain scans: so `color` and `report` on Petersen, or on any
graph of at most 10 vertices, run in a fresh process without numpy. numpy
is imported by the numpy scan's functions when they run, so importing this
module, the search and a scan of at most 10 vertices load no numpy.

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
multiplicities sum below 2^32, and more above; no count exceeds that sum,
so no field carries into the next. The fields are read back as a
memoryview of the integer's bytes. Each odd size class reads its counts
through one cached `itemgetter`, and the classes are compared by integer
cross-multiplication, so the scan is exact at any multiplicity.

The numpy scan splits the vertices into a low half L (the n // 2
lowest) and a high half H, and writes each subset as U = A | B with A in L
and B in H. Then |E(U)| = E_L[A] + E_H[B] + X[A, B], where E_L and E_H count
the (weighted) edges inside each half and X = S_L W_LH S_H^T counts the edges
between them: S_L and S_H are the 0/1 subset-membership matrices of the
halves and W_LH holds the multiplicity of each pair across. The matrices
have 2^(n/2) rows, not 2^n, and are cached per n. The multiplicities come
in as a mapping from each joined vertex pair (u < v) to its count, which is
written straight into the upper triangle of the n x n weight matrix. The
products run in float64, so numpy hands them to BLAS (its int64 matmul is
a plain loop), and they stay exact: every entry is a sum of integer
multiplicities far below 2^53.
"""

import functools
import sys
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
# best odd subset: maximize 2*|E(U)| / (|U|-1) over odd |U| >= 3, with the
# multiplicity of each vertex pair (u, v), u < v, as W's upper triangle

def _subset_edge_counts(pair_counts, n):
    """|E(U)| for every vertex mask U, indexed by the mask."""
    # the half-split identity of the module docstring, in float64 that holds
    # every integer count exactly
    import numpy as np
    lo = n // 2
    s_lo, s_hi, s_lo_t, _, _ = _half_split_tables(n)
    ends = np.array(list(pair_counts), np.int64).reshape(-1, 2)
    pair_w = np.zeros((n, n))
    pair_w[ends[:, 0], ends[:, 1]] = list(pair_counts.values())
    e_lo = ((s_lo @ pair_w[:lo, :lo]) * s_lo).sum(axis=1)
    e_hi = ((s_hi @ pair_w[lo:, lo:]) * s_hi).sum(axis=1)
    counts = (s_hi @ pair_w[:lo, lo:].T) @ s_lo_t
    # in place: a fresh 2^n table per addition costs more than the products
    counts += e_hi[:, None]
    counts += e_lo[None, :]
    # row B, column A: the flat index B << lo | A is the subset mask
    return counts.ravel()


@functools.lru_cache(maxsize=None)
def _half_split_tables(n):
    """Subset-membership matrices of both halves as float64, the low half's
    transpose as its own C-contiguous table (a product with the transposed
    view is about ten times slower), odd subset masks, |U|-1.

    Built at the first scan of each n and shared read-only afterwards.
    """
    import numpy as np
    lo = n // 2
    s_lo = _membership(lo)
    s_hi = _membership(n - lo)
    size = (s_hi.sum(axis=1)[:, None] + s_lo.sum(axis=1)[None, :]).ravel()
    odd = np.flatnonzero((size >= 3) & (size % 2 == 1))
    den = size[odd] - 1
    s_lo, s_hi = s_lo.astype(np.float64), s_hi.astype(np.float64)
    s_lo_t = np.ascontiguousarray(s_lo.T)
    for table in (s_lo, s_hi, s_lo_t, odd, den):
        table.flags.writeable = False
    return s_lo, s_hi, s_lo_t, odd, den


def _membership(bits):
    """The 2^bits x bits 0/1 matrix whose row a holds the bits of a."""
    import numpy as np
    return (np.arange(1 << bits, dtype=np.int64)[:, None]
            >> np.arange(bits, dtype=np.int64)) & 1


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
    `Multigraph.pair_counts` does; ties go to the lowest mask.
    """
    if n > 62:
        raise ValueError("vertex bitmasks limited to 62 vertices")
    if n < 3:
        return 0, 0, 0
    if n <= PLAIN_SCAN_VERTICES:
        return _plain_density_scan(pair_counts, n)
    return _numpy_density_scan(pair_counts, n)


def _plain_density_scan(pair_counts, n):
    """density_scan in plain python, for 3 <= n; exact integer arithmetic."""
    # no count exceeds the total, so a field that holds it never overflows
    total = sum(pair_counts.values())
    width = 4 if total < 1 << 32 else max(8, (total.bit_length() + 7) // 8)
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
    raw = packed.to_bytes(width << n, sys.byteorder)
    if width in _FIELD_FORMATS:
        counts = memoryview(raw).cast(_FIELD_FORMATS[width])
    else:
        counts = [int.from_bytes(raw[i:i + width], sys.byteorder)
                  for i in range(0, len(raw), width)]
    best_cnt, best_den, best_mask = 0, 1, 0
    for den, masks, read in _odd_size_classes(n):
        found = read(counts)
        cnt = max(found)
        # cnt / den against best_cnt / best_den; a tie goes to the lower mask
        lhs, rhs = cnt * best_den, best_cnt * den
        if lhs > rhs or lhs == rhs and masks[found.index(cnt)] < best_mask:
            best_cnt, best_den, best_mask = cnt, den, masks[found.index(cnt)]
    if best_cnt == 0:
        return 0, 0, 0
    return best_cnt, best_den + 1, best_mask


# memoryview formats of the native unsigned fields of 4 and 8 bytes
_FIELD_FORMATS = {4: "I", 8: "Q"}


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
    """density_scan by the half-split products, for 3 <= n <= 62."""
    _, _, _, odd, den = _half_split_tables(n)
    cnt = _subset_edge_counts(pair_counts, n)[odd]
    # counts are exact integers far below 2^53 and denominators below n:
    # equal ratios divide to equal floats, and unequal ones differ by at
    # least 1/(n-1)^2, far above the rounding, so they keep their order;
    # argmax takes the first maximizer in ascending mask order
    i = int((cnt / den).argmax())
    if cnt[i] == 0:
        return 0, 0, 0
    return int(cnt[i]), int(den[i] + 1), int(odd[i])
