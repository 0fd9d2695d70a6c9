"""Hot enumeration kernels, numba-jitted by default with a fallback path.

Three kernels dominate oracle runtime: the exact edge-coloring feasibility
search, the best-odd-subset density scan, and the minimum odd cut. The JIT
path compiles the loop implementations below with numba; setting
GSCOLOR_NO_NUMBA=1 (or numba failing to import) selects the fallback, which
is vectorized numpy for the two subset scans and plain-python bitmasks for
the backtracking search (backtracking does not vectorize).
benchmarks/kernel_bench.py times the two paths against each other.

The numpy density scan splits the vertices into a low half L (the n // 2
lowest) and a high half H, and writes each subset as U = A | B with A in L
and B in H. Then |E(U)| = E_L[A] + E_H[B] + X[A, B], where E_L and E_H count
the (weighted) edges inside each half and X = S_L W_LH S_H^T counts the edges
between them: S_L and S_H are the 0/1 subset-membership matrices of the
halves and W_LH holds the multiplicity of each pair across. The matrices
have 2^(n/2) rows, not 2^n, and are cached per n.
"""

import functools
import os

import numpy as np


def _numba_njit():
    if os.environ.get("GSCOLOR_NO_NUMBA", "").strip() not in ("", "0"):
        return None
    try:
        from numba import njit
    except ImportError:
        return None
    return njit


# --------------------------------------------------------------------------
# exact k-edge-colorability (backtracking over edges in the given order)
#
# Symmetry breaking: a color may be used only if every smaller color already
# appears earlier in the edge order, so color classes are introduced
# canonically (the first edge always gets color 1). Pruning: an endpoint must
# keep at least as many free colors as it has uncolored incident edges left.

def _feasible_loop(eu, ev, n, k):
    m = eu.shape[0]
    used = np.zeros(n, np.int64)
    cnt = np.zeros(n, np.int64)
    rem = np.zeros(n, np.int64)
    for i in range(m):
        rem[eu[i]] += 1
        rem[ev[i]] += 1
    color = np.zeros(m, np.int64)
    maxc = np.zeros(m + 1, np.int64)
    i = 0
    while 0 <= i < m:
        u = eu[i]
        v = ev[i]
        c = color[i]
        if c > 0:
            b = np.int64(1) << c
            used[u] ^= b
            used[v] ^= b
            cnt[u] -= 1
            cnt[v] -= 1
            rem[u] += 1
            rem[v] += 1
        limit = maxc[i] + 1
        if limit > k:
            limit = k
        nxt = 0
        cc = c + 1
        while cc <= limit:
            b = np.int64(1) << cc
            if (used[u] & b) == 0 and (used[v] & b) == 0:
                if (k - cnt[u] - 1) >= (rem[u] - 1) and (k - cnt[v] - 1) >= (rem[v] - 1):
                    nxt = cc
                    break
            cc += 1
        if nxt > 0:
            b = np.int64(1) << nxt
            used[u] |= b
            used[v] |= b
            cnt[u] += 1
            cnt[v] += 1
            rem[u] -= 1
            rem[v] -= 1
            color[i] = nxt
            mx = maxc[i]
            if nxt > mx:
                mx = nxt
            maxc[i + 1] = mx
            i += 1
        else:
            color[i] = 0
            i -= 1
    return i == m


def _feasible_py(eu, ev, n, k):
    # Same search as _feasible_loop, on plain ints.
    m = len(eu)
    used = [0] * n
    cnt = [0] * n
    rem = [0] * n
    for i in range(m):
        rem[eu[i]] += 1
        rem[ev[i]] += 1
    color = [0] * m
    maxc = [0] * (m + 1)
    i = 0
    while 0 <= i < m:
        u, v, c = eu[i], ev[i], color[i]
        if c:
            b = 1 << c
            used[u] ^= b
            used[v] ^= b
            cnt[u] -= 1
            cnt[v] -= 1
            rem[u] += 1
            rem[v] += 1
        limit = min(maxc[i] + 1, k)
        nxt = 0
        for cc in range(c + 1, limit + 1):
            b = 1 << cc
            if not ((used[u] | used[v]) & b):
                if (k - cnt[u] - 1) >= (rem[u] - 1) and (k - cnt[v] - 1) >= (rem[v] - 1):
                    nxt = cc
                    break
        if nxt:
            b = 1 << nxt
            used[u] |= b
            used[v] |= b
            cnt[u] += 1
            cnt[v] += 1
            rem[u] -= 1
            rem[v] -= 1
            color[i] = nxt
            maxc[i + 1] = max(maxc[i], nxt)
            i += 1
        else:
            color[i] = 0
            i -= 1
    return i == m


# --------------------------------------------------------------------------
# best odd subset: maximize 2*|E(U)| / (|U|-1) over odd |U| >= 3
#
# Edges come as distinct endpoint masks with their multiplicities as weights.
# Returns (edge count, |U|, vertex bitmask) of the first maximizer in
# ascending mask order; (0, 0, 0) when no odd subset contains an edge.

def _density_loop(emasks, weights, n):
    m = emasks.shape[0]
    best_c = np.int64(0)
    best_d = np.int64(1)
    best_s = 0
    best_mask = np.int64(0)
    total = np.int64(1) << n
    mask = np.int64(1)
    while mask < total:
        x = mask
        s = 0
        while x:
            x &= x - np.int64(1)
            s += 1
        if s >= 3 and s % 2 == 1:
            c = np.int64(0)
            for j in range(m):
                if (emasks[j] & mask) == emasks[j]:
                    c += weights[j]
            d = np.int64(s - 1)
            if c * best_d > best_c * d:
                best_c = c
                best_d = d
                best_s = s
                best_mask = mask
        mask += 1
    return best_c, best_s, best_mask


def _density_numpy(emasks, weights, n):
    # the half-split identity of the module docstring, in exact int64
    lo = n // 2
    s_lo, s_hi, odd, den = _half_split_tables(n)
    if odd.size == 0:
        return 0, 0, 0
    bits = (emasks[:, None] >> np.arange(n, dtype=np.int64)) & 1
    # pair_w[i, j], i < j: the weight of the vertex pair {i, j}
    pair_w = np.triu((bits * weights[:, None]).T @ bits, 1)
    e_lo = ((s_lo @ pair_w[:lo, :lo]) * s_lo).sum(axis=1)
    e_hi = ((s_hi @ pair_w[lo:, lo:]) * s_hi).sum(axis=1)
    cross = (s_hi @ pair_w[:lo, lo:].T) @ s_lo.T
    # row B, column A: the flat index B << lo | A is the subset mask
    cnt = (cross + e_hi[:, None] + e_lo[None, :]).ravel()[odd]
    # ratios of small ints compare exactly in float64; argmax takes the
    # first maximizer, matching the ascending-mask loop above
    i = int(np.argmax(cnt / den))
    if cnt[i] == 0:
        return 0, 0, 0
    return int(cnt[i]), int(den[i] + 1), int(odd[i])


@functools.lru_cache(maxsize=None)
def _half_split_tables(n):
    """Subset-membership matrices of both halves, odd subset masks, |U|-1.

    Built at the first scan of each n and shared read-only afterwards.
    """
    lo = n // 2
    s_lo = _membership(lo)
    s_hi = _membership(n - lo)
    size = (s_hi.sum(axis=1)[:, None] + s_lo.sum(axis=1)[None, :]).ravel()
    odd = np.flatnonzero((size >= 3) & (size % 2 == 1))
    den = size[odd] - 1
    for table in (s_lo, s_hi, odd, den):
        table.flags.writeable = False
    return s_lo, s_hi, odd, den


def _membership(bits):
    """The 2^bits x bits 0/1 matrix whose row a holds the bits of a."""
    return (np.arange(1 << bits, dtype=np.int64)[:, None]
            >> np.arange(bits, dtype=np.int64)) & 1


def _popcounts(masks, n):
    pc = np.zeros(masks.shape, dtype=np.int64)
    t = masks.copy()
    for _ in range(n):
        pc += t & 1
        t >>= 1
    return pc


# --------------------------------------------------------------------------
# minimum boundary size over all odd vertex subsets (including singletons
# and, for odd n, the full vertex set)

def _min_odd_cut_loop(emasks, n):
    m = emasks.shape[0]
    best = np.int64(m + 1)
    total = np.int64(1) << n
    mask = np.int64(1)
    while mask < total:
        x = mask
        s = 0
        while x:
            x &= x - np.int64(1)
            s += 1
        if s % 2 == 1:
            c = np.int64(0)
            for j in range(m):
                inside = emasks[j] & mask
                if inside != 0 and inside != emasks[j]:
                    c += 1
            if c < best:
                best = c
        mask += 1
    return best


def _min_odd_cut_numpy(emasks, n):
    masks = np.arange(1, 1 << n, dtype=np.int64)
    odd = masks[_popcounts(masks, n) % 2 == 1]
    cut = np.zeros(odd.size, dtype=np.int64)
    for em in emasks:
        inside = odd & em
        cut += (inside != 0) & (inside != em)
    return int(cut.min()) if odd.size else len(emasks) + 1


_njit = _numba_njit()
USING_NUMBA = _njit is not None

if USING_NUMBA:
    _feasible_jit = _njit(cache=True)(_feasible_loop)
    _density_jit = _njit(cache=True)(_density_loop)
    _min_odd_cut_jit = _njit(cache=True)(_min_odd_cut_loop)


def chromatic_feasible(eu, ev, n: int, k: int) -> bool:
    """Does a proper k-edge-coloring exist? Edges are tried in the given order."""
    if k < 0 or k > 62:
        raise ValueError(f"color count {k} outside supported range 0..62")
    if len(eu) == 0:
        return True
    if k == 0:
        return False
    if USING_NUMBA:
        return bool(_feasible_jit(np.asarray(eu, np.int64), np.asarray(ev, np.int64),
                                  n, k))
    return _feasible_py(list(eu), list(ev), n, k)


def density_scan(edge_masks, n: int):
    """(edge count, |U|, mask) of the best odd subset; (0, 0, 0) if none.

    Parallel edges share a mask, so the scan runs once per distinct vertex
    pair, weighted by its multiplicity.
    """
    if n > 62:
        raise ValueError("vertex bitmasks limited to 62 vertices")
    if n < 3:
        return 0, 0, 0
    em, weights = distinct_masks(edge_masks)
    if USING_NUMBA:
        c, s, mask = _density_jit(em, weights, n)
        return int(c), int(s), int(mask)
    return _density_numpy(em, weights, n)


def distinct_masks(edge_masks):
    """(distinct edge masks ascending, multiplicity of each), as int64 arrays."""
    em, weights = np.unique(np.asarray(edge_masks, np.int64), return_counts=True)
    return em, weights.astype(np.int64)


def min_odd_cut(edge_masks, n: int) -> int:
    """Minimum |boundary(X)| over odd-cardinality X; m+1 when n == 0."""
    if n > 62:
        raise ValueError("vertex bitmasks limited to 62 vertices")
    if n == 0:
        return len(edge_masks) + 1
    em = np.asarray(edge_masks, np.int64)
    if USING_NUMBA:
        return int(_min_odd_cut_jit(em, n))
    return _min_odd_cut_numpy(em, n)


# Both implementations of each kernel, for cross-checks and the benchmark.
IMPLEMENTATIONS = {
    "feasible": {"loop": _feasible_loop, "fallback": _feasible_py},
    "density": {"loop": _density_loop, "fallback": _density_numpy},
    "min_odd_cut": {"loop": _min_odd_cut_loop, "fallback": _min_odd_cut_numpy},
}
