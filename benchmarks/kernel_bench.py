#!/usr/bin/env python3
"""Time the enumeration kernels of gscolor._kernels, the per-edge path and
the generators.

Each kernel is called directly on fixed inputs and the results are printed
as a small table. Every row is timed by one rule, `time_per_call`, and is
the best of ROUNDS timings, interleaved as in benchmarks/startup.py: each
round times every row once, in table order, so a machine that drifts
between speeds slows all rows alike. The `density` rows named `plain` and
`numpy` time the scan's two implementations at n = 10 and 11, either side
of `_kernels.PLAIN_SCAN_VERTICES`, up to which `density_scan` takes the
plain one; `ring(13,3)` and `ring(15,3)` are the odd multi-rings whose
scans set the latency tail of colorbench's tight_family. The `extend` rows
time `engine.color_at_k(G, Delta)` on the dense graphs: the direct step on every
edge, in one `coloring.direct_pass`, and `engine.extend` (whose chain swap
colors them here) on the few edges that resist it; on the last, many chain
walks fail, so `coloring.chain_step` takes most of its time. The
`interchange` rows time `coloring.interchange`, the one Kempe change, on
an alternating path of 1, 4 and 12 edges and on a 2-cycle; each call flips
the same edges back and forth at the same cost. The `closure` rows time
`color_at_k(ring(1001, 7), 14)` and `color_at_k(ring(2001, 3), 6)`, each
one color below the ring's ceil(density): the last edge resists, and the
series closes a tree over the whole ring, so `tashkinov.taa_close` dominates.
The `generate` rows time `exhaustive_connected` on the desk corpus
(5, 10) and the hunt's (5, 12) and (6, 10), colorbench's seed-1
`workloads.dense_multi(1)` and `ring(100001, 7)`, and give each one's peak
of traced memory (`tracemalloc`, numpy's blocks included), read in one
more, untimed run because tracing slows allocation. The multigraph rows
keep what they build until the run ends, so their peak includes the
graphs themselves:

    python3 benchmarks/kernel_bench.py
"""

import sys
import time
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from colorbench.workloads import dense_multi  # noqa: E402
from gscolor import Multigraph, PartialColoring, _kernels  # noqa: E402
from gscolor.coloring import interchange  # noqa: E402
from gscolor.density import _oracle_edge_order  # noqa: E402
from gscolor.engine import color_at_k  # noqa: E402
from gscolor.generators import (exhaustive_connected, petersen,  # noqa: E402
                                random_multigraph, ring, shannon_triangle)


ROUNDS = 5
SLICE = 0.01


def time_per_call(fn, args):
    """Mean seconds per call of fn(*args) in the first batch of 1, 2, 4, ...
    back-to-back calls to take SLICE seconds (one call, if one fills it)."""
    calls = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        seconds = time.perf_counter() - t0
        if seconds >= SLICE:
            return seconds / calls
        calls *= 2


# each row: (kernel, case, fn, args)

def feasible_rows():
    cases = [
        ("petersen k=3 (infeasible)", petersen(), 3),
        ("petersen k=4", petersen(), 4),
        ("shannon mu=4 k=11 (infeasible)", shannon_triangle(4), 11),
        ("random n=9 m=22 k=Delta", random_multigraph(9, 22, 5), None),
        # the exact fallback's tight rings, in the oracle's edge order
        ("ring(5,5) k=13", ring(5, 5), 13),
        ("ring(5,5) k=12 (infeasible)", ring(5, 5), 12),
        ("ring(7,3) k=7", ring(7, 3), 7),
    ]
    rows = []
    for name, G, k in cases:
        if k is None:
            k = G.max_degree()
        _, eu, ev = _oracle_edge_order(G)
        rows.append(("feasible", name, _kernels.chromatic_feasible,
                     (eu, ev, G.vertex_count, k)))
    return rows


SMALL_CASES = [("petersen (n=10)", petersen()),
               ("random n=14 m=24", random_multigraph(14, 24, 9)),
               ("random n=16 m=25", random_multigraph(16, 25, 11))]

# the sizes of colorbench's dense_multi instances, where each bound_report
# runs the scan once
DENSE_CASES = [(f"random n={n} m={m}", random_multigraph(n, m, n))
               for n, m in ((12, 600), (14, 1000), (16, 1600))]


# the odd multi-rings behind tight_family's slowest instances
RING_CASES = [(f"ring({n},3)", ring(n, 3)) for n in (13, 15)]


# the two scans either side of the cutoff
CUTOFF_CASES = [(f"random n={n} m={3 * n}", random_multigraph(n, 3 * n, n))
                for n in (10, 11)]


def density_rows():
    rows = [("density", name, _kernels.density_scan, (G.pair_counts(), G.vertex_count))
            for name, G in SMALL_CASES + DENSE_CASES + RING_CASES]
    for name, G in CUTOFF_CASES:
        for scan, fn in (("plain", _kernels._plain_density_scan),
                         ("numpy", _kernels._numpy_density_scan)):
            rows.append(("density", f"{scan} {name}", fn,
                         (G.pair_counts(), G.vertex_count)))
    return rows


# dense_multi's seed-1 instance dense[183]: m = 1,487, Delta = 263
CHAIN_CASE = ("random n=12 m=1487 (chains)", dense_multi(1)[183].graph)


def extend_rows():
    return [("extend", name, color_at_k, (G, G.max_degree()))
            for name, G in DENSE_CASES + [CHAIN_CASE]]


# whole (1, 2)-components: alternating paths in walk order, and a 2-cycle
FLIP_CASES = [(f"path of {length} edge{'s' * (length > 1)}",
               Multigraph.build(length + 1, [(i, i + 1) for i in range(length)]))
              for length in (1, 4, 12)] + [("2-cycle", Multigraph.build(2, [(0, 1), (0, 1)]))]


def interchange_rows():
    return [("interchange", name, interchange,
             (PartialColoring(G, 2, {e: 1 + e % 2 for e in G.edge_ids}),
              list(G.edge_ids), 1, 2))
            for name, G in FLIP_CASES]


# odd multi-rings above the density scan's vertex cap, one color short
CLOSURE_CASES = [("ring(1001,7) k=14", ring(1001, 7), 14),
                 ("ring(2001,3) k=6", ring(2001, 3), 6)]


def closure_rows():
    return [("closure", name, color_at_k, (G, k)) for name, G, k in CLOSURE_CASES]


GENERATE_CASES = [(5, 10), (5, 12), (6, 10)]


def build_corpus(n_max, m_max):
    for _ in exhaustive_connected(n_max, m_max):
        pass


MULTIGRAPH_CASES = [("random_multigraph x200 (dense_multi)", dense_multi, (1,)),
                    ("ring(100001, 7)", ring, (100001, 7))]


def generate_rows():
    return [("generate", f"exhaustive_connected({n_max}, {m_max})", build_corpus,
             (n_max, m_max)) for n_max, m_max in GENERATE_CASES] \
        + [("generate", name, fn, args) for name, fn, args in MULTIGRAPH_CASES]


def traced_peak(fn, args):
    tracemalloc.start()
    fn(*args)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    return peak


def main():
    rows = (feasible_rows() + density_rows() + extend_rows() + interchange_rows()
            + closure_rows() + generate_rows())
    best = [float("inf")] * len(rows)
    for _ in range(ROUNDS):
        for i, (_, _, fn, args) in enumerate(rows):
            best[i] = min(best[i], time_per_call(fn, args))
    width = max(len(r[1]) for r in rows)
    print(f"{'kernel':<12} {'case':<{width}} {'time (ms)':>12} {'peak (MB)':>10}")
    for (kernel, name, fn, args), seconds in zip(rows, best):
        mb = (f"{traced_peak(fn, args) / 2**20:10.2f}" if kernel == "generate"
              else f"{'-':>10}")
        print(f"{kernel:<12} {name:<{width}} {seconds * 1e3:12.6f} {mb}")


if __name__ == "__main__":
    main()
