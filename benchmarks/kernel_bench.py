#!/usr/bin/env python3
"""Time the enumeration kernels of gscolor._kernels, the per-edge path and
the generators.

Each kernel is called directly on fixed inputs and the results are printed
as a small table, each row the best of ROUNDS timings. The rows are
interleaved as in benchmarks/startup.py: each round times every row once,
in table order, so that a machine that drifts between speeds slows all rows
alike instead of one block of them. The `density` rows named `plain` and
`numpy` time each of the scan's two implementations on one graph at n = 10
and one at n = 11, either side of `_kernels.PLAIN_SCAN_VERTICES`, the vertex
count up to which `density_scan` takes the plain one; each is the mean of
SCAN_CALLS calls, since one call takes tens of microseconds, and so are
the rows of `ring(13,3)` and `ring(15,3)`, the odd multi-rings whose scans
set the latency tail of colorbench's tight_family. The `extend`
rows time `engine.color_at_k(G, Delta)` on the dense graphs: the direct step on
every edge, in one `coloring.direct_pass`, and `engine.extend` (whose chain
swap colors them here) on the few edges that resist it. The last of them, a
heavy n = 12 instance of colorbench's dense_multi, has many resisting edges
whose chain walks fail, so `coloring.chain_step` takes most of its time. The
`interchange` rows time `coloring.interchange`, the one Kempe change, on an
alternating path of 1, 4 and 12 edges and on a 2-cycle, each row the mean
of SCAN_CALLS calls, which alternate between flip and restore. The
`closure` rows time
`color_at_k(ring(1001, 7), 14)` and `color_at_k(ring(2001, 3), 6)`, each
one color below the ring's ceil(density): the last edge resists, and the
series closes a tree over the whole ring, so `tashkinov.taa_close` dominates.
The `generate` rows time `exhaustive_connected` on the desk corpus
(5, 10) and the hunt's (5, 12) and (6, 10), `random_multigraph` at all 200
sizes of colorbench's dense_multi, and `ring(100001, 7)`, and give each
one's peak of traced memory (`tracemalloc`, numpy's blocks included), read
in one more, untimed run because tracing slows allocation. The multigraph
rows keep what they build until the run ends, so their peak includes the
graphs themselves:

    PYTHONPATH=src python3 benchmarks/kernel_bench.py
"""

import time
import tracemalloc

from gscolor import Multigraph, PartialColoring, _kernels
from gscolor.coloring import interchange
from gscolor.density import _oracle_edge_order
from gscolor.engine import color_at_k
from gscolor.generators import (exhaustive_connected, petersen, random_multigraph,
                                ring, shannon_triangle)


ROUNDS = 5
SCAN_CALLS = 200


def time_calls(fn, args, calls):
    """Mean seconds of `calls` back-to-back calls fn(*args)."""
    t0 = time.perf_counter()
    for _ in range(calls):
        fn(*args)
    return (time.perf_counter() - t0) / calls


# each row: (kernel, case, fn, args, calls per timing)

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
                     (eu, ev, G.vertex_count, k), 1))
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
    rows = [("density", name, _kernels.density_scan, (G.pair_counts(), G.vertex_count), 1)
            for name, G in SMALL_CASES + DENSE_CASES]
    rows += [("density", name, _kernels.density_scan, (G.pair_counts(), G.vertex_count),
              SCAN_CALLS) for name, G in RING_CASES]
    for name, G in CUTOFF_CASES:
        for scan, fn in (("plain", _kernels._plain_density_scan),
                         ("numpy", _kernels._numpy_density_scan)):
            rows.append(("density", f"{scan} {name}", fn,
                         (G.pair_counts(), G.vertex_count), SCAN_CALLS))
    return rows


# dense_multi's seed-1 instance dense[183]: m = 1,487, Delta = 263
CHAIN_CASE = ("random n=12 m=1487 (chains)", random_multigraph(12, 1487, 516579138))


def extend_rows():
    return [("extend", name, color_at_k, (G, G.max_degree()), 1)
            for name, G in DENSE_CASES + [CHAIN_CASE]]


# whole (1, 2)-components: alternating paths in walk order, and a 2-cycle
FLIP_CASES = [(f"path of {length} edge{'s' * (length > 1)}",
               Multigraph.build(length + 1, [(i, i + 1) for i in range(length)]))
              for length in (1, 4, 12)] + [("2-cycle", Multigraph.build(2, [(0, 1), (0, 1)]))]


def interchange_rows():
    # an even number of calls per timing leaves each coloring as it was
    return [("interchange", name, interchange,
             (PartialColoring(G, 2, {e: 1 + e % 2 for e in G.edge_ids}),
              list(G.edge_ids), 1, 2), SCAN_CALLS)
            for name, G in FLIP_CASES]


# odd multi-rings above the density scan's vertex cap, one color short
CLOSURE_CASES = [("ring(1001,7) k=14", ring(1001, 7), 14),
                 ("ring(2001,3) k=6", ring(2001, 3), 6)]


def closure_rows():
    return [("closure", name, color_at_k, (G, k), 1) for name, G, k in CLOSURE_CASES]


GENERATE_CASES = [(5, 10), (5, 12), (6, 10)]


def build_corpus(n_max, m_max):
    for _ in exhaustive_connected(n_max, m_max):
        pass


def dense_multi_graphs():
    """random_multigraph at the sizes of colorbench's dense_multi: n cycling
    through 12, 14 and 16, m evenly spaced from 200 to 1600."""
    return [random_multigraph((12, 14, 16)[i % 3], 200 + 1400 * i // 199, i)
            for i in range(200)]


MULTIGRAPH_CASES = [("random_multigraph x200 (dense_multi)", dense_multi_graphs, ()),
                    ("ring(100001, 7)", ring, (100001, 7))]


def generate_rows():
    return [("generate", f"exhaustive_connected({n_max}, {m_max})", build_corpus,
             (n_max, m_max), 1) for n_max, m_max in GENERATE_CASES] \
        + [("generate", name, fn, args, 1) for name, fn, args in MULTIGRAPH_CASES]


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
        for i, (_, _, fn, args, calls) in enumerate(rows):
            best[i] = min(best[i], time_calls(fn, args, calls))
    width = max(len(r[1]) for r in rows)
    print(f"{'kernel':<12} {'case':<{width}} {'time (ms)':>12} {'peak (MB)':>10}")
    for (kernel, name, fn, args, _), seconds in zip(rows, best):
        mb = (f"{traced_peak(fn, args) / 2**20:10.2f}" if kernel == "generate"
              else f"{'-':>10}")
        print(f"{kernel:<12} {name:<{width}} {seconds * 1e3:12.6f} {mb}")


if __name__ == "__main__":
    main()
