#!/usr/bin/env python3
"""Time the enumeration kernels of gscolor._kernels, and the per-edge path.

Each kernel is called directly on fixed inputs, best of five, and the
results are printed as a small table. The `density` rows named `plain` and
`numpy` time each of the scan's two implementations on one graph at n = 10
and one at n = 11, either side of `_kernels.PLAIN_SCAN_VERTICES`, the vertex
count up to which `density_scan` takes the plain one; each is the mean of
SCAN_CALLS calls, since one call takes tens of microseconds. The `extend`
rows time `engine.color_at_k(G, Delta)` on the dense graphs: the direct step on
every edge, in `color_at_k`'s own loop, and `engine.extend` (whose chain
swap colors them here) on the few edges that resist it. The `closure` rows time
`color_at_k(ring(1001, 7), 14)` and `color_at_k(ring(2001, 3), 6)`, each
one color below the ring's ceil(density): the last edge resists, and the
series closes a tree over the whole ring, so `tashkinov.taa_close` dominates:

    PYTHONPATH=src python3 benchmarks/kernel_bench.py
"""

import time

from gscolor import _kernels
from gscolor.density import _oracle_edge_order
from gscolor.engine import color_at_k
from gscolor.generators import petersen, random_multigraph, ring, shannon_triangle


def time_call(fn, *args, repeat=5):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_feasible(rows):
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
    for name, G, k in cases:
        if k is None:
            k = G.max_degree()
        _, eu, ev = _oracle_edge_order(G)
        rows.append(("feasible", name,
                     time_call(_kernels.chromatic_feasible, eu, ev, G.vertex_count, k)))


SMALL_CASES = [("petersen (n=10)", petersen()),
               ("random n=14 m=24", random_multigraph(14, 24, 9)),
               ("random n=16 m=25", random_multigraph(16, 25, 11))]

# the sizes of colorbench's dense_multi instances, where each bound_report
# runs the scan once
DENSE_CASES = [(f"random n={n} m={m}", random_multigraph(n, m, n))
               for n, m in ((12, 600), (14, 1000), (16, 1600))]


# the two scans either side of the cutoff
CUTOFF_CASES = [(f"random n={n} m={3 * n}", random_multigraph(n, 3 * n, n))
                for n in (10, 11)]
SCAN_CALLS = 200


def repeat_call(fn, *args):
    for _ in range(SCAN_CALLS):
        fn(*args)


def bench_density(rows):
    for name, G in SMALL_CASES + DENSE_CASES:
        rows.append(("density", name,
                     time_call(_kernels.density_scan, G.pair_counts(), G.vertex_count)))
    for name, G in CUTOFF_CASES:
        for scan, fn in (("plain", _kernels._plain_density_scan),
                         ("numpy", _kernels._numpy_density_scan)):
            seconds = time_call(repeat_call, fn, G.pair_counts(), G.vertex_count)
            rows.append(("density", f"{scan} {name}", seconds / SCAN_CALLS))


def bench_extend(rows):
    for name, G in DENSE_CASES:
        rows.append(("extend", name, time_call(color_at_k, G, G.max_degree())))


# odd multi-rings above the density scan's vertex cap, one color short
CLOSURE_CASES = [("ring(1001,7) k=14", ring(1001, 7), 14),
                 ("ring(2001,3) k=6", ring(2001, 3), 6)]


def bench_closure(rows):
    for name, G, k in CLOSURE_CASES:
        rows.append(("closure", name, time_call(color_at_k, G, k, repeat=3)))


def main():
    rows = []
    bench_feasible(rows)
    bench_density(rows)
    bench_extend(rows)
    bench_closure(rows)
    width = max(len(r[1]) for r in rows)
    print(f"{'kernel':<12} {'case':<{width}} {'time (ms)':>10}")
    for kernel, name, seconds in rows:
        print(f"{kernel:<12} {name:<{width}} {seconds * 1e3:10.4f}")


if __name__ == "__main__":
    main()
