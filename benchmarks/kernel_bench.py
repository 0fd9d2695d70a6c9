#!/usr/bin/env python3
"""Time the JIT kernels against their fallback implementations.

The package dispatches on GSCOLOR_NO_NUMBA at import; this benchmark calls
both implementations of each kernel directly, on the same inputs, and prints
a small table. The first JIT call includes compilation (cached afterwards),
so it is timed separately.
"""

import time

import numpy as np

from gscolor import _kernels
from gscolor.density import _oracle_edge_order
from gscolor.generators import petersen, random_multigraph, ring, shannon_triangle


def time_call(fn, *args, repeat=5):
    best = float("inf")
    result = None
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn(*args)
        best = min(best, time.perf_counter() - t0)
    return best, result


def bench_feasible(rows):
    impls = _kernels.IMPLEMENTATIONS["feasible"]
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
        prev = _kernels.parallel_prev(eu, ev)
        args = [np.asarray(a, np.int64) for a in (eu, ev, prev)]
        jit = None
        if _kernels.USING_NUMBA:
            from gscolor._kernels import _feasible_jit
            _feasible_jit(*args, G.vertex_count, k)     # compile/cache
            jit, r1 = time_call(_feasible_jit, *args, G.vertex_count, k)
        py, r2 = time_call(impls["fallback"], eu, ev, prev, G.vertex_count, k)
        if jit is not None:
            assert [int(c) for c in r1] == r2
        rows.append(("feasible", name, jit, py))


SMALL_CASES = [("petersen (n=10)", petersen()),
               ("random n=14 m=24", random_multigraph(14, 24, 9)),
               ("random n=16 m=25", random_multigraph(16, 25, 11))]

# the sizes of colorbench's dense_multi instances, where the scan runs twice
# per color-and-verify
DENSE_CASES = [(f"random n={n} m={m}", random_multigraph(n, m, n))
               for n, m in ((12, 600), (14, 1000), (16, 1600))]


def bench_subset_scans(rows):
    for kernel in ("density", "min_odd_cut"):
        impls = _kernels.IMPLEMENTATIONS[kernel]
        cases = SMALL_CASES + (DENSE_CASES if kernel == "density" else [])
        for name, G in cases:
            if kernel == "density":
                args = (*_kernels.distinct_masks(G.edge_masks()), G.vertex_count)
            else:
                args = (np.asarray(G.edge_masks(), np.int64), G.vertex_count)
            jit = None
            if _kernels.USING_NUMBA:
                jit_fn = {"density": "_density_jit",
                          "min_odd_cut": "_min_odd_cut_jit"}[kernel]
                fn = getattr(_kernels, jit_fn)
                fn(*args)                                  # compile/cache
                jit, r1 = time_call(fn, *args)
            py, r2 = time_call(impls["fallback"], *args)
            if jit is not None:
                assert tuple(np.atleast_1d(r1)) == tuple(np.atleast_1d(r2)) or \
                    int(np.atleast_1d(r1)[0]) == int(np.atleast_1d(r2)[0])
            rows.append((kernel, name, jit, py))


def main():
    print(f"numba available and active: {_kernels.USING_NUMBA}")
    rows = []
    bench_feasible(rows)
    bench_subset_scans(rows)
    width = max(len(r[1]) for r in rows)
    print(f"\n{'kernel':<12} {'case':<{width}} {'jit (ms)':>10} "
          f"{'fallback (ms)':>14} {'speedup':>8}")
    for kernel, name, jit, py in rows:
        jit_s = f"{jit * 1e3:10.3f}" if jit is not None else "       n/a"
        speed = f"{py / jit:7.1f}x" if jit else "     n/a"
        print(f"{kernel:<12} {name:<{width}} {jit_s} {py * 1e3:14.3f} {speed}")


if __name__ == "__main__":
    main()
