#!/usr/bin/env python3
"""Per-edge cost of `color_at_k` as the graph grows.

For each vertex count N (default 10^4, 10^5, 4*10^5 and 10^6) two rows are
timed, each in a fresh interpreter with PYTHONPATH set to this checkout's
`src`:

- `random`: `color_at_k(random_multigraph(N, 3N, 1), Delta)`, which the
  direct pass colors alone;
- `8-regular`: `color_at_k(G, Delta + 1)` on a configuration-model
  8-regular multigraph on N vertices (8 stubs per vertex, shuffled by
  `random.Random(1)`, paired in order, self-loops dropped), whose
  resisting edges go to the chain step. At Delta + 1 that step almost never
  walks a chain that fails: 2 walks fail in its 1,653 calls at N = 10^4,
  and none in 16,673 calls at 10^5. So this row times the direct pass and
  cheap chain swaps, not the failing walks that the chain step's twin skip
  saves.

The graph's construction is not timed. Each row prints the graph, n, m, k,
the seconds of that call, microseconds per edge, and the process's peak
resident set (`VmHWM` from /proc/self/status, so it includes the graph),
in MB. A fresh process per row keeps one row's peak out of the next's:

    python3 benchmarks/scale_bench.py [N ...]

At 10^6 vertices the process holds about a gigabyte.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SIZES = (10 ** 4, 10 ** 5, 4 * 10 ** 5, 10 ** 6)

# run in the child: argv[1] is the graph, argv[2] is n; prints
# "m k seconds peak_kb"
CHILD = """
import random, sys, time
from gscolor.engine import color_at_k
from gscolor.generators import random_multigraph
from gscolor.graph import Multigraph
kind, n = sys.argv[1], int(sys.argv[2])
if kind == "random":
    G = random_multigraph(n, 3 * n, 1)
    k = G.max_degree()
else:
    stubs = [v for v in range(n) for _ in range(8)]
    random.Random(1).shuffle(stubs)
    G = Multigraph.build(n, [(u, v) for u, v in zip(stubs[::2], stubs[1::2]) if u != v])
    k = G.max_degree() + 1
t0 = time.perf_counter()
color_at_k(G, k)
seconds = time.perf_counter() - t0
with open("/proc/self/status") as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(G.m, k, seconds, peak_kb)
"""

GRAPHS = ("random", "8-regular")
COLUMNS = ("graph", "n", "m", "k", "seconds", "us/edge", "peak_MB")
ROW = "{:<9} {:>9} {:>9} {:>4} {:>9} {:>8} {:>8}"


def measure(kind: str, n: int, env: dict) -> tuple:
    """(m, k, seconds, peak MB) of one row, in a fresh process."""
    out = subprocess.run([sys.executable, "-c", CHILD, kind, str(n)], env=env,
                         check=True, capture_output=True, text=True).stdout
    m, k, seconds, peak_kb = out.split()
    return int(m), int(k), float(seconds), int(peak_kb) / 1024


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    sizes = [int(a) for a in argv] or list(DEFAULT_SIZES)
    if any(n < 2 for n in sizes):
        raise SystemExit("each N must be at least 2")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    print(ROW.format(*COLUMNS))
    for n in sizes:
        for kind in GRAPHS:
            m, k, seconds, peak_mb = measure(kind, n, env)
            print(ROW.format(kind, n, m, k, f"{seconds:.3f}",
                             f"{seconds / m * 1e6:.2f}", f"{peak_mb:.1f}"), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
