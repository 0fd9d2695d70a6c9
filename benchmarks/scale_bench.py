#!/usr/bin/env python3
"""Per-edge cost of `color_at_k` as the graph grows.

For each vertex count N (default 10^4, 10^5, 4*10^5 and 10^6) a fresh
interpreter, with PYTHONPATH set to this checkout's `src`, builds
`random_multigraph(N, 3N, 1)` and times one `engine.color_at_k(G, Delta)`;
the graph's construction is not timed. Each size prints one row: n, m, k,
the seconds of that call, microseconds per edge, and the process's peak
resident set (`VmHWM` from /proc/self/status, so it includes the graph),
in MB. A fresh process per size keeps one size's peak out of the next's:

    python3 benchmarks/scale_bench.py [N ...]

At 10^6 vertices the process holds about a gigabyte.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SIZES = (10 ** 4, 10 ** 5, 4 * 10 ** 5, 10 ** 6)

# run in the child: argv[1] is n; prints "m k seconds peak_kb"
CHILD = """
import sys, time
from gscolor.engine import color_at_k
from gscolor.generators import random_multigraph
n = int(sys.argv[1])
G = random_multigraph(n, 3 * n, 1)
k = G.max_degree()
t0 = time.perf_counter()
color_at_k(G, k)
seconds = time.perf_counter() - t0
with open("/proc/self/status") as fh:
    peak_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
print(G.m, k, seconds, peak_kb)
"""

COLUMNS = ("n", "m", "k", "seconds", "us/edge", "peak_MB")
ROW = "{:>9} {:>9} {:>4} {:>9} {:>8} {:>8}"


def measure(n: int, env: dict) -> tuple:
    """(m, k, seconds, peak MB) of one size, in a fresh process."""
    out = subprocess.run([sys.executable, "-c", CHILD, str(n)], env=env, check=True,
                         capture_output=True, text=True).stdout
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
        m, k, seconds, peak_mb = measure(n, env)
        print(ROW.format(n, m, k, f"{seconds:.3f}", f"{seconds / m * 1e6:.2f}",
                         f"{peak_mb:.1f}"), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
