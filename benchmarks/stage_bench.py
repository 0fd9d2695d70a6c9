#!/usr/bin/env python3
"""Time every stage of gscolor by one rule, print one table and write one
JSON record:

    python3 benchmarks/stage_bench.py BENCH_x.json

The rows, by stage:

- `startup`: five fresh commands with PYTHONPATH set to this checkout's
  `src`: a bare interpreter, `import gscolor`, `gscolor.cli color --gen
  petersen --out R`, `verify` of R against Petersen's graph file, and
  `report --gen ring 11 3`, whose 11-vertex density scan is the smallest
  that imports numpy. One more, untimed run of each under `python -X
  importtime` says whether it loaded numpy, `dataclasses` or `inspect`,
  and which gscolor submodules (`gscolor.cli` runs as `__main__`, so it is
  not listed). The header records whether processes write bytecode and for
  how many of the package's modules `src/gscolor/__pycache__` holds
  bytecode for this interpreter once the untimed runs are done, which is
  what the timed ones read. PYTHONDONTWRITEBYTECODE stops a process from
  writing that cache, not from reading it.
- `feasible`, `density`, `extend`, `interchange`, `closure`, `generate`:
  direct calls on fixed inputs, listed in `kernel_rows`'s docstring. The
  `generate` rows also give the peak of traced memory (`tracemalloc`,
  numpy's blocks included), read in one more, untimed run because tracing
  slows allocation.
- `scale`: `color_at_k(random_multigraph(N, 3N, 1), Delta)`, which the
  direct pass colors alone, and `color_at_k` on a configuration-model
  8-regular multigraph on N vertices (8 stubs per vertex, shuffled by
  `random.Random(1)`, paired in order, self-loops dropped) at Delta+1,
  where almost every chain the chain step walks succeeds, and, for
  N <= 10^5 only, at Delta, where the walks fail and the run ends at the
  first edge that resists every step; its time grows much faster than N.
  Each sample builds the graph untimed in a fresh process and reports
  `graph_MB`, the resident set once the graph is built (`VmRSS`), and
  `peak_MB`, the peak resident set (`VmHWM`). Both move by whole allocator
  arenas with the code layout of the imported modules, so they cannot
  resolve sub-megabyte differences; the `generate` rows' traced peaks can.
- `workload`: colorbench's seed-1 desk_corpus, dense_multi and
  tight_family. One sample is `color` over every instance; the other rows
  are `verify_result` over the results and `to_json` plus
  `result_from_json` over them, and, for desk_corpus, the one workload
  colorbench checks against the exact chromatic index,
  `chromatic_index_exact` over every instance. An untimed pass records the
  instance count, the incomplete count, the edges each method colored (from
  each result's `trace`, partial records included) and the sha256 of every
  result's `to_json()` in order, so two trees with the same digest color
  every instance byte-identically.

The rule: ROUNDS interleaved rounds, each of which takes one sample of
every row in table order, so a machine that drifts between speeds slows
all rows alike. An in-process sample is `time_per_call`, a process sample
is one fresh process. The table prints each row's best sample and the JSON
record keeps min, median and max of every sampled number, with the Python
and numpy versions, the platform, the CPU count, the commit (null outside
a git checkout), `USING_NUMBA`, ROUNDS and SLICE.
"""

import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gscolor"
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy  # noqa: E402

from colorbench.workloads import build, dense_multi  # noqa: E402
from gscolor import (IncompleteColoringError, Multigraph, PartialColoring,  # noqa: E402
                     _kernels, color, color_at_k, format_multigraph, verify_result)
from gscolor.coloring import interchange  # noqa: E402
from gscolor.density import _oracle_edge_order, chromatic_index_exact  # noqa: E402
from gscolor.engine import METHODS, result_from_json  # noqa: E402
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


def timed(stage, case, fn, args, **facts):
    """An in-process row: (stage, case, sample, facts)."""
    return stage, case, lambda: {"s": time_per_call(fn, args)}, facts


# -- startup ---------------------------------------------------------------

WATCHED = ("numpy", "dataclasses", "inspect")


def run(args, env, **kw):
    return subprocess.run([sys.executable, *args], env=env, check=True, text=True, **kw)


def wall_time(args, env):
    t0 = time.perf_counter()
    run(args, env, stdout=subprocess.DEVNULL)
    return {"s": time.perf_counter() - t0}


def loaded(args, env) -> dict:
    """Whether the command imports each of WATCHED, and the gscolor
    submodules it imports, comma-separated, or "-" for none."""
    err = run(["-X", "importtime", *args], env, stdout=subprocess.DEVNULL,
              stderr=subprocess.PIPE).stderr
    names = {line.rsplit("|", 1)[-1].strip() for line in err.splitlines()
             if line.startswith("import time:")}
    ours = sorted(name[len("gscolor."):] for name in names if name.startswith("gscolor."))
    return {**{w: "yes" if w in names else "no" for w in WATCHED},
            "gscolor": ",".join(ours) or "-"}


def cached_modules() -> str:
    sources = sorted(PACKAGE.glob("*.py"))
    tag = sys.implementation.cache_tag
    cached = [p for p in sources if (PACKAGE / "__pycache__" / f"{p.stem}.{tag}.pyc").exists()]
    return f"{len(cached)} of {len(sources)} modules ({tag})"


def startup_rows(workdir, env):
    """The commands in the order they run: `verify` reads what `color` writes."""
    graph = os.path.join(workdir, "petersen.mg")
    result = os.path.join(workdir, "petersen.json")
    with open(graph, "w") as fh:
        fh.write(format_multigraph(petersen()))
    cli = ["-m", "gscolor.cli"]
    commands = [("bare interpreter", ["-c", "pass"]),
                ("import gscolor", ["-c", "import gscolor"]),
                ("color --gen petersen --out R",
                 [*cli, "color", "--gen", "petersen", "--out", result]),
                ("verify petersen R", [*cli, "verify", graph, result]),
                ("report --gen ring 11 3", [*cli, "report", "--gen", "ring", "11", "3"])]
    return [("startup", name, lambda args=args: wall_time(args, env), loaded(args, env))
            for name, args in commands]


# -- kernels ---------------------------------------------------------------

FEASIBLE_CASES = [
    ("petersen k=3 (infeasible)", petersen(), 3),
    ("petersen k=4", petersen(), 4),
    ("shannon mu=4 k=11 (infeasible)", shannon_triangle(4), 11),
    ("random n=9 m=22 k=Delta", random_multigraph(9, 22, 5), None),
    # the exact fallback's tight rings, in the oracle's edge order
    ("ring(5,5) k=13", ring(5, 5), 13),
    ("ring(5,5) k=12 (infeasible)", ring(5, 5), 12),
    ("ring(7,3) k=7", ring(7, 3), 7),
]

SMALL_CASES = [("petersen (n=10)", petersen()),
               ("random n=14 m=24", random_multigraph(14, 24, 9)),
               ("random n=16 m=25", random_multigraph(16, 25, 11))]

# the sizes of colorbench's dense_multi instances, where each bound_report
# runs the scan once
DENSE_CASES = [(f"random n={n} m={m}", random_multigraph(n, m, n))
               for n, m in ((12, 600), (14, 1000), (16, 1600))]

# the odd multi-rings behind tight_family's slowest instances
RING_CASES = [(f"ring({n},3)", ring(n, 3)) for n in (13, 15)]

# the two scans either side of _kernels.PLAIN_SCAN_VERTICES
CUTOFF_CASES = [(f"random n={n} m={3 * n}", random_multigraph(n, 3 * n, n)) for n in (10, 11)]

# dense_multi's seed-1 instance dense[183]: m = 1,487, Delta = 263
CHAIN_CASE = ("random n=12 m=1487 (chains)", dense_multi(1)[183].graph)

# whole (1, 2)-components: alternating paths in walk order, and a 2-cycle
FLIP_CASES = [(f"path of {length} edge{'s' * (length > 1)}",
               Multigraph.build(length + 1, [(i, i + 1) for i in range(length)]))
              for length in (1, 4, 12)] + [("2-cycle", Multigraph.build(2, [(0, 1), (0, 1)]))]

# odd multi-rings above the density scan's vertex cap: one color short of
# ceil(Gamma), and ring(20001,7) at ceil(Gamma) itself, where color fails
CLOSURE_CASES = [("ring(1001,7) k=14", ring(1001, 7), 14),
                 ("ring(2001,3) k=6", ring(2001, 3), 6),
                 ("ring(20001,7) k=15", ring(20001, 7), 15)]

GENERATE_CASES = [(5, 10), (5, 12), (6, 10)]


def desk_random(seed):
    """The 500 random graphs of colorbench's desk_corpus, by its recipe,
    without the exhaustive corpus before them."""
    rng = random.Random(seed)
    out = []
    for _ in range(500):
        n = rng.randint(2, 8)
        m = rng.randint(1, min(20, 4 * n * (n - 1) // 2))
        out.append(random_multigraph(n, m, rng.randrange(10 ** 9), mu_max=4))
    return out


# the three ways random_multigraph draws: from the pair list (dense_multi),
# below a cap (desk_corpus) and by pair index (more pairs than edges)
MULTIGRAPH_CASES = [("random_multigraph x200 (dense_multi)", dense_multi, (1,)),
                    ("random_multigraph x500 mu_max=4 (desk_corpus)", desk_random, (1,)),
                    ("random_multigraph(100000, 300000, 1)", random_multigraph,
                     (100000, 300000, 1)),
                    ("ring(100001, 7)", ring, (100001, 7))]


def build_corpus(n_max, m_max):
    for _ in exhaustive_connected(n_max, m_max):
        pass


def traced_mb(fn, args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def kernel_rows():
    """The rows that call gscolor's internals directly.

    `feasible` runs `_kernels.chromatic_feasible` in the oracle's edge
    order. `density` runs `_kernels.density_scan`, and at n = 10 and 11,
    either side of the cutoff up to which it takes the plain scan, both of
    its implementations, `plain` and `numpy`. `extend` times `color_at_k(G,
    Delta)` on the dense graphs: the direct pass on every edge, and
    `engine.extend`'s chain swap on the few that resist it; on the last,
    many chain walks fail. `interchange` flips the same edges back and
    forth with `coloring.interchange`, the one Kempe change. `closure` rows
    end at an edge that resists, where the series closes a tree over the
    whole ring, so `tashkinov.taa_close` dominates. `generate` builds the
    desk corpus (5, 10), the hunt's (5, 12) and (6, 10), the seed-1 random
    graphs of colorbench's dense_multi and desk_corpus,
    `random_multigraph(100000, 300000, 1)` and `ring(100001, 7)`; the
    multigraph rows keep what they build until the call ends, so their
    peak includes the graphs."""
    rows = []
    for name, G, k in FEASIBLE_CASES:
        _, eu, ev = _oracle_edge_order(G)
        rows.append(timed("feasible", name, _kernels.chromatic_feasible,
                          (eu, ev, G.vertex_count, G.max_degree() if k is None else k)))
    for name, G in SMALL_CASES + DENSE_CASES + RING_CASES:
        rows.append(timed("density", name, _kernels.density_scan,
                          (G.pair_counts(), G.vertex_count)))
    for name, G in CUTOFF_CASES:
        pairs, n = G.pair_counts(), G.vertex_count
        rows += [timed("density", f"plain {name}", _kernels._plain_density_scan, (pairs, n, G.m)),
                 timed("density", f"numpy {name}", _kernels._numpy_density_scan, (pairs, n))]
    for name, G in DENSE_CASES + [CHAIN_CASE]:
        rows.append(timed("extend", name, color_at_k, (G, G.max_degree())))
    for name, G in FLIP_CASES:
        pc = PartialColoring(G, 2, {e: 1 + e % 2 for e in G.edge_ids})
        rows.append(timed("interchange", name, interchange, (pc, list(G.edge_ids), 1, 2)))
    for name, G, k in CLOSURE_CASES:
        rows.append(timed("closure", name, color_at_k, (G, k)))
    generate = [(f"exhaustive_connected({n}, {m})", build_corpus, (n, m))
                for n, m in GENERATE_CASES] + MULTIGRAPH_CASES
    for name, fn, args in generate:
        rows.append(timed("generate", name, fn, args, traced_MB=round(traced_mb(fn, args), 2)))
    return rows


# -- scale -----------------------------------------------------------------

SCALE_SIZES = (10 ** 4, 10 ** 5, 4 * 10 ** 5)

# run in the child: argv[1] is the graph, argv[2] is n, argv[3] the colors
# above Delta; prints "m k seconds graph_kb peak_kb"
CHILD = """
import random, sys, time
from gscolor import Multigraph, color_at_k
from gscolor.generators import random_multigraph
def status_kb(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key))
kind, n, above = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
if kind == "random":
    G = random_multigraph(n, 3 * n, 1)
else:
    stubs = [v for v in range(n) for _ in range(8)]
    random.Random(1).shuffle(stubs)
    G = Multigraph.build(n, ((u, v) for u, v in zip(stubs[::2], stubs[1::2]) if u != v))
k = G.max_degree() + above
graph_kb = status_kb("VmRSS:")
t0 = time.perf_counter()
color_at_k(G, k)
seconds = time.perf_counter() - t0
print(G.m, k, seconds, graph_kb, status_kb("VmHWM:"))
"""

# (graph, colors above Delta, largest N timed)
SCALE_GRAPHS = (("random", 0, None), ("8-regular", 1, None), ("8-regular", 0, 10 ** 5))


def scale_sample(kind, n, above, env, facts):
    """One fresh process: its graph's m and k go to facts."""
    out = run(["-c", CHILD, kind, str(n), str(above)], env, capture_output=True).stdout
    m, k, seconds, graph_kb, peak_kb = out.split()
    facts.update(m=int(m), k=int(k))
    return {"s": float(seconds), "graph_MB": int(graph_kb) / 1024, "peak_MB": int(peak_kb) / 1024}


def scale_rows(env):
    rows = []
    for n in SCALE_SIZES:
        for kind, above, largest in SCALE_GRAPHS:
            if largest is None or n <= largest:
                facts = {}
                rows.append(("scale", f"{kind} n={n} k=Delta{'+1' * above}",
                             lambda a=(kind, n, above, env, facts): scale_sample(*a), facts))
    return rows


# -- workloads -------------------------------------------------------------

WORKLOADS = ("desk_corpus", "dense_multi", "tight_family")
SEED = 1


def outcome(G):
    """The record `color(G)` returns, or the partial one it raises with."""
    try:
        return color(G)
    except IncompleteColoringError as exc:
        return exc.result


def color_all(graphs):
    return [outcome(G) for G in graphs]


def verify_all(graphs, results):
    return [verify_result(G, r) for G, r in zip(graphs, results)]


def json_round_trip(graphs, results):
    return [result_from_json(G, r.to_json()) for G, r in zip(graphs, results)]


def exact_all(graphs):
    return [chromatic_index_exact(G) for G in graphs]


def colored(workload, workdir):
    """(graphs, results, facts) of one untimed pass over the workload."""
    graphs = [inst.graph for inst in build(workload, SEED, workdir)]
    results = color_all(graphs)
    digest = hashlib.sha256()
    methods = Counter()
    for result in results:
        digest.update(result.to_json().encode())
        methods.update(result.trace.values())
    facts = {"instances": len(graphs),
             "incomplete": sum(not r.coloring.is_total() for r in results),
             **{method: methods[method] for method in METHODS},
             "sha256": digest.hexdigest()}
    return graphs, results, facts


def workload_rows(workdir):
    rows = []
    for workload in WORKLOADS:
        graphs, results, facts = colored(workload, workdir)
        rows += [timed("workload", workload, color_all, (graphs,), **facts),
                 timed("workload", f"{workload} verify_result", verify_all, (graphs, results)),
                 timed("workload", f"{workload} to_json+result_from_json", json_round_trip,
                       (graphs, results))]
        if workload == "desk_corpus":
            rows.append(timed("workload", "desk_corpus chromatic_index_exact", exact_all,
                              (graphs,)))
    return rows


# -- the record ------------------------------------------------------------

def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def summary(values):
    return {"min": min(values), "median": statistics.median(values), "max": max(values)}


def cell(value):
    return f"{value:.4g}" if isinstance(value, float) else str(value)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 1:
        raise SystemExit("usage: python3 benchmarks/stage_bench.py BENCH_x.json")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as workdir:
        rows = startup_rows(workdir, env)
        header = {"python": platform.python_version(), "numpy": numpy.__version__,
                  "platform": platform.platform(), "cpus": os.cpu_count(),
                  "commit": git_commit(), "USING_NUMBA": _kernels.USING_NUMBA,
                  "ROUNDS": ROUNDS, "SLICE": SLICE,
                  "writes_bytecode": not env.get("PYTHONDONTWRITEBYTECODE"),
                  "bytecode": cached_modules()}
        rows += kernel_rows() + scale_rows(env) + workload_rows(workdir)
        samples = [[] for _ in rows]
        for _ in range(ROUNDS):
            for (_, _, sample, _), taken in zip(rows, samples):
                taken.append(sample())
    record = dict(header, rows=[])
    print("# " + ", ".join(f"{key} {value}" for key, value in header.items()))
    width = max(len(case) for _, case, _, _ in rows)
    print(f"{'stage':<12} {'case':<{width}} {'best (ms)':>12}  facts")
    for (stage, case, _, facts), taken in zip(rows, samples):
        measured = {key: summary([s[key] for s in taken]) for key in taken[0]}
        record["rows"].append({"stage": stage, "case": case, **measured, **facts})
        best = {key: value["min"] for key, value in measured.items() if key != "s"}
        if "m" in facts:
            best["us/edge"] = measured["s"]["min"] / facts["m"] * 1e6
        notes = " ".join(f"{key}={cell(value)}" for key, value in {**facts, **best}.items())
        print(f"{stage:<12} {case:<{width}} {measured['s']['min'] * 1e3:12.6f}  {notes}")
    Path(argv[0]).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
