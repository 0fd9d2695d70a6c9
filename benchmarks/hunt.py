#!/usr/bin/env python3
"""A failure hunt over gscolor's promise.

Every graph of each corpus is colored by `color` with the exact fallback
on (`engine.ORACLE_EDGE_CAP` = 25, as shipped) and off (0). `extend` reads
the cap only for a graph of at most 25 edges, so a larger graph is colored
once and its findings are printed for both caps. A run is a finding when
it ends incomplete, ends with k_used above gs_upper = max(Delta+1,
ceil(Gamma)), or, on a graph of at most 25 edges, ends with k_used above
chi'. Each finding is printed with the generator call that rebuilds its
graph, and each corpus ends with one summary line. The hunt times nothing;
`benchmarks/stage_bench.py` times the coloring stages:

    python3 benchmarks/hunt.py [CORPUS ...]

A CORPUS is `exhaustive:N:M`, every connected multigraph that
`exhaustive_connected(N, M)` yields; `fat:N_MAX:SEEDS`, every graph
`fat_regular(n, d, mu, seed)` with n 3..N_MAX, d 2..6, mu in FAT_MU and seed
1..SEEDS that has an edge; `complete:N_MAX:MU_MAX`, the complete multigraph
`complete(n, mu)` for n 3..N_MAX and mu 1..MU_MAX; `overfull:N_MAX:SEEDS`,
`overfull(n, d, seed)` for odd n 9..N_MAX, d 0..(n-3)/2 and seed 1..SEEDS
(seed 1 alone for d = 0); or `WORKLOAD:SEED`, the instances of
`colorbench.workloads.build(WORKLOAD, SEED)`; a seed other than 1 skips the
canonical instances, which are the same for every seed. With no arguments
it covers exhaustive_connected(6, 10) and (5, 12), seeds 1-4 of
desk_corpus, dense_multi and tight_family, fat:16:20, complete:16:5 and
overfull:41:5. The exit status is 0 whatever it finds.

Above DENSITY_VERTEX_CAP vertices `bound_report` refuses a graph, so there
no Gamma is known. For a simple graph gs_upper is Delta+1 all the same (an
odd set of s vertices has density at most s when s <= Delta+1, and below
Delta+1 otherwise), so the hunt runs `engine.color_at_k(G, Delta+1)` at
each cap, and a run that ends with evidence is an incomplete finding. A
multigraph above the cap is refused with a ValueError.
"""

import functools
import random
import sys
import tempfile
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from colorbench.workloads import build  # noqa: E402
from gscolor import engine  # noqa: E402
from gscolor.density import (DENSITY_VERTEX_CAP, ORACLE_EDGE_CAP,  # noqa: E402
                             bound_report, chromatic_index_exact)
from gscolor.generators import exhaustive_connected  # noqa: E402
from gscolor.graph import Multigraph  # noqa: E402

CAPS = (ORACLE_EDGE_CAP, 0)
DEFAULT = ("exhaustive:6:10", "exhaustive:5:12",
           *(f"{wl}:{seed}" for wl in ("desk_corpus", "dense_multi", "tight_family")
             for seed in (1, 2, 3, 4)),
           "fat:16:20", "complete:16:5", "overfull:41:5")
FAT_MU = (1, 2, 3, 4, 5, 7, 9)


def fat_regular(n: int, d: int, mu: int, seed: int) -> Multigraph:
    """A fat regular multigraph: d stubs per vertex, shuffled by
    random.Random(seed) and paired consecutively, with self-loops dropped
    and each pair repeated mu times."""
    stubs = [v for v in range(n) for _ in range(d)]
    random.Random(seed).shuffle(stubs)
    pairs = [(a, b) for a, b in zip(stubs[::2], stubs[1::2]) if a != b]
    return Multigraph.build(n, [p for p in pairs for _ in range(mu)])


def complete(n: int, mu: int) -> Multigraph:
    """mu K_n: each pair of the n vertices joined by mu parallel edges,
    which share one endpoint tuple."""
    return Multigraph.build(n, [p for p in combinations(range(n), 2) for _ in range(mu)])


def overfull(n: int, d: int, seed: int) -> Multigraph:
    """K_n minus a matching of d edges: range(n) shuffled by
    random.Random(seed), its first 2d vertices paired consecutively. For
    odd n and d <= (n-3)/2 the graph has more than Delta(n-1)/2 edges, so
    chi' = Delta+1."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    gone = {tuple(sorted(p)) for p in zip(order[0:2 * d:2], order[1:2 * d:2])}
    return Multigraph.build(n, [p for p in combinations(range(n), 2) if p not in gone])


def corpus(spec: str) -> tuple:
    """(name, [(generator call, graph)]) for one CORPUS argument."""
    parts = spec.split(":")
    if parts[0] == "exhaustive":
        n, m = map(int, parts[1:])
        name = f"exhaustive_connected({n}, {m})"
        return name, [(f"{name}[{i}]", G)
                      for i, G in enumerate(exhaustive_connected(n, m))]
    if parts[0] == "fat":
        n_max, seeds = map(int, parts[1:])
        calls = [(n, d, mu, seed) for n in range(3, n_max + 1) for d in range(2, 7)
                 for mu in FAT_MU for seed in range(1, seeds + 1)]
        graphs = [(f"fat_regular{args}", fat_regular(*args)) for args in calls]
        return f"fat_regular(3..{n_max}, 2..6, {FAT_MU}, 1..{seeds})", \
            [(call, G) for call, G in graphs if G.m]
    if parts[0] == "complete":
        n_max, mu_max = map(int, parts[1:])
        calls = [(n, mu) for n in range(3, n_max + 1) for mu in range(1, mu_max + 1)]
        return f"complete(3..{n_max}, 1..{mu_max})", \
            [(f"complete{args}", complete(*args)) for args in calls]
    if parts[0] == "overfull":
        n_max, seeds = map(int, parts[1:])
        calls = [(n, d, seed) for n in range(9, n_max + 1, 2) for d in range((n - 1) // 2)
                 for seed in range(1, (seeds if d else 1) + 1)]
        return f"overfull(9..{n_max} odd, 0..(n-3)/2, 1..{seeds})", \
            [(f"overfull{args}", overfull(*args)) for args in calls]
    workload, seed = parts[0], int(parts[1])
    name = f"workloads.build({workload!r}, {seed})"
    with tempfile.TemporaryDirectory() as tmp:
        instances = build(workload, seed, tmp)
    return name, [(f"{name}[{i}] {inst.id}", inst.graph)
                  for i, inst in enumerate(instances)
                  if seed == 1 or not inst.canonical]


def findings(G, rep, chi) -> list:
    """[(kind, text)] for one `color` run at the current cap; chi is a
    function giving chi' of G (called only where it can decide something)."""
    try:
        res = engine.color(G)
    except engine.IncompleteColoringError as exc:
        return [("incomplete", f"incomplete at k={exc.result.k_used}, edge {exc.edge}")]
    out = []
    if res.k_used > rep.gs_upper:
        out.append(("above_gs", f"k_used {res.k_used} > gs_upper {rep.gs_upper}"))
    # chi' >= lower, so only a run above lower can be above chi'
    if res.k_used > rep.lower and G.m <= ORACLE_EDGE_CAP and res.k_used > chi():
        out.append(("above_chi", f"k_used {res.k_used} > chi' {chi()}"))
    return out


def simple_findings(G) -> list:
    """[(kind, text)] for one `color_at_k(G, Delta+1)` run at the current
    cap, on a simple graph above the density scan's cap."""
    k = G.max_degree() + 1
    evidence = engine.color_at_k(G, k)[2]
    if evidence is None:
        return []
    return [("incomplete", f"incomplete at k={k}, edge {evidence.tree.root_edge}")]


def hunt(name: str, graphs) -> str:
    """Color every graph at each cap, print each finding, and return the
    corpus' summary line."""
    counts = {cap: dict.fromkeys(("incomplete", "above_gs", "above_chi"), 0)
              for cap in CAPS}
    for call, G in graphs:
        if G.vertex_count <= DENSITY_VERTEX_CAP:
            chi = functools.cache(functools.partial(chromatic_index_exact, G))
            run = functools.partial(findings, G, bound_report(G), chi)
        elif max(G.pair_counts().values(), default=1) == 1:
            run = functools.partial(simple_findings, G)
        else:
            raise ValueError(f"{call}: a multigraph above {DENSITY_VERTEX_CAP} "
                             "vertices has no bound to hunt against")
        found = None
        for cap in CAPS:
            # extend reads the cap only for a graph of at most ORACLE_EDGE_CAP
            # edges: above that, every cap gives the first run's findings
            if found is None or G.m <= ORACLE_EDGE_CAP:
                engine.ORACLE_EDGE_CAP = cap
                try:
                    found = run()
                finally:
                    engine.ORACLE_EDGE_CAP = ORACLE_EDGE_CAP
            for kind, text in found:
                counts[cap][kind] += 1
                print(f"cap {cap} {call} (n {G.vertex_count}, m {G.m}): {text}")
    per_cap = "; ".join(
        f"cap {cap}: " + ", ".join(f"{v} {k}" for k, v in c.items())
        for cap, c in counts.items())
    return f"{name}: {len(graphs)} graphs; {per_cap}"


def main(argv) -> int:
    for spec in argv or DEFAULT:
        print(hunt(*corpus(spec)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
