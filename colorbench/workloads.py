"""Workload inputs, built from the workload seed with gscolor.generators.

Canonical instances ignore the seed; random instances and relabelings come
from a `random.Random` seeded with it, so one seed always gives the same
inputs. The program receives only the finished graphs (or graph files).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

from gscolor import generators
from gscolor.graph import Multigraph, format_multigraph

@dataclass(frozen=True)
class Instance:
    id: str
    graph: Multigraph
    canonical: bool          # the same for every seed
    path: str | None = None  # graph file, for cli_roundtrip


def desk_corpus(seed: int) -> list:
    """The acceptance corpus: every connected multigraph with n <= 5, m <= 10
    up to isomorphism, plus 500 random ones by the acceptance-suite recipe."""
    out = [Instance(f"exhaustive[{i}]", G, True)
           for i, G in enumerate(generators.exhaustive_connected(5, 10))]
    rng = random.Random(seed)
    for i in range(500):
        n = rng.randint(2, 8)
        m = rng.randint(1, min(20, 4 * n * (n - 1) // 2))
        G = generators.random_multigraph(n, m, rng.randrange(10 ** 9), mu_max=4)
        out.append(Instance(f"random[{i}]", G, False))
    return out


DENSE_INSTANCES = 200


def dense_multi(seed: int) -> list:
    """Seeded random multigraphs with n cycling through 12, 14, 16 and m
    evenly spaced from 200 to 1600. The sizes, which set per-operation cost,
    are the same for every seed, and no two instances share one, so the
    latency percentiles do not sit on a jump between clusters."""
    rng = random.Random(seed)
    out = []
    for i in range(DENSE_INSTANCES):
        n = (12, 14, 16)[i % 3]
        m = 200 + 1400 * i // (DENSE_INSTANCES - 1)
        out.append(Instance(f"dense[{i}]",
                            generators.random_multigraph(n, m, rng.randrange(10 ** 9)), False))
    return out


TIGHT_RELABELINGS = 96
# gscolor's default fallback threshold: at or below it extension may re-solve
# exactly, which takes seconds on a tight ring.
FALLBACK_EDGES = 25


def _repeat_edges(G: Multigraph, mu: int) -> Multigraph:
    return Multigraph.build(G.vertex_count,
                            [G.endpoints(e) for e in G.edge_ids for _ in range(mu)])


def _relabel(G: Multigraph, rng: random.Random) -> Multigraph:
    """Permute the vertices and shuffle the edge order."""
    perm = list(range(G.vertex_count))
    rng.shuffle(perm)
    pairs = [(perm[u], perm[v]) for u, v in (G.endpoints(e) for e in G.edge_ids)]
    rng.shuffle(pairs)
    return Multigraph.build(G.vertex_count, pairs)


def tight_family(seed: int) -> list:
    """Goldberg-Seymour-tight instances (Gamma > Delta): odd multi-rings and
    Petersen with repeated edges.

    Every instance runs in canonical labels. Those above the fallback
    threshold also run in seeded relabelings. Relabelings below it are left
    out: about one in forty orderings of ring(5,5) sends extension into the
    exact fallback for seconds, so their share of a pass would be a lottery
    on the seed. The canonical ring(5,5) keeps that cost in every pass.
    """
    canon = [(f"ring({n},{mu})", generators.ring(n, mu))
             for n in range(5, 16, 2) for mu in range(2, 6)]
    canon += [(f"petersen*{mu}", _repeat_edges(generators.petersen(), mu))
              for mu in (1, 2, 3)]
    rng = random.Random(seed)
    out = [Instance(name, G, True) for name, G in canon]
    for name, G in canon:
        if G.m <= FALLBACK_EDGES:
            continue
        out.extend(Instance(f"{name}~{r}", _relabel(G, rng), False)
                   for r in range(TIGHT_RELABELINGS))
    return out


CLI_RANDOM = 3
CLI_RANDOM_SIZE = (8, 20)    # fixed, so edges per pass do not depend on the seed


def cli_roundtrip(seed: int, workdir: str) -> list:
    """Small named and random instances, each written to a graph file.

    Coloring them takes milliseconds, so process start-up, import, parsing
    and JSON dominate each round trip.
    """
    named = [("petersen", generators.petersen()),
             ("shannon(2)", generators.shannon_triangle(2)),
             ("shannon(3)", generators.shannon_triangle(3)),
             ("ring(5,2)", generators.ring(5, 2)),
             ("ring(9,2)", generators.ring(9, 2))]
    out = [Instance(name, G, True) for name, G in named]
    rng = random.Random(seed)
    for i in range(CLI_RANDOM):
        n, m = CLI_RANDOM_SIZE
        G = generators.random_multigraph(n, m, rng.randrange(10 ** 9), mu_max=3)
        out.append(Instance(f"random[{i}]", G, False))
    written = []
    for i, inst in enumerate(out):
        path = os.path.join(workdir, f"g{i}.mg")
        with open(path, "w") as fh:
            fh.write(format_multigraph(inst.graph))
        written.append(Instance(inst.id, inst.graph, inst.canonical, path))
    return written


def build(workload: str, seed: int, workdir: str) -> list:
    if workload == "cli_roundtrip":
        return cli_roundtrip(seed, workdir)
    return {"desk_corpus": desk_corpus, "dense_multi": dense_multi,
            "tight_family": tight_family}[workload](seed)
