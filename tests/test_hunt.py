"""The failure hunt's findings, pinned, and a smoke run of benchmarks/hunt.py.

Each finding is rebuilt from its edge list, so tier-1 never regenerates the
6-vertex exhaustive corpus it came from.
"""

import importlib.util
from itertools import combinations
from pathlib import Path

import pytest

from gscolor import (Multigraph, bound_report, chromatic_index_exact, color,
                     color_at_k, verify_result)
from gscolor import engine
from gscolor.engine import IncompleteColoringError
from gscolor.generators import ring

# Every cap-0 finding of `benchmarks/hunt.py` on exhaustive_connected(6, 10)
# and (5, 12): (corpus, index, vertex count, edge list, outcome with the
# exact fallback off), where the outcome is ("incomplete", k, the edge that
# resisted) or ("above_chi", k_used, chi'). 6194 of (5, 12) is 1917 of
# (6, 10): a 4-regular multigraph on 5 vertices with three doubled pairs.
OVERFULL_5 = [(0, 3), (0, 3), (0, 4), (0, 4), (1, 2), (1, 2), (1, 3), (1, 4),
              (2, 3), (2, 4)]
HUNT_FINDINGS = [
    ((6, 10), 1917, 5, OVERFULL_5, ("incomplete", 5, 9)),
    ((6, 10), 3628, 6, [(0, 5), (1, 4), (1, 5), (1, 5), (2, 3), (2, 3), (2, 4),
                        (3, 4), (3, 5)], ("above_chi", 5, 4)),
    ((6, 10), 4710, 6, [(0, 5), (0, 5), (1, 4), (1, 5), (2, 3), (2, 4), (3, 4),
                        (3, 4), (3, 5)], ("above_chi", 5, 4)),
    ((5, 12), 6095, 5, [(0, 3), (0, 4), (0, 4), (0, 4), (1, 2), (1, 2), (1, 2),
                        (1, 4), (1, 4), (2, 3), (2, 3), (3, 4)], ("above_chi", 7, 6)),
    ((5, 12), 6105, 5, [(0, 3), (0, 4), (0, 4), (0, 4), (1, 2), (1, 2), (1, 2),
                        (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], ("above_chi", 7, 6)),
    ((5, 12), 6113, 5, [(0, 3), (0, 4), (0, 4), (0, 4), (1, 2), (1, 2), (1, 2),
                        (1, 2), (1, 4), (2, 3), (3, 4), (3, 4)], ("above_chi", 7, 6)),
    ((5, 12), 6150, 5, [(0, 3), (0, 4), (0, 4), (0, 4), (0, 4), (1, 2), (1, 2),
                        (1, 3), (1, 3), (2, 3), (2, 3), (2, 4)], ("incomplete", 6, 8)),
    ((5, 12), 6193, 5, [(0, 3), (0, 3), (0, 4), (0, 4), (1, 2), (1, 2), (1, 4),
                        (1, 4), (1, 4), (2, 3), (2, 3), (2, 3)], ("incomplete", 6, 3)),
    ((5, 12), 6194, 5, OVERFULL_5, ("incomplete", 5, 9)),
    ((5, 12), 6202, 5, [(0, 3), (0, 3), (0, 4), (0, 4), (1, 2), (1, 2), (1, 3),
                        (1, 4), (1, 4), (2, 3), (2, 3), (2, 4)], ("incomplete", 6, 3)),
    ((5, 12), 6204, 5, [(0, 3), (0, 3), (0, 4), (0, 4), (1, 2), (1, 2), (1, 2),
                        (1, 4), (1, 4), (2, 3), (2, 3), (3, 4)], ("incomplete", 6, 3)),
    ((5, 12), 6207, 5, [(0, 3), (0, 3), (0, 4), (0, 4), (1, 2), (1, 2), (1, 2),
                        (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], ("incomplete", 6, 3)),
    ((5, 12), 6227, 5, [(0, 3), (0, 3), (0, 4), (0, 4), (0, 4), (1, 2), (1, 2),
                        (1, 2), (1, 3), (1, 4), (2, 3), (2, 4)], ("incomplete", 6, 10)),
    ((5, 12), 6342, 5, [(0, 2), (0, 3), (0, 4), (0, 4), (1, 2), (1, 3), (1, 3),
                        (1, 4), (1, 4), (2, 3), (2, 3), (2, 4)], ("incomplete", 6, 3)),
    ((5, 12), 6347, 5, [(0, 2), (0, 3), (0, 4), (0, 4), (1, 2), (1, 3), (1, 3),
                        (1, 3), (1, 4), (2, 3), (2, 4), (2, 4)], ("incomplete", 6, 3)),
    ((5, 12), 6352, 5, [(0, 2), (0, 3), (0, 4), (0, 4), (1, 2), (1, 2), (1, 3),
                        (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)], ("incomplete", 6, 3)),
    ((5, 12), 6354, 5, [(0, 2), (0, 3), (0, 4), (0, 4), (0, 4), (1, 2), (1, 3),
                        (1, 3), (1, 3), (1, 4), (2, 3), (2, 4)], ("incomplete", 6, 11)),
]


@pytest.mark.parametrize(
    "n, pairs, outcome", [f[2:] for f in HUNT_FINDINGS],
    ids=[f"exhaustive_{a}_{b}-{i}" for (a, b), i, *_ in HUNT_FINDINGS])
def test_hunt_finding_is_pinned(n, pairs, outcome, monkeypatch):
    """With the fallback on, `color` colors each finding optimally; with it
    off, it ends as the hunt found: incomplete at k on the same edge, or
    complete with more colors than chi'."""
    G = Multigraph.build(n, pairs)
    chi = chromatic_index_exact(G)
    res = color(G)
    assert res.k_used == chi and verify_result(G, res)
    monkeypatch.setattr(engine, "ORACLE_EDGE_CAP", 0)
    kind, k, last = outcome
    if kind == "incomplete":
        with pytest.raises(IncompleteColoringError) as exc:
            color(G)
        assert (exc.value.result.k_used, exc.value.edge) == (k, last)
    else:
        assert (color(G).k_used, chi) == (k, last)


def _hunt_tool():
    path = Path(__file__).parents[1] / "benchmarks" / "hunt.py"
    spec = importlib.util.spec_from_file_location("hunt", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_hunt_runs_on_a_tiny_corpus(capsys):
    """hunt.py prints each finding with its generator call and one summary
    line per corpus, and leaves the fallback's cap as it found it."""
    tool = _hunt_tool()
    assert tool.main(["exhaustive:4:5"]) == 0
    assert capsys.readouterr().out == (
        "exhaustive_connected(4, 5): 34 graphs; "
        "cap 25: 0 incomplete, 0 above_gs, 0 above_chi; "
        "cap 0: 0 incomplete, 0 above_gs, 0 above_chi\n")
    summary = tool.hunt("overfull", [("the 1917 graph", Multigraph.build(5, OVERFULL_5))])
    assert capsys.readouterr().out == (
        "cap 0 the 1917 graph (n 5, m 10): incomplete at k=5, edge 9\n")
    assert summary == ("overfull: 1 graphs; "
                       "cap 25: 0 incomplete, 0 above_gs, 0 above_chi; "
                       "cap 0: 1 incomplete, 0 above_gs, 0 above_chi")
    assert engine.ORACLE_EDGE_CAP == 25
    # a seed other than 1 skips the canonical instances (27 in tight_family)
    name, graphs = tool.corpus("tight_family:2")
    assert name == "workloads.build('tight_family', 2)"
    assert graphs[0][0] == "workloads.build('tight_family', 2)[27] ring(7,4)~0"
    assert len(graphs) == 1728


# Graphs of the hunt's fat corpus on which `color` ends incomplete at
# gs_upper, which breaks the promise: (fat_regular's arguments (n, d, mu,
# seed), its pairs before the mu-fold repetition, and (k_used, the edge that
# resisted)). Each has more than 25 edges, so no exact fallback runs at
# either cap.
FAT_FINDINGS = [
    ((5, 2, 7, 3), [(0, 2), (3, 0), (4, 2), (3, 1), (4, 1)], (18, 32)),
    ((6, 3, 3, 13), [(2, 4), (5, 0), (5, 2), (1, 0), (5, 3), (4, 0), (4, 1), (3, 1),
                     (3, 2)], (10, 19)),
    ((7, 4, 2, 12), [(4, 5), (5, 1), (1, 0), (2, 1), (0, 4), (6, 0), (2, 3), (4, 3),
                     (5, 0), (3, 1), (2, 6), (4, 5), (2, 3)], (9, 21)),
]


@pytest.mark.parametrize("args, pairs, outcome", FAT_FINDINGS,
                         ids=[f"fat_regular{f[0]}".replace(" ", "") for f in FAT_FINDINGS])
def test_fat_finding_is_pinned(args, pairs, outcome):
    """hunt.py's fat_regular builds the pinned graph, and `color` ends
    incomplete on it at gs_upper, on the pinned edge."""
    n, _, mu, _ = args
    G = Multigraph.build(n, [p for p in pairs for _ in range(mu)])
    assert _hunt_tool().fat_regular(*args) == G
    with pytest.raises(IncompleteColoringError) as exc:
        color(G)
    k_used, edge = outcome
    assert (exc.value.result.k_used, exc.value.edge) == (k_used, edge)
    assert k_used == bound_report(G).gs_upper and G.m > 25


def test_complete_finding_is_pinned(monkeypatch):
    """K_9, complete(9, 1) of hunt.py's complete corpus, ends incomplete at
    k = 9 on edge 34, although it is simple, so Vizing's theorem gives it
    Delta + 1 = 9 colors; with 36 edges it is above the fallback's cap, so
    both caps end alike. The hunt runs the corpus by default, and it lists
    mu K_n by n, then mu."""
    tool = _hunt_tool()
    G = tool.complete(9, 1)
    assert G == Multigraph.build(9, list(combinations(range(9), 2)))
    assert bound_report(G).gs_upper == 9
    for cap in (25, 0):
        monkeypatch.setattr(engine, "ORACLE_EDGE_CAP", cap)
        with pytest.raises(IncompleteColoringError) as exc:
            color(G)
        assert (exc.value.result.k_used, exc.value.edge) == (9, 34)
    name, graphs = tool.corpus("complete:4:2")
    assert name == "complete(3..4, 1..2)"
    assert [call for call, _ in graphs] == [
        "complete(3, 1)", "complete(3, 2)", "complete(4, 1)", "complete(4, 2)"]
    assert graphs[3][1] == Multigraph.build(4, [p for p in combinations(range(4), 2)
                                                for _ in range(2)])
    assert "complete:16:5" in tool.DEFAULT


def test_overfull_finding_is_pinned(capsys):
    """overfull(17, 0, 1) is K_17 (m = 136). Above the density scan's cap
    the hunt runs color_at_k at Delta + 1 = 17, which is gs_upper for a
    simple graph; on K_17 it ends with evidence on edge 133 at both caps,
    and with the pair (3, 8) removed, overfull(17, 1, 3) completes. The
    hunt refuses a multigraph above the cap, and runs the corpus last by
    default, listing it by n, then d, then seed, with seed 1 alone at d = 0."""
    tool = _hunt_tool()
    K17 = tool.overfull(17, 0, 1)
    assert K17 == Multigraph.build(17, list(combinations(range(17), 2)))
    short = tool.overfull(17, 1, 3)
    assert short == Multigraph.build(17, [p for p in combinations(range(17), 2)
                                          if p != (3, 8)])
    summary = tool.hunt("pins", [("K17", K17), ("short", short)])
    assert capsys.readouterr().out == "".join(
        f"cap {cap} K17 (n 17, m 136): incomplete at k=17, edge 133\n" for cap in (25, 0))
    assert summary == ("pins: 2 graphs; "
                       "cap 25: 1 incomplete, 0 above_gs, 0 above_chi; "
                       "cap 0: 1 incomplete, 0 above_gs, 0 above_chi")
    pc, _, evidence = color_at_k(short, 17)
    assert evidence is None and pc.is_total()
    with pytest.raises(ValueError, match="^ring: a multigraph above 16 vertices"):
        tool.hunt("multi", [("ring", ring(17, 2))])
    name, graphs = tool.corpus("overfull:11:2")
    assert name == "overfull(9..11 odd, 0..(n-3)/2, 1..2)"
    assert [call for call, _ in graphs] == [
        f"overfull{args}" for args in
        [(9, 0, 1), *((9, d, s) for d in (1, 2, 3) for s in (1, 2)),
         (11, 0, 1), *((11, d, s) for d in (1, 2, 3, 4) for s in (1, 2))]]
    assert tool.DEFAULT[-1] == "overfull:41:5"


def test_hunt_fat_corpus_skips_edgeless_graphs():
    """fat:N_MAX:SEEDS covers n 3..N_MAX, d 2..6, mu in FAT_MU and seeds
    1..SEEDS, in that nesting, and leaves out a graph whose stubs all pair
    with themselves: at n = 3, d = 2, seed 28 is the first."""
    tool = _hunt_tool()
    name, graphs = tool.corpus("fat:3:28")
    assert name == "fat_regular(3..3, 2..6, (1, 2, 3, 4, 5, 7, 9), 1..28)"
    calls = [(3, d, mu, seed) for d in range(2, 7) for mu in tool.FAT_MU
             for seed in range(1, 29)]
    kept = [args for args in calls if args[1::2] != (2, 28)]
    assert [call for call, _ in graphs] == [f"fat_regular{args}" for args in kept]
    assert all(G == tool.fat_regular(*args) for (_, G), args in zip(graphs, kept))
    assert "fat:16:20" in tool.DEFAULT
