import hashlib
import importlib.util
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from gscolor import (Multigraph, PartialColoring, bound_report, build_series,
                     certificate_check, chromatic_index_exact, color,
                     color_at_k, extend, verify_result)
from gscolor.engine import (ColoringResult, IncompleteColoringError, _try_kempe,
                            result_from_json)
from gscolor.coloring import kempe_chain, kempe_swap, validate
from gscolor.generators import (petersen, random_multigraph, ring,
                               shannon_triangle)
from conftest import make_pe_instance, make_se_instance
from oracles import random_multigraph_pairs, random_proper_coloring


def test_color_petersen():
    G = petersen()
    res = color(G)
    assert res.k_used == 4
    assert verify_result(G, res)
    assert chromatic_index_exact(G) == 4


def test_color_shannon():
    G = shannon_triangle(2)
    res = color(G)
    assert res.k_used == 6
    assert verify_result(G, res)


def test_color_edgeless():
    G = Multigraph.build(4, [])
    res = color(G)
    assert res.k_used == 0
    assert res.coloring.uncolored_edges == frozenset()
    assert verify_result(G, res)


def test_color_deterministic():
    G = petersen()
    a = color(G)
    b = color(G)
    assert a.to_json() == b.to_json()


def test_color_uses_lower_bound_when_feasible():
    # C4 is class 1: the engine must return Delta colors, not Delta + 1
    G = ring(4)
    assert color(G).k_used == 2


def test_extend_direct(triangle):
    pc = PartialColoring(triangle, 3, {0: 1, 1: 2})
    out = extend(triangle, pc, 2)
    assert out.status == "colored" and out.method == "direct"
    assert validate(triangle, out.coloring) == []


def test_extend_kempe_swap_case():
    # path a-b-c-d with edge (b,c) uncolored, k = 2: phi(ab)=1, phi(cd)=2,
    # b misses 2, c misses 1, and the (1,2)-chain from b is just a-b
    G = Multigraph.build(4, [(0, 1), (1, 2), (2, 3)])
    pc = PartialColoring(G, 2, {0: 1, 2: 2})
    out = extend(G, pc, 1)
    assert out.status == "colored" and out.method == "kempe"
    assert validate(G, out.coloring) == []
    assert out.coloring.color_of(1) is not None


def test_failed_kempe_step_leaves_coloring_untouched(triangle):
    # k = 2: 0 misses 2, 2 misses 1, and the (1, 2)-chain from 0 ends at 2
    pc = PartialColoring(triangle, 2, {0: 1, 1: 2}, debug=True)
    before = pc.signature()
    assert _try_kempe(pc, 2) is None
    assert pc.signature() == before


def test_kempe_step_colors_in_place():
    G = Multigraph.build(4, [(0, 1), (1, 2), (2, 3)])
    pc = PartialColoring(G, 2, {0: 1, 2: 2}, debug=True)
    assert _try_kempe(pc, 1) is pc
    assert validate(G, pc) == [] and not pc.uncolored_edges


def _reference_kempe(pc, eid):
    """The chain-swap step as it was before it worked in place."""
    x, y = pc.graph.endpoints(eid)
    for a in sorted(pc.missing(x)):
        for b in sorted(pc.missing(y)):
            ch = kempe_chain(pc, x, a, b)
            if y in ch.vertices:
                continue
            out = kempe_swap(pc, ch)
            out.assign(eid, min(out.missing(x) & out.missing(y)))
            return out
    return None


@given(st.integers(3, 7), st.integers(3, 16), st.integers(0, 10 ** 6))
@settings(max_examples=80, deadline=None)
def test_kempe_step_matches_clone_and_swap(n, m, seed):
    """On every edge the greedy coloring left uncolored (so the ends'
    missing sets are disjoint), the in-place step gives the coloring the
    clone-and-swap step gave, or fails and leaves pc as it was."""
    rng = random.Random(seed)
    m = min(m, 4 * n * (n - 1) // 2)
    G = Multigraph.build(n, random_multigraph_pairs(n, m, rng, mu_max=4))
    greedy = random_proper_coloring(G, G.max_degree(), rng)
    for eid in sorted(greedy.uncolored_edges):
        pc = PartialColoring(G, greedy.k, {e: greedy.color_of(e) for e in G.edge_ids},
                             debug=True)
        before = pc.signature()
        expected = _reference_kempe(pc.clone(), eid)
        got = _try_kempe(pc, eid)
        if expected is None:
            assert got is None and pc.signature() == before
        else:
            assert got is pc and pc.signature() == expected.signature()
            assert validate(G, pc) == []


def test_extend_emits_certificate_evidence(triangle):
    # k = 2 < density 3: the grown tree is all of V, elementary and strongly
    # closed, and certifies that 2 colors cannot suffice
    pc, trace, ev = color_at_k(triangle, 2)
    assert ev is not None
    assert ev.kind == "elementary_strongly_closed_tree"
    assert ev.tree.vertex_set == {0, 1, 2}
    assert certificate_check(triangle, ev.tree.vertex_set, 2)


def test_extend_evidence_structure():
    # the evidence invariants: odd vertex count, both root ends inside,
    # elementary and strongly closed under the attempt coloring
    G = shannon_triangle(2)
    pc, trace, ev = color_at_k(G, 5)
    assert ev is not None
    if ev.kind == "elementary_strongly_closed_tree":
        assert len(ev.tree.vertex_set) % 2 == 1
        x, y = G.endpoints(ev.tree.root_edge)
        assert {x, y} <= ev.tree.vertex_set


@pytest.mark.parametrize("make", [make_pe_instance, make_se_instance])
def test_failed_extend_reports_the_series_tree(make):
    """With no fallback, an edge that resists the direct step and the chain
    swap ends in budget_exhausted: the series ran once, left the coloring
    as it was, and its own final tree is the evidence."""
    G, pc = make()
    before = pc.signature()
    out = extend(G, pc, 0, fallback_threshold=0)
    assert out.status == "evidence" and out.evidence.kind == "budget_exhausted"
    assert pc.signature() == before
    assert out.evidence.tree == build_series(G, 0, pc, strict=False).final_tree


def test_verify_rejects_recolored_clash():
    G = petersen()
    res = color(G)
    obj = res.to_json_obj()
    # force two adjacent edges into the same color
    e0, e1 = G.edges_at(0)[:2]
    tampered = {e: c for e, c in obj["assignment"]}
    tampered[e1] = tampered[e0]
    bad = ColoringResult(PartialColoring.unchecked(G, res.k_used, tampered),
                         res.k_used, res.certificates, res.trace)
    assert not verify_result(G, bad)


def test_verify_rejects_inflated_k():
    G = petersen()
    res = color(G)
    bad = ColoringResult(PartialColoring.unchecked(
        G, 9, {e: res.coloring.color_of(e) for e in G.edge_ids}),
        9, res.certificates, res.trace)
    assert not verify_result(G, bad)


def test_verify_rejects_incomplete():
    G = petersen()
    res = color(G)
    partial = {e: res.coloring.color_of(e) for e in G.edge_ids}
    partial[0] = None
    bad = ColoringResult(PartialColoring.unchecked(G, res.k_used, partial),
                         res.k_used, [], res.trace)
    assert not verify_result(G, bad)


def test_result_json_round_trip():
    G = shannon_triangle(2)
    res = color(G)
    back = result_from_json(G, res.to_json())
    assert back.k_used == res.k_used
    assert back.to_json() == res.to_json()
    assert verify_result(G, back)


def test_result_json_rejects_wrong_graph():
    res = color(shannon_triangle(2))
    with pytest.raises(ValueError):
        result_from_json(petersen(), res.to_json())


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 10 ** 30) | st.floats(allow_nan=False)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=12)


@given(st.sampled_from(["v", "k_used", "seed", "assignment", "trace",
                        "certificates", "assignment.0", "assignment.0.1",
                        "certificates.0", "certificates.0.value.den"]),
       JSON_VALUES)
@settings(max_examples=200, deadline=None)
def test_result_from_json_rejects_or_verifies_any_edit(path, value):
    """Any value at any place in a result file either loads (and then
    verifies to a plain bool) or raises ValueError; nothing else escapes."""
    G = ring(5, 2)
    obj = color(G).to_json_obj()
    obj["certificates"] = [{"u": [0, 1, 2], "value": {"num": 4, "den": 2}, "k": 3}]
    *parents, last = path.split(".")
    target = obj
    for key in parents:
        target = target[int(key)] if isinstance(target, list) else target[key]
    target[int(last) if isinstance(target, list) else last] = value
    try:
        res = result_from_json(G, json.dumps(obj))
    except ValueError:
        return
    assert verify_result(G, res) in (True, False)


def test_engine_random_instances_within_bounds():
    rng = random.Random(99)
    for _ in range(30):
        n = rng.randint(2, 7)
        m = rng.randint(1, min(14, 4 * n * (n - 1) // 2))
        G = Multigraph.build(n, random_multigraph_pairs(n, m, rng, mu_max=4))
        res = color(G)
        rep = bound_report(G)
        assert res.k_used <= rep.gs_upper
        assert verify_result(G, res)
        chi = chromatic_index_exact(G)
        assert chi <= res.k_used


def test_incomplete_carries_partial_coloring():
    """With the exact fallback disabled, a heuristic dead end at the
    guaranteed bound raises an explicit incomplete failure holding the
    partial coloring (never an improper or over-budget result)."""
    pairs = [(0, 3), (0, 3), (0, 4), (0, 4), (1, 2), (1, 2), (1, 3), (1, 4),
             (2, 3), (2, 4)]
    G = Multigraph.build(5, pairs)
    with pytest.raises(IncompleteColoringError) as exc:
        color(G, fallback_threshold=0)
    partial = exc.value.result.coloring
    assert validate(G, partial) == []
    assert 0 < sum(1 for e in G.edge_ids if partial.color_of(e) is not None) < G.m
    # the default fallback threshold completes the same instance
    res = color(G)
    assert res.k_used == 5
    assert "fallback" in res.trace.values()


def _doubled(G):
    return Multigraph.build(G.vertex_count,
                            [G.endpoints(e) for e in G.edge_ids for _ in range(2)])


# sha256 of the record's to_json(), complete or the partial one an incomplete
# run carries, pinned so that speed-ups of the extension loop cannot change a
# single output byte.
GOLDEN = [
    (lambda: random_multigraph(16, 400, 1),
     "13ebe6c12e5b7cf09dbac581628c8dca4cb84ab81674c7fa2d298902ad0c8383"),
    (lambda: random_multigraph(16, 800, 2),
     "7cf7fef66d6caf9a899ed67bf6f193185e8fb00faba93a181d972a2eed7e8366"),
    (lambda: random_multigraph(16, 1200, 3),
     "6e662e88c6c5c541e7061993c1469570453e4fc1abcd4cd7909b7d6c1aa97d15"),
    (lambda: random_multigraph(16, 1600, 4),
     "176ec5979fb6c2a80a26e8760b1b87c7e8dd933eed0f8b2691bdc0c1bf6d5d6d"),
    (lambda: ring(9, 2),
     "86222afec0ff886d8bba50b1106014c27757870d1bd0b91dc04fa15258757f2e"),
    (lambda: _doubled(petersen()),
     "7e24a5e31c4679d81db34fa27e824f82b3f6338550fe0a5b36f7a3711d6d8672"),
]


@pytest.mark.parametrize("make, digest", GOLDEN,
                         ids=["rand400", "rand800", "rand1200", "rand1600",
                              "ring9x2", "petersen_x2"])
def test_color_output_is_pinned(make, digest):
    G = make()
    try:
        result = color(G)
    except IncompleteColoringError as exc:
        result = exc.result
    assert hashlib.sha256(result.to_json().encode()).hexdigest() == digest


def test_output_digest_runs(capsys):
    """benchmarks/output_digest.py prints one digest line per workload."""
    path = Path(__file__).parents[1] / "benchmarks" / "output_digest.py"
    spec = importlib.util.spec_from_file_location("output_digest", path)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    assert tool.main(["tight_family"]) == 0
    name, count, incomplete, digest = capsys.readouterr().out.split()
    assert name == "tight_family" and 0 <= int(incomplete) <= int(count)
    assert re.fullmatch("[0-9a-f]{64}", digest)


# The same pins for instances that reach the exact fallback, taken before it
# became a single search with the parallel-edge rule.
GOLDEN_FALLBACK = [
    (lambda: ring(5, 5),
     "ac9b6c59dd32f1011d05501303e653e3f1f40450fd47e79b0c4c2b500d8daf27"),
    (lambda: ring(7, 3),
     "6d3f1b53a6c6c2024e8d07055c1719522b3e947638995ca8017f53591f8a0378"),
    (lambda: ring(5, 4),
     "d12c9697daf11e572a396aad910eb6951476d8f5138fd46c75d0f40afc12aa71"),
]


@pytest.mark.parametrize("make, digest", GOLDEN_FALLBACK,
                         ids=["ring5x5", "ring7x3", "ring5x4"])
def test_fallback_output_is_pinned(make, digest):
    res = color(make())
    assert "fallback" in res.trace.values()
    assert hashlib.sha256(res.to_json().encode()).hexdigest() == digest


def test_fallback_runs_one_search_per_edge(monkeypatch):
    """ring(5, 5) is colored at its one scheduled k; each fallback edge costs
    one chromatic_feasible call, and no coloring is enumerated, whatever
    name enumerate_colorings is reached by."""
    import sys
    from gscolor import _kernels
    from gscolor.density import enumerate_colorings
    calls = {"feasible": 0, "enumerate": 0}
    feasible = _kernels.chromatic_feasible

    def counted_feasible(*args):
        calls["feasible"] += 1
        return feasible(*args)

    def count_enumerations(frame, event, arg):
        if event == "call" and frame.f_code is enumerate_colorings.__code__:
            calls["enumerate"] += 1

    monkeypatch.setattr(_kernels, "chromatic_feasible", counted_feasible)
    G = ring(5, 5)
    rep = bound_report(G)
    assert rep.lower == rep.gs_upper
    sys.setprofile(count_enumerations)
    try:
        res = color(G)
    finally:
        sys.setprofile(None)
    fallback_edges = sum(1 for m in res.trace.values() if m == "fallback")
    assert fallback_edges > 0
    assert calls == {"feasible": fallback_edges, "enumerate": 0}
    assert verify_result(G, res)


def test_series_invariant_failure_is_raised(monkeypatch):
    """A broken series invariant is a bug: color() raises it instead of
    treating it like a stuck series and falling through."""
    from gscolor import tashkinov
    from gscolor.tashkinov import SeriesInvariantError

    def broken(*args, **kwargs):
        raise SeriesInvariantError("planted")

    monkeypatch.setattr(tashkinov, "series_step", broken)
    with pytest.raises(SeriesInvariantError, match="planted"):
        color(_doubled(petersen()))
