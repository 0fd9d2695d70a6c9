import ast
import contextlib
import hashlib
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc
from collections import deque
from itertools import combinations, permutations
from pathlib import Path

import pytest

import gscolor
from gscolor import (IncompleteColoringError, Multigraph, color,
                     format_multigraph, parse_multigraph)
from gscolor import generators
from gscolor.cli import main
from gscolor.generators import (_nth_pair, exhaustive_connected, from_spec, petersen,
                                random_multigraph, ring, shannon_triangle)
from oracles import open_list_random_multigraph, reference_random_multigraph, stats


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- generators -----------------------------------------------------------------

def test_generator_specs():
    assert stats(from_spec(["petersen"])) == (10, 15, 3, 1)
    assert stats(from_spec(["shannon", "3"])) == (3, 9, 6, 3)
    assert stats(from_spec(["ring", "5", "2"])) == (5, 10, 4, 2)
    a = from_spec(["random", "6", "10", "7"])
    b = from_spec(["random", "6", "10", "7"])
    assert a == b
    with pytest.raises(ValueError):
        from_spec(["nope"])


@pytest.mark.parametrize("spec", [
    ["petersen", "1"], ["shannon"], ["shannon", "x"], ["ring"],
    ["ring", "5", "2", "1"], ["ring", "2"], ["random", "5"],
    ["random", "5", "10", "1", "2"], ["ring", "1_1", "2"], ["ring", "+5"],
    ["ring", "\u0665"], ["shannon", " 2"]])
def test_bad_generator_specs_raise_value_error(spec):
    with pytest.raises(ValueError):
        from_spec(spec)


def test_random_generator_respects_mu_cap():
    G = random_multigraph(4, 20, 1, mu_max=4)
    assert max(G.pair_counts().values()) <= 4


@pytest.mark.parametrize("mu_max", [None, 0, 1, 2, 4])
def test_random_generator_matches_the_full_filter(mu_max):
    """Skipping the full pairs by index, or with no cap drawing from the
    pair list when it has at most m pairs and drawing pair indices when it
    has more, gives the same graphs as filtering every pair before each edge,
    "no room" errors included."""
    sizes = [*range(0, 7), *([12, 16, 100] if mu_max is None else [])]
    for n in sizes:
        for m in (0, 1, 3, 8, 15, 31, 200):
            for seed in range(4):
                try:
                    want = reference_random_multigraph(n, m, seed, mu_max)
                except ValueError as exc:
                    with pytest.raises(ValueError, match=str(exc)):
                        random_multigraph(n, m, seed, mu_max=mu_max)
                    continue
                assert random_multigraph(n, m, seed, mu_max=mu_max) == want


def test_capped_random_generator_matches_the_open_pair_list():
    """Skipping the full pairs by index draws the same edges as removing
    them from a list of all pairs, at sizes where that list holds many full
    pairs, and raises the same errors."""
    for n in (0, 1, 2, 5, 9, 30, 60):
        for m in (-1, 0, 1, 40, 150, 400):
            for seed in range(3):
                for mu_max in (-1, 0, 1, 2, 3):
                    try:
                        want = open_list_random_multigraph(n, m, seed, mu_max)
                    except ValueError as exc:
                        with pytest.raises(ValueError, match=re.escape(str(exc))):
                            random_multigraph(n, m, seed, mu_max=mu_max)
                        continue
                    got = random_multigraph(n, m, seed, mu_max=mu_max)
                    assert got._ends == want._ends, (n, m, seed, mu_max)


def test_capped_random_generator_holds_no_pair_list():
    """A cap of 1 on 1,000 vertices draws 1,000 edges without the 499,500
    pairs: the traced peak stays under 1 MB."""
    tracemalloc.start()
    try:
        G = random_multigraph(1000, 1000, 1, mu_max=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert G.m == 1000 and max(G.pair_counts().values()) == 1
    assert peak < 2 ** 20


@pytest.mark.parametrize("n", [92682, 92683, 2 ** 20])
def test_random_generator_draws_wider_than_one_word(n):
    """Pair indices of 32 bits (n = 92,682), 33 bits (92,683) and 39 bits
    (2^20), which getrandbits joins from several words, are the ones that
    choosing from the range of pair indices gives, edge by edge."""
    count = n * (n - 1) // 2
    for seed in range(5):
        rng = random.Random(seed)
        want = [_nth_pair(n, rng.choice(range(count))) for _ in range(200)]
        assert random_multigraph(n, 200, seed)._ends == tuple(want)


def test_sparse_random_generator_keeps_no_list_of_draws(monkeypatch):
    """Uncapped, with more pairs than edges, the drawn pairs go to the graph
    one at a time: with a graph that keeps nothing, 20,000 draws on 2^20
    vertices peak under 64 kB of traced memory, where a list of them would
    hold 160 kB of pointers alone."""
    class Drain:
        @staticmethod
        def build(n, pairs):
            deque(pairs, maxlen=0)

    monkeypatch.setattr(generators, "Multigraph", Drain)
    tracemalloc.start()
    try:
        random_multigraph(2 ** 20, 20_000, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 ** 16


def test_parallel_edges_of_generated_graphs_share_one_tuple():
    """Each generator that repeats a vertex pair passes one tuple for it, so
    the graph holds as many endpoint tuples as it has joined pairs."""
    graphs = [random_multigraph(12, 600, 3), random_multigraph(6, 15, 2),
              random_multigraph(5, 40, 1, mu_max=10), ring(7, 3), ring(3, 1),
              shannon_triangle(4), *exhaustive_connected(4, 6)]
    for G in graphs:
        assert len(set(map(id, G._ends))) == len(G.pair_counts()), G
    G = ring(5, 4)
    assert all(G._ends[e] is G._ends[e - e % 4] for e in G.edge_ids)


_CORPUS_RSS = """
import numpy
from gscolor.generators import exhaustive_connected

def peak_kb():
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))

before = peak_kb()
count = len(list(exhaustive_connected(5, 10)))
print(count, peak_kb() - before)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="reads the peak RSS (VmHWM) from /proc")
def test_exhaustive_corpus_filters_candidates_a_block_at_a_time():
    """Generating the n <= 5, m <= 10 corpus raises peak RSS by less than
    20 MB over a process that has loaded numpy: the 184,756 candidate
    vectors of n = 5 are never held at once. The child reads VmHWM, not
    ru_maxrss, which it inherits from this process at exec and which would
    then hide the growth."""
    src = str(Path(gscolor.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", _CORPUS_RSS],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    count, grown_kb = map(int, run.stdout.split())
    assert count == 1934
    assert grown_kb < 20 * 1024


def test_exhaustive_corpus_small():
    corpus = list(exhaustive_connected(3, 4))
    # every instance connected, within bounds, and pairwise non-isomorphic
    # by construction; spot-check the census against a hand count:
    # n=1: 1; n=2: bundles of 1..4 parallels: 4;
    # n=3: connected multigraphs on 3 vertices with <= 4 edges: paths of
    # multiplicity (1,1),(1,2),(1,3),(2,2) -> 4, triangles (1,1,1),(1,1,2) -> 2
    assert all(G.is_connected() for G in corpus)
    assert all(G.m <= 4 and G.vertex_count <= 3 for G in corpus)
    assert len(corpus) == 1 + 4 + 6
    # deterministic order
    again = list(exhaustive_connected(3, 4))
    assert [format_multigraph(G) for G in corpus] == \
        [format_multigraph(G) for G in again]


def test_exhaustive_rejects_bad_sizes():
    for n_max, m_max in [(5, -1), (0, 3)]:
        with pytest.raises(ValueError) as exc:
            list(exhaustive_connected(n_max, m_max))
        assert str(exc.value) == ("exhaustive needs N >= 1 and M_MAX >= 0, "
                                  f"got N = {n_max}, M_MAX = {m_max}")


def test_exhaustive_stops_at_m_max_plus_one_vertices(monkeypatch):
    """A connected graph on n vertices has n - 1 edges or more, so no n
    above m_max + 1 is enumerated."""
    survivors = gscolor.generators._canonical_survivors

    def bounded(n, m_max, pairs):
        assert n <= m_max + 1, f"enumerated n = {n} for m_max = {m_max}"
        return survivors(n, m_max, pairs)

    monkeypatch.setattr(gscolor.generators, "_canonical_survivors", bounded)
    corpus = list(exhaustive_connected(9, 1))
    assert [(G.vertex_count, G.m) for G in corpus] == [(1, 0), (2, 1)]


def test_exhaustive_refuses_more_than_six_vertices():
    """The canonicity key packs one digit of base 16 or more per vertex
    pair into an int64, and 7 vertices have 21 pairs, which do not fit:
    (7, 6) used to yield 20 classes of 7-vertex trees, of which there are 11."""
    with pytest.raises(ValueError, match="at most 6 vertices, got min"):
        next(exhaustive_connected(7, 6))
    # n_max only bounds n together with m_max + 1
    corpus = list(exhaustive_connected(20, 3))
    assert max(G.vertex_count for G in corpus) == 4
    assert corpus == list(exhaustive_connected(4, 3))


def test_exhaustive_refuses_keys_above_64_bits():
    """The canonicity key has one digit of base max(16, M_MAX + 1) per
    vertex pair: 6 vertices take M_MAX up to 17 (18**15 < 2**63 <= 19**15)."""
    assert next(exhaustive_connected(6, 17)).vertex_count == 1
    with pytest.raises(ValueError, match="on 6 vertices takes M_MAX <= 17, got 18"):
        next(exhaustive_connected(6, 18))
    with pytest.raises(ValueError, match="on 5 vertices takes M_MAX <= 77, got 78"):
        next(exhaustive_connected(5, 78))


def _digest(corpus) -> str:
    return hashlib.sha256("".join(map(format_multigraph, corpus)).encode()).hexdigest()


@pytest.mark.parametrize("n_max, m_max, count, digest", [
    (5, 10, 1934, "6a50b43d9fec604c156753d4edb6deb36f66d1937ccf558ab6865e7227eb05ac"),
    (5, 12, 6361, "7b99dc8d4978be12d09e49fc0d3ada45507600bbfa0fd24dbe6ed01d5fbe72d3"),
    (3, 40, 2282, "2990fdc794a7e54be687b747fb57c25ce50cb8879e72831057ee95f5dca6ecfd")])
def test_exhaustive_corpus_pinned(n_max, m_max, count, digest):
    """Each graph, its labels and the order of the corpus are pinned: the
    SHA-256 of the concatenated graph files of the block enumeration equals
    that of the earlier one that made each vector from a tuple of bar
    positions."""
    corpus = list(exhaustive_connected(n_max, m_max))
    assert (len(corpus), _digest(corpus)) == (count, digest)


@pytest.mark.parametrize("n_max, m_max", [(5, 10), (4, 20)])
def test_survivor_has_an_isolated_vertex_iff_its_first_row_is_zero(n_max, m_max):
    """A survivor is least among its relabelings, so it has an isolated
    vertex exactly when vertex 0 is one, that is when its first n - 1
    entries, the pairs of vertex 0, are zero: exhaustive_connected reads
    that off the vector before building. Both cases occur at every n."""
    for n in range(2, n_max + 1):
        pairs = list(combinations(range(n), 2))
        seen = set()
        for vec in gscolor.generators._canonical_survivors(n, m_max, pairs):
            isolated = any(all(c == 0 for pr, c in zip(pairs, vec) if v in pr)
                           for v in range(n))
            assert isolated == (not any(vec[:n - 1])), vec
            seen.add(isolated)
        assert seen == {False, True}, n


@pytest.mark.parametrize("n_max, m_max", [(4, 6), (5, 8)])
def test_exhaustive_corpus_does_not_depend_on_the_block(monkeypatch, n_max, m_max):
    """Blocks of 7 rows cut every stage of the enumeration, heads and tails
    alike, at other places than the default; the corpus stays the same."""
    want = _digest(exhaustive_connected(n_max, m_max))
    monkeypatch.setattr(gscolor.generators, "SURVIVOR_BLOCK", 7)
    assert _digest(exhaustive_connected(n_max, m_max)) == want


def test_exhaustive_corpus_holds_multiplicities_above_127():
    """Entries are stored in the narrowest type that holds M_MAX: at 300,
    int8 would wrap. Two vertices take every multiplicity 1 to 300."""
    corpus = list(exhaustive_connected(2, 300))
    assert [G.m for G in corpus] == list(range(301))
    assert [G.vertex_count for G in corpus] == [1] + [2] * 300


def test_exhaustive_lists_each_class_once_above_multiplicity_15():
    """With one 4-bit digit per pair, a multiplicity of 16 carried into the
    next digit and (4, 20) listed (0,0,17,1,1,1) and (0,1,1,0,17,1), over
    pairs 01, 02, 03, 12, 13, 23, which are isomorphic. Against the least
    relabeled pair vector over all 24 relabelings, the four-vertex graphs
    are pairwise non-isomorphic, and there are 10,333 of them."""
    pairs = list(combinations(range(4), 2))
    moves = [[pairs.index(tuple(sorted((perm[u], perm[v])))) for u, v in pairs]
             for perm in permutations(range(4))]
    four = [G for G in exhaustive_connected(4, 20) if G.vertex_count == 4]
    forms = set()
    for G in four:
        vec = [G.pair_counts().get(pr, 0) for pr in pairs]
        forms.add(min(tuple(vec[i] for i in move) for move in moves))
    assert len(four) == len(forms) == 10333


# -- color ------------------------------------------------------------------------

def test_cmd_color_petersen(capsys):
    code, out, _ = run_cli(capsys, "color", "--gen", "petersen", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["k_used"] == 4
    assert obj["v"] == 1


def test_cmd_color_shannon3(capsys):
    code, out, _ = run_cli(capsys, "color", "--gen", "shannon", "3", "--json")
    assert code == 0
    assert json.loads(out)["k_used"] == 9


def test_cmd_color_parse_error(tmp_path, capsys):
    bad = tmp_path / "bad.mg"
    bad.write_text("p multigraph x y\n")
    code, _, err = run_cli(capsys, "color", str(bad))
    assert code == 1
    assert "line 1" in err


def test_cmd_color_file_and_out(tmp_path, capsys):
    path = tmp_path / "g.mg"
    path.write_text(format_multigraph(shannon_triangle(2)))
    out_path = tmp_path / "res.json"
    code, _, _ = run_cli(capsys, "color", str(path), "--json",
                         "--out", str(out_path))
    assert code == 0
    assert json.loads(out_path.read_text())["k_used"] == 6


# -- report -----------------------------------------------------------------------

def test_cmd_report_petersen(capsys):
    code, out, _ = run_cli(capsys, "report", "--gen", "petersen", "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["gs_upper"] == 4 and obj["gamma"] == {"num": 3, "den": 1}


def test_cmd_report_shannon2(capsys):
    code, out, _ = run_cli(capsys, "report", "--gen", "shannon", "2", "--json")
    obj = json.loads(out)
    assert obj["shannon"] == obj["vizing"] == obj["gs_upper"] == 6


def test_cmd_report_empty_graph(tmp_path, capsys):
    path = tmp_path / "empty.mg"
    path.write_text("p multigraph 0 0\n")
    code, out, _ = run_cli(capsys, "report", str(path), "--json")
    assert code == 0
    obj = json.loads(out)
    assert obj["delta"] == obj["m"] == obj["lower"] == 0
    assert obj["gs_upper"] == 1


# -- verify -----------------------------------------------------------------------

def _write_instance(tmp_path, G, capsys):
    gpath = tmp_path / "g.mg"
    gpath.write_text(format_multigraph(G))
    rpath = tmp_path / "r.json"
    code, _, _ = run_cli(capsys, "color", str(gpath), "--json",
                         "--out", str(rpath))
    assert code == 0
    return gpath, rpath


def test_cmd_verify_round_trip(tmp_path, capsys):
    gpath, rpath = _write_instance(tmp_path, petersen(), capsys)
    code, _, _ = run_cli(capsys, "verify", str(gpath), str(rpath))
    assert code == 0


def test_cmd_verify_corrupted(tmp_path, capsys):
    gpath, rpath = _write_instance(tmp_path, petersen(), capsys)
    obj = json.loads(rpath.read_text())
    obj["assignment"][1][1] = obj["assignment"][0][1]   # clash on shared vertex
    rpath.write_text(json.dumps(obj))
    code, _, _ = run_cli(capsys, "verify", str(gpath), str(rpath))
    assert code == 1


def test_cmd_verify_wrong_graph(tmp_path, capsys):
    _, rpath = _write_instance(tmp_path, petersen(), capsys)
    other = tmp_path / "other.mg"
    other.write_text(format_multigraph(shannon_triangle(2)))
    code, _, _ = run_cli(capsys, "verify", str(other), str(rpath))
    assert code == 3


def _with(key, value):
    return lambda obj: {**obj, key: value}


def _first_color(value):
    def edit(obj):
        obj["assignment"][0][1] = value
        return obj
    return edit


def _certificate(u, den):
    return _with("certificates", [{"u": u, "value": {"num": 3, "den": den}, "k": 3}])


# result-file edits that break the schema; each must give exit 3, not a traceback
MALFORMED = {
    "assignment_int": _with("assignment", 5),
    "assignment_triples": _with("assignment", [[0, 1, 1]]),
    "k_used_str": _with("k_used", "3"),
    "color_str": _first_color("1"),
    "color_float": _first_color(1.5),
    "version_missing": lambda obj: {k: v for k, v in obj.items() if k != "v"},
    "version_2": _with("v", 2),
    "trace_dict": _with("trace", {"0": "direct"}),
    "trace_unknown_edge": _with("trace", [[99, "direct"]]),
    "trace_repeated_edge": _with("trace", [[0, "direct"], [0, "direct"]]),
    "trace_unknown_method": _with("trace", [[0, "magic"]]),
    "den_zero": _certificate([0, 1, 2], 0),
    "cert_u_nested": _certificate([[0]], 1),
    "cert_u_repeated": _certificate([0, 1, 2, 0, 0], 1),
    "top_level_list": lambda obj: [obj],
    # above m + 1 colors, which no result needs; a color this large must not
    # size a bitmask (it used to raise MemoryError)
    "k_used_huge": lambda obj: _first_color(2 ** 62)({**obj, "k_used": 2 ** 62}),
}


@pytest.mark.parametrize("edit", MALFORMED.values(), ids=MALFORMED.keys())
def test_cmd_verify_malformed_result(tmp_path, capsys, edit):
    gpath, rpath = _write_instance(tmp_path, petersen(), capsys)
    rpath.write_text(json.dumps(edit(json.loads(rpath.read_text()))))
    code, _, err = run_cli(capsys, "verify", str(gpath), str(rpath))
    assert code == 3
    assert err.count("\n") == 1 and "Traceback" not in err


# ring(5, 2) and its result as an older version wrote it, with the "seed"
# key that results no longer carry
RING5X2 = ("p multigraph 5 10\ne 0 1\ne 0 1\ne 1 2\ne 1 2\ne 2 3\ne 2 3\n"
           "e 3 4\ne 3 4\ne 4 0\ne 4 0\n")
OLD_RESULT = (
    '{"v":1,"k_used":5,"seed":7,"assignment":[[0,1],[1,2],[2,3],[3,4],[4,1],'
    '[5,5],[6,2],[7,3],[8,4],[9,5]],"trace":[[0,"direct"],[1,"direct"],'
    '[2,"direct"],[3,"direct"],[4,"direct"],[5,"direct"],[6,"direct"],'
    '[7,"direct"],[8,"direct"],[9,"fallback"]],"certificates":[]}')


def test_cmd_verify_accepts_result_with_seed(tmp_path, capsys):
    gpath, rpath = tmp_path / "ring.mg", tmp_path / "ring.json"
    gpath.write_text(RING5X2)
    rpath.write_text(OLD_RESULT)
    assert parse_multigraph(RING5X2) == ring(5, 2)
    assert run_cli(capsys, "verify", str(gpath), str(rpath)) == (0, "", "")


def test_cmd_verify_out_of_range_colors_fail_verification(tmp_path, capsys):
    # well-formed but wrong: a clean verification failure, not a load error
    gpath, rpath = _write_instance(tmp_path, petersen(), capsys)
    for bad in (0, 10 ** 30):
        obj = json.loads(rpath.read_text())
        obj["assignment"][0][1] = bad
        rpath.write_text(json.dumps(obj))
        code, _, err = run_cli(capsys, "verify", str(gpath), str(rpath))
        assert (code, err) == (1, "verification failed\n")


# -- bench ------------------------------------------------------------------------

def test_cmd_bench_deterministic(capsys):
    args = ("bench", "--gen", "random", "8", "16", "1", "--gen", "petersen",
            "--oracle")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0].startswith("# gscolor bench csv v1")
    assert lines[1].split(",")[:3] == ["idx", "spec", "n"]
    assert len(lines) == 4


def test_cmd_bench_scans_density_once_per_row(capsys, monkeypatch):
    """Each row computes one bound report and colors against it."""
    from gscolor import cli, density, engine
    calls = []

    def counted(G):
        calls.append(G)
        return density.bound_report(G)

    monkeypatch.setattr(cli, "bound_report", counted)
    monkeypatch.setattr(engine, "bound_report", counted)
    code, out, _ = run_cli(capsys, "bench", "--gen", "petersen", "--gen",
                           "shannon", "2", "--gen", "ring", "5", "2", "--oracle")
    assert code == 0
    assert out.splitlines()[2:] == ["0,petersen,10,15,3,1,3/1,4,4,15,0,0,0,ok",
                                    "1,shannon 2,3,6,4,2,6/1,6,6,6,0,0,0,ok",
                                    "2,ring 5 2,5,10,4,2,5/1,5,5,9,0,0,1,ok"]
    assert len(calls) == 3


def test_cmd_bench_empty(capsys):
    code, out, _ = run_cli(capsys, "bench")
    assert code == 0
    assert len(out.strip().splitlines()) == 2     # comment + header only


def test_cmd_bench_exhaustive_slice(capsys):
    code, out, _ = run_cli(capsys, "bench", "--gen", "exhaustive", "3", "4",
                           "--oracle")
    assert code == 0
    rows = out.strip().splitlines()[2:]
    assert len(rows) == 11
    assert all(row.split(",")[-1] == "ok" for row in rows)


@pytest.mark.parametrize("oracle", [(), ("--oracle",)], ids=["plain", "oracle"])
def test_cmd_bench_incomplete_row_fails_the_run(capsys, oracle):
    """ring(9, 3) ends incomplete; above 25 edges the oracle is skipped,
    which must not hide that: the row stays incomplete and bench exits 4."""
    code, out, _ = run_cli(capsys, "bench", "--gen", "ring", "9", "3", *oracle)
    assert code == 4
    assert out.splitlines()[2] == "0,ring 9 3,9,27,6,3,27/4,,,,,,,incomplete"


def test_cmd_bench_oracle_skipped_row_passes(capsys):
    """shannon(9) has 27 edges, so the oracle is skipped on a row that is
    otherwise ok, and bench exits 0."""
    code, out, _ = run_cli(capsys, "bench", "--gen", "shannon", "9", "--oracle")
    assert code == 0
    assert out.splitlines()[2].endswith(",oracle-skipped")


@pytest.mark.parametrize("k_over, chi_over, oracle, status", [
    (1, 0, (), "bound-violation"),
    (1, 0, ("--oracle",), "bound-violation"),
    (1, 1, ("--oracle",), "bound-violation"),
    (0, 1, ("--oracle",), "sandwich-violation"),
    (0, 1, (), "ok"),
], ids=["bound-plain", "bound-oracle", "bound-before-sandwich", "sandwich",
        "sandwich-needs-oracle"])
def test_cmd_bench_status_rule(capsys, monkeypatch, k_over, chi_over, oracle,
                               status):
    """A forged k_used above gs_upper is a bound violation with or without
    the oracle, and wins over a forged chi' outside the sandwich, which only
    the oracle reports; any violation exits 4."""
    from gscolor import PartialColoring, bound_report, cli
    from gscolor.engine import ColoringResult
    G = petersen()
    upper = bound_report(G).gs_upper
    monkeypatch.setattr(cli, "_color", lambda G, rep: ColoringResult(
        PartialColoring(G, upper + k_over), [], {}))
    monkeypatch.setattr(cli, "chromatic_index_exact", lambda G: upper + chi_over)
    code, out, _ = run_cli(capsys, "bench", "--gen", "petersen", *oracle)
    assert out.splitlines()[2].endswith("," + status)
    assert code == (0 if status == "ok" else 4)


def test_cmd_bench_timings_column(capsys):
    code, out, _ = run_cli(capsys, "bench", "--gen", "petersen", "--timings")
    assert code == 0
    assert out.splitlines()[1].endswith("time_s")


def test_cmd_bench_timings_keep_the_status_rule(capsys):
    """The time_s column follows the status, and an incomplete row still
    fails the run when it is there."""
    code, out, _ = run_cli(capsys, "bench", "--gen", "ring", "9", "3", "--timings")
    assert code == 4
    assert re.fullmatch(r"0,ring 9 3,9,27,6,3,27/4,,,,,,,incomplete,\d+\.\d{6}",
                        out.splitlines()[2])


# -- round trip through the text format ---------------------------------------------

def test_format_parse_round_trip_on_generators():
    for G in (petersen(), shannon_triangle(3), ring(5, 2),
              random_multigraph(6, 9, 4)):
        assert parse_multigraph(format_multigraph(G)) == G


def test_cmd_color_incomplete_exit_code(capsys):
    # heuristics alone cannot finish this instance at the guaranteed bound,
    # and with m = 27 it lies above the exact fallback's 25-edge cap
    code, _, err = run_cli(capsys, "color", "--gen", "ring", "9", "3")
    assert code == 2
    with pytest.raises(IncompleteColoringError) as exc:
        color(ring(9, 3))
    # one line, saying "incomplete (budget)" once and naming the edge
    assert exc.value.edge == 25
    assert err == "incomplete (budget) at k=7, edge 25\n"


def _result_files(tmp_path, name, G, colors, k_used, certificates=()):
    """G and a result that colors its edges, in id order, with `colors`."""
    gpath = tmp_path / f"{name}.mg"
    gpath.write_text(format_multigraph(G))
    rpath = tmp_path / f"{name}-{k_used}-{len(certificates)}.json"
    rpath.write_text(json.dumps({
        "v": 1, "k_used": k_used, "seed": 0, "certificates": list(certificates),
        "assignment": [[e, c] for e, c in zip(G.edge_ids, colors)],
        "trace": [[e, "direct"] for e in G.edge_ids]}))
    return str(gpath), str(rpath)


# graph files whose integers int() reads but the format does not allow
_NON_DECIMAL_GRAPHS = {
    "underscore_header": "p multigraph 1_1 2\ne 0 10\ne 1 2\n",
    "underscore_edge": "p multigraph 11 2\ne 0 1_0\ne 1 2\n",
    "plus_edge": "p multigraph 11 2\ne 0 10\ne +1 2\n",
    "arabic_edge": "p multigraph 11 1\ne 0 \u0661\u0660\n",
}


def _ring17_files(tmp_path, k_used):
    """ring(17), one vertex above the density cap, with a proper 3-coloring
    that offers k_used colors."""
    colors = [1 + i % 2 for i in range(16)] + [3]
    return _result_files(tmp_path, "ring17", ring(17), colors, k_used)


@pytest.mark.parametrize("argv, code, message", [
    (["color", "--gen", "ring", "17"], 1, "graph too large"),
    (["report", "--gen", "ring", "17"], 1, "graph too large"),
    (["verify", "{graph}", "{result}"], 1, "graph too large"),
    (["bench", "--gen", "ring", "17"], 1, "graph too large"),
    (["bench", "{graph}"], 1, "graph too large"),
    (["color", "{missing}"], 1, "cannot read graph"),
    (["report", "{missing}"], 1, "cannot read graph"),
    (["verify", "{missing}", "{result}"], 1, "cannot read graph"),
    (["verify", "{graph}", "{missing}"], 3, "cannot read result"),
    (["color", "--gen", "ring", "x"], 1, "bad generator"),
    (["report", "--gen", "ring", "x"], 1, "bad generator"),
    (["color", "--gen", "shannon"], 1, "bad generator"),
    (["color", "--gen", "random", "5"], 1, "bad generator"),
    (["color", "--gen", "foo"], 1, "bad generator"),
    (["color", "--gen", "ring", "2"], 1, "bad generator"),
    (["report", "--gen", "petersen", "3"], 1, "bad generator"),
    (["color", "--gen", "random", "5", "-3", "1"], 1, "bad generator"),
    (["color", "--gen", "ring", str(2 ** 20 + 1)], 1, "bad generator"),
    (["report", "--gen", "random", str(2 ** 20 + 1), "3", "1"], 1, "bad generator"),
    (["color", "--gen", "random", "10", str(2 ** 22 + 1), "1"], 1, "bad generator"),
    (["report", "--gen", "ring", "4", str(2 ** 20 + 1)], 1, "bad generator"),
    (["color", "--gen", "shannon", str(2 ** 22 // 3 + 1)], 1, "bad generator"),
    (["bench", "--gen", "random", "10", str(2 ** 22 + 1), "1"], 1, "bad generator"),
    (["color", "{graph}", "--gen", "petersen"], 1, "exactly one of"),
    (["report", "{graph}", "--gen", "petersen"], 1, "exactly one of"),
    (["color"], 1, "exactly one of"),
    (["bench", "--gen", "ring", "x"], 1, "bad generator"),
    (["bench", "--gen", "exhaustive", "5"], 1, "bad generator"),
    (["bench", "--gen", "exhaustive", "5", "-1"], 1, "bad generator"),
    (["bench", "--gen", "exhaustive", "0", "3"], 1, "bad generator"),
    (["bench", "--gen", "exhaustive", "7", "6"], 1, "bad generator"),
    (["bench", "{missing}"], 1, "cannot read graph"),
    (["color", "{binary}"], 1, "cannot read graph"),
    (["report", "{binary}"], 1, "cannot read graph"),
    (["verify", "{binary}", "{result}"], 1, "cannot read graph"),
    (["bench", "{binary}"], 1, "cannot read graph"),
    (["verify", "{graph}", "{nested}"], 3, "invalid result"),
    (["color", "--gen", "petersen", "--out", "{unwritable}"], 1, "cannot write output"),
    (["report", "--gen", "petersen", "--out", "{unwritable}"], 1, "cannot write output"),
    (["bench", "--gen", "petersen", "--out", "{unwritable}"], 1, "cannot write output"),
    (["color", "{underscore_header}"], 1, "parse error: line 1: bad header counts"),
    (["color", "{underscore_edge}"], 1, "parse error: line 2: bad edge endpoints"),
    (["color", "{plus_edge}"], 1, "parse error: line 3: bad edge endpoints"),
    (["report", "{arabic_edge}"], 1, "parse error: line 2: bad edge endpoints"),
    (["color", "--gen", "ring", "1_1", "2"], 1, "bad generator: ring arguments"),
    (["bench", "--gen", "exhaustive", "2", "x"], 1,
     "bad generator: exhaustive arguments must be integers"),
], ids=["color-too-large", "report-too-large", "verify-too-large",
        "bench-too-large", "bench-too-large-file",
        "color-missing-graph", "report-missing-graph", "verify-missing-graph",
        "verify-missing-result", "color-gen-non-integer", "report-gen-non-integer",
        "color-gen-missing-arg", "color-gen-random-missing-args",
        "color-gen-unknown", "color-gen-ring-too-small", "report-gen-extra-arg",
        "color-gen-random-negative-m", "color-gen-ring-above-vertex-limit",
        "report-gen-random-above-vertex-limit",
        "color-gen-random-above-edge-limit", "report-gen-ring-above-edge-limit",
        "color-gen-shannon-above-edge-limit", "bench-gen-random-above-edge-limit",
        "color-path-and-gen",
        "report-path-and-gen", "color-neither-path-nor-gen",
        "bench-gen-non-integer", "bench-gen-exhaustive-missing-arg",
        "bench-gen-exhaustive-negative-m", "bench-gen-exhaustive-no-vertices",
        "bench-gen-exhaustive-above-six-vertices",
        "bench-missing-graph", "color-non-utf8-graph", "report-non-utf8-graph",
        "verify-non-utf8-graph", "bench-non-utf8-graph", "verify-nested-result", "color-unwritable-out",
        "report-unwritable-out", "bench-unwritable-out",
        "color-underscore-header", "color-underscore-endpoint", "color-plus-endpoint",
        "report-arabic-indic-endpoint", "color-gen-underscore",
        "bench-gen-exhaustive-non-integer"])
def test_unusable_inputs_exit_with_one_line(tmp_path, capsys, argv, code, message):
    # k_used = 4 > Delta + 1 with no certificate: only Gamma settles the bound
    graph, result = _ring17_files(tmp_path, 4)
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200000 + "]" * 200000)
    binary = tmp_path / "binary.mg"
    binary.write_bytes(b"p multigraph 2 1\ne 0 1\xff\n")
    for name, text in _NON_DECIMAL_GRAPHS.items():
        (tmp_path / f"{name}.mg").write_text(text, encoding="utf-8")
    paths = {name: str(tmp_path / f"{name}.mg") for name in _NON_DECIMAL_GRAPHS}
    paths |= {"graph": graph, "result": result, "nested": str(nested),
              "binary": str(binary),
              "missing": str(tmp_path / "missing.mg"),
              "unwritable": str(tmp_path / "no-such-dir" / "out.json")}
    got, out, err = run_cli(capsys, *[a.format(**paths) for a in argv])
    assert got == code
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1


def test_verify_above_the_cap_when_delta_or_a_certificate_settles_the_bound(
        tmp_path, capsys):
    """verify needs Gamma only for k_used > Delta + 1 with no certificate
    above k_used - 1, so graphs above the density cap verify otherwise."""
    assert run_cli(capsys, "verify", *_ring17_files(tmp_path, 3)) == (0, "", "")
    # shannon_triangle(2) plus 14 isolated vertices: n = 17, Delta = 4, Gamma = 6
    T = shannon_triangle(2)
    G = Multigraph.build(17, [T.endpoints(e) for e in T.edge_ids])
    cert = {"u": [0, 1, 2], "value": {"num": 6, "den": 1}, "k": 5}
    files = _result_files(tmp_path, "shannon17", G, range(1, 7), 6, [cert])
    assert run_cli(capsys, "verify", *files) == (0, "", "")
    files = _result_files(tmp_path, "shannon17", G, range(1, 7), 6)
    code, out, err = run_cli(capsys, "verify", *files)
    assert (code, out) == (1, "")
    assert err.startswith("graph too large") and err.count("\n") == 1


_LAZY_NUMPY = """
import json, sys
import gscolor, gscolor.cli
from gscolor.generators import petersen
imported = sorted({"dataclasses", "inspect", "numpy"} & sys.modules.keys())
codes = [gscolor.cli.main(["verify", sys.argv[1], sys.argv[2]])]
codes += [gscolor.cli.main([command, "--gen", *spec])
          for spec in (["ring", "7", "3"], ["petersen"])
          for command in ("color", "report")]
exact = gscolor.chromatic_index_exact(petersen())
_, _, evidence = gscolor.color_at_k(petersen(), 3)
codes.append(gscolor.cli.main(["verify", sys.argv[3], sys.argv[4]]))
colored = gscolor.color(petersen()).to_json()
loaded = "numpy" in sys.modules
print(json.dumps([imported, codes, exact, evidence.kind, loaded, colored,
                  gscolor.cli.main(["report", "--gen", "ring", "11", "3"]),
                  "numpy" in sys.modules,
                  len(list(gscolor.generators.exhaustive_connected(3, 3)))]))
"""


def test_import_and_verify_leave_numpy_unloaded(tmp_path, capsys):
    """`import gscolor.cli` loads neither numpy nor `dataclasses` (nor the
    `inspect` it would bring). `color` and `report` on graphs of at most 10
    vertices (ring(7, 3) and Petersen, whose density scans are plain
    python), the exact search (chromatic_index_exact, and the fallback that
    color_at_k(petersen, 3) reaches after the series) and a verify that
    needs no density scan never load numpy: neither for a Delta+1 result nor
    for a `color --gen shannon 2` result, which proves its bound with its
    certificate. The density scan of ring(11, 3)'s 11 vertices still
    imports it."""
    G = petersen()
    graph, result = tmp_path / "petersen.mg", tmp_path / "result.json"
    graph.write_text(format_multigraph(G))
    result.write_text(gscolor.color(G).to_json())
    fat, fat_result = tmp_path / "shannon.mg", tmp_path / "shannon.json"
    fat.write_text(format_multigraph(shannon_triangle(2)))
    assert main(["color", "--gen", "shannon", "2", "--out", str(fat_result)]) == 0
    assert json.loads(fat_result.read_text())["certificates"]
    capsys.readouterr()
    src = str(Path(gscolor.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", _LAZY_NUMPY, str(graph), str(result),
                          str(fat), str(fat_result)],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    (imported, codes, exact, kind, loaded, colored, report_code, loaded_later,
     count) = json.loads(run.stdout.splitlines()[-1])
    assert imported == []
    assert (codes, exact, kind, loaded) == ([0] * 6, 4, "budget_exhausted", False)
    assert colored == gscolor.color(G).to_json()
    assert (report_code, loaded_later) == (0, True)
    assert count == len(list(exhaustive_connected(3, 3)))


_LAZY_MODULES = """
import hashlib, json, sys
import gscolor
def loaded():
    return sorted(m for m in sys.modules if m.startswith("gscolor.") or m == "csv")
seen = [loaded()]
graph, result, shannon, out = sys.argv[1:]
codes = [gscolor.cli.main(["verify", graph, result])]
seen.append(loaded())
codes.append(gscolor.cli.main(["color", shannon, "--out", out]))
seen.append(loaded())
codes.append(gscolor.cli.main(["color", "--gen", "petersen", "--out", out]))
seen.append(loaded())
from gscolor.generators import petersen
colored = gscolor.color(petersen()).to_json()
print(json.dumps([seen, codes, type(gscolor.density).__name__,
                  hashlib.sha256(colored.encode()).hexdigest()]))
"""

# sha256 of color(petersen()).to_json(): a Delta+1 result
PETERSEN_JSON = "c9e94cbb0ece5f00275afcf7602574cb2fa19437d7242aac569992fbbfb10e6d"


def test_each_command_loads_only_what_it_runs(tmp_path):
    """In a fresh process, `import gscolor` loads no submodule. `verify` of a
    Delta+1 result loads neither the series (tashkinov) nor the generators
    nor csv, and neither does `color` of a graph file whose edges never
    resist the chain swap (shannon_triangle(2)). `color --gen petersen`
    loads the generators for --gen and the series for the edge that the
    chain swap leaves uncolored. Names and submodules still resolve on the
    package: gscolor.density is a module and gscolor.color gives the pinned
    result."""
    graph, result = tmp_path / "petersen.mg", tmp_path / "petersen.json"
    graph.write_text(format_multigraph(petersen()))
    result.write_text(color(petersen()).to_json())
    assert hashlib.sha256(result.read_bytes()).hexdigest() == PETERSEN_JSON
    shannon = tmp_path / "shannon.mg"
    shannon.write_text(format_multigraph(shannon_triangle(2)))
    src = str(Path(gscolor.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", _LAZY_MODULES, str(graph), str(result),
                          str(shannon), str(tmp_path / "out.json")],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert run.returncode == 0, run.stderr
    seen, codes, kind, digest = json.loads(run.stdout.splitlines()[-1])
    core = ["gscolor._kernels", "gscolor.cli", "gscolor.coloring", "gscolor.density",
            "gscolor.engine", "gscolor.graph"]
    assert seen == [[], core, core,
                    sorted(core + ["gscolor.generators", "gscolor.tashkinov"])]
    assert codes == [0, 0, 0]
    assert (kind, digest) == ("module", PETERSEN_JSON)


_NO_NUMPY = """
import sys
import tracemalloc
sys.modules["numpy"] = None     # every import of numpy now fails
from gscolor.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("argv", [["report", "--gen", "ring", "11", "3"],
                                  ["bench", "--gen", "exhaustive", "3", "3"]],
                         ids=["report-ring-11", "bench-exhaustive"])
def test_missing_numpy_exits_with_one_line(argv):
    """Where numpy cannot be imported, a command that needs it (a Gamma scan
    above 10 vertices, the exhaustive corpus) exits 1 with one stderr line,
    not a traceback."""
    src = str(Path(gscolor.__file__).parents[1])
    run = subprocess.run([sys.executable, "-c", _NO_NUMPY, *argv],
                         capture_output=True, text=True, timeout=120,
                         env=dict(os.environ, PYTHONPATH=src))
    assert (run.returncode, run.stdout) == (1, "")
    assert run.stderr.startswith("missing dependency: ")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr


def test_startup_script_prints_one_row_per_command(stage_bench_smoke):
    """The startup rows of benchmarks/stage_bench.py: a row per command, each
    with a yes/no for numpy, dataclasses and inspect (the times are checked
    by test_stage_bench), and the gscolor submodules it loaded."""
    record, _ = stage_bench_smoke
    startup = [r for r in record["rows"] if r["stage"] == "startup"]
    assert [r["case"] for r in startup] == [
        "bare interpreter", "import gscolor", "color --gen petersen --out R",
        "verify petersen R", "report --gen ring 11 3"]
    for r in startup:
        assert {r[w] for w in ("numpy", "dataclasses", "inspect")} <= {"yes", "no"}
    modules = [r["gscolor"].split(",") for r in startup]
    assert modules[:2] == [["-"], ["-"]]
    assert "tashkinov" in modules[2] and "tashkinov" not in modules[3]


def test_report_rejects_run_flags(capsys):
    """--fallback-threshold, --budget, --seed and --jobs are usage errors
    everywhere: the fallback's edge count and the search depth --budget set
    are constants, a result no longer records a seed, and bench runs its
    rows in one process."""
    for command, flag in [("report", "--seed"), ("report", "--fallback-threshold"),
                          ("color", "--fallback-threshold"),
                          ("bench", "--fallback-threshold"), ("bench", "--jobs"),
                          ("report", "--budget"), ("color", "--budget"),
                          ("bench", "--budget"), ("color", "--seed"),
                          ("bench", "--seed")]:
        with pytest.raises(SystemExit) as exc:
            main([command, "--gen", "petersen", flag, "2"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


def test_bench_rejects_json_flag(capsys):
    """bench writes CSV; --json would be ignored, so it is a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--gen", "petersen", "--json"])
    assert exc.value.code == 2


def test_gs_seed_env_default(tmp_path, capsys, monkeypatch):
    """GS_SEED, which once set a recorded seed, changes no output byte."""
    monkeypatch.delenv("GS_SEED", raising=False)
    plain = run_cli(capsys, "color", "--gen", "petersen", "--json")
    for value in ("42", "abc"):
        monkeypatch.setenv("GS_SEED", value)
        assert run_cli(capsys, "color", "--gen", "petersen", "--json") == plain
    assert plain[0] == 0 and "seed" not in json.loads(plain[1])


def _unreachable(*args, **kwargs):
    raise AssertionError("the work ran before --out was checked")


@pytest.mark.parametrize("argv", [
    ["color", "--gen", "petersen"],
    ["report", "--gen", "petersen"],
    ["bench", "--gen", "exhaustive", "5", "10", "--oracle"],
], ids=["color", "report", "bench"])
def test_unwritable_out_fails_before_the_work(tmp_path, capsys, monkeypatch, argv):
    from gscolor import cli
    for name in ("color", "bound_report", "_bench_row", "_bench_instances"):
        monkeypatch.setattr(cli, name, _unreachable)
    out = str(tmp_path / "no-such-dir" / "out")
    code, stdout, err = run_cli(capsys, *argv, "--out", out)
    assert (code, stdout) == (1, "")
    assert err.startswith("cannot write output") and err.count("\n") == 1


def test_out_probe_leaves_files_as_it_found_them(tmp_path, capsys):
    """A run that fails after the --out check neither leaves a new file
    behind nor truncates an existing one."""
    fresh, kept = tmp_path / "fresh.json", tmp_path / "kept.json"
    kept.write_text("keep")
    for path in (fresh, kept):
        code, _, err = run_cli(capsys, "color", "--gen", "ring", "17", "--out", str(path))
        assert code == 1 and err.startswith("graph too large")
    assert not fresh.exists()
    assert kept.read_text() == "keep"


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_bench_rejects_jobs_below_one(capsys, jobs):
    """bench runs its rows in one process and has no --jobs, so a worker
    count it once refused as below one stays a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--gen", "petersen", "--jobs", jobs])
    assert exc.value.code == 2
    assert "unrecognized arguments: --jobs" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["color", "bench"])
@pytest.mark.parametrize("threshold", ["26", "-1"])
def test_fallback_threshold_outside_the_oracle_cap(capsys, command, threshold):
    """The fallback's edge count is the constant ORACLE_EDGE_CAP, so a
    --fallback-threshold outside 0..25, once refused by a range check, stays
    a usage error: the flag itself is gone."""
    with pytest.raises(SystemExit) as exc:
        main([command, "--gen", "ring", "5", "30", "--fallback-threshold", threshold])
    assert exc.value.code == 2
    assert "unrecognized arguments: --fallback-threshold" in capsys.readouterr().err


def _stdout_target(kind, stack):
    """A stdout for the child that fails every write: /dev/full, or a pipe
    whose read end is closed before the child starts, so no timing decides
    where the write fails."""
    if kind == "full":
        if not os.path.exists("/dev/full"):
            pytest.skip("no /dev/full")
        return stack.enter_context(open("/dev/full", "wb"))
    read_end, write_end = os.pipe()
    os.close(read_end)
    stack.callback(os.close, write_end)
    return write_end


@pytest.mark.parametrize("target", ["full", "closed-pipe"])
@pytest.mark.parametrize("command", ["color", "report", "bench"])
def test_failed_stdout_write_exits_with_one_line(command, target):
    """A stdout that refuses the output (a full device, a pipe with no
    reader) gives exit 1 and one `cannot write output` line, as an
    unwritable --out does, not a traceback. The child's stdout is
    buffered, as it is by default, so the write can succeed and only the
    flush fail."""
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(gscolor.__file__).parents[1])
    with contextlib.ExitStack() as stack:
        run = subprocess.run([sys.executable, "-m", "gscolor.cli", command, "--gen",
                              "petersen"], stdout=_stdout_target(target, stack),
                             stderr=subprocess.PIPE, text=True, timeout=120, env=env)
    assert run.returncode == 1, run.stderr
    assert run.stderr.startswith("cannot write output: ")
    assert run.stderr.count("\n") == 1 and "Traceback" not in run.stderr


def test_only_main_names_stderr():
    """Commands and helpers raise; `main` alone writes the failure line, so
    no other code in cli.py names stderr."""
    from gscolor import cli
    tree = ast.parse(Path(cli.__file__).read_text())
    main_def = next(node for node in tree.body
                    if isinstance(node, ast.FunctionDef) and node.name == "main")
    in_main = {id(node) for node in ast.walk(main_def)}
    named = [node for node in ast.walk(tree)
             if "stderr" in (getattr(node, "attr", None), getattr(node, "id", None),
                             getattr(node, "name", None))]
    assert named and all(id(node) in in_main for node in named)


@pytest.mark.parametrize("argv, message", [
    (["bench", "--gen", "exhaustive", "5"], "exhaustive takes 2 argument(s), got 1"),
    (["bench", "--gen", "exhaustive", "1", "2", "3"],
     "exhaustive takes 2 argument(s), got 3"),
    (["bench", "--gen", "exhaustive", "+2", "3"],
     "exhaustive arguments must be integers, got ['+2', '3']"),
    (["color", "--gen", "ring", "5", "2", "1"], "ring takes 1 to 2 argument(s), got 3"),
    (["color", "--gen", "ring", "5", "x"],
     "ring arguments must be integers, got ['5', 'x']"),
], ids=["exhaustive-missing", "exhaustive-extra", "exhaustive-plus",
        "ring-extra", "ring-non-integer"])
def test_generator_arguments_are_checked_in_one_place(capsys, argv, message):
    """`bench --gen exhaustive` and the named generators word their argument
    errors alike: both go through generators.spec_ints."""
    assert run_cli(capsys, *argv) == (1, "", f"bad generator: {message}\n")
