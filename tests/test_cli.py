import json

import pytest

from gscolor import format_multigraph, parse_multigraph
from gscolor.cli import main
from gscolor.generators import (exhaustive_connected, from_spec, petersen,
                                random_multigraph, ring, shannon_triangle)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- generators -----------------------------------------------------------------

def test_generator_specs():
    assert from_spec(["petersen"]).stats() == (10, 15, 3, 1)
    assert from_spec(["shannon", "3"]).stats() == (3, 9, 6, 3)
    assert from_spec(["ring", "5", "2"]).stats() == (5, 10, 4, 2)
    a = from_spec(["random", "6", "10", "7"])
    b = from_spec(["random", "6", "10", "7"])
    assert a == b
    with pytest.raises(ValueError):
        from_spec(["nope"])


@pytest.mark.parametrize("spec", [
    ["petersen", "1"], ["shannon"], ["shannon", "x"], ["ring"],
    ["ring", "5", "2", "1"], ["ring", "2"], ["random", "5"],
    ["random", "5", "10", "1", "2"]])
def test_bad_generator_specs_raise_value_error(spec):
    with pytest.raises(ValueError):
        from_spec(spec)


def test_random_generator_respects_mu_cap():
    G = random_multigraph(4, 20, 1, mu_max=4)
    assert G.max_multiplicity() <= 4


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


def test_cmd_bench_timings_column(capsys):
    code, out, _ = run_cli(capsys, "bench", "--gen", "petersen", "--timings")
    assert code == 0
    assert out.splitlines()[1].endswith("time_s")


# -- round trip through the text format ---------------------------------------------

def test_format_parse_round_trip_on_generators():
    for G in (petersen(), shannon_triangle(3), ring(5, 2),
              random_multigraph(6, 9, 4)):
        assert parse_multigraph(format_multigraph(G)) == G


def test_cmd_color_incomplete_exit_code(tmp_path, capsys):
    # heuristics alone cannot finish this instance at the guaranteed bound;
    # with the exact fallback disabled the CLI reports incomplete (budget)
    pairs = [(0, 3), (0, 3), (0, 4), (0, 4), (1, 2), (1, 2), (1, 3), (1, 4),
             (2, 3), (2, 4)]
    from gscolor import Multigraph
    path = tmp_path / "hard.mg"
    path.write_text(format_multigraph(Multigraph.build(5, pairs)))
    code, _, err = run_cli(capsys, "color", str(path),
                           "--fallback-threshold", "0")
    assert code == 2
    assert "incomplete" in err


def _ring17_files(tmp_path):
    """ring(17), one vertex above the density cap, with a proper 3-coloring."""
    G = ring(17)
    gpath = tmp_path / "ring17.mg"
    gpath.write_text(format_multigraph(G))
    colors = [1 + i % 2 for i in range(16)] + [3]
    rpath = tmp_path / "ring17.json"
    rpath.write_text(json.dumps({
        "v": 1, "k_used": 3, "seed": 0, "certificates": [],
        "assignment": [[e, c] for e, c in zip(G.edge_ids, colors)],
        "trace": [[e, "direct"] for e in G.edge_ids]}))
    return str(gpath), str(rpath)


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
    (["bench", "--gen", "ring", "x"], 1, "bad generator"),
    (["bench", "--gen", "exhaustive", "5"], 1, "bad generator"),
    (["bench", "--gen", "exhaustive", "5", "-1"], 1, "bad generator"),
    (["bench", "--gen", "exhaustive", "0", "3"], 1, "bad generator"),
    (["bench", "{missing}"], 1, "cannot read graph"),
    (["verify", "{graph}", "{nested}"], 3, "invalid result"),
    (["color", "--gen", "petersen", "--out", "{unwritable}"], 1, "cannot write output"),
    (["report", "--gen", "petersen", "--out", "{unwritable}"], 1, "cannot write output"),
    (["bench", "--gen", "petersen", "--out", "{unwritable}"], 1, "cannot write output"),
], ids=["color-too-large", "report-too-large", "verify-too-large",
        "bench-too-large", "bench-too-large-file",
        "color-missing-graph", "report-missing-graph", "verify-missing-graph",
        "verify-missing-result", "color-gen-non-integer", "report-gen-non-integer",
        "color-gen-missing-arg", "color-gen-random-missing-args",
        "color-gen-unknown", "color-gen-ring-too-small", "report-gen-extra-arg",
        "bench-gen-non-integer", "bench-gen-exhaustive-missing-arg",
        "bench-gen-exhaustive-negative-m", "bench-gen-exhaustive-no-vertices",
        "bench-missing-graph", "verify-nested-result", "color-unwritable-out",
        "report-unwritable-out", "bench-unwritable-out"])
def test_unusable_inputs_exit_with_one_line(tmp_path, capsys, argv, code, message):
    graph, result = _ring17_files(tmp_path)
    nested = tmp_path / "nested.json"
    nested.write_text("[" * 200000 + "]" * 200000)
    paths = {"graph": graph, "result": result, "nested": str(nested),
             "missing": str(tmp_path / "missing.mg"),
             "unwritable": str(tmp_path / "no-such-dir" / "out.json")}
    got, out, err = run_cli(capsys, *[a.format(**paths) for a in argv])
    assert got == code
    assert out == ""
    assert err.startswith(message) and err.count("\n") == 1


def test_report_rejects_run_flags(capsys):
    """report only reads a graph and prints its bounds, so
    --fallback-threshold is a usage error there; --budget and --seed are
    usage errors everywhere, because the search depth --budget set is a
    constant and a result no longer records a seed."""
    for command, flag in [("report", "--seed"), ("report", "--fallback-threshold"),
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
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--gen", "petersen", "--jobs", jobs])
    assert exc.value.code == 2


@pytest.mark.parametrize("jobs, cpus, workers", [
    ("64", 4, 3),     # no more workers than instances
    ("64", 2, 2),     # nor than CPUs
    ("2", 4, 2),
    ("1", 4, None),   # serial: no pool at all
])
def test_bench_pool_size_is_bounded(capsys, monkeypatch, jobs, cpus, workers):
    """The pool is a stub that maps in this process and records its size,
    so the test starts no process."""
    import multiprocessing
    import os
    sizes = []

    class StubPool:
        def __init__(self, processes):
            sizes.append(processes)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return list(map(fn, tasks))

    monkeypatch.setattr(multiprocessing, "Pool", StubPool)
    monkeypatch.setattr(os, "cpu_count", lambda: cpus)
    args = ["bench", "--gen", "petersen", "--gen", "ring", "5", "--gen", "ring", "7"]
    code, out, _ = run_cli(capsys, *args, "--jobs", jobs)
    assert code == 0
    assert sizes == ([] if workers is None else [workers])
    assert out == run_cli(capsys, *args)[1]
