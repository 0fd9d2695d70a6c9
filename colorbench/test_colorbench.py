"""Tests of the benchmark's own arithmetic, checks, inputs and tracing."""

import json
from pathlib import Path

import pytest

from colorbench import calibrate, checks, harness, tracing, workloads
from gscolor import bound_report, color
from gscolor.generators import petersen, random_multigraph, ring, shannon_triangle
from gscolor.graph import Multigraph

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def test_percentile_interpolates_between_ranks():
    values = list(range(1, 11))
    assert harness.percentile(values, 50) == 5.5
    assert harness.percentile(values, 90) == pytest.approx(9.1)
    assert harness.percentile(reversed(values), 0) == 1
    assert harness.percentile(values, 100) == 10
    assert harness.percentile([7.0], 90) == 7.0
    with pytest.raises(ValueError):
        harness.percentile([], 50)


def test_speed_scale_maps_wall_time_to_reference_speed():
    for reference in (calibrate.LOOP, calibrate.SPAWN):
        ref = reference.nominal_s
        assert reference.scale(ref, ref) == 1.0
        assert reference.scale(2 * ref, 2 * ref) == 0.5
        assert reference.scale(ref, 3 * ref) == 0.5


def test_run_pass_scales_each_latency(monkeypatch):
    # A machine running at half the reference speed halves every latency.
    monkeypatch.setattr(calibrate.Reference, "sample", lambda self: 2 * self.nominal_s)
    instances = [i for i in workloads.tight_family(1) if i.canonical][:6]
    refs = [harness.reference(i.graph) for i in instances]
    latencies, outcomes, wall = harness.run_pass(harness.InProcessOp(oracle=False),
                                                 instances, refs)
    assert len(latencies) == len(outcomes) == len(instances)
    assert sum(latencies) == pytest.approx(wall / 2)


def test_pass_count_depends_on_seconds_only():
    for workload, pass_s in harness.PASS_S.items():
        assert harness.pass_count(workload, 0.01) == 1
        assert harness.pass_count(workload, 10 * pass_s) == 10


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_excludes_child_spans():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def leaf():
        clock.now += 2.0

    def middle():
        clock.now += 1.0
        traced_leaf()
        traced_leaf()
        clock.now += 0.5

    def outer():
        clock.now += 3.0
        traced_middle()

    traced_leaf = tracer.wrap("leaf", leaf)
    traced_middle = tracer.wrap("middle", middle)
    tracer.wrap("outer", outer)()
    assert tracer.calls == {"leaf": 2, "middle": 1, "outer": 1}
    assert tracer.self_s["leaf"] == 4.0
    assert tracer.self_s["middle"] == 1.5
    assert tracer.self_s["outer"] == 3.0


def test_self_time_survives_exceptions():
    clock = FakeClock()
    tracer = tracing.Tracer(clock=clock)

    def failing():
        clock.now += 1.0
        raise KeyError("x")

    def outer():
        clock.now += 1.0
        with pytest.raises(KeyError):
            traced_failing()

    traced_failing = tracer.wrap("failing", failing)
    tracer.wrap("outer", outer)()
    assert tracer.self_s == {"failing": 1.0, "outer": 1.0}


def _colors(result, G):
    return [result.coloring.color_of(e) for e in range(G.m)]


def _pairs(G):
    return [G.endpoints(e) for e in range(G.m)]


def test_check_accepts_engine_output_and_rejects_tampering():
    G = petersen()
    result = color(G)
    bounds = checks.reference_bounds(G.vertex_count, _pairs(G))
    colors = _colors(result, G)
    checks.check_coloring(G.vertex_count, _pairs(G), result.k_used, colors, bounds)

    clash = list(colors)
    u, v = G.endpoints(0)
    neighbour = next(e for e in G.edges_at(u) if e != 0)
    clash[0] = colors[neighbour]
    out_of_range = list(colors)
    out_of_range[3] = result.k_used + 1
    uncolored = list(colors)
    uncolored[5] = None
    for bad in (clash, out_of_range, uncolored, colors[:-1]):
        with pytest.raises(checks.Violation):
            checks.check_coloring(G.vertex_count, _pairs(G), result.k_used, bad, bounds)
    with pytest.raises(checks.Violation):
        checks.check_coloring(G.vertex_count, _pairs(G), bounds.gs_upper + 1, colors, bounds)
    with pytest.raises(checks.Violation):
        checks.check_sandwich(bounds.gs_upper + 1, bounds)


def test_check_reads_result_json():
    G = shannon_triangle(2)
    obj = color(G).to_json_obj()
    assert checks.colors_from_json(obj, G.m) == _colors(color(G), G)
    obj["assignment"].append(obj["assignment"][0])
    with pytest.raises(checks.Violation):
        checks.colors_from_json(obj, G.m)


@pytest.mark.parametrize("G", [petersen(), shannon_triangle(3), ring(9, 3), ring(4, 2),
                               random_multigraph(9, 40, 5), Multigraph.build(2, [(0, 1)])])
def test_reference_bounds_match_bound_report(G):
    rep = bound_report(G)
    assert checks.density(G.vertex_count, _pairs(G)) == rep.gamma
    assert checks.reference_bounds(G.vertex_count, _pairs(G)) == \
        checks.Bounds(rep.delta, rep.lower, rep.gs_upper)


def _signature(instances):
    return [(i.id, i.canonical, i.graph.vertex_count,
             tuple(i.graph.endpoints(e) for e in i.graph.edge_ids)) for i in instances]


@pytest.mark.parametrize("workload", ["dense_multi", "tight_family", "cli_roundtrip"])
def test_seed_moves_random_instances_only(workload, tmp_path):
    def build(seed):
        workdir = tmp_path / str(seed)
        workdir.mkdir(exist_ok=True)
        return _signature(workloads.build(workload, seed, str(workdir)))

    first, again, other = build(1), build(1), build(2)
    assert first == again
    canon = [s for s in first if s[1]]
    assert canon == [s for s in other if s[1]]
    assert [s for s in first if not s[1]] != [s for s in other if not s[1]]
    if workload != "dense_multi":
        assert canon


def test_tracing_keeps_results_and_restores_functions():
    import gscolor.engine as engine

    # ring(9,3) is incomplete, petersen*1 escalates, ring(5,4) needs the exact
    # fallback, and the relabeled petersen*2 runs the extension series.
    wanted = {"ring(9,3)", "ring(5,4)", "petersen*1", "petersen*2~0", "petersen*2~1"}
    instances = [i for i in workloads.tight_family(1) if i.id in wanted]
    refs = [harness.reference(i.graph) for i in instances]
    op = harness.InProcessOp(oracle=False)
    _, plain, _ = harness.run_pass(op, instances, refs)
    original = engine.bound_report
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        assert engine.bound_report is not original
        _, outcomes, _ = harness.run_pass(op, instances, refs)
    assert engine.bound_report is original
    assert outcomes == plain
    assert {o.status for o in plain} == {"ok", "incomplete"}
    assert tracer.calls["engine.color"] == len(instances)
    assert tracer.calls["density.bound_report"] >= len(instances)
    assert tracer.calls["kernels.density_scan"] == tracer.calls["density.bound_report"]
    assert tracer.calls["tashkinov.series_step"] > 0
    assert tracer.calls["kernels.chromatic_feasible"] > 0
    metrics = tracing.layer_metrics(tracer, ops=len(instances),
                                    methods=dict.fromkeys(tracing.METHODS, 0),
                                    import_s=0.1, overhead_s=0.0)
    assert all(v >= 0 for v, _ in metrics.values())


def test_benchmark_json_names_what_the_harness_prints():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(harness.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == \
        harness.END_TO_END
    printed = tracing.layer_metrics(tracing.Tracer(), ops=1,
                                    methods=dict.fromkeys(tracing.METHODS, 0),
                                    import_s=0.0, overhead_s=0.0)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in printed.items()}


def test_setup_sample_times_both_segments(tmp_path):
    out = harness.probe(["tight_family", "1", str(tmp_path)])
    assert out["start_s"] > out["import_s"] > 0
    assert out["build_s"] > 0 and out["build_scale"] > 0
    assert harness.setup_sample("tight_family", 1, tmp_path) > 0
