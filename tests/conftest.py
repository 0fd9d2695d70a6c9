import contextlib
import importlib.util
import io
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from gscolor import Multigraph, PartialColoring
from gscolor.generators import petersen, ring, shannon_triangle


def load_stage_bench():
    """benchmarks/stage_bench.py as a fresh module, so patching its constants
    in one fixture leaves every other copy as committed."""
    path = Path(__file__).parents[1] / "benchmarks" / "stage_bench.py"
    spec = importlib.util.spec_from_file_location("stage_bench", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def stage_bench_smoke(tmp_path_factory):
    """One run of benchmarks/stage_bench.py on small inputs, shared by the
    tests of its stages: one round of one call per row, the generation rows
    on small inputs where the full run's take seconds, the first closure row,
    the scale rows at n = 10^3 and the 8-instance cli_roundtrip workload.
    Yields the JSON record and the printed table, less its two header lines."""
    bench = load_stage_bench()
    out = tmp_path_factory.mktemp("stage_bench") / "BENCH_smoke.json"
    printed = io.StringIO()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bench, "ROUNDS", 1)
        patch.setattr(bench, "SLICE", 0)
        patch.setattr(bench, "GENERATE_CASES", [(4, 5)])
        patch.setattr(bench, "MULTIGRAPH_CASES", [
            ("random_multigraph(16, 1600, 1)", bench.random_multigraph, (16, 1600, 1))])
        patch.setattr(bench, "CLOSURE_CASES", bench.CLOSURE_CASES[:1])
        patch.setattr(bench, "SCALE_SIZES", (1000,))
        patch.setattr(bench, "WORKLOADS", ("cli_roundtrip",))
        with contextlib.redirect_stdout(printed):
            assert bench.main([str(out)]) == 0
    return json.loads(out.read_text()), printed.getvalue().splitlines()[2:]


@pytest.fixture
def triangle():
    return Multigraph.build(3, [(0, 1), (1, 2), (0, 2)])


@pytest.fixture
def petersen_graph():
    return petersen()


@pytest.fixture
def shannon2():
    return shannon_triangle(2)


@pytest.fixture
def single_edge():
    return Multigraph.build(2, [(0, 1)])


@pytest.fixture
def c4():
    return ring(4)


def make_pe_instance():
    """Elementary tree {0,1,2} closed under k=7 with defective color 6; the
    series performs one parallel extension at supporting vertex 2."""
    pairs = [(0, 1), (0, 2), (0, 2), (0, 1), (0, 1), (1, 2), (1, 2),
             (0, 3), (1, 4), (2, 5), (2, 6)]
    colors = {1: 3, 2: 4, 3: 5, 4: 7, 5: 1, 6: 2, 7: 6, 8: 6, 9: 6, 10: 7}
    G = Multigraph.build(7, pairs)
    return G, PartialColoring(G, 7, colors)


def make_se_instance():
    """Like the PE instance, but the far end of the defective edge is
    saturated with the tree's missing colors and every unblocking chain runs
    through the tree, so the step is a series extension."""
    pairs = [(0, 1), (0, 2), (0, 2), (0, 1), (0, 1), (1, 2), (1, 2),
             (0, 3), (1, 4), (2, 5), (2, 6)] + [(5, 6)] * 5
    colors = {1: 3, 2: 4, 3: 5, 4: 7, 5: 1, 6: 2, 7: 6, 8: 6, 9: 6, 10: 7,
              11: 1, 12: 2, 13: 3, 14: 4, 15: 5}
    G = Multigraph.build(7, pairs)
    return G, PartialColoring(G, 7, colors)


def make_improvement_instance():
    """Closed elementary 5-vertex tree where the maximum defective in-end
    sits at tree order 2 under the base coloring, and one crossing chain swap
    (colors 8/9, both outside the protected pool) pushes it to order 4."""
    pairs = [(0, 1), (0, 2), (2, 3), (3, 4), (0, 1), (2, 3), (3, 4), (0, 1),
             (0, 4), (0, 4), (0, 3), (1, 2), (1, 2), (1, 2), (1, 2),
             (3, 4), (3, 4), (3, 4), (2, 7), (0, 5), (1, 6), (4, 8), (8, 9)]
    colors = {1: 3, 2: 4, 3: 1, 4: 9, 5: 9, 6: 8, 7: 5, 8: 4, 9: 6, 10: 7,
              11: 1, 12: 2, 13: 6, 14: 7, 15: 2, 16: 3, 17: 5,
              18: 8, 19: 8, 20: 8, 21: 9, 22: 8}
    G = Multigraph.build(10, pairs)
    return G, PartialColoring(G, 9, colors)
