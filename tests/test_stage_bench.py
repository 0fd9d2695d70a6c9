"""benchmarks/stage_bench.py: a smoke run on small inputs, and the pinned
digests of the benchmark workloads' outputs."""

import pytest

from conftest import load_stage_bench

STAGES = ["startup", "feasible", "density", "extend", "interchange", "closure",
          "generate", "scale", "workload"]


@pytest.fixture(scope="module")
def bench():
    return load_stage_bench()


def test_stage_bench_runs(stage_bench_smoke):
    """The smoke run's record and table: the header, the stages in order,
    and one table line per row with its best time, every row recorded with
    min <= median <= max; the cli_roundtrip workload's rows. The startup,
    kernel and scale rows are checked by test_cli, test_kernels and
    test_engine."""
    record, table = stage_bench_smoke
    assert record["ROUNDS"] == 1 and record["SLICE"] == 0
    assert record["USING_NUMBA"] is False and record["cpus"] >= 1
    assert {"python", "numpy", "platform", "commit", "bytecode"} <= record.keys()
    rows = record["rows"]
    assert list(dict.fromkeys(r["stage"] for r in rows)) == STAGES
    assert len(table) == len(rows)
    for row, line in zip(rows, table):
        s = row["s"]
        assert 0 < s["min"] <= s["median"] <= s["max"]
        assert line.split()[0] == row["stage"] and f"{s['min'] * 1e3:12.6f}" in line

    workload = [r for r in rows if r["stage"] == "workload"]
    assert [r["case"] for r in workload] == [
        "cli_roundtrip", "cli_roundtrip verify_result", "cli_roundtrip to_json+result_from_json"]
    assert workload[0]["instances"] == 8 and workload[0]["incomplete"] == 0


def test_stage_bench_digests_are_pinned(bench, tmp_path):
    """The untimed pass over each workload gives the pinned instance count,
    incomplete count and digest. desk_corpus pins the output of both the
    exhaustive and the capped random generator; dense_multi is the one
    workload drawn by the uncapped random generator."""
    got = {}
    for workload in ("tight_family", "desk_corpus", "dense_multi"):
        facts = bench.colored(workload, str(tmp_path))[2]
        got[workload] = (facts["instances"], facts["incomplete"], facts["sha256"])
    assert got == {
        "tight_family": (1755, 147,
                         "9d15a7c9924384eca56425ba3d2fd5ed9f25026d7c2ce6060a5bfe9bddfa2ab2"),
        "desk_corpus": (2434, 0,
                        "a444b3183b9c00ab51246dfe5e12c2996416d92b0498002a188ec7882c314ecd"),
        "dense_multi": (200, 2,
                        "4c763c2dd6cff3aeb7a4cb4218abcc9f2e95dceac83ec1d16c01b10bf1b3a36f")}
