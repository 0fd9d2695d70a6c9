"""Benchmark harness: set-up timing, the measured passes, checks and output.

One run covers one workload in this process, with no worker pool. With
`--trace 0` it times a fixed number of whole passes over the workload's
instances, as many as fill `--seconds` at the seed commit's speed, and
prints the end-to-end metrics. Timings are scaled to a fixed machine speed
by `calibrate`. With `--trace 1` it runs every instance once untraced and
once traced and prints the per-layer metrics. Every output is checked by
`checks`; a violation ends the run with exit code 1.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from colorbench import calibrate, checks, tracing

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "colorbench"
IMPORT_SAMPLES = 3
PROBE_TIMEOUT_S = 120
WORKLOADS = ("desk_corpus", "dense_multi", "tight_family", "cli_roundtrip")
# Reference-speed seconds of one pass at the seed commit. A run makes
# round(seconds / PASS_S) passes, at least one, so the same seed and
# --seconds always give the same operations, and with them the same
# `attempted` and `failed` counts.
PASS_S = {"desk_corpus": 0.85, "dense_multi": 17.2, "tight_family": 8.2,
          "cli_roundtrip": 2.5}

# name -> (unit, better); the order is the order of the printed summary.
END_TO_END = {
    "latency_p50_ms": ("ms", "lower"),
    "latency_p90_ms": ("ms", "lower"),
    "edges_per_s": ("edges/s", "higher"),
    "completed_share": ("share", "higher"),
    "first_try_share": ("share", "higher"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}


class SetupError(Exception):
    """The program could not be imported or its inputs could not be built."""


def percentile(values, q: float) -> float:
    """q-th percentile, interpolating linearly between closest ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    pos = (len(xs) - 1) * q / 100
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


@dataclass(frozen=True)
class Outcome:
    """What one operation produced, minus timing; equal across passes."""
    status: str              # "ok" | "incomplete"
    k_used: int | None
    methods: tuple           # edge counts per tracing.METHODS entry
    chi: int | None          # exact chromatic index, desk_corpus only


def _method_counts(tags) -> tuple:
    tags = list(tags)
    return tuple(tags.count(m) for m in tracing.METHODS)


NO_METHODS = _method_counts([])


# -- operations -----------------------------------------------------------------
#
# Each op has run(inst) -> raw, which is all that is timed,
# outcome(inst, raw, ref) -> Outcome, which checks the output, and the
# calibrate reference its wall times are scaled by. gscolor is reached
# through module attributes at call time so that tracing applies.


class InProcessOp:
    """color + verify_result, plus the exact chi' sandwich when `oracle`."""

    reference = calibrate.LOOP

    def __init__(self, oracle: bool):
        self.oracle = oracle
        self.engine = importlib.import_module("gscolor.engine")
        self.density = importlib.import_module("gscolor.density")

    def run(self, inst):
        G = inst.graph
        try:
            result = self.engine.color(G)
        except self.engine.IncompleteColoringError:
            result, verified = None, None
        else:
            verified = self.engine.verify_result(G, result)
        chi = self.density.chromatic_index_exact(G) if self.oracle else None
        return result, verified, chi

    def outcome(self, inst, raw, ref):
        result, verified, chi = raw
        G = inst.graph
        if chi is not None:
            checks.check_sandwich(chi, ref.bounds)
        if result is None:
            return Outcome("incomplete", None, NO_METHODS, chi)
        checks.check_coloring(G.vertex_count, ref.pairs, result.k_used,
                              [result.coloring.color_of(e) for e in range(G.m)], ref.bounds)
        if verified is not True:
            raise checks.Violation("verify_result rejected a correct coloring")
        return Outcome("ok", result.k_used, _method_counts(result.trace.values()), chi)


class CliOp:
    """`gscolor.cli color FILE --out R`, then `verify FILE R`, as fresh
    processes, or as in-process `gscolor.cli.main(argv)` calls when traced."""

    reference = calibrate.SPAWN

    def __init__(self, in_process: bool):
        self.in_process = in_process
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        self.peak_rss_kb = 0

    def _call(self, argv, stderr) -> int:
        if self.in_process:
            return importlib.import_module("gscolor.cli").main(argv)
        # wait4 gives this child's own peak RSS
        proc = subprocess.Popen([sys.executable, "-m", "gscolor.cli", *argv], cwd=ROOT,
                                env=self.env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=stderr)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
        return proc.returncode

    def run(self, inst):
        result_path = inst.path[:-len(".mg")] + ".json"
        with contextlib.suppress(FileNotFoundError):
            os.remove(result_path)
        with tempfile.TemporaryFile(dir=os.path.dirname(inst.path)) as err:
            code = self._call(["color", inst.path, "--out", result_path], err)
            verify_code = (self._call(["verify", inst.path, result_path], err)
                           if code == 0 else None)
            err.seek(0)
            stderr = err.read().decode(errors="replace")
        return code, verify_code, result_path, stderr

    def outcome(self, inst, raw, ref):
        code, verify_code, result_path, stderr = raw
        if code == 2:
            return Outcome("incomplete", None, NO_METHODS, None)
        if code != 0:
            raise checks.Violation(f"color exited {code}: {stderr.strip()}")
        try:
            with open(result_path) as fh:
                obj = json.load(fh)
        except (OSError, ValueError) as exc:
            raise checks.Violation(f"unreadable result file: {exc}") from None
        k_used = obj.get("k_used")
        checks.check_coloring(inst.graph.vertex_count, ref.pairs, k_used,
                              checks.colors_from_json(obj, len(ref.pairs)), ref.bounds)
        if verify_code != 0:
            raise checks.Violation(f"verify exited {verify_code} on a correct result: "
                                   f"{stderr.strip()}")
        trace = obj.get("trace")
        if not (isinstance(trace, list) and all(isinstance(t, list) and len(t) == 2
                                                 for t in trace)):
            raise checks.Violation("result has no [edge, method] trace list")
        return Outcome("ok", k_used, _method_counts(tag for _, tag in trace), None)


def make_op(workload: str, in_process_cli: bool):
    if workload == "cli_roundtrip":
        return CliOp(in_process_cli)
    return InProcessOp(oracle=workload == "desk_corpus")


@dataclass(frozen=True)
class Reference:
    pairs: list              # endpoints, indexed by edge id
    bounds: checks.Bounds


def reference(G) -> Reference:
    if tuple(G.edge_ids) != tuple(range(G.m)):
        raise SetupError("instances must have edge ids 0..m-1")
    pairs = [G.endpoints(e) for e in range(G.m)]
    return Reference(pairs, checks.reference_bounds(G.vertex_count, pairs))


# -- passes ---------------------------------------------------------------------


def run_pass(op, instances, refs):
    """(latencies in reference-speed seconds, outcomes, wall seconds), the
    first two with one entry per instance. Wall times are scaled by the
    op's reference, sampled around each chunk of about its chunk_s seconds."""
    latencies, outcomes, chunk = [], [], []
    wall = chunk_s = 0.0
    before = op.reference.sample()
    for i, (inst, ref) in enumerate(zip(instances, refs)):
        t0 = time.perf_counter()
        raw = op.run(inst)
        chunk.append(time.perf_counter() - t0)
        chunk_s += chunk[-1]
        outcomes.append(op.outcome(inst, raw, ref))
        if chunk_s >= op.reference.chunk_s or i == len(instances) - 1:
            after = op.reference.sample()
            factor = op.reference.scale(before, after)
            latencies.extend(t * factor for t in chunk)
            wall += chunk_s
            before, chunk, chunk_s = after, [], 0.0
    return latencies, outcomes, wall


def measure(op, instances, refs, count: int, passes: list):
    """Append `count` whole passes to `passes`. Every pass must agree with
    the first."""
    for _ in range(count):
        latencies, outcomes, wall = run_pass(op, instances, refs)
        if passes and outcomes != passes[0][1]:
            bad = next(i for i, (a, b) in enumerate(zip(outcomes, passes[0][1])) if a != b)
            raise checks.Violation(f"{instances[bad].id}: result changed between passes")
        passes.append((latencies, outcomes, wall))


def end_to_end(passes, instances, refs, setup_s: float, peak_rss_mb: float) -> dict:
    """Every end-to-end metric, as name -> (value, unit)."""
    latencies = [t for lat, _, _ in passes for t in lat]
    attempted = len(latencies)
    completed = first_try = edges = 0
    for _, outcomes, _ in passes:
        for inst, ref, out in zip(instances, refs, outcomes):
            if out.status == "ok":
                completed += 1
                edges += inst.graph.m
                first_try += out.k_used == ref.bounds.lower
    values = {
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p90_ms": percentile(latencies, 90) * 1e3,
        "edges_per_s": edges / sum(latencies),
        "completed_share": completed / attempted,
        "first_try_share": first_try / attempted,
        "setup_s": setup_s,
        "peak_rss_mb": peak_rss_mb,
    }
    return {name: (values[name], unit) for name, (unit, _) in END_TO_END.items()}


# -- set-up, environment and records ------------------------------------------


def probe(args) -> dict:
    """Run setup_probe.py in a fresh interpreter. `start_s` counts from just
    before the spawn until `import gscolor` has returned."""
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(BENCH_DIR / "setup_probe.py"), *args],
                              cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise SetupError(f"set-up probe timed out after {PROBE_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed:\n{proc.stderr.strip()}")
    out = json.loads(proc.stdout.splitlines()[-1])
    out["start_s"] = out.pop("imported") - spawned
    return out


def setup_sample(workload: str, seed: int, workroot: Path) -> float:
    """Set-up time of one fresh interpreter at reference speed: its start and
    `import gscolor` scaled by SPAWN, building the inputs by LOOP."""
    workdir = tempfile.mkdtemp(prefix="probe-", dir=workroot)
    try:
        before = calibrate.SPAWN.sample()
        out = probe([workload, str(seed), workdir])
        start_scale = calibrate.SPAWN.scale(before, calibrate.SPAWN.sample())
        return out["start_s"] * start_scale + out["build_s"] * out["build_scale"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def environment(workload: str, seed: int) -> dict:
    kernels = importlib.import_module("gscolor._kernels")
    return {"workload": workload, "seed": seed, "USING_NUMBA": kernels.USING_NUMBA,
            "GSCOLOR_NO_NUMBA": os.environ.get("GSCOLOR_NO_NUMBA"),
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": git_commit()}


def instance_records(workload, instances, refs, passes) -> list:
    """One record per instance: every field but latency_ms repeats exactly
    across runs with the same seed."""
    records = []
    for i, (inst, ref) in enumerate(zip(instances, refs)):
        out = passes[0][1][i]
        rec = {"workload": workload, "id": inst.id, "n": inst.graph.vertex_count,
               "m": inst.graph.m, "delta": ref.bounds.delta, "lower": ref.bounds.lower,
               "gs_upper": ref.bounds.gs_upper, "k_used": out.k_used,
               "methods": dict(zip(tracing.METHODS, out.methods)), "status": out.status}
        if out.chi is not None:
            rec["chi"] = out.chi
        rec["latency_ms"] = statistics.median(lat[i] for lat, _, _ in passes) * 1e3
        records.append(rec)
    return records


def write_records(path: Path, env: dict, records: list):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps({"env": env}) + "\n")
        for rec in records:
            fh.write(json.dumps(rec) + "\n")


# -- the two kinds of run -------------------------------------------------------


def build_inputs(workload, seed, workroot):
    from colorbench.workloads import build
    instances = build(workload, seed, tempfile.mkdtemp(prefix="run-", dir=workroot))
    return instances, [reference(inst.graph) for inst in instances]


def pass_count(workload: str, seconds: float) -> int:
    return max(1, round(seconds / PASS_S[workload]))


def untraced_run(workload: str, seed: int, seconds: float, workroot: Path):
    instances, refs = build_inputs(workload, seed, workroot)
    op = make_op(workload, in_process_cli=False)
    run_pass(op, instances[:1], refs[:1])      # warm-up, not measured
    # Set-up is sampled before, midway through and after the measured passes.
    count = pass_count(workload, seconds)
    setup_s = [setup_sample(workload, seed, workroot)]
    passes = []
    measure(op, instances, refs, count // 2, passes)
    setup_s.append(setup_sample(workload, seed, workroot))
    measure(op, instances, refs, count - count // 2, passes)
    setup_s.append(setup_sample(workload, seed, workroot))
    if workload == "cli_roundtrip":
        rss_kb = op.peak_rss_kb
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = end_to_end(passes, instances, refs, statistics.median(setup_s), rss_kb / 1024)
    attempted = len(passes) * len(instances)
    failed = sum(o.status != "ok" for _, outs, _ in passes for o in outs)
    env = environment(workload, seed)
    write_records(BENCH_DIR / "records" / f"{workload}-seed{seed}.jsonl", env,
                  instance_records(workload, instances, refs, passes))
    completed, first_try = metrics["completed_share"][0], metrics["first_try_share"][0]
    summary = [f"env {json.dumps(env)}",
               f"{workload}: {len(passes)} passes of {len(instances)} operations, "
               f"{attempted} latency samples, {sum(w for _, _, w in passes):.3f} s wall, "
               f"{sum(sum(lat) for lat, _, _ in passes):.3f} s at reference speed",
               f"  failed_share {1 - completed:.6g} share (lower), "
               f"escalated_share {completed - first_try:.6g} share (lower)"]
    return metrics, attempted, failed, summary


def traced_run(workload: str, seed: int, workroot: Path):
    import_s = statistics.median(probe(["--import-only"])["import_s"]
                                 for _ in range(IMPORT_SAMPLES))
    tracer = tracing.Tracer()
    with tracing.traced(tracer):
        instances, refs = build_inputs(workload, seed, workroot)
    op = make_op(workload, in_process_cli=True)
    run_pass(op, instances[:1], refs[:1])      # warm-up, not measured
    # Each instance runs once untraced and once traced, back to back and in
    # alternating order, so drift in machine speed cancels out of the overhead.
    seconds = {False: 0.0, True: 0.0}
    outcomes = {False: [], True: []}
    for i, (inst, ref) in enumerate(zip(instances, refs)):
        for is_traced in ((False, True) if i % 2 == 0 else (True, False)):
            with tracing.traced(tracer) if is_traced else contextlib.nullcontext():
                t0 = time.perf_counter()
                raw = op.run(inst)
                seconds[is_traced] += time.perf_counter() - t0
            outcomes[is_traced].append(op.outcome(inst, raw, ref))
    if outcomes[True] != outcomes[False]:
        raise checks.Violation("tracing changed a result")
    traced_s, untraced_s = seconds[True], seconds[False]
    outcomes = outcomes[True]
    methods = {m: sum(o.methods[i] for o in outcomes) for i, m in enumerate(tracing.METHODS)}
    metrics = tracing.layer_metrics(tracer, ops=len(instances), methods=methods,
                                    import_s=import_s, overhead_s=traced_s - untraced_s)
    failed = 2 * sum(o.status != "ok" for o in outcomes)
    summary = [f"env {json.dumps(environment(workload, seed))}",
               f"{workload}: {len(instances)} operations, {traced_s:.3f} s traced, "
               f"{untraced_s:.3f} s untraced"]
    return metrics, 2 * len(instances), failed, summary


# -- entry point ------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(prog="colorbench/run.py", description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0,
                    help="make as many whole passes as fill this many seconds "
                         "at the seed commit's speed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: per-layer metrics from a traced pass instead")
    return ap.parse_args(argv)


def load_gscolor():
    """Import gscolor from this checkout's src/, or raise SetupError."""
    try:
        gscolor = importlib.import_module("gscolor")
    except ImportError as exc:
        raise SetupError(f"cannot import gscolor from {ROOT / 'src'}: {exc}") from None
    if Path(gscolor.__file__).resolve().parent != ROOT / "src" / "gscolor":
        raise SetupError(f"gscolor imported from {gscolor.__file__}, not this checkout")


def main(argv) -> int:
    args = parse_args(argv)
    workroot = BENCH_DIR / "work"
    try:
        load_gscolor()
        workroot.mkdir(parents=True, exist_ok=True)
        if args.trace:
            metrics, attempted, failed, summary = traced_run(args.workload, args.seed, workroot)
        else:
            metrics, attempted, failed, summary = untraced_run(
                args.workload, args.seed, args.seconds, workroot)
    except SetupError as exc:
        print(f"colorbench: {exc}", file=sys.stderr)
        return 2
    except checks.Violation as exc:
        print(f"colorbench: CORRECTNESS VIOLATION on {args.workload}: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": 1, "failed": 0, "metrics": {}}))
        return 1
    finally:
        shutil.rmtree(workroot, ignore_errors=True)
    for line in summary:
        print(line)
    for name, (value, unit) in metrics.items():
        better = END_TO_END.get(name, ("", ""))[1]
        print(f"  {name:40s} {value:.6g} {unit}" + (f" ({better} is better)" if better else ""))
    print(json.dumps({"correct": True, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}))
    return 0
