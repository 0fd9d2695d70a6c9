"""Command-line surface: color, report, verify, and bench subcommands."""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time

from . import generators
from .density import bound_report, chromatic_index_exact
from .engine import (METHODS, IncompleteColoringError, _color, color,
                     result_from_json, verify_result)
from .graph import (Multigraph, ParseError, ScaleExceededError, decimal_int,
                    parse_multigraph)

BENCH_COLUMNS = ["idx", "spec", "n", "m", "delta", "mu", "gamma", "chi_exact",
                 "k_used", *METHODS, "status"]


def _read_file(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _load_graph(args) -> Multigraph | None:
    """The graph from args.path or args.gen, or None after one stderr line
    when both or neither is given, or the graph is unusable."""
    if bool(args.gen) == bool(args.path):
        print("exactly one of a graph path or --gen is required", file=sys.stderr)
        return None
    if args.gen:
        return _read_graph(lambda: generators.from_spec(args.gen))
    return _read_graph(lambda: parse_multigraph(_read_file(args.path)))


def _out_writable(path: str) -> bool:
    """True if path opens for writing; False after one stderr line if not.

    Append mode does not truncate, and a file this probe created is removed
    again, so the probe leaves the file system as it found it.
    """
    existed = os.path.exists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return False
    if not existed:
        os.remove(path)
    return True


def _emit(text: str, args) -> int:
    """0 once text is in --out or on stdout; 1 after one stderr line if not."""
    if not args.out:
        sys.stdout.write(text)
        return 0
    try:
        with open(args.out, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def _emit_json(obj, args) -> int:
    """_emit of obj as compact JSON under --json, indented otherwise."""
    text = json.dumps(obj, separators=(",", ":")) if args.json \
        else json.dumps(obj, indent=2)
    return _emit(text + "\n", args)


def _read_graph(load):
    """load(), or None after one stderr line when the graph is unusable."""
    try:
        return load()
    except (OSError, UnicodeDecodeError) as exc:     # before its base ValueError
        print(f"cannot read graph: {exc}", file=sys.stderr)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
    except ValueError as exc:      # parsing raises ParseError only; this is --gen
        print(f"bad generator: {exc}", file=sys.stderr)
    return None


def cmd_color(args) -> int:
    G = _load_graph(args)
    if G is None:
        return 1
    try:
        result = color(G)
    except IncompleteColoringError as exc:
        print(exc, file=sys.stderr)
        return 2
    return _emit_json(result.to_json_obj(), args)


def cmd_report(args) -> int:
    G = _load_graph(args)
    if G is None:
        return 1
    return _emit_json(bound_report(G).to_json_obj(), args)


def cmd_verify(args) -> int:
    G = _read_graph(lambda: parse_multigraph(_read_file(args.graph)))
    if G is None:
        return 1
    try:
        text = _read_file(args.result)
    except (OSError, UnicodeDecodeError) as exc:
        print(f"cannot read result: {exc}", file=sys.stderr)
        return 3
    try:
        result = result_from_json(G, text)
    except (ValueError, KeyError, RecursionError) as exc:
        print(f"invalid result: {exc}", file=sys.stderr)
        return 3
    if verify_result(G, result):
        return 0
    print("verification failed", file=sys.stderr)
    return 1


def _bench_instances(args):
    for spec in args.gen or []:
        if spec[0] == "exhaustive":
            if len(spec) != 3:
                raise ValueError(f"exhaustive takes 2 arguments, got {len(spec) - 1}")
            try:
                n_max, m_max = map(decimal_int, spec[1:])
            except ValueError:
                raise ValueError(f"exhaustive arguments must be integers, "
                                 f"got {spec[1:]}") from None
            for i, G in enumerate(generators.exhaustive_connected(n_max, m_max)):
                yield f"exhaustive[{i}]", G
        else:
            yield " ".join(spec), generators.from_spec(spec)
    for path in args.paths or []:
        yield path, parse_multigraph(_read_file(path))


def _bench_row(name, G, oracle, timings):
    """One instance's row fields (sans index)."""
    t0 = time.perf_counter()
    rep = bound_report(G)
    status = "ok"
    try:
        result = _color(G, rep)
        k_used = result.k_used
        tags = list(result.trace.values())
        counts = [tags.count(m) for m in METHODS]
    except IncompleteColoringError:
        k_used = ""
        counts = [""] * len(METHODS)
        status = "incomplete"
    chi = ""
    if oracle:
        try:
            chi = chromatic_index_exact(G)
            if not (rep.lower <= chi <= rep.gs_upper):
                status = "sandwich-violation"
            elif k_used != "" and k_used > rep.gs_upper:
                status = "bound-violation"
        except ScaleExceededError:
            chi = ""
            status = "oracle-skipped"
    row = [name, G.vertex_count, G.m, rep.delta, rep.mu,
           f"{rep.gamma.numerator}/{rep.gamma.denominator}", chi, k_used,
           *counts, status]
    if timings:
        row.append(f"{time.perf_counter() - t0:.6f}")
    return row


def cmd_bench(args) -> int:
    out = io.StringIO()
    out.write("# gscolor bench csv v1\n")
    columns = BENCH_COLUMNS + (["time_s"] if args.timings else [])
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    instances = _read_graph(lambda: list(_bench_instances(args)))
    if instances is None:
        return 1
    violations = 0
    for idx, (name, G) in enumerate(instances):
        row = _bench_row(name, G, args.oracle, args.timings)
        if row[-1 - int(args.timings)] not in ("ok", "oracle-skipped"):
            violations += 1
        writer.writerow([idx] + row)
    if _emit(out.getvalue(), args):
        return 1
    return 0 if violations == 0 else 4


def _add_output_flags(p):
    p.add_argument("--json", action="store_true", help="compact one-line JSON")
    p.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gscolor",
                                 description="multigraph edge coloring with "
                                             "density certificates")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("color", help="color a multigraph, JSON result to stdout")
    p.add_argument("path", nargs="?", help="graph file (text edge-list format)")
    p.add_argument("--gen", nargs="+", metavar="ARG",
                   help="named instance: petersen | shannon MU | ring N [MU] | "
                        "random N M SEED")
    _add_output_flags(p)
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("report", help="bound report as JSON")
    p.add_argument("path", nargs="?")
    p.add_argument("--gen", nargs="+", metavar="ARG")
    _add_output_flags(p)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser("verify", help="check a coloring result against its graph")
    p.add_argument("graph")
    p.add_argument("result")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bench", help="per-instance CSV over generated instances")
    p.add_argument("paths", nargs="*", help="graph files")
    p.add_argument("--gen", action="append", nargs="+", metavar="ARG",
                   help="generator spec; repeatable; exhaustive N M_MAX expands "
                        "to the whole corpus")
    p.add_argument("--oracle", action="store_true",
                   help="include exact chi' and fail the run on any bound violation")
    p.add_argument("--timings", action="store_true",
                   help="append a wall-clock column (breaks byte-for-byte "
                        "determinism)")
    p.add_argument("--out", help="write the CSV to this file instead of stdout")
    p.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "out", None) and not _out_writable(args.out):
        return 1
    try:
        return args.func(args)
    except ScaleExceededError as exc:
        print(f"graph too large: {exc}", file=sys.stderr)
        return 1
    except ModuleNotFoundError as exc:   # numpy runs the larger Gamma scans
        if exc.name != "numpy":
            raise
        print(f"missing dependency: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
