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
from .graph import Multigraph, ParseError, ScaleExceededError, parse_multigraph

BENCH_COLUMNS = ["idx", "spec", "n", "m", "delta", "mu", "gamma", "chi_exact",
                 "k_used", *METHODS, "status"]


class CommandError(Exception):
    """A failure that `main` prints as one stderr line, returning .code."""

    def __init__(self, message: str, code: int = 1):
        super().__init__(message)
        self.code = code


def _read_file(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _load_graph(args) -> Multigraph:
    """The graph from args.path or args.gen; CommandError when both or
    neither is given, or the graph is unusable."""
    if bool(args.gen) == bool(args.path):
        raise CommandError("exactly one of a graph path or --gen is required")
    if args.gen:
        return _read_graph(lambda: generators.from_spec(args.gen))
    return _read_graph(lambda: parse_multigraph(_read_file(args.path)))


def _check_out(path: str) -> None:
    """CommandError unless path opens for writing.

    Append mode does not truncate, and a file this probe created is removed
    again, so the probe leaves the file system as it found it.
    """
    existed = os.path.exists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as exc:
        raise CommandError(f"cannot write output: {exc}")
    if not existed:
        os.remove(path)


def _emit(text: str, args) -> None:
    """Put text in --out, or on stdout and flush it; CommandError if that
    fails (a full disk, a closed pipe)."""
    try:
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)
            sys.stdout.flush()
    except OSError as exc:
        if not args.out:   # stdout keeps the text, and its flush at exit would fail
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        raise CommandError(f"cannot write output: {exc}")


def _emit_json(obj, args) -> None:
    """_emit of obj as compact JSON under --json, indented otherwise."""
    text = json.dumps(obj, separators=(",", ":")) if args.json \
        else json.dumps(obj, indent=2)
    _emit(text + "\n", args)


def _read_graph(load):
    """load(); CommandError when the graph is unusable."""
    try:
        return load()
    except (OSError, UnicodeDecodeError) as exc:     # before its base ValueError
        raise CommandError(f"cannot read graph: {exc}")
    except ParseError as exc:
        raise CommandError(f"parse error: {exc}")
    except ValueError as exc:      # parsing raises ParseError only; this is --gen
        raise CommandError(f"bad generator: {exc}")


def cmd_color(args) -> int:
    G = _load_graph(args)
    try:
        result = color(G)
    except IncompleteColoringError as exc:
        raise CommandError(str(exc), 2)
    _emit_json(result.to_json_obj(), args)
    return 0


def cmd_report(args) -> int:
    _emit_json(bound_report(_load_graph(args)).to_json_obj(), args)
    return 0


def cmd_verify(args) -> int:
    G = _read_graph(lambda: parse_multigraph(_read_file(args.graph)))
    try:
        text = _read_file(args.result)
    except (OSError, UnicodeDecodeError) as exc:
        raise CommandError(f"cannot read result: {exc}", 3)
    try:
        result = result_from_json(G, text)
    except (ValueError, KeyError, RecursionError) as exc:
        raise CommandError(f"invalid result: {exc}", 3)
    if not verify_result(G, result):
        raise CommandError("verification failed")
    return 0


def _bench_instances(args):
    for spec in args.gen or []:
        if spec[0] == "exhaustive":
            n_max, m_max = generators.spec_ints("exhaustive", spec[1:], 2, 2)
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
    violations = 0
    for idx, (name, G) in enumerate(instances):
        row = _bench_row(name, G, args.oracle, args.timings)
        if row[-1 - int(args.timings)] not in ("ok", "oracle-skipped"):
            violations += 1
        writer.writerow([idx] + row)
    _emit(out.getvalue(), args)
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
    """Run one command; on failure print one stderr line and return its code."""
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None):
            _check_out(args.out)      # before any work
        return args.func(args)
    except CommandError as exc:
        message, code = str(exc), exc.code
    except ScaleExceededError as exc:
        message, code = f"graph too large: {exc}", 1
    except ModuleNotFoundError as exc:   # numpy runs the larger Gamma scans
        if exc.name != "numpy":
            raise
        message, code = f"missing dependency: {exc}", 1
    print(message, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
