#!/usr/bin/env python3
"""Fresh-process start-up cost of the gscolor command line.

Each command below runs N times (default 5) in a new interpreter with
PYTHONPATH set to this checkout's `src`, and the best wall time is printed
with whether that process loaded numpy, `dataclasses` or `inspect`, and
which gscolor submodules it loaded. The runs are interleaved: each of N
rounds runs every command once, in order, so that a machine that drifts
between speeds slows all commands alike instead of one block of runs:

    python3 benchmarks/startup.py [N]

The commands are a bare interpreter, `import gscolor`, `gscolor.cli color
--gen petersen --out R`, `verify` of that result against Petersen's graph
file, and `report --gen ring 11 3`, whose 11-vertex density scan is the
smallest that imports numpy. Which modules a command loads is read from one
more, untimed run under `python -X importtime`, which names every module
the process imports (`gscolor.cli` runs as `__main__`, so it is not
listed). The first line records the interpreter, whether it writes
bytecode, and for how many of the package's modules `src/gscolor/__pycache__`
held bytecode for this interpreter before any command ran.
PYTHONDONTWRITEBYTECODE stops a process from writing that cache, not from
reading it: only with no cache and the variable set does every process
compile each source it imports. Where bytecode is written, the untimed run
writes what is missing, and the timed runs read it.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "gscolor"
WATCHED = ("numpy", "dataclasses", "inspect")


def commands(workdir: str) -> list:
    """(name, interpreter arguments) of each command, in the order they run:
    `verify` reads the result that `color` writes."""
    sys.path.insert(0, str(ROOT / "src"))
    from gscolor.generators import petersen
    from gscolor.graph import format_multigraph
    graph = os.path.join(workdir, "petersen.mg")
    result = os.path.join(workdir, "petersen.json")
    with open(graph, "w") as fh:
        fh.write(format_multigraph(petersen()))
    cli = ["-m", "gscolor.cli"]
    return [("bare interpreter", ["-c", "pass"]),
            ("import gscolor", ["-c", "import gscolor"]),
            ("color --gen petersen --out R",
             [*cli, "color", "--gen", "petersen", "--out", result]),
            ("verify petersen R", [*cli, "verify", graph, result]),
            ("report --gen ring 11 3", [*cli, "report", "--gen", "ring", "11", "3"])]


def wall_time(args: list, env: dict) -> float:
    t0 = time.perf_counter()
    subprocess.run([sys.executable, *args], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def loaded(args: list, env: dict) -> tuple:
    """For each of WATCHED, whether the command imports it; and the gscolor
    submodules it imports, comma-separated, or "-" for none."""
    err = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                         check=True, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True).stderr
    names = {line.rsplit("|", 1)[-1].strip() for line in err.splitlines()
             if line.startswith("import time:")}
    ours = sorted(name[len("gscolor."):] for name in names
                  if name.startswith("gscolor."))
    return [name in names for name in WATCHED], ",".join(ours) or "-"


def cached_modules() -> str:
    """For how many of the package's modules its __pycache__ holds bytecode
    for this interpreter."""
    sources = sorted(PACKAGE.glob("*.py"))
    tag = sys.implementation.cache_tag
    cached = [p for p in sources
              if (PACKAGE / "__pycache__" / f"{p.stem}.{tag}.pyc").exists()]
    return f"{len(cached)} of {len(sources)} modules ({tag})"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    repeat = int(argv[0]) if argv else 5
    if repeat < 1:
        raise SystemExit("N must be at least 1")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"# python {version}, writes bytecode: "
          f"{'no' if env.get('PYTHONDONTWRITEBYTECODE') else 'yes'}, "
          f"bytecode in src/gscolor/__pycache__: {cached_modules()}, best of {repeat}")
    print(f"{'command':<30} {'best (ms)':>9}  " + "  ".join(WATCHED)
          + "  gscolor modules")
    with tempfile.TemporaryDirectory() as workdir:
        runs = commands(workdir)
        modules = [loaded(args, env) for _, args in runs]
        best = [float("inf")] * len(runs)
        for _ in range(repeat):
            for i, (_, args) in enumerate(runs):
                best[i] = min(best[i], wall_time(args, env))
    for (name, _), (flags, ours), seconds in zip(runs, modules, best):
        cells = "  ".join(f"{'yes' if f else 'no':<{len(w)}}"
                          for f, w in zip(flags, WATCHED))
        print(f"{name:<30} {seconds * 1e3:9.1f}  {cells}  {ours}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
