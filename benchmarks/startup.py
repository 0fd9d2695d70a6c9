#!/usr/bin/env python3
"""Fresh-process start-up cost of the gscolor command line.

Each command below runs N times (default 5) in a new interpreter with
PYTHONPATH set to this checkout's `src`, and the best wall time is printed
with whether that process loaded numpy, `dataclasses` or `inspect`:

    python3 benchmarks/startup.py [N]

The commands are a bare interpreter, `import gscolor`, `gscolor.cli color
--gen petersen --out R`, `verify` of that result against Petersen's graph
file, and `report --gen ring 11 3`, whose 11-vertex density scan is the
smallest that imports numpy. Which modules a command loads is read from one
more, untimed run under `python -X importtime`, which names every module
the process imports. The first line records the interpreter and whether it
writes bytecode: with PYTHONDONTWRITEBYTECODE set, every process compiles
the package's sources again.
"""

import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from gscolor.generators import petersen  # noqa: E402
from gscolor.graph import format_multigraph  # noqa: E402

WATCHED = ("numpy", "dataclasses", "inspect")


def commands(workdir: str) -> list:
    """(name, interpreter arguments) of each command, in the order they run:
    `verify` reads the result that `color` writes."""
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


def loaded(args: list, env: dict) -> list:
    """For each of WATCHED, whether the command imports it."""
    err = subprocess.run([sys.executable, "-X", "importtime", *args], env=env,
                         check=True, stdout=subprocess.DEVNULL,
                         stderr=subprocess.PIPE, text=True).stderr
    names = {line.rsplit("|", 1)[-1].strip() for line in err.splitlines()
             if line.startswith("import time:")}
    return [name in names for name in WATCHED]


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    repeat = int(argv[0]) if argv else 5
    if repeat < 1:
        raise SystemExit("N must be at least 1")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    version = ".".join(map(str, sys.version_info[:3]))
    print(f"# python {version}, writes bytecode: "
          f"{'no' if env.get('PYTHONDONTWRITEBYTECODE') else 'yes'}, best of {repeat}")
    print(f"{'command':<30} {'best (ms)':>9}  " + "  ".join(WATCHED))
    with tempfile.TemporaryDirectory() as workdir:
        for name, args in commands(workdir):
            flags = loaded(args, env)
            best = min(wall_time(args, env) for _ in range(repeat))
            cells = "  ".join(f"{'yes' if f else 'no':<{len(w)}}"
                              for f, w in zip(flags, WATCHED))
            print(f"{name:<30} {best * 1e3:9.1f}  {cells}".rstrip())
    return 0


if __name__ == "__main__":
    sys.exit(main())
