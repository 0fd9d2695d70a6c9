"""Set-up probe: a fresh interpreter that imports gscolor and builds inputs.

    python3 colorbench/setup_probe.py WORKLOAD SEED WORKDIR
    python3 colorbench/setup_probe.py --import-only

Prints one JSON line with `imported`, the `time.monotonic()` reading once
`import gscolor` has returned (the harness subtracts its own reading from
just before the spawn, so interpreter start-up counts), `import_s`, the time
taken by `import gscolor` alone, and, unless `--import-only`, `build_s`, the
time taken to build the inputs, with `build_scale`, its factor to reference
speed from calibrate.LOOP samples taken just before and after.
"""

import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

_t1 = time.perf_counter()
import gscolor  # noqa: E402,F401

import_s = time.perf_counter() - _t1
out = {"imported": time.monotonic(), "import_s": import_s}

if sys.argv[1] != "--import-only":
    from colorbench.calibrate import LOOP  # noqa: E402
    from colorbench.workloads import build  # noqa: E402
    before = LOOP.sample()
    _t2 = time.perf_counter()
    build(sys.argv[1], int(sys.argv[2]), sys.argv[3])
    out["build_s"] = time.perf_counter() - _t2
    out["build_scale"] = LOOP.scale(before, LOOP.sample())
print(json.dumps(out))
