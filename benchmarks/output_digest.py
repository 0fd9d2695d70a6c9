#!/usr/bin/env python3
"""One sha256 per benchmark workload over everything `color` outputs.

For each workload, the instances of `colorbench.workloads.build(wl, SEED)`
are colored in order, and each run's `ColoringResult.to_json()` feeds the
hash: the complete record `color(G)` returns, or the partial one that
`IncompleteColoringError.result` carries. Two trees that print the same
digests color every instance byte-identically:

    python3 benchmarks/output_digest.py [WORKLOAD ...]

Each line gives the workload, the instance count, the incomplete count and
the hex digest. With no arguments it covers desk_corpus, dense_multi and
tight_family (about 10 s in all).
"""

import hashlib
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from colorbench.workloads import build  # noqa: E402
from gscolor.engine import IncompleteColoringError, color  # noqa: E402

WORKLOADS = ("desk_corpus", "dense_multi", "tight_family")
SEED = 1


def digest(workload: str) -> tuple:
    """(instance count, incomplete count, hex digest) for one workload."""
    h = hashlib.sha256()
    incomplete = 0
    with tempfile.TemporaryDirectory() as tmp:
        instances = build(workload, SEED, tmp)
    for inst in instances:
        try:
            result = color(inst.graph)
        except IncompleteColoringError as exc:
            incomplete += 1
            result = exc.result
        h.update(result.to_json().encode())
    return len(instances), incomplete, h.hexdigest()


def main(argv) -> int:
    for workload in argv or WORKLOADS:
        count, incomplete, hexdigest = digest(workload)
        print(f"{workload} {count} {incomplete} {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
