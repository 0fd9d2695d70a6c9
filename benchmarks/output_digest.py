#!/usr/bin/env python3
"""One sha256 per benchmark workload over everything `color` outputs.

For each workload, the instances of `colorbench.workloads.build(wl, SEED)`
are colored in order. A complete run feeds `color(G).to_json()` into the
hash, an incomplete one `coloring_to_json` of its partial coloring. Two
trees that print the same digests color every instance byte-identically:

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
from gscolor.coloring import coloring_to_json  # noqa: E402
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
            text = color(inst.graph).to_json()
        except IncompleteColoringError as exc:
            incomplete += 1
            text = coloring_to_json(exc.partial)
        h.update(text.encode())
    return len(instances), incomplete, h.hexdigest()


def main(argv) -> int:
    for workload in argv or WORKLOADS:
        count, incomplete, hexdigest = digest(workload)
        print(f"{workload} {count} {incomplete} {hexdigest}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
