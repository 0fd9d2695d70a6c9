"""Machine-speed calibration.

The benchmark runs on shared machines whose speed drifts: on a shared
2-vCPU VM, allocation-heavy Python code alternates between two speeds about
1.7x apart, each held for a fraction of a second to minutes. No averaging
inside a run removes a drift that slow, so the harness measures it instead.
Between chunks of operations it times a reference of the same kind of work,
and scales each chunk's wall times by the reference's nominal time over its
measured time. A timing metric is thus a wall time at a fixed machine speed.

Work of different kinds slows down by different factors, so there are two
references:

- LOOP, an in-process loop over small tuples, dicts and sets with a sort and
  small numpy products, for work done inside the benchmark's process;
- SPAWN, a fresh interpreter that imports numpy, for work done by a fresh
  process, whose cost is mostly interpreter start-up and imports.

Both belong to the benchmark and never change with gscolor, so a faster or
slower gscolor moves the scaled times as it moves the wall times.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

_MATRIX = np.arange(36.0).reshape(6, 6)


def reference_loop() -> int:
    """Fixed work resembling gscolor's: tuples, dicts, sets, sorts, numpy."""
    seen, table, out = set(), {}, []
    for i in range(4000):
        pair = (i * 7919 % 61, i * 104729 % 59)
        table[pair] = table.get(pair, 0) + 1
        if pair[0] not in seen:
            seen.add(pair[0])
            out.append(pair)
    out.sort(key=lambda p: (p[1], p[0]))
    acc = 0.0
    for _ in range(100):
        acc += float(((_MATRIX @ _MATRIX) > 100).sum())
    return len(table) + len(out) + int(acc)


def reference_spawn() -> None:
    """A fresh interpreter that imports numpy, as every gscolor process does."""
    subprocess.run([sys.executable, "-c", "import numpy"], stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, check=True, timeout=60)


@dataclass(frozen=True)
class Reference:
    work: Callable[[], object]
    nominal_s: float    # its time at the speed that scaled times are given at
    tries: int          # a sample is the fastest of this many, to shed interrupts
    chunk_s: float      # wall time of operations between two samples

    def sample(self) -> float:
        """Seconds the reference takes right now."""
        best = float("inf")
        for _ in range(self.tries):
            t0 = time.perf_counter()
            self.work()
            best = min(best, time.perf_counter() - t0)
        return best

    def scale(self, before: float, after: float) -> float:
        """Factor from wall time to reference-speed time for work done
        between two samples."""
        return self.nominal_s / statistics.fmean((before, after))


# The nominal times are about each reference's time in the fast state of the
# VM the seed numbers come from.
LOOP = Reference(reference_loop, nominal_s=0.0015, tries=2, chunk_s=0.2)
SPAWN = Reference(reference_spawn, nominal_s=0.13, tries=1, chunk_s=1.0)
