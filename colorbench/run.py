"""Run one benchmark workload; see colorbench/README.md.

    python3 colorbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The last line of standard output is one JSON
object with `correct`, `attempted`, `failed` and `metrics`.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from colorbench.harness import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
