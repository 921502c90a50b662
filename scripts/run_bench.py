#!/usr/bin/env python3
"""Reproduce the benchmark table from the vendored instance files.

Usage:
    python scripts/run_bench.py [--tsp exact|christofides] [--format text|csv] [--tours DIR]

Extra instance files dropped into instances/ (nl10.txt, galaxy4.txt, ...)
are picked up automatically. In exact mode, sizes past 20 venues (the
Held-Karp cap) get skipped rows unless DIR holds a matching
<family><n>.tour file, which is then trusted as a shortest cycle.
"""

import sys
from pathlib import Path

from uttp.cli import main

ROOT = Path(__file__).resolve().parent.parent

if __name__ == "__main__":
    sys.exit(main(["bench", str(ROOT / "instances"), *sys.argv[1:]]))
