#!/usr/bin/env python3
"""Regenerate every figure dataset and SVG into figures_out/ (or argv[1]).

Thin wrapper over the CLI so the gallery is reproducible with one command;
each figure prints its own wall time.
"""

import sys
import time

from supergauss.cli import main

OUT = sys.argv[1] if len(sys.argv) > 1 else "figures_out"

for fig in (1, 2, 8, 9, 10):
    t0 = time.perf_counter()
    code = main(["figures", "--fig", str(fig), "--out", OUT])
    if code != 0:
        sys.exit(code)
    print(f"figure {fig}: done in {time.perf_counter() - t0:.1f}s")
print(f"all figures written to {OUT}/")
