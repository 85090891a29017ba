"""Smallest eigenvalue of an assembled operator by dense LAPACK.

Reads a config (JSON blocks) on standard input, assembles the operator with
the program's ``assemble`` and prints ``numpy.linalg.eigvalsh(A)[0]``.  The
eigen check runs this in a child process so that its dense copies stay out
of the benchmark's peak memory.
"""

import json
import sys

import numpy as np

import run  # noqa: F401  (pins BLAS threads and puts src/ on the path)
import workloads
from nonlocal_logistic.config import load_config
from nonlocal_logistic.operator import assemble


def main() -> int:
    cfg = load_config(workloads.config_text(json.loads(sys.stdin.read())))
    op = assemble(cfg.grid, cfg.kernel, cfg.far_cutoff)
    print(repr(float(np.linalg.eigvalsh(op.matrix)[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
