"""Recompute the nonexact2 level energies that decompose_defect uses.

    python3 perfbench/nonexact2_levels.py

nonexact2 has no closed-form spectrum, so its energies come from the
Numerov oracle at the entry's defaults (about 10 s per level, BLAS on one
thread).  Prints each level next to the value recorded in workloads.py.
"""

import os
import sys

os.environ["OMP_NUM_THREADS"] = "1"
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import susywkb as sw  # noqa: E402
from workloads import NONEXACT2_LEVELS  # noqa: E402


def main():
    spec = sw.get_spec("nonexact2")
    for n, recorded in NONEXACT2_LEVELS.items():
        E = sw.numerov_eigenvalue(spec, n)
        print(f"n={n} E={E!r} recorded={recorded!r} diff={E - recorded:.3g}")


if __name__ == "__main__":
    main()
