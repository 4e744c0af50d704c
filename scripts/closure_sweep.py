#!/usr/bin/env python3
"""Sweep the full catalog and print each contour decomposition.

For every entry, and for nonexact1 at the energies where its cuts reach
farthest (E = 100, 200, 400), the infinity term J_GammaR (a Laurent
coefficient) is compared against the sum of fixed-pole and branch-cut
contributions; the closure residual is the numerical error of that identity
and should sit near machine precision.  The last line gives the largest
residual over the sweep; the script exits with status 1 when it exceeds
CLOSURE_TOL.

    PYTHONPATH=src python scripts/closure_sweep.py
"""

import sys

import susywkb as sw

CLOSURE_TOL = 1e-12
FAR_NONEXACT1 = (100.0, 200.0, 400.0)


def probe_energy(spec):
    if spec.id == "nonexact2":
        return sw.numerov_eigenvalue(spec, 1)
    return sw.catalog.probe_energy(spec, 2)


def fmt(z):
    z = complex(z)
    if abs(z.imag) < 1e-12:
        return f"{z.real:+.10f}"
    return f"{z.real:+.6f}{z.imag:+.6f}i"


def cases():
    for spec in sw.catalog_list():
        yield spec, probe_energy(spec)
    for E in FAR_NONEXACT1:
        yield sw.get_spec("nonexact1"), E


def main():
    worst = (0.0, None)
    for spec, E in cases():
        dec = sw.decompose(spec, E)
        print(f"== {spec.id}  (E = {E:.6g}) ==")
        for pole in sorted(dec.J_gamma, key=sw.catalog.plane_key):
            print(f"  pole {fmt(pole):>22s} : {fmt(dec.J_gamma[pole])}")
        print(f"  infinity (Laurent)     : {fmt(dec.J_GammaR)}")
        print(f"  classical cut          : {fmt(dec.J_classical_cut)}")
        print(f"  mirror cut             : {fmt(dec.J_mirror_cut)}")
        for k, v in enumerate(dec.J_other_cuts):
            print(f"  other cut {k}            : {fmt(v)}")
        print(f"  closure residual       : {dec.closure_residual:.3e}")
        print()
        worst = max(worst, (dec.closure_residual, f"{spec.id}, E = {E:.6g}"))
    print(f"largest closure residual: {worst[0]:.3e} ({worst[1]}), "
          f"tolerance {CLOSURE_TOL:.0e}")
    return 1 if worst[0] > CLOSURE_TOL else 0


if __name__ == "__main__":
    sys.exit(main())
