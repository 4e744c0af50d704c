"""Self-test of the benchmark's checks: each accepts a right result and
rejects a deliberately wrong one.  Needs no program source.

    python3 perfbench/selftest.py
"""

import math
import os
import sys
from types import SimpleNamespace

from scipy.optimize import brentq

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import reference as ref  # noqa: E402

ECKART = {"A": 1.0, "B": 16.0, "alpha": 1.0}
SCARF1 = {"A": 1.0, "B": 0.5, "alpha": 1.0}


def decomposition(pot_id, params, E, n=None, closure=0.0):
    """A decomposition built from the references alone."""
    J = ref.j_swkb(pot_id, params, E)
    if pot_id == "nonexact1":
        J_gamma = dict(ref.NONEXACT1_J_GAMMA)
        J_GammaR = ref.nonexact1_j_gamma_r(E)
    elif pot_id == "nonexact2":
        J_gamma = {0j: 2.0}
        J_GammaR = ref.nonexact2_pole_sum(E) + 2.0
    else:
        J_gamma = {0j: 0.5}
        J_GammaR = 2.0 * n + 0.5
    return SimpleNamespace(J_gamma=J_gamma, J_GammaR=J_GammaR,
                           J_classical_cut=complex(J), closure_residual=closure)


def main():
    cases = []

    def expect(name, problems, wrong):
        ok = bool(problems) == wrong
        cases.append((name, ok))
        print(f"{'ok  ' if ok else 'FAIL'} {name}: {problems or 'accepted'}")

    # levels against the closed form and against the quad J
    E1 = ref.closed_form("eckart", ECKART, 1.0, 1)
    expect("eckart level", ref.check_level("eckart", ECKART, 1.0, 1, E1),
           False)
    expect("eckart level off by 1e-6",
           ref.check_level("eckart", ECKART, 1.0, 1, E1 + 1e-6), True)
    E_sw = brentq(lambda E: ref.j_swkb("nonexact1", {}, E) - 1.0, 3.0, 5.0,
                  xtol=1e-14)
    expect("nonexact1 SWKB level",
           ref.check_level("nonexact1", {}, 1.0, 1, E_sw), False)
    expect("nonexact1 SWKB level off by 1e-6",
           ref.check_level("nonexact1", {}, 1.0, 1, E_sw + 1e-6), True)
    expect("scarf1 oracle level",
           ref.check_oracle("scarf1", SCARF1, 1.0, 1, 3.0 + 1e-7), False)
    expect("scarf1 oracle level off by 1e-3",
           ref.check_oracle("scarf1", SCARF1, 1.0, 1, 3.0 + 1e-3), True)

    # decompositions
    for pot_id, params, E, n in (("eckart", ECKART, E1, 1),
                                 ("nonexact1", {}, 8.0, None),
                                 ("nonexact2", {}, 0.035, None)):
        dec = decomposition(pot_id, params, E, n)
        J = ref.j_swkb(pot_id, params, E)
        expect(f"{pot_id} decomposition",
               ref.check_decomposition(pot_id, params, 1.0, E, dec, J, n),
               False)
        bad = decomposition(pot_id, params, E, n, closure=1e-8)
        expect(f"{pot_id} closure 1e-8",
               ["closure"] if ref.closure_failed(bad) else [], True)
        bad = decomposition(pot_id, params, E, n)
        bad.J_classical_cut += 1e-8
        expect(f"{pot_id} classical cut off by 1e-8",
               ref.check_decomposition(pot_id, params, 1.0, E, bad, J, n),
               True)
        bad = decomposition(pot_id, params, E, n)
        bad.J_GammaR += 1e-8
        expect(f"{pot_id} J_GammaR off by 1e-8",
               ref.check_decomposition(pot_id, params, 1.0, E, bad, J, n),
               True)
    bad = decomposition("nonexact1", {}, 8.0)
    bad.J_gamma[1j] = -1.0 + 1e-8
    expect("nonexact1 J_gamma(i) off by 1e-8",
           ref.check_decomposition("nonexact1", {}, 1.0, 8.0, bad,
                                   ref.j_swkb("nonexact1", {}, 8.0)), True)

    # defect reports
    E_ne2 = 0.03491466653630712
    for pot_id, E, n in (("eckart", E1, 1), ("nonexact1", 4.0, 1),
                         ("nonexact2", E_ne2, 1)):
        want = ref.expected_pole_offset(pot_id, E, n)
        rep = SimpleNamespace(consistency_gap=1e-12, pole_offset=want)
        expect(f"{pot_id} defect", ref.check_defect(pot_id, E, n, rep), False)
        rep = SimpleNamespace(consistency_gap=1e-12, pole_offset=want + 1e-6)
        expect(f"{pot_id} wrong pole_offset",
               ref.check_defect(pot_id, E, n, rep), True)
        rep = SimpleNamespace(consistency_gap=2e-6, pole_offset=want)
        expect(f"{pot_id} consistency gap 2e-6",
               ref.check_defect(pot_id, E, n, rep), True)
    # nonexact2 at E_1: pole_offset = 1/(2 kappa) - 3 (README, Checks)
    kappa = math.sqrt(1.0 / 16.0 - E_ne2)
    expect("nonexact2 pole_offset formula",
           [] if abs(ref.expected_pole_offset("nonexact2", E_ne2, 1)
                     - (1.0 / (2.0 * kappa) - 3.0)) < 1e-12 else ["formula"],
           False)

    bad = [name for name, ok in cases if not ok]
    print(f"{len(cases) - len(bad)} of {len(cases)} checks behave")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
