"""Contour engine: census, residues, closure, quantization, defect."""

import cmath
import math

import pytest

import susywkb as sw
from susywkb import (ConvergenceError, DomainError, UnboundEnergyError,
                     catalog, contours, cpoly, numerov, swkb)
from susywkb.swkb import swkb_integral

from conftest import (MULTIPLE_POLE_SPECS, TEXTBOOK_IDS, decompose_of,
                      drawn_spec, mid_spectrum_energy, spec_of, textbook_spec)


SQ2 = math.sqrt(2.0)


def test_eckart_census():
    cen = sw.census(spec_of("eckart"), 189.0)
    finite = sorted(p for p in cen.fixed_poles if p != "infinity")
    assert finite == [(-1 + 0j), 0j, (1 + 0j)]
    assert "infinity" in cen.fixed_poles
    assert len(cen.branch_points) == 4
    assert len(cen.branch_cuts) == 2
    kinds = sorted(c.kind for c in cen.branch_cuts)
    assert kinds == ["classical", "mirror"]


def test_scarf2_census_poles():
    cen = sw.census(spec_of("scarf2"), 5.0)
    finite = sorted((p for p in cen.fixed_poles if p != "infinity"),
                    key=lambda z: z.imag)
    assert finite == [-1j, 0j, 1j]


def test_nonexact1_census():
    cen = sw.census(spec_of("nonexact1"), 8.0)
    finite = sorted((p for p in cen.fixed_poles if p != "infinity"),
                    key=lambda z: z.imag)
    assert finite == pytest.approx([-1j * SQ2, -1j, 0j, 1j, 1j * SQ2])
    assert len(cen.branch_points) == 12
    assert len(cen.branch_cuts) == 6


def test_exactly_one_classical_cut():
    for pot_id in sw.CATALOG_IDS:
        cen = sw.census(spec_of(pot_id), mid_spectrum_energy(pot_id))
        assert sum(c.kind == "classical" for c in cen.branch_cuts) == 1


def test_eckart_pole_contributions():
    spec = spec_of("eckart")
    assert sw.pole_contribution(spec, 189.0, 0.0) == pytest.approx(-10.0, abs=1e-9)
    assert sw.pole_contribution(spec, 189.0, 1.0) == pytest.approx(1.0, abs=1e-9)
    assert sw.pole_contribution(spec, 189.0, -1.0) == pytest.approx(1.0, abs=1e-9)


def test_eckart_infinity_contribution():
    assert sw.infinity_contribution(spec_of("eckart"), 189.0) == pytest.approx(
        -6.0, abs=1e-9)


def test_unknown_pole_rejected():
    with pytest.raises(DomainError):
        sw.pole_contribution(spec_of("eckart"), 189.0, 5.0 + 5j)


def test_eckart_decomposition_golden():
    dec = decompose_of("eckart", 189.0)
    assert dec.closure_residual <= 1e-9
    assert dec.J_GammaR == pytest.approx(-6.0, abs=1e-9)
    assert dec.J_classical_cut == pytest.approx(1.0, abs=1e-9)
    assert dec.J_mirror_cut == pytest.approx(1.0, abs=1e-9)
    assert dec.J_other_cuts == ()


@pytest.mark.parametrize("pot_id", sw.EXACT_IDS)
def test_mirror_symmetry_of_cut_values(pot_id):
    dec = decompose_of(pot_id, mid_spectrum_energy(pot_id))
    assert abs(dec.J_classical_cut - dec.J_mirror_cut) <= 1e-9


@pytest.mark.parametrize("pot_id", sw.CATALOG_IDS)
def test_classical_cut_matches_real_axis_swkb(pot_id):
    E = mid_spectrum_energy(pot_id)
    dec = decompose_of(pot_id, E)
    assert dec.J_classical_cut.real == pytest.approx(
        swkb_integral(spec_of(pot_id), E), abs=1e-12)
    assert abs(dec.J_classical_cut.imag) <= 1e-12


# nonexact2's first four excited levels from the Numerov oracle, and four
# nonexact1 energies whose cuts reach far from the origin; at E = 100 and
# 200 a fixed pole lies close to each short other cut
@pytest.mark.parametrize("pot_id, E", [
    ("nonexact2", 0.03491466653630712), ("nonexact2", 0.046984278187708145),
    ("nonexact2", 0.0525626674541024), ("nonexact2", 0.05559395214891046),
    ("nonexact1", 4.0), ("nonexact1", 16.0), ("nonexact1", 100.0),
    ("nonexact1", 200.0)])
def test_closure_on_the_non_exact_cuts(pot_id, E):
    dec = decompose_of(pot_id, E)
    assert dec.closure_residual <= 1e-12
    assert abs(dec.J_classical_cut
               - swkb_integral(spec_of(pot_id), E)) <= 1e-12


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("pot_id", sw.CATALOG_IDS)
def test_closure_across_parameter_space(pot_id, seed):
    spec = drawn_spec(pot_id, seed)
    for n in (1, 2):
        dec = sw.decompose(spec, catalog.probe_energy(spec, n))
        assert dec.closure_residual <= 1e-12


@pytest.mark.parametrize("pot_id", ["scarf1", "rosenmorse1"])
def test_classical_arc_ends_lie_on_branch_points(pot_id):
    spec = spec_of(pot_id)
    for n in (1, 2, 3):
        ws = contours._Workspace(spec, catalog.probe_energy(spec, n))
        cut = next(c for c in ws.cuts if c.kind == "classical")
        for end in (cmath.exp(1j * cut.p1), cmath.exp(1j * cut.p2)):
            assert min(abs(end - b) for b in ws.branch_points) <= 1e-15


def test_quantize_by_contours_eckart():
    spec = spec_of("eckart")
    assert sw.quantize_by_contours(spec, 0).energy == 0.0
    r = sw.quantize_by_contours(spec, 1)
    assert r.energy == pytest.approx(189.0, abs=1e-6)
    assert r.method == "contour"


def test_quantize_by_contours_evaluates_each_energy_once(monkeypatch):
    # the level solves the QHJ pole sum, which takes no root of P, and the
    # sheet's condition is taken once, at the level: one workspace, one
    # solve of P
    energies = []
    condition = contours._condition_value

    def counted(spec, E):
        energies.append(E)
        return condition(spec, E)

    def unexpected(P):
        raise AssertionError("P was solved outside the workspace")

    solved = []
    find = contours.find_roots

    def counted_find(P):
        solved.append(P)
        return find(P)

    spec = spec_of("eckart")
    monkeypatch.setattr(contours, "_condition_value", counted)
    # the workspace hands its branch points to turning_points, which then
    # solves no crossing on the monotone pieces of omega
    monkeypatch.setattr(swkb, "_crossing", unexpected)
    monkeypatch.setattr(contours, "find_roots", unexpected)
    sw.quantize_by_poles(spec, 1)
    assert energies == []
    monkeypatch.setattr(contours, "find_roots", counted_find)
    for n in (1, 2):
        energies.clear()
        solved.clear()
        r = sw.quantize_by_contours(spec, n)
        assert energies == [r.energy]
        assert len(solved) == 1
    # with more than two cuts the spec's census builds one workspace, at
    # probe_energy, for m: the pole levels after the first solve no P, and
    # the contour route refuses the spec without a workspace
    built = []
    workspace = contours._Workspace

    def counted_workspace(spec, E):
        built.append(E)
        return workspace(spec, E)

    monkeypatch.setattr(contours, "_Workspace", counted_workspace)
    for pot_id, top in (("nonexact1", 4), ("nonexact2", 3)):
        spec = sw.get_spec(pot_id)
        built.clear()
        with pytest.raises(DomainError):
            sw.quantize_by_contours(spec, 1)
        assert built == []
        monkeypatch.setattr(contours, "find_roots", find)
        sw.quantize_by_poles(spec, 1)
        assert built == [catalog.probe_energy(spec)]
        monkeypatch.setattr(contours, "find_roots", unexpected)
        for n in range(1, top + 1):
            sw.quantize_by_poles(spec, n)
        assert built == [catalog.probe_energy(spec)]


def test_quantize_by_contours_checks_its_residual(monkeypatch):
    # a contour action that jumps across n hbar by 1e-8 at E = 150: brentq
    # ends on the jump, where the level residual is 5e-9, above TAU_LEVEL
    spec = spec_of("eckart")

    def jump(spec, E):
        return spec.hbar + (5e-9 if E > 150.0 else -5e-9)

    monkeypatch.setattr(contours, "_condition_value", jump)
    with pytest.raises(ConvergenceError) as err:
        sw.quantize_by_contours(spec, 1)
    assert err.value.residuals[0] == pytest.approx(5e-9, rel=1e-6)


def test_quantize_by_contours_scarf1_level_nine():
    spec = spec_of("scarf1")
    E = sw.quantize_by_contours(spec, 9).energy
    assert E == pytest.approx(99.0, rel=1e-12)
    assert E == pytest.approx(sw.solve_level(spec, 9).energy, rel=1e-12)


def test_poles_are_solved_once_per_spec(monkeypatch):
    spec = sw.get_spec("eckart")
    den = spec.omega_y.den
    want = tuple(cpoly.find_roots(den))
    solved = []
    find = cpoly.find_roots

    def counted(p):
        solved.append(p)
        return find(p)

    monkeypatch.setattr(catalog, "find_roots", counted)
    monkeypatch.setattr(contours, "find_roots", counted)
    for E in (100.0, 189.0, 189.0):
        contours._Workspace(spec, E)
    assert [p is den for p in solved] == [False, True, False, False]
    assert spec.omega_poles_y == want


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("name", TEXTBOOK_IDS)
def test_textbook_levels_on_both_routes(name, n):
    # the oscillator and Coulomb have one cut and no mirror, so m = 1: the
    # pole sum itself is n hbar at E_n
    spec = textbook_spec(name)
    E = spec.spectrum(n)
    for route in (sw.quantize_by_contours, sw.solve_level):
        assert route(spec, n).energy == pytest.approx(E, rel=1e-12, abs=0)
    kinds = [cut.kind for cut in sw.census(spec, E).branch_cuts]
    assert kinds == (["classical", "mirror"] if name == "radial"
                     else ["classical"])
    assert sw.decompose(spec, E).closure_residual <= 1e-12
    # defect_report reads the m the route quantized with
    assert abs(sw.defect_report(spec, E, n).pole_offset) <= 1e-12


def test_quantize_by_contours_refuses_extra_cuts():
    with pytest.raises(DomainError) as err:
        sw.quantize_by_contours(spec_of("nonexact1"), 1)
    assert "defect_report" in str(err.value)


def test_defect_vanishes_for_eckart_control():
    rep = sw.defect_report(spec_of("eckart"), 189.0, 1)
    assert abs(rep.J_obc_direct) <= 1e-9
    assert abs(rep.J_obc_indirect) <= 1e-8
    assert abs(rep.pole_offset) <= 1e-9


def test_defect_ground_state_trivial():
    rep = sw.defect_report(spec_of("nonexact1"), 0.0, 0)
    assert rep.J_obc_direct == 0.0
    assert rep.J_obc_indirect == 0.0
    assert rep.consistency_gap == 0.0


def test_nonexact1_defect_two_ways():
    rep = sw.defect_report(spec_of("nonexact1"), 4.0, 1)
    assert abs(rep.J_obc_direct) > 1e-6          # non-exactness mechanism
    assert rep.consistency_gap <= 1e-6
    assert abs(rep.pole_offset) <= 1e-6


@pytest.mark.parametrize("pot_id, E, n", [
    ("eckart", 189.0, 1), ("nonexact1", 4.0, 1), ("nonexact2", 0.03, 1),
])
def test_defect_report_solves_the_roots_once(monkeypatch, pot_id, E, n):
    spec = spec_of(pot_id)
    want = sw.defect_report(spec, E, n)     # the spec's poles solved here
    solved = []
    find = cpoly.find_roots

    def counted(P):
        solved.append(P)
        return find(P)

    # the workspace's branch points serve the SWKB integral too, with no
    # crossing solved on the monotone pieces of omega
    monkeypatch.setattr(contours, "find_roots", counted)
    monkeypatch.setattr(swkb, "_crossing", counted)
    assert sw.defect_report(spec, E, n) == want
    assert len(solved) == 1


def test_pole_circle_deformation_invariance():
    # same pole, two different probe energies that move branch points around:
    # the pole term at y = +1 stays A/alpha = 1
    spec = spec_of("eckart")
    for E in (100.0, 189.0):
        assert sw.pole_contribution(spec, E, 1.0) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("E", [16.0, 100.0])
def test_nonexact1_pole_terms_next_to_other_cuts(E):
    # At E = 100 other cuts pass 9e-4 from the poles at +-i and +-sqrt(2) i:
    # a circle of half the distance to the nearest branch point (0.047)
    # would cross them.
    spec = spec_of("nonexact1")
    want = {1j * SQ2: 1.0, -1j * SQ2: 1.0, 1j: -1.0, -1j: -1.0, 0j: 1.5}
    for pole, value in want.items():
        assert abs(sw.pole_contribution(spec, E, pole) - value) <= 1e-12


def _pole_sum(spec, E):
    ws = contours._Workspace(spec, E)
    return ws.infinity_value() - sum(ws.pole_value(p) for p in ws.poles)


@pytest.mark.parametrize("E", [4.0, 16.0, 100.0, 400.0])
def test_nonexact1_pole_sum_is_half_the_energy(E):
    assert abs(_pole_sum(spec_of("nonexact1"), E) - 0.5 * E) <= 1e-13 * E


@pytest.mark.parametrize("E", [0.5, 1.0, 2.0, 3.0])
def test_nonexact3_pole_sum_vanishes(E):
    assert abs(_pole_sum(spec_of("nonexact3"), E)) <= 1e-13


@pytest.mark.parametrize("spec, pole", MULTIPLE_POLE_SPECS)
def test_multiple_pole_raises(spec, pole):
    with pytest.raises(DomainError, match="multiple"):
        sw.pole_contribution(spec, 1.0, pole)
    with pytest.raises(DomainError, match="multiple"):
        sw.decompose(spec, 1.0)


@pytest.mark.parametrize("pot_id, n", [("genpt", 2), ("eckart", 3)])
def test_unbound_level_raises_the_same_error_on_both_routes(pot_id, n):
    spec = sw.get_spec(pot_id)
    assert not spec.n_is_bound(n)
    count = catalog.bound_state_count(spec)
    for solve in (swkb.solve_level, contours.quantize_by_contours,
                  catalog.closed_form_energy, numerov.numerov_eigenvalue,
                  numerov.grid_solution):
        with pytest.raises(UnboundEnergyError) as info:
            solve(spec, n)
        assert type(info.value) is UnboundEnergyError
        assert str(info.value) == (
            f"level n={n} exceeds the bound spectrum of {pot_id} "
            f"(bound-state count: {count})")
        # a negative n is not a level at all
        with pytest.raises(DomainError, match="non-negative") as info:
            solve(spec, -1)
        assert type(info.value) is DomainError


# perfbench contour_levels draws on which the contour level stopped 1e-14
# short of the closed form while the stopping rule differed from the SWKB one
@pytest.mark.parametrize("pot_id, A, B, alpha, hbar, n", [
    ("rosenmorse2", 4.187031134506617, 1.9127463970068777,
     0.9620079018619433, 1.0075907989008392, 1),
    ("rosenmorse2", 4.1543533059083, 1.532169123839358, 0.8748904661180026,
     1.0470885454852736, 2),
    ("rosenmorse1", 1.0321394773333605, 0.9880169921547473,
     1.0490392952552596, 1.009039783565242, 1),
], ids=["rosenmorse2-n1", "rosenmorse2-n2", "rosenmorse1-n1"])
def test_contour_level_agrees_with_the_swkb_level_to_rounding(
        pot_id, A, B, alpha, hbar, n):
    spec = sw.get_spec(pot_id, params={"A": A, "B": B, "alpha": alpha},
                       hbar=hbar)
    E = sw.quantize_by_contours(spec, n).energy
    for want in (sw.closed_form_energy(spec, n),
                 sw.solve_level(spec, n).energy):
        assert abs(E - want) <= 2e-15 * want


# Known failing input (ROADMAP): with A = 1e-4 and B = 100 the levels of
# eckart sit within 1e-8 relative of the threshold (B/A - A)^2, about 1e12,
# and neither route reaches them.  The SWKB route finds both turning points
# (the monotone pieces of omega keep the x1 = 5e-11 that cancellation in P
# loses), but its quadrature does not resolve x1 next to the wall pole by
# 2^17 nodes.  The contour route solves the QHJ pole sum: at n = 1 and 2
# the solve ends with residuals 4.4e-8 and 2.6e-7, above TAU_LEVEL, since
# one ulp of E (1.2e-4) moves the pole sum by about that much there; E_5
# lies 2.2e-10 relative below the threshold, above every bracket top
# (1 - 1e-9), where the ladder cannot bracket it.
@pytest.mark.parametrize("solve, n", [
    pytest.param(swkb.solve_level, n, id=f"swkb-{n}",
                 marks=pytest.mark.xfail(strict=True,
                                         raises=ConvergenceError))
    for n in (1, 2, 5)] + [
    pytest.param(contours.quantize_by_contours, n, id=f"contour-{n}",
                 marks=pytest.mark.xfail(strict=True,
                                         raises=ConvergenceError))
    for n in (1, 2, 5)])
def test_eckart_levels_next_to_the_threshold(solve, n):
    spec = sw.get_spec("eckart", params={"A": 1e-4, "B": 100})
    E = solve(spec, n).energy
    assert E == pytest.approx(sw.closed_form_energy(spec, n), rel=1e-12)


def test_pole_route_next_to_the_eckart_threshold():
    # what the pole route raises on the input above: the level solve's
    # residual gate at n = 1, 2, the threshold ladder at n = 5, whose last
    # top thr (1 - 1e-9) lies below E_5: a bound level, not an unbound one
    spec = sw.get_spec("eckart", params={"A": 1e-4, "B": 100})
    for n in (1, 2):
        with pytest.raises(ConvergenceError) as err:
            sw.quantize_by_poles(spec, n)
        assert err.value.residuals[0] > swkb.TAU_LEVEL
    with pytest.raises(ConvergenceError, match="could not bracket level "
                       "n=5 of eckart below its threshold") as err:
        sw.quantize_by_poles(spec, 5)
    assert str(spec.threshold * (1.0 - 1e-9)) in str(err.value)
    assert err.value.residuals[0] == pytest.approx(-2.1032, abs=1e-4)


# The paper's comparison, term by term: each SWKB sheet term equals its QHJ
# term.  Energies E_1/2, E_1 and E_2 (probe_energy), at most 0.99 of the
# threshold: next to a threshold the sheet is noisy (its pole sum is up to
# 6.3e-12 off on genpt draws 1-3 at 1e-4 below it), and so is eckart's sheet
# at low energies (7.2e-12 at E = 0.3), where each sheet term is off by the
# same factor.  Over the 419 terms below the largest difference is
# 9.2e-15 (1 + |J|).
QHJ_SPECS = ([spec_of(p) for p in sw.CATALOG_IDS]
             + [drawn_spec(p, s) for p in sw.CATALOG_IDS for s in (1, 2, 3)]
             + [textbook_spec(t) for t in TEXTBOOK_IDS])


@pytest.mark.parametrize("spec", QHJ_SPECS,
                         ids=lambda spec: f"{spec.id}-{spec.hbar:.4f}")
def test_every_swkb_pole_term_equals_its_qhj_term(spec):
    E1 = catalog.probe_energy(spec, 1)
    for E in sorted({0.5 * E1, E1, catalog.probe_energy(spec, 2)}):
        if E > 0.99 * spec.threshold:
            continue
        table = contours.residue_table(spec, E)
        assert "infinity" in table
        for loc, (J_swkb, J_qhj, J_other) in table.items():
            assert abs(J_swkb - J_qhj) <= 2e-14 * (1.0 + abs(J_qhj)), loc
            if J_other is not None:
                # the other root of the quadratic, -i(a + hbar g), gives
                # (a + hbar g)/g where the physical one gives -a/g
                assert abs(J_other - (spec.hbar - J_qhj)) <= 1e-14 * (
                    1.0 + abs(J_qhj))
        # the sum over every pole, J_GammaR - sum J_gamma, to its rounding
        total = table.pop("infinity")[1] - sum(
            J for _, J, _ in table.values())
        assert abs(total - spec.qhj(E)) <= 1e-14 * (1.0 + abs(total))


@pytest.mark.parametrize("spec", QHJ_SPECS,
                         ids=lambda spec: f"{spec.id}-{spec.hbar:.4f}")
def test_cut_census_holds_at_every_level(spec):
    # the spec's census, taken once at probe_energy(spec), is the census of
    # the workspace at the probe energy of every bound level n <= 6
    for n in range(7):
        if spec.n_is_bound(n):
            ws = contours._Workspace(spec, catalog.probe_energy(spec, n))
            assert (spec.cut_count, spec.swkb_cut_count) == (
                len(ws.cuts), ws.m), n


@pytest.mark.parametrize("pot_id", sw.EXACT_IDS)
def test_pole_levels_are_the_closed_form(pot_id):
    for spec in [spec_of(pot_id)] + [drawn_spec(pot_id, s) for s in (1, 2, 3)]:
        for n in (1, 2):
            if spec.n_is_bound(n):
                E = sw.quantize_by_poles(spec, n).energy
                assert E == pytest.approx(spec.spectrum(n), rel=1e-12, abs=0)
                assert sw.quantize_by_contours(spec, n).energy == E


def test_nonexact1_pole_levels_are_4n_hbar():
    # the pole sum is E/2 and m = 2; at hbar != 1 too, since omega scales
    # with hbar
    for spec in [spec_of("nonexact1")] + [drawn_spec("nonexact1", s)
                                          for s in (1, 2, 3)]:
        for n in (1, 2, 3):
            E = sw.quantize_by_poles(spec, n).energy
            assert E == pytest.approx(4.0 * n * spec.hbar, rel=1e-12, abs=0)
    assert contours._Workspace(spec_of("nonexact1"), 4.0).m == 2
    assert [sw.quantize_by_poles(spec_of("nonexact1"), n).energy
            for n in (1, 2, 3)] == pytest.approx([4.0, 8.0, 12.0], rel=1e-15)


def test_nonexact2_pole_levels():
    # the pole sum is 1/(2 kappa) - 2, kappa = sqrt(1/16 - E), and m = 1:
    # E = 1/16 - 1/(2n + 4)^2, 0.0347222, 0.046875 and 0.0525 at n = 1-3.
    # There pole_offset vanishes, and closure gives J_SWKB - n hbar =
    # -J_OBC/m both ways.
    spec = spec_of("nonexact2")
    for n in (1, 2, 3):
        E = sw.quantize_by_poles(spec, n).energy
        assert E == pytest.approx(1.0 / 16.0 - 1.0 / (2 * n + 4) ** 2,
                                  rel=1e-12, abs=0)
        assert contours._Workspace(spec, E).m == 1
        rep = sw.defect_report(spec, E, n)
        assert abs(rep.pole_offset) <= 1e-12
        assert rep.consistency_gap <= 1e-12


def test_nonexact3_pole_sum_fixes_no_level():
    with pytest.raises(DomainError, match="does not depend on E"):
        sw.quantize_by_poles(spec_of("nonexact3"), 1)
    for E in (0.5, 1.0, 2.0):
        assert spec_of("nonexact3").qhj(E) == 0


@pytest.mark.parametrize("spec, pole", MULTIPLE_POLE_SPECS)
def test_qhj_refuses_a_multiple_pole(spec, pole):
    with pytest.raises(DomainError, match="multiple"):
        sw.quantize_by_poles(spec, 1)
