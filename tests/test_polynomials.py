"""Polynomial and rational-function machinery."""

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from hypothesis import example, given, settings
from hypothesis import strategies as st

import susywkb as sw
from susywkb import (ConvergenceError, DomainError, Polynomial,
                     RationalFunction, cpoly, find_roots)
from susywkb.swkb import _energy_numerator


def test_trivial_quadratic_roots():
    roots = sorted(find_roots(Polynomial([-1.0, 0.0, 1.0])), key=lambda z: z.real)
    assert roots[0] == pytest.approx(-1.0)
    assert roots[1] == pytest.approx(1.0)


def test_root_count_equals_degree():
    p = Polynomial([2.0, -3.0, 0.5, 1j, 4.0])
    assert len(find_roots(p)) == p.degree == 4


def test_repeated_roots_reported_with_multiplicity():
    # (z - 1)^3
    p = Polynomial([-1.0, 3.0, -3.0, 1.0])
    roots = find_roots(p)
    assert len(roots) == 3
    assert np.allclose(roots, 1.0, atol=1e-4)


def test_zero_polynomial_rejected():
    with pytest.raises(DomainError):
        find_roots(Polynomial([0.0]))


def test_constant_polynomial_has_no_roots():
    assert len(find_roots(Polynomial([3.0]))) == 0


EPS = np.finfo(float).eps

# a double root whose companion eigenvalues lie within 1.2e-16 of it, where
# an undamped Newton step divides rounding by rounding
DOUBLE_ROOT = 0.48266893566123503 * (1 + 1j)


def smallest_gap(z):
    gaps = np.abs(z[:, None] - z[None, :])
    np.fill_diagonal(gaps, np.inf)
    return gaps.min()


# the lower bracket end of a level solve, 1e-9 of the threshold (or 1e-9):
# there pairs of branch points lie 4e-6 to 6e-5 apart, so rounding resolves
# them only to about eps/distance; the refinement must neither leave the
# residual above ROOT_TOL nor merge a close pair
@pytest.mark.parametrize("pot_id, E", [
    ("eckart", 2.25e-7), ("scarf1", 1e-9),
    ("nonexact1", 1e-9), ("nonexact2", 6.25e-11),
])
def test_close_branch_points_stop_at_the_rounding_level(pot_id, E):
    P = _energy_numerator(sw.get_spec(pot_id), E)
    roots = find_roots(P)
    assert len(roots) == P.degree
    res = np.abs(P(roots))
    bound = (cpoly.ROOT_TOL * np.abs(P.coeffs).max()
             * np.maximum(1.0, np.abs(roots)) ** P.degree)
    assert np.all(res <= bound)
    eigenvalues = np.polynomial.polynomial.polyroots(P.monic().coeffs)
    assert smallest_gap(roots) == pytest.approx(smallest_gap(eigenvalues),
                                                rel=1e-3)


def assert_roots_recovered(roots, found):
    """Each constructed root r of exact multiplicity k has k found roots
    near it.  A cluster of m constructed roots within 1e-3 (1 + |r|) of r
    comes back only to about eps^(1/m) (cpoly.find_roots), so the k-th
    nearest found root must lie within max(1e-5, 10 eps^(1/m)) (1 + |r|)
    of r: 1e-5 (1 + |r|) for m <= 2."""
    assert len(found) == len(roots)
    built = np.asarray(roots, dtype=complex)
    for r in set(roots):
        k = roots.count(r)
        m = np.count_nonzero(np.abs(built - r) <= 1e-3 * (1.0 + abs(r)))
        kth = np.sort(np.abs(found - r))[k - 1]
        assert kth <= max(1e-5, 10.0 * EPS ** (1.0 / m)) * (1.0 + abs(r))


@settings(max_examples=200, deadline=None, derandomize=True)
@example(roots=[DOUBLE_ROOT, DOUBLE_ROOT])
@given(st.lists(st.complex_numbers(max_magnitude=3.0, min_magnitude=0.01,
                                   allow_nan=False, allow_infinity=False),
                min_size=1, max_size=6))
def test_roots_recovered_from_factored_form(roots):
    coeffs = np.array([1.0 + 0j])
    for r in roots:
        coeffs = np.convolve(coeffs, [-r, 1.0])
    assert_roots_recovered(roots, find_roots(Polynomial(coeffs)))


def reference_roots(p):
    """find_roots in library calls, one root at a time: npoly.polyroots of
    the monic coefficients, then per root three Newton steps with p and p'
    each from its own npoly.polyval at the Python complex root and the
    quotient in Python complex division, each kept where |p| drops, and
    the residual gate on a fresh npoly.polyval."""
    c = p.coeffs
    dc = c[1:] * np.arange(1, len(c))
    z = []
    for r in npoly.polyroots(p.monic().coeffs).tolist():
        pv = npoly.polyval(r, c)
        for _ in range(3):
            dv = npoly.polyval(r, dc)
            new = r - complex(pv) / complex(dv) if abs(dv) > 1e-300 else r
            pn = npoly.polyval(new, c)
            if abs(pn) < abs(pv):
                r, pv = new, pn
        z.append(r)
    z = np.array(z)
    res = np.abs([npoly.polyval(r, c) for r in z.tolist()])
    bound = (cpoly.ROOT_TOL * np.abs(c).max()
             * np.maximum(1.0, np.abs(z)) ** p.degree)
    if np.any(res > bound):
        raise ConvergenceError("root finder did not converge",
                               residuals=res.tolist())
    return z


def assert_bitwise_equal(a, b):
    """Equal values, and equal signs of zero in both parts."""
    assert np.array_equal(a, b)
    for part in (np.real, np.imag):
        assert np.array_equal(np.signbit(part(a)), np.signbit(part(b)))


def assert_matches_reference(p):
    try:
        want = reference_roots(p)
    except ConvergenceError as err:
        with pytest.raises(ConvergenceError) as got:
            find_roots(p)
        assert got.value.residuals == err.residuals
        return
    assert_bitwise_equal(find_roots(p), want)


def level_solve_energies(spec):
    """The energies a level solve tries on spec, and more: its lower
    bracket end, a grid up to the threshold (or to 1e3), and the threshold
    approached as thr (1 - 10^-k)."""
    thr = spec.threshold
    top = thr if np.isfinite(thr) else 1e3
    Es = [1e-9 * top, *np.geomspace(1e-9 * top, top * (1 - 1e-7), 60)]
    if np.isfinite(thr):
        Es += [thr * (1 - 10.0 ** -k) for k in range(1, 13)]
    return Es


def roots_at_40_digits(p):
    with mpmath.workdps(40):
        return [complex(r) for r in mpmath.polyroots(
            [mpmath.mpc(c) for c in p.coeffs[::-1]], maxsteps=200,
            extraprec=100)]


def test_find_roots_against_40_digits():
    # every twelfth energy a level solve may try, and the closed-form levels
    # n <= 4, of each entry: 460 roots, each against its nearest 40-digit
    # root.  Over every energy of level_solve_energies (3738 roots) the
    # largest relative error is 5.85e-11, at a near-double root of
    # nonexact2 at E = 1.8e-10, and the median 5.5e-16.
    errs = []
    for spec in map(sw.get_spec, sw.CATALOG_IDS):
        Es = level_solve_energies(spec)[::12]
        if spec.spectrum is not None:
            Es += [spec.spectrum(n) for n in range(1, 5) if spec.n_is_bound(n)]
        for E in Es:
            P = _energy_numerator(spec, E)
            found = list(find_roots(P))
            for r in roots_at_40_digits(P):
                k = np.argmin(np.abs(np.subtract(found, r)))
                errs.append(abs(found.pop(k) - r) / abs(r))
    assert len(errs) == 460
    assert max(errs) <= 1e-10
    assert np.median(errs) <= 1e-15


@pytest.mark.parametrize("pot_id", sw.CATALOG_IDS)
def test_find_roots_matches_reference_on_the_catalog(pot_id):
    spec = sw.get_spec(pot_id)
    for E in level_solve_energies(spec):
        assert_matches_reference(_energy_numerator(spec, E))


def test_find_roots_matches_reference_at_eckart_bracket_tops():
    # a wall root at y = 1 where the polish must reach |P| ~ 1e-24
    spec = sw.get_spec("eckart", params={"A": 1e-4, "B": 100.0})
    for eps in (1e-3, 1e-5, 1e-7, 1e-9):
        assert_matches_reference(
            _energy_numerator(spec, spec.threshold * (1.0 - eps)))


def test_find_roots_keeps_the_sign_of_a_zero_root():
    for c in ([0.0, 2.0], [-0.0, -3.0], [0.0, 1j]):
        p = Polynomial(c)
        assert_matches_reference(p)
        assert find_roots(p)[0] == 0


@settings(max_examples=200, deadline=None, derandomize=True)
@example(roots=[DOUBLE_ROOT, DOUBLE_ROOT])
@given(st.lists(st.complex_numbers(max_magnitude=3.0, min_magnitude=0.01,
                                   allow_nan=False, allow_infinity=False),
                min_size=1, max_size=6))
def test_find_roots_matches_reference_on_factored_form(roots):
    coeffs = np.array([1.0 + 0j])
    for r in roots:
        coeffs = np.convolve(coeffs, [-r, 1.0])
    assert_matches_reference(Polynomial(coeffs))


@pytest.mark.parametrize("roots", [
    [DOUBLE_ROOT] * 2,
    [1 + 1j] * 2, [1 + 1j] * 3, [1 + 1j] * 4, [1 + 1j] * 5, [1 + 1j] * 6,
    [0.01, 0.01, 1 + 1j, 1 + 1j, -0.01j, -0.01j, -0.01j],
    [1j, 1j, 1j + 2.0 ** -14],            # double root beside a simple one
    [0.01, 1.0, 1.0, 1.0, 1.0001],        # triple root beside a simple one
])
def test_multiple_roots_recovered(roots):
    coeffs = np.array([1.0 + 0j])
    for r in roots:
        coeffs = np.convolve(coeffs, [-r, 1.0])
    assert_roots_recovered(roots, find_roots(Polynomial(coeffs)))


def test_polynomial_arithmetic():
    p = Polynomial([1.0, 2.0])          # 1 + 2z
    q = Polynomial([0.0, 1.0])          # z
    assert (p * q).coeffs == pytest.approx([0.0, 1.0, 2.0])
    assert (p + q).coeffs == pytest.approx([1.0, 3.0])
    assert (p - q).coeffs == pytest.approx([1.0, 1.0])
    assert p(3.0) == pytest.approx(7.0)


def test_trailing_zero_trim():
    p = Polynomial([1.0, 2.0, 0.0, 0.0])
    assert p.degree == 1


def test_rational_zero_denominator_rejected():
    with pytest.raises(DomainError):
        RationalFunction([1.0], [0.0])
