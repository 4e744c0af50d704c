"""Potential catalog: definitions, mappings, spectra, serialization."""

import dataclasses
import json
import math

import mpmath
import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import susywkb as sw
from susywkb import DomainError, numerov, swkb

from conftest import (MULTIPLE_POLE_SPECS, TEXTBOOK_IDS, drawn_spec,
                      textbook_spec)


def test_catalog_has_nine_entries():
    specs = sw.catalog_list()
    assert len(specs) == 9
    assert [s.id for s in specs] == list(sw.CATALOG_IDS)


def test_eckart_definition():
    spec = sw.get_spec("eckart")
    assert spec.mapping == "exp"
    # omega(y) = -A(y^2+1)/(y^2-1) + B/A at the defaults A=1, B=16
    y = 2.0
    expect = -1.0 * (y * y + 1) / (y * y - 1) + 16.0
    assert spec.omega_y(y) == pytest.approx(expect)


def test_nonexact1_definition():
    spec = sw.get_spec("nonexact1")
    assert spec.mapping == "identity"
    x = 1.3
    expect = (2 * x**6 + 3 * x**4 - x**2 - 6) / (2 * x * (x * x + 1) * (x * x + 2))
    assert spec.omega_x(x) == pytest.approx(expect)


def test_eckart_superpotential_limit():
    spec = sw.get_spec("eckart")
    assert spec.omega_x(40.0) == pytest.approx(15.0, abs=1e-9)


def test_eckart_v_minus_value():
    spec = sw.get_spec("eckart")
    # A(A - alpha*hbar) = 0 at the defaults, so V_- = 257 - 32*coth(1) at x=1
    expect = 257.0 - 32.0 / math.tanh(1.0)
    assert spec.v_minus(1.0) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("pot_id", sw.CATALOG_IDS)
def test_v_minus_matches_numeric_derivative(pot_id):
    spec = sw.get_spec(pot_id)
    lo, hi = spec.domain
    a = lo + 0.3 if math.isfinite(lo) else -1.0
    b = hi - 0.3 if math.isfinite(hi) else 1.5
    xs = np.linspace(a, b, 7)
    h = 1e-6
    for x in xs:
        om = spec.omega_x(x)
        dom = (spec.omega_x(x + h) - spec.omega_x(x - h)) / (2.0 * h)
        assert spec.v_minus(x) == pytest.approx(om * om - spec.hbar * dom,
                                                abs=1e-6 * (1 + abs(om) ** 2))


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("pot_id", sw.CATALOG_IDS)
def test_v_minus_matches_omega_x(pot_id, seed):
    spec = sw.get_spec(pot_id) if seed is None else drawn_spec(pot_id, seed)
    # the h/2 grid of the level-1 oracle
    hint = spec.spectrum(1) if spec.spectrum else None
    _, _, _, x_min, x_max, _ = numerov._prepare(spec, 1, hint)
    xs = np.linspace(x_min, x_max, 40001)
    om, dom = spec.omega_x(xs), spec.omega_prime_x(xs)
    ref = om ** 2 - spec.hbar * dom
    v = spec.v_minus(xs)
    if spec.mapping == "exp_i":
        assert np.array_equal(v, ref)
    else:
        # float64 in place of complex arithmetic on one table: at most
        # 2.7e-14 (genpt) and 2.1e-14 (eckart), both at their defaults
        assert np.all(np.abs(v - ref)
                      <= 1e-13 * (om ** 2 + spec.hbar * np.abs(dom)))
    x = float(xs[20000])
    assert spec.v_minus(x) == pytest.approx(v[20000], rel=1e-15, abs=0.0)


def _mp_omega_and_v_minus(spec, x):
    """omega, omega' and V_- at the float x, from num, den, num' and den'
    in 40-digit arithmetic."""
    with mpmath.workdps(40):
        x, k = mpmath.mpf(x), mpmath.mpf(spec.alpha)
        if spec.mapping == "identity":
            y, dydx = x, 1
        elif spec.mapping == "exp":
            y = mpmath.exp(k * x)
            dydx = k * y
        else:
            y = mpmath.expj(k * x)
            dydx = 1j * k * y
        num, dnum, den, dden = (
            v for p in (spec.omega_y.num, spec.omega_y.den)
            for v in mpmath.polyval([mpmath.mpc(c) for c in p.coeffs[::-1]],
                                    y, derivative=True))
        om = num / den
        dom = (dnum - om * dden) / den * dydx
        return (float(mpmath.re(om)), float(mpmath.re(dom)),
                float(mpmath.re(om * om - spec.hbar * dom)))


@pytest.mark.parametrize("seed", [None, 1, 2, 3])
@pytest.mark.parametrize("pot_id", sw.CATALOG_IDS)
def test_v_minus_against_40_digits(pot_id, seed):
    # the 20 points at each end of the level-1 oracle's h/2 grid, next to
    # the walls, and 40 more; relative to omega^2 + hbar |omega'| the worst
    # errors are 7.8e-14 in V_- and 2.0e-13 in hbar omega' (rosenmorse1 and
    # scarf1, seeds 1-3), against 3.0e-11 for den^2 expanded (scarf1)
    spec = sw.get_spec(pot_id) if seed is None else drawn_spec(pot_id, seed)
    hint = spec.spectrum(1) if spec.spectrum else None
    _, _, _, x_min, x_max, _ = numerov._prepare(spec, 1, hint)
    xs = np.linspace(x_min, x_max, 40001)
    inner = np.random.default_rng(0).choice(np.arange(20, 39981), 40,
                                            replace=False)
    xs = xs[np.r_[0:20, 39981:40001, inner]]
    om, dom, v = np.array([_mp_omega_and_v_minus(spec, x) for x in xs]).T
    scale = om ** 2 + spec.hbar * np.abs(dom)
    assert np.all(np.abs(spec.v_minus(xs) - v) <= 2e-13 * scale)
    assert np.all(spec.hbar * np.abs(spec.omega_prime_x(xs) - dom)
                  <= 1e-12 * scale)


@pytest.mark.parametrize("pot_id", sw.EXACT_IDS)
def test_mapping_consistency(pot_id):
    spec = sw.get_spec(pot_id)
    lo, hi = spec.domain
    a = lo + 0.2 if math.isfinite(lo) else -2.0
    b = hi - 0.2 if math.isfinite(hi) else 2.0
    xs = np.linspace(a, b, 100)
    vals = spec.omega_y(spec.y_of_x(xs))
    assert np.abs(vals.imag).max() <= 1e-10
    assert np.allclose(vals.real, spec.omega_x(xs), atol=1e-12, rtol=1e-12)


@pytest.mark.parametrize("pot_id", sw.EXACT_IDS + ("nonexact1",))
def test_spectrum_ground_state_zero_and_increasing(pot_id):
    spec = sw.get_spec(pot_id)
    assert sw.closed_form_energy(spec, 0) == pytest.approx(0.0, abs=1e-12)
    prev = 0.0
    n = 1
    while n <= 4 and spec.n_is_bound(n):
        E = sw.closed_form_energy(spec, n)
        assert E > prev
        prev = E
        n += 1


def test_eckart_spectrum_values():
    spec = sw.get_spec("eckart")
    assert sw.closed_form_energy(spec, 1) == pytest.approx(189.0)


def test_scarf2_spectrum_value():
    spec = sw.get_spec("scarf2")
    assert sw.closed_form_energy(spec, 1) == pytest.approx(5.0)


@pytest.mark.parametrize("pot_id", sw.EXACT_IDS)
def test_bound_levels_below_threshold(pot_id):
    spec = sw.get_spec(pot_id)
    n = 0
    while n <= 4 and spec.n_is_bound(n):
        assert sw.closed_form_energy(spec, n) < spec.threshold
        n += 1


def test_unbound_level_rejected():
    spec = sw.get_spec("eckart")
    with pytest.raises(DomainError) as err:
        sw.closed_form_energy(spec, 10)
    assert "bound-state count" in str(err.value)


def test_parameter_validation():
    with pytest.raises(DomainError):
        sw.get_spec("eckart", params={"B": 0.5})   # violates B > A^2
    with pytest.raises(DomainError):
        sw.get_spec("rosenmorse2", params={"B": 20.0})  # violates B < A^2
    with pytest.raises(DomainError):
        sw.get_spec("nope")
    with pytest.raises(DomainError):
        sw.get_spec("eckart", params={"Z": 1.0})
    with pytest.raises(DomainError):
        sw.get_spec("eckart", hbar=-1.0)
    # hbar is a positive finite number and every parameter is finite
    for hbar in (0.0, math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            sw.get_spec("scarf1", hbar=hbar)
    # and finite parameters whose closed form overflows are refused too
    for params in ({"A": math.inf}, {"alpha": math.inf}, {"B": math.nan},
                   {"A": 1e308}):
        with pytest.raises(DomainError):
            sw.get_spec("scarf2", params=params)


def test_catalog_omega_keeps_its_poles():
    # num(+-1) = -2A is 2e-10 of max|num| at A = 1e-4, B = 100: both wall
    # poles y = +-1 stay, beside the mapping pole y = 0
    spec = sw.get_spec("eckart", params={"A": 1e-4, "B": 100.0})
    assert spec.omega_y.den.degree == 2
    assert len(spec.fixed_poles_y) == 3
    # every entry is irreducible as built, at its defaults and across
    # parameter space: num is far from zero at each zero of den
    for pot_id in sw.CATALOG_IDS:
        for spec in [sw.get_spec(pot_id)] + [drawn_spec(pot_id, seed)
                                             for seed in (1, 2, 3)]:
            num = spec.omega_y.num
            scale = np.abs(num.coeffs).max()
            for r in sw.find_roots(spec.omega_y.den):
                assert abs(num(r)) >= (1e-4 * scale
                                       * max(1.0, abs(r)) ** num.degree)


def test_domain_enforcement():
    spec = sw.get_spec("eckart")
    with pytest.raises(DomainError):
        spec.omega_x(-1.0)
    for bad in ([0.5, 0.0, 1.0], np.array([1.0, 2.0, 0.0])):
        with pytest.raises(DomainError):
            spec.omega_x(bad)
    scarf1 = sw.get_spec("scarf1")
    lo, hi = scarf1.domain
    for bad in ([0.1, hi], np.array([lo, 0.0]), np.asarray(hi)):
        with pytest.raises(DomainError):
            scarf1.omega_x(bad)


def omega_x_specs():
    for pot_id in sw.CATALOG_IDS:
        yield sw.get_spec(pot_id)
        for seed in (1, 2, 3):
            yield drawn_spec(pot_id, seed)
    for name in TEXTBOOK_IDS:
        yield textbook_spec(name)


def test_omega_x_is_omega_y_bit_for_bit():
    # one Horner pass over num and den returns what omega_y returns, for
    # scalar, 0-d and 1-d x, signs of zero included
    for spec in omega_x_specs():
        lo, hi = spec.domain
        xs = np.linspace(max(lo, -4.0), min(hi, 4.0), 41)[1:-1]
        for x in (xs, *xs[::5], *map(np.asarray, xs[::5])):
            got = np.asarray(spec.omega_x(x))
            want = np.asarray(spec.omega_y(spec.y_of_x(x))).real
            assert got.shape == want.shape
            assert np.array_equal(got, want), spec.id
            assert np.array_equal(np.signbit(got), np.signbit(want))


def test_json_round_trip():
    spec = sw.get_spec("eckart", params={"B": 20.0})
    doc = json.dumps(spec.to_json())
    back = sw.spec_from_json(doc)
    assert back.id == "eckart"
    assert back.params["B"] == 20.0
    assert back.omega_y(2.0) == pytest.approx(spec.omega_y(2.0))


def test_y_symmetry_detection():
    assert sw.get_spec("eckart").is_y_symmetric()
    assert not sw.get_spec("scarf2").is_y_symmetric()


def test_spec_caches_equal_what_they_replace():
    # each value built once per spec, against the same value computed afresh
    rng = np.random.default_rng(3)
    ys = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    for spec in sw.catalog_list():
        num, den = spec.omega_y.num, spec.omega_y.den
        # the symmetry flag: omega^2 at -y against omega^2 at y
        w2, m2 = spec.omega_y(ys) ** 2, spec.omega_y(-ys) ** 2
        assert spec.is_y_symmetric() == bool(
            np.all(np.abs(m2 - w2) <= 1e-12 * (1.0 + np.abs(w2))))
        # E den^2 - num^2, bit for bit
        for E in (0.5, 3.0, 189.0):
            want = (sw.Polynomial(E) * den * den - num * num).coeffs
            assert np.array_equal(swkb._energy_numerator(spec, E).coeffs,
                                  want)
        # the residue weights: measure(p)/den'(p) by numpy's polyder, on
        # y den and with y measure at the mapping pole
        assert tuple(spec.residue_weights) == spec.fixed_poles_y
        for pole, weight in spec.residue_weights.items():
            if spec.mapping != "identity" and abs(pole) < 1e-9:
                d = npoly.polymulx(den.coeffs)
                measure = 1.0 / complex(spec.dydx(1.0))
            else:
                d, measure = den.coeffs, complex(spec.measure(pole))
            slope = complex(npoly.polyval(pole, npoly.polyder(d)))
            assert weight == pytest.approx(measure / slope, rel=1e-15)
    # a spec with a multiple pole builds, with its caches, and the pole is
    # marked; it raises only where a contour term needs it
    # (test_contours.test_multiple_pole_raises)
    for spec, pole in MULTIPLE_POLE_SPECS:
        fresh = dataclasses.replace(spec)
        # the lookup radius of contours.pole_contribution
        near = [p for p in fresh.fixed_poles_y
                if abs(p - pole) <= 1e-3 * (1.0 + abs(pole))]
        assert near and all(fresh.residue_weights[p] is None for p in near)


def test_nonexact3_flagged_partial():
    assert sw.get_spec("nonexact3").partial
    assert not sw.get_spec("eckart").partial


LIMIT_SPECS = ([sw.get_spec(p) for p in sw.CATALOG_IDS]
               + [drawn_spec(p, s) for p in sw.CATALOG_IDS for s in (1, 2, 3)]
               + [textbook_spec(t) for t in TEXTBOOK_IDS])


@pytest.mark.parametrize("spec", LIMIT_SPECS,
                         ids=lambda spec: f"{spec.id}-{spec.hbar:.4f}")
def test_omega_limits_at_the_domain_ends(spec):
    # the ends of the monotone pieces hold omega's limits at the domain's
    # ends: +-inf at a pole (the walls of eckart, genpt, nonexact1,
    # nonexact2 and the exp_i entries, whose y0 = exp(i alpha x0) is a zero
    # of den only to rounding), else the finite limit.  Reference: omega_x
    # at two points approaching the end; a pole where |omega| grows 100x
    k = 1.0 if spec.mapping == "identity" else spec.alpha
    lo, hi = spec.domain
    pieces = spec.omega_pieces
    for x0, inward, got in ((lo, 1.0, pieces[0].oms[0]),
                            (hi, -1.0, pieces[-1].oms[-1])):
        if math.isinf(x0):
            far = (1e6, 1e8) if spec.mapping == "identity" else (30.0, 40.0)
            xs = [math.copysign(d, x0) / k for d in far]
        else:
            xs = [x0 + inward * h / k for h in (1e-7, 1e-9)]
        near, nearer = spec.omega_x(np.array(xs))
        if abs(nearer) > 10.0 * abs(near) + 1.0:
            assert got == math.copysign(math.inf, nearer), x0
        else:
            assert got == pytest.approx(nearer, rel=1e-6, abs=1e-6), x0
            assert math.isfinite(got)
