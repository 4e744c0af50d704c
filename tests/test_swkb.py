"""Real-axis SWKB engine: turning points, action integral, level solving."""

import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

import susywkb as sw
from susywkb import UnboundEnergyError
from susywkb.swkb import solve_level, swkb_integral, turning_points


def test_eckart_turning_points_analytic():
    spec = sw.get_spec("eckart")
    tp = turning_points(spec, 189.0)
    # coth(x) = 16 -+ sqrt(189) at the turning points
    r = math.sqrt(189.0)
    assert tp.x1 == pytest.approx(math.atanh(1.0 / (16.0 + r)), abs=1e-9)
    assert tp.x2 == pytest.approx(math.atanh(1.0 / (16.0 - r)), abs=1e-9)


def test_turning_points_coalesce_at_low_energy():
    spec = sw.get_spec("eckart")
    tp = turning_points(spec, 1e-6)
    x0 = math.atanh(1.0 / 16.0)
    assert tp.x1 == pytest.approx(x0, abs=1e-3)
    assert tp.x2 == pytest.approx(x0, abs=1e-3)
    assert tp.x1 < tp.x2


def test_unbound_energy_rejected():
    spec = sw.get_spec("eckart")
    with pytest.raises(UnboundEnergyError):
        turning_points(spec, 300.0)    # above threshold (B/A - A)^2 = 225
    with pytest.raises(UnboundEnergyError):
        turning_points(spec, -1.0)


def test_classically_allowed_between_turning_points():
    spec = sw.get_spec("scarf2")
    tp = turning_points(spec, 5.0)
    xs = np.linspace(tp.x1, tp.x2, 41)[1:-1]
    assert np.all(spec.omega_x(xs) ** 2 < 5.0)


def test_swkb_integral_vanishes_at_zero_energy():
    spec = sw.get_spec("eckart")
    assert swkb_integral(spec, 0.0) == 0.0


def test_eckart_exactness_at_level_one():
    spec = sw.get_spec("eckart")
    assert swkb_integral(spec, 189.0) == pytest.approx(1.0, abs=1e-10)


def test_scarf2_exactness_at_level_one():
    spec = sw.get_spec("scarf2")
    assert swkb_integral(spec, 5.0) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("pot_id", sw.EXACT_IDS)
def test_action_is_monotone(pot_id):
    spec = sw.get_spec(pot_id)
    hi = spec.threshold if math.isfinite(spec.threshold) else spec.spectrum(3)
    Es = np.linspace(0.02 * hi, 0.98 * hi, 12)
    Js = [swkb_integral(spec, E) for E in Es]
    assert all(b > a for a, b in zip(Js[:-1], Js[1:]))


def test_solve_level_eckart():
    spec = sw.get_spec("eckart")
    r = solve_level(spec, 1)
    assert r.energy == pytest.approx(189.0, abs=1e-6)
    assert r.method == "swkb_quadrature"
    assert r.residual <= 1e-10


def test_solve_level_zero_is_exact():
    spec = sw.get_spec("eckart")
    r = solve_level(spec, 0)
    assert r.energy == 0.0
    assert r.residual == 0.0


def test_solve_level_beyond_bound_spectrum():
    spec = sw.get_spec("eckart")     # bound levels: n = 0..2 at the defaults
    with pytest.raises(UnboundEnergyError):
        solve_level(spec, 5)


def test_quadrature_self_consistency():
    spec = sw.get_spec("rosenmorse2")
    E = spec.spectrum(1)
    a = swkb_integral(spec, E, tol=1e-11)
    b = swkb_integral(spec, E, tol=1e-9)
    assert a == pytest.approx(b, abs=1e-9)


@pytest.mark.parametrize("n", [1, 2])
def test_nonexact3_level_above_the_inner_wells(n):
    # omega = c1 x + c3 x^3 vanishes at 0 and +-sqrt(-c1/c3), so omega^2 has
    # three wells (six turning points) below its local maximum 7.7e-4; the
    # bracket must step its lower end past that before J is defined.
    spec = sw.get_spec("nonexact3")
    lam, mu0 = spec.params["lam"], spec.params["mu0"]
    c3 = 0.5 * (1.0 - lam * lam)
    c1 = mu0 * lam * lam - c3
    E = solve_level(spec, n).energy

    def omega(x):
        return c1 * x + c3 * x ** 3

    # omega is odd and rises past its outer zero: x1 = -x2
    x2 = brentq(lambda x: omega(x) - math.sqrt(E), math.sqrt(-c1 / c3), 10.0,
                xtol=1e-15)
    J, _ = quad(lambda x: math.sqrt(max(E - omega(x) ** 2, 0.0)), -x2, x2,
                epsabs=1e-13, epsrel=1e-13, limit=400)
    assert abs(J / math.pi / spec.hbar - n) <= 1e-10

