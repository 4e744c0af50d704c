"""Real-axis SWKB engine: turning points, action integral, level solving."""

import dataclasses
import math

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly
from scipy.integrate import quad
from scipy.optimize import brentq

import susywkb as sw
from susywkb import (ConvergenceError, RationalFunction, UnboundEnergyError,
                     swkb)
from susywkb.quadrature import gauss_chebyshev, refine_until
from susywkb.swkb import solve_level, swkb_integral, turning_points

from conftest import drawn_spec


def test_eckart_turning_points_analytic():
    spec = sw.get_spec("eckart")
    tp = turning_points(spec, 189.0)
    # coth(x) = 16 -+ sqrt(189) at the turning points
    r = math.sqrt(189.0)
    assert tp.x1 == pytest.approx(math.atanh(1.0 / (16.0 + r)), abs=1e-14)
    assert tp.x2 == pytest.approx(math.atanh(1.0 / (16.0 - r)), abs=1e-14)


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


def test_forbidden_gap_between_turning_points_rejected():
    # omega = x^2 - 1: omega^2 = 1/4 at x^2 = 1/2 and 3/2, and only the
    # inner pair +-0.707 lies in (-1.1, 1.1); omega^2(0) = 1 > E between.
    spec = dataclasses.replace(
        sw.get_spec("nonexact3"), omega_y=RationalFunction([-1.0, 0.0, 1.0],
                                                           [1.0]),
        mapping="identity", domain=(-1.1, 1.1))
    with pytest.raises(UnboundEnergyError, match="not classically allowed"):
        turning_points(spec, 0.25)


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


@pytest.mark.parametrize("pot_id, n", [
    (p, n) for p in sw.EXACT_IDS for n in (1, 2)
    if sw.get_spec(p).n_is_bound(n)] + [("nonexact2", 1)])
def test_solve_level_integrates_each_energy_once(pot_id, n, monkeypatch):
    energies = []

    def counted(spec, E):
        energies.append(E)
        return swkb_integral(spec, E)

    monkeypatch.setattr(swkb, "swkb_integral", counted)
    r = solve_level(sw.get_spec(pot_id), n)
    assert len(energies) == len(set(energies))
    assert r.energy in energies     # the residual reuses the root's value
    if pot_id in sw.EXACT_IDS:
        # the search starts at the QHJ pole-sum level, which is the SWKB
        # level on the exact entries; over the whole range it took 4-13
        assert len(energies) <= 4


def _level_or_error(spec, n, start):
    try:
        return swkb.solve_action(spec, n, lambda E: swkb_integral(spec, E),
                                 "swkb_quadrature", start).energy
    except (sw.DomainError, ConvergenceError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("pot_id", sw.CATALOG_IDS)
def test_start_energy_decides_nothing(pot_id):
    # from the pole level, far from it on either side, past the threshold
    # and below 0, each level is the one the search without a start finds
    for spec in [sw.get_spec(pot_id)] + [drawn_spec(pot_id, s)
                                         for s in (1, 2, 3)]:
        for n in range(1, 5):
            if not spec.n_is_bound(n):
                continue
            want = _level_or_error(spec, n, None)
            base = swkb._pole_level(spec, n)
            if base is None:            # nonexact3: its sum fixes no level
                assert pot_id == "nonexact3"
                base = want
            past = (2.0 * spec.threshold if math.isfinite(spec.threshold)
                    else math.inf)
            for start in (base, 0.7 * base, 1.3 * base, past, -base):
                got = _level_or_error(spec, n, start)
                if isinstance(want, float):
                    assert got == pytest.approx(want, rel=1e-15, abs=0.0), \
                        (spec.params, n, start)
                else:
                    assert got == want


def test_start_energy_keeps_the_error_next_to_the_threshold():
    # these levels lie so close to the threshold that the SWKB integral
    # loses a turning point there: started at the closed form, the solve
    # raises the error it raises without a start
    spec = sw.get_spec("eckart", params={"A": 1e-4, "B": 100})
    for n in (1, 2, 5):
        want = _level_or_error(spec, n, None)
        assert want[0] is UnboundEnergyError
        assert _level_or_error(spec, n, spec.spectrum(n)) == want


# every bound level n <= 4 of the entries with a solvable SWKB level but
# nonexact3, as the Gauss-Chebyshev rule on unrounded turning points gives
# them, bit for bit, with the search started at the QHJ pole-sum level
PINNED_LEVELS = {
    ("eckart", 1): 188.99999999999997,
    ("eckart", 2): 219.55555555555557,
    ("scarf2", 1): 5.000000000000001,
    ("scarf2", 2): 8.0,
    ("rosenmorse2", 1): 6.805555555555556,
    ("rosenmorse2", 2): 11.25,
    ("genpt", 1): 2.999999999999999,
    ("scarf1", 1): 2.9999999999999996,
    ("scarf1", 2): 7.999999999999999,
    ("scarf1", 3): 15.0,
    ("scarf1", 4): 23.999999999999996,
    ("rosenmorse1", 1): 3.7499999999999996,
    ("rosenmorse1", 2): 8.888888888888888,
    ("rosenmorse1", 3): 15.937499999999998,
    ("rosenmorse1", 4): 24.959999999999997,
    ("nonexact1", 1): 4.023584266821252,
    ("nonexact1", 2): 8.01945170523651,
    ("nonexact1", 3): 12.01543352412143,
    ("nonexact1", 4): 16.01246610620445,
    ("nonexact2", 1): 0.0348106372720408,
    ("nonexact2", 2): 0.046936308903142855,
    ("nonexact2", 3): 0.052537612803422604,
    ("nonexact2", 4): 0.05557934918273687,
}


@pytest.mark.parametrize("pot_id, n", list(PINNED_LEVELS))
def test_solve_level_energy_is_pinned(pot_id, n):
    energy = solve_level(sw.get_spec(pot_id), n).energy
    assert energy == PINNED_LEVELS[pot_id, n]


def test_solve_level_zero_is_exact():
    spec = sw.get_spec("eckart")
    r = solve_level(spec, 0)
    assert r.energy == 0.0
    assert r.residual == 0.0


def test_solve_level_beyond_bound_spectrum():
    spec = sw.get_spec("eckart")     # bound levels: n = 0..2 at the defaults
    with pytest.raises(UnboundEnergyError):
        solve_level(spec, 5)


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


@pytest.mark.parametrize("n", [1, 2, 3, 37, 62, 80, 120])
def test_nonexact2_level_below_the_threshold(n, quadratures):
    # omega rises from -inf at x = 0 to 1/4 as x -> inf, so x2 runs away as
    # E approaches the threshold 1/16; the bracket must not probe there.
    spec = sw.get_spec("nonexact2")
    E = solve_level(spec, n).energy
    # The farthest x2 of a solve, and its largest node count, is at the
    # bracket end: thr (1 - 1e-3), x2 = 1.6e4 and 2048 nodes, where
    # J = 61.2; above that, as at n = 62, 80 and 120, thr (1 - 1e-5),
    # x2 = 1.6e6 and 65536 nodes.
    assert max(nodes for *_, nodes in quadratures) <= (
        2048 if n <= 61 else 65536)

    num = [-192.0, -240.0, -108.0, -56.0, -16.0, 0.0, 1.0]
    den = [0.0, 192.0, 320.0, 272.0, 120.0, 32.0, 4.0]

    def omega(x):
        return npoly.polyval(x, num) / npoly.polyval(x, den)

    k = math.sqrt(E)
    x1 = brentq(lambda x: omega(x) + k, 1e-6, 1e6, xtol=1e-15)
    x2 = brentq(lambda x: omega(x) - k, 1e-6, 1e6, xtol=1e-15)
    J, _ = quad(lambda x: math.sqrt(max(E - omega(x) ** 2, 0.0)), x1, x2,
                epsabs=1e-13, epsrel=1e-13, limit=400)
    assert abs(J / math.pi / spec.hbar - n) <= 1e-10


def test_refine_until_reports_the_last_difference():
    with pytest.raises(ConvergenceError, match="halving did not converge") \
            as info:
        refine_until(lambda n: 1.0 / n, 1, 8, 1e-3, "halving")
    assert info.value.residuals == [0.125]


def test_first_two_orders_take_one_call_on_fixed_nodes():
    # (1/pi) int sqrt(1 - t^2)/(a - t) dt over [-1, 1] is a - sqrt(a^2 - 1)
    for a, converged in ((3.0, 128), (1.001, 1024)):
        calls = []

        def term(t, s):
            calls.append(len(t))
            return s * s / (a - t)

        val = gauss_chebyshev(term, "test rule")
        # one call on the 127 nodes of order 128 gives orders 64 and 128;
        # each later order n adds its n/2 odd nodes
        assert calls == [127] + [n // 2 for n in (256, 512, 1024)
                                 if n <= converged]
        assert val == pytest.approx(a - math.sqrt(a * a - 1.0), rel=1e-13)


def test_first_pass_nodes_are_read_only():
    def scribbling(t, s):
        t += 1.0
        return s * s

    with pytest.raises(ValueError, match="read-only"):
        gauss_chebyshev(scribbling, "test rule")
    # (1/pi) int sqrt(1 - t^2)(1 + t) dt over [-1, 1]
    assert gauss_chebyshev(lambda t, s: s * s * (1.0 + t),
                           "test rule") == pytest.approx(0.5, abs=1e-15)
