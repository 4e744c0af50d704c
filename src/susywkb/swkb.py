"""Real-axis SWKB engine.

J_SWKB(E) = (1/pi) * integral_{x1}^{x2} sqrt(E - omega^2(x)) dx between the
two real turning points, and the inversion of the quantization condition
J_SWKB(E) = n * hbar for eigenvalues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.optimize import brentq

from .cpoly import Polynomial, find_roots
from .errors import ConvergenceError, DomainError, UnboundEnergyError
from .quadrature import (GL_ORDER_MAX, ORDER_START, gauss_legendre,
                         refine_until)

TAU_SWKB = 1e-11     # quadrature self-consistency target
TAU_LEVEL = 1e-10    # |J/hbar - n| tolerance for solved levels


@dataclass(frozen=True)
class TurningPoints:
    x1: float
    x2: float


@dataclass(frozen=True)
class QuantizationResult:
    n: int
    energy: float
    method: str          # swkb_quadrature | contour | closed_form | numerov
    residual: float


def _energy_numerator(spec, E):
    """Polynomial P(y) = E*den^2 - num^2 whose roots are the branch points
    of sqrt(E - omega^2) in the mapped plane."""
    num, den = spec.omega_y.num, spec.omega_y.den
    return Polynomial(E) * den * den - num * num


def turning_points(spec, E, roots=None):
    """The unique pair of real turning points of E - omega^2 in the domain.
    roots, the roots of _energy_numerator(spec, E) when the caller holds
    them already, spares solving for them again."""
    if not (E > 0):
        raise UnboundEnergyError(f"E={E} must be positive")
    if E >= spec.threshold:
        raise UnboundEnergyError(
            f"E={E} at or above the binding threshold {spec.threshold} "
            f"of {spec.id}")
    if roots is None:
        roots = find_roots(_energy_numerator(spec, E))
    lo, hi = spec.domain
    xs = []
    for r in roots:
        x = spec.x_of_y(r)
        if x is not None and lo < x < hi:
            xs.append(x)
    xs = sorted(set(round(x, 12) for x in xs))
    if len(xs) != 2:
        raise UnboundEnergyError(
            f"E={E}: found {len(xs)} real turning points in the domain of "
            f"{spec.id}, expected exactly 2")
    x1, x2 = xs
    # sanity: classically allowed in between
    mid = spec.omega_x(np.linspace(x1, x2, 21)[1:-1]) ** 2
    if np.any(mid >= E):
        raise UnboundEnergyError(
            f"E={E}: region between turning points is not classically "
            f"allowed for {spec.id}")
    return TurningPoints(x1, x2)


def swkb_integral(spec, E, tol=TAU_SWKB):
    """(1/pi) * integral of sqrt(E - omega^2) over the classical region.

    The substitution x = x_mid + x_half*sin(theta) removes the inverse-
    square-root turning-point behavior, after which Gauss-Legendre
    quadrature converges exponentially; the order is doubled until two
    successive results agree within tol.
    """
    if E == 0.0:
        return 0.0
    tp = turning_points(spec, E)
    xm, xh = 0.5 * (tp.x1 + tp.x2), 0.5 * (tp.x2 - tp.x1)

    def at_order(order):
        t, wt = gauss_legendre(order)
        th = t * np.pi / 2.0
        xs = xm + xh * np.sin(th)
        om2 = spec.omega_x(xs) ** 2
        integ = np.sqrt(np.maximum(E - om2, 0.0)) * xh * np.cos(th) * np.pi / 2.0
        return float(np.sum(wt * integ) / np.pi)

    return refine_until(at_order, ORDER_START, GL_ORDER_MAX, tol,
                        "SWKB quadrature")


def solve_level(spec, n, tol=TAU_LEVEL):
    """Energy of level n from J_SWKB(E) = n*hbar by bracketed root finding
    on the monotone map E -> J_SWKB(E)."""
    if n < 0:
        raise DomainError("n must be non-negative")
    if n == 0:
        return QuantizationResult(0, 0.0, "swkb_quadrature", 0.0)
    hbar = spec.hbar
    target = n * hbar
    # brentq evaluates again the ends _bracket has evaluated, and returns a
    # root it has evaluated: keep J by energy for this solve
    J = cache(lambda E: swkb_integral(spec, E))

    def g(E):
        return J(E) - target

    lo, hi = _bracket(spec, g, n)
    E = brentq(g, lo, hi, xtol=1e-14, rtol=8.9e-16)
    resid = abs(J(E) / hbar - n)
    if resid > tol:
        raise ConvergenceError(
            f"level solve residual {resid} exceeds {tol}",
            residuals=[resid])
    return QuantizationResult(n, float(E), "swkb_quadrature", resid)


def _unbound_level(spec, n):
    """The error for a level n above the bound spectrum of spec."""
    return UnboundEnergyError(
        f"level n={n} exceeds the bound spectrum of {spec.id}")


def _bracket(spec, g, n):
    """Bracket for a monotone level equation g(E) = 0, g < 0 below the level.

    A finite threshold is approached from inside, farthest first: near it a
    turning point runs away or meets a pole, and quadratures may not
    converge there, so a ConvergenceError ends the approach."""
    if math.isfinite(spec.threshold):
        for eps in (1e-3, 1e-5, 1e-7, 1e-9):
            hi = spec.threshold * (1.0 - eps)
            if g(hi) > 0.0:
                break
        else:
            raise _unbound_level(spec, n)
        lo = 1e-9 * spec.threshold
    else:
        hi = 1.0
        for _ in range(60):
            try:
                if g(hi) > 0.0:
                    break
            except UnboundEnergyError:
                pass
            hi *= 2.0
        else:
            raise UnboundEnergyError(
                f"could not bracket level n={n} for {spec.id}")
        lo = 1e-9
    # lower end: J -> 0 as E -> 0+, so g(lo) < 0 once lo is small enough.
    # Below a local maximum of omega^2 an energy can have more than one pair
    # of turning points; step such a lo up instead, staying below hi.
    for _ in range(60):
        try:
            if g(lo) < 0.0:
                return lo, hi
        except UnboundEnergyError:
            lo = min(4.0 * lo, 0.5 * (lo + hi))
            continue
        lo *= 0.25
    raise ConvergenceError(f"could not establish lower bracket for n={n}")
