"""Complex polynomials and rational functions, each ratio kept as given.

Coefficients are stored ascending in degree, matching
``numpy.polynomial.polynomial`` conventions.  Degrees in this package stay
small (at most 12).  The root finder takes the companion-matrix
eigenvalues, which are backward stable, and refines them by Newton steps
that are kept only where they lower |p|.  Every root it returns meets the
1e-10 relative residual bound required of turning-point and branch-point
computations.  A well separated simple root comes back to about working
precision; an m-fold root comes back as m points about eps^(1/m) from it,
the distance to which rounding resolves it.  The catalog's poles and branch
points are simple or at most double, and it builds each omega irreducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConvergenceError, DomainError

ROOT_TOL = 1e-10      # relative residual bound for accepted roots


def _trim(coeffs):
    c = np.asarray(coeffs, dtype=complex)
    if c.ndim == 0:
        c = c.reshape(1)
    nz = np.nonzero(np.abs(c) > 0)[0]
    if len(nz) == 0:
        return np.zeros(1, dtype=complex)
    return c[: nz[-1] + 1]


@dataclass(frozen=True)
class Polynomial:
    """Dense complex polynomial, coefficients ascending in degree."""

    coeffs: np.ndarray

    def __init__(self, coeffs):
        object.__setattr__(self, "coeffs", _trim(coeffs))

    @property
    def degree(self):
        if self.is_zero:
            return 0
        return len(self.coeffs) - 1

    @property
    def is_zero(self):
        return len(self.coeffs) == 1 and self.coeffs[0] == 0

    def __call__(self, z):
        return npoly.polyval(z, self.coeffs)

    def __add__(self, other):
        return Polynomial(npoly.polyadd(self.coeffs, _as_coeffs(other)))

    def __sub__(self, other):
        return Polynomial(npoly.polysub(self.coeffs, _as_coeffs(other)))

    def __mul__(self, other):
        return Polynomial(npoly.polymul(self.coeffs, _as_coeffs(other)))

    __rmul__ = __mul__

    def deriv(self):
        return Polynomial(npoly.polyder(self.coeffs))

    def monic(self):
        return Polynomial(self.coeffs / self.coeffs[-1])


def _as_coeffs(p):
    if isinstance(p, Polynomial):
        return p.coeffs
    return np.atleast_1d(np.asarray(p, dtype=complex))


def find_roots(p: Polynomial):
    """All complex roots of ``p``, repeated per multiplicity.

    The eigenvalues of the companion matrix (backward stable, so each is
    already the exact root of a nearby polynomial), refined by Newton steps
    on p that are kept only where they lower |p| (_newton_polish).  An
    m-fold root comes back as m roots within about eps^(1/m) (1 + |r|) of
    it: the residual cannot tell them apart.  The returned roots satisfy
    |p(r)| <= ROOT_TOL * max|coeff| * max(1, |r|)^deg; failing that a
    ConvergenceError carrying the residuals is raised.
    """
    if p.is_zero:
        raise DomainError("cannot take roots of the zero polynomial")
    c = p.monic().coeffs
    n = len(c) - 1
    if n == 0:
        return np.zeros(0, dtype=complex)
    oc = p.coeffs
    z = _newton_polish(oc, npoly.polyroots(c))
    res = np.abs(npoly.polyval(z, oc))
    bound = ROOT_TOL * np.abs(oc).max() * np.maximum(1.0, np.abs(z)) ** n
    if np.any(res > bound):
        raise ConvergenceError(
            "root finder did not converge", residuals=res.tolist()
        )
    return z


def _newton_polish(c, z):
    """Three Newton steps on the polynomial with coefficients c, each kept
    only where it lowers |c(z)|: at a multiple root, or a pair of roots
    closer than rounding resolves, p/p' is noise and a step can throw the
    point far off."""
    dc = c[1:] * np.arange(1, len(c))
    pv = npoly.polyval(z, c)
    for _ in range(3):
        dv = npoly.polyval(z, dc)
        good = np.abs(dv) > 1e-300
        new = np.where(good, z - pv / np.where(good, dv, 1), z)
        pn = npoly.polyval(new, c)
        lower = np.abs(pn) < np.abs(pv)
        z, pv = np.where(lower, new, z), np.where(lower, pn, pv)
    return z


@dataclass(frozen=True)
class RationalFunction:
    """Ratio of two complex polynomials, kept as given: no common root of
    num and den is cancelled, so each zero of den stays a pole."""

    num: Polynomial
    den: Polynomial

    def __init__(self, num, den):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise DomainError("rational function with zero denominator")
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __call__(self, z):
        return self.num(z) / self.den(z)

    def deriv(self):
        """Exact rational derivative (num' den - num den') / den^2."""
        n, d = self.num, self.den
        return RationalFunction(n.deriv() * d - n * d.deriv(), d * d)
