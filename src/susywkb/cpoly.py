"""Complex polynomials and rational functions, each ratio kept as given.

Coefficients are stored ascending in degree, matching
``numpy.polynomial.polynomial`` conventions.  Degrees in this package stay
small (at most 12).  The root finder refines the companion-matrix
eigenvalues (backward stable) by Newton steps per root in Python complex
arithmetic, p and p' each a scalar Horner recurrence, kept only where they
lower |p|.  Every root it returns meets, by the polish's last p, the 1e-10
relative residual bound of turning-point and branch-point computations.
A well separated simple root comes back to about working precision; an
m-fold root as m points about eps^(1/m) from it, the distance to which
rounding resolves it.  The catalog's poles and branch points are simple
or at most double; each omega is irreducible.
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

    def monic(self):
        return Polynomial(self.coeffs / self.coeffs[-1])


def _as_coeffs(p):
    if isinstance(p, Polynomial):
        return p.coeffs
    return np.atleast_1d(np.asarray(p, dtype=complex))


def _horner(rows, z):
    """The columns of rows (highest degree first) at the ndarray z, with
    npoly.polyval's arithmetic; a NumPy scalar z would round otherwise.
    Only catalog reads it, for V_- on grid arrays and for omega_x, whose
    y_of_x is an ndarray under every mapping (0-d at a scalar x);
    find_roots polishes in scalar arithmetic (_scalar_horner)."""
    rows = rows.reshape(rows.shape + (1,) * z.ndim)
    v = rows[0] + z * 0
    for r in rows[1:]:
        v *= z
        v += r
    return v


def _scalar_horner(coeffs, r):
    """The list coeffs (highest degree first) at the Python complex r, in
    npoly.polyval's order on a scalar."""
    v = coeffs[0] + r * 0
    for ck in coeffs[1:]:
        v = ck + v * r
    return v


def find_roots(p: Polynomial):
    """All complex roots of ``p``, repeated per multiplicity.

    The eigenvalues of the companion matrix as npoly.polyroots takes them
    (backward stable), refined by up to three Newton steps, each kept only
    where it lowers |p|: near a multiple root p/p' is noise.  A root stops
    at its first rejected step, which every later step would repeat.  The
    polish runs per root in Python complex arithmetic, p and p' each a
    Horner recurrence in npoly.polyval's order on a scalar; on arrays of
    2-13 values NumPy's per-call cost would dominate.  An m-fold root comes
    back as m roots within about eps^(1/m) (1 + |r|) of it: the residual
    cannot tell them apart.  The roots satisfy |p(r)| <= ROOT_TOL *
    max|coeff| * max(1, |r|)^deg, p(r) the polish's last value; failing
    that a ConvergenceError carrying the residuals is raised.
    """
    if p.is_zero:
        raise DomainError("cannot take roots of the zero polynomial")
    c = p.coeffs
    n = len(c) - 1
    if n == 0:
        return np.zeros(0, dtype=complex)
    # polyroots' arithmetic; a 1x1 eigensolve flips the sign of a zero root
    mc = c / c[-1]
    if n == 1:
        z = np.array([-mc[0] / mc[1]])
    else:
        companion = np.eye(n, k=-1, dtype=complex)
        companion[:, -1] -= mc[:-1] / mc[-1]
        z = np.linalg.eigvals(companion)
        z.sort()
    cs = c[::-1].tolist()
    ds = (c[1:] * np.arange(1, n + 1))[::-1].tolist()
    roots, res = z.tolist(), []
    for i, r in enumerate(roots):
        pv = _scalar_horner(cs, r)
        for _ in range(3):
            dv = _scalar_horner(ds, r)
            if not abs(dv) > 1e-300:
                break
            new = r - pv / dv
            pn = _scalar_horner(cs, new)
            if not abs(pn) < abs(pv):
                break
            r, pv = new, pn
        roots[i] = r
        res.append(abs(pv))
    z, res = np.array(roots), np.array(res)
    bound = ROOT_TOL * np.abs(c).max() * np.maximum(1.0, np.abs(z)) ** n
    if np.any(res > bound):
        raise ConvergenceError("root finder did not converge",
                               residuals=res.tolist())
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
