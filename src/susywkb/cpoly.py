"""Complex polynomials and rational functions.

Coefficients are stored ascending in degree, matching
``numpy.polynomial.polynomial`` conventions.  Degrees in this package stay
small (at most 12).  The root finder takes the companion-matrix
eigenvalues, which are backward stable, and refines them by Newton steps
that are kept only where they lower |p|.  Its roots meet the 1e-10 relative
tolerance required of turning-point and branch-point computations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import ConvergenceError, DomainError

ROOT_TOL = 1e-10      # relative residual bound for accepted roots
GCD_TOL = 1e-9        # common-root tolerance when reducing rational functions
EPS = np.finfo(float).eps
CLUSTER_RADIUS = 0.1  # relative reach within which roots may form a cluster
MULTI_ROOT_TOL = 2.0  # multiple of deg times its eps-rounding level that a
                      # Taylor coefficient may reach at a multiple root
MULTI_NEWTON_ITER = 50  # cap on Newton steps toward a multiple root
SPLIT_FACTOR = 10.0   # multiple of the stall radius beyond which a lower
                      # multiplicity is real (see _splits)
SAME_ROOT_TOL = 1e-6   # relative distance within which two multiple roots
                       # found from different seeds are one


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
    on p that are kept only where they lower |p| (_newton_polish).  Near an
    m-fold root the eigenvalues spread by about eps^(1/m), so each cluster
    of them is checked for one (see _multiple_roots); multiple roots found
    are divided out and the quotient's roots are found afresh.  The
    returned roots satisfy |p(r)| <= ROOT_TOL * max|coeff| * scale; failing
    that a ConvergenceError carrying the residuals is raised.
    """
    if p.is_zero:
        raise DomainError("cannot take roots of the zero polynomial")
    c = p.monic().coeffs
    n = len(c) - 1
    if n == 0:
        return np.zeros(0, dtype=complex)
    oc = p.coeffs
    z = _newton_polish(oc, npoly.polyroots(c))
    multiple = _multiple_roots(oc, z)
    if multiple:
        q = p
        for r, m in multiple:
            for _ in range(m):
                q = _deflate(q, r)
        # the quotient inherits the error of each r; polish its roots on p
        rest = _newton_polish(oc, find_roots(q))
        z = np.concatenate([np.repeat([r for r, _ in multiple],
                                      [m for _, m in multiple]), rest])
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


def _multiple_roots(c, z):
    """(root, multiplicity) for each multiple root of c next to which the
    approximate roots z cluster.

    Near an m-fold root the companion eigenvalues spread by about
    eps^(1/m), and the cluster mean is off as well.  An isolated double root
    they still resolve to about sqrt(eps), while an isolated pair of simple
    roots that close (branch points coalescing as E -> 0+) is a double root
    to rounding; so only clusters of three or more points are searched.
    The m-fold root is a simple root of the (m-1)-th derivative, so Newton
    on that derivative, seeded from a cluster member, finds it to working
    precision (_multiple_root).  The largest m for which this works wins,
    unless the cluster is an (m-1)-fold root beside a simple one (_splits).
    """
    found = []
    free = np.ones(len(z), dtype=bool)
    for i, zi in enumerate(z):
        reach = CLUSTER_RADIUS * (1.0 + abs(zi))
        near = free & (np.abs(z - zi) <= reach)
        size = np.count_nonzero(near)
        if not free[i] or size < 3:
            continue
        # which member lies in the basin of the multiple root is not known
        seeds = list(z[near]) + [z[near].mean()]

        def candidate(m):
            for seed in seeds:
                r = _multiple_root(c, seed, m)
                # Newton may run off to another cluster's root, or to one
                # already found; an m-fold root needs m free points near
                if r is not None and np.count_nonzero(
                        free & (np.abs(z - r) <= reach)) >= m and all(
                        abs(r - s) > SAME_ROOT_TOL * (1.0 + abs(s))
                        for s, _ in found):
                    return r
            return None

        for m in range(size, 1, -1):
            r = candidate(m)
            if r is None:
                continue
            while m > 2:
                lower = candidate(m - 1)
                if not _splits(c, r, m, lower):
                    break
                r, m = lower, m - 1
            found.append((r, m))
            # the m free points nearest r stand for it and seed no
            # further search
            dist = np.where(free, np.abs(z - r), np.inf)
            free[np.argsort(dist, kind="stable")[:m]] = False
            break
    return found


def _splits(c, r, m, lower):
    """Whether the (m-1)-fold root ``lower`` is real structure beside the
    m-fold root ``r``: within rounding an (m-1)-fold root next to a simple
    root passes as an m-fold root between them.

    At a true m-fold root Newton for m-1 stalls on a double root of the
    (m-2)-th derivative, within sqrt(2 noise_{m-2} / (m (m-1) |a_m|)) of
    r.  A real (m-1)-fold root lies farther out, but within the m-fold
    rounding radius max_j (noise_j/|a_m|)^(1/(m-j)); beyond that ``lower``
    is some other root.
    """
    if lower is None:
        return False
    a, noise = _taylor(c, r, m)
    if a[m] == 0:
        return False
    stall = math.sqrt(2.0 * noise[m - 2] / (m * (m - 1) * abs(a[m])))
    radius = max((noise[j] / abs(a[m])) ** (1.0 / (m - j)) for j in range(m))
    return SPLIT_FACTOR * stall < abs(lower - r) <= SPLIT_FACTOR * radius


def _multiple_root(c, z0, m):
    """The m-fold root of c that Newton on the (m-1)-th derivative reaches
    from z0, or None if that point is not an m-fold root to rounding
    level."""
    dm = npoly.polyder(c, m - 1)
    dm1 = npoly.polyder(dm)
    r = complex(z0)
    last = math.inf
    for _ in range(MULTI_NEWTON_ITER):
        d = npoly.polyval(r, dm1)
        if d == 0:
            return None
        step = npoly.polyval(r, dm) / d
        if abs(step) >= last:     # rounding noise: no further progress
            break
        r -= step
        last = abs(step)
    a, noise = _taylor(c, r, m - 1)
    if np.all(np.abs(a) <= MULTI_ROOT_TOL * (len(c) - 1) * noise):
        return r
    return None


def _taylor(c, r, jmax):
    """Taylor coefficients a_j = c^(j)(r)/j!, j = 0..jmax, and the rounding
    level of each: eps times the same sum taken over |coefficients|."""
    k = np.arange(len(c))
    a = np.empty(jmax + 1, dtype=complex)
    noise = np.empty(jmax + 1)
    for j in range(jmax + 1):
        binom = np.array([math.comb(int(i), j) for i in k[j:]], dtype=float)
        a[j] = np.sum(c[j:] * binom * r ** (k[j:] - j))
        noise[j] = EPS * np.sum(np.abs(c[j:]) * binom * abs(r) ** (k[j:] - j))
    return a, noise


@dataclass(frozen=True)
class RationalFunction:
    """Reduced ratio of two complex polynomials."""

    num: Polynomial
    den: Polynomial

    def __init__(self, num, den, reduce=True):
        num = num if isinstance(num, Polynomial) else Polynomial(num)
        den = den if isinstance(den, Polynomial) else Polynomial(den)
        if den.is_zero:
            raise DomainError("rational function with zero denominator")
        if reduce and not num.is_zero:
            num, den = _cancel_common_roots(num, den)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __call__(self, z):
        return self.num(z) / self.den(z)

    def deriv(self):
        """Exact rational derivative (num' den - num den') / den^2."""
        n, d = self.num, self.den
        return RationalFunction(n.deriv() * d - n * d.deriv(), d * d,
                                reduce=False)

    def poles(self):
        if self.den.degree == 0:
            return np.zeros(0, dtype=complex)
        return find_roots(self.den)


def _cancel_common_roots(num, den):
    """Deflate roots shared by num and den within GCD_TOL."""
    if den.degree == 0 or num.degree == 0:
        return num, den
    den_roots = find_roots(den)
    scale_n = np.abs(num.coeffs).max()
    keep = []
    for r in den_roots:
        local = max(1.0, abs(r)) ** num.degree
        if abs(num(r)) < GCD_TOL * scale_n * local:
            num = _deflate(num, r)
        else:
            keep.append(r)
    if len(keep) == len(den_roots):
        return num, den
    lead = den.coeffs[-1]
    new_den = Polynomial([lead])
    for r in keep:
        new_den = new_den * Polynomial([-r, 1.0])
    return num, new_den


def _deflate(p, root):
    """Synthetic division of p by (z - root)."""
    c = p.coeffs
    n = len(c) - 1
    out = np.zeros(n, dtype=complex)
    acc = c[n]
    for k in range(n - 1, -1, -1):
        out[k] = acc
        acc = c[k] + acc * root
    return Polynomial(out)
