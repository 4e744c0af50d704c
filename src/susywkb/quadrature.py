"""Refinement by doubling, and the one quadrature rule of the package.

The real-axis SWKB integral (swkb.swkb_integral) and the integral along a
cut (branch.cut_integral) are both integrals of sqrt(1 - t^2) times a
smooth function of t in [-1, 1], so both take the nested Gauss-Chebyshev
rule of the second kind in t = cos(a), gauss_chebyshev."""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

ORDER_START = 64      # first node count of every refined rule
MAX_NODES = 1 << 17
QUAD_TOL = 1e-11      # successive-refinement agreement for every quadrature


def refine_until(fn, n0, nmax, tol, what):
    """fn(n) at the first n of n0, 2*n0, ... <= nmax where it agrees with
    fn(n/2) within tol; raises ConvergenceError with the last difference."""
    prev = diff = None
    n = n0
    while n <= nmax:
        val = fn(n)
        if prev is not None:
            diff = abs(val - prev)
            if diff < tol:
                return val
        prev = val
        n *= 2
    raise ConvergenceError(f"{what} did not converge", residuals=[diff])


def gauss_chebyshev(term, what):
    """(1/n) * sum_{j=1}^{n-1} term(j pi/n) for term on arrays of angles,
    refined from ORDER_START up to MAX_NODES nodes within QUAD_TOL.  The
    nodes of order n/2 are those of order n at even j, so past ORDER_START
    the sum is half the old sum plus the new odd-j terms over n."""
    sums = {}

    def at(n):
        if n in sums:
            return sums[n]
        nested = n > ORDER_START and n % 2 == 0
        a = np.pi * np.arange(1, n, 2 if nested else 1) / n
        val = np.sum(term(a)) / n
        sums[n] = 0.5 * at(n // 2) + val if nested else val
        return sums[n]

    return refine_until(at, ORDER_START, MAX_NODES, QUAD_TOL, what)
