"""Refinement by doubling, and the Gauss-Legendre rule that the real-axis
SWKB quadrature refines over."""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .errors import ConvergenceError

ORDER_START = 64      # first order or node count of every refined rule
GL_ORDER_MAX = 4096


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


@lru_cache(maxsize=None)
def gauss_legendre(order):
    """Read-only Gauss-Legendre nodes and weights; refinement doubles the
    order from ORDER_START, so the cache holds a few rules at most."""
    u, wt = np.polynomial.legendre.leggauss(order)
    u.flags.writeable = False
    wt.flags.writeable = False
    return u, wt
