"""Refinement by doubling, and the one quadrature rule of the package.

The real-axis SWKB integral (swkb.swkb_integral) and the integral along a
cut (branch.cut_integral) are both integrals of sqrt(1 - t^2) times a
smooth function of t in [-1, 1], so both take the nested Gauss-Chebyshev
rule of the second kind in t = cos(a), gauss_chebyshev.  A rule hands its
integrand the node arrays t and sin(a); its first two orders, 64 and 128,
take one call on the fixed, read-only nodes of order 128."""

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


def _nodes(n, step):
    """cos(j pi/n) and sin(j pi/n) for j = 1, 1 + step, ... < n, the nodes
    and the weight factor of the rule, read-only: the first pass's are
    shared by every rule."""
    a = np.pi * np.arange(1, n, step) / n
    nodes = np.cos(a), np.sin(a)
    for arr in nodes:
        arr.setflags(write=False)
    return nodes


_FIRST_NODES = _nodes(2 * ORDER_START, 1)


def gauss_chebyshev(term, what):
    """(1/n) * sum_{j=1}^{n-1} term(cos(j pi/n), sin(j pi/n)) for term on
    arrays, refined from ORDER_START up to MAX_NODES nodes within QUAD_TOL.
    The nodes of order n/2 are those of order n at even j.  So the first
    pass is one term call on the fixed nodes of order 2*ORDER_START, which
    gives the sums of orders ORDER_START (even j) and 2*ORDER_START; past
    that the sum of order n is half the old sum plus the new odd-j terms
    over n."""
    first, top = term(*_FIRST_NODES), 2 * ORDER_START
    half = np.sum(first[1::2]) / ORDER_START
    sums = {ORDER_START: half, top: 0.5 * half + np.sum(first[::2]) / top}

    def at(n):
        if n not in sums:
            sums[n] = 0.5 * at(n // 2) + np.sum(term(*_nodes(n, 2))) / n
        return sums[n]

    return refine_until(at, ORDER_START, MAX_NODES, QUAD_TOL, what)
