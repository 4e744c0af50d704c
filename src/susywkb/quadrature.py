"""The one quadrature rule of the package, for several integrands at once.

The real-axis SWKB integral (swkb.swkb_integral) and the integrals along
the cuts of a workspace (branch.cut_integrals) are all integrals of
sqrt(1 - t^2) times a smooth function of t in [-1, 1], so all take the
nested Gauss-Chebyshev rule of the second kind in t = cos(a),
gauss_chebyshev.  Its term hands back one row per integrand: the SWKB
integral is the one-row case, a workspace's cuts take one row each, and
every pass evaluates only the rows still open.  A rule hands its term the
node arrays t and sin(a); its first two orders, 64 and 128, take one call
on the fixed, read-only nodes of order 128."""

from __future__ import annotations

import numpy as np

from .errors import ConvergenceError

ORDER_START = 64      # first node count of every refined rule
MAX_NODES = 1 << 17
QUAD_TOL = 1e-11      # successive-refinement agreement for every quadrature


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


def gauss_chebyshev(term, count, what):
    """(1/n) * sum_{j=1}^{n-1} term(cos(j pi/n), sin(j pi/n), rows) for
    ``count`` integrands at once, each refined from ORDER_START up to
    MAX_NODES nodes until two successive orders agree within QUAD_TOL.

    term(t, s, rows) takes the node arrays and an index array of the
    integrands still open, and returns one row of terms per index.  The
    nodes of order n/2 are those of order n at even j.  So the first pass
    is one term call on the fixed nodes of order 2*ORDER_START, which gives
    the sums of orders ORDER_START (even j) and 2*ORDER_START; past that the
    sum of order n is half the old sum plus the new odd-j terms over n.  A
    row keeps the sum of the first order at which it agrees with the order
    before, and later passes evaluate only the rows still open, so every
    node of an open row is evaluated once.  Returns the count values;
    raises ConvergenceError with the largest difference among the rows
    still open at MAX_NODES."""
    rows = np.arange(count)
    first, n = term(*_FIRST_NODES, rows), 2 * ORDER_START
    prev = first[:, 1::2].sum(axis=1) / ORDER_START
    out = cur = 0.5 * prev + first[:, ::2].sum(axis=1) / n
    while True:
        diff = np.abs(cur - prev)
        if diff.max() < QUAD_TOL:          # False on a NaN, as it should be
            return out
        still = ~(diff < QUAD_TOL)
        if 2 * n > MAX_NODES:
            raise ConvergenceError(f"{what} did not converge",
                                   residuals=[diff[still].max()])
        rows, prev, n = rows[still], cur[still], 2 * n
        cur = 0.5 * prev + term(*_nodes(n, 2), rows).sum(axis=1) / n
        out[rows] = cur
