"""The square-root sheet on the cut plane, and the quadratures on it.

The central object is w(y) = sqrt(P(y)) for a polynomial P whose zeros the
caller has paired into cuts: straight chords, or arcs of the unit circle for
the trigonometric mapping.  Writing E - omega^2 = P/den^2 keeps all branch
points at the zeros of P; the integrand of every contour in this package is
w(y)/den(y) times a mapping measure.

On the plane cut along those cuts the sheet has a closed form, one factor
per cut, w = C * prod_k F_k:

* chord [m - h, m + h]:  F = u sqrt(1 - h^2/u^2), u = y - m;
* arc theta1 -> theta2:  F = (c - y) sqrt(1 + tau^2 ((c + y)/(c - y))^2),
  c = exp(i (theta1 + theta2)/2), tau = tan((theta2 - theta1)/4).

With the principal root each factor squares to the product of its two ends'
linear factors (times a constant for an arc), is analytic off its own cut,
and grows like y at infinity, so w is analytic off the union of the cuts and
jumps in sign across each.  C is fixed once by one anchor value.

On a cut the own factor is taken on one lip in closed form: it is
sqrt(1 - t^2) times a smooth function of a parameter t in [-1, 1], so one
Gauss-Chebyshev rule of the second kind, quadrature.gauss_chebyshev, serves
chords and arcs and evaluates only the other cuts' factors (the real-axis
SWKB integral takes the same rule).  No circle takes a quadrature:
at infinity the sheet is a power series in 1/y (Sheet.at_infinity), and
the pole terms are residues on it (see contours).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .cpoly import Polynomial
from .quadrature import gauss_chebyshev


def _factor(cut, y):
    """F(y) of one cut (p1, p2 and arc, as contours.Cut): analytic off the
    cut, with F^2 = (y - p1)(y - p2) for a chord and (y - e^{i p1})
    (y - e^{i p2}) / cos^2((p2 - p1)/4) for an arc."""
    y = np.asarray(y, dtype=complex)
    if cut.arc:
        c = np.exp(0.5j * (cut.p1 + cut.p2))
        tau = np.tan(0.25 * (cut.p2 - cut.p1))
        q = (c + y) / (c - y)
        return (c - y) * np.sqrt(1.0 + (tau * q) ** 2)
    u = y - 0.5 * (cut.p1 + cut.p2)
    h = 0.5 * (cut.p2 - cut.p1)
    return u * np.sqrt(1.0 - (h / u) ** 2)


@dataclass(frozen=True)
class Sheet:
    """w(y) = C * prod_k F_k(y), one factor per cut: the branch of sqrt(P) on
    the plane cut along ``cuts`` whose value at ``anchor_point`` is
    ``anchor_value``."""

    cuts: tuple
    C: complex

    @classmethod
    def anchored(cls, cuts, anchor_point, anchor_value):
        cuts = tuple(cuts)
        F = np.prod([_factor(cut, anchor_point) for cut in cuts])
        return cls(cuts, complex(anchor_value) / complex(F))

    def others(self, k, y):
        """C times the factors of every cut but cut k."""
        out = np.full(np.shape(y), self.C, dtype=complex)
        for j, cut in enumerate(self.cuts):
            if j != k:
                out = out * _factor(cut, y)
        return out

    def __call__(self, y):
        return self.others(None, y)

    def at_infinity(self, order):
        """The coefficients of z^0 .. z^order in w(y)/y^K as a power series
        in z = 1/y, K the number of cuts.

        Outside every cut each factor is F = s y sqrt((1 - a z)(1 - b z)),
        a and b the cut's ends (e^{i p1}, e^{i p2} on an arc), with the root
        that tends to 1: s = 1 for a chord, -sec((p2 - p1)/4) for an arc.
        So w/y^K = C prod(s) S(z), S^2 = prod (1 - a z)(1 - b z), S(0) = 1.
        """
        ends, scale = [], self.C
        for cut in self.cuts:
            if cut.arc:
                ends += [np.exp(1j * cut.p1), np.exp(1j * cut.p2)]
                scale = scale * (-1.0 / np.cos(0.25 * (cut.p2 - cut.p1)))
            else:
                ends += [cut.p1, cut.p2]
        q = np.zeros(order + 1, dtype=complex)
        q[0] = 1.0
        for a in ends:
            q[1:] = q[1:] - a * q[:-1]
        S = np.zeros(order + 1, dtype=complex)
        S[0] = 1.0
        for k in range(1, order + 1):
            S[k] = 0.5 * (q[k] - np.dot(S[1:k], S[k - 1:0:-1]))
        return scale * S


@dataclass(frozen=True)
class SqrtIntegrand:
    """f(y) = w(y)/den(y) * measure(y), with w on the given sheet."""

    sheet: Sheet
    den: Polynomial
    measure: Callable[[np.ndarray], np.ndarray]

    def weight(self, y):
        """measure/den: what multiplies w in f."""
        y = np.asarray(y, dtype=complex)
        return self.measure(y) / npoly.polyval(y, self.den.coeffs)


# ---------------------------------------------------------------------------
# cut integrals (vanishing-clearance limit of a counterclockwise loop)
# ---------------------------------------------------------------------------

def cut_integral(integrand: SqrtIntegrand, k):
    """(1/pi) * integral of f along cut k, p1 -> p2, on the lip to the right
    of that direction: just below the classical cut on the real axis, just
    outside the unit circle for an arc.

    Equals the counterclockwise loop around the cut in the limit of
    vanishing clearance.  Each cut maps onto t in [-1, 1] so that its own
    factor on that lip times dy/dt is sqrt(1 - t^2) r(t), r smooth:

    * chord, y = m + h t with m, h = (p1 + p2)/2, (p2 - p1)/2: r = -i h^2;
    * arc, the Cayley map theta = thm + 2 arctan(tau t), y = exp(i theta),
      with thm = (p1 + p2)/2 and tau = tan((p2 - p1)/4):
      r = -4i tau^2 y exp(i (theta + thm)/2) / (1 + tau^2 t^2)^(3/2).

    sqrt(1 - t^2) is the Gauss-Chebyshev weight of the second kind: n - 1
    nodes cos(j pi/n) with weights (pi/n) sin^2(j pi/n), refined by
    quadrature.gauss_chebyshev, which hands the term t and sin(j pi/n).
    """
    sheet = integrand.sheet
    cut = sheet.cuts[k]
    mid, half = 0.5 * (cut.p1 + cut.p2), 0.5 * (cut.p2 - cut.p1)

    def term(t, s):
        if cut.arc:
            tau = np.tan(0.5 * half)
            th = mid + 2.0 * np.arctan(tau * t)
            ys = np.exp(1j * th)
            r = (-4j * tau * tau * ys * np.exp(0.5j * (th + mid))
                 / (1.0 + (tau * t) ** 2) ** 1.5)
        else:
            ys = mid + half * t
            r = -1j * half * half
        g = sheet.others(k, ys) * integrand.weight(ys)
        return s ** 2 * r * g

    return gauss_chebyshev(term, "cut quadrature")
