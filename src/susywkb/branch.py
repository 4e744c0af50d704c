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

On a cut the own factor is taken on one lip in closed form, so the cut rules
(sine-substituted Gauss-Legendre) evaluate only the other cuts' factors.
The large circle is an equispaced trapezoid rule.  Both refine from
ORDER_START = 64 nodes.  The pole terms are residues on this sheet (see
contours).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .cpoly import Polynomial
from .quadrature import (GL_ORDER_MAX, ORDER_START, gauss_legendre,
                         refine_until)

QUAD_TOL = 1e-11      # successive-refinement agreement for every quadrature
MAX_NODES = 1 << 17


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


def contour_integral(integrand: SqrtIntegrand, radius):
    """(1/2pi) * integral of f counterclockwise around |y| = radius.

    Equispaced trapezoidal quadrature in the angle, doubling n from
    ORDER_START until two results agree within QUAD_TOL; the circle must
    enclose every cut and pole.
    """
    def at(n):
        ys = radius * np.exp(2j * np.pi * np.arange(n) / n)
        return np.mean(integrand.sheet(ys) * integrand.weight(ys) * 1j * ys)

    return refine_until(at, ORDER_START, MAX_NODES, QUAD_TOL,
                        "contour quadrature")


# ---------------------------------------------------------------------------
# cut integrals (vanishing-clearance limit of a counterclockwise loop)
# ---------------------------------------------------------------------------

def cut_segment_integral(integrand: SqrtIntegrand, k):
    """(1/pi) * integral of f along the chord cut k, p1 -> p2, on the lip to
    the right of that direction (for the classical cut on the real axis,
    just below the cut).

    Equals the counterclockwise loop around the cut in the limit of
    vanishing clearance.  With y = m + h s, h = (p2 - p1)/2, the cut's own
    factor on that lip is -i h sqrt(1 - s^2); the sine substitution
    s = sin(pi u/2) turns the square-root end behaviour into cos^2, so the
    Gauss-Legendre rule in u is spectrally accurate.
    """
    sheet = integrand.sheet
    cut = sheet.cuts[k]
    m, h = 0.5 * (cut.p1 + cut.p2), 0.5 * (cut.p2 - cut.p1)

    def at_order(order):
        u, wt = gauss_legendre(order)
        th = u * np.pi / 2.0
        ys = m + h * np.sin(th)
        g = sheet.others(k, ys) * integrand.weight(ys)
        # (1/pi) w dy = (1/pi) (-i h cos th) g (h pi/2 cos th) du
        return -0.5j * h * h * np.sum(wt * np.cos(th) ** 2 * g)

    return refine_until(at_order, ORDER_START, GL_ORDER_MAX, QUAD_TOL,
                        "cut quadrature")


def arc_cut_integral(integrand: SqrtIntegrand, k):
    """(1/pi) * integral of f along the unit-circle arc cut k,
    y = exp(i theta), theta from theta1 to theta2, on the lip just outside
    the circle (the right-hand side of increasing theta).

    Used for trigonometric mappings, where branch cuts lie on the unit
    circle.  On that lip w = i*phi*h*g with phi(theta) =
    sqrt((theta-th1)(th2-theta)) and g = i C prod(other F_k) /
    cos((th2 - th1)/4).  With y_k = exp(i th_k) the end factor is in closed
    form, (y - y1)(y - y2)/phi^2 = exp(i(theta + thm)) sinc(a) sinc(b),
    where a, b = (theta - th1)/2, (th2 - theta)/2, sinc u = sin(u)/u and
    thm is the arc's mid angle; h is its square root exp(i(theta + thm)/2)
    sqrt(sinc(a) sinc(b)), continuous along arcs shorter than 2 pi.
    """
    sheet = integrand.sheet
    cut = sheet.cuts[k]
    th1, th2 = float(cut.p1), float(cut.p2)
    thm, thh = 0.5 * (th1 + th2), 0.5 * (th2 - th1)

    def h(th):
        # np.sinc(x) = sin(pi x)/(pi x)
        return np.exp(0.5j * (th + thm)) * np.sqrt(
            np.sinc((th - th1) / (2.0 * np.pi))
            * np.sinc((th2 - th) / (2.0 * np.pi)))

    def at_order(order):
        u, wt = gauss_legendre(order)
        th = thm + thh * np.sin(u * np.pi / 2.0)
        ys = np.exp(1j * th)
        g = 1j * sheet.others(k, ys) / np.cos(0.5 * thh)
        f = g * h(th) * integrand.weight(ys)
        # per-theta integrand w/den*measure*(i y): with w = i*phi*h*g the
        # two factors of i combine to -1.
        vals = -f * ys * thh * thh * np.cos(u * np.pi / 2.0) ** 2
        return 0.5 * np.sum(wt * vals)

    return refine_until(at_order, ORDER_START, GL_ORDER_MAX, QUAD_TOL,
                        "arc cut quadrature")
