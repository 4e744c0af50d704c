"""The pole sum of the exact quantum Hamilton-Jacobi (QHJ) condition, with
no root of P.

The QHJ momentum p = -i hbar psi'/psi of H_- solves p^2 - i hbar p' =
E - omega^2 + hbar omega', and the exact condition (1/2pi) contour integral
of p dx = n hbar picks its levels (Leacock & Padgett, PRL 50, 3 (1983)).
In the mapped plane, with g = dy/dx and measure = 1/g, each contour term of
p measure is a closed form, the QHJ term of a pole of the SWKB integrand
(contours):

* at a finite pole y0 of omega with residue a, p ~ b/(y - y0) with
  b^2 + i hbar g b + a (a + hbar g) = 0, g = g(y0).  Its roots are ia and
  -i(a + hbar g); the physical one tends to ia as hbar -> 0, the classical
  p = i omega sqrt(1 - E/omega^2) near the pole.  The term is
  J = i b measure(y0) = -a measure(y0), constant in E;
* at the mapping pole y = 0 of the exponential mappings, where g = k y,
  omega is finite and p(0)^2 = E - omega(0)^2 holds exactly, so
  J = -omega(0) sqrt(1 - E/omega(0)^2)/k with the principal root;
* J_GammaR at infinity is i times the 1/y coefficient of
  i num sqrt(1 - E den^2/num^2) measure/den.  Its square root is a power
  series in 1/y taken from P = E den^2 - num^2 coefficient by coefficient,
  the recursion of branch.Sheet.at_infinity, and measure/den is
  catalog.PotentialSpec.weight_at_infinity.

Bhalla, Kapoor & Panigrahi, Am. J. Phys. 65, 1187 (1997) work these terms
for the shape-invariant potentials.  PoleSum holds what depends on the spec
alone (the finite poles' terms, the series' coefficients), built once per
spec as PotentialSpec.qhj, so the pole sum J_GammaR - sum(J_gamma) costs a
handful of scalar operations per energy; swkb.quantize_by_poles solves it
over the spec's m (PotentialSpec.swkb_cut_count).
"""

from __future__ import annotations

import cmath

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import DomainError


def residue_roots(a, g, hbar):
    """The roots b of b^2 + i hbar g b + a (a + hbar g) = 0, the physical
    one first: the one that tends to ia as hbar -> 0.  The roots are ia
    and -i(a + hbar g), so the physical one is the root nearer ia.  The
    root of larger modulus is taken without cancellation, the other from
    the product of the roots."""
    B = 1j * hbar * g
    C = a * (a + hbar * g)
    r = cmath.sqrt(B * B - 4.0 * C)
    big = -0.5 * (B + r if (B.conjugate() * r).real >= 0.0 else B - r)
    b1, b2 = big, C / big
    return (b1, b2) if abs(b1 - 1j * a) <= abs(b2 - 1j * a) else (b2, b1)


class PoleSum:
    """J_GammaR(E) - sum J_gamma(E) of the QHJ momentum of one spec, called
    at a real E below the threshold."""

    def __init__(self, spec):
        for pole, weight in spec.residue_weights.items():
            if weight is None:
                raise DomainError(
                    f"the pole y = {complex(pole):.6g} of {spec.id} is a "
                    "multiple pole of the integrand")
        num, den = spec.omega_y.num.coeffs, spec.omega_y.den.coeffs
        N, D = len(num) - 1, len(den) - 1
        if N < D:
            raise DomainError(
                f"omega of {spec.id} vanishes at infinity (deg num {N} < "
                f"deg den {D}); the QHJ term there is not coded")
        d1 = den[1:] * np.arange(1, D + 1)
        # {y0: (J, J_other)}: the physical root's term and the other one's
        self.fixed = {}
        for y0 in spec.omega_poles_y:
            g = complex(spec.dydx(y0))
            a = complex(npoly.polyval(y0, num) / npoly.polyval(y0, d1))
            b, other = residue_roots(a, g, spec.hbar)
            self.fixed[y0] = (1j * b / g, 1j * other / g)
        self.fixed_sum = sum(J for J, _ in self.fixed.values())
        # the mapping pole y = 0: omega(0) and k in dy/dx = k y
        self.k = None
        if spec.mapping != "identity":
            self.k = complex(spec.dydx(1.0))
            self.omega0 = complex(num[0] / den[0])
        # at infinity: w = i num sqrt(1 - E den^2/num^2) = y^N W(1/y) with
        # W^2 = sum_k q_k y^-k, q_k the y^(2N - k) coefficient of P, and
        # measure/den = y^-s U(1/y): J_GammaR = i [W U]_m, m = N - s + 1
        s, U = spec.weight_at_infinity
        self.m = N - s + 1
        d2 = np.convolve(den, den)
        n2 = spec.num_squared_y
        top = 2 * N
        ks = range(max(self.m + 1, 0))
        self.d2 = [complex(d2[top - k]) if top - k < len(d2) else 0j
                   for k in ks]
        self.n2 = [complex(n2[top - k]) for k in ks]
        self.U = [complex(u) for u in U[:self.m + 1]]
        # W_0 = i num_lead sqrt(1 - E (den_lead/num_lead)^2) where the
        # degrees are equal, i num_lead where deg num > deg den
        self.lead = 1j * complex(num[-1])
        self.ratio = complex(den[-1] / num[-1]) if N == D else 0j
        # E enters q_k from k = 2(N - D) on, and every term at y = 0
        self.depends_on_energy = (self.k is not None
                                  or self.m >= 2 * (N - D))

    def mapping_term(self, E):
        """J at the mapping pole y = 0; 0 under the identity mapping."""
        if self.k is None:
            return 0j
        om = self.omega0
        return -om * cmath.sqrt(1.0 - E / (om * om)) / self.k

    def infinity_term(self, E):
        """J_GammaR, i [W U]_m."""
        m = self.m
        if m < 0:
            return 0j
        w0 = self.lead * cmath.sqrt(1.0 - E * self.ratio * self.ratio)
        W = [w0]
        for k in range(1, m + 1):
            acc = E * self.d2[k] - self.n2[k]
            for j in range(1, k):
                acc -= W[j] * W[k - j]
            W.append(acc / (2.0 * w0))
        return 1j * sum(W[j] * self.U[m - j] for j in range(m + 1))

    def terms(self, E):
        """{location: (J, J_other)} at every pole: the finite poles of
        omega, the mapping pole 0j (with no other root, None) and
        "infinity" (None)."""
        out = dict(self.fixed)
        if self.k is not None:
            out[0j] = (self.mapping_term(E), None)
        out["infinity"] = (self.infinity_term(E), None)
        return out

    def __call__(self, E):
        return self.infinity_term(E) - self.mapping_term(E) - self.fixed_sum
