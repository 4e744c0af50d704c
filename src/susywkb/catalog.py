"""Canonical potential catalog.

Nine superpotentials, each represented as a rational function omega(y) of a
mapped variable y together with the mapping back to the physical coordinate
x.  Six entries (eckart, scarf2, rosenmorse2, genpt, scarf1, rosenmorse1)
have closed-form spectra for which the lowest-order SWKB condition is exact;
the three nonexact entries have no such guarantee and are the interesting
test cases for the branch-cut defect machinery.

Conventions: 2m = 1, unbroken SUSY (the ground state of
H_- = -hbar^2 d^2/dx^2 + omega^2 - hbar*omega' sits at E_0 = 0).
"""

from __future__ import annotations

import cmath
import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np
from numpy.polynomial import polynomial as npoly

from .cpoly import Polynomial, RationalFunction, _horner, find_roots
from .errors import DomainError, UnboundEnergyError
from .qhj import PoleSum

MULTIPLE_POLE_TOL = 1e-6   # p is a multiple zero of den where |den'(p)| is
                           # below this x sum k|c_k| max(|p|, 1)^(k-1)
                           # (find_roots splits an m-fold zero by about
                           # eps^(1/m), so |den'| there is about
                           # eps^((m-1)/m), 1.5e-8 at m = 2)
PIECE_SAMPLES = 64         # Newton starts per monotone piece of omega
                           # (omega_pieces), one evaluation each when the
                           # spec builds them: a turning_points call takes
                           # 12.1, 10.1, 9.1 and 8.6 scalar evaluations
                           # (mean over the entries at their defaults and
                           # three draws, n <= 4) at 8, 32, 64 and 128
EPS = np.finfo(float).eps


def plane_key(z):
    """Sort key of a point of the plane, (Re z, Im z) rounded to 9
    decimals: a conjugate pair whose real parts differ by rounding noise
    (1e-30 against -1e-44) keeps its order."""
    return (round(z.real, 9), round(z.imag, 9))


@dataclass(frozen=True)
class OmegaPiece:
    """An interval of the domain on which omega is monotone, x ascending:
    xs are its two ends with the samples strictly between, oms omega there
    (at the ends its limits, +-inf at a pole) and slopes d omega/dx (nan at
    the ends)."""

    xs: tuple
    oms: tuple
    slopes: tuple
    rising: bool


@dataclass(frozen=True)
class PotentialSpec:
    """One catalog entry."""

    id: str
    params: dict
    hbar: float
    domain: tuple                      # (lo, hi) in x; may be +-inf
    mapping: str                       # "identity" | "exp" | "exp_i"
    omega_y: RationalFunction
    threshold: float                   # sup of bound-state energies
    spectrum: Optional[Callable]       # n -> E_n, or None
    n_is_bound: Callable               # n -> bool
    partial: bool = False              # best-effort entry, excluded from
                                       # quantitative guarantees

    # -- mapping helpers ----------------------------------------------------

    @property
    def alpha(self):
        return self.params.get("alpha", 1.0)

    def y_of_x(self, x):
        """The mapped y of x, a complex ndarray under every mapping (0-d for
        a scalar x): NumPy scalars round complex products otherwise."""
        x = np.asarray(x, dtype=complex)
        if self.mapping == "identity":
            return x
        if self.mapping == "exp":
            return np.asarray(np.exp(self.alpha * x))
        if self.mapping == "exp_i":
            return np.asarray(np.exp(1j * self.alpha * x))
        raise DomainError(f"unknown mapping {self.mapping!r}")

    def x_of_y(self, y):
        """Inverse mapping for y in the image of the physical domain."""
        if self.mapping == "identity":
            return complex(y).real if abs(complex(y).imag) < 1e-9 else None
        if self.mapping == "exp":
            y = complex(y)
            if abs(y.imag) < 1e-9 * max(1.0, abs(y)) and y.real > 0:
                return math.log(y.real) / self.alpha
            return None
        y = complex(y)
        if abs(abs(y) - 1.0) < 1e-7:
            return float(np.angle(y)) / self.alpha
        return None

    def dydx(self, y):
        if self.mapping == "identity":
            return np.ones_like(np.asarray(y, dtype=complex))
        if self.mapping == "exp":
            return self.alpha * np.asarray(y, dtype=complex)
        return 1j * self.alpha * np.asarray(y, dtype=complex)

    def measure(self, y):
        """dx/dy as a function of y (the contour-integral measure)."""
        return 1.0 / self.dydx(y)

    # -- physical-space evaluation ------------------------------------------

    def _check_domain(self, x):
        lo, hi = self.domain
        xs = np.asarray(x, dtype=float)
        if ((xs <= lo) | (xs >= hi)).any():
            raise DomainError(f"x outside open domain ({lo}, {hi}) of {self.id}")

    def omega_x(self, x):
        """Superpotential in the physical coordinate: num and den in one
        Horner pass at y = y_of_x(x), scalar x included."""
        self._check_domain(x)
        num, den = _horner(self._omega_rows[:, :2], self.y_of_x(x))
        return np.asarray(num / den).real

    @cached_property
    def _omega_rows(self):
        """num, den, num' and den' of omega as columns, highest degree
        first, max(len num, len den) rows: omega_x reads the first two,
        v_minus and omega_prime_x all four."""
        cs = self.omega_y.num.coeffs, self.omega_y.den.coeffs
        cs += tuple(c[1:] * np.arange(1, len(c)) for c in cs)
        m = max(map(len, cs))
        return np.stack([np.pad(c, (0, m - len(c))) for c in cs], 1)[::-1]

    @cached_property
    def omega_poles_y(self):
        """The finite poles of omega(y), the roots of its denominator,
        solved once per spec."""
        den = self.omega_y.den
        return tuple(find_roots(den)) if den.degree else ()

    @cached_property
    def fixed_poles_y(self):
        """The finite fixed poles of the contour integrand, sorted: the
        poles of omega, and the mapping pole y = 0 of the exponential
        mappings."""
        poles = list(self.omega_poles_y)
        if self.mapping in ("exp", "exp_i"):
            if not any(abs(p) < 1e-9 for p in poles):
                poles.append(0.0 + 0j)
        return tuple(sorted(poles, key=plane_key))

    @cached_property
    def residue_weights(self):
        """measure(p)/den'(p) at each fixed pole p, the factor that turns
        w(p) into the residue of w measure/den there.  At the mapping pole
        y = 0 of the exponential mappings, where measure = 1/(k y) with
        dy/dx = k y, it is 1/(k den(0)): the same rule with y den and
        y measure.  None at a multiple pole, where no such factor exists."""
        weights = {}
        for pole in self.fixed_poles_y:
            den = self.omega_y.den.coeffs
            if self.mapping in ("exp", "exp_i") and abs(pole) < 1e-9:
                den = np.concatenate(([0.0], den))
                measure = 1.0 / complex(self.dydx(1.0))
            else:
                measure = complex(self.measure(pole))
            d1 = den[1:] * np.arange(1, len(den))
            slope = complex(npoly.polyval(pole, d1))
            multiple = abs(slope) <= MULTIPLE_POLE_TOL * npoly.polyval(
                max(abs(pole), 1.0), np.abs(d1))
            weights[pole] = None if multiple else measure / slope
        return weights

    @cached_property
    def weight_at_infinity(self):
        """(s, U) with measure/den = y^-s sum_j U_j y^-j at infinity, U_j up
        to j = deg(E den^2 - num^2)/2 + 1, as far as the 1/y coefficient of
        w measure/den needs.  With measure = mu y^-e (mu, e = 1, 0 under the
        identity mapping, 1/k, 1 where dy/dx = k y) and den = y^D r(1/y),
        s = e + D and U is the power series of mu/r."""
        e = 0 if self.mapping == "identity" else 1
        r = self.omega_y.den.coeffs[::-1]
        U = np.zeros(len(self.num_squared_y) // 2 + 2, dtype=complex)
        U[0] = complex(self.measure(1.0)) / r[0]
        for k in range(1, len(U)):
            j = np.arange(1, min(k, len(r) - 1) + 1)
            U[k] = -np.dot(r[j], U[k - j]) / r[0]
        U.flags.writeable = False
        return e + len(r) - 1, U

    @cached_property
    def qhj(self):
        """The QHJ pole sum of this spec (qhj.PoleSum), built once per
        spec: the finite poles' terms and the coefficients of the series
        at infinity."""
        return PoleSum(self)

    @cached_property
    def cut_count(self):
        """Branch cuts: half the degree of P = E den^2 - num^2 wherever no
        leading terms cancel."""
        return max(self.omega_y.num.degree, self.omega_y.den.degree)

    @cached_property
    def swkb_cut_count(self):
        """m, the cuts that carry J_SWKB (the classical one and a mirror):
        every cut up to two, else read off one workspace at probe_energy."""
        if self.cut_count <= 2:
            return self.cut_count
        from .contours import _Workspace        # contours imports this module
        return _Workspace(self, probe_energy(self)).m

    @cached_property
    def omega_pieces(self):
        """omega's monotone pieces (OmegaPiece), built once per spec for the
        turning points (swkb.turning_points): the domain cut at the real
        critical points of omega, the roots of
        num' den - num den' = sum (i - j) num_i den_j y^(i+j-1) (one
        find_roots; no leading term cancels in rounding) that x_of_y maps
        inside.  Each piece holds omega at its ends (_end_limit at the
        domain's ends) and at PIECE_SAMPLES points spaced evenly in
        atan(k x), k = alpha under the exponential mappings and 1 under the
        identity, so that they reach out toward an infinite end.  omega is
        taken to be finite inside the domain: every catalog pole lies at an
        end or off the real domain."""
        a, b = self.omega_y.num.coeffs, self.omega_y.den.coeffs
        q = np.zeros(len(a) + len(b), dtype=complex)
        for i, ai in enumerate(a):
            for j, bj in enumerate(b):
                if i != j:
                    q[i + j - 1] += (i - j) * ai * bj
        lo, hi = self.domain
        crit = set()
        if np.any(q):
            for r in find_roots(Polynomial(q)):
                x = self.x_of_y(r)
                if x is not None and lo < x < hi:
                    crit.add(x)
        ends = [lo, *sorted(crit), hi]
        pairs = self.omega_pairs(0.0)
        vals = ([self._end_limit(lo, 1.0)]
                + [self.omega_scalar(x, pairs)[0] for x in ends[1:-1]]
                + [self._end_limit(hi, -1.0)])
        k = 1.0 if self.mapping == "identity" else self.alpha
        steps = np.arange(1, PIECE_SAMPLES + 1) / (PIECE_SAMPLES + 1)
        pieces = []
        for xa, xb, va, vb in zip(ends, ends[1:], vals, vals[1:]):
            ta, tb = math.atan(k * xa), math.atan(k * xb)
            xs = [x for x in (np.tan(ta + (tb - ta) * steps) / k).tolist()
                  if xa < x < xb]
            evals = [self.omega_scalar(x, pairs) for x in xs]
            pieces.append(OmegaPiece(
                xs=(xa, *xs, xb), oms=(va, *(e[0] for e in evals), vb),
                slopes=(math.nan, *(e[1] for e in evals), math.nan),
                rising=bool(vb > va)))
        return tuple(pieces)

    def _end_limit(self, x0, inward):
        """The limit of omega at the domain end x0, approached from inside
        (inward = 1 at the lower end, -1 at the upper): +-inf at a pole.
        In the mapped plane y tends to y0 along the direction d, or to
        infinity, where w = 1/y tends to 0 and omega is the ratio of the
        reversed num and den.  With a_j, b_j the Taylor coefficients of num
        and den there and j, k the first that are not zero,
        omega ~ (a_j/b_k) (h d)^(j - k) as h -> 0+.  Under exp x0 = -inf is
        y0 = 0; under exp_i y0 = exp(i alpha x0) and d = inward i y0.  A
        shifted coefficient counts as zero within its rounding bound,
        4 n eps (1 + |alpha x0|) sum_i C(i, j) |c_i| |y0|^(i - j): the
        shift's own rounding and that of y0 (den(exp(i pi/2)) on scarf1's
        wall is 1.2e-16, against a bound of 9e-15)."""
        a, b = self.omega_y.num.coeffs, self.omega_y.den.coeffs
        n = max(len(a), len(b))
        cs = np.zeros((2, n), dtype=complex)
        cs[0, :len(a)], cs[1, :len(b)] = a, b
        if self.mapping == "exp_i":
            y0 = complex(self.y_of_x(x0))
            d, arg = inward * 1j * y0, self.alpha * x0
        elif math.isinf(x0) and (self.mapping == "identity" or x0 > 0):
            cs, y0 = cs[:, ::-1], 0.0
            d, arg = math.copysign(1.0, x0), 0.0
        elif math.isinf(x0):
            y0, d, arg = 0.0, 1.0, 0.0
        else:
            y0 = complex(self.y_of_x(x0))
            d = inward
            arg = 0.0 if self.mapping == "identity" else self.alpha * x0
        shifted, bound = cs.copy(), np.abs(cs)
        for j in range(n - 1):
            for i in range(n - 2, j - 1, -1):
                shifted[:, i] += y0 * shifted[:, i + 1]
                bound[:, i] += abs(y0) * bound[:, i + 1]
        zero = np.abs(shifted) <= 4 * n * EPS * (1.0 + abs(arg)) * bound
        if zero[0].all():
            return 0.0
        j, k = (int(np.argmin(z)) for z in zero)
        if j > k:
            return 0.0
        ratio = shifted[0, j] / shifted[1, k] / d ** (k - j)
        if j == k:
            return float(ratio.real)
        return math.copysign(math.inf, ratio.real)

    @cached_property
    def _omega_coeffs(self):
        """(num_k, den_k) of omega, highest degree first, one length, as
        Python floats where every coefficient is real."""
        rows = self._omega_rows[:, :2]
        return rows.tolist() if rows.imag.any() else rows.real.tolist()

    def omega_pairs(self, c):
        """(num_k - c den_k, den_k) for omega_scalar: omega - c is
        (num - c den)/den, its coefficients differenced before any sum."""
        return [(n - c * d, d) for n, d in self._omega_coeffs]

    def omega_scalar(self, x, pairs):
        """omega(x) - c and d omega/dx at the float x, in scalar Python
        arithmetic over pairs = omega_pairs(c), each polynomial and its
        derivative in one Horner pass.  Where |y| > 1 the sums run in
        w = 1/y over the reversed pairs: (num - c den)/den is the same
        ratio of the reversed polynomials, whose terms stay bounded.  Only
        the domain is not checked (omega_x checks it)."""
        if self.mapping == "exp_i":
            z = cmath.exp(1j * self.alpha * x)
            dz = 1j * self.alpha * z
        elif self.mapping == "exp":
            ax = self.alpha * x
            z = math.exp(-abs(ax))
            dz = -self.alpha * z if ax > 0 else self.alpha * z
            if ax > 0:
                pairs = reversed(pairs)
        elif abs(x) > 1.0:
            z = 1.0 / x
            dz = -z * z
            pairs = reversed(pairs)
        else:
            z, dz = x, 1.0
        g = dg = d = dd = 0.0
        for gk, dk in pairs:
            dg = dg * z + g
            g = g * z + gk
            dd = dd * z + d
            d = d * z + dk
        r = g / d
        return r.real, ((dg - r * dd) / d * dz).real

    @cached_property
    def num_squared_y(self):
        """num^2 of omega as a read-only coefficient array, padded to the
        length of den^2 where that is longer: E den^2 - num^2 is the
        numerator of E - omega^2."""
        n2 = (self.omega_y.num * self.omega_y.num).coeffs
        m = 2 * len(self.omega_y.den.coeffs) - 1
        n2 = np.pad(n2, (0, max(m - len(n2), 0)))
        n2.flags.writeable = False
        return n2

    def _omega_and_slope(self, x):
        """omega and d omega/dx at x from one Horner pass over _omega_rows,
        with d omega/dx = (num' - omega den')/den dy/dx.  The pass runs in
        float64 where y and every coefficient are real (the identity and
        exp mappings of a real omega), else in complex arithmetic."""
        self._check_domain(x)
        rows = self._omega_rows
        if self.mapping == "exp_i" or rows.imag.any():
            y = self.y_of_x(x)
            dydx = self.dydx(y)
        else:
            rows, y, dydx = rows.real, np.asarray(x, dtype=float), 1.0
            if self.mapping == "exp":
                y = np.exp(self.alpha * y)
                dydx = self.alpha * y
        num, den, dnum, dden = _horner(rows, y)
        om = num / den
        return om.real, ((dnum - om * dden) / den * dydx).real

    def omega_prime_x(self, x):
        """d omega/dx, from the pass that v_minus reads."""
        return self._omega_and_slope(x)[1]

    def v_minus(self, x):
        """Partner potential omega^2 - hbar * omega', with omega and
        omega' from one Horner pass over num, den, num' and den'."""
        om, dom = self._omega_and_slope(x)
        return om ** 2 - self.hbar * dom

    def is_y_symmetric(self):
        """True when omega^2(-y) = omega^2(y) in the mapped plane."""
        return self._y_symmetric

    @cached_property
    def _y_symmetric(self):
        n, d = self.omega_y.num, self.omega_y.den
        nm = Polynomial(n.coeffs * (-1.0) ** np.arange(len(n.coeffs)))
        dm = Polynomial(d.coeffs * (-1.0) ** np.arange(len(d.coeffs)))
        lhs = (n * n * dm * dm).coeffs
        rhs = (nm * nm * d * d).coeffs
        m = max(len(lhs), len(rhs))
        lhs = np.pad(lhs, (0, m - len(lhs)))
        rhs = np.pad(rhs, (0, m - len(rhs)))
        scale = max(np.abs(lhs).max(), np.abs(rhs).max(), 1.0)
        return bool(np.all(np.abs(lhs - rhs) <= 1e-10 * scale))

    # -- serialization ------------------------------------------------------

    def to_json(self):
        return {
            "id": self.id,
            "params": dict(self.params),
            "hbar": self.hbar,
            "domain": [self.domain[0], self.domain[1]],
            "mapping": self.mapping,
        }


def spec_from_json(doc):
    """Rebuild a catalog entry from its JSON document (see to_json)."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    return get_spec(doc["id"], params=doc.get("params"),
                    hbar=doc.get("hbar", 1.0))


# ---------------------------------------------------------------------------
# entry builders
# ---------------------------------------------------------------------------

def _require(cond, msg):
    if not cond:
        raise DomainError(msg)


def _build_eckart(params, hbar):
    A, B, al = params["A"], params["B"], params["alpha"]
    _require(A > 0 and B > 0 and al > 0, "eckart requires A, B, alpha > 0")
    _require(B > A * A, "eckart requires B > A^2")
    omega = RationalFunction([-A - B / A, 0.0, -A + B / A], [-1.0, 0.0, 1.0])

    def spectrum(n):
        s = A + n * al * hbar
        return A * A + (B / A) ** 2 - (B / s) ** 2 - s * s

    return PotentialSpec(
        id="eckart", params=params, hbar=hbar, domain=(0.0, math.inf),
        mapping="exp", omega_y=omega, threshold=(B / A - A) ** 2,
        spectrum=spectrum,
        n_is_bound=lambda n: n >= 0 and (A + n * al * hbar) ** 2 < B,
    )


def _build_scarf2(params, hbar):
    A, B, al = params["A"], params["B"], params["alpha"]
    _require(A > 0 and B > 0 and al > 0, "scarf2 requires A, B, alpha > 0")
    omega = RationalFunction([-A, 2.0 * B, A], [1.0, 0.0, 1.0])

    def spectrum(n):
        return A * A - (A - n * al * hbar) ** 2

    return PotentialSpec(
        id="scarf2", params=params, hbar=hbar,
        domain=(-math.inf, math.inf), mapping="exp", omega_y=omega,
        threshold=A * A, spectrum=spectrum,
        n_is_bound=lambda n: n >= 0 and A - n * al * hbar > 0,
    )


def _build_rosenmorse2(params, hbar):
    A, B, al = params["A"], params["B"], params["alpha"]
    _require(A > 0 and B > 0 and al > 0,
             "rosenmorse2 requires A, B, alpha > 0")
    _require(B < A * A, "rosenmorse2 requires B < A^2")
    omega = RationalFunction([-A + B / A, 0.0, A + B / A], [1.0, 0.0, 1.0])

    def spectrum(n):
        s = A - n * al * hbar
        return A * A + (B / A) ** 2 - s * s - (B / s) ** 2

    return PotentialSpec(
        id="rosenmorse2", params=params, hbar=hbar,
        domain=(-math.inf, math.inf), mapping="exp", omega_y=omega,
        threshold=(A - B / A) ** 2, spectrum=spectrum,
        n_is_bound=lambda n: n >= 0 and (A - n * al * hbar) ** 2 > B
        and A - n * al * hbar > 0,
    )


def _build_genpt(params, hbar):
    A, B, al = params["A"], params["B"], params["alpha"]
    _require(A > 0 and B > 0 and al > 0, "genpt requires A, B, alpha > 0")
    _require(A < B, "genpt requires A < B")
    omega = RationalFunction([A, -2.0 * B, A], [-1.0, 0.0, 1.0])

    def spectrum(n):
        return A * A - (A - n * al * hbar) ** 2

    return PotentialSpec(
        id="genpt", params=params, hbar=hbar, domain=(0.0, math.inf),
        mapping="exp", omega_y=omega, threshold=A * A, spectrum=spectrum,
        n_is_bound=lambda n: n >= 0 and A - n * al * hbar > 0,
    )


def _build_scarf1(params, hbar):
    A, B, al = params["A"], params["B"], params["alpha"]
    _require(A > 0 and B > 0 and al > 0, "scarf1 requires A, B, alpha > 0")
    _require(A > B, "scarf1 requires A > B")
    omega = RationalFunction([1j * A, -2.0 * B, -1j * A], [1.0, 0.0, 1.0])

    def spectrum(n):
        return (A + n * al * hbar) ** 2 - A * A

    return PotentialSpec(
        id="scarf1", params=params, hbar=hbar,
        domain=(-math.pi / (2 * al), math.pi / (2 * al)), mapping="exp_i",
        omega_y=omega, threshold=math.inf, spectrum=spectrum,
        n_is_bound=lambda n: n >= 0,
    )


def _build_rosenmorse1(params, hbar):
    A, B, al = params["A"], params["B"], params["alpha"]
    _require(A > 0 and B > 0 and al > 0,
             "rosenmorse1 requires A, B, alpha > 0")
    omega = RationalFunction([-1j * A + B / A, 0.0, -1j * A - B / A],
                             [-1.0, 0.0, 1.0])

    def spectrum(n):
        s = A + n * al * hbar
        return s * s - A * A + (B / A) ** 2 - (B / s) ** 2

    return PotentialSpec(
        id="rosenmorse1", params=params, hbar=hbar,
        domain=(0.0, math.pi / al), mapping="exp_i", omega_y=omega,
        threshold=math.inf, spectrum=spectrum,
        n_is_bound=lambda n: n >= 0,
    )


def _build_nonexact1(params, hbar):
    # omega(x) = sqrt(hbar) omega_1(x/sqrt(hbar)), omega_1 the hbar = 1
    # entry: then H_- is hbar times the hbar = 1 Hamiltonian in x/sqrt(hbar),
    # and E_n = 4 n hbar.  At hbar = 1 every factor is 1.0.
    r = math.sqrt(hbar)
    num = Polynomial(np.array([-6.0, 0.0, -1.0, 0.0, 3.0, 0.0, 2.0])
                     * r ** (1.0 - np.arange(7)))
    den = Polynomial(np.array([0.0, 4.0, 0.0, 6.0, 0.0, 2.0])
                     * r ** -np.arange(6.0))
    omega = RationalFunction(num, den)

    def spectrum(n):
        return 4.0 * n * hbar

    return PotentialSpec(
        id="nonexact1", params=params, hbar=hbar, domain=(0.0, math.inf),
        mapping="identity", omega_y=omega, threshold=math.inf,
        spectrum=spectrum, n_is_bound=lambda n: n >= 0,
    )


def _build_nonexact2(params, hbar):
    num = Polynomial([-192.0, -240.0, -108.0, -56.0, -16.0, 0.0, 1.0])
    den = Polynomial([0.0, 192.0, 320.0, 272.0, 120.0, 32.0, 4.0])
    omega = RationalFunction(num, den)
    return PotentialSpec(
        id="nonexact2", params=params, hbar=hbar, domain=(0.0, math.inf),
        mapping="identity", omega_y=omega, threshold=1.0 / 16.0,
        spectrum=None, n_is_bound=lambda n: n >= 0,
    )


def _build_nonexact3(params, hbar):
    lam, mu0 = params["lam"], params["mu0"]
    _require(0.0 < lam < 1.0, "nonexact3 requires 0 < lam < 1")
    c3 = 0.5 * (1.0 - lam * lam)
    c1 = mu0 * lam * lam - c3
    omega = RationalFunction([0.0, c1, 0.0, c3], [1.0])
    return PotentialSpec(
        id="nonexact3", params=params, hbar=hbar,
        domain=(-math.inf, math.inf), mapping="identity", omega_y=omega,
        threshold=math.inf, spectrum=None, n_is_bound=lambda n: n >= 0,
        partial=True,
    )


_BUILDERS = {
    "eckart": (_build_eckart, {"A": 1.0, "B": 16.0, "alpha": 1.0}),
    "scarf2": (_build_scarf2, {"A": 3.0, "B": 1.0, "alpha": 1.0}),
    "rosenmorse2": (_build_rosenmorse2, {"A": 4.0, "B": 2.0, "alpha": 1.0}),
    "genpt": (_build_genpt, {"A": 2.0, "B": 5.0, "alpha": 1.0}),
    "scarf1": (_build_scarf1, {"A": 1.0, "B": 0.5, "alpha": 1.0}),
    "rosenmorse1": (_build_rosenmorse1, {"A": 1.0, "B": 1.0, "alpha": 1.0}),
    "nonexact1": (_build_nonexact1, {}),
    "nonexact2": (_build_nonexact2, {}),
    "nonexact3": (_build_nonexact3, {"lam": 0.5, "mu0": 1.0}),
}

EXACT_IDS = ("eckart", "scarf2", "rosenmorse2", "genpt", "scarf1",
             "rosenmorse1")
NONEXACT_IDS = ("nonexact1", "nonexact2", "nonexact3")
CATALOG_IDS = EXACT_IDS + NONEXACT_IDS


def _finite_float(name, v):
    if isinstance(v, numbers.Real) and not isinstance(v, bool):
        try:
            x = float(v)
        except OverflowError:           # an int beyond float
            x = math.inf
        if math.isfinite(x):
            return x
    raise DomainError(f"{name} must be a finite number, got {v!r}")


def get_spec(pot_id, params=None, hbar=1.0):
    """Build the catalog entry with optional parameter overrides.

    Raises DomainError for an unknown id or parameter, a parameter or hbar
    that is not a real number finite as a float (a bool is none), an hbar
    that is not positive, parameters outside the builder's domain, and
    finite parameters that overflow the entry's threshold, its omega
    coefficients or its closed form at the probe energy."""
    if pot_id not in _BUILDERS:
        raise DomainError(f"unknown potential id {pot_id!r}; "
                          f"known: {', '.join(CATALOG_IDS)}")
    builder, defaults = _BUILDERS[pot_id]
    merged = dict(defaults)
    if params:
        unknown = set(params) - set(defaults)
        if unknown:
            raise DomainError(
                f"unknown parameter(s) {sorted(unknown)} for {pot_id}")
        merged.update(params)
    merged = {k: _finite_float(f"parameter {k} of {pot_id}", v)
              for k, v in merged.items()}
    hbar = _finite_float("hbar", hbar)
    if not hbar > 0.0:
        raise DomainError(f"hbar must be positive, got {hbar}")
    # finite parameters can still overflow the entry's threshold (eckart at
    # A = 1e-300), omega or closed form at the probe (scarf2 at A = 1e308)
    try:
        spec = builder(merged, hbar)
        om = spec.omega_y
        finite = (math.isfinite(probe_energy(spec))
                  and np.isfinite([*om.num.coeffs, *om.den.coeffs]).all())
    except (OverflowError, ZeroDivisionError):
        finite = False
    if not finite:
        raise DomainError(f"the parameters of {pot_id} overflow its "
                          f"coefficients or levels")
    return spec


def catalog_list(hbar=1.0):
    """All nine catalog entries at their default parameters."""
    return [get_spec(pid, hbar=hbar) for pid in CATALOG_IDS]


def closed_form_energy(spec, n):
    """Closed-form E_n for entries that have one."""
    if spec.spectrum is None:
        raise DomainError(f"{spec.id} has no closed-form spectrum")
    if n < 0:
        raise DomainError("n must be non-negative")
    if not spec.n_is_bound(n):
        raise unbound_level(spec, n)
    return float(spec.spectrum(n))


def unbound_level(spec, n):
    """The error for a level n above the bound spectrum of spec, raised by
    every level entry point."""
    return UnboundEnergyError(
        f"level n={n} exceeds the bound spectrum of {spec.id} "
        f"(bound-state count: {bound_state_count(spec)})")


def probe_energy(spec, n=1):
    """A bound energy to take a census at: the closed-form E_k of the
    highest bound level k <= max(n, 1), else half a finite threshold,
    else 1.  The spec's m takes it at n = 1 (swkb_cut_count)."""
    if spec.spectrum is not None:
        for k in range(max(n, 1), 0, -1):
            if spec.n_is_bound(k):
                return spec.spectrum(k)
    if math.isfinite(spec.threshold):
        return 0.5 * spec.threshold
    return 1.0


def bound_state_count(spec, limit=10000):
    """Number of bound levels per the catalog rule (may be inf)."""
    n = 0
    while n < limit and spec.n_is_bound(n):
        n += 1
    return n if n < limit else math.inf
