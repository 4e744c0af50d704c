"""Real-axis SWKB engine.

J_SWKB(E) = (1/pi) * integral_{x1}^{x2} sqrt(E - omega^2(x)) dx between the
two real turning points, and the inversion of the quantization condition
J_SWKB(E) = n * hbar for eigenvalues.

The turning points are where omega = -sqrt(E) and omega = +sqrt(E)
(Comtet, Bandrauk & Campbell, Phys. Lett. B 150, 159 (1985)).  They take
no root of P = E*den^2 - num^2: each spec cuts its domain once into the
pieces on which omega is monotone (catalog.PotentialSpec.omega_pieces), and
at each energy a bracketed Newton iteration finds the crossing on each
piece that crosses -sqrt(E) or +sqrt(E) (_crossing), so a level solves no
polynomial after the spec's first.  P and its roots belong to the contour
route (contours), which shares only the energy and pair checks
(_check_energy, _classical_pair).

The level search starts at the level of the closed-form QHJ pole sum
(quantize_by_poles, on spec.qhj over the spec's m), which takes no root of
P.  On the exact entries that is the SWKB level itself (Leacock & Padgett,
PRL 50, 3 (1983); Bhalla, Kapoor & Panigrahi, Am. J. Phys. 65, 1187
(1997)), so a level takes 1-4 SWKB integrals where a search over the whole
range took 4-13.  The start decides only where the search begins: the
level is the root of J_SWKB - n*hbar either way.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache

import numpy as np
from scipy.optimize import brentq

from .catalog import EPS, unbound_level
from .errors import ConvergenceError, DomainError, UnboundEnergyError
from .quadrature import gauss_chebyshev

TAU_LEVEL = 1e-10    # |J/hbar - n| tolerance for solved levels


@dataclass(frozen=True)
class TurningPoints:
    x1: float
    x2: float


@dataclass(frozen=True)
class QuantizationResult:
    n: int
    energy: float
    method: str          # swkb_quadrature | contour | poles | closed_form |
                         # numerov
    residual: float


def turning_points(spec, E):
    """The unique pair of real turning points of E - omega^2 in the domain,
    from the spec's monotone pieces of omega
    (catalog.PotentialSpec.omega_pieces), with no root of P: each piece on
    which omega crosses -sqrt(E) or +sqrt(E) holds one turning point,
    solved by _crossing."""
    _check_energy(spec, E)
    c, c_lo = _sqrt_split(E)
    ends = []
    for v, v_lo in ((-c, -c_lo), (c, c_lo)):
        pairs = spec.omega_pairs(v)
        ends += [_crossing(spec, piece, v, v_lo, pairs)
                 for piece in spec.omega_pieces
                 if (piece.oms[0] - v) * (piece.oms[-1] - v) < 0.0]
    return _classical_pair(spec, E, ends)


def _check_energy(spec, E):
    """Raise UnboundEnergyError unless 0 < E < threshold."""
    if not (E > 0):
        raise UnboundEnergyError(f"E={E} must be positive")
    if E >= spec.threshold:
        raise UnboundEnergyError(
            f"E={E} at or above the binding threshold {spec.threshold} "
            f"of {spec.id}")


def _classical_pair(spec, E, ends):
    """TurningPoints of ends, the real turning points in the domain, where
    there are exactly two and the gap between them is classically allowed.

    The midpoint alone decides that.  Every real zero of
    P = E*den^2 - num^2 in the domain is a turning point, so P has none
    strictly between x1 and x2; E - omega^2 = P/den^2 has the sign of P
    where den != 0, and P = -num^2 < 0 where den = 0.  So one sign holds
    on the whole gap.
    """
    if len(ends) != 2:
        raise UnboundEnergyError(
            f"E={E}: found {len(ends)} real turning points in the domain of "
            f"{spec.id}, expected exactly 2")
    x1, x2 = sorted(ends)
    mid = 0.5 * (x1 + x2)
    if not spec.omega_scalar(mid, spec.omega_pairs(0.0))[0] ** 2 < E:
        raise UnboundEnergyError(
            f"E={E}: region between turning points is not classically "
            f"allowed for {spec.id}")
    return TurningPoints(x1, x2)


def _sqrt_split(E):
    """c = fl(sqrt(E)) and c_lo with sqrt(E) = c + c_lo to about eps^2
    relative: c*c = p + err exactly by Dekker's split, E - p is exact
    (Sterbenz), and c_lo = (E - c^2)/(2c).  Where omega tends to sqrt(E)
    slowly the rounding of c alone would move a turning point far more than
    one of E does (eckart at E = 224.9: 3.7e-14 relative)."""
    c = math.sqrt(E)
    t = 134217729.0 * c                     # 2^27 + 1
    hi = t - (t - c)
    lo = c - hi
    p = c * c
    err = ((hi * hi - p) + 2.0 * hi * lo) + lo * lo
    return c, ((E - p) - err) / (2.0 * c)


def _crossing(spec, piece, v, v_lo, pairs):
    """The x of the monotone piece at which omega = v + v_lo, where omega
    crosses v on it: a bracketed Newton iteration on
    omega - v - v_lo (catalog.PotentialSpec.omega_scalar over pairs =
    omega_pairs(v)), started at the sample nearer v between the two that
    bracket it and bisecting where a step leaves the bracket (in atan(k x)
    toward an infinite end, k as in omega_pieces).  It stops at a step
    within 2 eps |x|: from a sample a crossing takes about 4 evaluations
    (catalog.PIECE_SAMPLES)."""
    xs, oms = piece.xs, piece.oms
    i = bisect_right(oms, v if piece.rising else -v,
                     key=None if piece.rising else operator.neg)
    a, b = xs[i - 1], xs[i]
    k = 1.0 if spec.mapping == "identity" else spec.alpha
    inside = [j for j in (i - 1, i) if 0 < j < len(xs) - 1]
    if inside:
        j = min(inside, key=lambda j: abs(oms[j] - v))
        x, f, df = xs[j], oms[j] - v, piece.slopes[j]
    else:                               # no sample inside: start halfway
        x = _halfway(a, b, k)
        f, df = spec.omega_scalar(x, pairs)
        f -= v_lo
    for _ in range(200):                # a cap only
        xn = x - f / df if df else math.nan
        if abs(xn - x) <= 2.0 * EPS * abs(x):
            return xn
        if not a < xn < b:
            xn = _halfway(a, b, k)
            if xn in (a, b):
                return x
        x = xn
        f, df = spec.omega_scalar(x, pairs)
        f -= v_lo
        if f == 0.0:
            return x
        if (f < 0.0) == piece.rising:
            a = x
        else:
            b = x
    raise ConvergenceError(
        f"turning point of {spec.id} at omega = {v!r} did not converge "
        f"in [{a!r}, {b!r}]", bracket=(a, b))


def _halfway(a, b, k):
    """The midpoint of (a, b) in x, or in atan(k x) where an end is
    infinite."""
    if math.isinf(a) or math.isinf(b):
        return math.tan(0.5 * (math.atan(k * a) + math.atan(k * b))) / k
    return 0.5 * (a + b)


def swkb_integral(spec, E):
    """(1/pi) * integral of sqrt(E - omega^2) over the classical region.

    With x = x_mid + x_half*cos(a), J = (x_half/n) * sum_j sin(j pi/n) *
    sqrt(E - omega^2(x_j)) in the rule of quadrature.gauss_chebyshev, which
    converges exponentially between the turning points; the nodes double
    until two results agree within QUAD_TOL.  It is the rule's one-row
    case.  The rule hands the integrand cos(a) and sin(a), so no node is
    taken here, and orders 64 and 128 come from one omega_x call on 127
    nodes.
    """
    if E == 0.0:
        return 0.0
    tp = turning_points(spec, E)
    xm, xh = 0.5 * (tp.x1 + tp.x2), 0.5 * (tp.x2 - tp.x1)

    def term(t, s, rows):
        om2 = spec.omega_x(xm + xh * t) ** 2
        return (xh * s * np.sqrt(np.maximum(E - om2, 0.0)))[None]

    return float(gauss_chebyshev(term, 1, "SWKB quadrature")[0])


def solve_level(spec, n):
    """Energy of level n from J_SWKB(E) = n*hbar, its search started at the
    level of the QHJ pole sum over the spec's m (_pole_level)."""
    if n < 0:
        raise DomainError("n must be non-negative")
    return solve_action(spec, n, lambda E: swkb_integral(spec, E),
                        "swkb_quadrature", _pole_level(spec, n))


def _pole_level(spec, n):
    """The level n of the QHJ pole sum (quantize_by_poles), or None where it
    has none: nonexact3, whose sum does not depend on E, a multiple pole,
    an unbound n, or a pole-sum solve that fails next to a threshold.
    Level 0 is E = 0 and takes no search."""
    if n == 0:
        return None
    try:
        return quantize_by_poles(spec, n).energy
    except (DomainError, ConvergenceError):
        return None


def quantize_by_poles(spec, n):
    """Solve the QHJ pole sum J_GammaR(E) - sum(J_gamma(E)) = m*n*hbar for
    E (spec.qhj, no root of P) through solve_action, m the spec's count of
    the cuts that carry J_SWKB (spec.swkb_cut_count).  Entries of any cut
    count solve; where the other cuts carry weight the pole sum is not the
    SWKB condition (contours.defect_report).  A sum that does not depend on
    E (nonexact3, where it is 0) raises DomainError."""
    if n < 0:
        raise DomainError("n must be non-negative")
    poles = spec.qhj
    if not poles.depends_on_energy:
        raise DomainError(
            f"the pole sum of {spec.id} does not depend on E; it fixes no "
            "level")
    m = spec.swkb_cut_count
    return solve_action(spec, n, lambda E: poles(E).real / m, "poles")


def solve_action(spec, n, action, method, start=None):
    """Energy of level n from action(E) = n*hbar by bracketed root finding
    on a monotone action: the one level solve of the SWKB integral
    (solve_level) and of the QHJ pole sum (quantize_by_poles).
    The bracket search begins at start, an energy near the level, where
    there is one (see _bracket); the level is brentq's root of
    action - n*hbar whatever the start."""
    if not spec.n_is_bound(n):
        raise unbound_level(spec, n)
    if n == 0:
        return QuantizationResult(0, 0.0, method, 0.0)
    hbar = spec.hbar
    target = n * hbar
    # brentq evaluates again the ends _bracket has evaluated, and returns a
    # root it has evaluated: keep the action by energy for this solve
    J = cache(action)

    def g(E):
        return J(E) - target

    lo, hi = _bracket(spec, g, n, start)
    # a relative width only: near nonexact2's threshold 1/16, where J is
    # steep, an absolute width of 1e-14 is 1440 ulps of E and leaves
    # residuals above TAU_LEVEL
    try:
        E = brentq(g, lo, hi, xtol=1e-300, rtol=8.9e-16)
    except RuntimeError as err:         # brentq's iteration cap
        raise ConvergenceError(
            f"level n={n} of {spec.id} did not converge in the bracket "
            f"[{lo!r}, {hi!r}]: {err}", bracket=(lo, hi)) from None
    resid = abs(J(E) / hbar - n)
    if resid > TAU_LEVEL:
        raise ConvergenceError(
            f"level solve residual {resid} exceeds {TAU_LEVEL}",
            residuals=[resid])
    return QuantizationResult(n, float(E), method, resid)


def _bracket(spec, g, n, start):
    """Bracket for a monotone level equation g(E) = 0, g < 0 below the level.

    A start inside (0, threshold) gives the first candidates: g at the
    start, where g = 0 is the bracket (start, start); then one step of
    d = 1e-10*(1 + start) against the sign of g; then up to six steps to
    the root of the secant through the last two energies, each overshot by
    1% of its length, plus d.  The
    first pair on which g changes sign is the bracket.  Where an energy
    leaves (0, threshold), g does not rise through the last two energies,
    the steps run out, or an evaluation raises, the threshold ladder below
    takes over, as it does without a start.

    A finite threshold is approached from inside, farthest first: near it
    a turning point runs away or meets a pole, and quadratures may not
    converge there, so a ConvergenceError ends the approach.  A bound level
    above the last top, thr*(1 - 1e-9), raises ConvergenceError with g
    there."""
    if start is not None and 0.0 < start < spec.threshold:
        try:
            E0, g0 = start, g(start)
            if g0 == 0.0:
                return start, start
            d = math.copysign(1e-10 * (1.0 + start), -g0)
            E1 = start + d
            for _ in range(7):
                if not 0.0 < E1 < spec.threshold:
                    break
                g1 = g(E1)
                if g1 == 0.0 or (g1 > 0.0) != (g0 > 0.0):
                    return min(E0, E1), max(E0, E1)
                slope = (g1 - g0) / (E1 - E0)
                if not slope > 0.0:
                    break
                E0, g0 = E1, g1
                E1 -= 1.01 * g1 / slope - d
        except (DomainError, ConvergenceError):
            pass
    if math.isfinite(spec.threshold):
        for eps in (1e-3, 1e-5, 1e-7, 1e-9):
            hi = spec.threshold * (1.0 - eps)
            g_hi = g(hi)
            if g_hi > 0.0:
                break
        else:
            # the level is bound (solve_action checks n_is_bound): it lies
            # above the last top, where the ladder cannot reach it
            raise ConvergenceError(
                f"could not bracket level n={n} of {spec.id} below its "
                f"threshold: g = {g_hi!r} at the last top E = {hi!r}",
                residuals=[g_hi])
        lo = 1e-9 * spec.threshold
    else:
        hi = 1.0
        for _ in range(60):
            try:
                if g(hi) > 0.0:
                    break
            except UnboundEnergyError:
                pass
            hi *= 2.0
        else:
            raise UnboundEnergyError(
                f"could not bracket level n={n} for {spec.id}")
        lo = 1e-9
    # lower end: J -> 0 as E -> 0+, so g(lo) < 0 once lo is small enough.
    # Below a local maximum of omega^2 an energy can have more than one pair
    # of turning points; step such a lo up instead, staying below hi.
    for _ in range(60):
        try:
            if g(lo) < 0.0:
                return lo, hi
        except UnboundEnergyError:
            lo = min(4.0 * lo, 0.5 * (lo + hi))
            continue
        lo *= 0.25
    raise ConvergenceError(f"could not establish lower bracket for n={n}")
