"""Branch-tracked square roots and closed-contour quadrature.

The central object is w(z) = sqrt(P(z)) for a polynomial P, continued
analytically along paths.  Writing E - omega^2 = P/den^2 keeps all branch
points at the zeros of P; the integrand of every contour in this package is
w(z)/den(z) times a mapping measure.

A single global anchor value fixes the sheet.  Every contour carries an
``anchor_path`` from the anchor to its start point; continuation along that
path (which the planner keeps away from branch points and from crossing any
branch cut) selects the branch consistently across all contours, so the
closure identity sum(contours) = large-circle holds without per-contour sign
conventions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .cpoly import Polynomial, _deflate
from .errors import BranchAmbiguityError, ConvergenceError, DomainError

QUAD_TOL = 1e-11      # successive-refinement agreement for contour quadrature
DEFAULT_NODES = 512
MAX_NODES = 1 << 17
_CLOSE_TOL = 1e-8     # branch must return to itself on a closed contour


def _coeffs(p):
    return p.coeffs if isinstance(p, Polynomial) else np.asarray(p, dtype=complex)


# ---------------------------------------------------------------------------
# analytic continuation of sqrt(P)
# ---------------------------------------------------------------------------

_PHASE_STEP = 1.0   # max winding of P per accepted continuation step


def _root_cache(Pc):
    """Roots (with multiplicity) of the polynomial with coefficient array Pc."""
    key = Pc.tobytes()
    roots = _ROOTS.get(key)
    if roots is None:
        roots = npoly.polyroots(Pc)
        if len(_ROOTS) > 256:
            _ROOTS.clear()
        _ROOTS[key] = roots
    return roots


_ROOTS: dict = {}


def _segment_winding(roots, za, zb):
    """Exact phase change of P along the straight segment za -> zb.

    Along a straight segment the argument of (z - r) changes by strictly
    less than pi for every point r off the segment, so the principal value
    of arg((zb - r)/(za - r)) IS the continuous change; summing over the
    roots of P gives the exact winding.  Comparing endpoint values of P
    alone is not safe: a long step passing a root can wind P by nearly
    2*pi while the principal phase difference looks small.
    """
    num = zb - roots
    den = za - roots
    if np.any(num == 0.0) or np.any(den == 0.0):
        raise BranchAmbiguityError(
            "sqrt continuation hit a branch point", residuals=[0.0])
    return float(np.sum(np.angle(num / den)))


def continue_sqrt(P, w0, z0, z1, max_halve=60):
    """Continue w (w^2 = P) from z0, where it equals w0, to z1 along the
    straight segment.

    A step is accepted only when the exact winding of P across it (computed
    from the roots of P; see _segment_winding) is at most _PHASE_STEP < pi,
    in which case w rotates by less than pi/2 and the nearer square root is
    provably the analytic continuation; larger windings are bisected.
    """
    Pc = _coeffs(P)
    roots = _root_cache(Pc)

    def walk(za, zb, w, depth):
        if abs(_segment_winding(roots, za, zb)) <= _PHASE_STEP:
            pb = complex(npoly.polyval(zb, Pc))
            if pb == 0.0:
                raise BranchAmbiguityError(
                    "sqrt continuation hit a branch point", residuals=[0.0])
            s = np.sqrt(pb)
            return s if abs(s - w) <= abs(-s - w) else -s
        if depth >= max_halve:
            raise BranchAmbiguityError(
                "ambiguous sqrt continuation; path passes too close to a "
                "branch point", residuals=[abs(zb - za)])
        zm = 0.5 * (za + zb)
        wm = walk(za, zm, w, depth + 1)
        return walk(zm, zb, wm, depth + 1)

    return walk(complex(z0), complex(z1), complex(w0), 0)


def continue_along(P, w0, points):
    """Continuation of w along a polyline of complex points."""
    w = complex(w0)
    pts = [complex(p) for p in points]
    for a, b in zip(pts[:-1], pts[1:]):
        w = continue_sqrt(P, w, a, b)
    return w


def track_nodes(P, w0, zs):
    """Values of w at a dense chain of nodes, starting from w0 at zs[0].

    Uses the vectorized closer-root rule between consecutive nodes and falls
    back to adaptive continuation whenever the choice is ambiguous.
    """
    zs = np.asarray(zs, dtype=complex)
    Pc = _coeffs(P)
    roots = _root_cache(Pc)
    p = npoly.polyval(zs, Pc).astype(complex)
    s = np.sqrt(p)
    # exact winding of P over each chord between consecutive nodes
    num = zs[1:, None] - roots[None, :]
    den = zs[:-1, None] - roots[None, :]
    safe = np.all(num != 0.0, axis=1) & np.all(den != 0.0, axis=1)
    wind = np.zeros(len(zs) - 1)
    wind[safe] = np.sum(np.angle(num[safe] / den[safe]), axis=1)
    ok = safe & (np.abs(wind) <= _PHASE_STEP) & (p[1:] != 0.0)
    # From w = +-s[k-1] the closer root to w is +-s[k] when s[k] is closer
    # to s[k-1] than to -s[k-1], else -+s[k]; at a tie it is +s[k] from
    # either sign, so a tie starts a new run like a fallback step does.
    # np.hypot, not np.abs: numpy's vector complex abs rounds differently
    # from the scalar abs of the rule below.
    dsame, dflip = s[1:] - s[:-1], s[1:] + s[:-1]
    to_same = np.hypot(dsame.real, dsame.imag)
    to_flip = np.hypot(dflip.real, dflip.imag)
    keep = np.where(to_same < to_flip, 1.0, -1.0)
    heads = np.flatnonzero(~ok | (to_same == to_flip)) + 1
    ws = np.empty(len(zs), dtype=complex)
    ws[0] = w0
    k = 1
    while k < len(zs):
        prev = ws[k - 1]
        if not ok[k - 1]:
            ws[k] = continue_sqrt(P, prev, zs[k - 1], zs[k])
            k += 1
            continue
        flip = not abs(s[k] - prev) <= abs(-s[k] - prev)
        ws[k] = -s[k] if flip else s[k]
        i = np.searchsorted(heads, k, side="right")
        end = int(heads[i]) if i < len(heads) else len(zs)
        sign = np.cumprod(keep[k:end - 1])
        if flip:
            sign = -sign
        ws[k + 1:end] = np.where(sign > 0.0, s[k + 1:end], -s[k + 1:end])
        k = end
    return ws


# ---------------------------------------------------------------------------
# integrand and contour types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SqrtIntegrand:
    """f(z) = sqrt(P(z))/den(z) * measure(z), branch fixed at the anchor."""

    P: Polynomial
    den: Polynomial
    measure: Callable[[np.ndarray], np.ndarray]
    anchor_point: complex
    anchor_value: complex   # w = sqrt(P) at the anchor on the chosen sheet

    def values(self, zs, ws):
        zs = np.asarray(zs, dtype=complex)
        return ws / npoly.polyval(zs, self.den.coeffs) * self.measure(zs)


@dataclass(frozen=True)
class Contour:
    """Closed path: a circle or a stadium around a cut segment.

    anchor_path is a polyline from the global anchor to the contour's start
    point; it fixes the branch of the integrand before traversal.
    """

    kind: str                       # "circle" | "stadium"
    center: complex = 0j
    radius: float = 0.0
    p1: complex = 0j
    p2: complex = 0j
    clearance: float = 0.0
    orientation: int = 1            # +1 counterclockwise, -1 clockwise
    anchor_path: tuple = field(default_factory=tuple)

    def start_point(self):
        if self.kind == "circle":
            return self.center + self.radius
        e = (self.p2 - self.p1) / abs(self.p2 - self.p1)
        return self.p1 - 1j * e * self.clearance


def circle_nodes(center, radius, n):
    th = 2.0 * np.pi * np.arange(n) / n
    return center + radius * np.exp(1j * th)


def stadium_nodes(p1, p2, clearance, n):
    """Counterclockwise nodes of a stadium around segment p1-p2: the side
    below the segment (left to right), a cap around p2, the side above
    (right to left), and a cap around p1."""
    seg = p2 - p1
    L = abs(seg)
    e = seg / L
    nvec = 1j * e
    r = clearance
    n_side = max(8, int(n * L / (2.0 * (L + np.pi * r))))
    n_cap = max(8, (n - 2 * n_side) // 2)
    ts = np.linspace(0.0, 1.0, n_side, endpoint=False)
    ang0 = np.angle(nvec)
    side1 = p1 - r * nvec + ts * seg
    cap2 = p2 + r * np.exp(1j * (ang0 - np.pi + np.linspace(0.0, np.pi, n_cap, endpoint=False)))
    side2 = p2 + r * nvec - ts * seg
    cap1 = p1 + r * np.exp(1j * (ang0 + np.linspace(0.0, np.pi, n_cap, endpoint=False)))
    return np.concatenate([side1, cap2, side2, cap1])


def contour_integral(contour: Contour, integrand: SqrtIntegrand,
                     n_points=DEFAULT_NODES, tol=QUAD_TOL):
    """(1/2pi) * closed contour integral of the branch-anchored integrand.

    Equispaced trapezoidal quadrature in the contour parameter, refined by
    node doubling until two successive results agree within QUAD_TOL.
    """
    if n_points < 16:
        raise DomainError("n_points below minimum of 16")
    path = contour.anchor_path
    if not path:
        path = (integrand.anchor_point, contour.start_point())
    w_start = continue_along(integrand.P, integrand.anchor_value, path)
    prev = None
    n = int(n_points)
    diff = None
    while n <= MAX_NODES:
        val = _traverse(contour, integrand, w_start, n)
        if prev is not None:
            diff = abs(val - prev)
            if diff < tol:
                return val
        prev = val
        n *= 2
    raise ConvergenceError(
        "contour quadrature did not converge", residuals=[diff]
    )


def _traverse(contour, integrand, w_start, n):
    if contour.kind == "circle":
        th = 2.0 * np.pi * np.arange(n + 1) / n * contour.orientation
        zs = contour.center + contour.radius * np.exp(1j * th)
        ws = track_nodes(integrand.P, w_start, zs)
        _check_closed(ws)
        f = integrand.values(zs[:-1], ws[:-1])
        dz = 1j * contour.radius * np.exp(1j * th[:-1]) * contour.orientation
        return np.mean(f * dz)
    if contour.kind == "stadium":
        nodes = stadium_nodes(contour.p1, contour.p2, contour.clearance, n)
        if contour.orientation < 0:
            nodes = np.concatenate([nodes[:1], nodes[1:][::-1]])
        zs = np.append(nodes, nodes[0])
        ws = track_nodes(integrand.P, w_start, zs)
        _check_closed(ws)
        f = integrand.values(zs, ws)
        dz = np.diff(zs)
        return np.sum(0.5 * (f[:-1] + f[1:]) * dz) / (2.0 * np.pi)
    raise DomainError(f"unknown contour kind {contour.kind!r}")


def _check_closed(ws):
    if abs(ws[-1] - ws[0]) > _CLOSE_TOL * (1.0 + abs(ws[0])):
        raise BranchAmbiguityError(
            "branch does not close on the contour (odd number of enclosed "
            "branch points)", residuals=[abs(ws[-1] - ws[0])]
        )


# ---------------------------------------------------------------------------
# cut integrals (vanishing-clearance limit of a counterclockwise stadium)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _gauss_legendre(order):
    """Read-only Gauss-Legendre nodes and weights of the cut integrals.

    Their orders double from 64 up to max_order, so the cache holds a few
    rules at most.
    """
    u, wt = np.polynomial.legendre.leggauss(order)
    u.flags.writeable = False
    wt.flags.writeable = False
    return u, wt


def cut_segment_integral(integrand: SqrtIntegrand, p1, p2, w_mid,
                         tol=QUAD_TOL, max_order=4096):
    """(1/pi) * integral of w/den * measure along the straight cut p1->p2.

    Equals the counterclockwise stadium around the cut in the limit of
    vanishing clearance.  w_mid is the branch value at the segment midpoint
    approached from the right-hand side of the direction p1->p2 (for the
    classical cut on the real axis this is the side "just below the cut").

    The square-root vanishing at the cut ends is factored out analytically:
    w = sqrt((z-p1)(p2-z)) * g(z) with g nonvanishing near the cut, and the
    sine substitution makes the Gauss-Legendre quadrature spectrally
    accurate.
    """
    p1, p2 = complex(p1), complex(p2)
    d = p2 - p1
    Q = Polynomial(_deflate(_deflate(integrand.P, p1), p2).coeffs)
    negQ = Polynomial(-Q.coeffs)            # g^2 = -Q on the chosen sheet
    zmid = 0.5 * (p1 + p2)
    g_mid = 2.0 * complex(w_mid) / d        # phi(midpoint) = d/2
    den_c = integrand.den.coeffs
    prev = None
    order = 64
    while order <= max_order:
        u, wt = _gauss_legendre(order)
        th = u * np.pi / 2.0
        t = 0.5 * (1.0 + np.sin(th))
        zs = p1 + t * d
        gs = _track_from_mid(negQ, g_mid, zmid, zs)
        f = gs / npoly.polyval(zs, den_c) * integrand.measure(zs)
        vals = f * d * d * np.cos(th) ** 2 / 4.0
        val = 0.5 * np.sum(wt * vals)
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        order *= 2
    raise ConvergenceError("cut quadrature did not converge",
                           residuals=[abs(val - prev)])


def _track_from_mid(P, g_mid, zmid, zs):
    """Track sqrt(P) values over nodes zs (ordered along a chain), seeding
    from the value g_mid at zmid which falls between the middle nodes."""
    k0 = int(np.argmin(np.abs(zs - zmid)))
    left_chain = np.concatenate([[zmid], zs[k0::-1]])
    right_chain = np.concatenate([[zmid], zs[k0 + 1:]])
    gl = track_nodes(P, g_mid, left_chain)[1:][::-1]
    gr = track_nodes(P, g_mid, right_chain)[1:]
    return np.concatenate([gl, gr])


def arc_cut_integral(integrand: SqrtIntegrand, theta1, theta2, w_mid,
                     tol=QUAD_TOL, max_order=4096):
    """(1/pi) * integral of w/den * measure along the unit-circle arc
    y = exp(i theta), theta from theta1 to theta2.

    Used for trigonometric mappings, where branch cuts lie on the unit
    circle; w_mid is the branch value at the arc midpoint approached from
    just outside the circle (the right-hand side of increasing theta).
    """
    th1, th2 = float(theta1), float(theta2)
    thm, thh = 0.5 * (th1 + th2), 0.5 * (th2 - th1)
    Pc = _coeffs(integrand.P)
    den_c = integrand.den.coeffs
    # w = i*phi*g with phi(theta) = sqrt((theta-th1)(th2-theta)), so the
    # seed is g(mid) = w_mid/(i*phi(mid)) and phi(midpoint) = thh.
    g_mid = complex(w_mid) / (1j * thh)

    def g_of(th):
        y = np.exp(1j * th)
        G = -npoly.polyval(y, Pc) / ((th - th1) * (th2 - th))
        return np.sqrt(G.astype(complex))

    # Winding bound for G along a theta sub-arc.  The phi-denominator is
    # real positive inside (th1, th2) and contributes nothing; the two
    # roots of P at the arc ends contribute exactly dth/2 each (the
    # argument of exp(i th) - exp(i th1) is linear in theta); every other
    # root r contributes at most dth / dist(r, sub-arc) since
    # |d/dth arg(exp(i th) - r)| <= 1/|exp(i th) - r|.
    roots = _root_cache(Pc)
    y_ends = (np.exp(1j * th1), np.exp(1j * th2))
    far = [r for r in roots
           if min(abs(r - y_ends[0]), abs(r - y_ends[1])) > 1e-9]
    n_end = len(roots) - len(far)

    def wind_bound(ta, tb):
        dth = abs(tb - ta)
        total = 0.5 * n_end * dth
        for r in far:
            ya, yb = np.exp(1j * ta), np.exp(1j * tb)
            dist = min(abs(r - ya), abs(r - yb))
            ang = np.angle(r)
            lo, hi = min(ta, tb), max(ta, tb)
            for shift in (-2.0 * np.pi, 0.0, 2.0 * np.pi):
                if lo <= ang + shift <= hi:
                    dist = min(dist, abs(abs(r) - 1.0))
            if dist == 0.0:
                return np.inf
            total += dth / dist
        return total

    prev = None
    order = 64
    while order <= max_order:
        u, wt = _gauss_legendre(order)
        th = thm + thh * np.sin(u * np.pi / 2.0)
        ys = np.exp(1j * th)
        gs = _track_scalar_chain(g_of, g_mid, thm, th, wind_bound)
        f = gs / npoly.polyval(ys, den_c) * integrand.measure(ys)
        # per-theta integrand w/den*measure*(i y): with w = i*phi*g the two
        # factors of i combine to -1.
        vals = -f * ys * thh * thh * np.cos(u * np.pi / 2.0) ** 2
        val = 0.5 * np.sum(wt * vals)
        if prev is not None and abs(val - prev) < tol:
            return val
        prev = val
        order *= 2
    raise ConvergenceError("arc cut quadrature did not converge",
                           residuals=[abs(val - prev)])


def _track_scalar_chain(g_of, g_mid, tmid, ts, wind_bound):
    """Nearest-root sign tracking of a nonvanishing sqrt along a parameter
    chain, seeded at tmid.  A step is accepted only when wind_bound(ta, tb)
    (an upper bound on the winding of g^2 over it) stays below _PHASE_STEP;
    larger steps are bisected."""

    def step(ta, tb, g, depth=0):
        if wind_bound(ta, tb) <= _PHASE_STEP:
            s = complex(g_of(np.array([tb]))[0])
            if s == 0.0 or g == 0.0:
                raise BranchAmbiguityError(
                    "arc continuation hit a zero of the deflated radicand",
                    residuals=[abs(s)])
            return s if abs(s - g) <= abs(-s - g) else -s
        if depth >= 60:
            raise BranchAmbiguityError("ambiguous arc continuation",
                                       residuals=[abs(tb - ta)])
        tm = 0.5 * (ta + tb)
        return step(tm, tb, step(ta, tm, g, depth + 1), depth + 1)

    out = np.empty(len(ts), dtype=complex)
    k0 = int(np.argmin(np.abs(ts - tmid)))
    g = step(tmid, ts[k0], g_mid)
    out[k0] = g
    for k in range(k0 - 1, -1, -1):
        out[k] = step(ts[k + 1], ts[k], out[k + 1])
    for k in range(k0 + 1, len(ts)):
        out[k] = step(ts[k - 1], ts[k], out[k - 1])
    return out


# ---------------------------------------------------------------------------
# path planning: keep clear of branch points, never cross a cut
# ---------------------------------------------------------------------------
#
# The geometry below is batched: arguments broadcast against each other.  It
# uses real arithmetic and np.hypot, because numpy's vector complex multiply
# and abs round differently from their scalar forms, and every accept or
# reject decision must match the scalar formulas bit for bit.

_EDGE_BLOCK = 256     # segments per broadcast block in edge_clear


def _point_segment(p, a, b):
    """Distance from points p to segments a-b, and the segment parameter of
    each closest point."""
    d = b - a
    e = p - a
    L2 = d.real * d.real + d.imag * d.imag
    dot = e.real * d.real + e.imag * d.imag
    t = np.divide(dot, L2, out=np.zeros_like(dot), where=L2 != 0.0)
    t = np.minimum(1.0, np.maximum(0.0, t))
    f = a + t * d - p
    return np.hypot(f.real, f.imag), t


def _segment_segment_dist(a0, a1, b0, b1):
    """Distance between segments a0-a1 and b0-b1; zero where they cross."""

    def cross(o, p, q):
        u, v = p - o, q - o
        return u.imag * v.real - u.real * v.imag

    crossing = ((cross(b0, b1, a0) * cross(b0, b1, a1) < 0.0)
                & (cross(a0, a1, b0) * cross(a0, a1, b1) < 0.0))
    dist = np.minimum(
        np.minimum(_point_segment(a0, b0, b1)[0],
                   _point_segment(a1, b0, b1)[0]),
        np.minimum(_point_segment(b0, a0, a1)[0],
                   _point_segment(b1, a0, a1)[0]))
    return np.where(crossing, 0.0, dist)


def _unit(z, fallback=1.0 + 0j):
    a = abs(z)
    return z / a if a > 0.0 else fallback


class PathPlanner:
    """Routes anchor paths around obstacles.

    Obstacles are point branch points (keep distance > clearance) and
    capsules (a, b, r) — branch-cut segments thickened by radius r that a
    path may neither enter nor cross.  Routing uses a small visibility
    graph: candidate waypoints on rings around free capsule endpoints and
    around point obstacles, connected whenever the straight segment between
    them clears everything, searched with Dijkstra.  Clearance tests are
    batched: one edge_clear call tests many segments against all capsules
    and points, and _build tests every pair of waypoints in one call.
    """

    RING = 8          # waypoints per capsule-endpoint ring
    RING_FACTOR = 1.7
    POINT_RING = 6
    POINT_FACTOR = 2.2

    def __init__(self, points=(), clearance=0.0, capsules=()):
        self.points = np.array([complex(p) for p in points], dtype=complex)
        self.clearance = float(clearance)
        self.capsules = [(complex(a), complex(b), float(r))
                         for a, b, r in capsules]
        self._cap_a = np.array([c[0] for c in self.capsules], dtype=complex)
        self._cap_b = np.array([c[1] for c in self.capsules], dtype=complex)
        self._cap_r = np.array([c[2] for c in self.capsules], dtype=float)
        self._nodes = None
        self._adj = None

    # -- primitives ---------------------------------------------------------

    def _inside_capsule(self, z):
        """Index of the first capsule that contains z and the segment
        parameter of z's foot on it, or None."""
        dist, t = _point_segment(z, self._cap_a, self._cap_b)
        hit = np.flatnonzero(dist < self._cap_r)
        if not hit.size:
            return None
        t = t[hit[0]]
        # At a segment end t is a Python float, as a scalar min/max clamp
        # gives, so the foot is a Python complex there and a numpy one
        # inside.  The two types round the division in _unit differently,
        # and the escape waypoints are pinned to that split bit for bit.
        return int(hit[0]), float(t) if t in (0.0, 1.0) else t

    def _free(self, zs):
        """Whether each point of zs lies outside every capsule and keeps
        the clearance from every point obstacle."""
        zs = np.asarray(zs, dtype=complex)[..., None]
        inside = np.any(_point_segment(zs, self._cap_a, self._cap_b)[0]
                        < self._cap_r, axis=-1)
        d = zs - self.points
        return ~inside & np.all(np.hypot(d.real, d.imag) >= self.clearance,
                                axis=-1)

    def edge_clear(self, us, vs):
        """Whether each segment us[i]-vs[i] keeps out of every capsule (no
        point within r, no crossing) and passes every point obstacle at the
        clearance or more.  us and vs broadcast to one dimension."""
        us, vs = np.broadcast_arrays(np.atleast_1d(us).astype(complex),
                                     np.atleast_1d(vs).astype(complex))
        clear = np.empty(us.shape, dtype=bool)
        # Blocks of edges bound the edges x obstacles temporaries.
        for lo in range(0, len(us), _EDGE_BLOCK):
            u = us[lo:lo + _EDGE_BLOCK, None]
            v = vs[lo:lo + _EDGE_BLOCK, None]
            hit = np.any(_segment_segment_dist(u, v, self._cap_a, self._cap_b)
                         < self._cap_r, axis=1)
            hit |= np.any(_point_segment(self.points, u, v)[0]
                          < self.clearance, axis=1)
            clear[lo:lo + _EDGE_BLOCK] = ~hit
        return clear

    def _escape(self, z):
        """Lead a point trapped inside capsules to free space, radially."""
        out = [complex(z)]
        for _ in range(8):
            hit = self._inside_capsule(out[-1])
            if hit is None:
                return out
            k, t = hit
            a, b, r = self.capsules[k]
            foot = a + t * (b - a)
            nvec = out[-1] - foot
            if abs(nvec) < 1e-14 * max(1.0, abs(b - a)):
                nvec = 1j * (b - a)
            u = _unit(nvec)
            # Prefer a generous standoff, but accept a tighter one when the
            # free corridor between neighboring capsules is narrow.
            for fac in (1.4, 1.25, 1.12, 1.05, 1.02):
                cand = foot + u * fac * r
                if self._free(cand):
                    out.append(cand)
                    break
            else:
                out.append(foot + u * 1.4 * r)
        raise ConvergenceError("could not escape overlapping cut capsules")

    def _extend_to_visibility(self, chain):
        """Grow an escape polyline outward until its tip sees a graph node.

        An escaped endpoint can sit in a pocket (e.g. just outside a long
        curved capsule) where every chord to the waypoint graph grazes an
        obstacle.  Marching further along the escape direction in steps of
        the local capsule radius restores visibility.
        """
        chain = list(chain)
        if self.edge_clear(chain[-1], self._nodes).any():
            return chain
        d0 = _unit(chain[-1] - chain[-2]) if len(chain) >= 2 else 1.0 + 0j
        step = 1.4 * max(max((r for _, _, r in self.capsules), default=0.0),
                         self.clearance, 1e-12)
        # March outward along the escape direction first; if that stalls
        # (e.g. the tip sits in a corridor between two capsules), try the
        # two perpendicular directions before giving up.
        for direction in (d0, 1j * d0, -1j * d0):
            ext = []
            tip = chain[-1]
            for _ in range(16):
                nxt = tip + direction * step
                if not self._free(nxt) or not self.edge_clear(tip, nxt)[0]:
                    break
                ext.append(nxt)
                tip = nxt
                if self.edge_clear(tip, self._nodes).any():
                    return chain + ext
        return chain

    # -- graph --------------------------------------------------------------

    def _build(self):
        nodes = []
        ends = {}
        for a, b, r in self.capsules:
            for e in (a, b):
                key = (round(e.real, 9), round(e.imag, 9))
                ends.setdefault(key, [0, e, r])
                ends[key][0] += 1
                ends[key][2] = max(ends[key][2], r)
        shared = {k for k, v in ends.items() if v[0] > 1}
        for k, (cnt, e, r) in ends.items():
            if k in shared:
                continue
            for j in range(self.RING):
                ang = 2.0 * np.pi * (j + 0.5) / self.RING
                nodes.append(e + self.RING_FACTOR * r * np.exp(1j * ang))
        for a, b, r in self.capsules:
            key_a = (round(a.real, 9), round(a.imag, 9))
            key_b = (round(b.real, 9), round(b.imag, 9))
            if key_a in shared or key_b in shared:
                continue      # interior piece of a polyline capsule
            mid = 0.5 * (a + b)
            perp = 1j * _unit(b - a)
            nodes.append(mid + self.RING_FACTOR * r * perp)
            nodes.append(mid - self.RING_FACTOR * r * perp)
        if self.clearance > 0.0:
            for p in self.points:
                for j in range(self.POINT_RING):
                    ang = 2.0 * np.pi * (j + 0.25) / self.POINT_RING
                    nodes.append(p + self.POINT_FACTOR * self.clearance
                                 * np.exp(1j * ang))
        nodes = np.array(nodes, dtype=complex)
        nodes = nodes[self._free(nodes)]
        adj = [[] for _ in nodes]
        iu, ju = np.triu_indices(len(nodes), 1)
        clear = self.edge_clear(nodes[iu], nodes[ju])
        for i, j in zip(iu[clear].tolist(), ju[clear].tolist()):
            w = abs(nodes[i] - nodes[j])
            adj[i].append((j, w))
            adj[j].append((i, w))
        self._nodes, self._adj = nodes, adj

    def route(self, z0, z1):
        """Polyline from z0 to z1 honoring all obstacles.  Endpoints inside
        a capsule (e.g. the anchor below the classical cut, or a cut seed
        point) are first led out radially."""
        prefix = self._escape(z0)
        suffix = self._escape(z1)
        start, end = prefix[-1], suffix[-1]
        if self.edge_clear(start, end)[0]:
            return prefix + suffix[::-1][1:] if abs(start - end) == 0 \
                else prefix + suffix[::-1]
        if self._nodes is None:
            self._build()
        prefix = self._extend_to_visibility(prefix)
        suffix = self._extend_to_visibility(suffix)
        start, end = prefix[-1], suffix[-1]
        if self.edge_clear(start, end)[0]:
            return prefix + suffix[::-1]
        import heapq
        nodes = list(self._nodes) + [start, end]
        si, ti = len(nodes) - 2, len(nodes) - 1
        adj = {i: list(e) for i, e in enumerate(self._adj)}
        adj[si], adj[ti] = [], []
        sees = [(start, si, self.edge_clear(start, self._nodes)),
                (end, ti, self.edge_clear(end, self._nodes))]
        for i, z in enumerate(self._nodes):
            for q, qi, clear in sees:
                if clear[i]:
                    w = abs(q - z)
                    adj[qi].append((i, w))
                    adj[i].append((qi, w))
        dist = {si: 0.0}
        prev = {}
        heap = [(0.0, si)]
        seen = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in seen:
                continue
            seen.add(u)
            if u == ti:
                break
            for v, w in adj[u]:
                nd = d + w
                if nd < dist.get(v, np.inf):
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
        if ti not in seen:
            raise ConvergenceError(
                "no admissible anchor path between contours")
        chain = [ti]
        while chain[-1] != si:
            chain.append(prev[chain[-1]])
        mid = [nodes[i] for i in reversed(chain)]
        return prefix[:-1] + mid + suffix[::-1][1:]
