"""Branch-tracked square roots and closed-contour quadrature.

The central object is w(z) = sqrt(P(z)) for a polynomial P, continued
analytically along paths.  Writing E - omega^2 = P/den^2 keeps all branch
points at the zeros of P; the integrand of every contour in this package is
w(z)/den(z) times a mapping measure.

The roots of P are found once per energy by the caller (cpoly.find_roots)
and carried by SqrtIntegrand; every continuation takes them as an argument,
since the winding of P over a chord is computed from them.  One tracker,
track_nodes, carries the sheet along every chain of nodes: it halves the
chords that wind P too far, then takes the closer square root.  The cut
integrals factor the two cut ends out of w and track the rest,
g^2 = -lead * prod(z - r) over the other roots, in that product form.

A single global anchor value fixes the sheet.  Every contour carries an
``anchor_path`` from the anchor to its start point; continuation along that
path (tracked as one chain; the planner keeps the path away from branch
points and from crossing any branch cut) selects the branch
consistently across all contours, so the closure identity sum(contours) =
large-circle holds without per-contour sign conventions.  Every quadrature
refines from ORDER_START = 64 nodes, trapezoid or Gauss-Legendre.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from numpy.polynomial import polynomial as npoly

from .cpoly import Polynomial
from .errors import BranchAmbiguityError, ConvergenceError
from .quadrature import (GL_ORDER_MAX, ORDER_START, gauss_legendre,
                         refine_until)

QUAD_TOL = 1e-11      # successive-refinement agreement for contour quadrature
MAX_NODES = 1 << 17
_CLOSE_TOL = 1e-8     # branch must return to itself on a closed contour


# ---------------------------------------------------------------------------
# analytic continuation of sqrt(P)
# ---------------------------------------------------------------------------

_PHASE_STEP = 1.0   # max winding of P per accepted chord
_MAX_HALVE = 60     # halving passes before track_nodes gives up


def track_nodes(P, roots, w0, zs):
    """Values of w (w^2 = P) at a chain of nodes, starting from w0 at zs[0].

    P is any callable radicand and roots are its zeros, with multiplicity.
    Along a straight chord the argument of (z - r) changes by less than pi
    for every r off the chord, so the sum over the roots of the principal
    arg((z_b - r)/(z_a - r)) is the exact winding of P.  Each pass inserts
    the midpoint of every chord that winds P by more than _PHASE_STEP < pi;
    once none does, w rotates by less than pi/2 over every chord and the
    closer square root is provably the continuation.  Only the values at
    the given nodes are returned.
    """
    zs = np.asarray(zs, dtype=complex)
    at = np.arange(len(zs))          # where the given nodes sit in the chain
    for halvings in range(_MAX_HALVE + 1):
        d = zs[:, None] - roots[None, :]
        if not np.all(d):
            raise BranchAmbiguityError(
                "sqrt continuation hit a branch point", residuals=[0.0])
        wind = np.sum(np.angle(d[1:] / d[:-1]), axis=1)
        wide = np.flatnonzero(np.abs(wind) > _PHASE_STEP)
        if not wide.size:
            break
        if halvings == _MAX_HALVE:
            raise BranchAmbiguityError(
                "ambiguous sqrt continuation; path passes too close to a "
                "branch point", residuals=[abs(zs[wide[0] + 1] - zs[wide[0]])])
        at += np.searchsorted(wide, at)
        zs = np.insert(zs, wide + 1, 0.5 * (zs[wide] + zs[wide + 1]))
    p = np.asarray(P(zs), dtype=complex)
    if np.any(p[1:] == 0.0):
        raise BranchAmbiguityError(
            "sqrt continuation hit a branch point", residuals=[0.0])
    s = np.sqrt(p)
    # From w = +-s[k-1] the closer root to w is +-s[k] when s[k] is closer
    # to s[k-1] than to -s[k-1], else -+s[k]; at a tie it is +s[k] from
    # either sign, so a tie starts a new run, taken by the scalar rule.
    # np.hypot, not np.abs: numpy's vector complex abs rounds differently
    # from the scalar abs of the rule below.
    dsame, dflip = s[1:] - s[:-1], s[1:] + s[:-1]
    to_same = np.hypot(dsame.real, dsame.imag)
    to_flip = np.hypot(dflip.real, dflip.imag)
    keep = np.where(to_same < to_flip, 1.0, -1.0)
    heads = np.flatnonzero(to_same == to_flip) + 1
    ws = np.empty(len(zs), dtype=complex)
    ws[0] = w0
    k = 1
    while k < len(zs):
        prev = ws[k - 1]
        flip = not abs(s[k] - prev) <= abs(-s[k] - prev)
        ws[k] = -s[k] if flip else s[k]
        i = np.searchsorted(heads, k, side="right")
        end = int(heads[i]) if i < len(heads) else len(zs)
        sign = np.cumprod(keep[k:end - 1])
        if flip:
            sign = -sign
        ws[k + 1:end] = np.where(sign > 0.0, s[k + 1:end], -s[k + 1:end])
        k = end
    return ws[at]


def continue_along(P, roots, w0, points):
    """Continuation of w from w0 at points[0] along the polyline points.

    The polyline is tracked as one chain by track_nodes; the root of the
    scalar sqrt(P(end)) nearer the tracked value is returned, so the result
    does not depend on how the chain was cut.
    """
    w = track_nodes(P, roots, w0, points)[-1]
    s = np.sqrt(complex(P(complex(points[-1]))))
    return s if abs(s - w) <= abs(-s - w) else -s


# ---------------------------------------------------------------------------
# integrand and contour types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SqrtIntegrand:
    """f(z) = sqrt(P(z))/den(z) * measure(z), branch fixed at the anchor.

    roots are the zeros of P with multiplicity, found once by the caller;
    continuation and the cut integrals take them from here."""

    P: Polynomial
    roots: np.ndarray
    den: Polynomial
    measure: Callable[[np.ndarray], np.ndarray]
    anchor_point: complex
    anchor_value: complex   # w = sqrt(P) at the anchor on the chosen sheet

    def values(self, zs, ws):
        zs = np.asarray(zs, dtype=complex)
        return ws / npoly.polyval(zs, self.den.coeffs) * self.measure(zs)


@dataclass(frozen=True)
class Contour:
    """Counterclockwise circle |z - center| = radius.

    anchor_path is a polyline from the global anchor to the contour's start
    point, center + radius; it fixes the branch of the integrand before
    traversal.
    """

    center: complex
    radius: float
    anchor_path: tuple = field(default_factory=tuple)

    def start_point(self):
        return self.center + self.radius


def contour_integral(contour: Contour, integrand: SqrtIntegrand):
    """(1/2pi) * closed contour integral of the branch-anchored integrand.

    Equispaced trapezoidal quadrature in the angle, doubling n from
    ORDER_START until two results agree within QUAD_TOL.  On a circle whose
    other singularities lie rho radii or more from its centre the error
    falls like rho^-n, so pole circles (rho >= 2) agree by 128 nodes.
    """
    path = contour.anchor_path
    if not path:
        path = (integrand.anchor_point, contour.start_point())
    w_start = continue_along(integrand.P, integrand.roots,
                             integrand.anchor_value, path)
    return refine_until(lambda n: _traverse(contour, integrand, w_start, n),
                        ORDER_START, MAX_NODES, QUAD_TOL, "contour quadrature")


def _traverse(contour, integrand, w_start, n):
    th = 2.0 * np.pi * np.arange(n + 1) / n
    zs = contour.center + contour.radius * np.exp(1j * th)
    ws = track_nodes(integrand.P, integrand.roots, w_start, zs)
    if abs(ws[-1] - ws[0]) > _CLOSE_TOL * (1.0 + abs(ws[0])):
        raise BranchAmbiguityError(
            "branch does not close on the contour (odd number of enclosed "
            "branch points)", residuals=[abs(ws[-1] - ws[0])])
    f = integrand.values(zs[:-1], ws[:-1])
    dz = 1j * contour.radius * np.exp(1j * th[:-1])
    return np.mean(f * dz)


# ---------------------------------------------------------------------------
# cut integrals (vanishing-clearance limit of a counterclockwise loop)
# ---------------------------------------------------------------------------

def _cut_factor(integrand, ends):
    """g^2 = -lead * prod(z - r) over the roots r of P other than the two
    cut ends, as a radicand in product form together with its roots."""
    rest = integrand.roots
    for e in ends:
        rest = np.delete(rest, np.argmin(np.abs(rest - e)))
    lead = integrand.P.coeffs[-1]
    return (lambda z: -lead * np.prod(np.asarray(z)[..., None] - rest,
                                      axis=-1)), rest


def cut_segment_integral(integrand: SqrtIntegrand, p1, p2, w_mid):
    """(1/pi) * integral of w/den * measure along the straight cut p1->p2.

    Equals the counterclockwise loop around the cut in the limit of
    vanishing clearance.  w_mid is the branch value at the segment midpoint
    approached from the right-hand side of the direction p1->p2 (for the
    classical cut on the real axis this is the side "just below the cut").

    The square-root vanishing at the cut ends is factored out analytically:
    w = sqrt((z-p1)(p2-z)) * g(z) with g^2 = -lead * prod(z - r) over the
    roots r of P other than p1 and p2, taken from integrand.roots.  The
    product form stays accurate far from the origin, where the monomial
    coefficients of a deflated polynomial cancel.  g is nonvanishing near
    the cut, and the sine substitution makes the Gauss-Legendre quadrature
    spectrally accurate.
    """
    p1, p2 = complex(p1), complex(p2)
    d = p2 - p1
    G, rest = _cut_factor(integrand, (p1, p2))
    zmid = 0.5 * (p1 + p2)
    g_mid = 2.0 * complex(w_mid) / d        # phi(midpoint) = d/2
    den_c = integrand.den.coeffs

    def at_order(order):
        u, wt = gauss_legendre(order)
        th = u * np.pi / 2.0
        t = 0.5 * (1.0 + np.sin(th))
        zs = p1 + t * d
        gs = _track_from_mid(G, rest, g_mid, zmid, zs)
        f = gs / npoly.polyval(zs, den_c) * integrand.measure(zs)
        vals = f * d * d * np.cos(th) ** 2 / 4.0
        return 0.5 * np.sum(wt * vals)

    return refine_until(at_order, ORDER_START, GL_ORDER_MAX, QUAD_TOL,
                        "cut quadrature")


def _track_from_mid(P, roots, g_mid, zmid, zs):
    """Track sqrt(P) values over nodes zs (ordered along a chain), seeding
    from the value g_mid at zmid which falls between the middle nodes."""
    k0 = int(np.argmin(np.abs(zs - zmid)))
    left_chain = np.concatenate([[zmid], zs[k0::-1]])
    right_chain = np.concatenate([[zmid], zs[k0 + 1:]])
    gl = track_nodes(P, roots, g_mid, left_chain)[1:][::-1]
    gr = track_nodes(P, roots, g_mid, right_chain)[1:]
    return np.concatenate([gl, gr])


def arc_cut_integral(integrand: SqrtIntegrand, theta1, theta2, w_mid):
    """(1/pi) * integral of w/den * measure along the unit-circle arc
    y = exp(i theta), theta from theta1 to theta2.

    Used for trigonometric mappings, where branch cuts lie on the unit
    circle; w_mid is the branch value at the arc midpoint approached from
    just outside the circle (the right-hand side of increasing theta).

    w = i*phi*h*g with phi(theta) = sqrt((theta-th1)(th2-theta)) and g^2 =
    -lead * prod(y - r) over the roots r of P other than the arc ends, as
    in cut_segment_integral; g is tracked over the arc's y-nodes.  With
    y_k = exp(i th_k) the end factor is in closed form,
    (y - y1)(y - y2)/phi^2 = exp(i(theta + thm)) sinc(a) sinc(b), where
    a, b = (theta - th1)/2, (th2 - theta)/2, sinc u = sin(u)/u and thm is
    the arc's mid angle; h is its square root exp(i(theta + thm)/2)
    sqrt(sinc(a) sinc(b)), continuous along arcs shorter than 2 pi.
    """
    th1, th2 = float(theta1), float(theta2)
    thm, thh = 0.5 * (th1 + th2), 0.5 * (th2 - th1)
    G, rest = _cut_factor(integrand, (np.exp(1j * th1), np.exp(1j * th2)))
    den_c = integrand.den.coeffs

    def h(th):
        # np.sinc(x) = sin(pi x)/(pi x)
        return np.exp(0.5j * (th + thm)) * np.sqrt(
            np.sinc((th - th1) / (2.0 * np.pi))
            * np.sinc((th2 - th) / (2.0 * np.pi)))

    # phi(midpoint) = thh
    g_mid = complex(w_mid) / (1j * thh * h(thm))

    def at_order(order):
        u, wt = gauss_legendre(order)
        th = thm + thh * np.sin(u * np.pi / 2.0)
        ys = np.exp(1j * th)
        gs = _track_from_mid(G, rest, g_mid, np.exp(1j * thm), ys) * h(th)
        f = gs / npoly.polyval(ys, den_c) * integrand.measure(ys)
        # per-theta integrand w/den*measure*(i y): with w = i*phi*h*g the
        # two factors of i combine to -1.
        vals = -f * ys * thh * thh * np.cos(u * np.pi / 2.0) ** 2
        return 0.5 * np.sum(wt * vals)

    return refine_until(at_order, ORDER_START, GL_ORDER_MAX, QUAD_TOL,
                        "arc cut quadrature")


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
    # Python's complex division, whatever scalar type z comes in: numpy's
    # multiplies by the reciprocal and can round differently.
    z = complex(z)
    a = abs(z)
    return z / a if a > 0.0 else fallback


def _box_gap(x0, x1, y0, y1, bx0, bx1, by0, by1):
    """Lower bound on the distance between anything inside the box
    [x0, x1] x [y0, y1] and anything inside [bx0, bx1] x [by0, by1]: the
    larger of the two axis gaps, negative where the boxes overlap."""
    return np.maximum(np.maximum(bx0 - x1, x0 - bx1),
                      np.maximum(by0 - y1, y0 - by1))


def _near_pairs(gap, limit):
    """Row and column indices of the (segment, obstacle) pairs whose box gap
    does not rule out a distance below limit."""
    return np.nonzero(gap < limit)


@dataclass
class _Source:
    """What a planner keeps per source point: the escape; once a route
    needs the graph, the escape extended to visibility, whose tip the
    direct test uses, and which nodes that tip sees; once a route needs the
    search, the chain it starts from and its tree (see PathPlanner._tree)."""

    prefix: list
    chain: list | None = None
    sees: np.ndarray | None = None
    path: list | None = None
    dist: np.ndarray | None = None
    prev: list | None = None
    order: np.ndarray | None = None


class PathPlanner:
    """Routes anchor paths around obstacles.

    Obstacles are point branch points (keep distance > clearance) and
    capsules (a, b, r) — branch-cut segments thickened by radius r that a
    path may neither enter nor cross.  Routing uses a small visibility
    graph: candidate waypoints on rings around free capsule endpoints and
    around point obstacles, connected whenever the straight segment between
    them clears everything.

    One search per source: the planner keeps, per source point z0, the
    escape, its extension to visibility and one Dijkstra tree over the
    graph.  A route then escapes and extends only its target, and takes
    the visible node that minimises the tree distance plus the last leg.
    This is the route a per-route Dijkstra from z0 to z1 returns: both
    pick the first node in settle order that attains the least total.

    Clearance tests are batched: one edge_clear call tests many segments
    against all capsules and points, and _build tests every pair of
    waypoints in one call.  A pair whose bounding boxes lie at least
    r + margin apart is cleared without the exact test.  The margin,
    1e-12 * (1 + the largest |coordinate|), is far above the rounding of
    either the box gap or the exact distance, so every decision equals
    the exact formulas'.
    """

    RING = 8          # waypoints per capsule-endpoint ring
    RING_FACTOR = 1.7
    POINT_RING = 6
    POINT_FACTOR = 2.2
    MARCH = 16        # steps per direction of the visibility march
    LAST_MARCH = 128  # the march where the graph would find no path
    MARGIN = 1e-12    # box-gap margin per unit of coordinate size

    def __init__(self, points=(), clearance=0.0, capsules=()):
        self.points = np.array([complex(p) for p in points], dtype=complex)
        self.clearance = float(clearance)
        self.capsules = [(complex(a), complex(b), float(r))
                         for a, b, r in capsules]
        self._cap_a = np.array([c[0] for c in self.capsules], dtype=complex)
        self._cap_b = np.array([c[1] for c in self.capsules], dtype=complex)
        self._cap_r = np.array([c[2] for c in self.capsules], dtype=float)
        a, b = self._cap_a, self._cap_b
        self._cap_box = (np.minimum(a.real, b.real), np.maximum(a.real, b.real),
                         np.minimum(a.imag, b.imag), np.maximum(a.imag, b.imag))
        self._size = np.abs(np.concatenate(
            [a.real, a.imag, b.real, b.imag, self.points.real,
             self.points.imag])).max(initial=0.0)
        self._nodes = None
        self._adj = None
        self._sources = {}

    # -- primitives ---------------------------------------------------------

    def _inside_capsule(self, z):
        """Index of the first capsule that contains z and the segment
        parameter of z's foot on it, or None."""
        dist, t = _point_segment(z, self._cap_a, self._cap_b)
        hit = np.flatnonzero(dist < self._cap_r)
        if not hit.size:
            return None
        return int(hit[0]), t[hit[0]]

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
        clearance or more.  us and vs broadcast to one dimension.  Only
        the pairs that the box gap does not clear get the exact test."""
        us, vs = np.broadcast_arrays(np.atleast_1d(us).astype(complex),
                                     np.atleast_1d(vs).astype(complex))
        clear = np.empty(us.shape, dtype=bool)
        cx0, cx1, cy0, cy1 = self._cap_box
        px, py = self.points.real, self.points.imag
        # Blocks of edges bound the edges x obstacles temporaries.
        for lo in range(0, len(us), _EDGE_BLOCK):
            u = us[lo:lo + _EDGE_BLOCK]
            v = vs[lo:lo + _EDGE_BLOCK]
            x0, x1 = np.minimum(u.real, v.real), np.maximum(u.real, v.real)
            y0, y1 = np.minimum(u.imag, v.imag), np.maximum(u.imag, v.imag)
            # the largest |coordinate| of the obstacles and this block
            size = max(self._size, -x0.min(), x1.max(), -y0.min(), y1.max())
            margin = self.MARGIN * (1.0 + size)
            hit = np.zeros(len(u), dtype=bool)
            i, k = _near_pairs(
                _box_gap(x0[:, None], x1[:, None], y0[:, None], y1[:, None],
                         cx0, cx1, cy0, cy1), self._cap_r + margin)
            if i.size:
                hit[i[_segment_segment_dist(u[i], v[i], self._cap_a[k],
                                            self._cap_b[k])
                      < self._cap_r[k]]] = True
            i, k = _near_pairs(
                _box_gap(x0[:, None], x1[:, None], y0[:, None], y1[:, None],
                         px, px, py, py), self.clearance + margin)
            if i.size:
                hit[i[_point_segment(self.points[k], u[i], v[i])[0]
                      < self.clearance]] = True
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

    def _extend_to_visibility(self, chain, steps=MARCH):
        """Grow an escape polyline outward until its tip sees a graph node.

        An escaped endpoint can sit in a pocket (e.g. just outside a long
        curved capsule) where every chord to the waypoint graph grazes an
        obstacle.  Marching further along the escape direction in steps of
        the local capsule radius restores visibility.  Returns the chain
        and which graph nodes its tip sees; the chain comes back unchanged,
        seeing no node, when no march of up to `steps` steps succeeds.
        """
        chain = list(chain)
        sees = self.edge_clear(chain[-1], self._nodes)
        if sees.any():
            return chain, sees
        d0 = _unit(chain[-1] - chain[-2]) if len(chain) >= 2 else 1.0 + 0j
        step = 1.4 * max(max((r for _, _, r in self.capsules), default=0.0),
                         self.clearance, 1e-12)
        # March outward along the escape direction first; if that stalls
        # (e.g. the tip sits in a corridor between two capsules), try the
        # two perpendicular directions before giving up.
        for direction in (d0, 1j * d0, -1j * d0):
            ext = []
            tip = chain[-1]
            for _ in range(steps):
                nxt = tip + direction * step
                if not self._free(nxt) or not self.edge_clear(tip, nxt)[0]:
                    break
                ext.append(nxt)
                tip = nxt
                tip_sees = self.edge_clear(tip, self._nodes)
                if tip_sees.any():
                    return chain + ext, tip_sees
        return chain, sees

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
        iu, ju = iu[clear], ju[clear]
        d = nodes[iu] - nodes[ju]
        for i, j, w in zip(iu.tolist(), ju.tolist(),
                           np.hypot(d.real, d.imag).tolist()):
            adj[i].append((j, w))
            adj[j].append((i, w))
        self._nodes, self._adj = nodes, adj

    def _tree(self, src):
        """Fill in src's search: Dijkstra over the graph from the tip of
        src.path, which connects to the nodes it sees, giving each node's
        distance (inf where unreachable), its predecessor (-1 for the tip)
        and the nodes in settle order."""
        src.path, sees = src.chain, src.sees
        if not sees.any():
            # Last resort: no route from here can use the graph, so march
            # further, for the search only.
            src.path, sees = self._extend_to_visibility(src.prefix,
                                                        self.LAST_MARCH)
        start, nodes = src.path[-1], self._nodes
        dist = [np.inf] * len(nodes)
        prev = [-1] * len(nodes)
        heap = []
        for i in np.flatnonzero(sees).tolist():
            dist[i] = abs(start - nodes[i])
            heap.append((dist[i], i))
        heapq.heapify(heap)
        order = []
        seen = set()
        while heap:
            d, u = heapq.heappop(heap)
            if u in seen:
                continue
            seen.add(u)
            order.append(u)
            for v, w in self._adj[u]:
                nd = d + w
                if nd < dist[v]:
                    dist[v] = nd
                    prev[v] = u
                    heapq.heappush(heap, (nd, v))
        src.dist, src.prev = np.array(dist), prev
        src.order = np.array(order, dtype=int)

    def route(self, z0, z1):
        """Polyline from z0 to z1 honoring all obstacles.  Endpoints inside
        a capsule (e.g. the anchor below the classical cut, or a cut seed
        point) are first led out radially."""
        src = self._sources.get(z0)
        if src is None:
            src = self._sources[z0] = _Source(self._escape(z0))
        suffix = self._escape(z1)
        start, end = src.prefix[-1], suffix[-1]
        if self.edge_clear(start, end)[0]:
            return src.prefix + suffix[::-1][1:] if abs(start - end) == 0 \
                else src.prefix + suffix[::-1]
        if self._nodes is None:
            self._build()
        if src.chain is None:
            src.chain, src.sees = self._extend_to_visibility(src.prefix)
        suffix, sees = self._extend_to_visibility(suffix)
        if self.edge_clear(src.chain[-1], suffix[-1])[0]:
            return src.chain + suffix[::-1]
        if not sees.any():
            # Last resort, as for the source in _tree.
            suffix, sees = self._extend_to_visibility(suffix, self.LAST_MARCH)
        if src.order is None:
            self._tree(src)
        # Taking candidates in settle order breaks exact ties the way a
        # per-route search from z0, stopping at the target, would.
        cand = src.order[sees[src.order]]
        if not cand.size:
            raise ConvergenceError(
                "no admissible anchor path between contours")
        leg = suffix[-1] - self._nodes[cand]
        best = int(cand[np.argmin(src.dist[cand]
                                  + np.hypot(leg.real, leg.imag))])
        mid = [best]
        while src.prev[mid[-1]] >= 0:
            mid.append(src.prev[mid[-1]])
        return (src.path + [self._nodes[i] for i in reversed(mid)]
                + suffix[::-1])
