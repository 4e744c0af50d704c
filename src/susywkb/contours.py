"""Complex-plane decomposition of the SWKB integral.

Deforming the classical-region contour outward expresses the large-circle
integral J_GammaR as the sum of fixed-pole contributions J_gamma and
branch-cut contributions.  For entries whose only cuts are the classical one
and its mirror, the identity J_GammaR - sum(J_gamma) = 2n*hbar quantizes the
spectrum.  When additional cuts carry weight (J_OBC != 0) that route fails.
The SWKB error at an exact level is then J_SWKB - n*hbar = pole_offset -
J_OBC, where pole_offset is how far the pole sum J_GammaR - sum(J_gamma)
misses its quantized value.  That offset need not vanish: for nonexact2 at
E_1 the budget reads 0.005636 = 0.010446 - 0.004810.  defect_report measures
J_OBC both directly and indirectly.

All branch choices descend from a single anchor just below the classical
cut, where sqrt(E - omega^2) is taken with positive real part.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cache, cached_property, lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.optimize import brentq

from . import branch as br
from .catalog import probe_energy
from .cpoly import find_roots
from .errors import ConvergenceError, DomainError
from .swkb import (QuantizationResult, _bracket, _energy_numerator,
                   _unbound_level, swkb_integral, turning_points)

DELTA_BRANCH_FRACTION = 1e-3   # delta_branch = this x branch-point spread
BIG_RADIUS_FACTOR = 4.0
IMAG_TOL = 1e-10


@dataclass(frozen=True)
class Cut:
    p1: complex
    p2: complex
    kind: str            # "classical" | "mirror" | "other"
    arc: bool = False    # True when the cut lies on the unit circle
                         # (trigonometric mappings); then p1, p2 store the
                         # angles as real numbers


@dataclass(frozen=True)
class SingularityCensus:
    fixed_poles: tuple       # finite pole locations plus "infinity"
    branch_points: tuple
    branch_cuts: tuple       # of Cut


@dataclass(frozen=True)
class ContourDecomposition:
    J_gamma: dict            # pole location -> complex contribution
    J_GammaR: complex
    J_classical_cut: complex
    J_mirror_cut: complex
    J_other_cuts: tuple
    closure_residual: float


@dataclass(frozen=True)
class DefectReport:
    potential_id: str
    n: int
    E_exact: float
    J_swkb: float
    J_obc_direct: float
    J_obc_indirect: float
    pole_offset: float       # (J_GammaR - sum J_gamma) - m*n*hbar
    consistency_gap: float


# ---------------------------------------------------------------------------
# workspace: everything derived from (spec, E)
# ---------------------------------------------------------------------------

class _Workspace:
    def __init__(self, spec, E):
        self.spec = spec
        self.E = float(E)
        self.den = den = spec.omega_y.den
        self.P = _energy_numerator(spec, self.E)
        self.roots = find_roots(self.P)
        self.branch_points = tuple(self.roots)
        poles = list(spec.omega_poles_y)
        if spec.mapping in ("exp", "exp_i"):
            if not any(abs(p) < 1e-9 for p in poles):
                poles.append(0.0 + 0j)
        self.poles = tuple(sorted(poles, key=lambda z: (z.real, z.imag)))
        self.measure = spec.measure
        tp = turning_points(spec, self.E, self.branch_points)
        self.x1, self.x2 = tp.x1, tp.x2
        self.y1 = complex(spec.y_of_x(tp.x1))
        self.y2 = complex(spec.y_of_x(tp.x2))
        eps = 1e-3 * (tp.x2 - tp.x1)
        xa = 0.5 * (tp.x1 + tp.x2) - 1j * eps
        self.ya = complex(spec.y_of_x(xa))
        om_a = spec.omega_y(self.ya)
        s = cmath.sqrt(self.E - om_a * om_a)
        if s.real < 0:
            s = -s
        self.anchor_value = s * complex(npoly.polyval(self.ya, den.coeffs))
        bps = np.asarray(self.branch_points)
        self.spread = float(max(np.abs(bps[:, None] - bps[None, :]).max(),
                                1e-30))
        self.delta_branch = DELTA_BRANCH_FRACTION * self.spread
        # 0.35 of the smallest singularity gap must cap the clearance even
        # when the branch spread is huge (e.g. near a continuum threshold
        # one turning point runs away while poles stay at unit scale).
        self.clearance = min(max(self.delta_branch, 0.05 * self.spread),
                             0.35 * self._min_gap())
        self.cuts = self._pair_cuts()
        self.capsules = self._build_capsules()
        self.big_radius = BIG_RADIUS_FACTOR * max(
            max(abs(b) for b in self.branch_points),
            max((abs(p) for p in self.poles), default=0.0), 1e-6)
        self.integrand = br.SqrtIntegrand(
            P=self.P, roots=self.roots, den=den, measure=self.measure,
            anchor_point=self.ya, anchor_value=self.anchor_value)

    # -- geometry ----------------------------------------------------------

    def _min_gap(self):
        sing = list(self.branch_points) + list(self.poles)
        gap = math.inf
        for i in range(len(sing)):
            for j in range(i + 1, len(sing)):
                d = abs(sing[i] - sing[j])
                if d > 1e-12:
                    gap = min(gap, d)
        return gap if math.isfinite(gap) else 1.0

    def _pair_cuts(self):
        bps = list(self.branch_points)
        i1 = int(np.argmin([abs(b - self.y1) for b in bps]))
        c1 = bps[i1]
        rest = [b for k, b in enumerate(bps) if k != i1]
        i2 = int(np.argmin([abs(b - self.y2) for b in rest]))
        c2 = rest[i2]
        rest = [b for k, b in enumerate(rest) if k != i2]
        pairs = [(c1, c2)] + _min_weight_matching(rest)
        if self.spec.mapping == "exp_i":
            return self._classify_arcs(pairs)
        return self._classify_chords(pairs)

    def _classify_chords(self, pairs):
        cuts = [Cut(pairs[0][0], pairs[0][1], "classical")]
        others = pairs[1:]
        mirror_idx = None
        if self.spec.is_y_symmetric():
            target = sorted((-pairs[0][0], -pairs[0][1]),
                            key=lambda z: (z.real, z.imag))
            for k, (a, b) in enumerate(others):
                got = sorted((a, b), key=lambda z: (z.real, z.imag))
                if (abs(got[0] - target[0]) < 1e-6 * self.spread
                        and abs(got[1] - target[1]) < 1e-6 * self.spread):
                    mirror_idx = k
                    break
        if mirror_idx is None and len(others) == 1:
            mirror_idx = 0
        for k, (a, b) in enumerate(others):
            kind = "mirror" if k == mirror_idx else "other"
            cuts.append(Cut(a, b, kind))
        return tuple(cuts)

    def _classify_arcs(self, pairs):
        # The classical arc ends on its branch points c_k: alpha*x_k carries
        # the rounding of the turning points, so add the angle of c_k from
        # exp(i alpha x_k).
        al = self.spec.alpha
        th1, th2 = (al * x + cmath.phase(c * cmath.exp(-1j * al * x))
                    for x, c in zip((self.x1, self.x2), pairs[0]))
        cuts = [Cut(th1, th2, "classical", arc=True)]
        cl_angles = (th1, th2)
        for k, (a, b) in enumerate(pairs[1:]):
            ta, tb = float(np.angle(a)), float(np.angle(b))
            lo, hi = min(ta, tb), max(ta, tb)
            # choose the arc between the two angles that avoids the
            # classical endpoints
            if any(lo < c < hi for c in cl_angles):
                lo, hi = hi, lo + 2.0 * math.pi
            kind = "mirror" if len(pairs) == 2 else "other"
            cuts.append(Cut(lo, hi, kind, arc=True))
        return tuple(cuts)

    def cut_endpoints(self, cut):
        if cut.arc:
            return (cmath.exp(1j * cut.p1), cmath.exp(1j * cut.p2))
        return (cut.p1, cut.p2)

    def _build_capsules(self):
        caps = {}
        for cut in self.cuts:
            r = self._capsule_radius(cut)
            caps[cut] = tuple((a, b, r) for a, b in self._cut_polyline(cut))
        return caps

    def _cut_polyline(self, cut):
        if cut.arc:
            ths = np.linspace(cut.p1, cut.p2, 17)
            pts = np.exp(1j * ths)
            return [(complex(pts[k]), complex(pts[k + 1]))
                    for k in range(len(pts) - 1)]
        return [(complex(cut.p1), complex(cut.p2))]

    def _capsule_radius(self, cut):
        """Thickness of a cut's keep-out capsule: a fraction of the distance
        to the nearest foreign singularity or foreign cut segment, so that
        capsules of distinct cuts can never overlap."""
        us, vs = np.array(self._cut_polyline(cut), dtype=complex).T
        a, b = self.cut_endpoints(cut)
        mine = {self._key(a), self._key(b)}
        foreign = [s for s in self.branch_points + self.poles
                   if self._key(s) not in mine]
        dists = list(br._point_segment(
            np.array(foreign, dtype=complex)[:, None], us, vs)[0].min(axis=1))
        for other in self.cuts:
            if other is cut:
                continue
            ps, qs = np.array(self._cut_polyline(other), dtype=complex).T
            dists.append(br._segment_segment_dist(
                us[:, None], vs[:, None], ps, qs).min())
        if not dists:
            return 0.45 * abs(b - a)
        # No floor here: the capsule must stay clear of foreign
        # singularities and foreign cuts no matter how thin that makes it.
        return 0.45 * min(dists)

    @staticmethod
    def _key(z):
        return (round(complex(z).real, 9), round(complex(z).imag, 9))

    @cached_property
    def planner(self):
        return br.PathPlanner(
            points=self.branch_points, clearance=self.clearance,
            capsules=[c for caps in self.capsules.values() for c in caps])

    def path_to(self, target):
        return self.planner.route(self.ya, target)

    # -- contour values ----------------------------------------------------

    def pole_circle(self, pole):
        others = [s for s in list(self.branch_points) + list(self.poles)
                  if abs(s - pole) > 1e-9]
        # Half the distance to the nearest other singularity: the floor
        # delta_branch must never win, or the circle could swallow a
        # nearby branch point.
        radius = 0.5 * min(abs(s - pole) for s in others)
        start = pole + radius
        path = self.path_to(start)
        return br.Contour(kind="circle", center=pole, radius=radius,
                          anchor_path=tuple(path))

    def pole_value(self, pole):
        contour = self.pole_circle(pole)
        return br.contour_integral(contour, self.integrand)

    def infinity_value(self):
        """J_GammaR: the large circle |y| = R, counterclockwise."""
        R = self.big_radius
        contour = br.Contour(kind="circle", center=0j, radius=R,
                             anchor_path=tuple(self.path_to(R + 0j)))
        return br.contour_integral(contour, self.integrand)

    def cut_value(self, cut):
        if cut.arc:
            return self._arc_cut_value(cut)
        p1, p2 = cut.p1, cut.p2
        d = p2 - p1
        e = d / abs(d)
        a, b, rcap = self.capsules[cut][0]
        delta = min(1e-3 * abs(d), 0.5 * rcap)
        mid = 0.5 * (p1 + p2)
        seed = mid - 1j * e * delta
        if cut.kind == "classical":
            path = [self.ya, seed]
        else:
            # All capsules stay active: the planner's escape step leads the
            # seed out perpendicular to the cut on the seed's own side, so
            # the anchor path can never cross the cut it is seeding and the
            # continued value lands on the globally consistent sheet.
            path = self.path_to(seed)
        w_mid = br.continue_along(self.P, self.roots, self.anchor_value,
                                  path + [mid])
        return br.cut_segment_integral(self.integrand, p1, p2, w_mid)

    def _arc_cut_value(self, cut):
        th1, th2 = cut.p1, cut.p2
        thm = 0.5 * (th1 + th2)
        mid = cmath.exp(1j * thm)
        if cut.kind == "classical":
            path = [self.ya, mid]
        else:
            # travel outside the unit circle to the arc midpoint, then
            # approach radially from outside (the anchor side)
            delta = 1e-3
            seed = (1.0 + delta) * mid
            ring = 1.3
            tha = float(np.angle(self.ya))
            steps = np.linspace(tha, thm, max(4, int(abs(thm - tha) / 0.3) + 2))
            path = ([self.ya, ring * cmath.exp(1j * tha)]
                    + [ring * cmath.exp(1j * t) for t in steps[1:]]
                    + [seed, mid])
        w_mid = br.continue_along(self.P, self.roots, self.anchor_value, path)
        return br.arc_cut_integral(self.integrand, th1, th2, w_mid)


def _min_weight_matching(pts):
    """Exact minimum-weight perfect matching of an even point set."""
    n = len(pts)
    if n == 0:
        return []
    if n % 2:
        raise DomainError("odd number of branch points cannot pair into cuts")
    d = [[abs(pts[i] - pts[j]) for j in range(n)] for i in range(n)]

    @lru_cache(maxsize=None)
    def best(mask):
        if mask == 0:
            return 0.0, ()
        i = (mask & -mask).bit_length() - 1
        out = (math.inf, ())
        for j in range(i + 1, n):
            if mask & (1 << j):
                sub_v, sub_p = best(mask & ~(1 << i) & ~(1 << j))
                v = d[i][j] + sub_v
                if v < out[0]:
                    out = (v, sub_p + ((i, j),))
        return out

    _, pair_idx = best((1 << n) - 1)
    best.cache_clear()
    return [(pts[i], pts[j]) for i, j in pair_idx]


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def census(spec, E):
    """Fixed poles, branch points, and paired branch cuts at energy E."""
    ws = _Workspace(spec, E)
    return SingularityCensus(
        fixed_poles=ws.poles + ("infinity",),
        branch_points=ws.branch_points,
        branch_cuts=ws.cuts,
    )


def pole_contribution(spec, E, pole):
    """(1/2pi) contour integral around one fixed pole, branch anchored."""
    ws = _Workspace(spec, E)
    match = [p for p in ws.poles if abs(p - complex(pole)) < 1e-6]
    if not match:
        raise DomainError(f"{pole} is not a fixed pole of {spec.id}")
    return ws.pole_value(match[0])


def infinity_contribution(spec, E):
    """J_GammaR, the large-circle integral."""
    return _Workspace(spec, E).infinity_value()


def decompose(spec, E):
    """Full contour decomposition at energy E, with closure residual."""
    return _decompose(_Workspace(spec, E))


def _decompose(ws):
    J_gamma = {p: ws.pole_value(p) for p in ws.poles}
    J_GammaR = ws.infinity_value()
    J_classical = J_mirror = 0.0 + 0j
    others = []
    for cut in ws.cuts:
        val = ws.cut_value(cut)
        if cut.kind == "classical":
            J_classical = val
        elif cut.kind == "mirror":
            J_mirror = val
        else:
            others.append(val)
    closure = abs(J_GammaR - sum(J_gamma.values()) - J_classical - J_mirror
                  - sum(others))
    return ContourDecomposition(
        J_gamma=J_gamma, J_GammaR=J_GammaR, J_classical_cut=J_classical,
        J_mirror_cut=J_mirror, J_other_cuts=tuple(others),
        closure_residual=float(closure),
    )


def _condition_value(spec, E):
    """Real value of J_GammaR - sum(J_gamma) at energy E."""
    ws = _Workspace(spec, E)
    total = ws.infinity_value() - sum(ws.pole_value(p) for p in ws.poles)
    if abs(total.imag) > 10.0 * max(br.QUAD_TOL, IMAG_TOL * abs(total)):
        raise ConvergenceError(
            f"contour condition is not real (imag = {total.imag})",
            residuals=[abs(total.imag)])
    return total.real


def quantize_by_contours(spec, n):
    """Solve J_GammaR(E) - sum(J_gamma(E)) = 2n*hbar for E.

    Only valid when the classical cut and its mirror are the sole branch
    cuts; entries with additional cuts are refused since their other-cut
    content makes the condition inexact (see defect_report)."""
    if n < 0:
        raise DomainError("n must be non-negative")
    if not spec.n_is_bound(n):
        raise _unbound_level(spec, n)
    cen = census(spec, probe_energy(spec, n))
    if len(cen.branch_cuts) > 2:
        raise DomainError(
            f"{spec.id} has {len(cen.branch_cuts)} branch cuts; the "
            "two-cut contour condition does not close — use defect_report "
            "to quantify the other-cut content")
    if n == 0:
        return QuantizationResult(0, 0.0, "contour", 0.0)
    hbar = spec.hbar
    cond = cache(lambda E: _condition_value(spec, E))    # as in solve_level

    def g(E):
        return cond(E) - 2.0 * n * hbar

    lo, hi = _bracket(spec, g, n)
    E = brentq(g, lo, hi, xtol=1e-12, rtol=8.9e-16)
    resid = abs(cond(E) / (2.0 * hbar) - n)
    return QuantizationResult(n, float(E), "contour", resid)


def defect_report(spec, E_exact, n):
    """J_OBC (other-branch-cut content) at a known eigenvalue, measured two
    ways.

    Directly, J_OBC is the sum of the other-cut integrals.  Indirectly it
    follows from closure, J_GammaR - sum(J_gamma) = m*J_SWKB + J_OBC, where
    m = 2 when the census finds a mirror cut (whose value equals the
    classical one) and m = 1 otherwise:

        J_obc_indirect = m*(n*hbar - J_SWKB) + pole_offset,
        pole_offset    = (J_GammaR - sum(J_gamma)) - m*n*hbar.

    pole_offset vanishes where the pole sum is quantized (eckart, nonexact1)
    and then the indirect value is the SWKB shortfall m*(n*hbar - J_SWKB).
    It does not vanish for nonexact2, which has no mirror cut: at E_1 the
    budget J_SWKB - n*hbar = pole_offset - J_OBC reads
    0.005636 = 0.010446 - 0.004810.
    """
    if E_exact <= 0.0:
        # turning points coalesce at the SUSY ground state; every term of
        # the decomposition vanishes there
        return DefectReport(spec.id, n, float(E_exact), J_swkb=0.0,
                            J_obc_direct=0.0, J_obc_indirect=0.0,
                            pole_offset=0.0, consistency_gap=0.0)
    ws = _Workspace(spec, E_exact)
    dec = _decompose(ws)
    m = 2 if any(cut.kind == "mirror" for cut in ws.cuts) else 1
    direct = complex(sum(dec.J_other_cuts)).real
    J_sw = swkb_integral(spec, E_exact)
    pole_sum = complex(dec.J_GammaR - sum(dec.J_gamma.values())).real
    pole_offset = pole_sum - m * n * spec.hbar
    indirect = m * (n * spec.hbar - J_sw) + pole_offset
    return DefectReport(
        potential_id=spec.id, n=n, E_exact=float(E_exact), J_swkb=float(J_sw),
        J_obc_direct=float(direct),
        J_obc_indirect=float(indirect),
        pole_offset=float(pole_offset),
        consistency_gap=float(abs(direct - indirect)),
    )
