"""Complex-plane decomposition of the SWKB integral.

Deforming the classical-region contour outward expresses the large-circle
integral J_GammaR as the sum of fixed-pole contributions J_gamma and
branch-cut contributions.  For entries whose only cuts are the classical one
and its mirror, if any, the identity J_GammaR - sum(J_gamma) = m*n*hbar,
m the number of these cuts, quantizes the spectrum.  Each pole term equals
the term of the exact QHJ condition at that pole (the paper's claim), which
is closed-form algebra with no root of P (qhj, spec.qhj): quantize_by_poles
(swkb) solves the pole sum over the spec's cut census, and
quantize_by_contours checks each of those levels once on the sheet below,
whose pole sum over its own m is an independent computation (residue_table
sets the two side by side).
When additional cuts carry weight (J_OBC != 0) that route fails.
The SWKB error at an exact level is then J_SWKB - n*hbar = pole_offset -
J_OBC, where pole_offset is how far the pole sum J_GammaR - sum(J_gamma)
misses its quantized value.  That offset need not vanish: for nonexact2 at
E_1 the budget reads 0.005636 = 0.010446 - 0.004810.  defect_report measures
J_OBC both directly and indirectly.

P = E*den^2 - num^2 and its roots, the branch points, belong to this module
alone (_energy_numerator).  The workspace pairs them into cuts: the
classical one between the two that x_of_y maps into the domain (under the
energy and pair checks of swkb.turning_points), the rest by minimum-weight
matching over a table of every pairing, built once per point count
(_matchings), as chords or, for the trigonometric mapping, as arcs of the
unit circle.  One rule names the mirror, and so m, for the quantization and
defect_report alike.  On the plane cut along them sqrt(P) is the
closed-form sheet of branch.Sheet, fixed by a single anchor just below the
classical cut, where sqrt(E - omega^2) is taken with positive real part;
the same factor calls give the sheet at every fixed pole.
The integrand is single-valued off the cuts, so each pole term is a
residue, J_gamma = i Res, and J_GammaR is i times the 1/y coefficient of
the integrand's Laurent series at infinity: both are algebraic, and no
circle takes a quadrature.  The cut terms are one Gauss-Chebyshev rule
with a row per cut, each on one lip of its cut (branch.cut_integrals).
What depends on the spec alone
(the fixed poles and their residue weights, the measure over den at
infinity, num^2, the symmetry flag, the QHJ pole algebra) is built once
per spec (catalog.PotentialSpec).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import polynomial as npoly

from . import branch as br
from .catalog import plane_key
from .cpoly import Polynomial, find_roots
from .errors import ConvergenceError, DomainError
from .quadrature import QUAD_TOL
from .swkb import (TAU_LEVEL, QuantizationResult, _check_energy,
                   _classical_pair, quantize_by_poles, swkb_integral)

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

def _energy_numerator(spec, E):
    """Polynomial P(y) = E*den^2 - num^2 whose roots are the branch points
    of sqrt(E - omega^2) in the mapped plane."""
    d = spec.omega_y.den.coeffs
    # (E den) den, rounded as Polynomial products round it: E (den den)
    # rounds otherwise, which moves the roots at the rounding level and can
    # swap the order in which the eigensolver returns a conjugate pair
    Ed2 = np.convolve(E * d, d)
    P = -spec.num_squared_y
    P[:len(Ed2)] += Ed2
    return Polynomial(P)


class _Workspace:
    def __init__(self, spec, E):
        self.spec = spec
        E = float(E)
        _check_energy(spec, E)
        den = spec.omega_y.den
        self.P = _energy_numerator(spec, E)
        self.branch_points = tuple(find_roots(self.P))
        self.poles = spec.fixed_poles_y
        # the classical cut joins the branch points that x_of_y maps into
        # the domain, x ascending: the turning points of the contour route
        lo, hi = spec.domain
        xs = [spec.x_of_y(b) for b in self.branch_points]
        ends = sorted((x, k) for k, x in enumerate(xs)
                      if x is not None and lo < x < hi)
        tp = _classical_pair(spec, E, [x for x, _ in ends])
        self.x1, self.x2 = tp.x1, tp.x2
        self.classical = tuple(k for _, k in ends)
        eps = 1e-3 * (tp.x2 - tp.x1)
        ya = complex(spec.y_of_x(0.5 * (tp.x1 + tp.x2) - 1j * eps))
        om_a = spec.omega_y(ya)
        s = cmath.sqrt(E - om_a * om_a)
        if s.real < 0:
            s = -s
        bps = np.asarray(self.branch_points)
        self.spread = float(max(np.abs(bps[:, None] - bps[None, :]).max(),
                                1e-30))
        self.cuts = self._pair_cuts()
        # m: the cuts that carry J_SWKB, the classical one and a mirror
        self.m = 1 + sum(cut.kind == "mirror" for cut in self.cuts)
        # the anchor fixes C; the sheet's values at the fixed poles come
        # from the same factor calls
        self.sheet, w = br.anchored(
            self.cuts, ya, s * complex(npoly.polyval(ya, den.coeffs)),
            self.poles)
        self.w_poles = dict(zip(self.poles, w))
        self.integrand = br.SqrtIntegrand(sheet=self.sheet, den=den,
                                          measure=spec.measure)

    # -- geometry ----------------------------------------------------------

    def _pair_cuts(self):
        """The classical cut, then the rest by minimum-weight matching.  The
        mirror is the only other cut where there is one; else, when omega^2
        is even in y, the pair at minus the classical ends; else none."""
        bps = self.branch_points
        c1, c2 = (bps[k] for k in self.classical)
        rest = [b for k, b in enumerate(bps) if k not in self.classical]
        pairs = [(c1, c2)] + _min_weight_matching(rest)
        kinds = ["classical"] + ["other"] * (len(pairs) - 1)
        if len(pairs) == 2:
            kinds[1] = "mirror"
        elif self.spec.is_y_symmetric():
            target = sorted((-c1, -c2), key=plane_key)
            for k, pair in enumerate(pairs[1:], 1):
                if all(abs(g - t) < 1e-6 * self.spread for g, t in
                       zip(sorted(pair, key=plane_key), target)):
                    kinds[k] = "mirror"
                    break
        if self.spec.mapping != "exp_i":
            return tuple(Cut(a, b, kind)
                         for (a, b), kind in zip(pairs, kinds))
        # arcs of the unit circle, by angle: each the arc between its two
        # angles that avoids the classical ends, whose angles ascend as
        # their x do
        ends = np.angle(pairs[0]).tolist()
        cuts = []
        for (a, b), kind in zip(pairs, kinds):
            lo, hi = sorted(np.angle([a, b]).tolist())
            if any(lo < c < hi for c in ends):
                lo, hi = hi, lo + 2.0 * math.pi
            cuts.append(Cut(lo, hi, kind, arc=True))
        return tuple(cuts)

    # -- contour values ----------------------------------------------------

    def pole_value(self, pole):
        """J_gamma = i * Res f at one fixed pole p of the spec: i w(p), taken
        with the anchor, times the pole's residue weight
        (catalog.PotentialSpec.residue_weights)."""
        weight = self.spec.residue_weights[pole]
        if weight is None:
            raise DomainError(
                f"the pole y = {complex(pole):.6g} of {self.spec.id} is a "
                "multiple pole of the integrand")
        return 1j * complex(self.w_poles[pole]) * weight

    def infinity_value(self):
        """J_GammaR, the counterclockwise circle |y| = R outside every cut
        and pole: i a_{-1}, a_{-1} the 1/y coefficient of f at infinity.

        There w = y^K W(1/y) with K cuts (branch.Sheet.at_infinity), and
        measure/den = y^-s U(1/y) (catalog.PotentialSpec.weight_at_infinity),
        so a_{-1} = [W U]_m with m = K - s + 1, and J_GammaR = 0 when
        m < 0."""
        s, U = self.spec.weight_at_infinity
        m = len(self.cuts) - s + 1
        if m < 0:
            return 0j
        return 1j * complex(np.dot(self.sheet.at_infinity(m), U[m::-1]))

    def cut_values(self):
        """The integral along each cut, on the lip to the right of
        p1 -> p2, in the order of self.cuts: one rule for all of them."""
        return br.cut_integrals(self.integrand)


MATCHING_MAX = 14     # points: (MATCHING_MAX - 1)!! = 135135 matchings


@lru_cache(maxsize=None)
def _matchings(n):
    """Every perfect matching of 0 .. n-1, one row each, as the flat
    indices i*n + j of its pairs (uint8): the pair of the lowest point
    first, its partner j ascending, the rest likewise.  (n - 1)!! rows of
    n/2: at MATCHING_MAX, 135135 rows in 0.95 MB."""
    if n == 0:
        return np.zeros((1, 0), dtype=np.uint8)
    sub = _matchings(n - 2)
    i, j = np.divmod(sub, max(n - 2, 1))
    blocks = []
    for partner in range(1, n):
        # the sub-matchings on the other points, renumbered in order
        rest = np.array([k for k in range(1, n) if k != partner],
                        dtype=np.uint8)
        head = np.full((len(sub), 1), partner, dtype=np.uint8)
        blocks.append(np.hstack([head, rest[i] * n + rest[j]]))
    table = np.vstack(blocks)
    table.setflags(write=False)
    return table


def _min_weight_matching(pts):
    """Exact minimum-weight perfect matching of an even point set of at
    most MATCHING_MAX points, as (p, q) pairs.

    The matchings come from a table built once per size (_matchings).  The
    weight of a row is the sum of its distances nested from the right, the
    pair of the lowest point outermost, and the answer is the row that a
    recursion over the lowest point's partner picks: the least weight,
    ties to the smaller partner, then the least weight of the rest, and so
    on.  The order of the ties matters where one long distance absorbs in
    rounding the difference between two matchings of the rest.  Its pairs
    are listed innermost first."""
    n = len(pts)
    if n % 2:
        raise DomainError("odd number of branch points cannot pair into cuts")
    if n <= 2:
        return [tuple(pts)] if n else []
    if n > MATCHING_MAX:
        raise DomainError(f"{n} branch points to pair into cuts exceed the "
                          f"{MATCHING_MAX} of the matching table")
    z = np.asarray(pts, dtype=complex)
    diff = z[:, None] - z[None, :]
    table = _matchings(n)
    dist = np.hypot(diff.real, diff.imag).ravel()[table]
    for k in range(n // 2 - 2, -1, -1):
        dist[:, k] += dist[:, k + 1]
    rows = np.arange(len(table))
    for k in range(n // 2):
        sums = dist[rows, k]
        rows = rows[sums == sums.min()]
        # rows run in ascending partners, so the first has the least
        rows = rows[table[rows, k] == table[rows[0], k]]
        if len(rows) == 1:
            break
    return [(pts[ij // n], pts[ij % n]) for ij in table[rows[0], ::-1]]


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
    """(1/2pi) contour integral around one fixed pole, branch anchored.

    ``pole`` names the nearest fixed pole within 1e-3 (1 + |pole|), a
    radius that holds the eps^(1/m) split of an m-fold zero of den up to
    m = 4 (find_roots)."""
    ws = _Workspace(spec, E)
    z = complex(pole)
    match = min(ws.poles, key=lambda p: abs(p - z), default=None)
    if match is None or abs(match - z) > 1e-3 * (1.0 + abs(z)):
        raise DomainError(f"{pole} is not a fixed pole of {spec.id}")
    return ws.pole_value(match)


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
    for cut, val in zip(ws.cuts, ws.cut_values()):
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


def residue_table(spec, E):
    """The paper's comparison at energy E: {location: (J_swkb, J_qhj,
    J_other)} at each fixed pole and "infinity".  J_swkb is the sheet's
    term (pole_value, infinity_value), J_qhj the closed-form QHJ term of
    spec.qhj, and J_other the term of the other root of the QHJ quadratic
    at a finite pole of omega (None elsewhere)."""
    ws = _Workspace(spec, E)
    return {loc: (ws.infinity_value() if loc == "infinity"
                  else ws.pole_value(loc), J, other)
            for loc, (J, other) in spec.qhj.terms(E).items()}


def _condition_value(spec, E):
    """The contour action at energy E: the real pole sum
    J_GammaR - sum(J_gamma) over m, the workspace's count of the cuts that
    carry J_SWKB."""
    ws = _Workspace(spec, E)
    total = ws.infinity_value() - sum(ws.pole_value(p) for p in ws.poles)
    if abs(total.imag) > 10.0 * max(QUAD_TOL, IMAG_TOL * abs(total)):
        raise ConvergenceError(
            f"contour condition is not real (imag = {total.imag})",
            residuals=[abs(total.imag)])
    return total.real / ws.m


def quantize_by_contours(spec, n):
    """Solve J_GammaR(E) - sum(J_gamma(E)) = m*n*hbar for E, with m = 2
    where the census finds a mirror cut and 1 otherwise, and check the
    level once on the SWKB sheet.

    The level is quantize_by_poles, on the closed-form QHJ pole sum.  At
    its energy one workspace takes the sheet's own pole sum over its own m
    (_condition_value), and the residual reported is |that/hbar - n|,
    gated at TAU_LEVEL like every level solve: so each contour level
    checks the paper's SWKB = QHJ claim.  A workspace whose m differed
    from the solve's would miss by at least n/2.

    Only valid when the classical cut and its mirror, if any, are the sole
    branch cuts (spec.cut_count); entries with more cuts are refused since
    their other-cut content makes the condition inexact (see defect_report)."""
    if n < 0:
        raise DomainError("n must be non-negative")
    if spec.cut_count > 2:
        raise DomainError(
            f"{spec.id} has {spec.cut_count} branch cuts; the "
            "two-cut contour condition does not close — use defect_report "
            "to quantify the other-cut content")
    E = quantize_by_poles(spec, n).energy
    if n == 0:
        return QuantizationResult(0, E, "contour", 0.0)
    resid = abs(_condition_value(spec, E) / spec.hbar - n)
    if resid > TAU_LEVEL:
        raise ConvergenceError(
            f"contour level residual {resid} exceeds {TAU_LEVEL}",
            residuals=[resid])
    return QuantizationResult(n, E, "contour", resid)


def defect_report(spec, E_exact, n):
    """J_OBC (other-branch-cut content) at a known eigenvalue, measured two
    ways.

    Directly, J_OBC is the sum of the other-cut integrals.  Indirectly it
    follows from J_SWKB (swkb_integral, on the SWKB route's own turning
    points) and closure, J_GammaR - sum(J_gamma) = m*J_SWKB + J_OBC, with
    the m of quantize_by_contours: 2 when the census finds a mirror cut
    (whose value equals the classical one) and 1 otherwise:

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
    direct = complex(sum(dec.J_other_cuts)).real
    J_sw = swkb_integral(spec, E_exact)
    pole_sum = complex(dec.J_GammaR - sum(dec.J_gamma.values())).real
    pole_offset = pole_sum - ws.m * n * spec.hbar
    indirect = ws.m * (n * spec.hbar - J_sw) + pole_offset
    return DefectReport(
        potential_id=spec.id, n=n, E_exact=float(E_exact), J_swkb=float(J_sw),
        J_obc_direct=float(direct),
        J_obc_indirect=float(indirect),
        pole_offset=float(pole_offset),
        consistency_gap=float(abs(direct - indirect)),
    )
