"""Numerov shooting oracle for H_- = -hbar^2 d^2/dx^2 + V_-(x).

Independent ground truth for the SWKB engines: eigenvalues are roots of the
matching Wronskian at the outermost classical turning point, bracketed
with node counts of the left (regular) solution, then Richardson-
extrapolated over two grid spacings.

Sweeps
------
A sweep runs both Numerov recurrences in increment form (Blatt, J. Comput.
Phys. 1, 382 (1967)), each as one banded solve.  With f = (V_- - E)/hbar^2,
t = 1 - h^2 f/12, g = h^2 f/t and y = t*psi, a step is
D_i = D_{i-1} + g_i*y_i and y_{i+1} = y_i + D_i.  E enters only through g,
at full precision.  The three-term form
t_{i+1} psi_{i+1} = (2 + 10u_i) psi_i - t_{i-1} psi_{i-1}, with
u = h^2 f/12 about 2e-9 on these grids, holds it only in the low bits of
2 + 10u: its W is noise at about 3e-11 relative of E, and its root up to
5.3e-11 off.  The (y, D) pairs are the rows of a unit lower-triangular
system with two sub-diagonals, and BLAS dtbsv solves it by
forward substitution (see _recur), on one band per grid, whose -g entries
each sweep rewrites.  OpenBLAS fuses multiply and add, so the
floats are not the ones a loop of separate IEEE operations gives; at n = 1
the extrapolated levels of the two differ by at most 2e-15 relative.  The
two recurrences meet at the matching point m: the left one runs up to m + 1
and the right one down to m - 1, N - 1 steps in all on an N-point grid,
which is all the Wronskian and the node count up to m read.  m is the last
point where V_- < E, found by one binary search on the grid's suffix
minimum of V_-; the band, the buffer of the solution and that minimum are
made once per grid (_new_band).

On each grid one safeguarded Newton loop finds the level
(_solve_on_grid).  It keeps one bracket, which starts as the energy
window [E_lo, E_hi], and each sweep moves one end of it by one rule, on
the node count up to m and the sign of W: whether the energy lies below
the level.  From a sweep with n nodes the next energy is a Newton step on
W, on the slope dW/dE that the sweep itself gives (_norm_slope), where
that lands inside the bracket; a step below a quarter of the tolerance is
taken as half a tolerance, and that sweep closes the bracket.  Elsewhere
the bracket is bisected.  The h grid starts at the reference energy
(E_hint, else the closed form) and the h/2 grid at the h-grid eigenvalue.
A hinted level takes 3 sweeps a grid, 4 on scarf1, whose closed form lies
4.6e-6 from its grid level; from nonexact3's SWKB level, 23% above its
E_1, it takes 8 on the h grid.  Without a hint the h grid takes 8-17
sweeps, 2 of them at the ends of the window.  A ground state hinted at
E_0 = 0 takes 3-14: there the tolerance is W_XTOL, below W's noise, so the
Newton steps wander in the noise until bisection closes the bracket.  W
is smooth down to about 3e-14 relative of E, and its root lies within
7.2e-14 of the root of the same recurrence run in 80-bit long double.
The search stops at a width of W_XTOL + W_RTOL*|E|, W_RTOL = 3e-13:
following W to rtol 8.9e-16 takes 0-4 more sweeps a grid and moves the
levels at n = 1 by at most 7.5e-14 relative, far below their
discretization error.  The absolute width W_XTOL = 1e-14 keeps levels
near E = 0 at their floor.

Endpoint handling
-----------------
* singular finite ends: the local Laurent behaviour of omega gives
  V ~ c2/t^2 + c1/t + c0 near the wall; integration starts one inset inside
  with the Frobenius series psi = t^s (1 + b1 t + b2 t^2).
* infinite ends: the box is grown past the outer turning point, in steps
  dx = 0.05*(1 + |x|), until the WKB decay integral is large enough, and
  integration starts from the asymptotic decay e^(-kappa x).  V_- is
  evaluated on BOX_BLOCK steps per call and the integral runs over each
  block step by step, so the edge is the one a step-by-step loop finds.
  Floating-point warnings are off for these evaluations: the last block
  reaches past the edge, where V_- can overflow.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg.blas import dtbsv

from .catalog import unbound_level
from .errors import ConvergenceError, DomainError
from .swkb import turning_points

DEFAULT_POINTS = 20001
INSET_FRACTION = 1e-3       # inset of singular walls, in units of 1/alpha
DECAY_BUDGET = 38.0         # required WKB decay integral past the box edge
BOX_BLOCK = 64              # steps of the box growth per V_- evaluation
OVERFLOW = 1e200
W_SCALE = 2.0 ** -664       # about 1/OVERFLOW, and exact
W_RTOL = 3e-13              # relative tolerance of the Wronskian root
W_XTOL = 1e-14              # and its absolute tolerance


@dataclass(frozen=True)
class GridSolution:
    grid: np.ndarray
    psi: np.ndarray
    energy: float
    node_count: int
    step: float


# ---------------------------------------------------------------------------
# endpoint analysis
# ---------------------------------------------------------------------------

def _laurent_end(spec, x0, side):
    """Fit omega ~ b_{-1}/t + b_0 + b_1 t + b_2 t^2 with t = side*(x - x0)
    and return the Frobenius data (s, c1_hat, c0_hat) of the wall."""
    ts = np.array([1.0, 2.0, 3.0, 4.0]) * INSET_FRACTION / spec.alpha
    xs = x0 + side * ts
    om = spec.omega_x(xs)
    M = np.column_stack([1.0 / ts, np.ones_like(ts), ts, ts * ts])
    bm1, b0, b1, _ = np.linalg.solve(M, om)
    h = spec.hbar
    c2 = bm1 * (bm1 + h * side)
    c1 = 2.0 * bm1 * b0
    c0 = b0 * b0 + 2.0 * bm1 * b1 - h * side * b1
    disc = 1.0 + 4.0 * c2 / (h * h)
    if disc < 0.0:
        raise DomainError("wall too attractive for a regular Frobenius start")
    s = 0.5 * (1.0 + math.sqrt(disc))
    return s, c1 / (h * h), c0 / (h * h)


def _series_ic(t0, t1, s, c1h, c0h, E, hbar):
    b1 = c1h / (2.0 * s)
    b2 = (c1h * b1 + c0h - E / (hbar * hbar)) / (4.0 * s + 2.0)

    def f(t):
        return t ** s * (1.0 + b1 * t + b2 * t * t)

    return f(t0), f(t1)


def _grow_box(spec, x_start, side, E):
    """Extend past the outer turning point, in steps dx = 0.05*(1 + |x|),
    until the accumulated WKB decay integral reaches DECAY_BUDGET.  V_- is
    evaluated on BOX_BLOCK steps at a time; the integral runs step by step
    over each block and starts again wherever V_- <= E or is NaN."""
    h = spec.hbar
    x = x_start
    acc = 0.0
    for _ in range(200000 // BOX_BLOCK):
        xs, dxs = [], []
        for _ in range(BOX_BLOCK):
            dx = 0.05 * (1.0 + abs(x))
            x += side * dx
            xs.append(x)
            dxs.append(dx)
        # the block may reach far past the edge, where V_- can overflow
        with np.errstate(all="ignore"):
            vs = spec.v_minus(np.array(xs)).tolist()
        for xk, dx, v in zip(xs, dxs, vs):
            if v > E:
                acc += math.sqrt(v - E) / h * dx
                if acc >= DECAY_BUDGET:
                    return xk
            else:
                acc = 0.0
    raise ConvergenceError("could not find a decaying region for the box")


def _build_box(spec, E_hi):
    """Truncated integration interval and endpoint IC builders for energies
    up to E_hi, the box grown from the turning points to 12 decimals."""
    lo, hi = spec.domain
    E_box = E_hi
    if math.isfinite(spec.threshold):
        E_box = min(E_box, spec.threshold * (1.0 - 1e-9))
    tp = turning_points(spec, max(E_box, 1e-8 * max(1.0, abs(E_box))))
    ics = {}
    if math.isfinite(lo):
        x_min = lo + INSET_FRACTION / spec.alpha
        s, c1h, c0h = _laurent_end(spec, lo, +1.0)
        ics["left"] = ("series", lo, +1.0, s, c1h, c0h)
    else:
        x_min = _grow_box(spec, round(tp.x1, 12), -1.0, E_box)
        ics["left"] = ("decay",)
    if math.isfinite(hi):
        x_max = hi - INSET_FRACTION / spec.alpha
        s, c1h, c0h = _laurent_end(spec, hi, -1.0)
        ics["right"] = ("series", hi, -1.0, s, c1h, c0h)
    else:
        x_max = _grow_box(spec, round(tp.x2, 12), +1.0, E_box)
        ics["right"] = ("decay",)
    return x_min, x_max, ics


def _end_ic(spec, ics, which, xg, Vg, E):
    kind = ics[which]
    hbar = spec.hbar
    if which == "left":
        xa, xb, v_end = xg[0], xg[1], Vg[0]
    else:
        xa, xb, v_end = xg[-1], xg[-2], Vg[-1]
    if kind[0] == "series":
        _, x0, side, s, c1h, c0h = kind
        ta, tb = side * (xa - x0), side * (xb - x0)
        return _series_ic(ta, tb, s, c1h, c0h, E, hbar)
    kap = math.sqrt(max(v_end - E, 1e-12)) / hbar
    h = abs(xb - xa)
    return 1.0, math.exp(kap * h)


# ---------------------------------------------------------------------------
# shooting
# ---------------------------------------------------------------------------

def _new_band(N, Vg):
    """What the sweeps on an N-point grid share: the band of _recur for
    either half of a sweep, whose 2L + 1 columns it holds (L <= N - 3), -1
    in every entry, of which _recur overwrites the -a_k = -g_i of each
    solve; beside it the buffer of _recur's solution p; and the suffix
    minimum of V_- on the grid, floor[i] = min(Vg[i:]), on which _shoot
    finds the matching point."""
    return (np.full((3, 2 * N), -1.0, order="F"), np.empty(2 * N),
            _suffix_min(Vg))


def _suffix_min(Vg):
    # fmin skips NaN, which u < 0 never counted as classical
    return np.fmin.accumulate(Vg[::-1])[::-1].copy()


def _recur(y0, y1, ng, work):
    """Run Numerov in increment form over -g = -h^2 f / t at steps 1..L,
    from y_0 and y_1, where y = t*psi: D_i = D_{i-1} + g_i*y_i and
    y_{i+1} = y_i + D_i, with D_0 = y_1 - y_0.  The values
    p = [y_0, D_0, y_1, D_1, ..., D_L, y_{L+1}] satisfy
    p[k] = a_k*p[k - 1] + p[k - 2], with a_k = g_i on the row of D_i and 1
    on the rows of y: a unit lower-triangular system with two
    sub-diagonals, solved by forward substitution in one BLAS call on the
    first 2L + 1 columns of the grid's one band (work, from _new_band):
    only its -g entries depend on E, and they are written here.  p is
    solved in the buffer beside the band.  Where |p| first passes
    OVERFLOW, everything up to it is rescaled by 1/OVERFLOW and the rest
    is solved again from the rescaled pair that ends there.  Returns
    y_0, ..., y_{L+1}, a view of that buffer, which the next call
    overwrites."""
    band, p = work[:2]
    L = len(ng)
    # column j holds the coefficients of p[j + 2] in the rows of p[j + 3]
    # and p[j + 4], -a_{j+3} and -1; the unit diagonal is never read
    band = band[:, :2 * L + 1]
    band[1, :-1:2] = ng
    p = p[:2 * L + 3]
    p[0], p[1], p[2] = y0, y1 - y0, y1
    p[5:] = 0.0
    s = 1                           # p[s], p[s + 1] start the solve
    while s <= 2 * L:
        rest = p[s + 2:]
        rest[0] = p[s] - band[1, s - 1] * p[s + 1]
        if s < 2 * L:
            rest[1] = p[s + 1]
        dtbsv(2, band[:, s:], rest, lower=1, diag=1, overwrite_x=1)
        if max(rest.max(), -rest.min()) <= OVERFLOW:
            break
        over = np.abs(rest) > OVERFLOW
        if not over.any():          # NaN, which no rescale mends
            break
        i = s + 2 + int(over.argmax())
        p[:i + 1] *= 1.0 / OVERFLOW
        p[i + 1:] = 0.0
        s = i - 1
    return p[::2]


def _shoot(spec, Vg, xg, ics, E, work=None):
    """One bidirectional Numerov sweep that meets at the matching point m,
    the last point where V_- < E: the left solution runs up to m + 1 and
    the right one down to m - 1.  work is the grid's _new_band, made here
    when None.  Returns (node count of the left solution up to m,
    normalized matching Wronskian, pL[:m + 2], pR[m - 1:], m)."""
    hbar = spec.hbar
    N = len(xg)
    if work is None:
        work = _new_band(N, Vg)
    floor = work[2]
    h = float(xg[1] - xg[0])
    # u = h^2 f / 12 with f = (V_- - E)/hbar^2, t = 1 - u and
    # -g = -h^2 f / t = -12 u / t
    u = Vg - E
    u *= h * h / (12.0 * hbar * hbar)
    m = int(np.searchsorted(floor, E)) - 1
    m = min(max(m if m >= 0 else N // 2, 2), N - 3)
    t = 1.0 - u
    ng = u
    ng *= -12.0
    ng /= t
    l0, l1 = _end_ic(spec, ics, "left", xg, Vg, E)
    r0, r1 = _end_ic(spec, ics, "right", xg, Vg, E)
    # the left solution is read before the right one overwrites the buffer
    pL = _recur(t[0] * l0, t[1] * l1, ng[1:m + 1], work) / t[:m + 2]
    pR = (_recur(t[N - 1] * r0, t[N - 2] * r1, ng[N - 2:m - 1:-1], work)
          / t[N - 1:m - 2:-1])[::-1]
    pl, pr = pL[m - 1:].tolist(), pR[:3].tolist()
    if abs(pl[1] * pr[1]) > OVERFLOW:
        # both halves end near OVERFLOW, and the products below could
        # overflow: scaling one half by a power of two keeps them finite
        # and leaves every bit of W as it is
        pl = [p * W_SCALE for p in pl]
    dL = (pl[2] - pl[0]) / (2.0 * h)
    dR = (pr[2] - pr[0]) / (2.0 * h)
    W = (dL * pr[1] - dR * pl[1]) / (abs(pl[1] * pr[1]) + 1e-300)
    nodes = np.count_nonzero(np.sign(pL[1:m]) * np.sign(pL[2:m + 1]) < 0.0)
    return int(nodes), W, pL, pR, m


def _norm_slope(spec, Vg, xg, ics, E, pL, pR, m):
    """dW/dE of the sweep at E that returned pL, pR and m, from its own
    values (Cooley, Math. Comp. 15, 363 (1961)).

    At m, W = sgn*(pL'/pL - pR'/pR) with sgn = sign(pL(m) pR(m)) and
    central differences for the derivatives.  The recurrence of _recur
    keeps a discrete Green identity: C_i = y_i z_{i+1} - y_{i+1} z_i, with
    z = dy/dE, changes by (dg_i/dE) y_i^2 = -(h^2/hbar^2) psi_i^2 a step.
    Summed from each end up to m, that gives
    dW/dE = -sgn*(h/hbar^2)*(1 + S_L + S_R)*(1/t_{m-1} + 1/t_{m+1})/(2 t_m),
    with S_L = sum_{0<i<m} pL_i^2/pL(m)^2 and S_R the same over m < i < N - 1
    of pR: the matching point is counted once, and the t factors matter
    only next to a singular wall, where t differs from 1 by up to 1e-3.
    The start's own dependence on E, C_0, adds to each sum: at a wall the
    series psi = d^s(1 + ...) has d(ln psi)/dE = -d^2/(hbar^2 (4s + 2)),
    so C_0 adds psi_0 psi_1 (d_0 + d_1)/((4s + 2) h), the part of the
    norm between the wall and the grid (up to 3e-6 of the sum, scarf1); a
    decaying end adds about e^-76 of it, left out.  Each half is scaled by
    its largest |p| before it is squared, so the sums overflow nowhere; a
    slope that does overflow comes back infinite, and NaN where p is 0 at
    m."""
    hbar = spec.hbar
    h = float(xg[1] - xg[0])
    pl, pr = float(pL[m]), float(pR[1])
    if pl == 0.0 or pr == 0.0:
        return math.nan
    total = 1.0
    # pR[:1:-1] runs from i = N - 1 down to m + 1.  einsum, not np.dot: a
    # BLAS ddot this long wakes OpenBLAS's threads, which doubled the CPU
    # time of a level (and np.dot on a reversed view took about 6 ms)
    for p, pm, end, xs in ((pL[:m], pl, ics["left"], xg[:2]),
                           (pR[:1:-1], pr, ics["right"], xg[:-3:-1])):
        top = max(float(p[1:].max()), -float(p[1:].min()))
        if top > 0.0:
            q = p[1:] * (1.0 / top)
            total += (float(np.einsum("i,i->", q, q))
                      * ((top / pm) * (top / pm)))
        if end[0] == "series":
            _, x0, side, s = end[:4]
            d = sum(side * (x - x0) for x in xs.tolist())
            total += ((float(p[0]) / pm) * (float(p[1]) / pm)
                      * d / ((4.0 * s + 2.0) * h))
    tn, tm, tp = (1.0 - (Vg[m - 1:m + 2] - E)
                  * (h * h / (12.0 * hbar * hbar))).tolist()
    total *= (1.0 / tn + 1.0 / tp) / (2.0 * tm)
    return math.copysign(h / (hbar * hbar) * total, -pl * pr)


def _solve_on_grid(spec, xg, Vg, ics, n, E_lo, E_hi, hint):
    """Level n on the grid xg, where V_- takes the values Vg: the root of
    the matching Wronskian W, by Newton steps kept inside one bracket
    (rtsafe; Press et al., Numerical Recipes, 2nd ed., sec. 9.4).

    The bracket [a, b] starts as the window [E_lo, E_hi], and each sweep
    moves one end of it to its energy by one rule: E lies below E_n
    exactly when the left solution has fewer than n nodes up to the
    matching point m, or n nodes and (-1)^n W > 0.  That count never
    falls as E rises (Sturm), and with n nodes sign pL(m) = (-1)^n and
    sign pR(m) = +, so (-1)^n W = pL'/pL - pR'/pR, which falls through 0 at
    E_n.  From a sweep with n nodes the next energy is a Newton step
    -W/(dW/dE), on the slope of that same sweep (_norm_slope), where it
    lands strictly inside (a, b); a step below a quarter of
    tol = W_XTOL + W_RTOL*|E| is taken as half a tol, and that sweep
    closes the bracket.  Where no step lands inside, the bracket is
    bisected, once each end of the window is swept: a window whose ends
    do not straddle E_n raises.  The search starts at hint, which is
    dropped unless its sweep has n nodes, and stops once both ends have n
    nodes and b - a <= tol, at the end with the smaller |W|, where brentq
    stops on such a bracket."""
    work = _new_band(len(xg), Vg)
    sign = (-1) ** n
    a, b = E_lo, E_hi
    at_a = at_b = None              # (nodes, W) of the sweeps at a and b
    if hint is not None and not E_lo < hint < E_hi:
        hint = None
    E = hint
    while True:
        if E is None:
            if at_a is None:
                E = a
            elif at_b is None:
                E = b
            else:
                E = 0.5 * (a + b)
                if E in (a, b):
                    raise ConvergenceError(f"node counts never reach n={n} "
                                           f"near the level, in [{a}, {b}]")
        nodes, W, pL, pR, m = _shoot(spec, Vg, xg, ics, E, work)
        if nodes != n and E == hint:
            # the search runs as it would without the hint
            del pL, pR
            E = hint = None
            continue
        # an end of the window on the wrong side of E_n is no bracket
        if nodes < n or (nodes == n and sign * W > 0.0):
            if at_b is None and E == b:
                break
            a, at_a = E, (nodes, W)
        else:
            if at_a is None and E == a:
                break
            b, at_b = E, (nodes, W)
        tol = W_XTOL + W_RTOL * abs(E)
        if at_a and at_b and at_a[0] == at_b[0] == n and b - a <= tol:
            return a if abs(at_a[1]) < abs(at_b[1]) else b
        step = math.nan
        if nodes == n:
            step = -W / _norm_slope(spec, Vg, xg, ics, E, pL, pR, m)
            if abs(step) < 0.25 * tol:
                step = math.copysign(0.5 * tol, step)
        # freed before the next sweep allocates its own, which can then
        # reuse their memory
        del pL, pR
        E = E + step if a < E + step < b else None
    raise ConvergenceError(f"no bracket of level n={n} in [{E_lo}, {E_hi}]")


def _prepare(spec, n, E_hint=None):
    """Energy window, reference energy (or None) and box for level n."""
    ref = None
    if E_hint is not None:
        ref = E_hint
        E_hi = E_hint + 0.25 * (1.0 + abs(E_hint))
    elif spec.spectrum is not None and spec.n_is_bound(n):
        ref = spec.spectrum(n)
        E_hi = ref + 0.25 * (1.0 + abs(ref))
    elif math.isfinite(spec.threshold):
        E_hi = spec.threshold
    else:
        E_hi = 10.0
        while True:
            x_min, x_max, ics = _build_box(spec, E_hi)
            xg = np.linspace(x_min, x_max, 4001)
            Vg = spec.v_minus(xg)
            if _shoot(spec, Vg, xg, ics, E_hi)[0] > n:
                break
            E_hi *= 2.0
            if E_hi > 2.0 ** 40:
                raise ConvergenceError("failed to bracket level from above")
    if math.isfinite(spec.threshold):
        # Keep a genuine margin below the continuum threshold: at E == thr
        # the WKB decay rate vanishes and the truncation box diverges.
        thr = spec.threshold
        margin = 0.02 * abs(thr)
        if ref is not None and ref < thr:
            margin = min(margin, 0.25 * (thr - ref))
        E_hi = min(E_hi, thr - margin)
    E_lo = -0.05 * max(abs(E_hi), 1.0)
    x_min, x_max, ics = _build_box(spec, E_hi)
    return E_lo, E_hi, ref, x_min, x_max, ics


def numerov_eigenvalue(spec, n, n_points=DEFAULT_POINTS, E_hint=None):
    """Eigenvalue of the discretized H_- whose eigenfunction has exactly n
    nodes, Richardson-extrapolated over spacings h and h/2."""
    if n < 0:
        raise DomainError("n must be non-negative")
    if not spec.n_is_bound(n):
        raise unbound_level(spec, n)
    E_lo, E_hi, hint, x_min, x_max, ics = _prepare(spec, n, E_hint)
    # linspace halves the step exactly, so the even points of the h/2 grid
    # are the h grid bit for bit, and V_- is evaluated once
    xg = np.linspace(x_min, x_max, 2 * n_points - 1)
    Vg = spec.v_minus(xg)
    results = []
    for step in (2, 1):
        hint = _solve_on_grid(spec, xg[::step], Vg[::step], ics, n, E_lo,
                              E_hi, hint)
        results.append(hint)
    return (16.0 * results[1] - results[0]) / 15.0


def grid_solution(spec, n, n_points=DEFAULT_POINTS, E_hint=None):
    """Converged eigenfunction on a single grid (no extrapolation)."""
    if n < 0:
        raise DomainError("n must be non-negative")
    if not spec.n_is_bound(n):
        raise unbound_level(spec, n)
    E_lo, E_hi, ref, x_min, x_max, ics = _prepare(spec, n, E_hint)
    xg = np.linspace(x_min, x_max, n_points)
    Vg = spec.v_minus(xg)
    E = _solve_on_grid(spec, xg, Vg, ics, n, E_lo, E_hi, ref)
    _, _, pL, pR, m = _shoot(spec, Vg, xg, ics, E)
    psi = np.empty_like(xg)
    scale = pL[m] / pR[1] if pR[1] != 0.0 else 1.0     # pR[1] is at m
    psi[:m + 1] = pL[:m + 1]
    psi[m + 1:] = pR[2:] * scale
    peak = np.abs(psi).max()
    if peak > 0.0:
        psi = psi / peak
    nodes = int(np.sum(psi[1:-1] * psi[2:] < 0.0))
    return GridSolution(grid=xg, psi=psi, energy=float(E), node_count=nodes,
                        step=float(xg[1] - xg[0]))


# ---------------------------------------------------------------------------
# diagnostics on a converged solution
# ---------------------------------------------------------------------------

def quantum_action(solution, spec, E):
    """hbar times the number of wavefunction nodes strictly between the
    classical turning points; the exact quantum action of level n."""
    if E <= 0.0:
        return 0.0
    tp = turning_points(spec, E)
    x, psi = solution.grid, solution.psi
    inside = (x > tp.x1) & (x < tp.x2)
    idx = np.where(inside)[0]
    seg = psi[idx]
    sign_changes = np.where(seg[:-1] * seg[1:] < 0.0)[0]
    delta = 2.0 * solution.step
    for k in sign_changes:
        xn = x[idx[k]]
        if min(abs(xn - tp.x1), abs(xn - tp.x2)) < delta:
            warnings.warn("node within resolution distance of a turning "
                          "point; classification ambiguous")
    return spec.hbar * float(len(sign_changes))


def qhj_residual(solution, spec, E):
    """Max residual of p^2 + (hbar/i) p' = E - V_- with p = (hbar/i) psi'/psi
    from centred differences, excluding neighbourhoods of the nodes."""
    x, psi = solution.grid, solution.psi
    h = solution.step
    hbar = spec.hbar
    V = spec.v_minus(x)
    q = np.zeros_like(psi)
    core = slice(1, -1)
    dpsi = (psi[2:] - psi[:-2]) / (2.0 * h)
    q[core] = dpsi / np.where(psi[core] != 0.0, psi[core], 1.0)
    dq = np.zeros_like(psi)
    dq[2:-2] = (q[3:-1] - q[1:-3]) / (2.0 * h)
    resid = np.abs(-hbar * hbar * (q * q + dq) - (E - V))
    # Exclusion zones must have grid-independent physical width, otherwise
    # refining the grid pulls evaluation points closer to the nodes and the
    # end walls, where the centred-difference error of q' blows up like
    # 1/d^4, and the residual would not shrink under refinement.
    w = 0.005 * (x[-1] - x[0])
    mask = (x > x[0] + w) & (x < x[-1] - w)
    mask[:10] = False
    mask[-10:] = False
    peak = np.abs(psi).max()
    mask &= np.abs(psi) > 0.05 * peak
    nodes = np.where(psi[:-1] * psi[1:] < 0.0)[0]
    for k in nodes:
        mask &= np.abs(x - x[k]) > w
    if not mask.any():
        raise ConvergenceError("no safe evaluation points for the residual")
    return float(resid[mask].max())


def dump_wavefunction(solution, path):
    """CSV dump (x, psi) for external plotting."""
    with open(path, "w") as fh:
        fh.write("x,psi\n")
        for xv, pv in zip(solution.grid, solution.psi):
            fh.write(f"{xv:.12g},{pv:.12g}\n")
