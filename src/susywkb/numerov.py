"""Numerov shooting oracle for H_- = -hbar^2 d^2/dx^2 + V_-(x).

Independent ground truth for the SWKB engines: eigenvalues are located by
node-count bisection on the left (regular) solution followed by root
refinement of the matching Wronskian at the outermost classical turning
point, then Richardson-extrapolated over two grid spacings.

Sweeps
------
A sweep runs both Numerov recurrences on plain Python floats, read through
memoryviews of the coefficient arrays and stored in compact double arrays.
These are the same IEEE operations in the same order as numpy-scalar
indexing, so the results are bit-identical, at a third of the cost and with
no extra memory.  On each grid one memo of sweeps, keyed by energy, serves
both node-count bisections and the Wronskian root search.  The h/2 grid
starts its bisections from the h-grid transitions: it replays the bisection
steps towards them without sweeping and resumes from the first bracket whose
node counts confirm it (see _node_transition), so it sweeps about a third
less and reaches the same eigenvalue as a bisection from scratch.

Endpoint handling
-----------------
* singular finite ends: the local Laurent behaviour of omega gives
  V ~ c2/t^2 + c1/t + c0 near the wall; integration starts one inset inside
  with the Frobenius series psi = t^s (1 + b1 t + b2 t^2).
* infinite ends: the box is grown until the WKB decay integral past the
  outer turning point is large enough, and integration starts from the
  asymptotic decay e^(-kappa x).
"""

from __future__ import annotations

import math
import warnings
from array import array
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .errors import ConvergenceError, DomainError
from .swkb import turning_points

DEFAULT_POINTS = 20001
INSET_FRACTION = 1e-3       # inset of singular walls, in units of 1/alpha
DECAY_BUDGET = 38.0         # required WKB decay integral past the box edge
OVERFLOW = 1e200


@dataclass(frozen=True)
class GridSolution:
    grid: np.ndarray
    psi: np.ndarray
    energy: float
    node_count: int
    truncation: tuple
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
    """Extend past the outer turning point until the accumulated WKB decay
    integral reaches DECAY_BUDGET."""
    h = spec.hbar
    x = x_start
    acc = 0.0
    for _ in range(200000):
        dx = 0.05 * (1.0 + abs(x))
        x += side * dx
        v = spec.v_minus(np.array([x]))[0]
        if v > E:
            acc += math.sqrt(v - E) / h * dx
            if acc >= DECAY_BUDGET:
                return x
        else:
            acc = 0.0
    raise ConvergenceError("could not find a decaying region for the box")


def _build_box(spec, E_hi):
    """Truncated integration interval and endpoint IC builders for energies
    up to E_hi."""
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
        x_min = _grow_box(spec, tp.x1, -1.0, E_box)
        ics["left"] = ("decay",)
    if math.isfinite(hi):
        x_max = hi - INSET_FRACTION / spec.alpha
        s, c1h, c0h = _laurent_end(spec, hi, -1.0)
        ics["right"] = ("series", hi, -1.0, s, c1h, c0h)
    else:
        x_max = _grow_box(spec, tp.x2, +1.0, E_box)
        ics["right"] = ("decay",)
    return x_min, x_max, ics


def _end_ic(spec, ics, which, xg, E):
    kind = ics[which]
    hbar = spec.hbar
    if which == "left":
        xa, xb = xg[0], xg[1]
    else:
        xa, xb = xg[-1], xg[-2]
    if kind[0] == "series":
        _, x0, side, s, c1h, c0h = kind
        ta, tb = side * (xa - x0), side * (xb - x0)
        return _series_ic(ta, tb, s, c1h, c0h, E, hbar)
    v_end = spec.v_minus(np.array([xa]))[0]
    kap = math.sqrt(max(v_end - E, 1e-12)) / hbar
    h = abs(xb - xa)
    return 1.0, math.exp(kap * h)


# ---------------------------------------------------------------------------
# shooting
# ---------------------------------------------------------------------------

def _recur(p0, p1, c, t_back, t_next):
    """Run the Numerov recurrence p2 = (c*p1 - t_back*p0) / t_next over the
    zipped coefficient sequences on plain floats, from the start values
    p0, p1.  Whenever |p2| passes OVERFLOW, everything computed so far is
    rescaled by 1/OVERFLOW.  Returns the solution as a float64 array in sweep
    order."""
    big = OVERFLOW
    out = array("d", (p0, p1))
    p0, p1 = out                    # plain floats, even from numpy scalars
    append = out.append
    for ci, tb, tn in zip(c, t_back, t_next):
        p2 = (ci * p1 - tb * p0) / tn
        append(p2)
        if abs(p2) > big:
            done = np.frombuffer(out)
            done *= 1.0 / big
            del done                # release the buffer so out can grow
            p1, p2 = out[-2:]
        p0, p1 = p1, p2
    return np.frombuffer(out)


def _shoot(spec, Vg, xg, ics, E):
    """One bidirectional Numerov sweep.  Returns (node count of the left
    solution, normalized matching Wronskian, pieces for assembly)."""
    hbar = spec.hbar
    N = len(xg)
    h = xg[1] - xg[0]
    f = (Vg - E) / (hbar * hbar)
    t_arr = 1.0 - h * h * f / 12.0
    t = memoryview(t_arr)           # iterating these yields plain floats
    c = memoryview(12.0 - 10.0 * t_arr)
    pL = _recur(*_end_ic(spec, ics, "left", xg, E),
                c[1:N - 1], t[:N - 2], t[2:])
    pR = _recur(*_end_ic(spec, ics, "right", xg, E),
                c[N - 2:0:-1], t[N - 1:1:-1], t[N - 3::-1])[::-1]
    cls = np.where(f < 0.0)[0]
    m = int(cls[-1]) if len(cls) else N // 2
    m = min(max(m, 2), N - 3)
    nodes = int(np.sum(np.sign(pL[1:-1]) * np.sign(pL[2:]) < 0.0))
    dL = (pL[m + 1] - pL[m - 1]) / (2.0 * h)
    dR = (pR[m + 1] - pR[m - 1]) / (2.0 * h)
    W = (dL * pR[m] - dR * pL[m]) / (abs(pL[m] * pR[m]) + 1e-300)
    return nodes, W, pL, pR, m


def _node_transition(nodes, k, E_lo, E_hi, guess=None):
    """Energy where the node count steps from <= k to > k, by bisection of
    [E_lo, E_hi] down to a relative width of 1e-9.

    A guess (the transition on a coarser grid) lets the bisection skip
    ahead.  The steps it would take towards the guess are replayed without
    sweeps until the bracket is about 1e-6*(1 + |guess|) wide; the
    bisection resumes from that bracket, or from the one 64 or 64^2 ...
    times wider, as soon as the node counts at its ends confirm that it
    holds the transition, and from [E_lo, E_hi] when none does.  A confirmed
    bracket is one the bisection from [E_lo, E_hi] passes through whenever
    the node count rises monotonically with E, so the result is the same.
    """
    path = [(E_lo, E_hi)]
    if guess is not None:
        lo, hi = E_lo, E_hi
        width = 1e-6 * (1.0 + abs(guess))
        while hi - lo > width:
            mid = 0.5 * (lo + hi)
            if mid < guess:
                lo = mid
            else:
                hi = mid
            path.append((lo, hi))
    depth = len(path) - 1
    while depth > 0:
        lo, hi = path[depth]
        if nodes(lo) <= k < nodes(hi):
            break
        depth = max(depth - 6, 0)
    lo, hi = path[depth]
    for _ in range(120 - depth):
        mid = 0.5 * (lo + hi)
        if nodes(mid) <= k:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-9 * (1.0 + abs(hi)):
            break
    return lo, hi


def _solve_on_grid(spec, xg, ics, n, E_lo, E_hi, near=None):
    """Level n on one grid.  Returns the eigenvalue and the node-count
    transitions (t_n, t_{n-1}) that bracketed it; `near`, the transitions
    from a coarser grid, warm-starts their search."""
    Vg = spec.v_minus(xg)
    sweeps = {}     # energy -> (nodes, W), shared by every search below

    def sh(E):
        if E not in sweeps:
            sweeps[E] = _shoot(spec, Vg, xg, ics, E)[:2]
        return sweeps[E]

    def nodes(E):
        return sh(E)[0]

    def Wf(E):
        return sh(E)[1]

    near_n, near_prev = near or (None, None)
    # The node-count transition t_k satisfies E_k <= t_k < E_{k+1} (a node
    # can enter the truncated grid somewhat above the eigenvalue when it
    # drifts in through the decay tail), so the n-th eigenvalue is the
    # unique zero of the matching Wronskian in (t_{n-1}, t_n].
    _, t_n = _node_transition(nodes, n, E_lo, E_hi, near_n)
    if n == 0:
        t_prev = None
        a = E_lo
    else:
        _, t_prev = _node_transition(nodes, n - 1, E_lo, E_hi, near_prev)
        a = t_prev + 1e-9 * (1.0 + abs(t_prev))
    b = t_n + 1e-9 * (1.0 + abs(t_n))
    wa, wb = Wf(a), Wf(b)
    if wa * wb > 0.0:
        # endpoints too close to a zero, or the transition estimate is off
        # by a hair: scan the interval for the sign change
        es = np.linspace(a, b, 129)
        ws = [wa] + [Wf(E) for E in es[1:-1]] + [wb]
        for i in range(len(es) - 1):
            if ws[i] * ws[i + 1] < 0.0:
                a, b, wa, wb = es[i], es[i + 1], ws[i], ws[i + 1]
                break
        else:
            raise ConvergenceError(
                f"could not bracket the matching condition for n={n}",
                residuals=[wa, wb])
    E = brentq(Wf, a, b, xtol=1e-14, rtol=8.9e-16)
    return E, (t_n, t_prev)


def _prepare(spec, n, E_hint=None):
    """Energy window and box for level n."""
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
    return E_lo, E_hi, x_min, x_max, ics


def numerov_eigenvalue(spec, n, n_points=DEFAULT_POINTS, E_hint=None):
    """Eigenvalue of the discretized H_- whose eigenfunction has exactly n
    nodes, Richardson-extrapolated over spacings h and h/2."""
    if n < 0:
        raise DomainError("n must be non-negative")
    if not spec.n_is_bound(n):
        raise DomainError(f"level n={n} is not bound for {spec.id}")
    E_lo, E_hi, x_min, x_max, ics = _prepare(spec, n, E_hint)
    results = []
    near = None
    for N in (n_points, 2 * n_points - 1):
        xg = np.linspace(x_min, x_max, N)
        E, near = _solve_on_grid(spec, xg, ics, n, E_lo, E_hi, near)
        results.append(E)
    return (16.0 * results[1] - results[0]) / 15.0


def grid_solution(spec, n, n_points=DEFAULT_POINTS, E_hint=None):
    """Converged eigenfunction on a single grid (no extrapolation)."""
    if not spec.n_is_bound(n):
        raise DomainError(f"level n={n} is not bound for {spec.id}")
    E_lo, E_hi, x_min, x_max, ics = _prepare(spec, n, E_hint)
    xg = np.linspace(x_min, x_max, n_points)
    E, _ = _solve_on_grid(spec, xg, ics, n, E_lo, E_hi)
    Vg = spec.v_minus(xg)
    _, _, pL, pR, m = _shoot(spec, Vg, xg, ics, E)
    psi = np.empty_like(xg)
    scale = pL[m] / pR[m] if pR[m] != 0.0 else 1.0
    psi[:m + 1] = pL[:m + 1]
    psi[m + 1:] = pR[m + 1:] * scale
    peak = np.abs(psi).max()
    if peak > 0.0:
        psi = psi / peak
    nodes = int(np.sum(psi[1:-1] * psi[2:] < 0.0))
    return GridSolution(grid=xg, psi=psi, energy=float(E), node_count=nodes,
                        truncation=(float(x_min), float(x_max)),
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
