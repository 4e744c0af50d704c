"""References computed without the program, and the checks built on them.

Nothing here imports susywkb.  The superpotentials and the closed-form
spectra are written from the formulas of Cooper, Khare & Sukhatme
(Phys. Rep. 251, 267, 1995) in the program's conventions (2m = 1,
H_- = -hbar^2 d^2/dx^2 + omega^2 - hbar*omega', E_0 = 0).  The real-axis
J_SWKB is integrated with scipy.integrate.quad between turning points that
this module brackets itself on a dense grid.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.optimize import brentq

SQ2 = math.sqrt(2.0)

# Tolerances of the checks (see README.md, "Checks").
TOL_CLOSED_FORM = 1e-9        # |E - E_cf| <= TOL * (1 + |E|)
TOL_J = 1e-9                  # |J_quad(E) - n*hbar|, |J_cut - J_quad|
TOL_CLOSURE = 1e-9            # decomposition closure residual
TOL_RESIDUE = 1e-9            # residue identities
TOL_ORACLE = 1e-4             # Numerov against the closed form
TOL_ORACLE_NONEXACT1 = 4e-4   # Numerov against 4n on nonexact1
TOL_GAP = 1e-6                # defect-report consistency gap
TOL_POLE_OFFSET = 1e-9


# ---------------------------------------------------------------------------
# superpotentials in the physical coordinate
# ---------------------------------------------------------------------------

def _abal(params):
    return params.get("A"), params.get("B"), params.get("alpha", 1.0)


def omega(pot_id, params, x):
    """omega(x) written from the textbook formulas."""
    x = np.asarray(x, dtype=float)
    A, B, al = _abal(params)
    if pot_id == "eckart":
        return -A / np.tanh(al * x) + B / A
    if pot_id == "scarf2":
        return A * np.tanh(al * x) + B / np.cosh(al * x)
    if pot_id == "rosenmorse2":
        return A * np.tanh(al * x) + B / A
    if pot_id == "genpt":
        return A / np.tanh(al * x) - B / np.sinh(al * x)
    if pot_id == "scarf1":
        return A * np.tan(al * x) - B / np.cos(al * x)
    if pot_id == "rosenmorse1":
        return -A / np.tan(al * x) - B / A
    if pot_id == "nonexact1":
        x2 = x * x
        return ((2.0 * x2 * x2 * x2 + 3.0 * x2 * x2 - x2 - 6.0)
                / (2.0 * x * (x2 * x2 + 3.0 * x2 + 2.0)))
    if pot_id == "nonexact2":
        num = np.polyval([1.0, 0.0, -16.0, -56.0, -108.0, -240.0, -192.0], x)
        den = np.polyval([4.0, 32.0, 120.0, 272.0, 320.0, 192.0, 0.0], x)
        return num / den
    if pot_id == "nonexact3":
        lam, mu0 = params["lam"], params["mu0"]
        c3 = 0.5 * (1.0 - lam * lam)
        c1 = mu0 * lam * lam - c3
        return c1 * x + c3 * x ** 3
    raise KeyError(pot_id)


def domain(pot_id, params):
    al = params.get("alpha", 1.0)
    if pot_id in ("scarf2", "rosenmorse2", "nonexact3"):
        return -math.inf, math.inf
    if pot_id == "scarf1":
        return -math.pi / (2.0 * al), math.pi / (2.0 * al)
    if pot_id == "rosenmorse1":
        return 0.0, math.pi / al
    return 0.0, math.inf


# ---------------------------------------------------------------------------
# closed-form spectra
# ---------------------------------------------------------------------------

def closed_form(pot_id, params, hbar, n):
    """E_n of the shape-invariant entries (None when there is none)."""
    A, B, al = _abal(params)
    a = al * hbar
    if pot_id == "eckart":
        s = A + n * a
        return A * A - s * s + (B / A) ** 2 - (B / s) ** 2
    if pot_id in ("scarf2", "genpt"):
        return A * A - (A - n * a) ** 2
    if pot_id == "rosenmorse2":
        s = A - n * a
        return A * A - s * s + (B / A) ** 2 - (B / s) ** 2
    if pot_id == "scarf1":
        return (A + n * a) ** 2 - A * A
    if pot_id == "rosenmorse1":
        s = A + n * a
        return s * s - A * A + (B / A) ** 2 - (B / s) ** 2
    if pot_id == "nonexact1":
        return 4.0 * n * hbar
    return None


def threshold(pot_id, params):
    """Top of the bound spectrum (inf for confining entries)."""
    A, B, _ = _abal(params)
    if pot_id == "eckart":
        return (B / A - A) ** 2
    if pot_id in ("scarf2", "genpt"):
        return A * A
    if pot_id == "rosenmorse2":
        return (A - B / A) ** 2
    if pot_id == "nonexact2":
        return 1.0 / 16.0
    return math.inf


# ---------------------------------------------------------------------------
# real-axis J_SWKB
# ---------------------------------------------------------------------------

def _grid(lo, hi, n=20001):
    """Dense sample of the open domain, compressed at infinite ends."""
    t = np.linspace(0.0, 1.0, n + 2)[1:-1]
    if math.isinf(lo) and math.isinf(hi):
        return np.tan(math.pi * (t - 0.5)) * 4.0
    if math.isinf(hi):
        return lo + 4.0 * t / (1.0 - t)
    return lo + (hi - lo) * t


def turning_pair(pot_id, params, E):
    """The two real roots of E - omega^2 on the domain, bracketed on a grid
    and refined by brentq; raises ValueError unless there are exactly two."""
    lo, hi = domain(pot_id, params)
    xs = _grid(lo, hi)
    with np.errstate(all="ignore"):
        f = E - omega(pot_id, params, xs) ** 2
    ok = np.isfinite(f)
    xs, f = xs[ok], f[ok]
    idx = np.nonzero(np.sign(f[:-1]) != np.sign(f[1:]))[0]
    if len(idx) != 2:
        raise ValueError(f"{pot_id} at E={E}: {len(idx)} turning points")

    def g(x):
        return E - float(omega(pot_id, params, x)) ** 2

    return tuple(brentq(g, xs[k], xs[k + 1], xtol=1e-15, rtol=1e-15,
                        maxiter=500) for k in idx)


def j_swkb(pot_id, params, E):
    """(1/pi) * integral of sqrt(E - omega^2) between the turning points."""
    x1, x2 = turning_pair(pot_id, params, E)

    def f(x):
        return math.sqrt(max(E - float(omega(pot_id, params, x)) ** 2, 0.0))

    val, _ = quad(f, x1, x2, epsabs=1e-13, epsrel=1e-13, limit=400)
    return val / math.pi


# ---------------------------------------------------------------------------
# residue values
# ---------------------------------------------------------------------------

NONEXACT1_J_GAMMA = ((0j, 1.5), (1j, -1.0), (-1j, -1.0),
                     (1j * SQ2, 1.0), (-1j * SQ2, 1.0))


def nonexact1_j_gamma_r(E):
    return 0.5 * E + 1.5


def nonexact2_pole_sum(E):
    """J_GammaR - sum J_gamma for nonexact2: 1/(2 kappa) - 2."""
    return 1.0 / (2.0 * math.sqrt(1.0 / 16.0 - E)) - 2.0


def expected_pole_offset(pot_id, E, n, hbar=1.0):
    if pot_id == "eckart":
        return 0.0
    if pot_id == "nonexact1":
        return 0.5 * E - 2.0 * n * hbar
    if pot_id == "nonexact2":
        return nonexact2_pole_sum(E) - n * hbar
    raise KeyError(pot_id)


# ---------------------------------------------------------------------------
# checks: each returns a list of failure messages (empty when it passes)
# ---------------------------------------------------------------------------

def _rel(a, b):
    return abs(a - b) / (1.0 + abs(b))


def check_level(pot_id, params, hbar, n, E):
    """A level from solve_level or quantize_by_contours."""
    E_cf = closed_form(pot_id, params, hbar, n)
    if E_cf is not None and pot_id != "nonexact1":
        if _rel(E, E_cf) > TOL_CLOSED_FORM:
            return [f"{pot_id} n={n}: E={E!r} vs closed form {E_cf!r}"]
        return []
    J = j_swkb(pot_id, params, E)
    if abs(J - n * hbar) > TOL_J:
        return [f"{pot_id} n={n}: J(E={E!r}) = {J!r}, not {n * hbar}"]
    return []


def oracle_error(pot_id, params, hbar, n, E):
    """Relative error of an oracle level against the closed form."""
    return _rel(E, closed_form(pot_id, params, hbar, n))


def check_oracle(pot_id, params, hbar, n, E):
    E_cf = closed_form(pot_id, params, hbar, n)
    if pot_id == "nonexact1":
        ok = abs(E - E_cf) <= TOL_ORACLE_NONEXACT1
    else:
        ok = abs(E - E_cf) <= TOL_ORACLE * (1.0 + abs(E))
    return [] if ok else [f"oracle {pot_id} n={n}: E={E!r} vs {E_cf!r}"]


def closure_failed(dec):
    """The kept-failure criterion of a decomposition."""
    return not (dec.closure_residual <= TOL_CLOSURE)


def check_decomposition(pot_id, params, hbar, E, dec, J_ref, level=None):
    """A decomposition whose closure passed: the classical cut against the
    quad J_SWKB and the residue identities that hold at E; level is set at
    the closed-form levels of the shape-invariant entries."""
    out = []
    if abs(complex(dec.J_classical_cut) - J_ref) > TOL_J:
        out.append(f"{pot_id} E={E!r}: classical cut {dec.J_classical_cut!r}"
                   f" vs quad J {J_ref!r}")
    pole_sum = complex(dec.J_GammaR - sum(dec.J_gamma.values()))
    if level is not None:
        want = 2.0 * level * hbar
        if abs(pole_sum - want) > TOL_RESIDUE * (1.0 + want):
            out.append(f"{pot_id} n={level}: pole sum {pole_sum!r} vs {want}")
    if pot_id == "nonexact1":
        for pole, want in NONEXACT1_J_GAMMA:
            got = [v for p, v in dec.J_gamma.items() if abs(p - pole) < 1e-9]
            if len(got) != 1 or abs(got[0] - want) > TOL_RESIDUE:
                out.append(f"nonexact1 E={E!r}: J_gamma({pole}) = {got}")
        want = nonexact1_j_gamma_r(E)
        if abs(complex(dec.J_GammaR) - want) > TOL_RESIDUE * (1.0 + want):
            out.append(f"nonexact1 E={E!r}: J_GammaR {dec.J_GammaR!r}")
    if pot_id == "nonexact2":
        want = nonexact2_pole_sum(E)
        if abs(pole_sum - want) > TOL_RESIDUE * (1.0 + abs(want)):
            out.append(f"nonexact2 E={E!r}: pole sum {pole_sum!r} vs {want}")
    return out


def check_defect(pot_id, E, n, rep, hbar=1.0):
    out = []
    if not (rep.consistency_gap <= TOL_GAP):
        out.append(f"defect {pot_id} n={n}: gap {rep.consistency_gap!r}")
    want = expected_pole_offset(pot_id, E, n, hbar)
    if abs(rep.pole_offset - want) > TOL_POLE_OFFSET:
        out.append(f"defect {pot_id} n={n}: pole_offset {rep.pole_offset!r}"
                   f" vs {want!r}")
    return out
