"""Numerov oracle: eigenvalues, node counts, quantum action, QHJ residual."""

import gc
import math
import warnings
import weakref
from collections import Counter

import numpy as np
import pytest

import susywkb as sw
from susywkb import ConvergenceError, DomainError, numerov
from susywkb.numerov import OVERFLOW, W_RTOL, W_XTOL, grid_solution
from susywkb.swkb import turning_points

from conftest import drawn_spec, numerov_of, spec_of


def test_eckart_ground_state_is_zero():
    assert abs(numerov_of("eckart", 0)) <= 1e-4


def test_eckart_first_level():
    assert numerov_of("eckart", 1) == pytest.approx(189.0, abs=1e-4 * 190.0)


def test_scarf2_levels():
    spec = spec_of("scarf2")
    for n in (1, 2):
        En = spec.spectrum(n)
        assert numerov_of("scarf2", n) == pytest.approx(
            En, abs=1e-4 * (1 + abs(En)))


def test_nonexact1_linear_spectrum():
    for n in (0, 1, 2):
        assert numerov_of("nonexact1", n) == pytest.approx(4.0 * n, abs=1e-4)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_nonexact1_closed_form_at_drawn_hbar(seed):
    # omega scales with hbar, omega(x) = sqrt(hbar) omega_1(x/sqrt(hbar)),
    # so E_n = 4 n hbar at every hbar: the oracle reads it within 1.6e-10
    # relative on these draws (hbar = 1.0024, 0.9534, 0.9205), where an
    # omega fixed at its hbar = 1 coefficients is 2.6e-5 to 9.3e-4 away
    spec = drawn_spec("nonexact1", seed)
    for n in (1, 2):
        E = sw.closed_form_energy(spec, n)
        assert sw.numerov_eigenvalue(spec, n, E_hint=E) == pytest.approx(
            E, rel=1e-9)


def test_eigenvalues_increase_with_node_count():
    vals = [numerov_of("rosenmorse2", n) for n in (0, 1, 2)]
    assert vals[0] < vals[1] < vals[2]


def test_unbound_level_rejected():
    with pytest.raises(DomainError):
        sw.numerov_eigenvalue(spec_of("eckart"), 7)


def grid_of(pot_id, n, factor=1):
    spec = spec_of(pot_id)
    hint = spec.spectrum(n) if spec.spectrum else None
    pts = factor * 20000 + 1
    return grid_solution(spec, n, n_points=pts, E_hint=hint)


def test_node_count_matches_level():
    sol = grid_of("eckart", 1)
    assert sol.node_count == 1
    sol2 = grid_of("scarf2", 2)
    assert sol2.node_count == 2


def test_nodes_lie_between_turning_points():
    spec = spec_of("eckart")
    sol = grid_of("eckart", 2)
    tp = turning_points(spec, sol.energy)
    x, psi = sol.grid, sol.psi
    node_x = x[np.where(psi[:-1] * psi[1:] < 0.0)[0]]
    assert np.all(node_x > tp.x1) and np.all(node_x < tp.x2)


def test_quantum_action_counts_nodes():
    spec = spec_of("eckart")
    sol = grid_of("eckart", 2)
    assert sw.quantum_action(sol, spec, sol.energy) == pytest.approx(2.0)
    sol0 = grid_of("eckart", 0)
    assert sw.quantum_action(sol0, spec, sol0.energy) == 0.0


def test_qhj_residual_shrinks_under_refinement():
    spec = spec_of("scarf2")
    s1 = grid_of("scarf2", 1, factor=1)
    s2 = grid_of("scarf2", 1, factor=2)
    r1 = sw.qhj_residual(s1, spec, s1.energy)
    r2 = sw.qhj_residual(s2, spec, s2.energy)
    assert r1 / r2 >= 3.0


def test_qhj_residual_is_small_for_converged_state():
    spec = spec_of("eckart")
    sol = grid_of("eckart", 1)
    assert sw.qhj_residual(sol, spec, sol.energy) <= 1e-4 * (1 + sol.energy)


def test_dump_wavefunction(tmp_path):
    sol = grid_of("eckart", 0)
    path = tmp_path / "wf.csv"
    sw.dump_wavefunction(sol, str(path))
    lines = path.read_text().splitlines()
    assert lines[0] == "x,psi"
    assert len(lines) == len(sol.grid) + 1


def _numpy_shoot(spec, Vg, xg, ics, E):
    """The sweep as a loop over numpy scalars, kept as a reference for the
    banded-solve sweep: Numerov in increment form with y = t psi,
    D_i = D_{i-1} + g_i y_i and y_{i+1} = y_i + D_i, the left solution up
    to m + 1 and the right one down to m - 1.  Returns (nodes up to m, W,
    pL, pR, m) and the number of OVERFLOW rescales."""
    rescales = 0
    hbar = spec.hbar
    N = len(xg)
    h = xg[1] - xg[0]
    u = (Vg - E) * (h * h / (12.0 * hbar * hbar))
    t = 1.0 - u
    g = 12.0 * u / t
    cls = np.where(u < 0.0)[0]
    m = int(cls[-1]) if len(cls) else N // 2
    m = min(max(m, 2), N - 3)

    def run(idx, psi0, psi1):
        nonlocal rescales
        y = np.zeros(len(idx))
        y[0], y[1] = t[idx[0]] * psi0, t[idx[1]] * psi1
        D = y[1] - y[0]
        for k in range(1, len(idx) - 1):
            D = D + g[idx[k]] * y[k]
            if abs(D) > OVERFLOW:
                y[:k + 1] *= 1.0 / OVERFLOW
                D *= 1.0 / OVERFLOW
                rescales += 1
            y[k + 1] = y[k] + D
            if abs(y[k + 1]) > OVERFLOW:
                y[:k + 2] *= 1.0 / OVERFLOW
                D *= 1.0 / OVERFLOW
                rescales += 1
        return y / t[idx]

    pL = run(np.arange(m + 2),
             *numerov._end_ic(spec, ics, "left", xg, Vg, E))
    pR = run(np.arange(N - 1, m - 2, -1),
             *numerov._end_ic(spec, ics, "right", xg, Vg, E))[::-1]
    # signs, not products: a product of two rescaled values can underflow
    changes = np.sign(pL[1:m]) * np.sign(pL[2:m + 1]) < 0.0
    inner = int(np.sum(changes))
    dL = (pL[m + 1] - pL[m - 1]) / (2.0 * h)
    dR = (pR[2] - pR[0]) / (2.0 * h)
    W = (dL * pR[1] - dR * pL[m]) / (abs(pL[m] * pR[1]) + 1e-300)
    return (inner, W, pL, pR, m), rescales


def _level_grid(pot_id, n_points):
    spec = spec_of(pot_id)
    hint = spec.spectrum(1) if spec.spectrum else None
    E_lo, E_hi, _, x_min, x_max, ics = numerov._prepare(spec, 1, hint)
    xg = np.linspace(x_min, x_max, n_points)
    return spec, xg, spec.v_minus(xg), ics, E_lo, E_hi


# eckart has decaying ends, scarf1 Frobenius walls; at the negative
# energies the sweeps up to the matching point overflow and rescale twice
SWEEP_CASES = [("eckart", 189.0), ("eckart", -3e3), ("scarf1", 3.0),
               ("scarf1", -1e5)]


@pytest.fixture
def banded_solves(monkeypatch):
    """Counts of the BLAS banded solves: one per recurrence, and one more
    after each OVERFLOW rescale."""
    calls = Counter()
    solve = numerov.dtbsv

    def counted(*args, **kwargs):
        calls["dtbsv"] += 1
        return solve(*args, **kwargs)

    monkeypatch.setattr(numerov, "dtbsv", counted)
    return calls


@pytest.mark.parametrize("pot_id, E", SWEEP_CASES)
def test_shoot_equals_numpy_sweep(pot_id, E, banded_solves):
    spec, xg, Vg, ics, _, _ = _level_grid(pot_id, 20001)
    inner, W, pL, pR, m = numerov._shoot(spec, Vg, xg, ics, E)
    (inner0, W0, pL0, pR0, m0), rescales = _numpy_shoot(spec, Vg, xg, ics, E)
    if E < 0.0:
        assert rescales >= 2
    if E > 0.0:
        assert inner == 1
    assert (inner, m) == (inner0, m0)
    assert banded_solves["dtbsv"] - 2 == rescales
    # the BLAS kernel fuses multiply and add, so the floats differ from the
    # loop's at the rounding level: up to 1.3e-14 of max|p| (eckart,
    # E = -3e3, and scarf1, E = -1e5)
    for p, p0 in ((pL, pL0), (pR, pR0)):
        assert len(p) == len(p0)
        assert np.abs(p - p0).max() <= 1e-13 * np.abs(p0).max()


def test_sweeps_are_deterministic():
    spec, xg, Vg, ics, _, _ = _level_grid("nonexact2", 20001)
    # -1e3 rescales in both halves, 0.03 in none
    for E in (-1e3, 0.03):
        first = numerov._shoot(spec, Vg, xg, ics, E)
        again = numerov._shoot(spec, Vg.copy(), xg.copy(), ics, E)
        assert first[:2] == again[:2] and first[4] == again[4]
        assert np.array_equal(first[2], again[2])
        assert np.array_equal(first[3], again[3])


def test_one_band_serves_every_sweep_of_a_grid():
    # the matching point moves with E (m = 6522, 10000, 31, 220 and 125
    # here, and -1e3 rescales), so each sweep writes a different stretch
    # of the band; what earlier sweeps left must not be read
    spec, xg, Vg, ics, E_lo, E_hi = _level_grid("nonexact2", 20001)
    band = numerov._new_band(len(xg), Vg)
    for E in (E_hi, -1e3, E_lo, 0.5 * E_hi, 0.2 * E_hi):
        kept = numerov._shoot(spec, Vg, xg, ics, E, band)
        fresh = numerov._shoot(spec, Vg, xg, ics, E)
        assert kept[:2] == fresh[:2] and kept[4] == fresh[4]
        assert np.array_equal(kept[2], fresh[2])
        assert np.array_equal(kept[3], fresh[3])


# eckart at E = 60 on 2001 points has a node between m and m + 1, which the
# count up to m leaves out; nonexact2 is counted across its whole window
@pytest.mark.parametrize("pot_id, points", [("eckart", 2001),
                                            ("nonexact2", 20001)])
def test_node_count_equals_the_loop_count(pot_id, points):
    spec, xg, Vg, ics, E_lo, E_hi = _level_grid(pot_id, points)
    for E in [60.0] if pot_id == "eckart" else np.linspace(E_lo, E_hi, 7):
        nodes, _, pL, _, m = numerov._shoot(spec, Vg, xg, ics, E)
        (nodes0, *_, m0), _ = _numpy_shoot(spec, Vg, xg, ics, E)
        assert (nodes, m) == (nodes0, m0)
    if pot_id == "eckart":
        assert pL[m] * pL[m + 1] < 0.0


def test_wronskian_stays_finite_when_both_halves_overflow():
    spec, xg, Vg, ics, _, _ = _level_grid("nonexact2", 20001)
    h = xg[1] - xg[0]
    # pL[m]*pR[m] passes OVERFLOW at both energies, and overflows at -1e3
    for E, overflows in ((-1e3, True), (-900.0, False)):
        _, W, pL, pR, m = numerov._shoot(spec, Vg, xg, ics, E)
        pl, pr = pL[m - 1:].tolist(), pR[:3].tolist()
        assert abs(pl[1] * pr[1]) > OVERFLOW
        assert np.isfinite(pl[1] * pr[1]) != overflows
        dL = (pl[2] - pl[0]) / (2.0 * h)
        dR = (pr[2] - pr[0]) / (2.0 * h)
        # the same W with each half normalized by its own value at m
        ref = dL / abs(pl[1]) * np.sign(pr[1]) - dR / abs(pr[1]) * np.sign(pl[1])
        assert np.isfinite(W) and W == pytest.approx(ref, rel=1e-12)
        if not overflows:
            # the guard scales by a power of two: the unscaled bits
            assert W == (dL * pr[1] - dR * pl[1]) / (abs(pl[1] * pr[1]) + 1e-300)


@pytest.fixture
def sweeps(monkeypatch):
    """Counts of _shoot calls, keyed by grid size."""
    counts = Counter()
    shoot = numerov._shoot

    def counted(spec, Vg, xg, ics, E, band=None):
        counts[len(xg)] += 1
        return shoot(spec, Vg, xg, ics, E, band)

    monkeypatch.setattr(numerov, "_shoot", counted)
    return counts


@pytest.fixture
def fallbacks(monkeypatch):
    """The levels whose bracket search reached the energy window [E_lo,
    E_hi]: no hint, or no hint pair straddled the level."""
    calls = []
    search = numerov._level_bracket

    def counted(sweep, n, E_lo, E_hi, hint):
        asked = set()

        def seen(E):
            asked.add(E)
            return sweep(E)

        bracket = search(seen, n, E_lo, E_hi, hint)
        if E_lo in asked:
            calls.append(n)
        return bracket

    monkeypatch.setattr(numerov, "_level_bracket", counted)
    return calls


def test_sweep_budget_per_grid(sweeps, fallbacks):
    # The Newton start takes 3 sweeps a grid at eckart: the hint, one step,
    # and the sweep that closes the bracket, which brentq returns at once.
    # scarf1's hint lies 4.6e-6 off its grid level, and W's curvature
    # leaves 1.9e-10 after the first step: 4 sweeps a grid, one of
    # headroom on h.
    sw.numerov_eigenvalue(spec_of("eckart"), 1, E_hint=189.0)
    assert sweeps[20001] <= 3
    assert sweeps[40001] <= 3
    sweeps.clear()
    sw.numerov_eigenvalue(spec_of("scarf1"), 1, E_hint=3.0)
    assert sweeps[20001] <= 5
    assert sweeps[40001] <= 4
    # a far hint: nonexact3's SWKB level lies 23% above E_1, and the start's
    # six steps leave W at 7.2e-11; the hint pairs around its last step
    # close the bracket (10 sweeps, 19 without the start, 25 when the
    # pairs started again from the hint)
    sweeps.clear()
    spec = spec_of("nonexact3")
    sw.numerov_eigenvalue(spec, 1, E_hint=sw.solve_level(spec, 1).energy)
    assert sweeps[20001] <= 12
    assert sweeps[40001] <= 3
    assert fallbacks == []


def test_hinted_level_never_runs_the_continuation(sweeps, monkeypatch):
    lengths = []
    recur = numerov._recur

    def counted(y0, y1, g, band):
        lengths.append(len(g))
        return recur(y0, y1, g, band)

    monkeypatch.setattr(numerov, "_recur", counted)
    sw.numerov_eigenvalue(spec_of("eckart"), 1, E_hint=189.0)
    # each sweep is two recurrences that meet at the matching point, N - 1
    # steps in all, and nothing continues past it
    assert len(lengths) == 2 * sum(sweeps.values())
    assert sum(lengths) == sum((N - 1) * k for N, k in sweeps.items())


@pytest.mark.parametrize("pot_id", sw.CATALOG_IDS)
def test_h_grid_is_the_even_points_of_the_h_half_grid(pot_id, monkeypatch):
    # the oracle takes x and V_- of the h grid from the h/2 grid's
    spec = spec_of(pot_id)
    hint = spec.spectrum(1) if spec.spectrum else None
    x_min, x_max = numerov._prepare(spec, 1, hint)[3:5]
    fine = np.linspace(x_min, x_max, 40001)
    coarse = np.linspace(x_min, x_max, 20001)
    assert np.array_equal(fine[::2], coarse)
    assert np.array_equal(spec.v_minus(fine)[::2], spec.v_minus(coarse))
    sizes = []
    v_minus = type(spec).v_minus

    def counted(self, x):
        sizes.append(np.size(x))
        return v_minus(self, x)

    monkeypatch.setattr(type(spec), "v_minus", counted)
    sw.numerov_eigenvalue(spec, 1, E_hint=hint)
    # the 4001-point search for an upper energy (nonexact3) aside
    assert [k for k in sizes if k > 4001] == [40001]


# sweeps of the hinted search on the 2001- and 4001-point grids at n = 1, 2,
# as the Newton start takes them (scarf1 took 25 and 27 when the hint and
# node-count brackets were two searches, eckart 9 and 9).  An entry without
# a closed form solves the 2001-point grid cold, as the oracle's h grid
# does, and the 4001-point grid from that level.
HINTED_SWEEPS = {"eckart": (4, 4), "scarf2": (4, 4), "rosenmorse2": (4, 4),
                 "genpt": (4, 4), "scarf1": (6, 6), "rosenmorse1": (3, 3),
                 "nonexact1": (4, 4), "nonexact2": (20, 6),
                 "nonexact3": (20, 3)}


@pytest.mark.parametrize("pot_id", sw.CATALOG_IDS)
def test_hinted_solve_gives_the_cold_result(pot_id, sweeps, fallbacks):
    spec = spec_of(pot_id)
    for n in (1, 2):
        if not spec.n_is_bound(n):
            continue
        hint = spec.spectrum(n) if spec.spectrum else None
        E_lo, E_hi, _, x_min, x_max, ics = numerov._prepare(spec, n, hint)
        fallbacks.clear()
        for points, budget in zip((2001, 4001), HINTED_SWEEPS[pot_id]):
            grid = np.linspace(x_min, x_max, points)
            V = spec.v_minus(grid)
            cold = numerov._solve_on_grid(spec, grid, V, ics, n, E_lo, E_hi,
                                          None)
            assert sweeps.pop(points) <= 20
            hint = numerov._solve_on_grid(spec, grid, V, ics, n, E_lo, E_hi,
                                          hint)
            assert abs(hint - cold) <= 2.0 * W_RTOL * (1.0 + abs(cold))
            assert sweeps.pop(points) <= budget
        # the cold searches, and the 2001-point one without a closed form
        assert fallbacks == [n] * (2 if spec.spectrum else 3)


@pytest.mark.parametrize("pot_id", ["eckart", "scarf1"])
def test_wrong_hint_falls_back(pot_id, fallbacks):
    spec, xg, Vg, ics, E_lo, E_hi = _level_grid(pot_id, 2001)
    cold = numerov._solve_on_grid(spec, xg, Vg, ics, 1, E_lo, E_hi, None)
    E1, E2 = spec.spectrum(1), spec.spectrum(2)
    # the grid's own E_2 makes W change sign at the first, narrowest pair
    E2_grid = numerov._solve_on_grid(spec, xg, Vg, ics, 2, E_lo,
                                     max(E_hi, E2 + 1.0), None)
    fallbacks.clear()
    for hint in (E2_grid, E2):
        got = numerov._solve_on_grid(spec, xg, Vg, ics, 1, E_lo, E_hi, hint)
        assert got == cold
    assert fallbacks == [1, 1]
    # 10% below E_1 the hint has E_1's node count: the Newton start's six
    # steps end 1.1e-9 (eckart) and 5.9e-8 (scarf1) from the level, and
    # the hint pairs around its last step bracket it without the window
    fallbacks.clear()
    got = numerov._solve_on_grid(spec, xg, Vg, ics, 1, E_lo, E_hi, 0.9 * E1)
    assert abs(got - cold) <= 2.0 * W_RTOL * (1.0 + abs(cold))
    assert fallbacks == []
    E = sw.numerov_eigenvalue(spec, 1, n_points=2001, E_hint=E2)
    assert fallbacks == [1]             # the h grid only
    assert E == pytest.approx(E1, rel=1e-3)     # a 2001-point grid: 7e-4


# n = 0 to 3, both kinds of end, and the two entries without a closed form,
# each on its own window
BRACKET_CASES = [("eckart", 0), ("eckart", 2), ("scarf1", 1), ("scarf1", 3),
                 ("rosenmorse1", 2), ("nonexact2", 1), ("nonexact3", 1)]


@pytest.mark.parametrize("pot_id, n", BRACKET_CASES)
def test_bracket_rule_flips_once_at_the_grid_level(pot_id, n):
    spec = spec_of(pot_id)
    hint = spec.spectrum(n) if spec.spectrum else None
    E_lo, E_hi, _, x_min, x_max, ics = numerov._prepare(spec, n, hint)
    xg = np.linspace(x_min, x_max, 2001)
    Vg = spec.v_minus(xg)
    es = np.linspace(E_lo, E_hi, 101)
    nodes, below = [], []
    for E in es:
        k, W, *_ = numerov._shoot(spec, Vg, xg, ics, E)
        nodes.append(k)
        below.append(k < n or (k == n and (-1) ** n * W > 0.0))
    # the count up to the matching point never falls as E rises, and the
    # rule holds below the grid's E_n and nowhere above it
    assert all(np.diff(nodes) >= 0)
    flip = below.index(False)
    assert flip > 0 and not any(below[flip:])
    E_n = numerov._solve_on_grid(spec, xg, Vg, ics, n, E_lo, E_hi, None)
    assert es[flip - 1] < E_n <= es[flip]


# On 2001 points these grid levels lie outside their windows: drawn eckart
# seed 1 has E_3 0.065 below the threshold, and the grid puts it above the
# top of the window; seed 3 has its grid E_0 near -0.28, below the bottom.
# Hinted at the closed form, seed 1's wider hint pairs would reach past the
# window's top 271.0700 to the grid level 271.0863; they are clipped to the
# window, so there is no bracket either.
@pytest.mark.parametrize("seed, n, hinted", [
    pytest.param(1, 3, False, id="1-3"), pytest.param(3, 0, False, id="3-0"),
    pytest.param(1, 3, True, id="1-3-hinted"),
])
def test_window_without_the_level_raises_convergence_error(seed, n, hinted):
    spec = drawn_spec("eckart", seed)
    E_lo, E_hi, _, x_min, x_max, ics = numerov._prepare(spec, n,
                                                        spec.spectrum(n))
    xg = np.linspace(x_min, x_max, 2001)
    hint = spec.spectrum(n) if hinted else None
    with pytest.raises(ConvergenceError, match="no bracket"):
        numerov._solve_on_grid(spec, xg, spec.v_minus(xg), ics, n, E_lo,
                               E_hi, hint)


def test_nonexact2_without_a_hint():
    # the value the node-count transition search gave, as recorded in
    # perfbench/workloads.py NONEXACT2_LEVELS
    assert numerov_of("nonexact2", 1) == pytest.approx(0.03491466653630712,
                                                       rel=1e-12, abs=0.0)


# Each oracle_levels case, hinted at the closed form, as the banded-solve
# sweep gives it when brentq follows the Wronskian to rtol 8.9e-16.
# Stopping at W_RTOL may move a level only within the rounding floor of
# W's root.
FULL_PRECISION_LEVELS = {"eckart": 189.00000438893164,
                         "scarf2": 5.0000000000065326,
                         "scarf1": 2.999999855932867,
                         "rosenmorse1": 3.7499999999876956,
                         "nonexact1": 4.000000000034428}


# On these draws s = (A - B)/(alpha hbar) is 0.447, 0.482 and 0.413 (1/2 at
# the defaults), and the oracle gives level 1 at 3.3019, 2.9026 and 3.5372
# against the closed form's 3.0801, 2.8346 and 3.1534.
@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "s = (A - B)/(alpha hbar) < 1/2: near the wall x = pi/(2 alpha), "
    "V_- ~ s(s - 1) hbar^2/d^2 and both d^s and d^(1-s) are square "
    "integrable; SUSY's psi_0 ~ d^s is the less regular one, and the "
    "oracle's wall series (numerov._laurent_end) starts on the larger "
    "exponent, 1 - s.  Its levels are "
    "(B + alpha hbar/2 + n alpha hbar)^2 - A^2, the closed form with "
    "A - B -> alpha hbar - (A - B), within 3.7e-8 relative at n = 1, 2"))
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scarf1_oracle_below_s_one_half(seed):
    spec = drawn_spec("scarf1", seed)
    E = spec.spectrum(1)
    assert sw.numerov_eigenvalue(spec, 1, E_hint=E) == pytest.approx(
        E, rel=1e-6)


@pytest.mark.parametrize("pot_id", sorted(FULL_PRECISION_LEVELS))
def test_root_tolerance_keeps_the_levels(pot_id):
    assert numerov_of(pot_id, 1) == pytest.approx(
        FULL_PRECISION_LEVELS[pot_id], rel=1e-12, abs=0.0)


def _longdouble_wronskian(spec, xg, Vg, ics, E):
    """The matching Wronskian of the three-term Numerov recurrence
    t_{i+1} psi_{i+1} = (12 - 10 t_i) psi_i - t_{i-1} psi_{i-1}, run in
    80-bit long double on the grid's float64 x and V_-: E reaches the
    coefficients with 11 more bits than in float64.  No OVERFLOW rescale:
    long double reaches 1e4932."""
    ld = np.longdouble
    N = len(xg)
    h = ld(float(xg[1] - xg[0]))
    f = (Vg.astype(ld) - E) / ld(spec.hbar) ** 2
    m = min(max(int(np.flatnonzero(f < 0)[-1]), 2), N - 3)
    t = 1 - h * h * f / 12
    c, t = (12 - 10 * t).tolist(), t.tolist()

    def run(steps, psi0, psi1, ahead):
        p = [ld(psi0), ld(psi1)]
        for i in steps:
            p.append((c[i] * p[-1] - t[i - ahead] * p[-2]) / t[i + ahead])
        return p

    pL = run(range(1, m + 1),
             *numerov._end_ic(spec, ics, "left", xg, Vg, float(E)), 1)
    pR = run(range(N - 2, m - 1, -1),
             *numerov._end_ic(spec, ics, "right", xg, Vg, float(E)), -1)
    pl, pr = pL[m - 1:], pR[:-4:-1]
    dL = (pl[2] - pl[0]) / (2 * h)
    dR = (pr[2] - pr[0]) / (2 * h)
    return (dL * pr[1] - dR * pl[1]) / abs(pl[1] * pr[1])


# Each oracle_levels case at n = 1 on the 20001-point grid.  The
# three-term form held E in the low bits of 2 + 10u, u about 2e-9, and its
# roots lay up to 5.3e-11 (rosenmorse1) from this reference; the increment
# form's lie within 8e-15 to 7.2e-14.
@pytest.mark.parametrize("pot_id", sorted(FULL_PRECISION_LEVELS))
def test_wronskian_root_matches_the_80_bit_loop(pot_id):
    spec = spec_of(pot_id)
    E_lo, E_hi, hint, x_min, x_max, ics = numerov._prepare(
        spec, 1, spec.spectrum(1))
    xg = np.linspace(x_min, x_max, 20001)
    Vg = spec.v_minus(xg)
    E = np.longdouble(numerov._solve_on_grid(spec, xg, Vg, ics, 1, E_lo,
                                             E_hi, hint))
    below, above = (_longdouble_wronskian(spec, xg, Vg, ics, E * (1 + d))
                    for d in (np.longdouble(-1e-13), np.longdouble(1e-13)))
    assert below * above < 0.0


# W near the root on the h/2 grid: the three-term form's W was noise at
# 3e-11 relative of E, as large as the steps here
@pytest.mark.parametrize("pot_id", ["rosenmorse1", "scarf1"])
def test_wronskian_is_smooth_next_to_the_root(pot_id):
    spec = spec_of(pot_id)
    E_lo, E_hi, hint, x_min, x_max, ics = numerov._prepare(
        spec, 1, spec.spectrum(1))
    xg = np.linspace(x_min, x_max, 40001)
    Vg = spec.v_minus(xg)
    E = numerov._solve_on_grid(spec, xg, Vg, ics, 1, E_lo, E_hi, hint)
    es = E * (1.0 + np.linspace(-3e-10, 3e-10, 25))
    W = np.array([numerov._shoot(spec, Vg, xg, ics, e)[1] for e in es])
    steps = np.diff(W)
    assert np.all(steps < 0.0) or np.all(steps > 0.0)
    # and linear in E to 1.6e-4 of a step
    line = np.polyval(np.polyfit(es - E, W, 1), es - E)
    assert np.abs(W - line).max() <= 1e-2 * np.abs(steps).mean()


@pytest.fixture
def root_sweeps(monkeypatch):
    """Sweeps of the Wronskian root search, the brentq call of
    numerov._solve_on_grid, keyed by grid size."""
    counts = Counter()
    searching = False
    shoot, brentq = numerov._shoot, numerov.brentq

    def counted_shoot(spec, Vg, xg, ics, E, band=None):
        counts[len(xg)] += searching
        return shoot(spec, Vg, xg, ics, E, band)

    def counted_brentq(*args, **kwargs):
        nonlocal searching
        searching = True
        try:
            return brentq(*args, **kwargs)
        finally:
            searching = False

    monkeypatch.setattr(numerov, "_shoot", counted_shoot)
    monkeypatch.setattr(numerov, "brentq", counted_brentq)
    return counts


@pytest.mark.parametrize("pot_id", sorted(FULL_PRECISION_LEVELS))
def test_root_search_takes_at_most_three_sweeps(pot_id, root_sweeps):
    # the three-term form took 2-14, following W's rounding noise
    spec = spec_of(pot_id)
    sw.numerov_eigenvalue(spec, 1, E_hint=spec.spectrum(1))
    assert set(root_sweeps) == {20001, 40001}
    assert max(root_sweeps.values()) <= 3


# the slope of W that the Newton start steps on, at each oracle_levels case
# on both grids: the norm sums of the sweep, with the matching point counted
# once, t at m and the wall's part of the norm, match a central difference
# of W to 4e-10 - 1.4e-7 (counting m in both halves put eckart 1.5e-3 off;
# without the t factors scarf1, whose m lies next to its wall, was 6e-4 off)
@pytest.mark.parametrize("points", [20001, 40001])
@pytest.mark.parametrize("pot_id", sorted(FULL_PRECISION_LEVELS))
def test_norm_slope_is_the_slope_of_w(pot_id, points):
    spec = spec_of(pot_id)
    E_lo, E_hi, hint, x_min, x_max, ics = numerov._prepare(
        spec, 1, spec.spectrum(1))
    xg = np.linspace(x_min, x_max, points)
    Vg = spec.v_minus(xg)
    E = numerov._solve_on_grid(spec, xg, Vg, ics, 1, E_lo, E_hi, hint)
    _, _, pL, pR, m = numerov._shoot(spec, Vg, xg, ics, E)
    slope = numerov._norm_slope(spec, Vg, xg, ics, E, pL, pR, m)
    dE = 1e-6 * E
    W_up, W_down = (numerov._shoot(spec, Vg, xg, ics, E + d)[1]
                    for d in (dE, -dE))
    assert slope == pytest.approx((W_up - W_down) / (2.0 * dE), rel=1e-6)


@pytest.mark.parametrize("pot_id", sw.CATALOG_IDS)
def test_levels_raise_no_warning(pot_id):
    # the norm sums square each half of a sweep, which reaches OVERFLOW
    # (nonexact2's h/2 grid); scaled first, they overflow nowhere
    spec = spec_of(pot_id)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 2):
            if not spec.n_is_bound(n):
                continue
            sw.numerov_eigenvalue(spec, n)
            if spec.spectrum is not None:
                sw.numerov_eigenvalue(spec, n, E_hint=spec.spectrum(n))


@pytest.mark.parametrize("pot_id", sorted(FULL_PRECISION_LEVELS))
def test_hinted_level_lies_in_a_swept_bracket(pot_id, monkeypatch):
    # the level the Newton start hands brentq lies between two swept
    # energies, at most one tolerance apart, with n = 1 nodes each and the
    # rule of _level_bracket, (-1)^n W > 0 below the level, flipping
    swept = Counter()
    shoot = numerov._shoot
    levels = []

    def recorded(spec, Vg, xg, ics, E, work=None):
        out = shoot(spec, Vg, xg, ics, E, work)
        swept[len(xg), E] = out[:2]
        return out

    def solved(*args):
        levels.append((len(args[1]), solve(*args)))
        return levels[-1][1]

    solve = numerov._solve_on_grid
    monkeypatch.setattr(numerov, "_shoot", recorded)
    monkeypatch.setattr(numerov, "_solve_on_grid", solved)
    spec = spec_of(pot_id)
    sw.numerov_eigenvalue(spec, 1, E_hint=spec.spectrum(1))
    assert [N for N, _ in levels] == [20001, 40001]
    for N, E in levels:
        near = sorted((e, k, W) for (n, e), (k, W) in swept.items()
                      if n == N and abs(e - E) <= W_XTOL + W_RTOL * abs(E))
        assert any(a <= E <= b and ka == kb == 1 and -Wa > 0.0 >= -Wb
                   for (a, ka, Wa), (b, kb, Wb) in zip(near, near[1:]))


def test_grid_arrays_are_freed_on_return():
    spec, xg, Vg, ics, E_lo, E_hi = _level_grid("eckart", 2001)
    gc.disable()
    try:
        numerov._solve_on_grid(spec, xg, Vg, ics, 1, E_lo, E_hi,
                               spec.spectrum(1))
        alive = weakref.ref(xg), weakref.ref(Vg)
        del xg, Vg
        assert [ref() for ref in alive] == [None, None]
    finally:
        gc.enable()


def _scalar_grow_box(spec, x_start, side, E):
    """The box growth as a loop that evaluates V_- one step at a time, kept
    as a reference for the growth by blocks."""
    h = spec.hbar
    x = x_start
    acc = 0.0
    for _ in range(200000):
        dx = 0.05 * (1.0 + abs(x))
        x += side * dx
        v = spec.v_minus(np.array([x]))[0]
        if v > E:
            acc += math.sqrt(v - E) / h * dx
            if acc >= numerov.DECAY_BUDGET:
                return x
        else:
            acc = 0.0
    raise AssertionError("no decaying region")


INFINITE_END_IDS = [pot_id for pot_id in sw.CATALOG_IDS
                    if not all(map(math.isfinite, spec_of(pot_id).domain))]


def _oracle_box(spec, n):
    """(x_min, x_max) of the level-n oracle, or the DomainError that the
    growth raises when V_- overflows before the decay budget is met and x
    runs to infinity."""
    hint = spec.spectrum(n) if spec.spectrum else None
    try:
        return numerov._prepare(spec, n, hint)[3:5]
    except DomainError as err:
        return str(err)


@pytest.mark.parametrize("seed", [None, 1, 2])
@pytest.mark.parametrize("pot_id", INFINITE_END_IDS)
def test_box_by_blocks_equals_the_scalar_box(pot_id, seed, monkeypatch):
    spec = spec_of(pot_id) if seed is None else drawn_spec(pot_id, seed)
    for n in (1, 2, 3):
        if not spec.n_is_bound(n):
            continue
        box = _oracle_box(spec, n)
        with monkeypatch.context() as m, np.errstate(all="ignore"):
            m.setattr(numerov, "_grow_box", _scalar_grow_box)
            assert box == _oracle_box(spec, n)


def test_level_next_to_the_threshold_raises_no_warning():
    # E_3 lies 0.065 below the threshold, and the box reaches alpha x = 321,
    # where den^2 expanded (y^4 = e^(4 alpha x)) overflowed
    spec = drawn_spec("eckart", 1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        E = sw.numerov_eigenvalue(spec, 3, E_hint=spec.spectrum(3))
    assert E == pytest.approx(spec.spectrum(3), rel=1e-5)


@pytest.mark.parametrize("pot_id", sw.CATALOG_IDS)
def test_box_growth_raises_no_warning(pot_id):
    # the blocks run past the edge, where V_- overflows on scarf2 n = 2
    spec = spec_of(pot_id)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for n in (1, 2, 3):
            if spec.n_is_bound(n):
                hint = spec.spectrum(n) if spec.spectrum else None
                numerov._prepare(spec, n, hint)
