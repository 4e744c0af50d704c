"""Numerov oracle: eigenvalues, node counts, quantum action, QHJ residual."""

from collections import Counter

import numpy as np
import pytest

import susywkb as sw
from susywkb import DomainError, numerov
from susywkb.numerov import OVERFLOW, grid_solution
from susywkb.swkb import turning_points

from conftest import numerov_of, spec_of


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
    """The sweep as it was written on numpy scalars, kept as a reference for
    the plain-float sweep; also returns the number of OVERFLOW rescales."""
    rescales = 0
    hbar = spec.hbar
    N = len(xg)
    h = xg[1] - xg[0]
    f = (Vg - E) / (hbar * hbar)
    t = 1.0 - h * h * f / 12.0
    pL = np.zeros(N)
    pL[0], pL[1] = numerov._end_ic(spec, ics, "left", xg, E)
    for i in range(1, N - 1):
        pL[i + 1] = ((12.0 - 10.0 * t[i]) * pL[i] - t[i - 1] * pL[i - 1]) / t[i + 1]
        if abs(pL[i + 1]) > OVERFLOW:
            pL[:i + 2] *= 1.0 / OVERFLOW
            rescales += 1
    pR = np.zeros(N)
    pR[-1], pR[-2] = numerov._end_ic(spec, ics, "right", xg, E)
    for i in range(N - 2, 0, -1):
        pR[i - 1] = ((12.0 - 10.0 * t[i]) * pR[i] - t[i + 1] * pR[i + 1]) / t[i - 1]
        if abs(pR[i - 1]) > OVERFLOW:
            pR[i - 1:] *= 1.0 / OVERFLOW
            rescales += 1
    cls = np.where(f < 0.0)[0]
    m = int(cls[-1]) if len(cls) else N // 2
    m = min(max(m, 2), N - 3)
    nodes = int(np.sum(np.sign(pL[1:-1]) * np.sign(pL[2:]) < 0.0))
    dL = (pL[m + 1] - pL[m - 1]) / (2.0 * h)
    dR = (pR[m + 1] - pR[m - 1]) / (2.0 * h)
    W = (dL * pR[m] - dR * pL[m]) / (abs(pL[m] * pR[m]) + 1e-300)
    return (nodes, W, pL, pR, m), rescales


def _level_grid(pot_id, n_points):
    spec = spec_of(pot_id)
    E_lo, E_hi, x_min, x_max, ics = numerov._prepare(spec, 1, spec.spectrum(1))
    return spec, np.linspace(x_min, x_max, n_points), ics, E_lo, E_hi


# eckart has decaying ends, scarf1 Frobenius walls; the negative energies
# make both sweeps overflow and rescale
@pytest.mark.parametrize("pot_id, E", [("eckart", 189.0), ("eckart", -1e3),
                                       ("scarf1", 3.0), ("scarf1", -3e4)])
def test_shoot_equals_numpy_sweep(pot_id, E):
    spec, xg, ics, _, _ = _level_grid(pot_id, 20001)
    Vg = spec.v_minus(xg)
    nodes, W, pL, pR, m = numerov._shoot(spec, Vg, xg, ics, E)
    (nodes0, W0, pL0, pR0, m0), rescales = _numpy_shoot(spec, Vg, xg, ics, E)
    if E < 0.0:
        assert rescales >= 2
    assert (nodes, W, m) == (nodes0, W0, m0)
    assert np.array_equal(pL, pL0) and np.array_equal(pR, pR0)


@pytest.fixture
def sweeps(monkeypatch):
    """Counts of _shoot calls, keyed by grid size."""
    counts = Counter()
    shoot = numerov._shoot

    def counted(spec, Vg, xg, ics, E):
        counts[len(xg)] += 1
        return shoot(spec, Vg, xg, ics, E)

    monkeypatch.setattr(numerov, "_shoot", counted)
    return counts


def test_sweep_budget_per_grid(sweeps):
    # Bisecting from scratch took 86 sweeps on the h grid and 89 on h/2.
    # The shared sweep memo saves a few on the h grid; the warm start from
    # the h-grid transitions cuts h/2 to 55.  10% headroom on each.
    sw.numerov_eigenvalue(spec_of("eckart"), 1, E_hint=189.0)
    assert sweeps[20001] <= 91
    assert sweeps[40001] <= 60


@pytest.mark.parametrize("pot_id", ["eckart", "scarf1"])
def test_warm_start_gives_the_cold_result(pot_id, sweeps):
    spec, xg, ics, E_lo, E_hi = _level_grid(pot_id, 2001)
    _, near = numerov._solve_on_grid(spec, xg, ics, 1, E_lo, E_hi)
    fine = np.linspace(xg[0], xg[-1], 4001)
    cold = numerov._solve_on_grid(spec, fine, ics, 1, E_lo, E_hi)
    n_cold = sweeps.pop(4001)
    warm = numerov._solve_on_grid(spec, fine, ics, 1, E_lo, E_hi, near)
    assert warm == cold
    assert sweeps[4001] < n_cold
