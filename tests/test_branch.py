"""The closed-form square-root sheet and the quadratures on it."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import susywkb as sw
from susywkb import Polynomial, contours, swkb
from susywkb.branch import Sheet, SqrtIntegrand, cut_integral
from susywkb.catalog import probe_energy
from susywkb.contours import Cut
from susywkb.quadrature import QUAD_TOL

from conftest import drawn_spec, reference_circle, reference_radius


def brute_continue(Pc, w0, path, nsub=20000):
    """Reference continuation: tiny fixed steps, closer-root rule."""
    w = complex(w0)
    for a, b in zip(path[:-1], path[1:]):
        zs = a + (b - a) * np.linspace(0.0, 1.0, nsub + 1)
        s = np.sqrt(npoly.polyval(zs, Pc))
        for k in range(1, len(zs)):
            w = s[k] if abs(s[k] - w) <= abs(-s[k] - w) else -s[k]
    return w


def chords(*pairs):
    return tuple(Cut(complex(a), complex(b), "other") for a, b in pairs)


def arcs(*pairs):
    return tuple(Cut(a, b, "other", arc=True) for a, b in pairs)


def anchored(cuts, anchor):
    """The sheet of P = prod(y - r) over the cut ends, with sqrt(P) taken
    principal at the anchor, and P's monomial coefficients."""
    Pc = npoly.polyfromroots([np.exp(1j * p) if c.arc else p
                              for c in cuts for p in (c.p1, c.p2)])
    w = np.sqrt(npoly.polyval(anchor, Pc))
    return Sheet.anchored(cuts, anchor, w), Pc


# Two disjoint chords, and two disjoint arcs of the unit circle.
TWO_CHORDS = chords((-2.0 - 0.5j, -0.5 + 0.3j), (1.0 - 1.0j, 1.5 + 1.0j))
TWO_ARCS = arcs((0.3, 1.2), (2.5, 4.0))


def synthetic_sheets():
    for cuts, anchor in ((TWO_CHORDS, 3.0 + 0j), (TWO_ARCS, 2.0 + 0j)):
        sheet, Pc = anchored(cuts, anchor)
        yield sheet, (lambda y, Pc=Pc: npoly.polyval(y, Pc)), 3.0


def _probe_workspaces():
    """Workspaces of every catalog entry at probe_energy(spec, n), n = 1, 2;
    an entry without a closed form takes half its one probe energy as the
    second."""
    for pot_id in sw.CATALOG_IDS:
        spec = sw.get_spec(pot_id)
        E1 = probe_energy(spec, 1)
        E2 = probe_energy(spec, 2)
        for E in (E1, E2 if E2 != E1 else 0.5 * E1):
            yield contours._Workspace(spec, E)


def all_sheets():
    yield from synthetic_sheets()
    for ws in _probe_workspaces():
        yield ws.sheet, ws.P, reference_radius(ws) / 2.0


def distance_to_cut(cut, y):
    if cut.arc:
        th = np.angle(y * np.exp(-0.5j * (cut.p1 + cut.p2)))
        a, b = np.exp(1j * cut.p1), np.exp(1j * cut.p2)
        on = np.abs(th) <= 0.5 * (cut.p2 - cut.p1)
        return np.where(on, np.abs(np.abs(y) - 1.0),
                        np.minimum(np.abs(y - a), np.abs(y - b)))
    a, d = cut.p1, cut.p2 - cut.p1
    t = np.clip(((y - a) * np.conj(d)).real / abs(d) ** 2, 0.0, 1.0)
    return np.abs(a + t * d - y)


def test_sheet_squares_to_the_radicand():
    rng = np.random.default_rng(7)
    for sheet, P, scale in all_sheets():
        ys = scale * (rng.standard_normal(300) + 1j * rng.standard_normal(300))
        w, p = sheet(ys), P(ys)
        assert np.all(np.abs(w * w - p) <= 1e-13 * (1.0 + np.abs(p)))


def test_sheet_flips_across_each_cut_and_nowhere_else():
    rng = np.random.default_rng(8)
    for sheet, _, scale in all_sheets():
        for cut in sheet.cuts:
            # the midpoint of the cut, approached from either side
            if cut.arc:
                mid = np.exp(0.5j * (cut.p1 + cut.p2))
                normal, length = mid, cut.p2 - cut.p1
            else:
                mid = 0.5 * (cut.p1 + cut.p2)
                normal, length = 1j * (cut.p2 - cut.p1), abs(cut.p2 - cut.p1)
                normal /= abs(normal)
            eps = 1e-9 * length
            w_in, w_out = sheet(mid - eps * normal), sheet(mid + eps * normal)
            assert abs(w_in + w_out) <= 1e-6 * abs(w_in)
        # short segments that keep clear of every cut
        step = 1e-3 * scale
        a = scale * (rng.standard_normal(400) + 1j * rng.standard_normal(400))
        b = a + step * np.exp(2j * np.pi * rng.uniform(size=400))
        clear = np.ones(len(a), dtype=bool)
        for cut in sheet.cuts:
            clear &= (distance_to_cut(cut, a) > step) & (
                distance_to_cut(cut, b) > step)
        assert clear.sum() >= 300
        wa, wb = sheet(a[clear]), sheet(b[clear])
        assert np.all(np.abs(wb - wa) < np.abs(wb + wa))


def test_sheet_agrees_with_fine_step_continuation():
    # hand-drawn paths from the anchor that keep clear of the cuts
    paths = {
        TWO_CHORDS: [[3.0, 3.0 + 2j, -1.0 + 2j, -3.0 + 0.5j, -3.0 - 2j,
                      0.0 - 2j, 0.2 - 0.2j],
                     [3.0, 2.5 - 2.0j, 0.5 - 1.2j, -1.2 - 0.6j, -2.5 - 0.9j]],
        TWO_ARCS: [[2.0, 0.5 + 0.2j, 0.0 - 0.5j, -0.5j + 0.6, 1.3 - 0.6j],
                   [2.0, 2.0 + 2.0j, -1.8 + 0.5j, -1.5 - 1.0j, 0.5 - 1.5j,
                    0.0 + 0.0j]],
    }
    for cuts, anchor in ((TWO_CHORDS, 3.0 + 0j), (TWO_ARCS, 2.0 + 0j)):
        sheet, Pc = anchored(cuts, anchor)
        for path in paths[cuts]:
            path = [complex(z) for z in path]
            pts = np.concatenate([a + (b - a) * np.linspace(0, 1, 200)
                                  for a, b in zip(path[:-1], path[1:])])
            assert all(np.all(distance_to_cut(c, pts) > 0.05) for c in cuts)
            want = brute_continue(Pc, sheet(anchor), path, nsub=5000)
            assert sheet(path[-1]) == pytest.approx(want, rel=1e-9)
    # once around each catalog workspace's large circle
    for ws in _probe_workspaces():
        R = reference_radius(ws)
        loop = list(R * np.exp(2j * np.pi * np.arange(17) / 16))
        w0 = ws.sheet(loop[0])
        for k in (4, 8, 16):
            want = brute_continue(ws.P.coeffs, w0, loop[:k + 1], nsub=400)
            assert ws.sheet(loop[k]) == pytest.approx(want, rel=1e-9)


def test_constant_radicand_is_unchanged():
    sheet = Sheet.anchored((), 0j, 2.0)
    for y in (0.0, 1.0 + 1j, -3.0):
        assert sheet(y) == 2.0


def test_monodromy_single_branch_point_flips_sign():
    # sqrt(y^2 - 1) cut along [-1, 1]: continued once around y = 1 alone,
    # the value comes back as minus the sheet's, which jumps once on the
    # way, where the loop crosses the cut.
    sheet, Pc = anchored(chords((-1.0, 1.0)), 1.5 + 0j)
    loop = 1.0 + 0.5 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 101))
    w0 = sheet(loop[0])
    assert brute_continue(Pc, w0, loop, nsub=200) == pytest.approx(-w0)
    ws = sheet(loop)
    flips = np.abs(ws[1:] - ws[:-1]) > np.abs(ws[1:] + ws[:-1])
    assert flips.sum() == 1


def test_monodromy_two_branch_points_is_trivial():
    sheet, Pc = anchored(chords((-1.0, 1.0)), 3.0 + 0j)
    loop = 3.0 * np.exp(1j * np.linspace(0.0, 2.0 * np.pi, 201))
    ws = sheet(loop)
    assert np.all(np.abs(ws[1:] - ws[:-1]) < np.abs(ws[1:] + ws[:-1]))
    assert ws[-1] == pytest.approx(ws[0])
    assert brute_continue(Pc, ws[0], loop, nsub=200) == pytest.approx(ws[0])


def test_long_segment_passing_close_below_branch_points():
    # A single straight step can wind the radicand by nearly 2*pi while its
    # endpoint phases look close; the sheet must agree with the fine-step
    # reference along it.
    path = [2.0 - 0.01j, -2.0 - 0.01j]
    sheet, Pc = anchored(chords((-1.0, 1.0)), path[0])
    want = brute_continue(Pc, sheet(path[0]), path)
    assert sheet(path[-1]) == pytest.approx(want, rel=1e-9)


def test_continuation_is_path_independent_off_the_cuts():
    # roots at 1, -1, i, -i, cut along 1 -> i and -1 -> -i
    sheet, Pc = anchored(chords((1.0, 1j), (-1.0, -1j)), 3.0 + 0j)
    upper = [3.0, 3.0 + 5j, -3.0 + 5j, -3.0]
    lower = [3.0, 3.0 - 5j, -3.0 - 5j, -3.0]
    w0 = sheet(3.0)
    up = brute_continue(Pc, w0, upper, nsub=2000)
    assert up == pytest.approx(brute_continue(Pc, w0, lower, nsub=2000),
                               rel=1e-10)
    assert sheet(-3.0) == pytest.approx(up, rel=1e-10)


def unit_integrand(den):
    # w = 1 everywhere, unit measure
    return SqrtIntegrand(sheet=Sheet.anchored((), 1.0, 1.0),
                         den=Polynomial(den),
                         measure=lambda y: np.ones_like(y))


def test_contour_integral_simple_pole():
    val = reference_circle(unit_integrand([0.0, 1.0]), 1.0)     # f = 1/y
    assert val == pytest.approx(1j, abs=1e-12)


def test_contour_integral_no_singularity_is_zero():
    val = reference_circle(unit_integrand([-5.0, 1.0]), 1.0)   # f = 1/(y - 5)
    assert abs(val) < 1e-12


def test_cut_integral_matches_real_axis_quadrature():
    # w = sqrt(1 - z^2) just below the cut [-1, 1]; with den = 1 and unit
    # measure, (1/pi) * integral of sqrt(1 - x^2) over [-1, 1] = 1/2.
    sheet = Sheet.anchored(chords((-1.0, 1.0)), 0.0 - 0.01j,
                           np.sqrt(1.0 - (0.0 - 0.01j) ** 2))
    integrand = SqrtIntegrand(sheet=sheet, den=Polynomial([1.0]),
                              measure=lambda y: np.ones_like(y))
    assert cut_integral(integrand, 0) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("cuts", [TWO_CHORDS, TWO_ARCS])
def test_cut_rules_close_against_the_large_circle(cuts):
    # With no pole, the large circle equals the sum of the cut integrals
    # taken on the lips the cut rules use.
    sheet, _ = anchored(cuts, 3.0 + 0j)
    integrand = SqrtIntegrand(sheet=sheet, den=Polynomial([1.0]),
                              measure=lambda y: np.ones_like(y))
    total = sum(cut_integral(integrand, k) for k in range(len(cuts)))
    assert reference_circle(integrand, 10.0) == pytest.approx(total, abs=1e-12)


def test_cut_quadratures_converge_by_128_nodes(quadratures):
    # Every cut of the probe workspaces, the node count that sets the cost
    # of a decomposition, and the same rule on the real axis at the 27 bound
    # levels n = 1-4 of the catalog.  J_GammaR takes no quadrature.
    levels = [(spec, swkb.solve_level(spec, n).energy)
              for spec in map(sw.get_spec, sw.CATALOG_IDS)
              for n in range(1, 5) if spec.n_is_bound(n)]
    assert len(levels) == 27
    runs = []
    for ws in _probe_workspaces():
        quadratures.clear()
        for k in range(len(ws.cuts)):
            ws.cut_value(k)
        assert [q[0] for q in quadratures] == (
            ["cut quadrature"] * len(ws.cuts))
        runs += quadratures
    for spec, E in levels:
        quadratures.clear()
        swkb.swkb_integral(spec, E)
        assert [q[0] for q in quadratures] == ["SWKB quadrature"]
        runs += quadratures
    for what, fn, val, nodes in runs:
        J = fn(4096)
        assert nodes == 128
        assert val == fn(128)
        assert abs(val - fn(64)) < QUAD_TOL
        assert abs(val - J) <= 1e-13 * (1.0 + abs(J))


@pytest.mark.parametrize("cuts", [
    TWO_CHORDS, TWO_ARCS, arcs((0.3, 1.2)),
    chords((-2.0 - 0.5j, -0.5 + 0.3j)) + arcs((2.5, 4.0))])
def test_sheet_series_at_infinity(cuts):
    # The coefficient of 1/y^j in w/y^K is the residue of w y^(j - K - 1)
    # at infinity; an odd number of arcs leaves the sign of their factors.
    sheet, _ = anchored(cuts, 3.0 + 0j)
    K = len(cuts)
    ys = 3.0 * np.exp(2j * np.pi * np.arange(1024) / 1024)
    w = sheet(ys)
    for j, got in enumerate(sheet.at_infinity(4)):
        want = np.mean(w * ys ** (j - K))
        assert abs(got - want) <= 1e-13 * (1.0 + abs(want))


def _infinity_workspaces():
    """The probe workspaces, every entry at conftest.drawn_spec seeds 1-3 at
    probe_energy n = 1, 2, and nonexact1 where its cuts reach far out."""
    yield from _probe_workspaces()
    for pot_id in sw.CATALOG_IDS:
        for seed in (1, 2, 3):
            spec = drawn_spec(pot_id, seed)
            for n in (1, 2):
                yield contours._Workspace(spec, probe_energy(spec, n))
    for E in (100.0, 200.0, 400.0):
        yield contours._Workspace(sw.get_spec("nonexact1"), E)


def test_infinity_term_matches_the_reference_circle():
    # J_GammaR is a Laurent coefficient at infinity; the trapezoid rule on a
    # circle outside every cut and pole is its independent reference.
    count = 0
    for ws in _infinity_workspaces():
        want = reference_circle(ws.integrand, reference_radius(ws))
        assert abs(ws.infinity_value() - want) <= 1e-13 * (1.0 + abs(want))
        count += 1
    assert count == 75


def test_cut_rule_evaluates_each_node_once(monkeypatch):
    # The nodes cos(j pi/n) of one order hold those of the order before, so
    # a cut that converges at n nodes evaluates its integrand at n - 1
    # points: nonexact1's short cuts at E = 400 converge at 32768.
    ws = contours._Workspace(sw.get_spec("nonexact1"), 400.0)
    evaluated = []
    others = Sheet.others

    def counted(self, k, y):
        evaluated.append(np.size(y))
        return others(self, k, y)

    monkeypatch.setattr(Sheet, "others", counted)
    short = [k for k, cut in enumerate(ws.cuts) if cut.kind == "other"]
    assert len(short) == 4
    for k in short:
        evaluated.clear()
        ws.cut_value(k)
        assert sum(evaluated) == 32767
