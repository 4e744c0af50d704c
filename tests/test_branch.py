"""Branch-tracked square roots, contour quadrature, and path planning."""

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from susywkb import BranchAmbiguityError, DomainError, Polynomial
from susywkb.branch import (Contour, PathPlanner, SqrtIntegrand,
                            contour_integral, continue_along, continue_sqrt,
                            cut_segment_integral, track_nodes)


def brute_continue(Pc, w0, path, nsub=20000):
    """Reference continuation: tiny fixed steps, closer-root rule."""
    w = complex(w0)
    for a, b in zip(path[:-1], path[1:]):
        zs = a + (b - a) * np.linspace(0.0, 1.0, nsub + 1)
        s = np.sqrt(npoly.polyval(zs, Pc))
        for k in range(1, len(zs)):
            w = s[k] if abs(s[k] - w) <= abs(-s[k] - w) else -s[k]
    return w


def test_constant_radicand_is_unchanged():
    P = Polynomial([4.0])
    w = continue_along(P, 2.0, [0.0, 1.0 + 1j, -3.0, 0.0])
    assert w == pytest.approx(2.0)


def test_monodromy_single_branch_point_flips_sign():
    P = Polynomial([0.0, 1.0])          # sqrt(z), branch point at 0
    th = np.linspace(0.0, 2.0 * np.pi, 101)
    loop = np.exp(1j * th)
    ws = track_nodes(P, 1.0, loop)
    assert ws[-1] == pytest.approx(-1.0)


def test_monodromy_two_branch_points_is_trivial():
    P = Polynomial([-1.0, 0.0, 1.0])    # sqrt(z^2 - 1)
    th = np.linspace(0.0, 2.0 * np.pi, 201)
    loop = 3.0 * np.exp(1j * th)
    w0 = complex(np.sqrt(complex(8.0)))
    ws = track_nodes(P, w0, loop)
    assert ws[-1] == pytest.approx(w0)


def test_long_segment_passing_close_below_branch_points():
    # A single straight step can wind the radicand by nearly 2*pi while its
    # endpoint phases look close; the continuation must still land on the
    # sheet the fine-step reference picks.
    P = Polynomial([-1.0, 0.0, 1.0])
    path = [2.0 - 0.01j, -2.0 - 0.01j]
    w0 = complex(np.sqrt(complex(3.0)))
    got = continue_along(P, w0, path)
    want = brute_continue(P.coeffs, w0, path)
    assert got == pytest.approx(want, rel=1e-9)


def test_continuation_is_path_independent_off_the_cuts():
    P = Polynomial([-1.0, 0.0, 0.0, 0.0, 1.0])  # roots at 1, -1, i, -i
    w0 = complex(np.sqrt(npoly.polyval(3.0 + 0j, P.coeffs)))
    upper = [3.0, 3.0 + 5j, -3.0 + 5j, -3.0]
    lower = [3.0, 3.0 - 5j, -3.0 - 5j, -3.0]
    assert continue_along(P, w0, upper) == pytest.approx(
        continue_along(P, w0, lower), rel=1e-10)


def test_continuation_through_branch_point_raises():
    P = Polynomial([0.0, 1.0])
    with pytest.raises(BranchAmbiguityError):
        continue_sqrt(P, 1.0, 1.0, -1.0)   # straight through z = 0


def unit_pole_integrand():
    # f = 1/y: w = sqrt(1) = 1, den = y, measure = 1
    return SqrtIntegrand(P=Polynomial([1.0]), den=Polynomial([0.0, 1.0]),
                         measure=lambda y: np.ones_like(y),
                         anchor_point=1.0 + 0j, anchor_value=1.0 + 0j)


def test_contour_integral_simple_pole():
    c = Contour(kind="circle", center=0j, radius=1.0,
                anchor_path=(1.0 + 0j, 1.0 + 0j))
    val = contour_integral(c, unit_pole_integrand())
    assert val == pytest.approx(1j, abs=1e-12)


def test_contour_integral_orientation():
    c = Contour(kind="circle", center=0j, radius=1.0, orientation=-1,
                anchor_path=(1.0 + 0j, 1.0 + 0j))
    val = contour_integral(c, unit_pole_integrand())
    assert val == pytest.approx(-1j, abs=1e-12)


def test_contour_integral_no_singularity_is_zero():
    c = Contour(kind="circle", center=5.0 + 0j, radius=1.0,
                anchor_path=(6.0 + 0j, 6.0 + 0j))
    val = contour_integral(c, unit_pole_integrand())
    assert abs(val) < 1e-12


def test_contour_integral_rejects_tiny_node_count():
    c = Contour(kind="circle", center=0j, radius=1.0)
    with pytest.raises(DomainError):
        contour_integral(c, unit_pole_integrand(), n_points=8)


def test_odd_enclosed_branch_points_detected():
    P = Polynomial([0.0, 1.0])
    integrand = SqrtIntegrand(P=P, den=Polynomial([1.0]),
                              measure=lambda y: np.ones_like(y),
                              anchor_point=1.0 + 0j, anchor_value=1.0 + 0j)
    c = Contour(kind="circle", center=0j, radius=1.0,
                anchor_path=(1.0 + 0j, 1.0 + 0j))
    with pytest.raises(BranchAmbiguityError):
        contour_integral(c, integrand)


def test_cut_integral_matches_real_axis_quadrature():
    # w = sqrt(1 - z^2) just below the cut [-1, 1]; with den = 1 and unit
    # measure, (1/pi) * integral of sqrt(1 - x^2) over [-1, 1] = 1/2.
    P = Polynomial([1.0, 0.0, -1.0])
    integrand = SqrtIntegrand(P=P, den=Polynomial([1.0]),
                              measure=lambda y: np.ones_like(y),
                              anchor_point=0.0 - 0.01j, anchor_value=1.0 + 0j)
    w_mid = continue_sqrt(P, 1.0 + 0j, 0.0 - 0.01j, 0.0 + 0j)
    val = cut_segment_integral(integrand, -1.0 + 0j, 1.0 + 0j, w_mid)
    assert val == pytest.approx(0.5, abs=1e-10)


def test_stadium_contour_equals_cut_integral():
    P = Polynomial([1.0, 0.0, -1.0])
    integrand = SqrtIntegrand(P=P, den=Polynomial([1.0]),
                              measure=lambda y: np.ones_like(y),
                              anchor_point=0.0 - 0.01j, anchor_value=1.0 + 0j)
    # anchor path stays below the cut and ends at the stadium's start node
    # at p1 - i*clearance
    stadium = Contour(kind="stadium", p1=-1.0 + 0j, p2=1.0 + 0j,
                      clearance=0.15,
                      anchor_path=(0.0 - 0.01j, -1.0 - 0.3j, -1.0 - 0.15j))
    # trapezoid over the piecewise stadium parametrization is only
    # low-order accurate, so relax its convergence target
    loop = contour_integral(stadium, integrand, tol=1e-8)
    w_mid = continue_sqrt(P, 1.0 + 0j, 0.0 - 0.01j, 0.0 + 0j)
    chord = cut_segment_integral(integrand, -1.0 + 0j, 1.0 + 0j, w_mid)
    assert loop == pytest.approx(chord, abs=1e-6)


def test_path_planner_avoids_capsule():
    planner = PathPlanner(points=(), clearance=0.0,
                          capsules=((-1j, 1j, 0.3),))
    path = planner.route(-2.0 + 0j, 2.0 + 0j)
    assert path[0] == pytest.approx(-2.0 + 0j)
    assert path[-1] == pytest.approx(2.0 + 0j)
    for a, b in zip(path[:-1], path[1:]):
        ts = np.linspace(0.0, 1.0, 50)
        zs = a + (b - a) * ts
        # distance from the capsule segment
        d = np.abs(np.clip(zs.imag, -1.0, 1.0) * 1j - zs)
        assert np.all(d >= 0.3 - 1e-9)


def test_path_planner_respects_point_clearance():
    planner = PathPlanner(points=(0.0 + 0j,), clearance=0.5, capsules=())
    path = planner.route(-2.0 + 0j, 2.0 + 0j)
    for a, b in zip(path[:-1], path[1:]):
        zs = a + (b - a) * np.linspace(0.0, 1.0, 100)
        assert np.all(np.abs(zs) >= 0.5 - 1e-9)


# -- batched planner geometry against the scalar formulas it replaced -------

def _point_segment_scalar(p, a, b):
    """Distance from point p to segment a-b and the segment parameter of the
    closest point."""
    d = b - a
    L2 = (d * np.conj(d)).real
    if L2 == 0.0:
        return abs(p - a), 0.0
    t = ((p - a) * np.conj(d)).real / L2
    t = min(1.0, max(0.0, t))
    return abs(a + t * d - p), t


def _cross_scalar(o, p, q):
    return ((p - o) * np.conj(q - o)).imag


def _segments_intersect_scalar(a0, a1, b0, b1):
    d1 = _cross_scalar(b0, b1, a0)
    d2 = _cross_scalar(b0, b1, a1)
    d3 = _cross_scalar(a0, a1, b0)
    d4 = _cross_scalar(a0, a1, b1)
    return (d1 * d2 < 0.0) and (d3 * d4 < 0.0)


def _segment_segment_dist_scalar(a0, a1, b0, b1):
    if _segments_intersect_scalar(a0, a1, b0, b1):
        return 0.0
    return min(_point_segment_scalar(a0, b0, b1)[0],
               _point_segment_scalar(a1, b0, b1)[0],
               _point_segment_scalar(b0, a0, a1)[0],
               _point_segment_scalar(b1, a0, a1)[0])


def _edge_clear_scalar(points, clearance, capsules, u, v):
    for a, b, r in capsules:
        if _segment_segment_dist_scalar(u, v, a, b) < r:
            return False
    for p in points:
        if _point_segment_scalar(p, u, v)[0] < clearance:
            return False
    return True


def _free_scalar(points, clearance, capsules, z):
    if any(_point_segment_scalar(z, a, b)[0] < r for a, b, r in capsules):
        return False
    return all(abs(z - p) >= clearance for p in points)


def _random_scene(seed, n_caps=12, n_points=6, n_segs=700):
    rng = np.random.default_rng(seed)

    def cz(n):
        return [complex(x, y) for x, y in rng.uniform(-3.0, 3.0, (n, 2))]

    a, b = cz(n_caps), cz(n_caps)
    caps = [(a[k], b[k], float(r))
            for k, r in enumerate(rng.uniform(0.05, 0.6, n_caps))]
    points = cz(n_points)
    us, vs = cz(n_segs), cz(n_segs)
    # degenerate cases: a zero-length segment, collinear overlap with a
    # capsule axis, an endpoint shared with a capsule end, and a segment
    # passing a point obstacle at exactly the clearance
    caps.append((0j, 2.0 + 0j, 0.25))
    points.append(1.0 + 0.5j)
    us += [1.5 + 1.5j, -1.0 + 0j, 2.0 + 0j, 0.0 + 0j, 0.5 + 0j]
    vs += [1.5 + 1.5j, 1.0 + 0j, 2.0 + 3.0j, 2.0 + 0j, 1.5 + 0j]
    return points, 0.5, caps, us, vs


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_geometry_matches_scalar_formulas(seed):
    from susywkb.branch import _point_segment, _segment_segment_dist
    points, clearance, caps, us, vs = _random_scene(seed)
    a = np.array([c[0] for c in caps])
    b = np.array([c[1] for c in caps])
    U, V = np.array(us)[:, None], np.array(vs)[:, None]
    dist, t = _point_segment(U, a, b)
    want = [[_point_segment_scalar(u, ca, cb) for ca, cb, _ in caps]
            for u in us]
    assert np.array_equal(dist, [[d for d, _ in row] for row in want])
    assert np.array_equal(t, [[tt for _, tt in row] for row in want])
    seg = _segment_segment_dist(U, V, a, b)
    assert np.array_equal(seg, [[_segment_segment_dist_scalar(u, v, ca, cb)
                                 for ca, cb, _ in caps]
                                for u, v in zip(us, vs)])
    # the exact-clearance segment and the collinear overlap
    assert _point_segment(1.0 + 0.5j, 0.5 + 0j, 1.5 + 0j)[0] == 0.5
    assert _segment_segment_dist(-1.0 + 0j, 1.0 + 0j, 0j, 2.0 + 0j) == 0.0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_planner_tests_match_scalar_predicate(seed):
    points, clearance, caps, us, vs = _random_scene(seed)
    planner = PathPlanner(points=points, clearance=clearance, capsules=caps)
    got = planner.edge_clear(np.array(us), np.array(vs))
    want = [_edge_clear_scalar(points, clearance, caps, u, v)
            for u, v in zip(us, vs)]
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)
    # one segment at a time agrees with the batch
    assert [bool(planner.edge_clear(u, v)[0]) for u, v in zip(us, vs)] == want
    zs = us + [1.0 + 0.5j, 1.0 + 0.25j, 2.25 + 0j]
    free = planner._free(np.array(zs))
    assert free.tolist() == [_free_scalar(points, clearance, caps, z)
                             for z in zs]
    for z in zs:
        hit = planner._inside_capsule(z)
        first = next((k for k, (ca, cb, r) in enumerate(caps)
                      if _point_segment_scalar(z, ca, cb)[0] < r), None)
        if first is None:
            assert hit is None
            continue
        t = _point_segment_scalar(z, *caps[first][:2])[1]
        # the type too: a Python float at a segment end, else numpy's
        assert hit == (first, t) and type(hit[1]) is type(t)


# -- vectorized closer-root chain against the loop it replaced --------------

def _track_nodes_loop(P, w0, zs):
    from susywkb.branch import _PHASE_STEP, _coeffs, _root_cache
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
    ws = np.empty(len(zs), dtype=complex)
    ws[0] = w0
    for k in range(1, len(zs)):
        prev = ws[k - 1]
        if ok[k - 1]:
            ws[k] = s[k] if abs(s[k] - prev) <= abs(-s[k] - prev) else -s[k]
        else:
            ws[k] = continue_sqrt(P, prev, zs[k - 1], zs[k])
    return ws


def _chains():
    rng = np.random.default_rng(5)
    th = np.linspace(0.0, 2.0 * np.pi, 101)
    yield Polynomial([0.0, 1.0]), 1.0, np.exp(1j * th)
    th = np.linspace(0.0, 2.0 * np.pi, 201)
    yield (Polynomial([-1.0, 0.0, 1.0]), complex(np.sqrt(complex(8.0))),
           3.0 * np.exp(1j * th))
    # long chords passing 0.01 below both branch points force fallbacks
    yield (Polynomial([-1.0, 0.0, 1.0]), complex(np.sqrt(complex(3.0))),
           np.concatenate([np.linspace(2.0, -2.0, 9) - 0.01j,
                           np.linspace(-2.0, 2.0, 300) - 0.5j]))
    # |s[k] - s[k-1]| == |s[k] + s[k-1]| in rounding next to a node 1e-40
    # from the branch point, reached on either sign
    yield (Polynomial([0.0, 1.0]), -1.0,
           [1.0, 0.5, 1e-40, 2.0, 3.0, 1e-40, 4.0])
    for _ in range(4):
        P = Polynomial(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        zs = np.cumsum(0.3 * (rng.standard_normal(400)
                              + 1j * rng.standard_normal(400)))
        yield P, complex(np.sqrt(npoly.polyval(zs[0], P.coeffs))), zs


@pytest.mark.parametrize("case", range(8))
def test_track_nodes_equals_closer_root_loop(case):
    P, w0, zs = list(_chains())[case]
    assert np.array_equal(track_nodes(P, w0, zs), _track_nodes_loop(P, w0, zs))
