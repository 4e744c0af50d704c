"""Branch-tracked square roots, contour quadrature, and path planning."""

import heapq

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

import susywkb as sw
from susywkb import (BranchAmbiguityError, ConvergenceError, Polynomial,
                     branch, contours)
from susywkb.branch import (Contour, PathPlanner, SqrtIntegrand,
                            contour_integral, continue_along, _unit,
                            cut_segment_integral, track_nodes)
from susywkb.catalog import probe_energy
from susywkb.cpoly import find_roots
from susywkb.quadrature import refine_until


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
    w = continue_along(P, find_roots(P), 2.0, [0.0, 1.0 + 1j, -3.0, 0.0])
    assert w == pytest.approx(2.0)


def test_monodromy_single_branch_point_flips_sign():
    P = Polynomial([0.0, 1.0])          # sqrt(z), branch point at 0
    th = np.linspace(0.0, 2.0 * np.pi, 101)
    loop = np.exp(1j * th)
    ws = track_nodes(P, find_roots(P), 1.0, loop)
    assert ws[-1] == pytest.approx(-1.0)


def test_monodromy_two_branch_points_is_trivial():
    P = Polynomial([-1.0, 0.0, 1.0])    # sqrt(z^2 - 1)
    th = np.linspace(0.0, 2.0 * np.pi, 201)
    loop = 3.0 * np.exp(1j * th)
    w0 = complex(np.sqrt(complex(8.0)))
    ws = track_nodes(P, find_roots(P), w0, loop)
    assert ws[-1] == pytest.approx(w0)


def test_long_segment_passing_close_below_branch_points():
    # A single straight step can wind the radicand by nearly 2*pi while its
    # endpoint phases look close; the continuation must still land on the
    # sheet the fine-step reference picks.
    P = Polynomial([-1.0, 0.0, 1.0])
    path = [2.0 - 0.01j, -2.0 - 0.01j]
    w0 = complex(np.sqrt(complex(3.0)))
    got = continue_along(P, find_roots(P), w0, path)
    want = brute_continue(P.coeffs, w0, path)
    assert got == pytest.approx(want, rel=1e-9)


def test_continuation_is_path_independent_off_the_cuts():
    P = Polynomial([-1.0, 0.0, 0.0, 0.0, 1.0])  # roots at 1, -1, i, -i
    w0 = complex(np.sqrt(npoly.polyval(3.0 + 0j, P.coeffs)))
    upper = [3.0, 3.0 + 5j, -3.0 + 5j, -3.0]
    lower = [3.0, 3.0 - 5j, -3.0 - 5j, -3.0]
    roots = find_roots(P)
    assert continue_along(P, roots, w0, upper) == pytest.approx(
        continue_along(P, roots, w0, lower), rel=1e-10)


def test_continuation_through_branch_point_raises():
    P = Polynomial([0.0, 1.0])
    with pytest.raises(BranchAmbiguityError):
        continue_along(P, find_roots(P), 1.0, [1.0, -1.0])   # through z = 0


def unit_pole_integrand():
    # f = 1/y: w = sqrt(1) = 1, den = y, measure = 1
    P = Polynomial([1.0])
    return SqrtIntegrand(P=P, roots=find_roots(P), den=Polynomial([0.0, 1.0]),
                         measure=lambda y: np.ones_like(y),
                         anchor_point=1.0 + 0j, anchor_value=1.0 + 0j)


def test_contour_integral_simple_pole():
    c = Contour(center=0j, radius=1.0, anchor_path=(1.0 + 0j, 1.0 + 0j))
    val = contour_integral(c, unit_pole_integrand())
    assert val == pytest.approx(1j, abs=1e-12)


def test_contour_integral_no_singularity_is_zero():
    c = Contour(center=5.0 + 0j, radius=1.0, anchor_path=(6.0 + 0j, 6.0 + 0j))
    val = contour_integral(c, unit_pole_integrand())
    assert abs(val) < 1e-12


def test_odd_enclosed_branch_points_detected():
    P = Polynomial([0.0, 1.0])
    integrand = SqrtIntegrand(P=P, roots=find_roots(P), den=Polynomial([1.0]),
                              measure=lambda y: np.ones_like(y),
                              anchor_point=1.0 + 0j, anchor_value=1.0 + 0j)
    c = Contour(center=0j, radius=1.0, anchor_path=(1.0 + 0j, 1.0 + 0j))
    with pytest.raises(BranchAmbiguityError):
        contour_integral(c, integrand)


def test_cut_integral_matches_real_axis_quadrature():
    # w = sqrt(1 - z^2) just below the cut [-1, 1]; with den = 1 and unit
    # measure, (1/pi) * integral of sqrt(1 - x^2) over [-1, 1] = 1/2.
    P = Polynomial([1.0, 0.0, -1.0])
    roots = find_roots(P)
    integrand = SqrtIntegrand(P=P, roots=roots, den=Polynomial([1.0]),
                              measure=lambda y: np.ones_like(y),
                              anchor_point=0.0 - 0.01j, anchor_value=1.0 + 0j)
    w_mid = continue_along(P, roots, 1.0 + 0j, [0.0 - 0.01j, 0.0 + 0j])
    val = cut_segment_integral(integrand, -1.0 + 0j, 1.0 + 0j, w_mid)
    assert val == pytest.approx(0.5, abs=1e-10)


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


def test_unit_vector_does_not_depend_on_the_scalar_type():
    # escape feet are numpy scalars inside a segment and Python ones at its
    # ends; numpy's complex division rounds differently from Python's
    zs = np.random.default_rng(5).normal(size=(1000, 2)) @ [1.0, 1j]
    for z in zs:
        u = _unit(z)
        assert type(u) is complex
        assert u == _unit(complex(z)) == complex(z) / abs(complex(z))


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


def _ulps(x, k):
    """The float k steps from x (k < 0: below it)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, np.inf if k > 0 else -np.inf)
    return float(x)


def _boundary_scene(a, b, r, p, clearance):
    """A horizontal capsule a-b of radius r and a point obstacle p, with
    segments whose box gap to one of them is within a few ulp of r or of
    the clearance: beside the capsule, along its axis beyond each end,
    and ending short of p or passing beside it."""
    us, vs = [], []
    for k in range(-3, 4):
        for y in (_ulps(a.imag + r, k), _ulps(a.imag - r, -k)):
            us.append(complex(a.real + 0.2, y))
            vs.append(complex(b.real - 0.2, y))
        # beyond b and before a: the clamped foot a + 1*(b - a) can round
        # past b, so the exact distance can fall below the box gap
        x = _ulps(b.real + r, k)
        us.append(complex(x, a.imag))
        vs.append(complex(x + 1.0, a.imag))
        x = _ulps(a.real - r, -k)
        us.append(complex(x - 1.0, a.imag))
        vs.append(complex(x, a.imag))
        x = _ulps(p.real - clearance, -k)
        us.append(complex(a.real, p.imag))
        vs.append(complex(x, p.imag))
        y = _ulps(p.imag + clearance, k)
        us.append(complex(p.real - 1.0, y))
        vs.append(complex(p.real + 1.0, y))
    return [p], clearance, [(a, b, r)], us, vs


# Unit scale, and the scale of nonexact2's classical cut (y = 2.4 to 29.4).
BOUNDARY_SCENES = (
    _boundary_scene(0j, 2.0 + 0j, 0.25, 3.0 + 1.5j, 0.5),
    _boundary_scene(2.417 + 0j, 29.37 + 0j, 0.3, 29.37 + 1.5j, 0.5),
)


def _check_planner_tests(points, clearance, caps, us, vs):
    planner = PathPlanner(points=points, clearance=clearance, capsules=caps)
    got = planner.edge_clear(np.array(us), np.array(vs))
    want = [_edge_clear_scalar(points, clearance, caps, u, v)
            for u, v in zip(us, vs)]
    assert got.tolist() == want
    assert 0 < sum(want) < len(want)
    # one segment at a time agrees with the batch
    assert [bool(planner.edge_clear(u, v)[0]) for u, v in zip(us, vs)] == want
    return planner


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_planner_tests_match_scalar_predicate(seed):
    for scene in BOUNDARY_SCENES:
        _check_planner_tests(*scene)
    # The far scene holds decisions that only the box-gap margin keeps
    # exact: a gap of at least r whose exact distance, through the foot
    # a + 1*(b - a) that rounds past b, is below r.
    _, _, ((a, b, r),), us, vs = BOUNDARY_SCENES[1]
    assert a + 1.0 * (b - a) != b
    assert any(min(u.real, v.real) - b.real >= r
               and not _edge_clear_scalar([], 0.0, [(a, b, r)], u, v)
               for u, v in zip(us, vs))
    points, clearance, caps, us, vs = _random_scene(seed)
    planner = _check_planner_tests(points, clearance, caps, us, vs)
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
        assert hit == (first, t)


# -- memoized routes against the per-route search they replaced -------------

def _route_per_search(planner, z0, z1):
    """Route z0 -> z1 with one Dijkstra search of its own, as the planner
    did before it kept one search per source: escape both ends, extend
    both to visibility, then search from z0's tip to z1's tip, stopping
    when z1's tip is settled.  Returns the path and how it was found."""
    prefix = planner._escape(z0)
    suffix = planner._escape(z1)
    start, end = prefix[-1], suffix[-1]
    if planner.edge_clear(start, end)[0]:
        path = prefix + suffix[::-1][1:] if abs(start - end) == 0 \
            else prefix + suffix[::-1]
        return path, "direct"
    if planner._nodes is None:
        planner._build()
    prefix, _ = planner._extend_to_visibility(prefix)
    suffix, _ = planner._extend_to_visibility(suffix)
    start, end = prefix[-1], suffix[-1]
    if planner.edge_clear(start, end)[0]:
        return prefix + suffix[::-1], "extended"
    nodes = list(planner._nodes) + [start, end]
    si, ti = len(nodes) - 2, len(nodes) - 1
    adj = {i: list(e) for i, e in enumerate(planner._adj)}
    adj[si], adj[ti] = [], []
    sees = [(start, si, planner.edge_clear(start, planner._nodes)),
            (end, ti, planner.edge_clear(end, planner._nodes))]
    for i, z in enumerate(planner._nodes):
        for q, qi, clear in sees:
            if clear[i]:
                w = abs(q - z)
                adj[qi].append((i, w))
                adj[i].append((qi, w))
    dist = {si: 0.0}
    prev = {}
    heap = [(0.0, si)]
    seen = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in seen:
            continue
        seen.add(u)
        if u == ti:
            break
        for v, w in adj[u]:
            nd = d + w
            if nd < dist.get(v, np.inf):
                dist[v] = nd
                prev[v] = u
                heapq.heappush(heap, (nd, v))
    if ti not in seen:
        raise ConvergenceError("no admissible anchor path between contours")
    chain = [ti]
    while chain[-1] != si:
        chain.append(prev[chain[-1]])
    mid = [nodes[i] for i in reversed(chain)]
    return prefix[:-1] + mid + suffix[::-1][1:], "graph"


def _route_targets(ws, rng):
    """Start points of the workspace's pole circles and of its large
    circle, and a point a few clearances from each singularity."""
    out = [ws.pole_circle(p).start_point() for p in ws.poles]
    out.append(ws.big_radius + 0j)
    for s in ws.branch_points + ws.poles:
        ang = rng.uniform(0.0, 2.0 * np.pi, 1)
        out.extend(s + 2.5 * ws.clearance * np.exp(1j * ang))
    return out


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


def test_memoized_routes_equal_per_route_search():
    rng = np.random.default_rng(10)
    kinds = {"direct": 0, "extended": 0, "graph": 0, "raised": 0}
    for ws in _probe_workspaces():
        targets = _route_targets(ws, rng)
        classical = next(c for c in ws.cuts if c.kind == "classical")
        # Two planners share the anchor as source: trees must not
        # leak between planners with different obstacles.
        for cut in (None, classical):
            caps = [c for k, cs in ws.capsules.items() if k is not cut
                    for c in cs]
            memo = PathPlanner(ws.branch_points, ws.clearance, caps)
            ref = PathPlanner(ws.branch_points, ws.clearance, caps)
            for z0 in (ws.ya, ws.big_radius + 0j):
                for z1 in targets:
                    try:
                        want, kind = _route_per_search(ref, z0, z1)
                    except ConvergenceError:
                        kinds["raised"] += 1
                        continue
                    kinds[kind] += 1
                    got = memo.route(z0, z1)
                    assert len(got) == len(want)
                    assert all(complex(g) == complex(w)
                               for g, w in zip(got, want))
    assert kinds["graph"] >= 300 and kinds["direct"] >= 300, kinds
    assert kinds["extended"] >= 1, kinds


# -- one tracker against the recursive walk it replaced ---------------------

def _walk(P, roots, w0, z0, z1):
    """Continue w (w^2 = P) from w0 at z0 to z1 along the straight chord by
    recursive bisection, the tracker that track_nodes replaced: a piece is
    taken by the closer-root rule, with P evaluated as a scalar, once the
    exact winding of P over it is at most _PHASE_STEP."""

    def winding(za, zb):
        num, den = zb - roots, za - roots
        if np.any(num == 0.0) or np.any(den == 0.0):
            raise BranchAmbiguityError("sqrt continuation hit a branch point")
        return float(np.sum(np.angle(num / den)))

    def walk(za, zb, w, depth):
        if abs(winding(za, zb)) <= branch._PHASE_STEP:
            pb = complex(P(zb))
            if pb == 0.0:
                raise BranchAmbiguityError(
                    "sqrt continuation hit a branch point")
            s = np.sqrt(pb)
            return s if abs(s - w) <= abs(-s - w) else -s
        if depth >= branch._MAX_HALVE:
            raise BranchAmbiguityError("ambiguous sqrt continuation")
        zm = 0.5 * (za + zb)
        return walk(zm, zb, walk(za, zm, w, depth + 1), depth + 1)

    return walk(complex(z0), complex(z1), complex(w0), 0)


def _continue_along_per_segment(P, roots, w0, points):
    """Continuation along a polyline, one recursive walk per chord."""
    w = complex(w0)
    pts = [complex(p) for p in points]
    for a, b in zip(pts[:-1], pts[1:]):
        w = _walk(P, roots, w, a, b)
    return w


def _counting(P, counts):
    """P, adding the chords of every chain it is evaluated on to counts[0]:
    track_nodes evaluates P once, on the chain its halvings refined."""

    def at(z):
        if np.ndim(z):
            counts[0] += len(z) - 1
        return P(z)

    return at


# Measured: 1390 refined chords over the 18 workspaces' anchor paths, whose
# polylines have 558 chords.
CHAIN_CHORDS_MAX = 1390


def test_chain_continuation_equals_per_segment_loop(monkeypatch):
    # Every anchor path of a decomposition: the pole circles, the large
    # circle and the cut seeds, classical and other.
    along = branch.continue_along
    calls = []
    monkeypatch.setattr(branch, "continue_along", lambda *a: calls.append(a)
                        or along(*a))
    chords = [0]
    kinds = set()
    for ws in _probe_workspaces():
        calls.clear()
        contours._decompose(ws)
        assert len(calls) == len(ws.poles) + 1 + len(ws.cuts)
        kinds.update(c.kind for c in ws.cuts)
        for P, roots, w0, points in calls:
            want = _continue_along_per_segment(P, roots, w0, points)
            assert along(_counting(P, chords), roots, w0, points) == want
    assert {"classical", "mirror", "other"} <= kinds
    assert chords[0] <= CHAIN_CHORDS_MAX


def test_long_chord_close_to_a_root_equals_the_walk():
    # Length 56, passing 0.043 below the branch points at -1 and 1: the
    # chord needs about eleven halvings next to each.
    P = Polynomial([-1.0, 0.0, 1.0])
    roots = find_roots(P)
    path = [-27.0 - 0.043j, 29.0 - 0.043j]
    w0 = complex(np.sqrt(P(path[0])))
    chords = [0]
    got = continue_along(_counting(P, chords), roots, w0, path)
    assert got == _continue_along_per_segment(P, roots, w0, path)
    assert 20 <= chords[0] <= 60


def test_chord_through_a_root_raises():
    # the second halving of -1 -> 1 puts a node on the root at 0.5
    P = Polynomial([-0.5, 1.0])
    with pytest.raises(BranchAmbiguityError, match="hit a branch point"):
        track_nodes(P, np.array([0.5 + 0j]), 1j, [-1.0, 1.0])


def test_chord_grazing_a_root_raises_when_the_halvings_run_out():
    # _MAX_HALVE passes cut a chord of length 4 to pieces of 3.5e-18: enough
    # to pass a root at 1e-12, not one at 1e-20.
    P = Polynomial([-1.0, 0.0, 1.0])
    roots = np.array([-1.0 + 0j, 1.0 + 0j])
    path = [2.0 - 1e-12j, -2.0 - 1e-12j]
    w0 = complex(np.sqrt(P(path[0])))
    assert (continue_along(P, roots, w0, path)
            == _continue_along_per_segment(P, roots, w0, path))
    with pytest.raises(BranchAmbiguityError, match="too close"):
        track_nodes(P, roots, w0, [2.0 - 1e-20j, -2.0 - 1e-20j])


def test_circle_quadratures_converge_by_128_nodes(monkeypatch):
    seen = []

    def recording(fn, n0, nmax, tol, what):
        val = refine_until(fn, n0, nmax, tol, what)
        if what == "contour quadrature":
            seen.append((fn, val))
        return val

    monkeypatch.setattr(branch, "refine_until", recording)
    circles = 0
    for ws in _probe_workspaces():
        seen.clear()
        for pole in ws.poles:
            ws.pole_value(pole)
        ws.infinity_value()
        assert len(seen) == len(ws.poles) + 1
        circles += len(seen)
        for fn, val in seen:
            J = fn(1024)
            assert val == fn(128)
            assert abs(val - fn(64)) < branch.QUAD_TOL
            assert abs(val - J) <= 1e-13 * (1.0 + abs(J))
    assert circles >= 40


# -- vectorized closer-root chain against the node-by-node loop -------------

def _track_nodes_loop(P, roots, w0, zs):
    """The closer-root rule node by node.  Over a chord that winds P by more
    than _PHASE_STEP the sheet is the recursive walk's, and the value is
    still the vector s[k]."""
    from susywkb.branch import _PHASE_STEP
    zs = np.asarray(zs, dtype=complex)
    p = npoly.polyval(zs, P.coeffs).astype(complex)
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
        if not ok[k - 1]:
            prev = _walk(P, roots, prev, zs[k - 1], zs[k])
        ws[k] = s[k] if abs(s[k] - prev) <= abs(-s[k] - prev) else -s[k]
    return ws


def _chains():
    rng = np.random.default_rng(5)
    th = np.linspace(0.0, 2.0 * np.pi, 101)
    yield Polynomial([0.0, 1.0]), 1.0, np.exp(1j * th)
    th = np.linspace(0.0, 2.0 * np.pi, 201)
    yield (Polynomial([-1.0, 0.0, 1.0]), complex(np.sqrt(complex(8.0))),
           3.0 * np.exp(1j * th))
    # long chords passing 0.01 below both branch points need halvings
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
    roots = find_roots(P)
    assert np.array_equal(track_nodes(P, roots, w0, zs),
                          _track_nodes_loop(P, roots, w0, zs))

