"""Down-closed convex region geometry: hulls, half-planes, containment."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zickey import (REGION_TOL, ChannelParams, GridSpec, Region,
                    SchemeParams, UnboundedRegionError, containment_margin,
                    contains, distance_to_region, hull, intersect_halfplanes,
                    max_y_at_x, pareto_filter, polygon_points, scheme_point,
                    subset_of, sweep_regions)
from zickey.schemes import VARIANTS


def _verts(region):
    return np.asarray(region.vertices)


def test_hull_triangle():
    r = hull([(0, 0), (1, 0), (0, 1)])
    assert np.allclose(_verts(r), [[0, 0], [1, 0], [0, 1]])


def test_hull_two_boxes_pentagon():
    # corners of the boxes 0.5 x 0.7 and 1 x 0.5
    pts = [(0, 0), (0.5, 0), (0, 0.7), (0.5, 0.7),
           (1, 0), (0, 0.5), (1, 0.5)]
    r = hull(pts)
    assert np.allclose(_verts(r),
                       [[0, 0], [1, 0], [1, 0.5], [0.5, 0.7], [0, 0.7]],
                       atol=1e-12)


def test_hull_accepts_regions_and_mixed_input():
    a = hull([(1, 0), (0, 0.5)])
    b = hull([(0.2, 0.8)])
    c = hull([a, b, (0.9, 0.1)])
    for r in (a, b):
        assert subset_of(r, c, tol=1e-12)
    assert contains(c, (0.9, 0.1), tol=1e-12)


def test_hull_idempotent():
    rng = np.random.default_rng(11)
    for _ in range(20):
        pts = rng.uniform(0.0, 3.0, size=(30, 2))
        r = hull(pts)
        rr = hull(r)
        assert np.array_equal(_verts(r), _verts(rr))


def test_hull_contains_every_input_point():
    rng = np.random.default_rng(3)
    pts = rng.uniform(0.0, 5.0, size=(200, 2))
    r = hull(pts)
    assert containment_margin(r, pts) <= 1e-12


def test_hull_down_closed_and_convex():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.0, 2.0, size=(40, 2))
    r = hull(pts)
    v = _verts(r)
    # axis projections of every vertex stay inside
    for x, y in v:
        assert contains(r, (x, 0.0), tol=1e-12)
        assert contains(r, (0.0, y), tol=1e-12)
    # CCW convexity: no right turns
    n = len(v)
    for i in range(n):
        o, a, b = v[i], v[(i + 1) % n], v[(i + 2) % n]
        cross = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
        assert cross >= -1e-12


def test_hull_rejects_bad_input():
    with pytest.raises(ValueError):
        hull(np.zeros((0, 2)))
    with pytest.raises(ValueError):
        hull([(0.5, math.inf)])
    with pytest.raises(ValueError):
        hull([(-0.5, 0.2)])
    with pytest.raises(ValueError):
        hull(np.zeros((3, 4)))


def test_vertex_order_is_ccw_from_lexicographic_min():
    r = hull([(0, 0), (2, 0), (2, 1), (0, 1), (1, 1.3)])
    v = _verts(r)
    keys = [tuple(p) for p in v]
    assert keys[0] == min(keys)
    # shoelace area positive for CCW
    x, y = v[:, 0], v[:, 1]
    area = 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)
    assert area > 0


def test_no_negative_zero_in_vertices():
    r = hull([(0.0, 1.0), (1.0, 0.0), (1e-18, 0.5)])
    v = _verts(r)
    mask = v == 0.0
    assert not np.signbit(v[mask]).any()


def _reference_hull(pts):
    """Monotone-chain hull of the Pareto front, its axis projections and
    the origin, points collinear in exact arithmetic dropped, CCW from the
    lexicographic minimum.
    """
    front = pareto_filter(np.maximum(pts, 0.0))
    zeros = np.zeros(len(front))
    p = np.vstack([front, np.column_stack([front[:, 0], zeros]),
                   np.column_stack([zeros, front[:, 1]]), [[0.0, 0.0]]]) + 0.0
    p = p[np.lexsort((p[:, 1], p[:, 0]))]
    p = p[np.r_[True, np.any(p[1:] != p[:-1], axis=1)]]
    if len(p) <= 2:
        return p

    def turn(o, a, b):  # in rationals of the floats
        o, a, b = ([Fraction(v) for v in p] for p in (o, a, b))
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for q in seq:
            while len(out) >= 2 and turn(out[-2], out[-1], q) <= 0.0:
                out.pop()
            out.append(q)
        return out[:-1]

    p = p.tolist()
    return np.array(chain(p) + chain(reversed(p)))


@st.composite
def _clouds(draw):
    # ties come from a shared pool of coordinates, axis points from zeros
    mag = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-150, 1e150))
    pool = draw(st.lists(mag, min_size=1, max_size=8))
    coord = st.one_of(st.sampled_from(pool), mag)
    return draw(st.lists(st.tuples(coord, coord), min_size=1, max_size=40))


@settings(max_examples=300, deadline=None)
@given(_clouds())
def test_hull_walk_matches_monotone_chain(rows):
    pts = np.array(rows)
    got, want = _verts(hull(pts)), _reference_hull(pts)
    assert got.shape == want.shape and got.tobytes() == want.tobytes(), rows


def _exact(*points):
    return [tuple(Fraction(c) for c in p) for p in points]


def _turn(o, a, b):
    """(a - o) x (b - o) in rationals: > 0 where o, a, b turn left."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _assert_strictly_convex(v):
    """Every vertex of a polygon turns left, in exact arithmetic."""
    q = _exact(*v.tolist())
    if len(q) >= 3:
        for a, b, c in zip(q[-1:] + q[:-1], q, q[1:] + q[:1]):
            assert _turn(a, b, c) > 0, (v.tolist(), b)


def _assert_inside_every_edge(v, points):
    """Each point lies on the inner side of every edge, however short, in
    exact arithmetic (no tolerance)."""
    q = _exact(*v.tolist())
    for p in _exact(*points):
        for a, b in zip(q, q[1:] + q[:1]):
            assert _turn(a, b, p) >= 0, (v.tolist(), p, a, b)


# coarse_batch seed 2701 of the benchmark: the rate_splitting front holds
# (1.1813378716081595, 1.7807321500520703) and
# (1.1813378716081593, 1.7807321500520705); the float cross product there
# rounded to the wrong sign, so the hull kept a vertex that bends inwards,
# and the line of its one-ulp edge cut off the region's own corner
# (3.5747, 0)
ULP_CHANNEL = ChannelParams(h11=1.8187217784616612, h22=0.34765217594441256,
                            h21=0.2745623503443858, p1=42.61577535003615,
                            p2=147.89799859641136, rk=0.4243706857242967)


def test_hull_is_strictly_convex_where_floats_round_the_turn_wrongly():
    coarse = GridSpec(n_lambda1=9, n_lambda2=9, n_beta1=9, n_beta2=9,
                      n_eta=7)
    grid_point = SchemeParams(lambda1=1.0, lambda2=0.0, beta1=1.0, beta2=0.0,
                              eta=1.0)
    for scheme, region in sweep_regions(ULP_CHANNEL, VARIANTS,
                                        coarse).items():
        _assert_strictly_convex(region.vertices)
        rc = scheme_point(ULP_CHANNEL, scheme, grid_point)
        corners = polygon_points(rc.r1_cap, rc.r2_cap, rc.sum_cap).tolist()
        _assert_inside_every_edge(region.vertices, corners)


def _nudged(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


@st.composite
def _near_degenerate(draw):
    # points rounded onto a falling line, and points a few ulps from them
    mag = st.floats(1e-3, 1e3)
    (x0, x1), (y0, y1) = sorted(draw(st.tuples(mag, mag))), \
        sorted(draw(st.tuples(mag, mag)), reverse=True)
    ts = draw(st.lists(st.floats(0.0, 1.0), max_size=20))
    pts = [(x0, y0), (x1, y1)] + [(x0 + t * (x1 - x0), y0 + t * (y1 - y0))
                                  for t in ts]
    ulps = st.integers(-3, 3)
    for i, dx, dy in draw(st.lists(st.tuples(
            st.integers(0, len(pts) - 1), ulps, ulps), max_size=20)):
        pts.append((_nudged(pts[i][0], dx), _nudged(pts[i][1], dy)))
    return pts


@settings(max_examples=300, deadline=None)
@given(_near_degenerate())
def test_hull_of_near_collinear_points_is_strictly_convex(rows):
    v = _verts(hull(np.array(rows)))
    _assert_strictly_convex(v)
    _assert_inside_every_edge(v, rows)


def test_hull_of_tiny_point_is_a_square():
    # products of 1e-300 coordinates underflow; the walk takes none of them
    v = _verts(hull([[1e-300, 1e-300]]))
    assert v.tolist() == [[0.0, 0.0], [1e-300, 0.0], [1e-300, 1e-300],
                          [0.0, 1e-300]]


def test_intersect_contains_vertex_projections_exactly():
    r = intersect_halfplanes(
        hull(np.random.default_rng(4).uniform(0, 3, (30, 2))).halfplanes)
    for x, y in _verts(r):
        assert contains(r, (x, 0.0), tol=0.0)
        assert contains(r, (0.0, y), tol=0.0)


def test_intersect_unit_square():
    r = intersect_halfplanes([(1, 0, 1), (0, 1, 1)])
    assert np.allclose(_verts(r), [[0, 0], [1, 0], [1, 1], [0, 1]])


def test_intersect_pentagon_with_sum_face():
    r = intersect_halfplanes([(1, 0, 1), (0, 1, 0.5), (1, 1, 1.2)])
    assert np.allclose(_verts(r),
                       [[0, 0], [1, 0], [1, 0.2], [0.7, 0.5], [0, 0.5]],
                       atol=1e-12)


def test_intersect_redundant_sum_face_dropped():
    alpha = 0.4
    r = intersect_halfplanes([(1, 0, 1), (0, 1, 1 - alpha),
                              (1, 1, 2 - alpha)])
    # 1 + (1 - alpha) == 2 - alpha: the sum face grazes the corner
    assert np.allclose(_verts(r), [[0, 0], [1, 0], [1, 0.6], [0, 0.6]],
                       atol=1e-12)


def test_intersect_unbounded_raises():
    with pytest.raises(UnboundedRegionError):
        intersect_halfplanes([(1, 0, 1)])  # y unbounded
    with pytest.raises(UnboundedRegionError):
        intersect_halfplanes([(0, 1, 1)])  # x unbounded


def test_intersect_empty_raises():
    with pytest.raises(ValueError):
        intersect_halfplanes([(1, 0, -1), (0, 1, 1)])
    with pytest.raises(ValueError):
        intersect_halfplanes([(0, 0, 1), (1, 1, 1)])  # degenerate normal


def test_contains_tolerance():
    square = intersect_halfplanes([(1, 0, 1), (0, 1, 1)])
    assert contains(square, (0.5, 0.5), tol=0.0)
    assert contains(square, (1 + 1e-10, 0.0), tol=1e-9)
    assert not contains(square, (1 + 1e-6, 0.0), tol=1e-9)
    tri = hull([(0, 0), (1, 0), (0, 1)])
    assert not contains(tri, (0.6, 0.6), tol=1e-9)


def test_subset_reflexive_and_strict():
    tri = hull([(0, 0), (1, 0), (0, 1)])
    square = intersect_halfplanes([(1, 0, 1), (0, 1, 1)])
    assert subset_of(tri, tri, tol=0.0)
    assert subset_of(square, square, tol=0.0)
    assert subset_of(tri, square, tol=0.0)
    assert not subset_of(square, tri, tol=1e-9)


def test_subset_transitive_on_random_nests():
    rng = np.random.default_rng(19)
    for _ in range(10):
        pts = rng.uniform(0.0, 4.0, size=(25, 2))
        c = hull(pts)
        b = hull(0.8 * pts)
        a = hull(0.5 * pts)
        assert subset_of(a, b, tol=1e-12) and subset_of(b, c, tol=1e-12)
        assert subset_of(a, c, tol=1e-12)


def test_halfplane_roundtrip_reproduces_hull():
    rng = np.random.default_rng(23)
    for _ in range(15):
        pts = rng.uniform(0.0, 3.0, size=(20, 2))
        r = hull(pts)
        planes = [p for p in r.halfplanes if p[0] > -1e-15 and p[1] > -1e-15]
        rr = intersect_halfplanes(planes)
        assert len(_verts(r)) == len(_verts(rr))
        assert np.allclose(_verts(r), _verts(rr), atol=1e-12)


def test_degenerate_regions():
    origin = hull([(0.0, 0.0)])
    assert np.allclose(_verts(origin), [[0.0, 0.0]])
    assert contains(origin, (0, 0), tol=0.0)
    seg = hull([(2.0, 0.0)])  # down-closure keeps it an axis segment
    assert contains(seg, (1.0, 0.0), tol=1e-12)
    assert not contains(seg, (1.0, 0.5), tol=1e-9)
    assert seg.max_x == 2.0 and seg.max_y == 0.0


def test_tiny_region_keeps_its_faces():
    # edges shorter than GEOM_TOL still bound a region of their own size
    r = hull([[7e-13, 7e-13]])
    assert len(r.halfplanes) == 4
    assert contains(r, (7e-13, 7e-13), tol=0.0)
    assert not contains(r, (5.0, 5.0))
    assert not contains(r, (8e-13, 0.0), tol=0.0)
    assert not subset_of(hull([[3.0, 3.0]]), r)


def test_default_tolerance_scales_with_a_tiny_region():
    # an absolute 1e-9 would take in points 700 times the region's size
    r = hull([[7e-13, 7e-13]])
    assert not contains(r, (5e-10, 5e-10))
    assert not subset_of(hull([[5e-10, 5e-10]]), r)
    assert contains(r, (7e-13 * (1 + 1e-12), 7e-13))
    assert subset_of(r, hull([[7e-13 * (1 - 1e-12), 7e-13]]))
    # regions of scale 1 or more keep the absolute REGION_TOL
    square = hull([[1.0, 1.0]])
    assert contains(square, (1 + 0.9 * REGION_TOL, 0.5))
    assert not contains(square, (1 + 1.1 * REGION_TOL, 0.5))
    assert subset_of(hull([[1 + 0.9 * REGION_TOL, 1.0]]), square)


def test_pareto_filter_drops_dominated():
    pts = np.array([[1.0, 1.0], [0.5, 0.5], [2.0, 0.1], [0.1, 2.0],
                    [1.0, 0.9]])
    kept = pareto_filter(pts)
    kept_set = {tuple(p) for p in kept}
    assert kept_set == {(1.0, 1.0), (2.0, 0.1), (0.1, 2.0)}
    # survivors preserve the hull of the down-closed set
    assert np.array_equal(_verts(hull(pts)), _verts(hull(kept)))


def test_max_y_at_x():
    r = intersect_halfplanes([(1, 0, 1), (0, 1, 0.5), (1, 1, 1.2)])
    assert max_y_at_x(r, 0.0) == pytest.approx(0.5, abs=1e-12)
    assert max_y_at_x(r, 0.7) == pytest.approx(0.5, abs=1e-12)
    assert max_y_at_x(r, 1.0) == pytest.approx(0.2, abs=1e-12)
    assert max_y_at_x(r, 0.9) == pytest.approx(0.3, abs=1e-12)
    assert max_y_at_x(r, 1.5) is None
    assert max_y_at_x(r, -0.5) is None


def test_distance_to_region():
    square = intersect_halfplanes([(1, 0, 1), (0, 1, 1)])
    assert distance_to_region(square, (0.3, 0.9)) == 0.0
    assert distance_to_region(square, (2.0, 0.5)) == pytest.approx(1.0, abs=1e-12)
    assert distance_to_region(square, (2.0, 2.0)) == pytest.approx(math.sqrt(2), abs=1e-12)


@pytest.mark.parametrize("s", [1.0, 1e-5, 1e-7, 1e-12, 1e-200, 1e-300])
def test_distance_to_small_region_scales_with_it(s):
    # the nearest point of the hull to (2s, 2s) is (3s/4, 3s/4), the middle
    # of its edge from (s, s/2) to (s/2, s)
    region = hull([(s, s / 2), (s / 2, s)])
    assert len(region.vertices) == 5  # no corner lost to an underflow
    want = math.hypot(1.25 * s, 1.25 * s)
    assert distance_to_region(region, (2 * s, 2 * s)) == \
        pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("s", [1e5, 1e154, 1e160, 1e200, 1e300])
def test_distance_to_large_region_scales_with_it(s):
    # dx*dx + dy*dy of an edge would overflow above about 1e154
    region = hull([(s, s / 2), (s / 2, s)])
    assert len(region.vertices) == 5
    want = math.hypot(1.25 * s, 1.25 * s)
    assert distance_to_region(region, (2 * s, 2 * s)) == \
        pytest.approx(want, rel=1e-12)


def test_hull_and_distance_commute_with_powers_of_two():
    # hull(2**k P) is 2**k hull(P), faces included, and distances scale
    # alike, wherever no coordinate leaves the normal range
    rng = np.random.default_rng(9)
    sets = [rng.random((n, 2)) * rng.uniform(0.5, 4.0)
            for n in (1, 2, 3, 5, 8, 20, 60) for _ in range(3)]
    # points inside, and points at least 0.1 outside
    queries = [rng.random(2) * np.where(rng.random() < 0.3, 0.2, 1.0)
               + np.where(rng.random() < 0.3, 0.0, p.max(axis=0) + 0.1)
               for p in sets]
    regions = [hull(p) for p in sets]
    dists = [distance_to_region(r, q) for r, q in zip(regions, queries)]
    assert 0.0 in dists and max(dists) > 0.0
    for k in [*range(-1000, 1001, 9), 1000]:
        for pts, region, q, d in zip(sets, regions, queries, dists):
            got = hull(np.ldexp(pts, k))
            assert got.vertices.tobytes() == \
                np.ldexp(region.vertices, k).tobytes(), (k, pts)
            assert got.halfplanes == tuple(
                (a, b, math.ldexp(c, k)) for a, b, c in region.halfplanes), k
            assert distance_to_region(got, np.ldexp(q, k)) == \
                math.ldexp(d, k), (k, pts, q)


@pytest.mark.parametrize("s", [1.0, 1e-5, 1e-12])
def test_max_y_at_x_tolerance_scales_with_the_region(s):
    # REGION_TOL of slack would let x = 1.5 max_x in at s = 1e-12
    region = hull([(s, s / 2), (s / 2, s)])
    assert region.max_x == s
    assert max_y_at_x(region, 1.5 * s) is None
    assert max_y_at_x(region, s) == pytest.approx(s / 2, rel=1e-12)
    assert max_y_at_x(region, 1.5 * s, tol=s) == 0.0


def test_containment_margin_sign():
    square = intersect_halfplanes([(1, 0, 1), (0, 1, 1)])
    inside = np.array([[0.5, 0.5], [1.0, 1.0]])
    outside = np.array([[1.25, 0.0]])
    assert containment_margin(square, inside) <= 1e-12
    assert containment_margin(square, outside) == pytest.approx(0.25, abs=1e-12)


def test_max_extent_properties():
    r = intersect_halfplanes([(1, 0, 2), (0, 1, 1), (1, 1, 2.5)])
    assert r.max_x == pytest.approx(2.0, abs=1e-12)
    assert r.max_y == pytest.approx(1.0, abs=1e-12)
    assert r.max_sum == pytest.approx(2.5, abs=1e-12)
    assert isinstance(r, Region)
