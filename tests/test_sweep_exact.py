"""The fast sweep against plain brute force, bit for bit.

sweep_region computes the eta-free key-splitting terms of every scheme, the
unlayered ones at lambda1 = lambda2 = 1, one block at a time, just before
the block is used, and emits two corners per rate polygon. It drops a
polygon when its running Pareto front, bucketed by x, already holds a point
above both its corners; an empty front is first seeded with the polygons
of the largest corner bounds. Both sweeps bound each block over every key
fraction at once: max_sum_rate evaluates only the polygons whose bound
reaches its best sum rate so far, sweep_region only those whose bounded
corners no front point matches. Groups of more than CHUNK // 2 polygons
walk cells of power splits best bound first: sweep_regions builds only
the cells whose bound the front of some scheme does not dominate,
max_sum_rates only those whose bound reaches the best sum rate so far of
some scheme and key rate; smaller groups are one block. Both build each
block and each batch of cells once for every scheme that shares it, at
every key rate. Each step is checked here against a literal, unoptimized
version of itself kept in this file.
"""

import contextlib
import dataclasses
import functools
import math
import tracemalloc
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zickey import (ChannelParams, DomainError, GridSpec, SchemeParams,
                    max_sum_rate, scheme_point)
from zickey import geometry, schemes, sweep_region, verify
from zickey.geometry import hull, pareto_filter, staircase
from zickey.schemes import (SCHEMES, VARIANTS, _key_bound,
                            _key_splitting_base, _key_splitting_cells,
                            _key_splitting_eta, _tiles, gdof_split_lambda2,
                            max_sum_rates, polygon_points, sweep_regions)

SHOWCASE = [ChannelParams(1, 1, h21, 100, 100, rk=rk)
            for h21 in (0.6, 0.8, 1.2) for rk in (0.2, 1.0, 2.0)]
EDGE = [ChannelParams(1, 1, 0.0, 100, 100, rk=1.0),     # no cross link
        ChannelParams(1, 1, 0.6, 0.0, 100, rk=1.0),     # silent user 1
        ChannelParams(1.3, 0.7, 0.0, 0.0, 20, rk=0.3)]
# tiny P1, huge P2: many polygons come close to the best sum rate
CROWDED = [ChannelParams(1, 1, h21, 1e-9, 1e9, rk=rk)
           for h21 in (0.6, 1.2) for rk in (0.0, 0.7, 30.0)]
# powers at the ends of the range the sweeps are checked on, a silent
# user 1 and no cross link
EXTREME = [ChannelParams(1, 1, 0.6, 1e-12, 1e15, rk=0.5),
           ChannelParams(1.2, 0.8, 1.1, 1e15, 1e-12, rk=3.0),
           ChannelParams(0.9, 1.1, 0.7, 0.0, 1e15, rk=1.0),
           ChannelParams(1, 1, 0.0, 1e15, 1e15, rk=2.0)]
GRID17 = GridSpec(n_lambda1=17, n_lambda2=17, n_beta1=17, n_beta2=17,
                  n_eta=17)


def _c(x):
    return 0.5 * np.log2(1.0 + x)


def _ref_caps(ch, lam1, lam2, b1, b2, eta):
    """Key-splitting caps, every term computed at each eta."""
    g11, g22, g21 = ch.h11**2, ch.h22**2, ch.h21**2
    p1m = lam1 * b1 * ch.p1
    p1a = (1.0 - lam1) * b1 * ch.p1
    p2p = lam2 * b2 * ch.p2
    p2c = (1.0 - lam2) * b2 * ch.p2
    n1 = 1.0 + g11 * p1a + g21 * p2p
    r1 = _c(g11 * p1m / n1)
    leak = _c(g21 * p2p / (1.0 + g11 * p1a))
    term_c = np.minimum(np.minimum(_c(g21 * p2c / n1),
                                   _c(g22 * p2c / (1.0 + g22 * p2p))),
                        eta * ch.rk)
    cap_priv = _c(g22 * p2p)
    term_p = np.maximum(0.0, np.minimum(cap_priv,
                                        cap_priv - leak + (1.0 - eta) * ch.rk))
    r2 = term_c + term_p
    rsum = _c((g11 * p1m + g21 * p2c) / n1) + term_p
    return np.broadcast_arrays(r1, r2, rsum)


def _ref_unlayered_caps(ch, scheme, b1, b2):
    """(r1, r2) caps of the schemes without layers or key split."""
    g11, g22, g21 = ch.h11**2, ch.h22**2, ch.h21**2
    q1 = b1 * ch.p1
    q2 = b2 * ch.p2
    r1 = _c(g11 * q1 / (1.0 + g21 * q2))
    cap2 = _c(g22 * q2)
    if scheme == "one_time_pad":
        return r1, np.minimum(ch.rk, cap2)
    return r1, np.maximum(0.0, np.minimum(cap2, cap2 - _c(g21 * q2) + ch.rk))


# the axes each scheme holds at 1, restated
PINS = {"key_splitting": (), "rate_splitting": ("eta",),
        "rate_splitting_no_an": ("lambda1", "eta"),
        "key_as_wiretap": ("lambda1", "lambda2", "eta"),
        "one_time_pad": ("lambda1", "lambda2", "eta")}


def test_scheme_point_matches_the_restated_caps():
    assert list(PINS) == list(VARIANTS)
    rng = np.random.default_rng(19)
    for ch in SHOWCASE + EDGE + CROWDED + EXTREME:
        for _ in range(12):
            # each axis uniform, or at an end of [0, 1]
            values = np.where(rng.random(5) < 0.3, rng.integers(0, 2, 5),
                              rng.random(5))
            sp = SchemeParams(*values)
            for scheme, pins in PINS.items():
                at = dataclasses.replace(sp, **dict.fromkeys(pins, 1.0))
                if "lambda2" in pins:
                    want = (*_ref_unlayered_caps(ch, scheme, at.beta1,
                                                 at.beta2), math.inf)
                else:
                    want = _ref_caps(ch, at.lambda1, at.lambda2, at.beta1,
                                     at.beta2, at.eta)
                rc = scheme_point(ch, scheme, sp)
                got = (rc.r1_cap, rc.r2_cap, rc.sum_cap)
                assert [float(v).hex() for v in got] == \
                    [float(v).hex() for v in want], (ch, sp, scheme)


def _ref_polygon_points(a, b, c):
    """All four corners of every polygon {R1<=a, R2<=b, R1+R2<=c}."""
    a, b, c = (v.ravel() for v in np.broadcast_arrays(a, b, c))
    ax = np.minimum(a, c)
    by = np.minimum(b, c)
    zeros = np.zeros_like(ax)
    with np.errstate(invalid="ignore"):
        v3y = np.clip(c - ax, 0.0, by)
        v4x = np.clip(c - by, 0.0, ax)
    return np.vstack([np.column_stack([ax, zeros]), np.column_stack([zeros, by]),
                      np.column_stack([ax, v3y]), np.column_stack([v4x, by])])


def _ref_sort_filter(pts):
    """Points whose y beats every point of larger x, by one plain sort."""
    p = pts[np.argsort(-pts[:, 0])]
    ymax = np.maximum.accumulate(p[:, 1])
    keep = np.concatenate([[True], p[1:, 1] > ymax[:-1]])
    return p[keep]


def _axes(ch, scheme, grid):
    lam1 = np.linspace(0.0, 1.0, grid.n_lambda1) \
        if scheme != "rate_splitting_no_an" else np.array([1.0])
    lam2 = np.unique(np.concatenate([np.linspace(0.0, 1.0, grid.n_lambda2),
                                     [gdof_split_lambda2(ch)]]))
    eta = np.linspace(0.0, 1.0, grid.n_eta) if scheme == "key_splitting" \
        else np.array([1.0])
    return (lam1[:, None, None, None],
            lam2[None, :, None, None],
            np.linspace(0.0, 1.0, grid.n_beta1)[None, None, :, None],
            np.linspace(0.0, 1.0, grid.n_beta2)[None, None, None, :], eta)


def _ref_slices(ch, scheme, grid):
    if scheme in ("key_as_wiretap", "one_time_pad"):
        b1 = np.linspace(0.0, 1.0, grid.n_beta1)[:, None]
        b2 = np.linspace(0.0, 1.0, grid.n_beta2)[None, :]
        return [(*_ref_unlayered_caps(ch, scheme, b1, b2), math.inf)]
    l1, l2, b1, b2, eta = _axes(ch, scheme, grid)
    return [_ref_caps(ch, l1, l2, b1, b2, float(e)) for e in eta]


def _maxima(pts):
    """The distinct points no other distinct point matches in x and y."""
    u = np.unique(pts.reshape(-1, 2), axis=0)
    ge = (u[None, :, 0] >= u[:, None, 0]) & (u[None, :, 1] >= u[:, None, 1])
    return u[ge.sum(axis=1) == 1]  # only the point itself


def _assert_exact(pts):
    kept = pareto_filter(pts)
    assert len(np.unique(kept, axis=0)) == len(kept)  # one of equal points
    assert np.array_equal(np.unique(kept, axis=0), _maxima(pts))
    assert np.all(np.diff(kept[:, 0]) < 0)  # sorted by decreasing x
    return kept


coord = st.one_of(st.floats(0.0, 10.0, allow_nan=False),
                  st.sampled_from([0.0, 0.5, 1.0, 2.0]))  # forces ties
# the staircase puts every x < 0 in its first bucket
signed = st.one_of(coord, st.floats(-10.0, 0.0, allow_nan=False),
                   st.sampled_from([-1.0, -0.5]))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(signed, signed), max_size=120))
def test_pareto_filter_matches_brute_force(rows):
    _assert_exact(np.array(rows, dtype=float).reshape(-1, 2))


def test_pareto_filter_large_inputs():
    rng = np.random.default_rng(3)
    n = 66_535
    # few distinct values: ties in x, duplicates, equal y across buckets
    grid_pts = rng.integers(0, 60, size=(n, 2)) / 7.0
    _assert_exact(grid_pts)
    same_x = np.column_stack([np.full(n, 0.25), grid_pts[:, 1]])
    assert np.array_equal(_assert_exact(same_x), [[0.25, same_x[:, 1].max()]])
    _assert_exact(np.zeros((n, 2)))
    _assert_exact(np.zeros((0, 2)))
    # continuous values
    cloud = rng.random((n, 2)) ** 0.2
    assert np.array_equal(np.unique(pareto_filter(cloud), axis=0),
                          np.unique(_ref_sort_filter(cloud), axis=0))


def test_hoisted_caps_are_bitwise_equal():
    for ch in SHOWCASE[:3] + EDGE:
        l1, l2, b1, b2, eta = _axes(ch, "key_splitting",
                                    GridSpec(9, 9, 9, 9, n_eta=21))
        base = _key_splitting_base(ch, l1, l2, b1, b2)
        for e in eta:
            got = np.broadcast_arrays(*_key_splitting_eta(ch, base, float(e)))
            want = _ref_caps(ch, l1, l2, b1, b2, float(e))
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes(), (ch, e)


def _ref_region(ch, scheme, grid):
    """Brute-force vertex bytes, Pareto front bytes and best sum rate of a
    channel on a grid. The front is that of every corner of every polygon,
    one slice's corners thinned by a plain sort at a time."""
    slices = _ref_slices(ch, scheme, grid)
    corners = np.vstack([_ref_sort_filter(_ref_polygon_points(*s))
                         for s in slices])
    best = max(float(np.minimum(rsum, r1 + r2).max())
               for r1, r2, rsum in slices)
    return (hull(corners).vertices.tobytes(),
            pareto_filter(corners).tobytes(), best)


@functools.lru_cache(maxsize=None)
def _ref_sweep(i, scheme):
    """_ref_region of channel i of SHOWCASE + EDGE on GRID17, built once."""
    return _ref_region((SHOWCASE + EDGE)[i], scheme, GRID17)


def _sweep_with_front(ch, scheme, grid):
    """sweep_region's vertex bytes and the bytes of the front it hulls."""
    with mock.patch.object(schemes, "hull", wraps=hull) as spy:
        region = sweep_region(ch, scheme, grid)
    return region.vertices.tobytes(), spy.call_args.args[0].tobytes()


def _assert_matches_brute_force(ch, scheme, grid, ref, *context):
    want, front, best = ref
    got, got_front = _sweep_with_front(ch, scheme, grid)
    # the front holds every Pareto-optimal corner, so a polygon dropped in
    # error shows here even where the hull does not move
    assert got_front == front, (*context, ch, scheme)
    assert got == want, (*context, ch, scheme)
    assert max_sum_rate(ch, scheme, grid) == best, (*context, ch, scheme)


def test_sweep_matches_brute_force_sweep():
    for i, ch in enumerate(SHOWCASE + EDGE):
        for scheme in VARIANTS:
            _assert_matches_brute_force(ch, scheme, GRID17,
                                        _ref_sweep(i, scheme))


def test_crowded_sweep_matches_brute_force_row_by_row():
    # more polygons than CHUNK // 2: the layered schemes walk cells, in
    # batches of about one lambda1 row, so that the key-fraction bound runs
    # on every batch but the first cell, against a crowded front
    grid = GridSpec(n_lambda1=9, n_lambda2=9, n_beta1=9, n_beta2=9)
    with mock.patch.object(schemes, "CHUNK", 10 * 9 * 9):
        for ch in CROWDED:
            for scheme in SCHEMES:
                _assert_matches_brute_force(ch, scheme, grid,
                                            _ref_region(ch, scheme, grid))


ROW17 = 18 * 17 * 17  # polygons in one lambda1 row of GRID17 (gdof split on)


@pytest.mark.parametrize("name, value", [
    # groups of more than CHUNK // 2 polygons walk cells, the rest are
    # one block
    ("CHUNK", 1),                 # every group walks, one cell per batch
    ("CHUNK", 5 * ROW17 + 7),     # the layered regions in batches of 13,008
    ("CHUNK", 10**9),             # one block per group
    ("STAIR_BINS", 1),            # one bucket: the staircase drops nothing
    ("STAIR_BINS", 2),
    ("STAIR_BINS", 7),
])
def test_blocked_sweep_matches_brute_force(name, value):
    owner = geometry if name == "STAIR_BINS" else schemes
    with mock.patch.object(owner, name, value):
        for i, ch in enumerate(SHOWCASE + EDGE):
            for scheme in SCHEMES:
                _assert_matches_brute_force(ch, scheme, GRID17,
                                            _ref_sweep(i, scheme), name, value)


NINE = GridSpec(n_lambda1=9, n_lambda2=9, n_beta1=9, n_beta2=9)


@functools.lru_cache(maxsize=None)
def _ref_crowded(i, scheme):
    """_ref_region of channel i of CROWDED on the 9-point grid, built once."""
    return _ref_region(CROWDED[i], scheme, NINE)


@pytest.mark.parametrize("tile", [1, schemes.TILE, 10**6])
def test_cell_walk_matches_brute_force(tile):
    # every polygon its own cell, the default tiles, and one cell spanning
    # the grid; GRID17's layered groups walk cells, and so does the 9-point
    # grid of CROWDED once CHUNK // 2 is below its polygon count
    with mock.patch.object(schemes, "TILE", tile):
        for i, ch in enumerate(SHOWCASE + EDGE):
            for scheme in ("key_splitting", "rate_splitting"):
                _assert_matches_brute_force(ch, scheme, GRID17,
                                            _ref_sweep(i, scheme), tile)
        with mock.patch.object(schemes, "CHUNK", 10 * 9 * 9):
            for i, ch in enumerate(CROWDED):
                for scheme in ("key_splitting", "rate_splitting",
                               "rate_splitting_no_an"):
                    _assert_matches_brute_force(ch, scheme, NINE,
                                                _ref_crowded(i, scheme), tile)


COARSE = GridSpec(n_lambda1=9, n_lambda2=9, n_beta1=9, n_beta2=9, n_eta=7)


@pytest.mark.parametrize("grid", [COARSE, verify._GRID, GRID17],
                         ids=["coarse", "verify", "17"])
def test_seeded_fronts_equal_the_unseeded_ones(grid):
    # an empty front first takes the SEED_POLYGONS polygons of the largest
    # corner bounds, then the rest of the block against them; the Pareto
    # set of every corner does not hang on that order, so the fronts and
    # regions are the bytes of a sweep without seeds
    for ch in SHOWCASE + EDGE + CROWDED:
        runs = []
        for seeds in (schemes.SEED_POLYGONS, 10**9):
            with mock.patch.object(schemes, "SEED_POLYGONS", seeds), \
                    mock.patch.object(schemes, "hull", wraps=hull) as hulled, \
                    mock.patch.object(schemes, "_add_block",
                                      wraps=schemes._add_block) as added:
                regions = sweep_regions(ch, VARIANTS, grid)
            runs.append(([c.args[0].tobytes() for c in hulled.call_args_list],
                         [r.vertices.tobytes() for r in regions.values()],
                         added.call_count))
        (fronts, vertices, seeded), (want_fronts, want, unseeded) = runs
        assert fronts == want_fronts and vertices == want, ch
        assert seeded > unseeded, ch  # the seeds ran


def test_multi_batch_cell_walk_matches_brute_force():
    # batches of about 729 polygons: the remaining cells meet a running
    # front many times
    for i, ch in enumerate(SHOWCASE + EDGE):
        for scheme in ("key_splitting", "rate_splitting"):
            with mock.patch.object(schemes, "CHUNK", 2 * 729), \
                    mock.patch.object(schemes, "_add_block",
                                      wraps=schemes._add_block) as batches:
                _assert_matches_brute_force(ch, scheme, GRID17,
                                            _ref_sweep(i, scheme))
            assert batches.call_count > (2 if ch in SHOWCASE else 0), \
                (ch, scheme)


@pytest.mark.parametrize("chunk", [1, 2 * 729, schemes.CHUNK])
def test_group_walk_matches_brute_force(chunk):
    # every variant at once: key_splitting and rate_splitting walk their
    # group's cells once, and a cell goes only where both fronts dominate
    # its bound; every front and region is the brute force's, to the bit
    cases = [(ch, GRID17, functools.partial(_ref_sweep, i))
             for i, ch in enumerate(SHOWCASE + EDGE)]
    cases += [(ch, NINE, functools.partial(_ref_crowded, i))
              for i, ch in enumerate(CROWDED)]
    with mock.patch.object(schemes, "CHUNK", chunk):
        for ch, grid, ref in cases:
            with mock.patch.object(schemes, "hull", wraps=hull) as hulled:
                regions = sweep_regions(ch, VARIANTS, grid)
            fronts = [c.args[0].tobytes() for c in hulled.call_args_list]
            for scheme, region, front in zip(VARIANTS, regions.values(),
                                             fronts):
                want, want_front, _ = ref(scheme)
                assert front == want_front, (chunk, ch, scheme)
                assert region.vertices.tobytes() == want, (chunk, ch, scheme)


def test_cell_bound_covers_brute_force_terms():
    # on random channels, axes and tiles, every polygon's five terms lie
    # under its cell's bound and its slack above the cell's least; a cell
    # of one polygon is bounded by that polygon's own terms
    rng = np.random.default_rng(22)
    drops = set()
    for case in range(60):
        p1, p2 = 10.0 ** rng.uniform(-12, 12, 2) * (rng.random(2) > 0.1)
        h21 = rng.uniform(0.05, 3.0) * (rng.random() > 0.2)
        ch = ChannelParams(rng.uniform(0.1, 3.0), rng.uniform(0.1, 3.0), h21,
                           p1, p2, rk=[0.0, 0.3, 2.0, 1e6][case % 4])
        if case % 4 == 0:
            # leak far above cap_priv and little else: the margin's scale
            # is the least slack, which the cells' largest ones undercut
            ch = dataclasses.replace(ch, h22=0.1, h21=2.0, p1=0.0)
        lam1, lam2, beta1, beta2 = (
            np.unique(np.concatenate([rng.random(rng.integers(1, 9)),
                                      rng.integers(0, 2, 2)]))
            for _ in range(4))
        rows, cols = schemes._pairs(lam1, beta1), schemes._pairs(lam2, beta2)
        tile = case % 5 + 1
        with mock.patch.object(schemes, "TILE", tile):
            (o1, s1), (o2, s2) = _tiles(*rows), _tiles(*cols)
        rows, cols = [a[o1] for a in rows], [a[o2] for a in cols]
        *upper, slack_lo = _key_splitting_cells(ch, rows, cols, (s1, s2))
        terms = np.broadcast_arrays(*_key_splitting_base(
            ch, rows[0][:, None], cols[0][None], rows[1][:, None],
            cols[1][None]))
        # the cell of each polygon, row tile major
        cell = (np.searchsorted(s1, np.arange(len(o1)), "right") - 1)[:, None] \
            * len(s2) + np.searchsorted(s2, np.arange(len(o2)), "right") - 1
        for term, bound in zip(terms, upper):
            assert np.all(term <= bound[cell]), (ch, tile)
        assert np.all(terms[3] >= slack_lo[cell]), (ch, tile)
        if tile == 1:
            assert [b[cell].tobytes() for b in upper] == \
                [t.tobytes() for t in terms], ch
            assert slack_lo[cell].tobytes() == terms[3].tobytes(), ch
        # and the region sweep's bound: the cell's corner bounds (ax, by)
        # hold at every key fraction, with a rounding margin no smaller
        # than that of the polygons' own terms; its score is ax + by, and
        # keep drops a cell only where the front dominates the corners of
        # its every polygon at every key fraction
        top, r2max, margin = _key_bound(ch.rk, upper, slack_lo)
        flat = [t.ravel() for t in terms]
        assert margin >= _key_bound(ch.rk, flat, flat[3])[2], ch
        for etas in (np.array([1.0]), np.linspace(0.0, 1.0, 21)):
            score, keep = schemes._corners(ch, _key_splitting_eta, etas,
                                           upper, slack_lo)
            if len(etas) > 1:
                r1, r2, rsum, m = upper[0], r2max, top, margin
            else:
                r1, r2, rsum, m = (*_key_splitting_eta(ch, upper, etas[0]),
                                   0.0)
            ax, by = np.minimum(r1, rsum) + m, np.minimum(r2, rsum) + m
            assert score.tobytes() == (ax + by).tobytes(), ch
            # a front of the corners of about a third of the polygons
            r1, r2, rsum = _key_splitting_eta(ch, flat, rng.choice(etas))
            some = rng.random(r1.size) < 0.3
            front = pareto_filter(polygon_points(r1[some], r2[some],
                                                 rsum[some]))
            dropped = ~keep(front, np.arange(score.size))
            for eta in etas:
                r1, r2, rsum = _key_splitting_eta(ch, terms, eta)
                x, y = np.minimum(r1, rsum), np.minimum(r2, rsum)
                assert np.all(x <= ax[cell]), (ch, eta)
                assert np.all(y <= by[cell]), (ch, eta)
                assert np.all(_dominated(front, x, y)[dropped[cell]]), \
                    (ch, eta)
            drops.update(dropped.tolist())
    assert drops == {False, True}


def _dominated(front, x, y):
    """Where some point of front is at least (x, y) in both coordinates."""
    order = np.argsort(-front[:, 0], kind="stable")
    fx, fy = front[order, 0], np.maximum.accumulate(front[order, 1])
    k = np.searchsorted(-fx, -x, side="right")  # the points with fx >= x
    return (k > 0) & (fy[np.maximum(k - 1, 0)] >= y)


def test_cells_with_a_non_finite_bound_are_never_dropped():
    # an overflowing sum makes its cell's bound non-finite; such a cell is
    # built whatever the front or the best sum rate, so both sweeps raise
    # where the whole grid does: with every bound non-finite, every
    # polygon the sweep takes is built, once
    def overflowing(*args):
        *upper, slack_lo = _key_splitting_cells(*args)
        upper[4] = np.where(np.arange(upper[4].size) % 2, np.inf, np.nan)
        return [*upper, slack_lo]

    ch = SHOWCASE[4]
    ((rows, cols, _),) = schemes._groups(ch, ["key_splitting"], GRID17,
                                         undominated=True)
    # the sum rates' 11,172 undominated polygons walk below the default CHUNK
    for sweep, args, polygons, chunk in (
            (sweep_regions, (), 17 * 18 * 17 * 17, schemes.CHUNK),
            (max_sum_rates, ([0.0, 1.0],), len(rows[0]) * len(cols[0]),
             2 * 729)):
        for scheme in ("key_splitting", "rate_splitting"):
            with _builds() as built, \
                    mock.patch.object(schemes, "CHUNK", chunk), \
                    mock.patch.object(schemes, "_key_splitting_cells",
                                      overflowing):
                sweep(ch, [scheme], GRID17, *args)
            assert sum(b.terms[0].size for b in built) == polygons, \
                (sweep, scheme)


tiny = st.sampled_from([0.0, 5e-324, 1e-300, 1e-16])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.one_of(coord, tiny), coord), min_size=1,
                max_size=60),
       st.lists(st.one_of(signed, tiny), max_size=30), st.integers(1, 9))
def test_staircase_only_claims_points_with_larger_x(rows, xs, bins):
    front = pareto_filter(np.array(rows))
    x = np.array(xs, dtype=float)
    with mock.patch.object(geometry, "STAIR_BINS", bins):
        got = staircase(front, x)
    for xi, yi in zip(x, got):
        assert yi == -math.inf or yi in front[front[:, 0] > xi, 1], (xi, yi)


# a sum cap may also be inf (no sum face) or nan, whose two corners are
# (nan, nan); a nan r1 or r2 cap would put a nan beside a number, and
# pareto_filter's own output then hangs on how its sort orders equal x
sum_cap = st.one_of(coord, st.sampled_from([math.inf, math.nan]))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(coord, coord), max_size=40),
       st.lists(st.tuples(coord, coord, sum_cap), min_size=1, max_size=60),
       st.sampled_from([2, 7, 4096]))
def test_corner_test_keeps_the_pareto_front(rows, caps, bins):
    # the region fold drops a corner only where a front point with a
    # strictly larger x has at least its y, so the front of the front and
    # the kept corners is, byte for byte, that of the front and every corner
    front = pareto_filter(np.array(rows, dtype=float).reshape(-1, 2))
    r1, r2, rsum = np.array(caps).T
    every = polygon_points(r1, r2, rsum)
    with mock.patch.object(geometry, "STAIR_BINS", bins):
        kept = schemes._reaching_corners(front, r1, r2, rsum)
    assert {p.tobytes() for p in kept} <= {p.tobytes() for p in every}
    assert pareto_filter(np.vstack([front, kept])).tobytes() == \
        pareto_filter(np.vstack([front, every])).tobytes(), (front, caps)


@functools.lru_cache(maxsize=None)
def _ref_best(ch, scheme, n_eta):
    """Brute-force best sum rate on GRID17 with n_eta key fractions."""
    grid = dataclasses.replace(GRID17, n_eta=n_eta)
    return max(float(np.minimum(rsum, r1 + r2).max())
               for r1, r2, rsum in _ref_slices(ch, scheme, grid))


@pytest.mark.parametrize("n_eta", [1, 2, 17])
@pytest.mark.parametrize("seeds", [1, 10**9])  # one seed polygon, or all
def test_pruned_max_sum_rate_matches_brute_force(n_eta, seeds):
    grid = dataclasses.replace(GRID17, n_eta=n_eta)
    with mock.patch.object(schemes, "SEED_POLYGONS", seeds):
        for ch in SHOWCASE + EDGE + CROWDED:
            for scheme in ("key_splitting", "rate_splitting"):
                assert max_sum_rate(ch, scheme, grid) == \
                    _ref_best(ch, scheme, n_eta), (n_eta, ch, scheme)


def _ref_max_sum(ch, scheme, grid):
    """Brute-force best sum rate over every polygon of the grid, dominated
    or not; DomainError where a cap overflows, as the sweeps raise it."""
    with np.errstate(over="ignore", invalid="ignore"):
        slices = _ref_slices(ch, scheme, grid)
    faces = 2 if scheme in ("key_as_wiretap", "one_time_pad") else 3
    if not all(np.isfinite(cap).all() for caps in slices
               for cap in caps[:faces]):  # no sum face without layers
        raise DomainError("rate caps overflow float64")
    return max(float(np.minimum(rsum, r1 + r2).max())
               for r1, r2, rsum in slices)


def test_max_sum_rates_equal_the_full_grid_maximum():
    # max_sum_rates builds only the undominated power splits
    rks = (0.0, 0.2, 3.0)
    for grid in (COARSE, GridSpec(6, 7, 8, 5, n_eta=4)):
        for ch in CROWDED + EDGE:
            sums = max_sum_rates(ch, VARIANTS, grid, rks)
            for scheme in VARIANTS:
                assert sums[scheme] == [
                    _ref_max_sum(dataclasses.replace(ch, rk=rk), scheme, grid)
                    for rk in rks], (grid, ch, scheme)


WALK_RKS = (0.0, 0.2, 3.0, 1e6)


@functools.lru_cache(maxsize=None)
def _ref_sums(i, grid):
    """_ref_max_sum of channel i of SHOWCASE + EDGE + CROWDED at WALK_RKS,
    per scheme, built once."""
    ch = (SHOWCASE + EDGE + CROWDED)[i]
    return {scheme: [_ref_max_sum(dataclasses.replace(ch, rk=rk), scheme,
                                  grid) for rk in WALK_RKS]
            for scheme in VARIANTS}


def _assert_walked_sums_exact(chunk):
    """max_sum_rates at CHUNK = chunk, where the layered groups of COARSE
    and GRID17 walk cells, equals the brute force; returns the batches
    each call builds, over its two layered groups and the unlayered one."""
    batches = []
    for grid in (COARSE, GRID17):
        for i, ch in enumerate(SHOWCASE + EDGE + CROWDED):
            with mock.patch.object(schemes, "CHUNK", chunk), \
                    _builds() as built:
                sums = max_sum_rates(ch, VARIANTS, grid, WALK_RKS)
            assert sums == _ref_sums(i, grid), (chunk, grid, ch)
            batches.append(len(built))
    return batches


@pytest.mark.parametrize("tile", [1, schemes.TILE, 10**6])
def test_walked_max_sum_rates_match_brute_force(tile):
    # every group of more than 30 polygons walks: each layered group of
    # COARSE and GRID17, in batches of about 30 polygons, or of one cell
    # where a cell holds more; one cell spanning a group is built alone,
    # in one batch per group, and the unlayered group's single row of at
    # most 17 polygons is one block
    with mock.patch.object(schemes, "TILE", tile):
        batches = _assert_walked_sums_exact(60)
    assert set(batches) == {3} if tile == 10**6 else max(batches) > 10, tile


def test_multi_batch_walked_max_sum_rates_match_brute_force():
    # batches of about 729 polygons, several cells each, against a best
    # sum rate that grows from batch to batch
    assert max(_assert_walked_sums_exact(2 * 729)) > 10


def test_max_sum_rates_overflow_where_the_full_grid_does():
    # the first two overflow on some power splits of the layered schemes,
    # the last on none; at CHUNK = 2 the layered groups walk cells, whose
    # non-finite bounds are built first
    near = [ChannelParams(1, 1, 1, 1.5e308, 1.5e308, rk=1.0),
            ChannelParams(1, 1, 1, 1e308, 1e308, rk=1.0),
            ChannelParams(1, 1, 0.5, 1e308, 1e308, rk=1.0)]
    for chunk in (schemes.CHUNK, 2):
        raised = []
        with mock.patch.object(schemes, "CHUNK", chunk), \
                _spy("_key_splitting_cells") as walked:
            for ch in near:
                for scheme in VARIANTS:
                    try:
                        want = _ref_max_sum(ch, scheme, COARSE)
                    except DomainError:
                        raised.append((ch.p1, ch.h21, scheme))
                        with pytest.raises(DomainError, match="overflow"):
                            max_sum_rates(ch, [scheme], COARSE, [0.0, ch.rk])
                    else:
                        assert max_sum_rate(ch, scheme, COARSE) == want, \
                            (chunk, ch, scheme)
        # rsum = r1 where lambda1 = lambda2 = 1: only the layered overflow
        assert raised == [(p1, 1.0, scheme) for p1 in (1.5e308, 1e308)
                          for scheme in VARIANTS
                          if "lambda2" not in PINS[scheme]]
        assert walked.called == (chunk == 2)


power = st.one_of(st.just(0.0),
                  st.floats(math.log(1e-12), math.log(1e15)).map(math.exp))
points = st.integers(2, 12)


@st.composite
def pair_cases(draw):
    """A channel, P = 0 and h21 = 0 among them, and a small grid."""
    h21 = draw(st.one_of(st.just(0.0), st.floats(0.05, 3.0)))
    ch = ChannelParams(draw(st.floats(0.1, 3.0)), draw(st.floats(0.1, 3.0)),
                       h21, draw(power), draw(power))
    return ch, GridSpec(*(draw(points) for _ in range(4)), n_eta=2)


def _built_by_max_sum_rates(ch, scheme, grid):
    """The (lambda1, lambda2, beta1, beta2) pairs max_sum_rates builds the
    terms of, in one block: its rows and columns."""
    with mock.patch.object(schemes, "CHUNK", 10**9), _builds() as built:
        max_sum_rates(ch, [scheme], grid, [0.0])
    ((*pairs, terms),) = built
    assert terms[0].size == pairs[0].size * pairs[1].size  # the whole mesh
    return pairs


def _kept_for(shared, own, kshared, kown):
    """Index of the kept pair of each pair: the one whose shared power has
    the same bits, with an own power at least as large."""
    kept = dict(zip(kshared.view(np.int64).tolist(), range(len(kshared))))
    assert len(kept) == len(kshared)  # one kept pair per shared power
    bits = shared.view(np.int64).tolist()
    assert all(b in kept for b in bits)
    j = np.array([kept[b] for b in bits])
    assert np.all(kown[j] >= own)
    return j


@settings(max_examples=100, deadline=None)
@given(pair_cases())
def test_max_sum_rate_keeps_a_dominating_pair_for_every_dropped_one(case):
    ch, grid = case
    l1, l2, b1, b2, _ = (a.ravel() for a in _axes(ch, "key_splitting", grid))
    # every pair, and the pairs the sum rates build
    L1, B1 = np.repeat(l1, len(b1)), np.tile(b1, len(l1))
    L2, B2 = np.repeat(l2, len(b2)), np.tile(b2, len(l2))
    kl1, kl2, kb1, kb2 = _built_by_max_sum_rates(ch, "key_splitting", grid)
    # user 1 shares its noise power p1a, user 2 its private power p2p
    j1 = _kept_for((1.0 - L1) * B1 * ch.p1, L1 * B1 * ch.p1,
                   (1.0 - kl1) * kb1 * ch.p1, kl1 * kb1 * ch.p1)
    j2 = _kept_for(L2 * B2 * ch.p2, (1.0 - L2) * B2 * ch.p2,
                   kl2 * kb2 * ch.p2, (1.0 - kl2) * kb2 * ch.p2)
    # every term at a pair is at most the term at its kept pair, against
    # every pair of the other user
    every = _key_splitting_base(ch, L1[:, None], L2[None], B1[:, None],
                                B2[None])
    for kept in (_key_splitting_base(ch, kl1[j1, None], L2[None],
                                     kb1[j1, None], B2[None]),
                 _key_splitting_base(ch, L1[:, None], kl2[j2][None],
                                     B1[:, None], kb2[j2][None])):
        for term, at_kept in zip(every, kept):
            assert np.all(term <= at_kept), ch
    # without layers, lambda1 = lambda2 = 1: only the largest beta1, and
    # every beta2; where p1 (p2) is 0, every beta1 (beta2) gives the same
    # terms, and one of them is kept
    kl1, kl2, kb1, kb2 = _built_by_max_sum_rates(ch, "key_as_wiretap", grid)
    b1 = np.linspace(0.0, 1.0, grid.n_beta1)
    assert kl1.tolist() == [1.0] and set(kl2.tolist()) == {1.0}
    assert kb1.tolist() == [1.0] or (ch.p1 == 0.0 and len(kb1) == 1)
    assert kb2.tolist() == list(b2) or (ch.p2 == 0.0 and len(kb2) == 1)
    for term, at_kept in zip(
            _key_splitting_base(ch, 1.0, 1.0, b1[:, None], b2[None]),
            _key_splitting_base(ch, 1.0, 1.0, kb1[:, None], kb2[None])):
        assert np.all(term <= at_kept), ch


magnitude = st.one_of(st.floats(0.0, 1e6),
                      st.sampled_from([0.0, 5e-324, 1e-310,
                                       float(np.finfo(float).tiny), 1e-16,
                                       1.0, 1e6]))


@st.composite
def bases(draw):
    """rk and a few polygons' base terms (r1, common, cap_priv, slack, rsum)."""
    rk = draw(magnitude)
    polygons = []
    for _ in range(draw(st.integers(1, 8))):
        r1, common, cap_priv, leak, rsum = (draw(magnitude) for _ in range(5))
        slack = draw(st.one_of(
            st.just(cap_priv - leak),
            # slack + (1 - eta) * rk cancels: the key clips round on the
            # scale of rk, not of the sum rate
            st.floats(0.0, 1.0).map(lambda d: -rk * (1.0 - d**3)),
            st.floats(-1e6, 1e6)))
        polygons.append((r1, common, cap_priv, slack, rsum))
    return rk, [np.array(col) for col in zip(*polygons)]


@settings(max_examples=150, deadline=None)
@given(bases(), st.lists(st.floats(0.0, 1.0), max_size=20))
def test_sum_rate_bound_covers_every_key_fraction(case, etas):
    rk, base = case
    ch = ChannelParams(1, 1, 0.5, 1, 1, rk=rk)
    top, r2max, margin = _key_bound(rk, base, base[3])
    ub = np.minimum(top, base[0] + r2max)  # as max_sum_rate bounds it
    for eta in [*np.linspace(0.0, 1.0, 21), *etas]:
        r1, r2, rsum = _key_splitting_eta(ch, base, float(eta))
        # as in max_sum_rate, which keeps a polygon when ub >= best - margin
        assert np.all(ub >= np.minimum(rsum, r1 + r2) - margin), \
            (rk, base, eta)


def test_sum_rate_bound_under_cancellation():
    # slack close to -rk: slack + (1 - eta) * rk is small, but rounds on the
    # scale of rk; the margin must cover that when every sum rate of a
    # block is small against rk, at fine key fractions as well
    rng = np.random.default_rng(5)
    n = 20000
    for rk in (1e-3, 0.7, 1e6):
        ch = ChannelParams(1, 1, 0.5, 1, 1, rk=rk)
        for width in (1.0, 1e-2, 1e-5):
            small = rng.random((3, n)) * width
            base = [np.where(rng.random(n) < 0.5, 0.0, small[0] * rk),
                    small[1] * rk, np.full(n, 1e300), -rk * (1.0 - small[2]),
                    np.full(n, 1e300)]
            top, r2max, margin = _key_bound(rk, base, base[3])
            ub = np.minimum(top, base[0] + r2max)
            for eta in np.concatenate([np.linspace(0.0, 1.0, 101),
                                       np.linspace(0.0, width, 101)]):
                r1, r2, rsum = _key_splitting_eta(ch, base, float(eta))
                assert np.all(ub >= np.minimum(rsum, r1 + r2) - margin), \
                    (rk, width, eta)
                # the bound sweep_region puts on r2's corner, too
                assert np.all(np.minimum(r2max, top) + margin >=
                              np.minimum(r2, rsum)), (rk, width, eta)


@settings(max_examples=150, deadline=None)
@given(bases(), st.lists(st.floats(0.0, 1.0), max_size=20))
def test_corner_bound_covers_every_key_fraction(case, etas):
    rk, base = case
    ch = ChannelParams(1, 1, 0.5, 1, 1, rk=rk)
    top, r2max, margin = _key_bound(rk, base, base[3])
    # as in sweep_region, which drops a polygon when a front point reaches
    # (AX, BY) + margin
    ax = np.minimum(base[0], top) + margin
    by = np.minimum(r2max, top) + margin
    for eta in [*np.linspace(0.0, 1.0, 21), *etas]:
        r1, r2, rsum = _key_splitting_eta(ch, base, float(eta))
        assert np.all(ax >= np.minimum(r1, rsum)), (rk, base, eta)
        assert np.all(by >= np.minimum(r2, rsum)), (rk, base, eta)


def test_key_splitting_sweep_evaluates_few_key_fractions():
    # the walk builds the terms of about one polygon in ten and evaluates
    # 1.2 % of the (polygon, key fraction) pairs on this channel (the row
    # blocks built every polygon and evaluated 3.5 %)
    ch = ChannelParams(1, 1, 0.8, 100, 100, rk=1.0)
    grid = GridSpec()
    with _spy("_key_splitting_eta") as spy, _builds() as built:
        sweep_region(ch, "key_splitting", grid)
    pairs = sum(np.broadcast(call.args[1][0], call.args[2]).size
                for call in spy.call_args_list)
    polygons = grid.n_lambda1 * (grid.n_lambda2 + 1) * grid.n_beta1 \
        * grid.n_beta2
    assert 0 < pairs < 0.02 * polygons * grid.n_eta
    assert 0 < sum(b.terms[0].size for b in built) < 0.15 * polygons


def _whole_grid_terms(ch, scheme, grid, base=_key_splitting_base):
    """The eta-free terms (base) of every polygon, built over the whole grid
    at once, as (user 1's pairs, user 2's pairs): (lambda1, beta1) rows and
    (lambda2, beta2) columns, each lambda-major; beta1 x beta2 unlayered."""
    if scheme in ("key_as_wiretap", "one_time_pad"):
        return np.broadcast_arrays(*base(
            ch, 1.0, 1.0, np.linspace(0.0, 1.0, grid.n_beta1)[:, None],
            np.linspace(0.0, 1.0, grid.n_beta2)[None, :]))
    whole = np.broadcast_arrays(*base(ch, *_axes(ch, scheme, grid)[:4]))
    n1, n2, m1, m2 = whole[0].shape
    return [w.transpose(0, 2, 1, 3).reshape(n1 * m1, n2 * m2) for w in whole]


def _keep_every_cell(planned):
    """A _walk plan that appends each cell table's size to `planned`, puts
    the cells in table order and keeps every one."""

    def plan(base, slack_lo):
        planned.append(base[0].size)
        return (-np.arange(base[0].size, dtype=float),
                lambda todo: np.ones(todo.size, bool))

    return plan


@pytest.mark.parametrize("chunk", [1, 5 * ROW17 + 7, 10**9])
def test_row_blocks_cover_every_row_once(chunk):
    # a group is one block of every row times every column, without a plan,
    # or a walk of cells: its tiles take every row (column) once, at most
    # TILE distinct lambdas and betas each, and its batches, the first one
    # cell alone and none of several cells over CHUNK // 2 polygons, build
    # every polygon of the group once when no cell is dropped
    with mock.patch.object(schemes, "CHUNK", chunk):
        for ch in (SHOWCASE[1], EDGE[0], CROWDED[0]):
            for scheme in VARIANTS:
                ((rows, cols, _),) = schemes._groups(ch, [scheme], GRID17)
                n1, n2 = len(rows[0]), len(cols[0])
                planned = []
                with _spy("_cell_pairs") as cut, _builds() as built:
                    blocks = list(schemes._walk(ch, rows, cols,
                                                _keep_every_cell(planned)))
                if not planned:
                    assert n1 * n2 <= chunk // 2, (chunk, scheme)
                    (block,) = blocks
                    assert all(b.size == n1 * n2 for b in block)
                    continue
                assert n1 * n2 > chunk // 2, (chunk, scheme)
                assert len(planned) == 1, (chunk, scheme)
                for pairs in (rows, cols):
                    order, starts = _tiles(*pairs)
                    assert sorted(order) == list(range(len(pairs[0])))
                    for tile in np.split(order, starts[1:]):
                        assert all(len(np.unique(a[tile])) <= schemes.TILE
                                   for a in pairs), (chunk, scheme)
                axes = [[np.unique(a) for a in pairs] for pairs in (rows, cols)]
                assert [len(l) * len(b) for l, b in axes] == [n1, n2]
                assert len(built) == cut.call_count, (chunk, scheme)
                seen = []
                for i, (c, (l1, l2, b1, b2, _)) in enumerate(
                        zip(cut.call_args_list, built)):
                    n_cells = len(c.args[0])
                    assert n_cells == 1 if i == 0 else \
                        n_cells == 1 or l1.size <= chunk // 2, (chunk, scheme)
                    seen.append(_position((l1, b1), *axes[0]) * n2 +
                                _position((l2, b2), *axes[1]))
                seen = np.sort(np.concatenate(seen))
                assert seen.tolist() == list(range(n1 * n2)), (chunk, scheme)


@pytest.mark.parametrize("chunk", [1, 5 * ROW17 + 7, 10**9])
def test_row_block_terms_equal_the_whole_grid_terms(chunk):
    # a group of at most CHUNK // 2 polygons is built in one call, the
    # whole mesh at once, a block of every row, and log2 and the other ufuncs give every element
    # the bits of the whole grid's terms; larger groups walk cells
    # (test_cell_terms_equal_the_whole_grid_terms)
    with mock.patch.object(schemes, "CHUNK", chunk):
        for ch in SHOWCASE + EDGE + CROWDED:
            for scheme in VARIANTS:
                whole = _whole_grid_terms(ch, scheme, GRID17)
                ((rows, cols, _),) = schemes._groups(ch, [scheme], GRID17)
                assert len(rows[0]) * len(cols[0]) == whole[0].size
                planned = []
                walk = schemes._walk(ch, rows, cols,
                                     _keep_every_cell(planned))
                block = next(walk)
                if whole[0].size > chunk // 2:
                    assert planned, (chunk, scheme)
                    continue
                assert not planned and next(walk, None) is None
                with _builds() as built:
                    sweep_region(ch, scheme, GRID17)
                assert len(built) == 1, (chunk, ch, scheme)
                assert [b.tobytes() for b in block] == \
                    [w.ravel().tobytes() for w in whole], (chunk, ch, scheme)


def _position(pairs, lam, beta):
    """Index of each (lambda, beta) pair in the lambda-major pairs of two
    axes."""
    return np.searchsorted(lam, pairs[0]) * len(beta) + \
        np.searchsorted(beta, pairs[1])


@pytest.mark.parametrize("tile", [1, schemes.TILE])
def test_cell_terms_equal_the_whole_grid_terms(tile):
    # the walk builds a batch of cells from gathered factors of the pairs;
    # each polygon's terms are the bits of the whole grid's, and no polygon
    # is built twice
    with mock.patch.object(schemes, "TILE", tile):
        for ch in SHOWCASE[::4] + EDGE + CROWDED[::3]:
            for scheme in ("key_splitting", "rate_splitting"):
                whole = _whole_grid_terms(ch, scheme, GRID17)
                lam1, lam2, beta1, beta2, _ = (a.ravel() for a in
                                               _axes(ch, scheme, GRID17))
                with _builds() as built:
                    sweep_region(ch, scheme, GRID17)
                seen = []
                for l1, l2, b1, b2, got in built:
                    r = _position((l1, b1), lam1, beta1)
                    c = _position((l2, b2), lam2, beta2)
                    assert [g.tobytes() for g in got] == \
                        [w[r, c].tobytes() for w in whole], (tile, ch, scheme)
                    seen.append(r * whole[0].shape[1] + c)
                seen = np.concatenate(seen)
                assert len(np.unique(seen)) == len(seen), (tile, ch, scheme)


COARSE = GridSpec(n_lambda1=9, n_lambda2=9, n_beta1=9, n_beta2=9, n_eta=7)


RKS = (0.0, 0.2, 3.0)


def _assert_shared_pass_is_exact(ch, grid):
    """sweep_regions and max_sum_rates over every variant equal, to the bit,
    sweep_region and max_sum_rate called for one scheme and key rate."""
    for chunk in (1, 10**9):  # one cell or row per block, or one block
        with mock.patch.object(schemes, "CHUNK", chunk):
            regions = sweep_regions(ch, VARIANTS, grid)
            sums = max_sum_rates(ch, VARIANTS, grid, RKS)
            assert list(regions) == list(sums) == list(VARIANTS)
            for scheme in VARIANTS:
                assert regions[scheme].vertices.tobytes() == \
                    sweep_region(ch, scheme, grid).vertices.tobytes(), scheme
                assert sums[scheme] == [
                    max_sum_rate(dataclasses.replace(ch, rk=rk), scheme, grid)
                    for rk in RKS], scheme


@contextlib.contextmanager
def _spy(name):
    """A mock wrapping the schemes function `name`, put wherever the sweeps
    look it up: the module attribute and every VARIANTS row holding it (a
    clip)."""
    fn = getattr(schemes, name)
    with mock.patch.object(schemes, name, wraps=fn) as spy, \
            mock.patch.dict(VARIANTS, {
                scheme: row._replace(**{field: spy for field in row._fields
                                        if getattr(row, field) is fn})
                for scheme, row in VARIANTS.items()}):
        yield spy


class Build(NamedTuple):
    """One block the sweeps built (_block_terms): the lambda1, lambda2,
    beta1 and beta2 arrays that its row and column indices pick from the
    pairs whose factor tables it reads (_pair_factors), each raveled, so a
    walked batch has one of each per polygon and a mesh one per row or
    column; and the terms it returned."""

    l1: np.ndarray
    l2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    terms: tuple


@contextlib.contextmanager
def _builds():
    """[Build of every block the sweeps build], filled as they go."""
    tables, builds = [], []
    pair_factors, block_terms = schemes._pair_factors, schemes._block_terms

    def factored(ch, rows, cols):
        tables.append((pair_factors(ch, rows, cols), rows, cols))
        return tables[-1][0]

    def built(u1, u2, r, c):
        ((rows, cols),) = [(rows, cols) for (f1, f2), rows, cols in tables
                           if f1 is u1 and f2 is u2]
        terms = block_terms(u1, u2, r, c)
        builds.append(Build(rows[0][r].ravel(), cols[0][c].ravel(),
                            rows[1][r].ravel(), cols[1][c].ravel(), terms))
        return terms

    with mock.patch.object(schemes, "_pair_factors", factored), \
            mock.patch.object(schemes, "_block_terms", built):
        yield builds


@contextlib.contextmanager
def _built_per_group():
    """{member schemes: [Build of each block built while the sweep takes
    their group (_groups)]}, filled as the sweep goes."""
    groups, calls = schemes._groups, {}

    def tagged(*args, **kwargs):
        for group in groups(*args, **kwargs):
            start = len(built)
            yield group
            calls[tuple(m[0] for m in group[2])] = built[start:]

    with _builds() as built, mock.patch.object(schemes, "_groups", tagged):
        yield calls


def test_base_is_reused_across_key_rates_and_schemes():
    # each group's block of terms is built once per pass, for every scheme
    # that shares it and every key rate: sweep_regions builds every
    # (lambda1, beta1) pair once, max_sum_rates each undominated pair once;
    # above CHUNK // 2 polygons both walk cells instead, once per group for
    # every scheme (and key rate)
    ch = SHOWCASE[1]
    _assert_shared_pass_is_exact(ch, COARSE)
    axis = np.linspace(0.0, 1.0, 9)  # every axis of COARSE
    every = [(lam, beta) for lam in axis for beta in axis]
    no_an = [(1.0, beta) for beta in axis]  # rate_splitting_no_an's pairs

    def split(pairs):  # (p1a, p1m) of each pair
        return sorted(((1.0 - lam) * beta * ch.p1, lam * beta * ch.p1)
                      for lam, beta in pairs)

    def undominated(pairs):  # per distinct p1a, the largest p1m
        best = {}
        for p1a, p1m in split(pairs):
            best[p1a] = max(best.get(p1a, p1m), p1m)
        return sorted(best.items())

    # key_splitting and rate_splitting share one group, and
    # rate_splitting_no_an's pairs at lambda1 = 1 are another;
    # key_as_wiretap and one_time_pad share the third, beta1 rows at
    # lambda1 = lambda2 = 1
    groups = [("key_splitting", "rate_splitting"), ("rate_splitting_no_an",),
              ("key_as_wiretap", "one_time_pad")]
    for sweep, args, want in (
            (sweep_regions, (), split(every) + split(no_an)),
            (max_sum_rates, (RKS,), undominated(every) + undominated(no_an))):
        for chunk in (1, 10**9):
            with mock.patch.object(schemes, "CHUNK", chunk), \
                    _built_per_group() as calls:
                sweep(ch, VARIANTS, COARSE, *args)
            assert list(calls) == groups, (chunk, sweep)
            built = [np.concatenate([b[i] for g in groups[:2]  # l1 and b1
                                     for b in calls[g]]) for i in (0, 2)]
            # the sum rates need only the largest beta1 without layers
            rows = np.concatenate([b.b1 for b in calls[groups[2]]])
            unlayered = list(axis) if sweep is sweep_regions else [1.0]
            if chunk == 1:
                # each pair built is one the pass takes, in whole cells
                assert set(split(zip(*built))) <= set(want), sweep
                assert set(rows) <= set(unlayered), sweep
                for members in groups:
                    _assert_walked_cells(calls[members], 1)
            else:
                # each group built in one block
                assert [len(calls[g]) for g in groups] == [1, 1, 1], sweep
                assert split(zip(*built)) == sorted(want), sweep
                assert sorted(rows) == unlayered, sweep


def _assert_walked_cells(calls, walks):
    """Each Build one whole cell, a tile of each user's pairs (TILE x TILE
    index pairs, fewer at an edge), and no polygon of a group built more
    than once per walk, `walks` of them."""
    seen = {}
    for l1, l2, b1, b2, _ in calls:
        n1, n2 = len(set(zip(l1, b1))), len(set(zip(l2, b2)))
        assert max(n1, n2) <= schemes.TILE**2 and l1.size == n1 * n2
        for polygon in zip(l1, l2, b1, b2):
            seen[polygon] = seen.get(polygon, 0) + 1
    assert seen and max(seen.values()) <= walks


@pytest.mark.parametrize("change", [
    {"h11": 1.1}, {"h22": 0.9}, {"h21": 0.7}, {"p1": 90.0}, {"p2": 110.0},
    {"h21": -0.6},  # the same terms, but another channel
    {"n_lambda1": 8}, {"n_lambda2": 8}, {"n_beta1": 8}, {"n_beta2": 8},
    {"full_power": True},
])
def test_base_is_rebuilt_when_channel_or_axes_change(change):
    # nothing outlives a pass: the terms come from this call's channel and
    # axes, and the shared pass stays exact on them
    ch = SHOWCASE[1]
    ch_fields = {k: v for k, v in change.items() if hasattr(ch, k)}
    other = dataclasses.replace(ch, **ch_fields)
    grid = dataclasses.replace(COARSE, **{k: v for k, v in change.items()
                                          if k not in ch_fields})
    sweep_regions(ch, VARIANTS, COARSE)
    with _spy("_pair_factors") as layered:
        max_sum_rates(other, VARIANTS, grid, RKS)
    assert layered.called and \
        all(c.args[0] is other for c in layered.call_args_list), change
    _assert_shared_pass_is_exact(other, grid)


def test_fine_grid_walk_keeps_no_cell_table():
    # the walk drops the cell bounds once the plan has read them: the five
    # variants on the fine grid (83,521 cells in the layered group) peaked
    # at 10.6 MB of traced allocations while every bound stayed alive for
    # the whole walk and each member walked the table on its own, and peak
    # at 8.7 MB with one walk per group that releases them; 9.1 MB with one
    # driver for both sweeps, whose plan holds a running score while it
    # bounds each job, and 9.2 MB with factor tables of each user's pairs
    # and the corner test (numpy 2.4.6, Python 3.11). The first sweep of a
    # process also allocates about 1.1 MB once, so an untraced coarse sweep
    # goes first, and the peak does not hang on the tests run before
    ch = ChannelParams(1, 1, 0.6, 100, 100, rk=1.0)
    fine = GridSpec(n_lambda1=49, n_lambda2=49, n_beta1=49, n_beta2=49,
                    n_eta=31)
    sweep_regions(ch, VARIANTS, COARSE)
    tracemalloc.start()
    try:
        sweep_regions(ch, VARIANTS, fine)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 9.5e6, peak


def test_sweeps_never_hold_the_whole_grid():
    # the default grid's terms are 37,026 polygons a row; four whole-grid
    # arrays of them would take 39 MB (channels used by no other test)
    for sweep, ch in ((sweep_region, ChannelParams(1, 1, 0.7, 120, 80, rk=0.9)),
                      (max_sum_rate, ChannelParams(1, 1, 0.65, 90, 110, rk=0.4))):
        tracemalloc.start()
        try:
            sweep(ch, "key_splitting")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6, (sweep, peak)


def test_failed_base_build_raises_a_domain_error():
    # finite powers whose received sums overflow inside the terms
    # (the default grid's region sweep walks cells, whose overflowing
    # bounds keep them)
    huge = ChannelParams(1, 1, 1, 1.5e308, 1.5e308, rk=1.0)
    for grid in (COARSE, GridSpec()):
        with pytest.raises(DomainError, match="overflow"):
            sweep_regions(huge, ["key_splitting", "rate_splitting"], grid)
        with pytest.raises(DomainError, match="overflow"):
            max_sum_rates(huge, ["key_splitting", "rate_splitting"], grid,
                          [0.0, 1.0])


def _nested(n):
    return GridSpec(n_lambda1=n, n_lambda2=n, n_beta1=n, n_beta2=n, n_eta=n)


def test_refined_grid_never_loses_rates():
    # the 9-point axes hold the 5-point ones bit for bit, so the finer grid
    # sweeps a superset of polygons: its sum rates are never lower, and the
    # coarser region's vertices lie in the finer hull up to its rounding
    assert np.linspace(0.0, 1.0, 9)[::2].tobytes() == \
        np.linspace(0.0, 1.0, 5).tobytes()
    tiny = ChannelParams(1, 1, 0.8, 1e-12, 1e-12, rk=1e-12)
    for ch in [*SHOWCASE, *EDGE, *CROWDED, tiny]:
        coarse, fine = (sweep_regions(ch, VARIANTS, _nested(n)) for n in (5, 9))
        sums = [max_sum_rates(ch, VARIANTS, _nested(n), [ch.rk])
                for n in (5, 9)]
        for scheme in VARIANTS:
            assert sums[1][scheme][0] >= sums[0][scheme][0], (ch, scheme)
            scale = max(fine[scheme].max_x, fine[scheme].max_y)
            margin = geometry.containment_margin(fine[scheme],
                                                 coarse[scheme].vertices)
            assert margin <= 4 * math.ulp(scale), (ch, scheme, margin)


# the per-call set-up of the cell engine, against its literal forms: each
# user's pairs built per scheme, three cells-wide calls of every term, and
# batches that sort every cell before the first


def _ref_undominated(shared, own):
    """schemes._undominated restated with np.unique's first indices."""
    order = np.lexsort((-own, shared))
    return np.sort(order[np.unique(shared[order], return_index=True)[1]])


def _ref_groups(ch, names, grid, undominated):
    """schemes._groups restated: every scheme builds its own pairs."""
    groups = {}
    for scheme in names:
        row, counts = schemes._swept(scheme, grid)
        lam1, lam2, beta1, beta2, etas = (schemes._points(counts[a])
                                          for a in schemes.AXES)
        if counts["lambda2"]:
            lam2 = np.unique(np.concatenate([lam2, [gdof_split_lambda2(ch)]]))
        rows, cols = schemes._pairs(lam1, beta1), schemes._pairs(lam2, beta2)
        if undominated:
            (l1, b1), (l2, b2) = rows, cols
            keep1 = _ref_undominated((1.0 - l1) * b1 * ch.p1, l1 * b1 * ch.p1)
            keep2 = _ref_undominated(l2 * b2 * ch.p2, (1.0 - l2) * b2 * ch.p2)
            rows, cols = [a[keep1] for a in rows], [a[keep2] for a in cols]
        key = tuple(a.tobytes() for a in (*rows, *cols))
        groups.setdefault(key, (rows, cols, []))[2].append(
            (scheme, row.clip, etas))
    return list(groups.values())


# a silent user 2 (EDGE holds P1 = 0 and h21 = 0)
SILENT2 = [ChannelParams(1, 1, 0.6, 100, 0.0, rk=1.0)]


def test_groups_build_each_users_pairs_once():
    # the five variants take two (lambda1, beta1) counts and two (lambda2,
    # beta2) counts, so the sum rates keep the pairs of 4 axes, not 10;
    # every group is, byte for byte, the one of a per-scheme construction
    with _spy("_undominated") as kept:
        schemes._groups(SHOWCASE[0], VARIANTS, GridSpec(), undominated=True)
    assert kept.call_count == 4
    for ch in SHOWCASE + EDGE + CROWDED + SILENT2:
        for grid, undominated in ((GridSpec(), True), (GRID17, True),
                                  (GRID17, False)):
            got = list(schemes._groups(ch, VARIANTS, grid, undominated))
            want = _ref_groups(ch, VARIANTS, grid, undominated)
            assert len(got) == len(want), (ch, grid)
            for (rows, cols, members), (rows0, cols0, members0) in zip(got,
                                                                       want):
                assert [a.tobytes() for a in (*rows, *cols)] == \
                    [a.tobytes() for a in (*rows0, *cols0)], (ch, grid)
                assert [(s, clip, etas.tobytes()) for s, clip, etas in
                        members] == [(s, clip, etas.tobytes()) for s, clip,
                                     etas in members0], (ch, grid)
        # the first of each run of the lexsort is np.unique's first index
        for rows, cols, _ in _ref_groups(ch, VARIANTS, GridSpec(), False):
            (l1, b1), (l2, b2) = rows, cols
            for shared, own in (((1.0 - l1) * b1 * ch.p1, l1 * b1 * ch.p1),
                                (l2 * b2 * ch.p2, (1.0 - l2) * b2 * ch.p2)):
                assert schemes._undominated(shared, own).tolist() == \
                    _ref_undominated(shared, own).tolist(), ch


def _ref_terms(ch, p1m, p1a, p2p, p2c):
    """(r1, common, cap_priv, leak, rsum) of the layer powers, restated."""
    g11, g22, g21 = ch.h11**2, ch.h22**2, ch.h21**2
    with np.errstate(over="ignore", invalid="ignore"):
        n1 = 1.0 + g11 * p1a + g21 * p2p
        r1 = _c(g11 * p1m / n1)
        leak = _c(g21 * p2p / (1.0 + g11 * p1a))
        common = np.minimum(_c(g21 * p2c / n1),
                            _c(g22 * p2c / (1.0 + g22 * p2p)))
        cap_priv = _c(g22 * p2p)
        rsum = _c((g11 * p1m + g21 * p2c) / n1)
    return r1, common, cap_priv, leak, rsum


def _ref_cell_bounds(ch, rows, cols, starts):
    """_key_splitting_cells restated: three cells-wide calls of every term."""
    (l1, b1), (l2, b2) = rows, cols
    p1m, p1a, p2p, p2c = schemes._key_splitting_powers(
        ch, l1[:, None], l2[None], b1[:, None], b2[None])

    def span(v, axis):
        return [f.reduceat(v, starts[axis], axis)
                for f in (np.minimum, np.maximum)]

    (_, m1), (a1, a1_hi), (p2, p2_hi), (_, c2) = (
        span(p1m, 0), span(p1a, 0), span(p2p, 1), span(p2c, 1))
    r1, common, cap_lo, _, rsum = _ref_terms(ch, m1, a1, p2, c2)
    _, _, cap_hi, leak_hi, _ = _ref_terms(ch, m1, a1, p2_hi, c2)
    leak_lo = _ref_terms(ch, m1, a1_hi, p2, c2)[3]
    return [b.ravel() for b in np.broadcast_arrays(
        r1, common, cap_hi, cap_hi - leak_lo, rsum, cap_lo - leak_hi)]


def test_lean_cell_bounds_equal_the_three_call_form():
    # one cells-wide call of the terms, cap_priv at the largest p2p on one
    # row and the two leaks alone give every bound its bits, also where
    # the sum overflows in some cells and not in others
    overflowing = ChannelParams(1, 1, 1, 1e308, 1e308, rk=1.0)
    wild = set()
    for ch in SHOWCASE + EDGE + CROWDED + [overflowing]:
        for grid, undominated in ((GRID17, False), (GridSpec(), True)):
            for rows, cols, _ in schemes._groups(ch, VARIANTS, grid,
                                                 undominated):
                (o1, s1), (o2, s2) = _tiles(*rows), _tiles(*cols)
                rows, cols = [a[o1] for a in rows], [a[o2] for a in cols]
                got = _key_splitting_cells(ch, rows, cols, (s1, s2))
                want = _ref_cell_bounds(ch, rows, cols, (s1, s2))
                assert [g.tobytes() for g in got] == \
                    [w.tobytes() for w in want], (ch, grid, undominated)
                if ch is overflowing:
                    wild.update((~np.isfinite(got[4])).tolist())
    assert wild == {False, True}


# finite powers whose received sums overflow on some layered power splits
OVERFLOWING = [ChannelParams(1, 1, 1, 1.5e308, 1.5e308, rk=1.0),
               ChannelParams(1, 1, 1, 1e308, 1e308, rk=1.0)]


def _ref_base(ch, lam1, lam2, b1, b2):
    """_key_splitting_base restated from the layer powers (_ref_terms)."""
    r1, common, cap_priv, leak, rsum = _ref_terms(
        ch, *schemes._key_splitting_powers(ch, lam1, lam2, b1, b2))
    return r1, common, cap_priv, cap_priv - leak, rsum


def test_factored_terms_match_the_mesh_terms():
    # each user's factors once per group and four log terms per polygon:
    # the terms of a group's polygons, as one mesh or gathered in any order,
    # are the bits of _key_splitting_base over the 4-D mesh, which are those
    # of the terms restated from the layer powers, and both raise the same
    # DomainError where a received power overflows
    rng = np.random.default_rng(31)
    grid = GridSpec(n_lambda1=9, n_lambda2=9, n_beta1=9, n_beta2=9)
    raised = []
    for ch in SHOWCASE + EDGE + CROWDED + EXTREME + OVERFLOWING:
        for scheme in ("key_splitting", "rate_splitting_no_an",
                       "key_as_wiretap"):
            ((rows, cols, _),) = schemes._groups(ch, [scheme], grid)
            factors = schemes._pair_factors(ch, rows, cols)
            n1, n2 = len(rows[0]), len(cols[0])
            mesh = np.arange(n1)[:, None], np.arange(n2)
            r, c = np.divmod(rng.permutation(n1 * n2), n2)
            try:
                whole = _whole_grid_terms(ch, scheme, grid)
            except DomainError:
                raised.append((ch, scheme))
                for at in (mesh, (r, c)):
                    with pytest.raises(DomainError, match="overflow"):
                        schemes._block_terms(*factors, *at)
                continue
            want = _whole_grid_terms(ch, scheme, grid, _ref_base)
            assert [w.tobytes() for w in whole] == \
                [w.tobytes() for w in want], (ch, scheme)
            got = np.broadcast_arrays(*schemes._block_terms(*factors, *mesh))
            assert [g.tobytes() for g in got] == \
                [w.tobytes() for w in whole], (ch, scheme)
            got = schemes._block_terms(*factors, r, c)
            assert [g.tobytes() for g in got] == \
                [w[r, c].tobytes() for w in whole], (ch, scheme)
    # only the layered schemes' sums overflow
    assert raised == [(ch, scheme) for ch in OVERFLOWING
                      for scheme in ("key_splitting", "rate_splitting_no_an")]


def _full_sort_walk(ch, rows, cols, plan):
    """schemes._walk restated with a walk that stable-sorts every cell
    before the first and prunes the cells left after each batch."""
    if len(rows[0]) * len(cols[0]) <= schemes.CHUNK // 2:
        yield [b.ravel() for b in np.broadcast_arrays(*schemes._block_terms(
            *schemes._pair_factors(ch, rows, cols),
            np.arange(len(rows[0]))[:, None], np.arange(len(cols[0]))))]
        return
    (o1, s1), (o2, s2) = _tiles(*rows), _tiles(*cols)
    rows, cols = [a[o1] for a in rows], [a[o2] for a in cols]
    factors = schemes._pair_factors(ch, rows, cols)
    *base, slack_lo = schemes._key_splitting_cells(ch, rows, cols, (s1, s2))
    wild = ~np.all([np.isfinite(b) for b in base], axis=0)
    ub, live = plan(base, slack_lo)
    ub = np.where(wild, math.inf, ub)
    k1, k2 = np.diff(s1, append=len(o1)), np.diff(s2, append=len(o2))
    size = np.outer(k1, k2).ravel()
    half = schemes.CHUNK // 2
    todo, n = np.argsort(-ub, kind="stable"), 1
    while todo.size:
        t1, t2 = np.divmod(todo[:n], len(k2))
        r, c = schemes._cell_pairs(s1[t1], k1[t1], s2[t2], k2[t2])
        yield schemes._block_terms(*factors, r, c)
        todo = todo[n:]
        judged = todo[~wild[todo]]  # live sees no wild cell and no empty set
        if judged.size:
            todo = todo[~np.isin(todo, judged[~live(judged)])]
        n = max(1, int(np.searchsorted(np.cumsum(size[todo[:half + 1]]),
                                       half, side="right")))


def test_survivor_sort_builds_the_cells_of_a_full_sort():
    # at CHUNK 1458 both sweeps walk GRID17's layered groups in many
    # batches; sorting only the cells left after the first builds the
    # terms of a walk that sorts every cell, call for call
    calls = []
    for ch in SHOWCASE + EDGE + CROWDED:
        runs = []
        for walk in (schemes._walk, _full_sort_walk):
            with mock.patch.object(schemes, "CHUNK", 1458), \
                    mock.patch.object(schemes, "_walk", walk), \
                    _builds() as built:
                sweep_regions(ch, VARIANTS, GRID17)
                max_sum_rates(ch, VARIANTS, GRID17, WALK_RKS)
            runs.append([b"".join(a.tobytes() for a in b[:4]) for b in built])
        assert runs[0] == runs[1], ch
        calls.append(len(runs[0]))
    # most channels walk many batches
    assert sorted(calls)[len(calls) // 2] > 20, calls


# key_splitting's group on the 7-point grid: 81 cells of 1 to 81 polygons
SEVEN = GridSpec(n_lambda1=7, n_lambda2=7, n_beta1=7, n_beta2=7, n_eta=2)
SEVEN_CHUNK = 200


sort_key = st.one_of(st.sampled_from([-math.inf, math.inf, math.nan, 0.0,
                                      -0.0, 1.0, -1.0]),
                     st.floats(-3.0, 3.0))


@settings(max_examples=150, deadline=None)
@given(st.lists(sort_key, min_size=81, max_size=81),
       st.integers(0, 2**32 - 1), st.sampled_from([0.0, 0.3, 0.8, 1.0]))
def test_survivor_sort_matches_a_full_sort(keys, seed, share):
    # ties, infinities and nan keys, and a live that drops a random share
    # of the cells at each step: the batches are those of a full stable
    # sort, and live judges the same cells at every step
    key = np.array(keys)
    masks = np.random.default_rng(seed).random((key.size, key.size)) < share
    ch = SHOWCASE[1]
    ((rows, cols, _),) = schemes._groups(ch, ["key_splitting"], SEVEN)
    runs = []
    for walk in (schemes._walk, _full_sort_walk):
        judged = []

        def live(todo):
            judged.append(sorted(todo.tolist()))
            return masks[len(judged) - 1][todo]

        def plan(base, slack_lo):
            assert base[0].size == key.size
            return -key, live  # descending ub: ascending key

        with mock.patch.object(schemes, "CHUNK", SEVEN_CHUNK), \
                _spy("_cell_pairs") as cut:
            for _ in walk(ch, rows, cols, plan):
                pass
        # the tile starts and sizes of every cell, batch by batch
        runs.append(([[a.tobytes() for a in c.args] for c in
                      cut.call_args_list], judged))
    assert runs[0] == runs[1]
