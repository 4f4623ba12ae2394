"""The fast sweep against plain brute force, bit for bit.

sweep_region computes the eta-free key-splitting terms one block of whole
rows at a time, just before the block is used, emits two corners per rate
polygon, and prefilters large point sets by x buckets before sorting. It
drops a polygon when its running Pareto front, bucketed by x, already holds
a point above both its corners. Both sweeps bound each block over every key
fraction at once: max_sum_rate evaluates only the polygons whose bound
reaches its best sum rate so far, sweep_region only those whose bounded
corners no front point matches. sweep_regions and max_sum_rates build each
block once for every scheme that shares it, at every key rate. Each step is
checked here against a literal, unoptimized version of itself kept in this
file.
"""

import dataclasses
import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zickey import ChannelParams, DomainError, GridSpec, max_sum_rate
from zickey import geometry, schemes, sweep_region
from zickey.geometry import hull, pareto_filter, staircase
from zickey.schemes import (SCHEMES, VARIANTS, _key_bound,
                            _key_splitting_base, _key_splitting_eta,
                            _row_blocks, _unlayered_terms, gdof_split_lambda2,
                            max_sum_rates, sweep_regions)

SHOWCASE = [ChannelParams(1, 1, h21, 100, 100, rk=rk)
            for h21 in (0.6, 0.8, 1.2) for rk in (0.2, 1.0, 2.0)]
EDGE = [ChannelParams(1, 1, 0.0, 100, 100, rk=1.0),     # no cross link
        ChannelParams(1, 1, 0.6, 0.0, 100, rk=1.0),     # silent user 1
        ChannelParams(1.3, 0.7, 0.0, 0.0, 20, rk=0.3)]
# tiny P1, huge P2: many polygons come close to the best sum rate
CROWDED = [ChannelParams(1, 1, h21, 1e-9, 1e9, rk=rk)
           for h21 in (0.6, 1.2) for rk in (0.0, 0.7, 30.0)]
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
    lam2 = np.unique(np.concatenate([np.linspace(0.0, 1.0, grid.n_lambda2),
                                     [gdof_split_lambda2(ch)]]))
    eta = np.linspace(0.0, 1.0, grid.n_eta) if scheme == "key_splitting" \
        else np.array([1.0])
    return (np.linspace(0.0, 1.0, grid.n_lambda1)[:, None, None, None],
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
@given(st.lists(st.tuples(signed, signed), max_size=120),
       st.integers(1, 8))
def test_pareto_filter_matches_brute_force(rows, bins):
    pts = np.array(rows, dtype=float).reshape(-1, 2)
    kept = _assert_exact(pts)
    # the same set once the prefilter runs, on coarse buckets
    with mock.patch.object(geometry, "PREFILTER_MIN", 1), \
            mock.patch.object(geometry, "STAIR_BINS", bins):
        assert np.array_equal(_assert_exact(pts), kept)


def test_pareto_filter_large_inputs():
    rng = np.random.default_rng(3)
    n = geometry.PREFILTER_MIN + 999
    # few distinct values: ties in x, duplicates, equal y across buckets
    grid_pts = rng.integers(0, 60, size=(n, 2)) / 7.0
    _assert_exact(grid_pts)
    same_x = np.column_stack([np.full(n, 0.25), grid_pts[:, 1]])
    assert np.array_equal(_assert_exact(same_x), [[0.25, same_x[:, 1].max()]])
    _assert_exact(np.zeros((n, 2)))
    _assert_exact(np.zeros((0, 2)))
    # continuous values: the prefilter changes nothing the sort keeps
    cloud = rng.random((n, 2)) ** 0.2
    with mock.patch.object(geometry, "PREFILTER_MIN", 10 * n):
        plain = pareto_filter(cloud)
    assert np.array_equal(pareto_filter(cloud), plain)
    assert np.array_equal(np.unique(plain, axis=0),
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
        for scheme in SCHEMES:
            _assert_matches_brute_force(ch, scheme, GRID17,
                                        _ref_sweep(i, scheme))


def test_crowded_sweep_matches_brute_force_row_by_row():
    # one lambda1 row per block, so that the key-fraction bound runs on
    # every block but the first, against a crowded front
    grid = GridSpec(n_lambda1=9, n_lambda2=9, n_beta1=9, n_beta2=9)
    with mock.patch.object(schemes, "CHUNK", 10 * 9 * 9):
        for ch in CROWDED:
            for scheme in SCHEMES:
                _assert_matches_brute_force(ch, scheme, grid,
                                            _ref_region(ch, scheme, grid))


ROW17 = 18 * 17 * 17  # polygons in one lambda1 row of GRID17 (gdof split on)


@pytest.mark.parametrize("name, value", [
    ("CHUNK", 1),                 # one row, or one beta1 row, per block
    ("CHUNK", 5 * ROW17 + 7),     # blocks of 5 rows: 17 rows split 5+5+5+2
    ("CHUNK", 10**9),             # one block per eta slice
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


@pytest.mark.parametrize("chunk", [1, 5 * ROW17 + 7, 10**9])
def test_row_blocks_cover_every_row_once(chunk):
    for shape in ((17, 18, 17, 17), (17, 17), (1, 34, 33, 33), (33, 1, 1, 1)):
        rows, width = np.arange(shape[0]), math.prod(shape[1:])
        with mock.patch.object(schemes, "CHUNK", chunk):
            blocks = _row_blocks(shape)
        got = np.concatenate([rows[b] for b in blocks])
        assert sorted(got) == list(rows), (chunk, shape)
        # whole rows, and no more than CHUNK polygons unless one row is more
        assert all(len(rows[b]) * width <= max(chunk, width) for b in blocks)


def test_no_an_variant_is_rate_splitting_without_noise():
    no_an = dataclasses.replace(GRID17, no_an=True)
    for ch in SHOWCASE + EDGE:
        want = sweep_region(ch, "rate_splitting", no_an)
        got = sweep_region(ch, "rate_splitting_no_an", GRID17)
        assert got.vertices.tobytes() == want.vertices.tobytes(), ch
        assert max_sum_rate(ch, "rate_splitting_no_an", GRID17) == \
            max_sum_rate(ch, "rate_splitting", no_an), ch


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
    top, r2max, margin = _key_bound(rk, base)
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
            top, r2max, margin = _key_bound(rk, base)
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
    top, r2max, margin = _key_bound(rk, base)
    # as in sweep_region, which drops a polygon when a front point reaches
    # (AX, BY) + margin
    ax = np.minimum(base[0], top) + margin
    by = np.minimum(r2max, top) + margin
    for eta in [*np.linspace(0.0, 1.0, 21), *etas]:
        r1, r2, rsum = _key_splitting_eta(ch, base, float(eta))
        assert np.all(ax >= np.minimum(r1, rsum)), (rk, base, eta)
        assert np.all(by >= np.minimum(r2, rsum)), (rk, base, eta)


def test_key_splitting_sweep_evaluates_few_key_fractions():
    ch = ChannelParams(1, 1, 0.8, 100, 100, rk=1.0)
    grid = GridSpec()
    with mock.patch.object(schemes, "_key_splitting_eta",
                           wraps=_key_splitting_eta) as spy:
        sweep_region(ch, "key_splitting", grid)
    pairs = sum(np.broadcast(call.args[1][0], call.args[2]).size
                for call in spy.call_args_list)
    polygons = grid.n_lambda1 * (grid.n_lambda2 + 1) * grid.n_beta1 \
        * grid.n_beta2
    assert 0 < pairs < 0.15 * polygons * grid.n_eta
    # at least the first block, which has no front yet, at every fraction
    assert pairs > polygons // grid.n_lambda1 * grid.n_eta


def _whole_grid_terms(ch, scheme, grid):
    """The eta-free terms of every polygon, built over the whole grid at once."""
    if scheme in ("key_as_wiretap", "one_time_pad"):
        return np.broadcast_arrays(*_unlayered_terms(
            ch, np.linspace(0.0, 1.0, grid.n_beta1)[:, None],
            np.linspace(0.0, 1.0, grid.n_beta2)[None, :]))
    return np.broadcast_arrays(*_key_splitting_base(
        ch, *_axes(ch, scheme, grid)[:4]))


@pytest.mark.parametrize("chunk", [1, 5 * ROW17 + 7, 10**9])
def test_row_block_terms_equal_the_whole_grid_terms(chunk):
    # log2 and the other ufuncs give every element the same bits whether it
    # is computed in a block of rows or in the whole grid
    with mock.patch.object(schemes, "CHUNK", chunk):
        for ch in SHOWCASE + EDGE + CROWDED:
            for scheme in SCHEMES:
                whole = _whole_grid_terms(ch, scheme, GRID17)
                [(_, blocks)] = schemes._passes(ch, [scheme], GRID17)
                rows = _row_blocks(whole[0].shape)
                got = list(blocks)
                assert len(got) == len(rows), (chunk, ch, scheme)
                for block, r in zip(got, rows):
                    assert [b.tobytes() for b in block] == \
                        [w[r].ravel().tobytes() for w in whole], \
                        (chunk, ch, scheme, r)


COARSE = GridSpec(n_lambda1=9, n_lambda2=9, n_beta1=9, n_beta2=9, n_eta=7)


RKS = (0.0, 0.2, 3.0)


def _assert_shared_pass_is_exact(ch, grid):
    """sweep_regions and max_sum_rates over every variant equal, to the bit,
    sweep_region and max_sum_rate called for one scheme and key rate."""
    for chunk in (1, 10**9):  # one row per block, or one block
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


def _spy(name):
    return mock.patch.object(schemes, name, wraps=getattr(schemes, name))


def test_base_is_reused_across_key_rates_and_schemes():
    # each row block of terms is built once per pass, for every scheme that
    # shares it and every key rate
    ch = SHOWCASE[1]
    _assert_shared_pass_is_exact(ch, COARSE)
    lam1 = np.linspace(0.0, 1.0, COARSE.n_lambda1)
    for chunk, blocks in ((1, COARSE.n_lambda1), (10**9, 1)):
        for sweep, args in ((sweep_regions, ()), (max_sum_rates, (RKS,))):
            with mock.patch.object(schemes, "CHUNK", chunk), \
                    _spy("_key_splitting_base") as layered, \
                    _spy("_unlayered_terms") as unlayered:
                sweep(ch, VARIANTS, COARSE, *args)
            # key_splitting and rate_splitting share one group, built block
            # by block; rate_splitting_no_an's one row at lambda1 = 1 is
            # another
            assert layered.call_count == blocks + 1, (chunk, sweep)
            built = np.concatenate([c.args[1].ravel()
                                    for c in layered.call_args_list])
            assert sorted(built) == sorted([*lam1, 1.0]), (chunk, sweep)
            # key_as_wiretap and one_time_pad share the other, beta1 rows
            assert unlayered.call_count == (COARSE.n_beta1 if chunk == 1
                                            else 1), (chunk, sweep)


@pytest.mark.parametrize("change", [
    {"h11": 1.1}, {"h22": 0.9}, {"h21": 0.7}, {"p1": 90.0}, {"p2": 110.0},
    {"h21": -0.6},  # the same terms, but another channel
    {"n_lambda1": 8}, {"n_lambda2": 8}, {"n_beta1": 8}, {"n_beta2": 8},
    {"no_an": True}, {"full_power": True}, {"include_gdof_split": False},
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
    with _spy("_key_splitting_base") as layered:
        max_sum_rates(other, VARIANTS, grid, RKS)
    assert all(c.args[0] is other for c in layered.call_args_list), change
    _assert_shared_pass_is_exact(other, grid)


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
    huge = ChannelParams(1, 1, 1, 1.5e308, 1.5e308, rk=1.0)
    with pytest.raises(DomainError, match="overflow"):
        sweep_regions(huge, ["key_splitting", "rate_splitting"], COARSE)
    with pytest.raises(DomainError, match="overflow"):
        max_sum_rates(huge, ["key_splitting", "rate_splitting"], COARSE,
                      [0.0, 1.0])
