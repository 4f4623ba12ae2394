"""Achievable-scheme rate caps, grid sweeps, and their exact reductions.

Frozen reference values come from tests/oracle.py (mpmath at 50 digits);
the float64 implementation must match them to ~1 ulp, asserted at 1e-12.
"""

import math
import warnings

import numpy as np
import pytest

from zickey import (ChannelParams, DomainError, GridSpec, SchemeParams,
                    gdof_split_lambda2, key_as_wiretap_point,
                    key_splitting_point, max_sum_rate, max_y_at_x,
                    one_time_pad_point, point_region, polygon_points,
                    rate_splitting_point, subset_of, sweep_region,
                    sweep_regions)
from zickey.schemes import MAX_POLYGONS, VARIANTS

CH = ChannelParams(1, 1, 0.6, 100, 100, rk=1.0)

# small but endpoint-complete grid for inclusion checks
SMALL = GridSpec(n_lambda1=7, n_lambda2=8, n_beta1=7, n_beta2=7, n_eta=5)


def c(x):
    return 0.5 * math.log2(1.0 + x)


def test_one_time_pad_frozen_point():
    rc = one_time_pad_point(CH)
    assert rc.r1_cap == pytest.approx(0.9442893586657886, abs=1e-12)
    assert rc.r2_cap == 1.0  # key-limited: rk < c(snr2)
    assert rc.sum_cap == math.inf


def test_key_as_wiretap_frozen_point():
    rc = key_as_wiretap_point(CH)
    assert rc.r1_cap == pytest.approx(0.9442893586657886, abs=1e-12)
    assert rc.r2_cap == pytest.approx(1.7243790585614225, abs=1e-12)
    assert rc.sum_cap == math.inf


def test_key_splitting_frozen_point():
    ch = ChannelParams(1, 1, 0.6, 100, 100, rk=2.0)
    sp = SchemeParams(lambda1=1.0, lambda2=0.027778, eta=0.5)
    rc = key_splitting_point(ch, sp)
    assert rc.r1_cap == pytest.approx(2.836209842177711, abs=1e-12)
    assert rc.r2_cap == pytest.approx(1.958773163112242, abs=1e-12)
    assert rc.sum_cap == pytest.approx(4.007786319208194, abs=1e-12)


def test_key_splitting_frozen_point_full_common_key():
    ch = ChannelParams(1, 1, 0.6, 100, 100, rk=2.0)
    sp = SchemeParams(lambda1=1.0, lambda2=0.027778, eta=1.0)
    rc = key_splitting_point(ch, sp)
    assert rc.r2_cap == pytest.approx(2.458770277727931, abs=1e-12)
    assert rc.sum_cap == pytest.approx(3.5077834338238834, abs=1e-12)


def test_key_splitting_common_layer_is_key_limited():
    # at this split both decoding terms exceed the key rate, so the common
    # layer contributes exactly eta*rk = 2 bits on top of the keyless rate
    ch0 = ChannelParams(1, 1, 0.6, 100, 100, rk=0.0)
    ch2 = ChannelParams(1, 1, 0.6, 100, 100, rk=2.0)
    sp = SchemeParams(lambda1=1.0, lambda2=0.027778, eta=1.0)
    r2_no_key = key_splitting_point(ch0, sp).r2_cap
    r2_keyed = key_splitting_point(ch2, sp).r2_cap
    assert r2_no_key == pytest.approx(0.458770277727931, abs=1e-12)
    assert r2_keyed - r2_no_key == 2.0
    # with eta = 1 the private layer never sees the key: same sum cap
    assert (key_splitting_point(ch2, sp).sum_cap
            == key_splitting_point(ch0, sp).sum_cap)


def test_rate_splitting_is_key_splitting_at_eta_one():
    ch = ChannelParams(1.3, 0.8, 0.5, 30, 60, rk=0.7)
    sp = SchemeParams(lambda1=0.6, lambda2=0.3, beta1=0.9, beta2=0.8, eta=0.2)
    rs = rate_splitting_point(ch, sp)
    ks = key_splitting_point(ch, SchemeParams(lambda1=0.6, lambda2=0.3,
                                              beta1=0.9, beta2=0.8, eta=1.0))
    assert rs == ks


def test_wiretap_equals_key_splitting_at_eta_zero_no_layering():
    """Same float expressions, so bitwise equality, not just closeness."""
    rng = np.random.default_rng(29)
    for _ in range(25):
        h11, h22, h21 = rng.uniform(0.1, 2.0, 3)
        p1, p2 = rng.uniform(1.0, 1000.0, 2)
        rk = rng.uniform(0.0, 3.0)
        b1, b2 = rng.uniform(0.0, 1.0, 2)
        ch = ChannelParams(h11, h22, h21, p1, p2, rk)
        wc = key_as_wiretap_point(ch, b1, b2)
        ks = key_splitting_point(ch, SchemeParams(lambda1=1.0, lambda2=1.0,
                                                  beta1=b1, beta2=b2, eta=0.0))
        assert wc.r1_cap == ks.r1_cap
        assert wc.r2_cap == ks.r2_cap


def test_wiretap_clamps_when_leak_exceeds_capacity():
    # rk = 0 and cross gain >= direct gain: wiretap rate clamps to zero
    ch = ChannelParams(1, 1, 1.0, 100, 100, rk=0.0)
    assert key_as_wiretap_point(ch).r2_cap == 0.0
    ch = ChannelParams(1, 0.7, 0.9, 50, 50, rk=0.0)
    assert key_as_wiretap_point(ch).r2_cap == 0.0


def test_wiretap_silent_user1_reduction():
    """With user 1 silent the formulas collapse to the single wiretap link."""
    rng = np.random.default_rng(31)
    for _ in range(20):
        h22, h21 = rng.uniform(0.1, 2.0, 2)
        p2 = rng.uniform(1.0, 500.0)
        rk = rng.uniform(0.0, 2.0)
        b2 = rng.uniform(0.0, 1.0)
        ch = ChannelParams(1.0, h22, h21, 0.0, p2, rk)
        rc = key_as_wiretap_point(ch, 1.0, b2)
        q2 = b2 * p2  # spent power, then received powers
        cap2 = c(h22**2 * q2)
        leak = c(h21**2 * q2)
        assert rc.r1_cap == 0.0
        assert rc.r2_cap == max(0.0, min(cap2, cap2 - leak + rk))


def test_one_time_pad_zero_power_and_zero_key():
    ch = ChannelParams(1, 1, 0.6, 100, 100, rk=1.0)
    rc = one_time_pad_point(ch, 1.0, 0.0)
    assert rc.r2_cap == 0.0
    assert rc.r1_cap == c(100.0)  # no interference once user 2 is silent
    ch0 = ChannelParams(1, 1, 0.6, 100, 100, rk=0.0)
    reg = sweep_region(ch0, "one_time_pad", SMALL)
    assert reg.max_y == 0.0  # pad carries nothing without key bits


def test_point_validation():
    ch = ChannelParams(1, 1, 0.6, 100, 100, rk=1.0)
    for bad in (-0.1, 1.5):
        with pytest.raises(DomainError):
            key_as_wiretap_point(ch, beta2=bad)
        with pytest.raises(DomainError):
            one_time_pad_point(ch, beta1=bad)
    with pytest.raises(DomainError):
        sweep_region(ch, "no_such_scheme", SMALL)
    with pytest.raises(DomainError):
        max_sum_rate(ch, "no_such_scheme", SMALL)


def test_point_fraction_types():
    ch = ChannelParams(1, 1, 0.6, 100, 100, rk=1.0)
    for point in (key_as_wiretap_point, one_time_pad_point):
        with pytest.raises(DomainError):
            point(ch, beta1=True)
        with pytest.raises(DomainError):
            point(ch, beta2=np.bool_(True))
        # a numpy float32 is a real number like any other
        assert point(ch, beta1=np.float32(0.5)) == point(ch, beta1=0.5)


def test_grid_needs_a_point_per_axis():
    # an empty axis has no polygon to sweep or maximize over
    for bad in ({"n_lambda1": 0}, {"n_eta": 0}, {"n_beta1": -1},
                {"n_beta2": True}, {"n_lambda2": 9.0}):
        with pytest.raises(DomainError):
            GridSpec(**bad)
    assert GridSpec(n_lambda1=np.int64(3)).n_lambda1 == 3


def test_caps_nonnegative_and_key_monotone():
    rng = np.random.default_rng(37)
    for _ in range(30):
        h11, h22, h21 = rng.uniform(0.1, 2.0, 3)
        p1, p2 = rng.uniform(1.0, 1000.0, 2)
        ch0 = ChannelParams(h11, h22, h21, p1, p2, rk=0.4)
        ch1 = ChannelParams(h11, h22, h21, p1, p2, rk=1.1)
        sp = SchemeParams(lambda1=rng.uniform(), lambda2=rng.uniform(),
                          beta1=rng.uniform(), beta2=rng.uniform(),
                          eta=rng.uniform())
        a = key_splitting_point(ch0, sp)
        b = key_splitting_point(ch1, sp)
        assert min(a.r1_cap, a.r2_cap, a.sum_cap) >= 0.0
        assert b.r2_cap >= a.r2_cap - 1e-12
        assert b.sum_cap >= a.sum_cap - 1e-12
        assert key_as_wiretap_point(ch1).r2_cap >= key_as_wiretap_point(ch0).r2_cap
        assert one_time_pad_point(ch1).r2_cap >= one_time_pad_point(ch0).r2_cap


def test_otp_rate_never_exceeds_key():
    rng = np.random.default_rng(41)
    for _ in range(30):
        ch = ChannelParams(*rng.uniform(0.1, 2.0, 3),
                           *rng.uniform(1.0, 1000.0, 2),
                           rk=rng.uniform(0.0, 3.0))
        assert one_time_pad_point(ch, 1.0, rng.uniform()).r2_cap <= ch.rk
    reg = sweep_region(CH, "one_time_pad", SMALL)
    assert reg.max_y <= CH.rk + 1e-12


def test_otp_max_r2_saturates_exactly():
    # beta2 = 1 is on every grid, so the max is hit exactly, not approximately
    reg = sweep_region(CH, "one_time_pad", SMALL)
    assert reg.max_y == min(CH.rk, c(100.0))
    ch_big = ChannelParams(1, 1, 0.6, 100, 100, rk=9.0)
    reg = sweep_region(ch_big, "one_time_pad", SMALL)
    assert reg.max_y == min(9.0, c(100.0))


def test_sweep_inclusions():
    for ch in (CH,
               ChannelParams(1, 1, 1.2, 10, 10, rk=0.5),
               ChannelParams(0.8, 1.4, 0.3, 200, 40, rk=2.0)):
        ks = sweep_region(ch, "key_splitting", SMALL)
        rs = sweep_region(ch, "rate_splitting", SMALL)
        wc = sweep_region(ch, "key_as_wiretap", SMALL)
        otp = sweep_region(ch, "one_time_pad", SMALL)
        assert subset_of(rs, ks, tol=1e-9)
        assert subset_of(wc, ks, tol=1e-9)
        # the pad is dominated once the same grid offers the wiretap code
        assert otp.max_y <= ks.max_y + 1e-9


def test_sweep_deterministic():
    a = sweep_region(CH, "key_splitting", SMALL)
    b = sweep_region(CH, "key_splitting", SMALL)
    assert np.array_equal(a.vertices, b.vertices)
    assert a.halfplanes == b.halfplanes


def test_no_an_restriction_shrinks_region():
    ch = ChannelParams(1, 1, 0.9, 100, 100, rk=0.3)
    free = sweep_region(ch, "rate_splitting", SMALL)
    pinned = sweep_region(ch, "rate_splitting", GridSpec(
        n_lambda1=7, n_lambda2=8, n_beta1=7, n_beta2=7, n_eta=5, no_an=True))
    assert subset_of(pinned, free, tol=1e-9)


def test_full_power_restriction_contained():
    full = sweep_region(CH, "key_as_wiretap", GridSpec(
        n_lambda1=7, n_lambda2=8, n_beta1=7, n_beta2=7, n_eta=5,
        full_power=True))
    swept = sweep_region(CH, "key_as_wiretap", SMALL)
    assert subset_of(full, swept, tol=1e-9)


def test_coarse_grid_warns():
    grid = GridSpec(n_lambda1=1, n_lambda2=8, n_beta1=7, n_beta2=7, n_eta=5)
    for sweep, scheme in ((sweep_region, "key_splitting"),
                          (sweep_regions, ["key_splitting"])):
        with pytest.warns(UserWarning, match="fewer than 2 points") as caught:
            sweep(CH, scheme, grid)
        # the warning points at the line that asked for the sweep
        assert [w.filename for w in caught] == [__file__], sweep


def test_gdof_split_sample():
    assert gdof_split_lambda2(CH) == pytest.approx(1.0 / 36.0, abs=1e-15)
    assert gdof_split_lambda2(ChannelParams(1, 1, 0.0, 10, 10)) == 1.0
    # weak cross link: the floor exceeds the budget, full private power
    assert gdof_split_lambda2(ChannelParams(1, 1, 0.1, 10, 10)) == 1.0


def test_polygon_points_and_point_region():
    pts = polygon_points(1.0, 0.5, 1.2)
    reg = point_region(type("RC", (), {"r1_cap": 1.0, "r2_cap": 0.5,
                                       "sum_cap": 1.2})())
    assert np.allclose(np.asarray(reg.vertices),
                       [[0, 0], [1, 0], [1, 0.2], [0.7, 0.5], [0, 0.5]],
                       atol=1e-12)
    assert pts.shape == (4, 2)
    # infinite sum cap: plain rectangle corners
    pts = polygon_points(1.0, 0.5, math.inf)
    assert np.isfinite(pts).all()
    assert pts.max(axis=0)[0] == 1.0 and pts.max(axis=0)[1] == 0.5


def test_max_sum_rate_matches_region_geometry():
    for scheme in ("key_splitting", "rate_splitting", "key_as_wiretap",
                   "one_time_pad"):
        best = max_sum_rate(CH, scheme, SMALL)
        reg = sweep_region(CH, scheme, SMALL)
        assert best == pytest.approx(reg.max_sum, abs=1e-9)


def test_zero_interference_decomposition():
    # with no cross link the sum splits into independent point-to-point parts
    ch = ChannelParams(1, 1, 0.0, 10, 10, rk=0.4)
    grid = GridSpec(n_lambda1=5, n_lambda2=5, n_beta1=5, n_beta2=5, n_eta=3,
                    full_power=True)
    assert max_sum_rate(ch, "key_as_wiretap", grid) == pytest.approx(
        c(10.0) + c(10.0), abs=1e-12)  # no leak, key unneeded
    assert max_sum_rate(ch, "one_time_pad", grid) == pytest.approx(
        c(10.0) + min(0.4, c(10.0)), abs=1e-12)


def test_region_r1_reach():
    # backing user 2 off to zero restores user 1's clean link on every scheme
    for scheme in ("key_splitting", "rate_splitting", "key_as_wiretap",
                   "one_time_pad"):
        reg = sweep_region(CH, scheme, SMALL)
        assert reg.max_x == pytest.approx(c(100.0), abs=1e-12)
        assert max_y_at_x(reg, 0.0) == pytest.approx(reg.max_y, abs=1e-12)


def _coarse_axes(scheme, **counts):
    """The axes sweep_region warns about, in order, on a grid of `counts`."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sweep_region(CH, scheme, GridSpec(**{"n_lambda1": 3, "n_lambda2": 3,
                                             "n_beta1": 3, "n_beta2": 3,
                                             "n_eta": 3, **counts}))
    return [str(w.message).split()[2] for w in caught]


def test_coarse_grid_warns_only_for_swept_axes():
    ones = dict(n_lambda1=1, n_lambda2=1, n_beta1=1, n_beta2=1, n_eta=1)
    assert _coarse_axes("key_splitting", **ones) == [
        "lambda1", "lambda2", "beta1", "beta2", "eta"]
    assert _coarse_axes("key_splitting", n_beta2=1, n_lambda2=1) == [
        "lambda2", "beta2"]
    # pinned axes hold one point by design
    assert _coarse_axes("rate_splitting", n_eta=1) == []
    assert _coarse_axes("rate_splitting_no_an", n_lambda1=1, n_eta=1) == []
    assert _coarse_axes("key_as_wiretap", n_lambda1=1, n_lambda2=1,
                        n_eta=1) == []
    assert _coarse_axes("one_time_pad", **ones, full_power=True) == []
    assert _coarse_axes("key_splitting", n_lambda1=1, no_an=True) == []
    assert _coarse_axes("rate_splitting", **ones, full_power=True) == [
        "lambda1", "lambda2"]


def test_unknown_scheme_names_every_variant():
    assert tuple(VARIANTS) == ("key_splitting", "rate_splitting",
                               "rate_splitting_no_an", "key_as_wiretap",
                               "one_time_pad")
    for fn in (sweep_region, max_sum_rate):
        with pytest.raises(DomainError) as err:
            fn(CH, "bogus", SMALL)
        assert all(name in str(err.value) for name in VARIANTS)


def test_grid_polygon_budget():
    # the fine preset (49 x 50 x 49 x 49 polygons per key fraction) fits
    GridSpec(n_lambda1=49, n_lambda2=49, n_beta1=49, n_beta2=49, n_eta=31)
    # counted as n_lambda1 * (n_lambda2 + 1) * n_beta1 * n_beta2
    GridSpec(n_lambda1=1, n_lambda2=MAX_POLYGONS - 1, n_beta1=1, n_beta2=1)
    GridSpec(n_lambda1=1, n_lambda2=1, n_beta1=1, n_beta2=1,
             n_eta=MAX_POLYGONS)
    for big in ({"n_lambda2": MAX_POLYGONS}, {"n_beta2": 10**7},
                {"n_lambda1": np.int64(2**40), "n_beta1": np.int64(2**40)},
                {"n_eta": MAX_POLYGONS + 1}):
        with pytest.raises(DomainError, match="budget"):
            GridSpec(**{"n_lambda1": 1, "n_lambda2": 1, "n_beta1": 1,
                        "n_beta2": 1, **big})
