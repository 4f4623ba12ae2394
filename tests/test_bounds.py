"""Outer bounds: frozen values, applicability gates, composite region."""

import dataclasses
import math

import numpy as np
import pytest

from zickey import (ChannelParams, GridSpec, SchemeParams,
                    composite_outer_region, contains, evaluate_outer_bounds,
                    nonsecrecy_sum_bound, r2_outer_high, scheme_point,
                    subset_of, sum_rate_outer, sweep_region)

CH = ChannelParams(1, 1, 0.6, 100, 100, rk=1.0)  # snr 100, inr 36


def c(x):
    return 0.5 * np.log2(1.0 + x)


def test_sum_rate_outer_frozen():
    assert sum_rate_outer(CH) == pytest.approx(5.05348479993732, abs=1e-12)
    ch0 = ChannelParams(1, 1, 0.6, 100, 100, rk=0.0)
    assert sum_rate_outer(ch0) == pytest.approx(4.05348479993732, abs=1e-12)


def test_sum_rate_outer_gate():
    # applicable only while the direct link of user 2 beats the cross link
    assert sum_rate_outer(ChannelParams(0.6, 0.6, 1.0, 100, 100)) is None
    assert sum_rate_outer(ChannelParams(1, 1, 1.0, 100, 100)) is None  # tie
    assert sum_rate_outer(ChannelParams(1, 1, 0.999, 100, 100)) is not None


def test_sum_rate_outer_no_key_reduction_exact():
    """rk = 0 must reproduce the keyless expression bit for bit."""
    rng = np.random.default_rng(43)
    hits = 0
    while hits < 20:
        h = rng.uniform(0.1, 2.0)
        hc = rng.uniform(0.1, 2.0)
        p = rng.uniform(1.0, 1000.0)
        ch = ChannelParams(h, h, hc, p, p, rk=0.0)
        snr, _, inr = h * h * p, h * h * p, hc * hc * p
        if not snr > inr:
            continue
        hits += 1
        keyless = float(np.log2(1.0 + snr) - 0.5 * np.log2(1.0 + inr))
        assert sum_rate_outer(ch) == keyless


def test_r2_outer_frozen_and_trivial():
    assert r2_outer_high(CH) == pytest.approx(4.111736642719113, abs=1e-12)
    ch = ChannelParams(1, 1, 0.0, 100, 50, rk=0.3)
    assert r2_outer_high(ch) == pytest.approx(float(c(50.0)) + 0.3, abs=1e-12)


def test_r2_outer_high_interference_asymptote():
    # fixed snr, cross power exploding: the key is all that remains
    prev = math.inf
    for inr in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9):
        hc = math.sqrt(inr / 100.0)
        ch = ChannelParams(1, 1, hc, 100, 100, rk=1.0)
        excess = r2_outer_high(ch) - ch.rk
        assert 0.0 < excess < prev
        prev = excess
    assert prev < 1e-3
    ch8 = ChannelParams(1, 1, math.sqrt(1e8 / 100.0), 100, 100, rk=1.0)
    assert r2_outer_high(ch8) == pytest.approx(1.0000728523470024, abs=1e-12)


def test_outer_bounds_increase_one_for_one_with_key():
    rng = np.random.default_rng(47)
    for _ in range(20):
        h11, h22, h21 = rng.uniform(0.1, 2.0, 3)
        p1, p2 = rng.uniform(1.0, 1000.0, 2)
        rk = rng.uniform(0.0, 2.0)
        delta = rng.uniform(0.0, 1.5)
        a = ChannelParams(h11, h22, h21, p1, p2, rk)
        b = ChannelParams(h11, h22, h21, p1, p2, rk + delta)
        assert r2_outer_high(b) - r2_outer_high(a) == pytest.approx(delta, abs=1e-12)
        sa, sb = sum_rate_outer(a), sum_rate_outer(b)
        if sa is not None:
            assert sb - sa == pytest.approx(delta, abs=1e-12)


def test_nonsecrecy_frozen_and_clamp():
    assert nonsecrecy_sum_bound(CH) == pytest.approx(4.273395100041686, abs=1e-12)
    ch = ChannelParams(1, 1, 0.0, 100, 50)
    assert nonsecrecy_sum_bound(ch) == pytest.approx(
        float(c(100.0) + c(50.0)), abs=1e-12)
    # cross link at least as strong as the direct one: second term clamps
    ch = ChannelParams(1, 1, 1.5, 100, 100)
    assert nonsecrecy_sum_bound(ch) == pytest.approx(
        float(c(100.0 + 225.0)), abs=1e-12)


def test_evaluate_outer_bounds_fields():
    ob = evaluate_outer_bounds(CH)
    assert ob.r1_p2p == pytest.approx(float(c(100.0)), abs=1e-12)
    assert ob.r2_p2p == pytest.approx(float(c(100.0)), abs=1e-12)
    assert ob.r2_keyed == pytest.approx(4.111736642719113, abs=1e-12)
    assert ob.sum_keyed == pytest.approx(5.05348479993732, abs=1e-12)
    assert ob.sum_nonsecrecy is None
    ob = evaluate_outer_bounds(CH, include_nonsecrecy=True)
    assert ob.sum_nonsecrecy == pytest.approx(4.273395100041686, abs=1e-12)
    # high-interference channel: the sum family is inapplicable, never NaN
    ob = evaluate_outer_bounds(ChannelParams(1, 1, 1.2, 10, 10))
    assert ob.sum_keyed is None
    assert ob.r2_keyed > 0.0


def test_composite_region_pentagon():
    reg = composite_outer_region(CH)
    p2p = float(c(100.0))
    s = 5.05348479993732
    assert np.allclose(np.asarray(reg.vertices),
                       [[0, 0], [p2p, 0], [p2p, s - p2p], [s - p2p, p2p],
                        [0, p2p]], atol=1e-9)


def test_composite_region_vertices_are_its_caps():
    # the pentagon R1 <= a, R2 <= b, R1 + R2 <= c, corners exact in floats
    ob = evaluate_outer_bounds(CH)
    a, b, c = ob.caps
    assert (a, b, c) == (ob.r1_p2p, min(ob.r2_keyed, ob.r2_p2p), ob.sum_keyed)
    assert composite_outer_region(CH).vertices.tolist() == [
        [0.0, 0.0], [a, 0.0], [a, c - a], [c - b, b], [0.0, b]]
    ns = evaluate_outer_bounds(CH, include_nonsecrecy=True)
    assert ns.caps[2] == min(ns.sum_keyed, ns.sum_nonsecrecy)
    # no applicable sum face: a box; caps is not a field of the meta JSON
    high = evaluate_outer_bounds(ChannelParams(1, 1, 2.0, 10, 10, rk=0.2))
    assert high.caps[2] == math.inf
    assert "caps" not in dataclasses.asdict(high)


def test_composite_region_rectangle_without_cross_link():
    # inr = 0 and a huge key leave only the point-to-point caps
    ch = ChannelParams(1, 1, 0.0, 100, 50, rk=50.0)
    reg = composite_outer_region(ch)
    x, y = float(c(100.0)), float(c(50.0))
    assert np.allclose(np.asarray(reg.vertices),
                       [[0, 0], [x, 0], [x, y], [0, y]], atol=1e-12)


def test_composite_region_high_regime_faces():
    # gate fails: region bounded by the point-to-point and keyed-R2 faces
    ch = ChannelParams(1, 1, 2.0, 10, 10, rk=0.2)
    reg = composite_outer_region(ch)
    assert reg.max_x == pytest.approx(float(c(10.0)), abs=1e-12)
    assert reg.max_y == pytest.approx(r2_outer_high(ch), abs=1e-12)


def test_sum_part_is_not_a_standalone_r2_face():
    """Artificial noise can push R2 past the sum bound's R2 component,
    C(snr2) - C(inr1) + rk."""
    ch = ChannelParams(1, 1, 0.6, 100, 100, rk=0.0)
    part = float(c(100.0) - c(36.0)) + ch.rk
    # all of user 1's power spent on noise, all of user 2's on the private layer
    rc = scheme_point(ch, "key_splitting", SchemeParams(lambda1=0.0))
    assert rc.r2_cap > part + 1.0
    # yet the achieved point sits inside the composite region
    reg = composite_outer_region(ch)
    assert contains(reg, (rc.r1_cap, min(rc.r2_cap, rc.sum_cap)), tol=1e-9)


def test_nonsecrecy_face_optional_and_tighter():
    ch = ChannelParams(1, 1, 0.6, 100, 100, rk=2.0)
    plain = composite_outer_region(ch)
    stacked = composite_outer_region(ch, include_nonsecrecy=True)
    assert subset_of(stacked, plain, tol=1e-12)
    # rk = 2 pushes the keyed sum face past the no-secrecy reference
    assert stacked.max_sum < plain.max_sum - 0.5


def test_default_grid_containment_single_channel():
    """Every scheme's default-grid region stays inside the outer region."""
    ch = ChannelParams(1, 1, 0.6, 100, 100, rk=1.0)
    outer = composite_outer_region(ch)
    grid = GridSpec()  # full default resolution, one channel only
    for scheme in ("key_splitting", "rate_splitting", "key_as_wiretap",
                   "one_time_pad"):
        assert subset_of(sweep_region(ch, scheme, grid), outer, tol=1e-9)
