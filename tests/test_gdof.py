"""Normalized high-power (GDOF) polytopes and the finite-power ladder check."""

import math

import numpy as np
import pytest

import zickey
from zickey import (SCHEMES, DomainError, GdofParams, gdof_convergence_check,
                    gdof_region, hull, no_secrecy_gdof, polygon_points,
                    subset_of)
from zickey.schemes import VARIANTS


def _verts(region):
    return np.asarray(region.vertices)


def test_key_splitting_faces():
    reg = gdof_region(GdofParams(alpha=0.8, gamma=0.3, eta=1.0), "key_splitting")
    # faces d1 <= 1, d2 <= 0.5, sum <= 1.2
    assert np.allclose(_verts(reg),
                       [[0, 0], [1, 0], [1, 0.2], [0.7, 0.5], [0, 0.5]],
                       atol=1e-12)


def test_key_splitting_no_key_and_no_interference():
    reg = gdof_region(GdofParams(alpha=0.6, gamma=0.0), "key_splitting")
    assert reg.max_y == pytest.approx(0.4, abs=1e-12)  # d2 <= 1 - alpha
    reg = gdof_region(GdofParams(alpha=0.0, gamma=0.7), "key_splitting")
    assert np.allclose(_verts(reg), [[0, 0], [1, 0], [1, 1], [0, 1]],
                       atol=1e-12)  # sum face redundant at 2


def test_rate_splitting_equals_full_common_key_exactly():
    for alpha in (0.0, 0.3, 0.55, 1.0):
        for gamma in (0.0, 0.2, 0.8, 1.5):
            gp = GdofParams(alpha=alpha, gamma=gamma, eta=0.25)
            rs = gdof_region(gp, "rate_splitting")
            ks = gdof_region(GdofParams(alpha, gamma, eta=1.0), "key_splitting")
            assert np.array_equal(_verts(rs), _verts(ks))
            assert rs.halfplanes == ks.halfplanes


def test_rate_splitting_reference_faces():
    reg = gdof_region(GdofParams(alpha=0.3, gamma=0.3), "rate_splitting")
    assert reg.max_x == 1.0 and reg.max_y == 1.0
    assert reg.max_sum == pytest.approx(1.7, abs=1e-12)
    reg = gdof_region(GdofParams(alpha=0.8, gamma=0.8), "rate_splitting")
    assert reg.max_sum == pytest.approx(1.2, abs=1e-12)
    reg = gdof_region(GdofParams(alpha=0.5, gamma=0.1), "rate_splitting")
    assert reg.max_y == pytest.approx(0.6, abs=1e-12)


def test_wiretap_hull_cases():
    # saturated key: hull of the (1-a) x 1 and 1 x (1-a) boxes
    reg = gdof_region(GdofParams(alpha=0.4, gamma=0.5), "key_as_wiretap")
    assert np.allclose(_verts(reg),
                       [[0, 0], [1, 0], [1, 0.6], [0.6, 1], [0, 1]],
                       atol=1e-12)
    # no key: the first box is swallowed by the second
    reg = gdof_region(GdofParams(alpha=0.4, gamma=0.0), "key_as_wiretap")
    assert np.allclose(_verts(reg), [[0, 0], [1, 0], [1, 0.6], [0, 0.6]],
                       atol=1e-12)
    # partial key
    reg = gdof_region(GdofParams(alpha=0.5, gamma=0.2), "key_as_wiretap")
    assert np.allclose(_verts(reg),
                       [[0, 0], [1, 0], [1, 0.5], [0.5, 0.7], [0, 0.7]],
                       atol=1e-12)
    # the boxes' caps (d1, d2), one tuple per cap, and no sum face
    d1, d2, dsum = VARIANTS["key_as_wiretap"].gdof(0.5, 0.2, 1.0)
    assert d1[0] == 0.5 and d2[0] == 0.7
    assert d1[1] == 1.0 and d2[1] == 0.5
    assert dsum == math.inf


def test_otp_hull_cases():
    # tiny key: both boxes flatten to the same strip
    reg = gdof_region(GdofParams(alpha=0.5, gamma=0.1), "one_time_pad")
    assert np.allclose(_verts(reg), [[0, 0], [1, 0], [1, 0.1], [0, 0.1]],
                       atol=1e-12)
    # no key: degenerate segment on the d1 axis
    reg = gdof_region(GdofParams(alpha=0.5, gamma=0.0), "one_time_pad")
    assert reg.max_y == 0.0 and reg.max_x == 1.0
    # saturated
    reg = gdof_region(GdofParams(alpha=0.3, gamma=1.0), "one_time_pad")
    assert np.allclose(_verts(reg),
                       [[0, 0], [1, 0], [1, 0.7], [0.7, 1], [0, 1]],
                       atol=1e-12)
    d1, d2, dsum = VARIANTS["one_time_pad"].gdof(0.3, 1.0, 1.0)
    assert d1[0] == pytest.approx(0.7) and d2[0] == 1.0
    assert d1[1] == 1.0 and d2[1] == pytest.approx(0.7)
    assert dsum == math.inf


def test_polytope_vertices_are_exact_expressions():
    # every corner is a cap or a cap minus a cap, rounded once
    assert no_secrecy_gdof(0.9).vertices.tolist() == [
        [0.0, 0.0], [1.0, 0.0], [1.0, (2.0 - 0.9) - 1.0],
        [(2.0 - 0.9) - 1.0, 1.0], [0.0, 1.0]]
    d2 = min(0.8, 0.3) + 1.0 - 0.8
    reg = gdof_region(GdofParams(alpha=0.8, gamma=0.3, eta=1.0), "key_splitting")
    assert reg.vertices.tolist() == [
        [0.0, 0.0], [1.0, 0.0], [1.0, (2.0 - 0.8) - 1.0],
        [(2.0 - 0.8) - d2, d2], [0.0, d2]]
    d1s, d2s, dsum = VARIANTS["key_as_wiretap"].gdof(0.3, 0.5, 1.0)
    box1, box2 = (hull(polygon_points(a, b, dsum)) for a, b in zip(d1s, d2s))
    assert box1.vertices.tolist() == [[0.0, 0.0], [1.0 - 0.3, 0.0],
                                      [1.0 - 0.3, 1.0], [0.0, 1.0]]
    assert box2.vertices.tolist() == [[0.0, 0.0], [1.0, 0.0],
                                      [1.0, 1.0 - 0.3], [0.0, 1.0 - 0.3]]


def test_eta_zero_sum_face_redundant():
    """With no common-layer key the sum face never binds."""
    from zickey import intersect_halfplanes
    for alpha in (0.2, 0.5, 0.9):
        gp = GdofParams(alpha=alpha, gamma=0.6, eta=0.0)
        full = gdof_region(gp, "key_splitting")
        no_sum = intersect_halfplanes([(1.0, 0.0, 1.0),
                                       (0.0, 1.0, 1.0 - alpha)])
        assert np.allclose(_verts(full), _verts(no_sum), atol=1e-12)
        assert subset_of(full, no_sum, tol=1e-12)
        assert subset_of(no_sum, full, tol=1e-12)


def test_regions_monotone_in_gamma():
    for scheme in ("key_splitting", "rate_splitting", "key_as_wiretap",
                   "one_time_pad"):
        prev = None
        for gamma in (0.0, 0.2, 0.4, 0.8, 1.6):
            reg = gdof_region(GdofParams(alpha=0.6, gamma=gamma, eta=0.7),
                              scheme)
            if prev is not None:
                assert subset_of(prev, reg, tol=1e-12)
            prev = reg


def test_saturated_key_reaches_no_secrecy_region():
    for alpha in (0.3, 0.8):
        ks = gdof_region(GdofParams(alpha=alpha, gamma=alpha, eta=1.0),
                         "key_splitting")
        ref = no_secrecy_gdof(alpha)
        assert np.allclose(_verts(ks), _verts(ref), atol=1e-12)
        # more key than interference buys nothing beyond the reference
        more = gdof_region(GdofParams(alpha=alpha, gamma=2.0, eta=1.0),
                           "key_splitting")
        assert subset_of(more, ref, tol=1e-12)
        assert subset_of(ref, more, tol=1e-12)


def test_alpha_above_one_rejected():
    gp = GdofParams(alpha=1.2, gamma=0.5)
    for scheme in SCHEMES:
        with pytest.raises(DomainError, match="alpha > 1"):
            gdof_region(gp, scheme)
    with pytest.raises(DomainError):
        no_secrecy_gdof(1.2)
    with pytest.raises(DomainError):
        gdof_convergence_check(gp, "one_time_pad")


def test_params_validation():
    with pytest.raises(DomainError):
        GdofParams(alpha=-0.1, gamma=0.5)
    with pytest.raises(DomainError):
        GdofParams(alpha=0.5, gamma=-0.5)
    with pytest.raises(DomainError):
        GdofParams(alpha=0.5, gamma=0.5, eta=1.5)
    with pytest.raises(DomainError):
        gdof_region(GdofParams(0.5, 0.5), "no_such_scheme")
    # a scheme the sweeps take but that claims no GDOF region
    with pytest.raises(DomainError, match="unknown scheme"):
        gdof_region(GdofParams(0.5, 0.5), "rate_splitting_no_an")


def test_params_types():
    with pytest.raises(DomainError):
        GdofParams(alpha=True, gamma=0.5)
    with pytest.raises(DomainError):
        GdofParams(alpha=0.5, gamma=False)
    with pytest.raises(DomainError):
        GdofParams(alpha=0.5, gamma=0.5, eta=True)
    with pytest.raises(DomainError):
        GdofParams(alpha=0.5, gamma=math.inf)
    gp = GdofParams(alpha=np.float32(0.5), gamma=np.int64(1), eta=np.float32(0.25))
    assert gp == GdofParams(alpha=0.5, gamma=1.0, eta=0.25)
    assert all(type(v) is float for v in (gp.alpha, gp.gamma, gp.eta))


def test_convergence_one_time_pad():
    rep = gdof_convergence_check(GdofParams(alpha=0.5, gamma=0.1),
                                 "one_time_pad")
    assert rep.scheme == "one_time_pad"
    assert [r.snr for r in rep.rungs] == [1e2, 1e3, 1e4, 1e6]
    gaps = rep.gaps
    assert all(gaps[i + 1] <= gaps[i] + 1e-12 for i in range(len(gaps) - 1))
    assert rep.monotone
    assert rep.final_gap < 0.05
    assert rep.converged()


def test_convergence_key_splitting_sum_corner():
    gp = GdofParams(alpha=0.6, gamma=0.6, eta=1.0)
    rep = gdof_convergence_check(gp, "key_splitting")
    assert rep.monotone
    assert rep.final_gap < rep.gaps[0]
    # the achieved normalized sum tracks 2 - alpha from below
    sums = [r.achieved.max_sum for r in rep.rungs]
    target = 2.0 - gp.alpha
    assert sums[-1] == pytest.approx(target, abs=0.2)
    assert abs(sums[-1] - target) < abs(sums[0] - target)


def test_convergence_zero_gamma_trivial():
    rep = gdof_convergence_check(GdofParams(alpha=0.5, gamma=0.0),
                                 "one_time_pad")
    # claimed region is the d1 segment; any finite snr already covers it
    assert rep.final_gap == 0.0
    assert rep.converged()


def test_convergence_ladder_validation():
    gp = GdofParams(alpha=0.5, gamma=0.1)
    with pytest.raises(DomainError):
        gdof_convergence_check(gp, "one_time_pad", snr_ladder=(1e2, 1e3, 1e4))
    with pytest.raises(DomainError):
        gdof_convergence_check(gp, "one_time_pad",
                               snr_ladder=(0.5, 1e2, 1e3, 1e4))
    with pytest.raises(DomainError):
        gdof_convergence_check(gp, "no_such_scheme")


def test_convergence_rung_reports_corner_gaps():
    rep = gdof_convergence_check(GdofParams(alpha=0.5, gamma=0.1),
                                 "one_time_pad")
    for rung in rep.rungs:
        assert rung.gap == max(d for _, d in rung.corner_gaps)
        assert all(d >= 0.0 for _, d in rung.corner_gaps)


def _restated_region(alpha, gamma, eta, scheme):
    """The claimed polytopes, written out here as each scheme's pentagons
    hulled one by one, then hulled together."""
    if scheme in ("key_splitting", "rate_splitting"):
        if scheme == "rate_splitting":
            eta = 1.0  # the whole key on the common layer
        d2 = min(alpha, eta * gamma) + 1.0 - alpha
        return hull(polygon_points(1.0, d2, 2.0 - alpha))
    if scheme == "key_as_wiretap":
        boxes = ((1.0 - alpha, min(1.0, 1.0 - alpha + gamma)),
                 (1.0, 1.0 - alpha))
    else:
        boxes = ((1.0 - alpha, min(gamma, 1.0)),
                 (1.0, min(gamma, 1.0 - alpha)))
    return hull([hull(polygon_points(d1, d2, math.inf)) for d1, d2 in boxes])


def test_gdof_region_matches_the_restated_polytopes():
    assert SCHEMES == ("key_splitting", "rate_splitting", "key_as_wiretap",
                       "one_time_pad")
    rng = np.random.default_rng(20)
    draws = [(a, g, e) for a in (0.0, 0.5, 1.0)
             for g in (0.0, a, 1.0 - a, 1.0, 2.0) for e in (0.0, 1.0)]
    draws += [(float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.0, 2.0)),
               float(rng.uniform(0.0, 1.0))) for _ in range(300)]
    for alpha, gamma, eta in draws:
        gp = GdofParams(alpha, gamma, eta)
        for scheme in SCHEMES:
            got = gdof_region(gp, scheme)
            want = _restated_region(alpha, gamma, eta, scheme)
            assert np.array_equal(got.vertices, want.vertices), (gp, scheme)
            assert got.halfplanes == want.halfplanes, (gp, scheme)


def test_public_names_resolve():
    for name in zickey.__all__:
        assert hasattr(zickey, name), name
