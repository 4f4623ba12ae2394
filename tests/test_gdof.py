"""Normalized high-power (GDOF) polytopes and the finite-power ladder check."""

import math

import numpy as np
import pytest

from zickey import (DomainError, GdofParams, gdof_convergence_check,
                    gdof_region, key_splitting_gdof, key_wc_gdof,
                    key_wc_gdof_components, no_secrecy_gdof, otp_gdof,
                    otp_gdof_components, rate_splitting_gdof, subset_of)


def _verts(region):
    return np.asarray(region.vertices)


def test_key_splitting_faces():
    reg = key_splitting_gdof(GdofParams(alpha=0.8, gamma=0.3, eta=1.0))
    # faces d1 <= 1, d2 <= 0.5, sum <= 1.2
    assert np.allclose(_verts(reg),
                       [[0, 0], [1, 0], [1, 0.2], [0.7, 0.5], [0, 0.5]],
                       atol=1e-12)


def test_key_splitting_no_key_and_no_interference():
    reg = key_splitting_gdof(GdofParams(alpha=0.6, gamma=0.0))
    assert reg.max_y == pytest.approx(0.4, abs=1e-12)  # d2 <= 1 - alpha
    reg = key_splitting_gdof(GdofParams(alpha=0.0, gamma=0.7))
    assert np.allclose(_verts(reg), [[0, 0], [1, 0], [1, 1], [0, 1]],
                       atol=1e-12)  # sum face redundant at 2


def test_rate_splitting_equals_full_common_key_exactly():
    for alpha in (0.0, 0.3, 0.55, 1.0):
        for gamma in (0.0, 0.2, 0.8, 1.5):
            gp = GdofParams(alpha=alpha, gamma=gamma, eta=0.25)
            rs = rate_splitting_gdof(gp)
            ks = key_splitting_gdof(GdofParams(alpha, gamma, eta=1.0))
            assert np.array_equal(_verts(rs), _verts(ks))
            assert rs.halfplanes == ks.halfplanes


def test_rate_splitting_reference_faces():
    reg = rate_splitting_gdof(GdofParams(alpha=0.3, gamma=0.3))
    assert reg.max_x == 1.0 and reg.max_y == 1.0
    assert reg.max_sum == pytest.approx(1.7, abs=1e-12)
    reg = rate_splitting_gdof(GdofParams(alpha=0.8, gamma=0.8))
    assert reg.max_sum == pytest.approx(1.2, abs=1e-12)
    reg = rate_splitting_gdof(GdofParams(alpha=0.5, gamma=0.1))
    assert reg.max_y == pytest.approx(0.6, abs=1e-12)


def test_wiretap_hull_cases():
    # saturated key: hull of the (1-a) x 1 and 1 x (1-a) boxes
    reg = key_wc_gdof(GdofParams(alpha=0.4, gamma=0.5))
    assert np.allclose(_verts(reg),
                       [[0, 0], [1, 0], [1, 0.6], [0.6, 1], [0, 1]],
                       atol=1e-12)
    # no key: the first box is swallowed by the second
    reg = key_wc_gdof(GdofParams(alpha=0.4, gamma=0.0))
    assert np.allclose(_verts(reg), [[0, 0], [1, 0], [1, 0.6], [0, 0.6]],
                       atol=1e-12)
    # partial key
    reg = key_wc_gdof(GdofParams(alpha=0.5, gamma=0.2))
    assert np.allclose(_verts(reg),
                       [[0, 0], [1, 0], [1, 0.5], [0.5, 0.7], [0, 0.7]],
                       atol=1e-12)
    box1, box2 = key_wc_gdof_components(GdofParams(alpha=0.5, gamma=0.2))
    assert box1.max_x == 0.5 and box1.max_y == 0.7
    assert box2.max_x == 1.0 and box2.max_y == 0.5


def test_otp_hull_cases():
    # tiny key: both boxes flatten to the same strip
    reg = otp_gdof(GdofParams(alpha=0.5, gamma=0.1))
    assert np.allclose(_verts(reg), [[0, 0], [1, 0], [1, 0.1], [0, 0.1]],
                       atol=1e-12)
    # no key: degenerate segment on the d1 axis
    reg = otp_gdof(GdofParams(alpha=0.5, gamma=0.0))
    assert reg.max_y == 0.0 and reg.max_x == 1.0
    # saturated
    reg = otp_gdof(GdofParams(alpha=0.3, gamma=1.0))
    assert np.allclose(_verts(reg),
                       [[0, 0], [1, 0], [1, 0.7], [0.7, 1], [0, 1]],
                       atol=1e-12)
    box1, box2 = otp_gdof_components(GdofParams(alpha=0.3, gamma=1.0))
    assert box1.max_x == pytest.approx(0.7) and box1.max_y == 1.0
    assert box2.max_x == 1.0 and box2.max_y == pytest.approx(0.7)


def test_polytope_vertices_are_exact_expressions():
    # every corner is a cap or a cap minus a cap, rounded once
    assert no_secrecy_gdof(0.9).vertices.tolist() == [
        [0.0, 0.0], [1.0, 0.0], [1.0, (2.0 - 0.9) - 1.0],
        [(2.0 - 0.9) - 1.0, 1.0], [0.0, 1.0]]
    d2 = min(0.8, 0.3) + 1.0 - 0.8
    reg = key_splitting_gdof(GdofParams(alpha=0.8, gamma=0.3, eta=1.0))
    assert reg.vertices.tolist() == [
        [0.0, 0.0], [1.0, 0.0], [1.0, (2.0 - 0.8) - 1.0],
        [(2.0 - 0.8) - d2, d2], [0.0, d2]]
    box1, box2 = key_wc_gdof_components(GdofParams(alpha=0.3, gamma=0.5))
    assert box1.vertices.tolist() == [[0.0, 0.0], [1.0 - 0.3, 0.0],
                                      [1.0 - 0.3, 1.0], [0.0, 1.0]]
    assert box2.vertices.tolist() == [[0.0, 0.0], [1.0, 0.0],
                                      [1.0, 1.0 - 0.3], [0.0, 1.0 - 0.3]]


def test_eta_zero_sum_face_redundant():
    """With no common-layer key the sum face never binds."""
    from zickey import intersect_halfplanes
    for alpha in (0.2, 0.5, 0.9):
        gp = GdofParams(alpha=alpha, gamma=0.6, eta=0.0)
        full = key_splitting_gdof(gp)
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
        ks = key_splitting_gdof(GdofParams(alpha=alpha, gamma=alpha, eta=1.0))
        ref = no_secrecy_gdof(alpha)
        assert np.allclose(_verts(ks), _verts(ref), atol=1e-12)
        # more key than interference buys nothing beyond the reference
        more = key_splitting_gdof(GdofParams(alpha=alpha, gamma=2.0, eta=1.0))
        assert subset_of(more, ref, tol=1e-12)
        assert subset_of(ref, more, tol=1e-12)


def test_alpha_above_one_rejected():
    gp = GdofParams(alpha=1.2, gamma=0.5)
    for fn in (key_splitting_gdof, rate_splitting_gdof, key_wc_gdof,
               otp_gdof):
        with pytest.raises(DomainError):
            fn(gp)
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
