"""Self-check battery of structural invariants.

Every invariant is a property the rate formulas, bounds, and geometry
must satisfy regardless of parameters: monotonicity in the key rate,
scheme-region nesting, outer-bound containment, exact algebraic
degenerations, and determinism. The battery runs on a seeded generator
so reports are reproducible; `corrupt=True` deliberately shaves one
outer-bound face to prove the containment checks have teeth.
"""

from __future__ import annotations

import json
from dataclasses import replace

import numpy as np

from .bounds import composite_outer_region, r2_outer_high, sum_rate_outer, \
    evaluate_outer_bounds
from .channel import ChannelParams, SchemeParams, classify_regime, snr_inr
from .gdof import GAP_TOL, GdofParams, gdof_convergence_check, gdof_region, \
    no_secrecy_gdof
from .geometry import REGION_TOL, containment_margin, hull, \
    intersect_halfplanes, subset_of
from .schemes import GridSpec, SCHEMES, polygon_points, scheme_point, \
    sweep_region, sweep_regions

# coarse but fast grid for region-level checks
_GRID = GridSpec(n_lambda1=7, n_lambda2=8, n_beta1=7, n_beta2=7, n_eta=5)

_EQ_TOL = 1e-12
# the schemes whose caps are checked at single parameter points
_POINT_SCHEMES = ("key_splitting", "key_as_wiretap", "one_time_pad")


def _draw_channel(rng, rk_max=3.0):
    h11, h22, h21 = rng.uniform(0.2, 2.0, size=3)
    p1, p2 = rng.uniform(0.5, 150.0, size=2)
    rk = float(rng.uniform(0.0, rk_max))
    return ChannelParams(h11=float(h11), h22=float(h22), h21=float(h21),
                         p1=float(p1), p2=float(p2), rk=rk)


def _draw_scheme(rng):
    lam1, lam2, b1, b2, eta = rng.uniform(0.0, 1.0, size=5)
    return SchemeParams(lambda1=float(lam1), lambda2=float(lam2),
                        beta1=float(b1), beta2=float(b2), eta=float(eta))


def _fmt(ch: ChannelParams) -> str:
    return (f"h11={ch.h11:.4g} h22={ch.h22:.4g} h21={ch.h21:.4g} "
            f"p1={ch.p1:.4g} p2={ch.p2:.4g} rk={ch.rk:.4g}")


def _row(scenario, margin):
    """One report row; the margin is the slack of the check's own test, so
    a row passes exactly when its margin is nonnegative."""
    return {"scenario": scenario, "margin": float(margin),
            "pass": bool(margin >= 0.0)}


def _inv_snr_inr_power_scaling(rng, corrupt):
    rows = []
    for _ in range(3):
        ch = _draw_channel(rng)
        c = float(rng.uniform(0.5, 4.0))
        scaled = replace(ch, p1=c * ch.p1, p2=c * ch.p2)
        a = np.array(snr_inr(ch))
        b = np.array(snr_inr(scaled))
        err = float(np.max(np.abs(b - c * a) / np.maximum(c * a, 1e-30)))
        rows.append(_row(_fmt(ch) + f" scale={c:.4g}", _EQ_TOL - err))
    return rows


def _inv_regime_boundary(rng, corrupt):
    rows = []
    for _ in range(2):
        h = float(rng.uniform(0.3, 1.5))
        p = float(rng.uniform(1.0, 100.0))
        ch_eq = ChannelParams(h11=1.0, h22=h, h21=h, p1=p, p2=p)
        ch_hi = ChannelParams(h11=1.0, h22=h, h21=h * (1.0 + 1e-9), p1=p, p2=p)
        ok = (classify_regime(ch_eq) == "weak_moderate"
              and classify_regime(ch_hi) == "high")
        rows.append(_row(f"h={h:.4g} p={p:.4g}", 0.0 if ok else -1.0))
    return rows


def _inv_caps_nonnegative(rng, corrupt):
    rows = []
    for _ in range(4):
        ch = _draw_channel(rng)
        sp = _draw_scheme(rng)
        ks, wc, op = (scheme_point(ch, s, sp) for s in _POINT_SCHEMES)
        low = min(ks.r1_cap, ks.r2_cap, ks.sum_cap,
                  wc.r1_cap, wc.r2_cap, op.r1_cap, op.r2_cap)
        rows.append(_row(_fmt(ch), low))
    return rows


def _inv_rk_monotone_caps(rng, corrupt):
    rows = []
    for _ in range(3):
        ch = _draw_channel(rng)
        ch2 = replace(ch, rk=ch.rk + 0.5)
        sp = _draw_scheme(rng)
        a, wa, oa = (scheme_point(ch, s, sp) for s in _POINT_SCHEMES)
        b, wb, ob = (scheme_point(ch2, s, sp) for s in _POINT_SCHEMES)
        worst = min(b.r2_cap - a.r2_cap, b.sum_cap - a.sum_cap,
                    wb.r2_cap - wa.r2_cap, ob.r2_cap - oa.r2_cap)
        rows.append(_row(_fmt(ch), worst + _EQ_TOL))
    return rows


def _inv_eta0_lambda1_matches_wiretap(rng, corrupt):
    # with no key on the common layer, no noise layer, and all of user 2's
    # power private, key splitting must collapse to the wiretap scheme
    # bit for bit
    rows = []
    for _ in range(3):
        ch = _draw_channel(rng)
        b1, b2 = (float(v) for v in rng.uniform(0.0, 1.0, size=2))
        sp = SchemeParams(lambda1=1.0, lambda2=1.0, beta1=b1, beta2=b2, eta=0.0)
        ks = scheme_point(ch, "key_splitting", sp)
        wc = scheme_point(ch, "key_as_wiretap", sp)
        diff = max(abs(ks.r1_cap - wc.r1_cap), abs(ks.r2_cap - wc.r2_cap))
        ok = ks.r1_cap == wc.r1_cap and ks.r2_cap == wc.r2_cap
        rows.append(_row(_fmt(ch) + f" b1={b1:.4g} b2={b2:.4g}",
                         0.0 if ok else -diff))
    return rows


def _inv_in_key_split(scheme):
    """The invariant that the scheme's region lies inside key splitting's."""
    def check(rng, corrupt):
        rows = []
        for _ in range(2):
            ch = _draw_channel(rng)
            regions = sweep_regions(ch, (scheme, "key_splitting"), _GRID)
            m = containment_margin(regions["key_splitting"],
                                   regions[scheme].vertices)
            rows.append(_row(_fmt(ch), REGION_TOL - m))
        return rows
    return check


def _inv_otp_r2_at_most_key(rng, corrupt):
    rows = []
    for _ in range(3):
        ch = _draw_channel(rng)
        region = sweep_region(ch, "one_time_pad", _GRID)
        cap = min(ch.rk, float(0.5 * np.log2(1.0 + ch.h22**2 * ch.p2)))
        worst = cap - region.max_y
        rows.append(_row(_fmt(ch), worst + _EQ_TOL))
    return rows


def _outer_for_check(ch: ChannelParams, corrupt: bool):
    if not corrupt:
        return composite_outer_region(ch)
    # shave the R1 face, which every scheme meets exactly at zero
    # cross power, so the containment check must light up
    a, b, c = evaluate_outer_bounds(ch).caps
    return hull(polygon_points(a - 0.25, b, c))


def _inv_schemes_within_outer(rng, corrupt):
    # fixed channels, one per regime, so the corrupt self-test is stable
    chans = (ChannelParams(h11=1.0, h22=1.0, h21=0.6, p1=100.0, p2=100.0, rk=1.0),
             ChannelParams(h11=2.0, h22=1.0, h21=1.2, p1=5.0, p2=10.0, rk=0.5))
    rows = []
    for ch in chans:
        outer = _outer_for_check(ch, corrupt)
        for scheme, inner in sweep_regions(ch, SCHEMES, _GRID).items():
            m = containment_margin(outer, inner.vertices)
            rows.append(_row(f"{scheme} {_fmt(ch)}", REGION_TOL - m))
    return rows


def _inv_outer_rk_slope_one(rng, corrupt):
    rows = []
    for _ in range(3):
        ch = _draw_channel(rng)
        delta = float(rng.uniform(0.1, 1.0))
        a = evaluate_outer_bounds(ch)
        b = evaluate_outer_bounds(replace(ch, rk=ch.rk + delta))
        errs = [abs((b.r2_keyed - a.r2_keyed) - delta)]
        if a.sum_keyed is not None:
            errs.append(abs((b.sum_keyed - a.sum_keyed) - delta))
        err = max(errs)
        rows.append(_row(_fmt(ch) + f" delta={delta:.4g}", 1e-9 - err))
    return rows


def _inv_sum_outer_no_key_reduction(rng, corrupt):
    # symmetric channel, no key: the sum bound must equal the
    # interference-free rate minus the cross-link capacity, exactly
    rows = []
    for _ in range(3):
        h = float(rng.uniform(0.3, 1.5))
        p = float(rng.uniform(1.0, 120.0))
        h21 = h * float(rng.uniform(0.1, 0.9))
        ch = ChannelParams(h11=h, h22=h, h21=h21, p1=p, p2=p, rk=0.0)
        got = sum_rate_outer(ch)
        want = float(np.log2(1.0 + h**2 * p) - 0.5 * np.log2(1.0 + h21**2 * p))
        ok = got == want
        rows.append(_row(_fmt(ch), 0.0 if ok else -abs(got - want)))
    return rows


def _inv_r2_outer_high_inr_asymptote(rng, corrupt):
    vals = []
    for inr in (1e2, 1e4, 1e6, 1e8):
        h21 = float(np.sqrt(inr / 100.0))
        ch = ChannelParams(h11=1.0, h22=1.0, h21=h21, p1=100.0, p2=100.0, rk=1.0)
        vals.append(r2_outer_high(ch))
    decreasing = all(vals[i + 1] < vals[i] for i in range(len(vals) - 1))
    tail = vals[-1] - 1.0
    slack = 1e-3 - tail if tail >= 0.0 else tail
    return [_row("snr=100 rk=1 inr=1e2..1e8", slack if decreasing else -1.0)]


def _inv_gdof_eta1_matches_rate_split(rng, corrupt):
    rows = []
    for _ in range(3):
        gp = GdofParams(alpha=float(rng.uniform(0.0, 1.0)),
                        gamma=float(rng.uniform(0.0, 1.5)), eta=1.0)
        a = gdof_region(gp, "key_splitting")
        b = gdof_region(gp, "rate_splitting")
        ok = np.array_equal(a.vertices, b.vertices)
        rows.append(_row(f"alpha={gp.alpha:.4g} gamma={gp.gamma:.4g}",
                         0.0 if ok else -1.0))
    return rows


def _inv_gdof_eta0_sum_face_redundant(rng, corrupt):
    # eta = 0 starves the common layer, so the region must collapse to
    # the box d1 <= 1, d2 <= 1 - alpha with the sum face inactive
    rows = []
    for _ in range(2):
        alpha = float(rng.uniform(0.0, 0.95))
        gp = GdofParams(alpha=alpha, gamma=float(rng.uniform(0.2, 1.5)), eta=0.0)
        got = gdof_region(gp, "key_splitting")
        box = hull(polygon_points(1.0, 1.0 - alpha, np.inf))
        m = max(containment_margin(box, got.vertices),
                containment_margin(got, box.vertices))
        rows.append(_row(f"alpha={alpha:.4g} gamma={gp.gamma:.4g}",
                         REGION_TOL - m))
    return rows


def _inv_gdof_gamma_monotone(rng, corrupt):
    rows = []
    for _ in range(2):
        alpha = float(rng.uniform(0.0, 1.0))
        gamma = float(rng.uniform(0.0, 1.0))
        for scheme in SCHEMES:
            small = gdof_region(GdofParams(alpha=alpha, gamma=gamma), scheme)
            big = gdof_region(GdofParams(alpha=alpha, gamma=gamma + 0.3), scheme)
            m = containment_margin(big, small.vertices)
            rows.append(_row(f"{scheme} alpha={alpha:.4g} gamma={gamma:.4g}",
                             REGION_TOL - m))
    return rows


def _inv_gdof_no_secrecy_cap(rng, corrupt):
    rows = []
    for _ in range(2):
        alpha = float(rng.uniform(0.0, 1.0))
        gp = GdofParams(alpha=alpha, gamma=float(rng.uniform(0.0, 1.5)),
                        eta=float(rng.uniform(0.0, 1.0)))
        cap = no_secrecy_gdof(alpha)
        for scheme in SCHEMES:
            m = containment_margin(cap, gdof_region(gp, scheme).vertices)
            rows.append(_row(f"{scheme} alpha={alpha:.4g} gamma={gp.gamma:.4g}",
                             REGION_TOL - m))
    return rows


def _inv_gdof_convergence_monotone(rng, corrupt):
    configs = (("one_time_pad", GdofParams(alpha=0.5, gamma=0.1)),
               ("key_splitting", GdofParams(alpha=0.6, gamma=0.6, eta=1.0)))
    rows = []
    for scheme, gp in configs:
        rep = gdof_convergence_check(gp, scheme)
        gaps = rep.gaps
        # the slack of the report's own monotone test
        step = min(gaps[i] + GAP_TOL - gaps[i + 1] for i in range(len(gaps) - 1))
        rows.append(_row(f"{scheme} alpha={gp.alpha:.4g} gamma={gp.gamma:.4g}",
                         step))
    return rows


def _inv_hull_idempotent(rng, corrupt):
    rows = []
    for i in range(3):
        pts = rng.uniform(0.0, 3.0, size=(40, 2))
        a = hull(pts)
        b = hull(a.vertices)
        ok = np.array_equal(a.vertices, b.vertices)
        rows.append(_row(f"draw {i} n=40", 0.0 if ok else -1.0))
    return rows


def _inv_region_down_closed(rng, corrupt):
    rows = []
    for i in range(3):
        region = hull(rng.uniform(0.0, 3.0, size=(30, 2)))
        v = region.vertices
        picks = v[rng.integers(0, len(v), size=50)]
        shrunk = picks * rng.uniform(0.0, 1.0, size=(50, 2))
        m = containment_margin(region, shrunk)
        rows.append(_row(f"draw {i} n=50 probes", REGION_TOL - m))
    return rows


def _inv_halfplane_roundtrip(rng, corrupt):
    rows = []
    for i in range(3):
        region = hull(rng.uniform(0.0, 3.0, size=(30, 2)))
        rebuilt = intersect_halfplanes(region.halfplanes)
        m = max(containment_margin(rebuilt, region.vertices),
                containment_margin(region, rebuilt.vertices))
        rows.append(_row(f"draw {i}", REGION_TOL - m))
    return rows


def _inv_subset_partial_order(rng, corrupt):
    rows = []
    for i in range(2):
        base = hull(rng.uniform(0.1, 2.0, size=(25, 2)))
        mid = hull(base.vertices * 1.5)
        top = hull(mid.vertices * 1.1)
        ok = (subset_of(base, mid) and subset_of(mid, top)
              and subset_of(base, top) and not subset_of(mid, base))
        rows.append(_row(f"draw {i}", 0.0 if ok else -1.0))
    return rows


def _inv_determinism_repeat_sweep(rng, corrupt):
    rows = []
    for _ in range(2):
        ch = _draw_channel(rng)
        a = sweep_region(ch, "key_splitting", _GRID)
        b = sweep_region(ch, "key_splitting", _GRID)
        c = sweep_region(ch, "one_time_pad", _GRID)
        d = sweep_region(ch, "one_time_pad", _GRID)
        ok = (np.array_equal(a.vertices, b.vertices)
              and a.halfplanes == b.halfplanes
              and np.array_equal(c.vertices, d.vertices))
        rows.append(_row(_fmt(ch), 0.0 if ok else -1.0))
    return rows


def _inv_continuity_small_perturbation(rng, corrupt):
    rows = []
    for _ in range(2):
        ch = _draw_channel(rng)
        ch2 = replace(ch, h21=ch.h21 * (1.0 + 1e-9))
        a = sweep_region(ch, "key_splitting", _GRID)
        b = sweep_region(ch2, "key_splitting", _GRID)
        err = max(abs(a.max_x - b.max_x), abs(a.max_y - b.max_y),
                  abs(a.max_sum - b.max_sum))
        rows.append(_row(_fmt(ch), 1e-6 - err))
    return rows


INVARIANTS = (
    ("snr_inr_power_scaling", _inv_snr_inr_power_scaling),
    ("regime_boundary", _inv_regime_boundary),
    ("caps_nonnegative", _inv_caps_nonnegative),
    ("rk_monotone_caps", _inv_rk_monotone_caps),
    ("eta0_lambda1_matches_wiretap", _inv_eta0_lambda1_matches_wiretap),
    ("rate_split_region_in_key_split", _inv_in_key_split("rate_splitting")),
    ("wiretap_region_in_key_split", _inv_in_key_split("key_as_wiretap")),
    ("otp_r2_at_most_key", _inv_otp_r2_at_most_key),
    ("schemes_within_outer", _inv_schemes_within_outer),
    ("outer_rk_slope_one", _inv_outer_rk_slope_one),
    ("sum_outer_no_key_reduction", _inv_sum_outer_no_key_reduction),
    ("r2_outer_high_inr_asymptote", _inv_r2_outer_high_inr_asymptote),
    ("gdof_eta1_matches_rate_split", _inv_gdof_eta1_matches_rate_split),
    ("gdof_eta0_sum_face_redundant", _inv_gdof_eta0_sum_face_redundant),
    ("gdof_gamma_monotone", _inv_gdof_gamma_monotone),
    ("gdof_no_secrecy_cap", _inv_gdof_no_secrecy_cap),
    ("gdof_convergence_monotone", _inv_gdof_convergence_monotone),
    ("hull_idempotent", _inv_hull_idempotent),
    ("region_down_closed", _inv_region_down_closed),
    ("halfplane_roundtrip", _inv_halfplane_roundtrip),
    ("subset_partial_order", _inv_subset_partial_order),
    ("determinism_repeat_sweep", _inv_determinism_repeat_sweep),
    ("continuity_small_perturbation", _inv_continuity_small_perturbation),
)

REPORT_SCHEMA = {
    "type": "object",
    "required": ["seed", "n_scenarios", "all_pass", "results"],
    "properties": {
        "seed": {"type": "integer"},
        "n_scenarios": {"type": "integer", "minimum": 1},
        "all_pass": {"type": "boolean"},
        "corrupt": {"type": "boolean"},
        "results": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["invariant", "scenario", "margin", "pass"],
                "properties": {
                    "invariant": {"type": "string"},
                    "scenario": {"type": "string"},
                    "margin": {"type": "number"},
                    "pass": {"type": "boolean"},
                },
            },
        },
    },
}


def run_battery(seed: int = 20240817, corrupt: bool = False) -> dict:
    """Run every invariant on seeded scenarios and collect a report dict."""
    rng = np.random.default_rng(seed)
    results = []
    for name, fn in INVARIANTS:
        for row in fn(rng, corrupt):
            results.append({"invariant": name, **row})
    return {
        "seed": int(seed),
        "corrupt": bool(corrupt),
        "n_scenarios": len(results),
        "all_pass": all(r["pass"] for r in results),
        "results": results,
    }


def render_report(report: dict) -> str:
    """Stable JSON rendering of a battery report."""
    return json.dumps(report, indent=2, sort_keys=True)
