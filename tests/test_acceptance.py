"""Acceptance gate: one test per release criterion, one PASS/FAIL line each.

Criteria (each must finish in under 60 s):
  1. frozen derived values reproduce against the independent oracle (1e-4)
  2. region inclusions over >= 100 randomized channels (1e-9)
  3. exact special-case reductions (bit-exact / 1e-12)
  4. GDOF redundancy and saturated-key optimality (1e-12)
  5. high-interference and high-power asymptotics
  6. nine showcase channels: key splitting dominates, pad saturates
  7. byte-identical CSV reruns of the region command
"""

import filecmp
import math

import numpy as np

import oracle
from zickey import (ChannelParams, GdofParams, GridSpec, SchemeParams,
                    composite_outer_region, gdof_convergence_check,
                    gdof_region, intersect_halfplanes, max_y_at_x,
                    no_secrecy_gdof, r2_outer_high, scheme_point, subset_of,
                    sum_rate_outer, sweep_region)
from zickey.cli import main


def _report(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {num} {status}: {label}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _close(got, want, tol):
    return got is not None and abs(got - want) <= tol


def test_criterion_1_derived_values_match_oracle():
    failures = []
    tol = 1e-4
    ch1 = ChannelParams(1, 1, 0.6, 100, 100, rk=1.0)
    ch2 = ChannelParams(1, 1, 0.6, 100, 100, rk=2.0)
    sp = SchemeParams(lambda1=1.0, lambda2=0.027778, eta=0.5)

    otp = scheme_point(ch1, "one_time_pad")
    o_r1, o_r2 = (float(v) for v in oracle.otp_point(1, 1, '0.6', 100, 100, 1))
    if not (_close(otp.r1_cap, o_r1, tol) and _close(otp.r2_cap, o_r2, tol)):
        failures.append(f"one_time_pad point {otp} != oracle ({o_r1}, {o_r2})")
    if not (_close(otp.r1_cap, 0.9443, tol) and _close(otp.r2_cap, 1.0, tol)):
        failures.append("one_time_pad point off the published value")

    wc = scheme_point(ch1, "key_as_wiretap")
    _, w_r2 = (float(v) for v in oracle.wiretap_point(1, 1, '0.6', 100, 100, 1))
    if not (_close(wc.r2_cap, w_r2, tol) and _close(wc.r2_cap, 1.7244, tol)):
        failures.append(f"key_as_wiretap r2 {wc.r2_cap} != oracle {w_r2}")

    s = sum_rate_outer(ch1)
    o_s = float(oracle.sum_outer(100, 100, 36, 1))
    if not (_close(s, o_s, tol) and _close(s, 5.0535, tol)):
        failures.append(f"keyed sum bound {s} != oracle {o_s}")

    r2h = r2_outer_high(ch1)
    o_r2h = float(oracle.r2_outer(100, 100, 36, 1))
    if not (_close(r2h, o_r2h, tol) and _close(r2h, 4.1117, tol)):
        failures.append(f"keyed r2 bound {r2h} != oracle {o_r2h}")

    ks = scheme_point(ch2, "key_splitting", sp)
    o_ks = tuple(float(v) for v in oracle.key_split_point(
        1, 1, '0.6', 100, 100, 2, 1, '0.027778', 1, 1, '0.5'))
    got = (ks.r1_cap, ks.r2_cap, ks.sum_cap)
    if not all(_close(g, o, tol) for g, o in zip(got, o_ks)):
        failures.append(f"key_splitting point {got} != oracle {o_ks}")
    if not all(_close(g, w, tol) for g, w in zip(got, (2.8362, 1.9588, 4.0078))):
        failures.append("key_splitting point off the published value")

    _report(1, "derived values vs independent oracle (tol 1e-4)", failures)


def test_criterion_2_inclusions_over_randomized_channels():
    failures = []
    rng = np.random.default_rng(20240817)
    grid = GridSpec(n_lambda1=6, n_lambda2=7, n_beta1=6, n_beta2=6, n_eta=4)
    checked = 0
    while checked < 100:
        h11, h22, h21 = rng.uniform(0.1, 2.0, 3)
        p1, p2 = rng.uniform(1.0, 1000.0, 2)
        rk = rng.uniform(0.0, 3.0)
        if not h22 * h22 * p2 > h21 * h21 * p2:  # keep snr2 > inr1
            continue
        checked += 1
        ch = ChannelParams(h11, h22, h21, p1, p2, rk)
        outer = composite_outer_region(ch)
        ks = sweep_region(ch, "key_splitting", grid)
        rs = sweep_region(ch, "rate_splitting", grid)
        wc = sweep_region(ch, "key_as_wiretap", grid)
        otp = sweep_region(ch, "one_time_pad", grid)
        for name, reg in (("key_splitting", ks), ("rate_splitting", rs),
                          ("key_as_wiretap", wc), ("one_time_pad", otp)):
            if not subset_of(reg, outer, tol=1e-9):
                failures.append(f"{name} escapes the outer region at {ch}")
        if not subset_of(rs, ks, tol=1e-9):
            failures.append(f"rate_splitting escapes key_splitting at {ch}")
        if not subset_of(wc, ks, tol=1e-9):
            failures.append(f"key_as_wiretap escapes key_splitting at {ch}")
        if failures:
            break
    _report(2, f"containment on {checked} randomized channels (tol 1e-9)",
            failures)


def test_criterion_3_exact_reductions():
    failures = []
    rng = np.random.default_rng(314)

    # (a) no key: the keyed sum bound collapses to the keyless expression
    hits = 0
    while hits < 25:
        h, hc = rng.uniform(0.1, 2.0, 2)
        p = rng.uniform(1.0, 1000.0)
        snr, inr = h * h * p, hc * hc * p
        if not snr > inr:
            continue
        hits += 1
        ch = ChannelParams(h, h, hc, p, p, rk=0.0)
        keyless = float(np.log2(1.0 + snr) - 0.5 * np.log2(1.0 + inr))
        if sum_rate_outer(ch) != keyless:
            failures.append(f"keyless sum bound mismatch at snr={snr}")

    # (b) silent user 1: wiretap-with-key single-link formula, exactly
    for _ in range(25):
        h22, h21 = rng.uniform(0.1, 2.0, 2)
        p2 = rng.uniform(1.0, 1000.0)
        rk = rng.uniform(0.0, 3.0)
        b2 = rng.uniform(0.0, 1.0)
        ch = ChannelParams(1.0, h22, h21, 0.0, p2, rk)
        rc = scheme_point(ch, "key_as_wiretap", SchemeParams(beta2=b2))
        q2 = b2 * p2
        cap2 = 0.5 * math.log2(1.0 + h22 * h22 * q2)
        leak = 0.5 * math.log2(1.0 + h21 * h21 * q2)
        want = max(0.0, min(cap2, cap2 - leak + rk))
        if rc.r1_cap != 0.0 or rc.r2_cap != want:
            failures.append(f"silent-user-1 reduction mismatch at p2={p2}")

    # (c) eta=0, lambda=1 key splitting equals key-as-wiretap to 1e-12
    for _ in range(25):
        ch = ChannelParams(*rng.uniform(0.1, 2.0, 3),
                           *rng.uniform(1.0, 1000.0, 2),
                           rk=rng.uniform(0.0, 3.0))
        b1, b2 = rng.uniform(0.0, 1.0, 2)
        sp = SchemeParams(lambda1=1.0, lambda2=1.0, beta1=b1, beta2=b2,
                          eta=0.0)
        ks = scheme_point(ch, "key_splitting", sp)
        wc = scheme_point(ch, "key_as_wiretap", sp)
        if abs(ks.r1_cap - wc.r1_cap) > 1e-12 or abs(ks.r2_cap - wc.r2_cap) > 1e-12:
            failures.append(f"eta=0 reduction off by more than 1e-12 at {ch}")

    # (d) eta=1 key-splitting GDOF equals the rate-splitting GDOF region
    for alpha in (0.0, 0.25, 0.6, 1.0):
        for gamma in (0.0, 0.3, 0.9, 1.4):
            ks = gdof_region(GdofParams(alpha, gamma, eta=1.0), "key_splitting")
            rs = gdof_region(GdofParams(alpha, gamma, eta=0.4), "rate_splitting")
            if not np.array_equal(ks.vertices, rs.vertices):
                failures.append(f"gdof vertex lists differ at a={alpha} g={gamma}")

    _report(3, "special-case reductions (exact / 1e-12)", failures)


def test_criterion_4_gdof_redundancy_and_optimality():
    failures = []
    # eta=0: the sum face never binds
    for alpha in (0.1, 0.4, 0.7, 1.0):
        gp = GdofParams(alpha=alpha, gamma=0.8, eta=0.0)
        full = gdof_region(gp, "key_splitting")
        trimmed = intersect_halfplanes(
            [(1.0, 0.0, 1.0), (0.0, 1.0, 1.0 - alpha)])
        # mutual containment at 1e-12; vertex lists may differ by an
        # ulp-sliver where the sum face grazes the box corner
        same = (subset_of(full, trimmed, tol=1e-12)
                and subset_of(trimmed, full, tol=1e-12))
        if not same:
            failures.append(f"eta=0 sum face binds at alpha={alpha}")
    # saturated key: the region equals the no-secrecy reference polytope
    for alpha in (0.3, 0.8):
        ks = gdof_region(GdofParams(alpha=alpha, gamma=alpha, eta=1.0),
                         "key_splitting")
        ref = no_secrecy_gdof(alpha)
        same = (subset_of(ks, ref, tol=1e-12) and subset_of(ref, ks, tol=1e-12)
                and np.allclose(ks.vertices, ref.vertices, atol=1e-12))
        if not same:
            failures.append(f"gamma=alpha={alpha} region misses the reference")
    _report(4, "GDOF sum-face redundancy and saturated-key optimality "
               "(tol 1e-12)", failures)


def test_criterion_5_asymptotics():
    failures = []
    # keyed R2 bound: excess over rk vanishes monotonically as inr explodes
    excesses = []
    for inr in (1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9):
        ch = ChannelParams(1, 1, math.sqrt(inr / 100.0), 100, 100, rk=1.0)
        excesses.append(r2_outer_high(ch) - ch.rk)
    if not all(b < a for a, b in zip(excesses, excesses[1:])):
        failures.append("keyed R2 excess is not monotone along the inr ladder")
    if not excesses[-1] < 1e-3:
        failures.append(f"keyed R2 excess {excesses[-1]} >= 1e-3 at inr=1e9")

    # normalized finite-power regions approach the claimed polytope corners
    rep = gdof_convergence_check(GdofParams(alpha=0.5, gamma=0.1),
                                 "one_time_pad", snr_ladder=(1e2, 1e3, 1e4, 1e6))
    if not rep.monotone:
        failures.append("one_time_pad corner gaps are not monotone")
    if not rep.final_gap < 0.05:
        failures.append(f"one_time_pad final gap {rep.final_gap} >= 0.05")
    rep = gdof_convergence_check(GdofParams(alpha=0.6, gamma=0.6, eta=1.0),
                                 "key_splitting", snr_ladder=(1e2, 1e3, 1e4, 1e6))
    if not rep.monotone:
        failures.append("key_splitting corner gaps are not monotone")
    if not rep.gaps[-1] < rep.gaps[0]:
        failures.append("key_splitting corner gaps do not shrink")

    _report(5, "inr-ladder and snr-ladder asymptotics", failures)


def test_criterion_6_showcase_configurations():
    failures = []
    grid = GridSpec(n_lambda1=17, n_lambda2=18, n_beta1=17, n_beta2=17,
                    n_eta=11)
    c_snr2 = 0.5 * math.log2(1.0 + 100.0)
    for h21 in (0.6, 0.8, 1.2):  # weak, moderate, high cross link
        for rk in (0.2, 1.0, 2.0):
            ch = ChannelParams(1, 1, h21, 100, 100, rk=rk)
            ks = sweep_region(ch, "key_splitting", grid)
            x = 0.5 * ks.max_x
            ks_y = max_y_at_x(ks, x)
            others = {
                "rate_splitting": sweep_region(ch, "rate_splitting", grid),
                "rate_splitting_no_an": sweep_region(
                    ch, "rate_splitting_no_an", grid),
                "key_as_wiretap": sweep_region(ch, "key_as_wiretap", grid),
                "one_time_pad": sweep_region(ch, "one_time_pad", grid),
            }
            for name, reg in others.items():
                other_y = max_y_at_x(reg, x)
                if other_y is None:
                    continue
                if not ks_y >= other_y - 1e-9:
                    failures.append(
                        f"h21={h21} rk={rk}: {name} beats key splitting "
                        f"({other_y} > {ks_y}) at R1={x}")
            otp = sweep_region(ch, "one_time_pad", grid)
            if otp.max_y != min(rk, c_snr2):
                failures.append(f"h21={h21} rk={rk}: pad max R2 {otp.max_y} "
                                f"!= min(rk, c(snr2))")
    _report(6, "key splitting dominates at R1 = r1max/2 in all nine "
               "showcase configurations", failures)


def test_criterion_7_region_command_determinism(tmp_path):
    failures = []
    args = ["region", "--h11", "1", "--h22", "1", "--h21", "0.6",
            "--p1", "100", "--p2", "100", "--rk", "0.2"]
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    for out in (out1, out2):
        if main([*args, "--out-dir", str(out)]) != 0:
            failures.append("region command failed")
    csvs = sorted(p.name for p in out1.glob("*.csv"))
    if len(csvs) != 6:  # five schemes plus the outer region
        failures.append(f"expected 6 CSV files, found {csvs}")
    match, mismatch, errors = filecmp.cmpfiles(out1, out2, csvs,
                                               shallow=False)
    if mismatch or errors or sorted(match) != csvs:
        failures.append(f"rerun differs: mismatch={mismatch} errors={errors}")
    _report(7, "byte-identical region CSVs across reruns", failures)
