"""Secure generalized-degrees-of-freedom (GDOF) regions and their
finite-power convergence check.

Axes are normalized rates d_i = R_i / (0.5*log2(snr)). The interference
exponent alpha = log(inr)/log(snr) and the normalized key rate
gamma = rk / (0.5*log2(snr)) replace the raw channel parameters. Only
alpha <= 1 (cross link no stronger than the direct links) is supported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelParams, DomainError, SchemeParams, as_real
from .geometry import Region, distance_to_region, hull
# unused here; benchmarks/spans.py traces it under this module's name
from .geometry import intersect_halfplanes  # noqa: F401
from .schemes import (SCHEMES, _otp_clip, _unlayered_terms, _wiretap_clip,
                      gdof_split_lambda2, key_splitting_point, polygon_points)

GAP_TOL = 1e-12  # a convergence gap may rise this much and stay monotone


@dataclass(frozen=True)
class GdofParams:
    """Interference exponent, normalized key rate, and key split."""

    alpha: float
    gamma: float
    eta: float = 1.0

    def __post_init__(self):
        for name, hi in (("alpha", math.inf), ("gamma", math.inf), ("eta", 1.0)):
            object.__setattr__(self, name,
                               as_real(name, getattr(self, name), 0.0, hi))


def _check_alpha(gp: GdofParams):
    if gp.alpha > 1.0:
        raise DomainError("alpha > 1 (cross link stronger than direct links) "
                          "is outside the supported regime")


def key_splitting_gdof(gp: GdofParams) -> Region:
    """GDOF polytope of the key-splitting scheme (no artificial noise)."""
    _check_alpha(gp)
    d2 = min(gp.alpha, gp.eta * gp.gamma) + 1.0 - gp.alpha
    return _pentagon(1.0, d2, 2.0 - gp.alpha)


def rate_splitting_gdof(gp: GdofParams) -> Region:
    """Key-splitting GDOF polytope with the whole key on the common layer."""
    return key_splitting_gdof(replace(gp, eta=1.0))


def _pentagon(d1: float, d2: float, dsum: float = math.inf) -> Region:
    return hull(polygon_points(d1, d2, dsum), mode="gdof")


def key_wc_gdof_components(gp: GdofParams) -> tuple[Region, Region]:
    """The two power-allocation boxes whose hull is the wiretap GDOF region.

    Box 1 spends full power on the private layer; box 2 backs the private
    power off to the cross-link noise floor.
    """
    _check_alpha(gp)
    return (_pentagon(1.0 - gp.alpha, min(1.0, 1.0 - gp.alpha + gp.gamma)),
            _pentagon(1.0, 1.0 - gp.alpha))


def key_wc_gdof(gp: GdofParams) -> Region:
    """GDOF region when the key only enlarges the wiretap code."""
    return hull(key_wc_gdof_components(gp), mode="gdof")


def otp_gdof_components(gp: GdofParams) -> tuple[Region, Region]:
    """The two power-allocation boxes whose hull is the one-time-pad region."""
    _check_alpha(gp)
    return (_pentagon(1.0 - gp.alpha, min(gp.gamma, 1.0)),
            _pentagon(1.0, min(gp.gamma, 1.0 - gp.alpha)))


def otp_gdof(gp: GdofParams) -> Region:
    """GDOF region of the one-time-pad scheme."""
    return hull(otp_gdof_components(gp), mode="gdof")


def no_secrecy_gdof(alpha: float) -> Region:
    """Reference GDOF region without any secrecy constraint."""
    if alpha > 1.0:
        raise DomainError("alpha > 1 is outside the supported regime")
    return _pentagon(1.0, 1.0, 2.0 - alpha)


GDOF_REGIONS = dict(zip(SCHEMES, (key_splitting_gdof, rate_splitting_gdof,
                                   key_wc_gdof, otp_gdof)))


def gdof_region(gp: GdofParams, scheme: str) -> Region:
    """Claimed GDOF region of a scheme."""
    if scheme not in GDOF_REGIONS:
        raise DomainError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    return GDOF_REGIONS[scheme](gp)


@dataclass(frozen=True)
class ConvergenceRung:
    """Achieved normalized region at one snr and its corner gaps."""

    snr: float
    gap: float
    corner_gaps: tuple  # ((d1, d2), distance) per claimed corner
    achieved: Region


@dataclass(frozen=True)
class ConvergenceReport:
    """Gap-versus-snr trace of the finite-power regions toward the claim."""

    scheme: str
    alpha: float
    gamma: float
    eta: float
    rungs: tuple
    monotone: bool
    final_gap: float

    @property
    def gaps(self):
        return tuple(r.gap for r in self.rungs)

    def converged(self, threshold: float = 0.05) -> bool:
        return self.monotone and self.final_gap < threshold


def _achieved_region(ch: ChannelParams, scheme: str, eta: float,
                     n_exponent: int) -> Region:
    """Finite-power region of a scheme at its claim's allocations and eta."""
    if scheme in ("key_splitting", "rate_splitting"):
        # pinned split: full power, no noise layer, private power at the
        # cross-link noise floor
        sp = SchemeParams(lambda1=1.0, lambda2=gdof_split_lambda2(ch),
                          beta1=1.0, beta2=1.0, eta=eta)
        rc = key_splitting_point(ch, sp)
        return hull(polygon_points(rc.r1_cap, rc.r2_cap, rc.sum_cap))
    # power-controlled schemes: exponent-uniform beta2 ladder tracks the
    # corner at every snr, plus the endpoints and the noise-floor allocation
    u = np.linspace(0.0, 1.0, n_exponent)
    snr = ch.h11**2 * ch.p1
    b2 = np.unique(np.concatenate([
        snr ** (-u), [0.0, 1.0, gdof_split_lambda2(ch)]]))
    clip = _wiretap_clip if scheme == "key_as_wiretap" else _otp_clip
    return hull(polygon_points(*clip(ch, _unlayered_terms(ch, 1.0, b2), 1.0)))


def gdof_convergence_check(gp: GdofParams, scheme: str,
                           snr_ladder=(1e2, 1e3, 1e4, 1e6),
                           n_exponent: int = 21) -> ConvergenceReport:
    """Track how fast normalized finite-power regions reach the GDOF claim.

    Per rung, the channel is snr-symmetric with unit direct gains,
    inr = snr**alpha and rk = gamma * 0.5*log2(snr). The gap is the largest
    distance from a claimed-polytope corner to the achieved normalized
    region. Raises DomainError for ladders shorter than 4 rungs.
    """
    if scheme not in SCHEMES:
        raise DomainError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    ladder = sorted(float(s) for s in snr_ladder)
    if len(ladder) < 4:
        raise DomainError("snr ladder too short: need at least 4 rungs")
    if ladder[0] <= 1.0:
        raise DomainError("snr ladder rungs must exceed 1")
    claimed = gdof_region(gp, scheme)
    eta = 1.0 if scheme == "rate_splitting" else gp.eta

    rungs = []
    for snr in ladder:
        scale = 0.5 * math.log2(snr)
        h_c = snr ** ((gp.alpha - 1.0) / 2.0)
        ch = ChannelParams(h11=1.0, h22=1.0, h21=h_c, p1=snr, p2=snr,
                           rk=gp.gamma * scale)
        raw = _achieved_region(ch, scheme, eta, n_exponent)
        achieved = hull(raw.vertices / scale, mode="gdof")
        corner_gaps = tuple(
            ((float(v[0]), float(v[1])), distance_to_region(achieved, v))
            for v in claimed.vertices)
        gap = max(d for _, d in corner_gaps) if corner_gaps else 0.0
        rungs.append(ConvergenceRung(snr=snr, gap=gap,
                                     corner_gaps=corner_gaps,
                                     achieved=achieved))
    gaps = [r.gap for r in rungs]
    monotone = all(gaps[i + 1] <= gaps[i] + GAP_TOL for i in range(len(gaps) - 1))
    return ConvergenceReport(scheme=scheme, alpha=gp.alpha, gamma=gp.gamma,
                             eta=eta, rungs=tuple(rungs), monotone=monotone,
                             final_gap=gaps[-1])
