"""Parameter types for the two-user Gaussian one-sided interference channel.

Receiver 1 sees both transmitters (Y1 = h11*X1 + h21*X2 + Z1), receiver 2
only its own (Y2 = h22*X2 + Z2), with unit noise. Transmitter/receiver pair 2
holds a shared secret key of rate rk, and user 2's message must stay
confidential from receiver 1. All rates are bits per channel use.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np


class DomainError(ValueError):
    """A parameter left its admissible domain."""


def as_real(name: str, v, lo: float = -math.inf, hi: float = math.inf) -> float:
    """v as a float; DomainError unless it is a finite real number in [lo, hi].

    Any numbers.Real is taken (numpy scalars, Fraction), but not a bool,
    which is an int subclass yet no parameter value.
    """
    f = math.nan
    if not isinstance(v, bool) and isinstance(v, numbers.Real):
        try:
            f = float(v)
        except OverflowError:
            f = math.inf
    if not (math.isfinite(f) and lo <= f <= hi):
        where = "" if (lo, hi) == (-math.inf, math.inf) else f" in [{lo:g}, {hi:g}]"
        raise DomainError(f"{name} must be a finite number{where}, got {v!r}")
    return f


@dataclass(frozen=True)
class ChannelParams:
    """Channel gains, per-user power budgets and the shared-key rate."""

    h11: float
    h22: float
    h21: float
    p1: float
    p2: float
    rk: float = 0.0

    def __post_init__(self):
        for name in ("h11", "h22", "h21", "p1", "p2", "rk"):
            object.__setattr__(self, name, as_real(name, getattr(self, name)))
        if self.p1 < 0 or self.p2 < 0:
            raise DomainError("power budgets must be nonnegative")
        if self.rk < 0:
            raise DomainError("key rate must be nonnegative")
        try:
            received = snr_inr(self)
        except OverflowError:
            received = (math.inf,)
        if not all(math.isfinite(v) for v in received):
            raise DomainError("received powers h**2 * p overflow float64")


@dataclass(frozen=True)
class SchemeParams:
    """Free parameters of the layered coding schemes, each in [0, 1].

    lambda1: fraction of user 1's spent power carrying its message; the rest
             is transmitted as artificial noise.
    lambda2: fraction of user 2's spent power on the private layer; the rest
             carries the common (decodable at receiver 1) layer.
    beta1, beta2: fraction of each power budget actually spent.
    eta: fraction of the key protecting the common layer; 1 - eta protects
         the private layer inside the wiretap code.
    """

    lambda1: float = 1.0
    lambda2: float = 1.0
    beta1: float = 1.0
    beta2: float = 1.0
    eta: float = 1.0

    def __post_init__(self):
        for name in ("lambda1", "lambda2", "beta1", "beta2", "eta"):
            object.__setattr__(self, name,
                               as_real(name, getattr(self, name), 0.0, 1.0))


def snr_inr(ch: ChannelParams):
    """Received powers (snr1, snr2, inr1) for unit noise variance."""
    return ch.h11**2 * ch.p1, ch.h22**2 * ch.p2, ch.h21**2 * ch.p2


def classify_regime(ch: ChannelParams) -> str:
    """'weak_moderate' when the cross link is at most as strong as user 2's
    direct link (ties included), 'high' otherwise."""
    _, snr2, inr1 = snr_inr(ch)
    return "weak_moderate" if inr1 <= snr2 else "high"


def _c(x):
    """Gaussian capacity term in bits, 0.5*log2(1+x), elementwise.

    Huge powers give inf or nan here without a numpy warning; the callers
    raise DomainError on a non-finite rate.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return 0.5 * np.log2(1.0 + x)


def db_to_linear(value_db: float) -> float:
    """Convert a power-like quantity from dB to linear scale; inf where
    that overflows float64, which ChannelParams refuses."""
    try:
        return 10.0 ** (value_db / 10.0)
    except OverflowError:
        return math.inf
