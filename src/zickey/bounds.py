"""Outer bounds on the secrecy rate region.

Three bound families are combined:

- point-to-point caps on each link,
- a keyed R2 bound from giving receiver 1 user 2's signal minus what the
  cross link already reveals (valid in every regime),
- a keyed sum bound from letting receiver 1 decode the interference,
  applicable only while the cross link is weaker than user 2's direct link
  (snr2 > inr1).

An optional no-secrecy sum bound (classical one-sided-interference genie
argument, not part of the keyed-bound family) can be stacked on top; it is
off by default and marked external wherever it is reported.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .channel import ChannelParams, DomainError, _c, snr_inr
from .geometry import Region, hull
# unused here; benchmarks/spans.py traces it under this module's name
from .geometry import intersect_halfplanes  # noqa: F401
from .schemes import polygon_points


@dataclass(frozen=True)
class OuterBounds:
    """Bound values in bits/use; None marks an inapplicable bound."""

    r1_p2p: float
    r2_p2p: float
    r2_keyed: float
    sum_keyed: float | None
    sum_nonsecrecy: float | None = None

    @property
    def caps(self) -> tuple[float, float, float]:
        """(R1, R2, R1 + R2) caps of the outer pentagon; inf: no sum face."""
        sums = {self.sum_keyed, self.sum_nonsecrecy} - {None}
        return (self.r1_p2p, min(self.r2_keyed, self.r2_p2p),
                min(sums, default=math.inf))


def sum_rate_outer(ch: ChannelParams):
    """Keyed sum-rate outer bound, or None when inr1 >= snr2.

    Composed as the R1 point-to-point cap plus C(snr2) - C(inr1) + rk,
    which is no R2 face on its own (artificial noise can push R2 past it
    at small key rates); in symmetric channels this collapses to
    log2(1+snr) - 0.5*log2(1+inr) + rk.
    """
    snr1, snr2, inr1 = snr_inr(ch)
    if not snr2 > inr1:
        return None
    return float((_c(snr1) + _c(snr2)) - _c(inr1) + ch.rk)


def r2_outer_high(ch: ChannelParams) -> float:
    """Keyed R2 outer bound; tight at high interference, valid everywhere."""
    snr1, snr2, inr1 = snr_inr(ch)
    return float(_c(snr2 - snr2 * inr1 / (1.0 + snr1 + inr1)) + ch.rk)


def nonsecrecy_sum_bound(ch: ChannelParams) -> float:
    """Sum capacity bound of the channel without any secrecy constraint.

    External reference bound (genie-aided, no key involved); off by default
    in composite regions and excluded from containment invariants.
    """
    snr1, snr2, inr1 = snr_inr(ch)
    extra = _c((snr2 - inr1) / (1.0 + inr1))
    return float(_c(snr1 + inr1) + max(0.0, float(extra)))


def evaluate_outer_bounds(ch: ChannelParams,
                          include_nonsecrecy: bool = False) -> OuterBounds:
    """All bound values for one channel; inapplicable entries are None."""
    snr1, snr2, _ = snr_inr(ch)
    ob = OuterBounds(
        r1_p2p=float(_c(snr1)),
        r2_p2p=float(_c(snr2)),
        r2_keyed=r2_outer_high(ch),
        sum_keyed=sum_rate_outer(ch),
        sum_nonsecrecy=nonsecrecy_sum_bound(ch) if include_nonsecrecy else None,
    )
    for name, v in asdict(ob).items():
        if v is not None and not math.isfinite(v):
            raise DomainError(f"outer bound {name} overflows float64: "
                              "powers too large")
    return ob


def composite_outer_region(ch: ChannelParams,
                           include_nonsecrecy: bool = False) -> Region:
    """Intersection of every applicable outer bound: the pentagon of
    OuterBounds.caps, whose sum face takes the no-secrecy bound only when
    include_nonsecrecy is set."""
    caps = evaluate_outer_bounds(ch, include_nonsecrecy).caps
    return hull(polygon_points(*caps))
