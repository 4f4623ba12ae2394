"""Achievable rate triples and swept rate regions.

Four transmission schemes are evaluated, all under a weak-secrecy constraint
at receiver 1 for user 2's message:

- key_splitting: layered common/private coding at user 2, artificial noise
  at user 1, with the shared key split between the two layers (fraction eta
  on the common layer).
- rate_splitting: key_splitting with the whole key on the common layer
  (eta = 1).
- key_as_wiretap: no common layer, no noise layer; the key enlarges the
  wiretap code (eta = 0 specialization with full power splits).
- one_time_pad: the key directly encrypts min(rk, capacity) bits; the cross
  link is treated as noise.

Each scheme maps parameters to caps (r1_cap, r2_cap, sum_cap); a missing sum
face is +inf. sweep_regions evaluates schemes over a parameter grid and
returns, per scheme, the down-closed convex hull of every induced rate
polygon; max_sum_rates gives their largest sum rates at several key rates.
"""

from __future__ import annotations

import math
import numbers
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .channel import ChannelParams, DomainError, SchemeParams, _c, as_real
from .geometry import Region, hull, pareto_filter, staircase

SCHEMES = ("key_splitting", "rate_splitting", "key_as_wiretap", "one_time_pad")
# every scheme name the sweeps take -> (core scheme, GridSpec fields it pins,
# whether it is only claimed while the cross link does not dominate, that
# is while inr1 <= snr2), in the order of the command line's output columns
VARIANTS = {
    "key_splitting": ("key_splitting", {}, False),
    "rate_splitting": ("rate_splitting", {}, False),
    "rate_splitting_no_an": ("rate_splitting", {"no_an": True}, True),
    "key_as_wiretap": ("key_as_wiretap", {}, True),
    "one_time_pad": ("one_time_pad", {}, False),
}
# caps are built and evaluated in blocks of whole rows (first axis) of about
# CHUNK polygons, so that a block's temporaries stay in cache and no array
# spans the whole grid
CHUNK = 32768
# max_sum_rate seeds its best sum rate of a block with the polygons of the
# SEED_POLYGONS largest upper bounds
SEED_POLYGONS = 16
# largest n_lambda1 * (n_lambda2 + 1) * n_beta1 * n_beta2, the polygons of
# one eta slice with the gdof split ("fine" has 5.9 M), and largest n_eta
MAX_POLYGONS = 2**23


@dataclass(frozen=True)
class RateConstraints:
    """Caps defining one rate polygon {R1 <= r1, R2 <= r2, R1+R2 <= sum}."""

    r1_cap: float
    r2_cap: float
    sum_cap: float = math.inf


@dataclass(frozen=True)
class GridSpec:
    """Point counts per swept parameter axis (axes span [0, 1] uniformly).

    include_gdof_split forces one extra lambda2 sample putting the private
    layer exactly at the cross-link noise floor (p2_private = 1/h21^2),
    which is where the private layer stops hurting receiver 1's decoding.
    no_an pins lambda1 = 1 (no artificial noise); full_power pins
    beta1 = beta2 = 1. A grid of more than MAX_POLYGONS polygons per eta
    slice, counted as if every axis were swept, or of more eta values, is
    refused before anything is allocated.
    """

    n_lambda1: int = 33
    n_lambda2: int = 33
    n_beta1: int = 33
    n_beta2: int = 33
    n_eta: int = 21
    include_gdof_split: bool = True
    no_an: bool = False
    full_power: bool = False

    def __post_init__(self):
        for name in ("n_lambda1", "n_lambda2", "n_beta1", "n_beta2", "n_eta"):
            n = getattr(self, name)
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
                raise DomainError(f"{name} must be an integer >= 1, got {n!r}")
        l1, l2, b1, b2, eta = map(int, (self.n_lambda1, self.n_lambda2,
                                        self.n_beta1, self.n_beta2, self.n_eta))
        size = l1 * (l2 + 1) * b1 * b2
        if max(size, eta) > MAX_POLYGONS:
            raise DomainError(f"grid of {size} polygons per key fraction and "
                              f"{eta} key fractions exceeds the budget of "
                              f"{MAX_POLYGONS} of each")


def _finite(*caps):
    """The caps unchanged; DomainError when powers or gains overflow them."""
    if not all(np.isfinite(c).all() for c in caps):
        raise DomainError("rate caps overflow float64: powers or gains too large")
    return caps


def _key_splitting_base(ch, lam1, lam2, b1, b2):
    """The eta-free terms of the key-splitting caps (broadcastable inputs).

    Returns (r1, common-layer minimum, cap_priv, cap_priv - leak, sum-face
    log term); _key_splitting_eta adds the key clips.
    """
    g11, g22, g21 = ch.h11**2, ch.h22**2, ch.h21**2
    p1m = lam1 * b1 * ch.p1
    p1a = (1.0 - lam1) * b1 * ch.p1
    p2p = lam2 * b2 * ch.p2
    p2c = (1.0 - lam2) * b2 * ch.p2
    # sums of huge received powers overflow; _finite then raises DomainError
    with np.errstate(over="ignore", invalid="ignore"):
        n1 = 1.0 + g11 * p1a + g21 * p2p
        r1 = _c(g11 * p1m / n1)
        leak = _c(g21 * p2p / (1.0 + g11 * p1a))
        common = np.minimum(_c(g21 * p2c / n1),
                            _c(g22 * p2c / (1.0 + g22 * p2p)))
        cap_priv = _c(g22 * p2p)
        rsum = _c((g11 * p1m + g21 * p2c) / n1)
        slack = cap_priv - leak
    return _finite(r1, common, cap_priv, slack, rsum)


def _key_splitting_eta(ch, base, eta):
    """Key-splitting caps (r1, r2, sum) at one key fraction eta."""
    r1, common, cap_priv, slack, rsum = base
    term_c = np.minimum(common, eta * ch.rk)
    term_p = np.maximum(0.0, np.minimum(cap_priv, slack + (1.0 - eta) * ch.rk))
    return r1, term_c + term_p, rsum + term_p


def _unlayered_terms(ch, b1, b2):
    """(r1, cap2, leak) when user 2 sends one codeword that receiver 1
    treats as noise: user 1's rate, user 2's link capacity and its leak."""
    g11, g22, g21 = ch.h11**2, ch.h22**2, ch.h21**2
    q1 = b1 * ch.p1
    q2 = b2 * ch.p2
    return _finite(_c(g11 * q1 / (1.0 + g21 * q2)), _c(g22 * q2),
                   _c(g21 * q2))


def _wiretap_clip(ch, terms, eta):
    """Key-as-wiretap caps (r1, r2, sum) of the unlayered terms."""
    r1, cap2, leak = terms
    return r1, np.maximum(0.0, np.minimum(cap2, cap2 - leak + ch.rk)), math.inf


def _otp_clip(ch, terms, eta):
    """One-time-pad caps (r1, r2, sum) of the unlayered terms."""
    r1, cap2, _ = terms
    return r1, np.minimum(ch.rk, cap2), math.inf


def key_splitting_point(ch: ChannelParams, sp: SchemeParams) -> RateConstraints:
    """Caps of the key-splitting scheme at one parameter point."""
    base = _key_splitting_base(ch, sp.lambda1, sp.lambda2, sp.beta1, sp.beta2)
    r1, r2, rsum = _key_splitting_eta(ch, base, sp.eta)
    return RateConstraints(float(r1), float(r2), float(rsum))


def rate_splitting_point(ch: ChannelParams, sp: SchemeParams) -> RateConstraints:
    """Key-splitting caps with the whole key on the common layer."""
    return key_splitting_point(ch, replace(sp, eta=1.0))


def _unlayered_point(clip, ch, beta1, beta2):
    """Caps of a scheme without layers or key split at one (beta1, beta2)."""
    terms = _unlayered_terms(ch, as_real("beta1", beta1, 0.0, 1.0),
                             as_real("beta2", beta2, 0.0, 1.0))
    return RateConstraints(*map(float, clip(ch, terms, 1.0)))


def key_as_wiretap_point(ch: ChannelParams, beta1: float = 1.0,
                         beta2: float = 1.0) -> RateConstraints:
    """Caps when the key only enlarges the wiretap code (no layering)."""
    return _unlayered_point(_wiretap_clip, ch, beta1, beta2)


def one_time_pad_point(ch: ChannelParams, beta1: float = 1.0,
                       beta2: float = 1.0) -> RateConstraints:
    """Caps when the key is spent as a one-time pad."""
    return _unlayered_point(_otp_clip, ch, beta1, beta2)


def gdof_split_lambda2(ch: ChannelParams) -> float:
    """lambda2 (at beta2 = 1) putting the private power at min(p2, 1/h21^2)."""
    g21 = ch.h21**2
    if g21 * ch.p2 <= 0.0:
        return 1.0
    return min(1.0, 1.0 / (g21 * ch.p2))


def _corners(r1_cap, r2_cap, sum_cap) -> np.ndarray:
    """The two non-axis corners of {R1<=a, R2<=b, R1+R2<=c}, as (2n, 2).

    Rows (ax, v3y) come first, then rows (v4x, by); the axis corners (ax, 0)
    and (0, by) are their projections. The array is column-major, so each
    coordinate is one contiguous block.
    """
    a, b, c = np.broadcast_arrays(np.atleast_1d(np.asarray(r1_cap, dtype=float)),
                                  np.asarray(r2_cap, dtype=float),
                                  np.asarray(sum_cap, dtype=float))
    a, b, c = a.ravel(), b.ravel(), c.ravel()
    n = len(a)
    pts = np.empty((2 * n, 2), order="F")
    x, y = pts[:, 0], pts[:, 1]
    ax = np.minimum(a, c, out=x[:n])
    by = np.minimum(b, c, out=y[n:])
    with np.errstate(invalid="ignore"):
        np.clip(c - ax, 0.0, by, out=y[:n])
        np.clip(c - by, 0.0, ax, out=x[n:])
    return pts


def polygon_points(r1_cap, r2_cap, sum_cap) -> np.ndarray:
    """Corner candidates of {R1<=a, R2<=b, R1+R2<=c} in the first quadrant.

    Accepts broadcast arrays; +inf sum caps are handled. Returns (4n, 2):
    the blocks (ax, 0), (0, by), (ax, v3y) and (v4x, by).
    """
    corners = _corners(r1_cap, r2_cap, sum_cap)
    n = len(corners) // 2
    axis = np.zeros_like(corners)
    axis[:n, 0] = corners[:n, 0]
    axis[n:, 1] = corners[n:, 1]
    return np.vstack([axis, corners])


def point_region(rc: RateConstraints) -> Region:
    """Down-closed polygon achieved at a single parameter point."""
    return hull(polygon_points(rc.r1_cap, rc.r2_cap, rc.sum_cap))


def _swept(scheme, grid):
    """The core scheme and the point count of each axis, 0 where pinned.

    lambda1 and lambda2 are swept by the layered schemes only, lambda1 not
    under no_an; full_power pins beta1 and beta2; eta is swept by
    key_splitting only. A pinned axis holds the single value 1.
    """
    if scheme not in VARIANTS:
        raise DomainError(f"unknown scheme {scheme!r}; "
                          f"expected one of {tuple(VARIANTS)}")
    core, pins, _ = VARIANTS[scheme]
    grid = replace(grid, **pins)
    layered = core in ("key_splitting", "rate_splitting")
    return core, {
        "lambda1": grid.n_lambda1 if layered and not grid.no_an else 0,
        "lambda2": grid.n_lambda2 if layered else 0,
        "beta1": 0 if grid.full_power else grid.n_beta1,
        "beta2": 0 if grid.full_power else grid.n_beta2,
        "eta": grid.n_eta if core == "key_splitting" else 0,
    }


def _points(n):
    """The n points of a swept axis on [0, 1]; 0 points: pinned at 1."""
    return np.linspace(0.0, 1.0, n) if n else np.ones(1)


def _cap_slices(ch, scheme, grid):
    """(terms, axes, clip, eta values): the scheme's caps over the grid, in parts.

    terms(ch, *open mesh of the axes) gives the eta-free terms of those
    polygons; clip(ch, polygons of terms, eta) gives their (r1, r2, sum)
    caps at key fraction eta, or at each of a column of key fractions.
    """
    core, counts = _swept(scheme, grid)
    eta = _points(counts["eta"])
    if core in ("key_as_wiretap", "one_time_pad"):  # no key to split
        clip = _wiretap_clip if core == "key_as_wiretap" else _otp_clip
        return (_unlayered_terms,
                (_points(counts["beta1"]), _points(counts["beta2"])), clip, eta)
    lam1, lam2, b1, b2 = (_points(counts[a])
                          for a in ("lambda1", "lambda2", "beta1", "beta2"))
    if grid.include_gdof_split:
        lam2 = np.unique(np.concatenate([lam2, [gdof_split_lambda2(ch)]]))
    return _key_splitting_base, (lam1, lam2, b1, b2), _key_splitting_eta, eta


def _row_blocks(shape):
    """Slices of whole rows of a grid of `shape`, about CHUNK polygons each.

    The last rows come first: the first axis is lambda1 or beta1, whose
    largest values give the largest r1, so a running Pareto front soon
    spans the whole x range.
    """
    step = max(1, CHUNK // math.prod(shape[1:]))
    return [slice(i, i + step) for i in range(0, shape[0], step)][::-1]


def _passes(ch, schemes, grid):
    """One pass over the row blocks per group of schemes sharing their terms.

    Returns (members, blocks) per group: members lists (scheme, clip, eta
    values), and blocks yields the terms of each row block as flat arrays,
    built just before the block is used, so that no array spans the grid.
    key_splitting and rate_splitting share their terms, and so do
    key_as_wiretap and one_time_pad.
    """
    groups = {}
    for scheme in schemes:
        terms, axes, clip, etas = _cap_slices(ch, scheme, grid)
        key = (terms, *(a.tobytes() for a in axes))
        groups.setdefault(key, (terms, axes, []))[2].append((scheme, clip, etas))

    def blocks(terms, axes):
        for rows in _row_blocks(tuple(map(len, axes))):
            mesh = np.ix_(axes[0][rows], *axes[1:])
            yield [b.ravel() for b in np.broadcast_arrays(*terms(ch, *mesh))]

    return [(members, blocks(terms, axes))
            for terms, axes, members in groups.values()]


def _add_block(ch, clip, etas, base, front):
    """The Pareto front of `front` and the corners of a block's polygons.

    With several key fractions and a front, the block is first bounded over
    all of them at once; only the polygons whose bounded corners no front
    point matches are evaluated.
    """
    block = base
    if len(etas) > 1 and len(front):
        # (ax, by) + margin is at least as large as both corners of a
        # polygon at every key fraction
        top, r2max, margin = _key_bound(ch.rk, block)
        ax, by = np.minimum(block[0], top), np.minimum(r2max, top)
        live = by + margin > staircase(front, ax + margin)
        block = [b[live] for b in block]
        if not block[0].size:
            return front
    # no more (polygon, key fraction) pairs at a time than polygons
    step = max(1, base[0].size // block[0].size)
    for i in range(0, len(etas), step):
        r1, r2, rsum = np.broadcast_arrays(
            *clip(ch, block, etas[i:i + step, None]))
        if len(front):
            # (ax, by) is at least as large as both corners of a
            # polygon: it goes when a front point matches that in x, y
            ax, by = np.minimum(r1, rsum), np.minimum(r2, rsum)
            live = by > staircase(front, ax)
            r1, r2, rsum = r1[live], r2[live], rsum[live]
        front = pareto_filter(np.vstack([front, _corners(r1, r2, rsum)]))
    return front


def sweep_regions(ch: ChannelParams, schemes,
                  grid: GridSpec | None = None) -> dict:
    """{scheme: down-closed hull of its rate polygons over a parameter grid}.

    A scheme is any name in VARIANTS. The grid is the full cartesian
    product of the scheme's free parameter axes; pinned axes (no_an,
    full_power, eta for schemes that fix it) contribute a single point.
    Deterministic for identical inputs. Each row block of terms is built
    once and feeds the running Pareto front of every scheme that shares
    it; the front is the same, to the bit, as one swept scheme by scheme.
    """
    grid = grid or GridSpec()
    passes = _passes(ch, schemes, grid)
    # the warning points at the first caller outside this module
    level = 2
    while sys._getframe(level - 1).f_globals is globals():
        level += 1
    for scheme in schemes:
        for axis, n in _swept(scheme, grid)[1].items():
            if n == 1:
                warnings.warn(f"swept axis {axis} has fewer than 2 points; "
                              "the region will be badly undersampled",
                              stacklevel=level)
    # Pareto set of every corner so far, per scheme
    fronts = {scheme: np.empty((0, 2)) for scheme in schemes}
    for members, blocks in passes:
        for base in blocks:
            for scheme, clip, etas in members:
                fronts[scheme] = _add_block(ch, clip, etas, base,
                                            fronts[scheme])
    # hull adds the axis corners back as projections of the other two
    return {scheme: hull(fronts[scheme]) for scheme in schemes}


def sweep_region(ch: ChannelParams, scheme: str,
                 grid: GridSpec | None = None) -> Region:
    """Down-closed hull of one scheme's rate polygons: see sweep_regions."""
    return sweep_regions(ch, [scheme], grid)[scheme]


def _key_bound(rk, base):
    """(top, r2max, margin): per polygon of base, its sum cap never exceeds
    top, nor its r2 cap r2max + margin, at any key fraction; margin is one
    number for the whole block.

    term_p never exceeds tpmax = max(0, min(cap_priv, slack + rk)), to the
    bit, as every step rounds monotonically; so the sum cap never exceeds
    top = rsum + tpmax. term_c + term_p never exceeds common + tpmax, to
    the bit, nor min(common, rk) where term_p is 0, nor slack + rk
    elsewhere. The last holds in exact arithmetic only: the rounding of the
    key clips may pass it by some 6 ulps of rk + |slack|, plus 2 of
    r1 + r2max, which the margin of 8 ulps of their block maxima covers.
    """
    r1, common, cap_priv, slack, rsum = base
    reach = slack + rk
    tpmax = np.maximum(0.0, np.minimum(cap_priv, reach))
    r2max = np.minimum(common + tpmax,
                       np.maximum(reach, np.minimum(common, rk)))
    scale = float((r1 + r2max).max()) + rk
    scale += max(float(slack.max()), -float(slack.min()))
    return rsum + tpmax, r2max, 8.0 * math.ulp(scale)


def max_sum_rates(ch: ChannelParams, schemes, grid: GridSpec | None,
                  rks) -> dict:
    """{scheme: [largest R1 + R2 on the grid at each key rate of rks]}.

    A scheme is any name in VARIANTS; the channel's own rk is not read.
    Each row block of terms is built once and serves every scheme that
    shares it, at every key rate. With several key fractions, a block is
    first bounded over all of them at once; only polygons whose bound
    reaches the best sum rate so far are evaluated at every fraction. A
    polygon is skipped only when none of its sum rates can reach that
    best, so the maximum is the one over every polygon, to the bit.
    """
    chs = [replace(ch, rk=rk) for rk in rks]
    best = {scheme: [0.0] * len(chs) for scheme in schemes}
    for members, blocks in _passes(ch, schemes, grid or GridSpec()):
        for base in blocks:
            for scheme, clip, etas in members:
                for k, c in enumerate(chs):
                    best[scheme][k] = _best_in_block(c, clip, etas, base,
                                                     best[scheme][k])
    return best


def _best_in_block(ch, clip, etas, block, best):
    """The larger of best and the block's largest sum rate."""

    def best_of(polygons):
        # about CHUNK (polygon, key fraction) pairs at a time
        step = max(1, CHUNK // max(1, polygons[0].size))
        caps = (clip(ch, polygons, etas[i:i + step, None])
                for i in range(0, len(etas), step))
        return max(float(np.minimum(rsum, r1 + r2).max(initial=0.0))
                   for r1, r2, rsum in caps)

    if len(etas) > 1:
        ub, r2max, margin = _key_bound(ch.rk, block)
        ub = np.minimum(ub, block[0] + r2max)
        top = np.argpartition(ub, max(0, ub.size - SEED_POLYGONS))
        best = max(best, best_of([b[top[-SEED_POLYGONS:]] for b in block]))
        live = ub >= best - margin
        block = [b[live] for b in block]
    return max(best, best_of(block))


def max_sum_rate(ch: ChannelParams, scheme: str,
                 grid: GridSpec | None = None) -> float:
    """Largest R1 + R2 one scheme achieves at ch.rk: see max_sum_rates."""
    return max_sum_rates(ch, [scheme], grid, [ch.rk])[scheme][0]
