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

Each scheme clips the terms of key_splitting's layer powers (the last two
at lambda1 = lambda2 = 1) into caps (r1_cap, r2_cap, sum_cap); a missing
sum face is +inf. sweep_regions evaluates schemes over a parameter grid
and returns, per scheme, the down-closed convex hull of every induced rate
polygon; max_sum_rates gives their largest sum rates at several key rates.
Both run one driver, _sweep, on a (bound, fold) pair of their own.
"""

from __future__ import annotations

import functools
import math
import numbers
import sys
import warnings
from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from .channel import ChannelParams, DomainError, SchemeParams, _c
from .geometry import Region, hull, pareto_filter, staircase

# a group of at most CHUNK // 2 polygons is one block; larger ones walk
# cells of TILE x TILE (lambda1, beta1) times TILE x TILE (lambda2, beta2)
# index pairs, in batches of about CHUNK // 2 polygons, so that no array
# spans the grid; caps are evaluated about CHUNK pairs at a time
CHUNK = 32768
TILE = 3
# both sweeps seed a block, max_sum_rate its best sum rate and
# sweep_region an empty front, with the polygons of the SEED_POLYGONS
# largest upper bounds
SEED_POLYGONS = 16
# largest n_lambda1 * (n_lambda2 + 1) * n_beta1 * n_beta2, the polygons of
# one eta slice with the gdof split ("fine" has 5.9 M), and largest n_eta
MAX_POLYGONS = 2**23
# the parameter axes of SchemeParams, each counted by GridSpec's n_<axis>
AXES = ("lambda1", "lambda2", "beta1", "beta2", "eta")


@dataclass(frozen=True)
class RateConstraints:
    """Caps defining one rate polygon {R1 <= r1, R2 <= r2, R1+R2 <= sum}."""

    r1_cap: float
    r2_cap: float
    sum_cap: float = math.inf


@dataclass(frozen=True)
class GridSpec:
    """Point counts per swept parameter axis (axes span [0, 1] uniformly).

    The layered schemes sample one more lambda2, which puts the private
    layer exactly at the cross-link noise floor (p2_private = 1/h21^2),
    where the private layer stops hurting receiver 1's decoding.
    full_power pins beta1 = beta2 = 1. A grid of more than MAX_POLYGONS
    polygons per eta slice, counted as if every axis were swept, or of more
    eta values, is refused before anything is allocated.
    """

    n_lambda1: int = 33
    n_lambda2: int = 33
    n_beta1: int = 33
    n_beta2: int = 33
    n_eta: int = 21
    full_power: bool = False

    def __post_init__(self):
        for axis in AXES:
            n = getattr(self, "n_" + axis)
            if isinstance(n, bool) or not isinstance(n, numbers.Integral) or n < 1:
                raise DomainError(f"n_{axis} must be an integer >= 1, got {n!r}")
        l1, l2, b1, b2, eta = (int(getattr(self, "n_" + a)) for a in AXES)
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


def _key_splitting_powers(ch, lam1, lam2, b1, b2):
    """(p1m, p1a, p2p, p2c): user 1's message and noise layers, user 2's
    private and common layers (broadcastable inputs)."""
    return (lam1 * b1 * ch.p1, (1.0 - lam1) * b1 * ch.p1,
            lam2 * b2 * ch.p2, (1.0 - lam2) * b2 * ch.p2)


def _key_splitting_factors(ch, p1m, p1a, p2p, p2c):
    """Per-user factors of the terms (broadcastable inputs): user 1's
    (1 + g11 p1a, g11 p1m), which read its layer powers alone, and user 2's
    (g21 p2p, g21 p2c, C(g22 p2c / (1 + g22 p2p)), cap_priv = C(g22 p2p)),
    which read its own alone."""
    g11, g22, g21 = ch.h11**2, ch.h22**2, ch.h21**2
    with np.errstate(over="ignore", invalid="ignore"):
        return ((1.0 + g11 * p1a, g11 * p1m),
                (g21 * p2p, g21 * p2c, _c(g22 * p2c / (1.0 + g22 * p2p)),
                 _c(g22 * p2p)))


def _key_splitting_terms(u1, u2):
    """(r1, common-layer minimum, sum-face log term) of per-user factors
    (_key_splitting_factors, broadcastable); the sum-face term is inf or nan
    where the received powers overflow.

    1 + g11 p1a + g21 p2p is (1 + g11 p1a) + g21 p2p, left to right, so each
    term is the float of the same expression over the powers."""
    (noise, m), (p, c, common, _) = u1, u2
    with np.errstate(over="ignore", invalid="ignore"):
        n1 = noise + p
        return _c(m / n1), np.minimum(_c(c / n1), common), _c((m + c) / n1)


def _leak(noise, p):
    """What receiver 1 learns of user 2's private layer, C(g21 p2p / (1 +
    g11 p1a)), of the factors noise = 1 + g11 p1a and p = g21 p2p."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _c(p / noise)


def _base(u1, u2):
    """The five terms of _key_splitting_base of per-user factors."""
    r1, common, rsum = _key_splitting_terms(u1, u2)
    cap_priv = u2[3]
    # sums of huge received powers overflow; _finite then raises DomainError
    return _finite(r1, common, cap_priv, cap_priv - _leak(u1[0], u2[0]), rsum)


def _key_splitting_base(ch, lam1, lam2, b1, b2):
    """The eta-free terms of every scheme's caps (broadcastable inputs).

    Returns (r1, common-layer minimum, cap_priv, cap_priv - leak, sum-face
    log term); each VARIANTS row's clip adds its key clips.
    """
    return _base(*_key_splitting_factors(
        ch, *_key_splitting_powers(ch, lam1, lam2, b1, b2)))


def _block_terms(u1, u2, r, c):
    """The five terms of _key_splitting_base of the polygons (r, c): rows r
    of user 1's factor table u1 times columns c of user 2's u2
    (broadcastable indices)."""
    return _base([f[r] for f in u1], [f[c] for f in u2])


def _key_splitting_cells(ch, rows, cols, starts):
    """Bounds on the key-splitting terms of every cell of power splits.

    rows and cols are user 1's (lambda1, beta1) and user 2's (lambda2,
    beta2) pairs, grouped in tiles that begin at starts = (row starts,
    column starts); a cell is a row tile times a column tile, row tile
    major. Per cell: the five terms of _key_splitting_base, each at least
    that of every polygon of the cell, and a slack at most theirs. Each
    term is taken where the layer powers favour it (see _groups): the
    factors at the tiles' power spans, one cells-wide _key_splitting_terms
    call and two cells-wide _leak calls.
    """
    (l1, b1), (l2, b2) = rows, cols
    p1m, p1a, p2p, p2c = _key_splitting_powers(ch, l1[:, None], l2[None],
                                               b1[:, None], b2[None])

    def span(v, axis):  # least and largest per tile of rows (0) or columns
        return [f.reduceat(v, starts[axis], axis) for f in (np.minimum,
                                                            np.maximum)]

    (_, m1), (a1, a1_hi), (p2, p2_hi), (_, c2) = (
        span(p1m, 0), span(p1a, 0), span(p2p, 1), span(p2c, 1))
    u1, u2 = _key_splitting_factors(ch, m1, a1, p2, c2)
    (noise_hi, _), (p_hi, _, _, cap_hi) = _key_splitting_factors(
        ch, m1, a1_hi, p2_hi, c2)
    r1, common, rsum = _key_splitting_terms(u1, u2)
    leak_hi, leak_lo = _leak(u1[0], p_hi), _leak(noise_hi, u2[0])
    return [b.ravel() for b in np.broadcast_arrays(
        r1, common, cap_hi, cap_hi - leak_lo, rsum, u2[3] - leak_hi)]


def _key_splitting_eta(ch, base, eta):
    """Key-splitting caps (r1, r2, sum) at one key fraction eta."""
    r1, common, cap_priv, slack, rsum = base
    term_c = np.minimum(common, eta * ch.rk)
    term_p = np.maximum(0.0, np.minimum(cap_priv, slack + (1.0 - eta) * ch.rk))
    return r1, term_c + term_p, rsum + term_p


def _wiretap_clip(ch, base, eta):
    """Key-as-wiretap caps (r1, r2, sum) of terms at lambda1 = lambda2 = 1."""
    r1, _, cap_priv, slack, _ = base
    return r1, np.maximum(0.0, np.minimum(cap_priv, slack + ch.rk)), math.inf


def _otp_clip(ch, base, eta):
    """One-time-pad caps (r1, r2, sum) of terms at lambda1 = lambda2 = 1."""
    r1, _, cap_priv, _, _ = base
    return r1, np.minimum(ch.rk, cap_priv), math.inf


def _layered_gdof(alpha, gamma, eta):
    """Key-splitting GDOF caps (d1, d2, sum) of one pentagon."""
    return 1.0, min(alpha, eta * gamma) + 1.0 - alpha, 2.0 - alpha


def _wiretap_gdof(alpha, gamma, eta):
    """Key-as-wiretap GDOF caps of two boxes, one tuple per cap: full
    private power, and private power at the cross-link noise floor."""
    return ((1.0 - alpha, 1.0), (min(1.0, 1.0 - alpha + gamma), 1.0 - alpha),
            math.inf)


def _otp_gdof(alpha, gamma, eta):
    """One-time-pad GDOF caps of two boxes, one tuple per cap."""
    return (1.0 - alpha, 1.0), (min(gamma, 1.0), min(gamma, 1.0 - alpha)), math.inf


class Scheme(NamedTuple):
    """A row of VARIANTS: clip(ch, terms, eta) gives the (r1, r2, sum) caps
    of _key_splitting_base's terms at key fraction eta; pins are the axes
    held at 1; weak_only schemes are claimed only while the cross link does
    not dominate (inr1 <= snr2); gdof(alpha, gamma, eta) gives the (d1, d2,
    sum) caps of the pentagons whose hull is the claimed GDOF region, or is
    None without a claim."""

    clip: Callable
    pins: tuple
    weak_only: bool
    gdof: Callable | None


_UNLAYERED = ("lambda1", "lambda2", "eta")
# every scheme name the sweeps take, in the order of the command line's
# output columns; rate_splitting is key_splitting with the whole key on the
# common layer, and rate_splitting_no_an also sends no artificial noise
VARIANTS = {
    "key_splitting": Scheme(_key_splitting_eta, (), False, _layered_gdof),
    "rate_splitting": Scheme(_key_splitting_eta, ("eta",), False, _layered_gdof),
    "rate_splitting_no_an": Scheme(_key_splitting_eta, ("eta", "lambda1"), True, None),
    "key_as_wiretap": Scheme(_wiretap_clip, _UNLAYERED, True, _wiretap_gdof),
    "one_time_pad": Scheme(_otp_clip, _UNLAYERED, False, _otp_gdof),
}
# the schemes with a GDOF claim, in VARIANTS order
SCHEMES = tuple(name for name, row in VARIANTS.items() if row.gdof)


def _row(scheme) -> Scheme:
    """The VARIANTS row of a scheme; DomainError for an unknown name."""
    if scheme not in VARIANTS:
        raise DomainError(f"unknown scheme {scheme!r}; "
                          f"expected one of {tuple(VARIANTS)}")
    return VARIANTS[scheme]


def scheme_point(ch: ChannelParams, scheme: str,
                 sp: SchemeParams = SchemeParams()) -> RateConstraints:
    """Caps of a scheme (any name in VARIANTS) at one parameter point; the
    axes the scheme pins read 1, whatever sp holds."""
    row = _row(scheme)
    sp = replace(sp, **dict.fromkeys(row.pins, 1.0))
    base = _key_splitting_base(ch, sp.lambda1, sp.lambda2, sp.beta1, sp.beta2)
    return RateConstraints(*map(float, row.clip(ch, base, sp.eta)))


def gdof_split_lambda2(ch: ChannelParams) -> float:
    """lambda2 (at beta2 = 1) putting the private power at min(p2, 1/h21^2)."""
    g21 = ch.h21**2
    if g21 * ch.p2 <= 0.0:
        return 1.0
    return min(1.0, 1.0 / (g21 * ch.p2))


def polygon_points(r1_cap, r2_cap, sum_cap) -> np.ndarray:
    """The two non-axis corners of {R1<=a, R2<=b, R1+R2<=c}, as (2n, 2).

    Accepts broadcast arrays; +inf sum caps are handled. Rows (ax, v3y)
    come first, then rows (v4x, by); the axis corners (ax, 0) and (0, by)
    are their projections, which hull adds back. The array is column-major,
    so each coordinate is one contiguous block.
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


def _swept(scheme, grid):
    """The VARIANTS row of a scheme and the point count of each axis, 0
    where pinned: the row's pins, and beta1 and beta2 under full_power. A
    pinned axis holds the single value 1.
    """
    row = _row(scheme)
    pins = row.pins + (("beta1", "beta2") if grid.full_power else ())
    return row, {axis: 0 if axis in pins else getattr(grid, "n_" + axis)
                 for axis in AXES}


def _points(n):
    """The n points of a swept axis on [0, 1]; 0 points: pinned at 1."""
    return np.linspace(0.0, 1.0, n) if n else np.ones(1)


def _pairs(lam, beta):
    """Every (lambda, beta) of two axes, lambda-major, as two flat arrays."""
    return np.repeat(lam, len(beta)), np.tile(beta, len(lam))


def _undominated(shared, own):
    """Sorted indices of one pair per distinct `shared` power, one with the
    largest `own` power: the first of each run of the lexsort. The powers
    are finite (ChannelParams refuses others), so runs need no nan rule."""
    order = np.lexsort((-own, shared))
    shared = shared[order]
    return np.sort(order[np.r_[True, shared[1:] != shared[:-1]]])


def _user_pairs(ch, undominated, user, n_lam, n_beta):
    """User 1's (lambda1, beta1) or user 2's (lambda2, beta2) pairs, lambda-
    major, of n_lam and n_beta swept points (see _groups)."""
    lam = _points(n_lam)
    if user == 2 and n_lam:
        # one more lambda2 sample, at the cross-link noise floor
        lam = np.unique(np.concatenate([lam, [gdof_split_lambda2(ch)]]))
    lam, beta = _pairs(lam, _points(n_beta))
    if undominated:
        p = (ch.p1, ch.p2)[user - 1]
        # user 1 shares its noise layer, user 2 its private layer
        powers = (1.0 - lam) * beta * p, lam * beta * p
        keep = _undominated(*(powers if user == 1 else powers[::-1]))
        lam, beta = lam[keep], beta[keep]
    return lam, beta


def _groups(ch, schemes, grid, undominated=False):
    """(rows, cols, members) per group of schemes on the same power splits;
    members holds (scheme, clip, eta values).

    The polygons are rows x columns: user 1's (lambda1, beta1) pairs times
    user 2's (lambda2, beta2) pairs, each lambda-major, a pinned lambda
    being 1; each user's pairs are built once per call for every scheme
    of the same (lambda, beta) counts (_user_pairs), and the group key is
    their bytes. Each user's factors of the terms (_pair_factors) and the
    terms of polygons gathered from them (_block_terms) are the elementwise
    expressions of _key_splitting_base over the 4-D mesh, so each polygon's
    terms are the same floats in any layout, in one block or in cells
    (_walk); clip(ch, polygons of terms, eta) gives their (r1, r2,
    sum) caps at key fraction eta, or at each of a column of key
    fractions. A swept axis of one point draws a warning, which points at
    the first caller outside this module.

    With `undominated`, only the pairs no other pair beats on the sum rate
    are kept: per distinct p1a = (1 - lambda1) beta1 p1, the one with the
    largest p1m = lambda1 beta1 p1; per distinct p2p = lambda2 beta2 p2,
    the one with the largest p2c = (1 - lambda2) beta2 p2. p1m enters only
    r1 and rsum, and p2c only common and rsum, each through +, *, division
    by a positive number, log2, min, max and clip, all of which round
    monotonically (for _c, test_channel.py's
    test_capacity_term_is_nondecreasing_over_adjacent_floats checks it
    on numpy's log2). So at equal p1a and p2p the caps and
    min(rsum + term_p, r1 + r2) never fall as p1m or p2c grows, at every
    key fraction and key rate, and the largest sum rate is the same float.
    The unlayered schemes pin lambda1 = lambda2 = 1: p1a = 0 for every
    pair, so the largest beta1 is kept, and p2c = 0, so each p2p = beta2 p2
    is its own group. At p1 = 0 (p2 = 0) every row (column)
    pair has the same terms, so keeping any one of them is exact.
    The only term a dropped pair can make non-finite is rsum, where
    g11 p1m + g21 p2c overflows to +inf (h**2 p is finite for every power
    that reaches here); the kept pair's sum then overflows too, and both
    grids raise the same DomainError.

    The same steps bound a cell of pairs (_key_splitting_cells). r1,
    common and rsum never fall as p1m or p2c grows, nor rise as p1a or p2p
    grows; cap_priv never falls as p2p grows; leak never falls as p2p
    grows, nor rises as p1a grows. So r1, common and rsum at the cell's
    largest p1m and p2c and least p1a and p2p, cap_priv at its largest
    p2p, and that cap_priv less leak at the largest p1a and least p2p are
    each at least the term of every polygon of the cell, to the bit, and
    cap_priv at the least p2p less leak at the least p1a and largest p2p
    is at most every slack. Every scheme's key clips, the corners'
    min(r1, sum) and min(r2, sum) and the sum rate min(sum, r1 + r2) are
    monotone in the terms too, so at one key fraction the cell's caps
    bound both corners and the sum rate of its every polygon, and at
    several _key_bound's formulas do (min(top, r1 + r2max) for the sum
    rate), with the margin of the cells' largest terms and |slack|. Where
    a polygon's rsum overflows, so does the cell's (a larger
    g11 p1m + g21 p2c over a smaller noise), and a cell with a non-finite
    bound is always built.
    """
    # every scheme name is checked before the first warning
    swept = [(scheme, *_swept(scheme, grid)) for scheme in schemes]
    level = 2
    while sys._getframe(level - 1).f_globals is globals():
        level += 1
    for _, _, counts in swept:
        for axis, n in counts.items():
            if n == 1:
                warnings.warn(f"swept axis {axis} has fewer than 2 points; "
                              "the sweep will be badly undersampled",
                              stacklevel=level)
    pairs = functools.cache(functools.partial(_user_pairs, ch, undominated))
    groups = {}
    for scheme, row, counts in swept:
        rows, cols = (pairs(u, counts[f"lambda{u}"], counts[f"beta{u}"])
                      for u in (1, 2))
        etas = _points(counts["eta"])
        key = tuple(a.tobytes() for a in (*rows, *cols))
        groups.setdefault(key, (rows, cols, []))[2].append(
            (scheme, row.clip, etas))
    return groups.values()


def _tiles(lam, beta):
    """The order that groups (lambda, beta) pairs into tiles of TILE x TILE
    of their distinct values' indices, and where each tile begins in it."""
    i, j = (np.unique(a, return_inverse=True)[1] // TILE for a in (lam, beta))
    tile = i * (j.max() + 1) + j
    order = np.argsort(tile, kind="stable")
    return order, np.flatnonzero(np.diff(tile[order], prepend=-1))


def _pair_factors(ch, rows, cols):
    """The per-user factors (_key_splitting_factors) of user 1's (lambda1,
    beta1) pairs and of user 2's (lambda2, beta2) pairs, as two tables."""
    return _key_splitting_factors(ch, *_key_splitting_powers(
        ch, rows[0], cols[0], rows[1], cols[1]))


def _cell_pairs(s1, k1, s2, k2):
    """Row and column indices of every polygon of cells whose row tiles
    begin at s1 and hold k1 rows, and whose column tiles begin at s2 and
    hold k2 columns."""
    n = k1 * k2
    at = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    width = np.repeat(k2, n)
    return np.repeat(s1, n) + at // width, np.repeat(s2, n) + at % width


def _cell_caps(ch, clip, etas, base, slack_lo):
    """(r1, r2, sum, margin): per cell of bounds base and slack_lo, caps
    whose corners and sum rate, plus margin, bound those of its polygons at
    every key fraction of etas (_groups): the clip at one, _key_bound's at
    several."""
    if len(etas) > 1:
        top, r2max, margin = _key_bound(ch.rk, base, slack_lo)
        return base[0], r2max, top, margin
    return (*clip(ch, base, etas[0]), 0.0)


def _reaches(front, ax, by):
    """False where a front point past ax's bucket has y >= by; not on nan."""
    return ~(by <= staircase(front, ax))


def _corners(ch, clip, etas, base, slack_lo):
    """The region bound: (ax + by, keep) per cell, (ax, by) at least both
    corners of its polygons at every key fraction of etas (_cell_caps), and
    keep(front, cells) _reaches on the cells' (ax, by)."""
    r1, r2, rsum, margin = _cell_caps(ch, clip, etas, base, slack_lo)
    ax, by = np.minimum(r1, rsum) + margin, np.minimum(r2, rsum) + margin
    del r1, r2, rsum  # the caps go before the score is made
    return ax + by, lambda front, cells: _reaches(front, ax[cells], by[cells])


def _sums(ch, clip, etas, base, slack_lo):
    """The sum-rate bound: (ub, keep) per cell, no sum rate of its polygons
    at a key fraction of etas above ub + margin (_cell_caps), and keep(best,
    cells) False where ub is below best - margin, never on nan."""
    r1, r2, rsum, margin = _cell_caps(ch, clip, etas, base, slack_lo)
    ub = np.minimum(rsum, r1 + r2)
    return ub, lambda best, cells: ~(ub[cells] < best - margin)


def _walk(ch, rows, cols, plan):
    """The terms of a group's polygons (see _groups) as flat arrays, block
    by block, each built only when iterated from the factor tables of the
    group's pairs, taken once (_pair_factors, _block_terms).

    A group of at most CHUNK // 2 polygons is one block, its whole mesh,
    and plan is not called. A larger group walks cells, tiles of rows
    times tiles of columns (_tiles) whose terms base and slack_lo bound
    (_key_splitting_cells); plan(base, slack_lo) gives (ub, live). The
    cells go in the stable descending order of ub (nan last), a cell with
    a non-finite base as +inf: the first alone, then about CHUNK // 2
    polygons at a time, and before each batch the cells left where
    live(cells), which judges each on its own, is False go; the first
    time at most CHUNK // 2 + 1 cells a call. live never sees an empty set
    or a cell with a non-finite base, which always stays. Only the cells
    left after the first are sorted, stably, which keeps their order in
    the sort of all.
    """
    if len(rows[0]) * len(cols[0]) <= CHUNK // 2:
        yield [b.ravel() for b in np.broadcast_arrays(*_block_terms(
            *_pair_factors(ch, rows, cols), np.arange(len(rows[0]))[:, None],
            np.arange(len(cols[0]))))]
        return
    (o1, s1), (o2, s2) = _tiles(*rows), _tiles(*cols)
    rows, cols = [a[o1] for a in rows], [a[o2] for a in cols]
    factors = _pair_factors(ch, rows, cols)
    *base, slack_lo = _key_splitting_cells(ch, rows, cols, (s1, s2))
    wild = ~np.logical_and.reduce([np.isfinite(b) for b in base])
    key, live = plan(base, slack_lo)
    del base, slack_lo  # live keeps what it reads
    key = np.where(wild, -math.inf, -key)  # descending ub, wild first
    k1, k2 = np.diff(s1, append=len(o1)), np.diff(s2, append=len(o2))
    size = np.outer(k1, k2).ravel()  # polygons per cell

    def build(todo):
        t1, t2 = np.divmod(todo, len(k2))
        return _block_terms(*factors,
                            *_cell_pairs(s1[t1], k1[t1], s2[t2], k2[t2]))

    def prune(todo):
        keep = wild[todo]
        if not keep.all():
            keep[~keep] = live(todo[~keep])
        return todo[keep]

    low = np.fmin.reduce(key)  # nan only where every key is
    first = [0] if np.isnan(low) else np.flatnonzero(key == low)[:1]
    yield build(first)
    todo = np.delete(np.arange(key.size), first)
    todo = np.concatenate([prune(t) for t in np.split(
        todo, range(CHUNK // 2 + 1, todo.size, CHUNK // 2 + 1))])
    todo = todo[np.argsort(key[todo], kind="stable")]
    while todo.size:
        # no batch holds more than CHUNK // 2 + 1 cells
        n = max(1, int(np.searchsorted(np.cumsum(size[todo[:CHUNK // 2 + 1]]),
                                       CHUNK // 2, side="right")))
        yield build(todo[:n])
        todo = prune(todo[n:])


def _caps(ch, clip, etas, polygons, pairs):
    """clip's (r1, r2, sum) caps of polygons at every key fraction of etas,
    about `pairs` (polygon, key fraction) pairs at a time."""
    step = max(1, pairs // max(1, polygons[0].size))
    for i in range(0, len(etas), step):
        yield clip(ch, polygons, etas[i:i + step, None])


def _add_block(ch, clip, etas, block, front):
    """The Pareto front of `front` and the corners of a block's polygons.

    A block is one that _walk yields: the terms of a whole group or of a
    batch of cells. On an empty front, the SEED_POLYGONS polygons of the
    largest corner bounds ax + by go first, so that the rest meet a front.
    With several key fractions and a front, the block is first bounded
    over all of them at once; only the polygons whose bounded corners may
    reach the front are evaluated, and each pass of key fractions merges
    only the corners that may (_reaching_corners).
    """
    polygons = block
    if len(etas) > 1 or not len(front):
        # each polygon is its own cell, its slack the least
        score, keep = _corners(ch, clip, etas, block, block[3])
        if not len(front) and score.size > SEED_POLYGONS:
            top = np.argpartition(-score, SEED_POLYGONS)[:SEED_POLYGONS]
            front = _add_block(ch, clip, etas, [b[top] for b in block], front)
        if len(etas) > 1 and len(front):
            live = keep(front, ...)
            polygons = [b[live] for b in block]
            if not polygons[0].size:
                return front
    # no more (polygon, key fraction) pairs at a time than polygons
    for caps in _caps(ch, clip, etas, polygons, block[0].size):
        pts = _reaching_corners(front, *np.broadcast_arrays(*caps))
        if len(pts):  # else the front is already its own Pareto set
            front = pareto_filter(np.vstack([front, pts]))
    return front


def _reaching_corners(front, r1, r2, rsum):
    """The corners (polygon_points) of the polygons of caps (r1, r2, rsum)
    that no front point with a larger x dominates: every corner on an empty
    front. One staircase table of the front judges first each polygon's
    corner bounds (ax, by) and then each corner of the polygons left, the
    corner (ax, v3y) on the y already looked up at ax and (v4x, by) on one
    more lookup; never on nan. A corner goes only where a front point
    with a strictly larger x has at least its y, so the Pareto front of
    the front and these corners is that of the front and every corner.
    """
    if not len(front):
        return polygon_points(r1, r2, rsum)
    above = staircase(front)
    y = above(np.minimum(r1, rsum))
    live = ~(np.minimum(r2, rsum) <= y)
    if not live.any():
        return front[:0]
    pts, y = polygon_points(r1[live], r2[live], rsum[live]), y[live]
    keep = ~(pts[:, 1] <= np.concatenate([y, above(pts[len(y):, 0])]))
    return pts if keep.all() else pts[keep]


def _best_in_block(ch, clip, etas, block, best):
    """The larger of best and the block's largest sum rate."""

    def best_of(polygons):
        return max(float(np.minimum(rsum, r1 + r2).max(initial=0.0))
                   for r1, r2, rsum in _caps(ch, clip, etas, polygons, CHUNK))

    if len(etas) > 1:
        # each polygon is its own cell, its slack the least
        ub, keep = _sums(ch, clip, etas, block, block[3])
        top = np.argpartition(ub, max(0, ub.size - SEED_POLYGONS))
        best = max(best, best_of([b[top[-SEED_POLYGONS:]] for b in block]))
        live = keep(best, ...)
        block = [b[live] for b in block]
    return max(best, best_of(block))


def _sweep(ch, schemes, grid, chs, start, bound, fold, undominated=False):
    """{scheme: [start folded with every block of its polygons, at each
    channel of chs]}; a job is one scheme at one channel.

    Each group on the same power splits (_groups) is walked once (_walk),
    every block folded into every job: state = fold(c, clip, etas, block,
    state). bound(c, clip, etas, base, slack_lo) gives a job's (score,
    keep) per cell; cells go largest score of any job first, and one goes
    only where no job's keep(state, cells) holds: its fold would have
    left every state as it is.
    """
    state = {scheme: [start] * len(chs) for scheme in schemes}
    for rows, cols, members in _groups(ch, schemes, grid or GridSpec(),
                                       undominated):
        jobs = [(state[scheme], k, c, clip, etas)
                for scheme, clip, etas in members for k, c in enumerate(chs)]

        def plan(base, slack_lo):
            score, keeps = -math.inf, []
            for states, k, *args in jobs:
                s, keep = bound(*args, base, slack_lo)
                # copy the first score, which keep may read; fold the rest
                score = np.maximum(score, s, out=score if keeps else None)
                keeps.append((states, k, keep))
                del s

            def live(todo):  # a cell goes only where this holds, never on nan
                return functools.reduce(np.logical_or, (
                    keep(states[k], todo) for states, k, keep in keeps), False)

            return score, live

        for block in _walk(ch, rows, cols, plan):
            for states, k, *args in jobs:
                states[k] = fold(*args, block, states[k])
    return state


def sweep_regions(ch: ChannelParams, schemes,
                  grid: GridSpec | None = None) -> dict:
    """{scheme: down-closed hull of its rate polygons over a parameter grid}.

    A scheme is any name in VARIANTS. The grid is the full cartesian
    product of the scheme's free parameter axes, a swept lambda2 with its
    noise-floor sample; pinned axes (the row's pins, and full_power's)
    contribute a single point.
    Deterministic for identical inputs. Every block (_sweep) goes to the
    running Pareto front of each member (_add_block), and a cell goes only
    where every member's front dominates both corners of its every
    polygon (_corners). So each front is the Pareto set of every corner
    of every polygon, which does not hang on their order, the same to the
    bit as one swept scheme by scheme.
    """
    fronts = _sweep(ch, schemes, grid, [ch], np.empty((0, 2)), _corners,
                    _add_block)
    # hull adds the axis corners back as projections of the other two
    return {scheme: hull(fronts[scheme][0]) for scheme in schemes}


def sweep_region(ch: ChannelParams, scheme: str,
                 grid: GridSpec | None = None) -> Region:
    """Down-closed hull of one scheme's rate polygons: see sweep_regions."""
    return sweep_regions(ch, [scheme], grid)[scheme]


def _key_bound(rk, base, slack_lo):
    """(top, r2max, margin): per polygon of base, its sum cap never exceeds
    top, nor its r2 cap r2max + margin, at any key fraction; margin is one
    number for the whole block. slack_lo is at most every slack the margin
    must cover (the least slacks of cells, or the slacks themselves).

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
    scale += max(float(slack.max()), -float(slack_lo.min()))
    return rsum + tpmax, r2max, 8.0 * math.ulp(scale)


def max_sum_rates(ch: ChannelParams, schemes, grid: GridSpec | None,
                  rks) -> dict:
    """{scheme: [largest R1 + R2 on the grid at each key rate of rks]}.

    A scheme is any name in VARIANTS; the channel's own rk is not read.
    Only the power splits no other split beats are built (see _groups).
    Every block (_sweep) serves every scheme that shares it at every key
    rate (_best_in_block). Cells go largest bound ub first (_sums; no ub
    falls as rk grows, so that is the ub at the largest key rate), and a
    cell or polygon is skipped only when, for every scheme and key rate,
    its ub is below the best sum rate so far less the margin; so the
    maximum is the one over every polygon, to the bit.
    """
    return _sweep(ch, schemes, grid, [replace(ch, rk=rk) for rk in rks], 0.0,
                  _sums, _best_in_block, undominated=True)


def max_sum_rate(ch: ChannelParams, scheme: str,
                 grid: GridSpec | None = None) -> float:
    """Largest R1 + R2 one scheme achieves at ch.rk: see max_sum_rates."""
    return max_sum_rates(ch, [scheme], grid, [ch.rk])[scheme][0]
