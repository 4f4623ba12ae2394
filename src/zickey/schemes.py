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


def _key_splitting_terms(ch, p1m, p1a, p2p, p2c):
    """(r1, common-layer minimum, cap_priv, sum-face log term) of the layer
    powers; the sum-face term is inf or nan where the received powers
    overflow."""
    g11, g22, g21 = ch.h11**2, ch.h22**2, ch.h21**2
    with np.errstate(over="ignore", invalid="ignore"):
        n1 = 1.0 + g11 * p1a + g21 * p2p
        r1 = _c(g11 * p1m / n1)
        common = np.minimum(_c(g21 * p2c / n1),
                            _c(g22 * p2c / (1.0 + g22 * p2p)))
        cap_priv = _c(g22 * p2p)
        rsum = _c((g11 * p1m + g21 * p2c) / n1)
    return r1, common, cap_priv, rsum


def _leak(ch, p1a, p2p):
    """What receiver 1 learns of user 2's private layer, its noise p1a."""
    with np.errstate(over="ignore", invalid="ignore"):
        return _c(ch.h21**2 * p2p / (1.0 + ch.h11**2 * p1a))


def _key_splitting_base(ch, lam1, lam2, b1, b2):
    """The eta-free terms of every scheme's caps (broadcastable inputs).

    Returns (r1, common-layer minimum, cap_priv, cap_priv - leak, sum-face
    log term); each VARIANTS row's clip adds its key clips.
    """
    p1m, p1a, p2p, p2c = _key_splitting_powers(ch, lam1, lam2, b1, b2)
    r1, common, cap_priv, rsum = _key_splitting_terms(ch, p1m, p1a, p2p, p2c)
    # sums of huge received powers overflow; _finite then raises DomainError
    return _finite(r1, common, cap_priv, cap_priv - _leak(ch, p1a, p2p), rsum)


def _key_splitting_cells(ch, rows, cols, starts):
    """Bounds on the key-splitting terms of every cell of power splits.

    rows and cols are user 1's (lambda1, beta1) and user 2's (lambda2,
    beta2) pairs, grouped in tiles that begin at starts = (row starts,
    column starts); a cell is a row tile times a column tile, row tile
    major. Per cell: the five terms of _key_splitting_base, each at least
    that of every polygon of the cell, and a slack at most theirs. Each
    term is taken where the layer powers favour it (see _groups): one
    _key_splitting_terms call, cap_priv at the largest p2p on one row (it
    reads p2p alone), and two _leak calls.
    """
    (l1, b1), (l2, b2) = rows, cols
    p1m, p1a, p2p, p2c = _key_splitting_powers(ch, l1[:, None], l2[None],
                                               b1[:, None], b2[None])

    def span(v, axis):  # least and largest per tile of rows (0) or columns
        return [f.reduceat(v, starts[axis], axis) for f in (np.minimum,
                                                            np.maximum)]

    (_, m1), (a1, a1_hi), (p2, p2_hi), (_, c2) = (
        span(p1m, 0), span(p1a, 0), span(p2p, 1), span(p2c, 1))
    r1, common, cap_lo, rsum = _key_splitting_terms(ch, m1, a1, p2, c2)
    cap_hi = _key_splitting_terms(ch, m1[:1], a1[:1], p2_hi, c2)[2]
    leak_hi, leak_lo = _leak(ch, a1, p2_hi), _leak(ch, a1_hi, p2)
    return [b.ravel() for b in np.broadcast_arrays(
        r1, common, cap_hi, cap_hi - leak_lo, rsum, cap_lo - leak_hi)]


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
    their bytes. _key_splitting_base(ch, L1[:, None], L2[None], B1[:, None],
    B2[None]) is the elementwise expression of the 4-D mesh, so each
    polygon's terms are the same floats in any layout, in one block
    (_blocks) or in cells (_cells); clip(ch, polygons of terms, eta) gives
    their (r1, r2, sum) caps at key fraction eta, or at each of a column
    of key fractions.

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
    pairs = functools.cache(functools.partial(_user_pairs, ch, undominated))
    groups = {}
    for scheme in schemes:
        row, counts = _swept(scheme, grid)
        rows, cols = (pairs(u, counts[f"lambda{u}"], counts[f"beta{u}"])
                      for u in (1, 2))
        etas = _points(counts["eta"])
        key = tuple(a.tobytes() for a in (*rows, *cols))
        groups.setdefault(key, (rows, cols, []))[2].append(
            (scheme, row.clip, etas))
    return groups.values()


def _blocks(ch, rows, cols):
    """The terms of a group's polygons (see _groups) as flat arrays, the
    whole mesh as one block, built only when iterated."""
    args = [a for u1, u2 in zip(rows, cols) for a in (u1[:, None], u2[None])]
    yield [b.ravel() for b in
           np.broadcast_arrays(*_key_splitting_base(ch, *args))]


def _tiles(lam, beta):
    """The order that groups (lambda, beta) pairs into tiles of TILE x TILE
    of their distinct values' indices, and where each tile begins in it."""
    i, j = (np.unique(a, return_inverse=True)[1] // TILE for a in (lam, beta))
    tile = i * (j.max() + 1) + j
    order = np.argsort(tile, kind="stable")
    return order, np.flatnonzero(np.diff(tile[order], prepend=-1))


def _cell_pairs(s1, k1, s2, k2):
    """Row and column indices of every polygon of cells whose row tiles
    begin at s1 and hold k1 rows, and whose column tiles begin at s2 and
    hold k2 columns."""
    n = k1 * k2
    at = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n, n)
    width = np.repeat(k2, n)
    return np.repeat(s1, n) + at // width, np.repeat(s2, n) + at % width


def _cell_corners(ch, clip, etas, base, slack_lo):
    """(ax, by): per cell of bounds base and slack_lo, at least min(r1, sum)
    and min(r2, sum) of each of its polygons at every key fraction of
    etas; the clip itself at one key fraction, _key_bound's at several."""
    if len(etas) > 1:
        top, r2max, margin = _key_bound(ch.rk, base, slack_lo)
        return (np.minimum(base[0], top) + margin,
                np.minimum(r2max, top) + margin)
    r1, r2, rsum = clip(ch, base, etas[0])
    return np.minimum(r1, rsum), np.minimum(r2, rsum)


def _cell_sums(ch, clip, etas, base, slack_lo):
    """(ub, margin): per cell of bounds base and slack_lo, no sum rate of
    its polygons at a key fraction of etas exceeds ub + margin (_groups)."""
    if len(etas) > 1:
        top, r2max, margin = _key_bound(ch.rk, base, slack_lo)
        return np.minimum(top, base[0] + r2max), margin
    r1, r2, rsum = clip(ch, base, etas[0])
    return np.minimum(rsum, r1 + r2), 0.0


def _cells(ch, rows, cols):
    """(base, slack_lo, wild, batches), the table of cells of a group of
    more than CHUNK // 2 polygons; else None, and the group is one block
    (_blocks). A cell is a tile of rows times a tile of columns (_tiles);
    base and slack_lo bound its terms (_groups), and wild marks a
    non-finite base. batches(key, live) yields the terms of the cells in
    the stable ascending order of key (nan last), the first alone, then
    about CHUNK // 2 polygons at a time, dropping before each batch the
    cells of todo where live(todo), which judges each cell on its own, is
    False. Only the cells left after the first are sorted, stably, which
    keeps their order in the sort of all.
    """
    if len(rows[0]) * len(cols[0]) <= CHUNK // 2:
        return None
    (o1, s1), (o2, s2) = _tiles(*rows), _tiles(*cols)
    rows, cols = [a[o1] for a in rows], [a[o2] for a in cols]
    *base, slack_lo = _key_splitting_cells(ch, rows, cols, (s1, s2))
    wild = ~np.logical_and.reduce([np.isfinite(b) for b in base])
    k1, k2 = np.diff(s1, append=len(o1)), np.diff(s2, append=len(o2))
    size = np.outer(k1, k2).ravel()  # polygons per cell

    def build(todo):
        t1, t2 = np.divmod(todo, len(k2))
        r, c = _cell_pairs(s1[t1], k1[t1], s2[t2], k2[t2])
        return _key_splitting_base(ch, rows[0][r], cols[0][c], rows[1][r],
                                   cols[1][c])

    def batches(key, live):
        low = np.fmin.reduce(key)  # nan only where every key is
        first = [0] if np.isnan(low) else np.flatnonzero(key == low)[:1]
        yield build(first)
        todo = np.delete(np.arange(key.size), first)
        todo = todo[live(todo)] if todo.size else todo
        todo = todo[np.argsort(key[todo], kind="stable")]
        while todo.size:
            # no batch holds more than CHUNK // 2 + 1 cells
            n = max(1, int(np.searchsorted(np.cumsum(
                size[todo[:CHUNK // 2 + 1]]), CHUNK // 2, side="right")))
            yield build(todo[:n])
            todo = todo[n:]
            todo = todo[live(todo)] if todo.size else todo

    return base, slack_lo, wild, batches


def _caps(ch, clip, etas, polygons, pairs):
    """clip's (r1, r2, sum) caps of polygons at every key fraction of etas,
    about `pairs` (polygon, key fraction) pairs at a time."""
    step = max(1, pairs // max(1, polygons[0].size))
    for i in range(0, len(etas), step):
        yield clip(ch, polygons, etas[i:i + step, None])


def _add_block(ch, clip, etas, block, front):
    """The Pareto front of `front` and the corners of a block's polygons.

    A block is the terms of a whole group (_blocks) or of a batch of
    cells (_cells). On an empty front, the SEED_POLYGONS polygons of the
    largest corner bounds ax + by go first, so that the rest meet a front.
    With several key fractions and a front, the block is first bounded
    over all of them at once; only the polygons whose bounded corners no
    front point matches are evaluated.
    """
    polygons = block
    if len(etas) > 1 or not len(front):
        # each polygon is its own cell, its slack the least
        ax, by = _cell_corners(ch, clip, etas, block, block[3])
        if not len(front) and ax.size > SEED_POLYGONS:
            top = np.argpartition(-(ax + by), SEED_POLYGONS)[:SEED_POLYGONS]
            front = _add_block(ch, clip, etas, [b[top] for b in block], front)
        if len(etas) > 1 and len(front):
            live = by > staircase(front, ax)
            polygons = [b[live] for b in block]
            if not polygons[0].size:
                return front
    # no more (polygon, key fraction) pairs at a time than polygons
    for caps in _caps(ch, clip, etas, polygons, block[0].size):
        r1, r2, rsum = np.broadcast_arrays(*caps)
        if len(front):
            # (ax, by) is at least as large as both corners of a
            # polygon: it goes when a front point matches that in x, y
            ax, by = np.minimum(r1, rsum), np.minimum(r2, rsum)
            live = by > staircase(front, ax)
            if not live.any():  # the front is already its own Pareto set
                continue
            r1, r2, rsum = r1[live], r2[live], rsum[live]
        front = pareto_filter(np.vstack([front, polygon_points(r1, r2, rsum)]))
    return front


def sweep_regions(ch: ChannelParams, schemes,
                  grid: GridSpec | None = None) -> dict:
    """{scheme: down-closed hull of its rate polygons over a parameter grid}.

    A scheme is any name in VARIANTS. The grid is the full cartesian
    product of the scheme's free parameter axes, a swept lambda2 with its
    noise-floor sample; pinned axes (the row's pins, and full_power's)
    contribute a single point.
    Deterministic for identical inputs. A group of schemes that share
    their power splits (see _groups) is built once as one block and fed to
    the running Pareto front of every member; where the group walks cells
    (_cells), each member takes them largest corner bounds
    ax + by first (_cell_corners), and a cell goes when a front point in a
    strictly higher bucket than its ax has a y of at least its by, as in
    _add_block: that point dominates both corners of its every polygon.
    Either way the front is the Pareto set of every corner of every
    polygon, the same to the bit as one swept scheme by scheme; a cell
    with a non-finite bound is never dropped, so an overflowing sum
    raises DomainError as on the whole grid.
    """
    grid = grid or GridSpec()
    # the warning points at the first caller outside this module
    level = 2
    while sys._getframe(level - 1).f_globals is globals():
        level += 1
    # every scheme name is checked before the first warning
    for counts in [_swept(scheme, grid)[1] for scheme in schemes]:
        for axis, n in counts.items():
            if n == 1:
                warnings.warn(f"swept axis {axis} has fewer than 2 points; "
                              "the region will be badly undersampled",
                              stacklevel=level)
    # Pareto set of every corner so far, per scheme
    fronts = {scheme: np.empty((0, 2)) for scheme in schemes}
    for rows, cols, members in _groups(ch, schemes, grid):
        cells = _cells(ch, rows, cols)
        if not cells:
            for block in _blocks(ch, rows, cols):
                for scheme, clip, etas in members:
                    fronts[scheme] = _add_block(ch, clip, etas, block,
                                                fronts[scheme])
            continue
        base, slack_lo, wild, batches = cells
        for scheme, clip, etas in members:
            ax, by = _cell_corners(ch, clip, etas, base, slack_lo)
            ax[wild] = by[wild] = math.inf

            def live(todo):  # a cell goes only where this holds, never on nan
                return ~(by[todo] <= staircase(fronts[scheme], ax[todo]))

            for block in batches(-(ax + by), live):
                fronts[scheme] = _add_block(ch, clip, etas, block,
                                            fronts[scheme])
    # hull adds the axis corners back as projections of the other two
    return {scheme: hull(fronts[scheme]) for scheme in schemes}


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
    Each group's block of terms, or batch of cells where the group walks
    them (_cells), is built once and serves every scheme that shares it, at
    every key rate. The cells go largest bound ub of any scheme's sum
    rates first (_cell_sums), and before each batch a cell goes only when,
    for every scheme and key rate, its ub is below the best sum rate so
    far less the margin of the cells left. With several key
    fractions, a block is first bounded over all of them at once; only
    polygons whose bound reaches the best sum rate so far are evaluated at
    every fraction. A polygon is skipped only when none of its sum rates
    can reach that best, so the maximum is the one over every polygon, to
    the bit; a cell with a non-finite bound is never dropped.
    """
    chs = [replace(ch, rk=rk) for rk in rks]
    best = {scheme: [0.0] * len(chs) for scheme in schemes}
    for rows, cols, members in _groups(ch, schemes, grid or GridSpec(),
                                       undominated=True):
        blocks = _blocks(ch, rows, cols)  # built only as iterated
        cells = _cells(ch, rows, cols)
        if cells:
            base, slack_lo, wild, batches = cells

            def live(todo):  # a cell goes only where this holds, never on nan
                cut = [b[todo] for b in base], slack_lo[todo]
                keep = wild[todo]
                for scheme, clip, etas in members:
                    for c, b in zip(chs, best[scheme]):
                        ub, margin = _cell_sums(c, clip, etas, *cut)
                        keep |= ~(ub < b - margin)
                return keep

            # no ub falls as rk grows: the largest rk gives each cell's
            # largest ub of any job
            top = max(chs, key=lambda c: c.rk, default=ch)
            ub = np.max([_cell_sums(top, clip, etas, base, slack_lo)[0]
                         for _, clip, etas in members], axis=0)
            ub[wild] = math.inf
            blocks = batches(-ub, live)
        for block in blocks:
            for scheme, clip, etas in members:
                best[scheme] = [_best_in_block(c, clip, etas, block, b)
                                for c, b in zip(chs, best[scheme])]
    return best


def _best_in_block(ch, clip, etas, block, best):
    """The larger of best and the block's largest sum rate."""

    def best_of(polygons):
        return max(float(np.minimum(rsum, r1 + r2).max(initial=0.0))
                   for r1, r2, rsum in _caps(ch, clip, etas, polygons, CHUNK))

    if len(etas) > 1:
        # each polygon is its own cell, its slack the least
        ub, margin = _cell_sums(ch, clip, etas, block, block[3])
        top = np.argpartition(ub, max(0, ub.size - SEED_POLYGONS))
        best = max(best, best_of([b[top[-SEED_POLYGONS:]] for b in block]))
        live = ub >= best - margin
        block = [b[live] for b in block]
    return max(best, best_of(block))


def max_sum_rate(ch: ChannelParams, scheme: str,
                 grid: GridSpec | None = None) -> float:
    """Largest R1 + R2 one scheme achieves at ch.rk: see max_sum_rates."""
    return max_sum_rates(ch, [scheme], grid, [ch.rk])[scheme][0]
