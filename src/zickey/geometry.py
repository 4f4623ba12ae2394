"""Planar geometry for down-closed convex rate regions.

Regions live in the first quadrant, are convex, and contain the axis
projections of every point (down-closure: achievable rate pairs can always
be throttled). Vertices are stored counter-clockwise starting at the
lexicographically smallest vertex, so identical inputs give byte-identical
outputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

GEOM_TOL = 1e-12   # orientation and self-consistency predicates
REGION_TOL = 1e-9  # cross-module containment queries
STAIR_BINS = 4096  # staircase buckets x into this many bins


class UnboundedRegionError(ValueError):
    """The half-plane set does not bound the region inside the quadrant."""


@dataclass(frozen=True, eq=False)
class Region:
    """Convex down-closed polygon.

    vertices: (n, 2) array, CCW from the lexicographically smallest vertex.
    halfplanes: rows (a, b, c) with unit (a, b), meaning a*x + b*y <= c.
    """

    vertices: np.ndarray
    halfplanes: tuple

    @property
    def max_x(self) -> float:
        return float(self.vertices[:, 0].max())

    @property
    def max_y(self) -> float:
        return float(self.vertices[:, 1].max())

    @property
    def max_sum(self) -> float:
        return float(self.vertices.sum(axis=1).max())


# Shewchuk's orient2d error bound, (3 + 16 eps) eps (|l| + |r|) with
# eps = 2**-53, rounded up, and a floor for products that underflow
_ORIENT_ERR = 2.0**-51
_ORIENT_FLOOR = 1e-300


def _cross(o, a, b):
    """(a - o) x (b - o) in floats, or its exact sign (-1, 0 or 1) where
    rounding may have flipped it: within _ORIENT_ERR (|l| + |r|) +
    _ORIENT_FLOOR of 0, l and r the two products, it is recomputed in
    rationals of the floats."""
    left, right = (a[0] - o[0]) * (b[1] - o[1]), (a[1] - o[1]) * (b[0] - o[0])
    bound = _ORIENT_ERR * (abs(left) + abs(right)) + _ORIENT_FLOOR
    if abs(left - right) > bound:
        return left - right
    o, a, b = ([Fraction(v) for v in p] for p in (o, a, b))
    exact = (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])
    return (exact > 0) - (exact < 0)


def hull_candidates(front):
    """A Pareto front (pareto_filter's output) less the points that bend
    clearly inwards: hull's walk over the front, with (largest x, 0) put
    before it and (0, largest y) after it, that pops a point only where
    _cross's float value is negative beyond its error bound.

    A point that rounding leaves unclear stays for hull to decide exactly,
    and the ends never bend inwards. Every point popped lies strictly
    below the chord of two points that the down-closed hull of the front
    holds, so it is no vertex: that hull, and every vertex byte hull
    gives, are those of the whole front. Non-finite products never pop a
    point.
    """
    if len(front) < 3:
        return front
    pts = front.tolist()
    (x0, _), (_, yn) = pts[0], pts[-1]
    walk, kept = [[x0, 0.0]], [-1]
    for i, (qx, qy) in enumerate(pts + [[0.0, yn]]):
        while len(walk) >= 2:
            (ox, oy), (ax, ay) = walk[-2], walk[-1]
            left, right = (ax - ox) * (qy - oy), (ay - oy) * (qx - ox)
            if not left - right < -(_ORIENT_ERR * (abs(left) + abs(right))
                                    + _ORIENT_FLOOR):
                break
            walk.pop()
            kept.pop()
        walk.append([qx, qy])
        kept.append(i)
    return front if len(kept) == len(pts) + 2 else front[kept[1:-1]]


def staircase(front, x=None):
    """Per x, a y with (x, y) in the down-closed hull of a front
    (pareto_filter's output: x falling, y rising), or -inf; without x, that
    lookup (x -> y), on a table of the front built once.

    x goes to a bucket by a monotone index, the floor of min(x, lim), at
    least 0, times scale = (STAIR_BINS - 1) / the largest x: x < 0 lands
    in the first, x past the range and nan in one of the last two. Per
    bucket k the table holds the chain through the front, x times scale,
    read at k + 2, the right edge of the next bucket (np.interp), less a
    margin; left of the front it is the largest y itself, read without
    arithmetic, and past the front -inf. The chain never rises with x and
    lies in the hull. Each x * scale rounds by at most (STAIR_BINS + 1)
    eps (eps = 2**-53) plus 2**-1075, far less than the bucket of room, so
    at every x of bucket k the chain through the front itself is at least
    the chain read at k + 2. np.interp's slope form rounds that by at most
    12 eps of the largest |y|, plus (STAIR_BINS + 3) 2**-1075 where a step
    underflows; the margin, 16 eps of that |y| plus (STAIR_BINS + 4)
    2**-1074, covers both and its own subtraction from the knots.
    """
    hi = float(front[0, 0])
    scale = (STAIR_BINS - 1) / hi if hi > 0.0 else 0.0
    if not 0.0 < scale < math.inf:  # one bucket, or no or a subnormal x range
        def lookup(v):
            return np.full(np.shape(v), -math.inf)
    else:
        # lim lies past the largest x, and v * scale stays finite
        lim = min(STAIR_BINS / scale, sys.float_info.max)

        def bucket(v):
            # every step is monotone, so larger x never lands lower
            return (np.fmax(np.fmin(v, lim), 0.0) * scale).astype(np.intp)

        y = front[::-1, 1]
        margin = float(np.abs(y).max()) * 2.0**-49 \
            + (STAIR_BINS + 4) * 5e-324
        # k + 2 for each bucket k, the last for x past the range
        table = np.interp(np.arange(2.0, STAIR_BINS + 3.0),
                          front[::-1, 0] * scale, y - margin, left=y[0],
                          right=-math.inf)

        def lookup(v):
            return table[bucket(v)]
    return lookup if x is None else lookup(x)


def pareto_filter(pts: np.ndarray) -> np.ndarray:
    """Points not dominated by another point in both coordinates.

    A point goes when some other point is at least as large in x and y; of
    equal points one stays. Dominated points can never be hull vertices of
    a down-closed region, so this is a safe (and large) reduction before
    hulling swept point clouds. Survivors come sorted by decreasing x.
    """
    if len(pts) == 0:
        return pts
    p = pts[np.argsort(-pts[:, 0])]
    ymax = np.maximum.accumulate(p[:, 1])
    keep = np.empty(len(p), dtype=bool)
    keep[0] = True
    keep[1:] = p[1:, 1] > ymax[:-1]
    p = p[keep]
    # survivors sharing an x rise in y, so only the last of each run stays
    last = np.ones(len(p), dtype=bool)
    last[:-1] = p[1:, 0] != p[:-1, 0]
    return p[last]


def _planes_from_vertices(v: np.ndarray) -> tuple:
    """Outward unit-normal half-planes of a CCW polygon (axes included)."""
    xmax = float(v[:, 0].max()) if len(v) else 0.0
    ymax = float(v[:, 1].max()) if len(v) else 0.0
    if len(v) <= 2:
        # point or axis-aligned segment; down-closure keeps it on the axes
        return ((-1.0, 0.0, 0.0), (0.0, -1.0, 0.0),
                (1.0, 0.0, xmax), (0.0, 1.0, ymax))
    tol = GEOM_TOL * min(1.0, max(xmax, ymax))  # tiny regions, tiny edges
    planes = []
    pts = v.tolist()
    for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
        dx, dy = x1 - x0, y1 - y0
        norm = math.hypot(dx, dy)
        if norm <= tol:
            continue
        a, b = dy / norm, -dx / norm
        planes.append((a, b, a * x0 + b * y0))
    return tuple(planes)


def _as_points(items) -> np.ndarray:
    if isinstance(items, Region):
        return items.vertices
    if isinstance(items, np.ndarray):
        arr = np.asarray(items, dtype=float)
        if arr.ndim == 2 and arr.shape[1] == 2:
            return arr
        raise ValueError(f"expected an (n, 2) array, got shape {arr.shape}")
    # iterable mixing Regions, points and point arrays
    blocks = []
    for it in items:
        if isinstance(it, Region):
            blocks.append(it.vertices)
        else:
            a = np.asarray(it, dtype=float)
            blocks.append(a.reshape(-1, 2))
    if not blocks:
        return np.zeros((0, 2))
    return np.vstack(blocks)


def hull(items) -> Region:
    """Down-closed convex hull of points and/or regions.

    The hull of the input points with their axis projections and the
    origin. Its upper-right chain is a convex walk over the Pareto front,
    from the largest-x point to the largest-y point and on to (0, max y);
    the origin and (max x, 0) close it, so the result is always a valid
    down-closed region.
    """
    pts = _as_points(items)
    if len(pts) == 0:
        raise ValueError("hull needs at least one point")
    if not np.all(np.isfinite(pts)):
        raise ValueError("hull input must be finite")
    if np.any(pts < -REGION_TOL):
        raise ValueError("hull input must lie in the first quadrant")
    # + 0.0 folds -0.0 into 0.0 and leaves every other value alone
    front = pareto_filter(np.maximum(pts, 0.0) + 0.0)
    # the walk runs on the front times 2**-e, exact and about 1 wide, so
    # that no cross product underflows or overflows
    e = math.frexp(max(front[0, 0], front[-1, 1]))[1]
    front = np.ldexp(front, -e).tolist()
    (x0, y0), (xn, yn) = front[0], front[-1]
    if xn > 0.0 and yn > 0.0:
        front.append([0.0, yn])
    walk = []  # points exactly collinear or bending inwards dropped
    for q in front:
        while len(walk) >= 2 and _cross(walk[-2], walk[-1], q) <= 0.0:
            walk.pop()
        walk.append(q)
    head = [[0.0, 0.0]]
    if x0 > 0.0 and y0 > 0.0:
        head.append([x0, 0.0])
    v = np.ldexp(np.array(head + walk if walk != [[0.0, 0.0]] else head), e)
    return Region(vertices=v, halfplanes=_planes_from_vertices(v))


def intersect_halfplanes(planes) -> Region:
    """Region cut out by half-planes a*x + b*y <= c inside the first quadrant.

    x >= 0 and y >= 0 are implicit. Raises UnboundedRegionError when the
    planes fail to bound x or y from above. Corners within REGION_TOL merge,
    and the result is the down-closed hull of the merged corners.
    """
    norm_planes = []
    for a, b, c in planes:
        s = math.hypot(a, b)
        if s <= GEOM_TOL:
            raise ValueError(f"degenerate half-plane ({a}, {b}, {c})")
        norm_planes.append((a / s, b / s, c / s))
    if not any(p[0] > GEOM_TOL for p in norm_planes):
        raise UnboundedRegionError("no half-plane bounds x from above")
    if not any(p[1] > GEOM_TOL for p in norm_planes):
        raise UnboundedRegionError("no half-plane bounds y from above")
    allp = norm_planes + [(-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)]

    cand = []
    for i in range(len(allp)):
        a1, b1, c1 = allp[i]
        for j in range(i + 1, len(allp)):
            a2, b2, c2 = allp[j]
            det = a1 * b2 - a2 * b1
            if abs(det) <= GEOM_TOL:
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (a1 * c2 - a2 * c1) / det
            cand.append((x, y))
    feas = []
    for x, y in cand:
        if all(a * x + b * y <= c + REGION_TOL for a, b, c in allp):
            feas.append((max(x, 0.0), max(y, 0.0)))
    if not feas:
        raise ValueError("half-planes cut an empty region")
    # deterministic dedupe of near-identical corner solves
    feas.sort()
    dedup = [feas[0]]
    for p in feas[1:]:
        if abs(p[0] - dedup[-1][0]) > REGION_TOL or abs(p[1] - dedup[-1][1]) > REGION_TOL:
            dedup.append(p)
    return hull(np.array(dedup))


def _tol(region: Region, tol) -> float:
    """tol, by default REGION_TOL shrunk with a region of scale below 1."""
    return REGION_TOL * min(1.0, max(region.max_x, region.max_y)) \
        if tol is None else tol


def contains(region: Region, point, tol: float | None = None) -> bool:
    """Whether a point satisfies every face of the region within tol."""
    x, y = float(point[0]), float(point[1])
    tol = _tol(region, tol)
    return all(a * x + b * y <= c + tol for a, b, c in region.halfplanes)


def containment_margin(region: Region, points) -> float:
    """Largest face violation over the given points (<= 0 means contained)."""
    pts = np.asarray(points, dtype=float).reshape(-1, 2)
    worst = -math.inf
    for a, b, c in region.halfplanes:
        worst = max(worst, float((a * pts[:, 0] + b * pts[:, 1] - c).max()))
    return worst


def subset_of(inner: Region, outer: Region, tol: float | None = None) -> bool:
    """Whether every vertex of `inner` lies inside `outer` within tol."""
    return containment_margin(outer, inner.vertices) <= _tol(outer, tol)


def distance_to_region(region: Region, point) -> float:
    """Euclidean distance from a point to the region (0 when inside)."""
    x, y = float(point[0]), float(point[1])
    if contains(region, (x, y), tol=0.0):
        return 0.0
    v = region.vertices
    if len(v) == 1:
        return math.hypot(x - v[0, 0], y - v[0, 1])
    # t is found on edges times 2**-e, as in hull; degenerate edges,
    # relative to a region's scale below 1, are skipped
    scale = max(region.max_x, region.max_y)
    e = math.frexp(scale)[1]
    short = GEOM_TOL * math.ldexp(min(1.0, scale), -e)**2
    best = math.inf
    pts = v.tolist()
    for (x0, y0), (x1, y1) in zip(pts, pts[1:] + pts[:1]):
        dx, dy = x1 - x0, y1 - y0
        sx, sy = math.ldexp(dx, -e), math.ldexp(dy, -e)
        den = sx * sx + sy * sy
        if den <= short:
            continue
        t = math.ldexp(((x - x0) * sx + (y - y0) * sy) / den, -e)
        t = max(0.0, min(1.0, t))
        best = min(best, math.hypot(x - (x0 + t * dx), y - (y0 + t * dy)))
    return best


def max_y_at_x(region: Region, x: float, tol: float | None = None):
    """Largest y with (x, y) in the region, or None when x is out of range
    by more than tol (by default REGION_TOL, shrunk as in _tol)."""
    tol = _tol(region, tol)
    if x < -tol or x > region.max_x + tol:
        return None
    y = math.inf
    for a, b, c in region.halfplanes:
        if b > GEOM_TOL:
            y = min(y, (c - a * x) / b)
        elif a > GEOM_TOL and a * x > c + tol:
            return None
    if y is math.inf:
        return None
    return max(y, 0.0)
