"""Checks of the CLI's output files against the reference module.

Each check reads what one command wrote and returns a list of failure
messages (empty when the output is right). Nothing here imports `zickey`:
expected values come from `reference` or from properties every correct
output must have (convexity, nesting, monotonicity in the key rate).
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import random
from pathlib import Path

from mpmath import mpf

import reference as ref
from workloads import GDOF_SCHEMES, VARIANTS

# variants the CLI skips while the cross link dominates (inr1 > snr2)
WEAK_ONLY = ("rate_splitting_no_an", "key_as_wiretap")
# (inner, outer) pairs of scheme variants whose regions must nest
NESTING = (("rate_splitting_no_an", "rate_splitting"),
           ("rate_splitting", "key_splitting"),
           ("key_as_wiretap", "key_splitting"))
# the message of a fault the program has at a fixed input; an operation
# failing with it alone counts as failed but leaves `correct` true
KNOWN_FAULT = "passing row with a negative margin"
SAMPLED_POINTS = 24  # random on-grid points per scheme, besides the corners
EXHAUSTIVE_LIMIT = 200  # grids with at most this many points are checked whole
ORIGIN = (ref.ZERO, ref.ZERO)


def read_csv(path: Path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_polygons(path: Path) -> dict:
    """{name: [(x, y), ...]} from a `name,x,y` CSV, in file order."""
    _, rows = read_csv(path)
    polys = {}
    for name, x, y in rows:
        polys.setdefault(name, []).append((mpf(float(x)), mpf(float(y))))
    return polys


# ------------------------------------------------------------ shared checks

def check_shape(label, poly):
    """Convex, in the first quadrant, CCW from the origin, down-closed."""
    if not poly or poly[0] != ORIGIN:
        return [f"{label}: does not start at the origin"]
    if any(x < 0 or y < 0 for x, y in poly):
        return [f"{label}: leaves the first quadrant"]
    if len(poly) == 1:
        return []
    if len(poly) == 2:
        x, y = poly[1]
        return [] if x == 0 or y == 0 else [f"{label}: segment off the axes"]
    tol = ref.tolerance(poly)
    fails = []
    if poly[1][1] != 0 or poly[-1][0] != 0:
        fails.append(f"{label}: not down-closed (no axis edges at both ends)")
    for a, b in zip(poly[1:], poly[2:]):
        if b[0] > a[0] + tol or b[1] < a[1] - tol:
            fails.append(f"{label}: upper boundary is not monotone at {b}")
            break
    n = len(poly)
    for i in range(n):
        turn = ref.cross(poly[i - 1], poly[i], poly[(i + 1) % n])
        if turn < -tol * ref.scale_of(poly):
            fails.append(f"{label}: not convex and counterclockwise at {poly[i]}")
            break
    return fails


def outside(poly, points, tol):
    """The points lying outside the polygon by more than tol."""
    return [p for p in points if ref.inside_margin(poly, p) > tol]


def check_same_polygon(label, got, want):
    """Mutual containment: every vertex of each inside the other."""
    tol = ref.tolerance(got, want)
    bad = outside(want, got, tol)
    if bad:
        return [f"{label}: vertex {tuple(map(float, bad[0]))} beyond the reference"]
    bad = outside(got, want, tol)
    if bad:
        return [f"{label}: reference vertex {tuple(map(float, bad[0]))} missing"]
    return []


def grid_points(variant, ch, grid, rng, n_random=SAMPLED_POINTS):
    """On-grid parameter points (lam1, lam2, b1, b2, eta) of a variant.

    Every corner of the grid box over the variant's free axes, with the
    noise-floor lambda2 that the CLI adds to the grid counted as a corner,
    plus `n_random` seeded grid points; a grid of at most EXHAUSTIVE_LIMIT
    points is taken whole. Axes a variant pins are held at 1, as the CLI
    holds them; the power fractions are always swept.
    """
    def axis(n, free=True):
        return [mpf(i) / (n - 1) for i in range(n)] if free else [ref.ONE]

    layered = variant in ("key_splitting", "rate_splitting", "rate_splitting_no_an")
    axes = [axis(grid["n_lambda1"], variant in ("key_splitting", "rate_splitting")),
            axis(grid["n_lambda2"], layered),
            axis(grid["n_beta1"]),
            axis(grid["n_beta2"]),
            axis(grid["n_eta"], variant == "key_splitting")]
    ends = [sorted({a[0], a[-1]}) for a in axes]
    if layered:
        split = ref.gdof_split_lambda2(ch)
        axes[1].append(split)
        ends[1].append(split)
    if math.prod(len(a) for a in axes) <= EXHAUSTIVE_LIMIT:
        return sorted(itertools.product(*axes))
    points = set(itertools.product(*ends))
    for _ in range(n_random):
        points.add(tuple(rng.choice(a) for a in axes))
    return sorted(points)


# ------------------------------------------------------------------ region

def check_region(out: Path, ctx: dict, rng: random.Random) -> list:
    ch, grid = ctx["channel"], ctx["grid"]
    high = ref.high_regime(ch)
    expect = [v for v in VARIANTS if not (high and v in WEAK_ONLY)]
    fails = []
    for v in VARIANTS:
        present = (out / f"region_{v}.csv").exists()
        if present != (v in expect):
            fails.append(f"region_{v}.csv {'present' if present else 'missing'} "
                         f"with inr1 {'>' if high else '<='} snr2")
    meta = json.loads((out / "region_meta.json").read_text(encoding="utf-8"))
    if sorted(meta["suppressed"]) != sorted(set(VARIANTS) - set(expect)):
        fails.append(f"meta lists suppressed {meta['suppressed']}")
    if fails:
        return fails

    outer = read_polygons(out / "region_outer.csv")["outer"]
    fails += check_shape("outer", outer)
    fails += check_same_polygon("outer", outer, ref.outer_polygon(ch))
    regions = {v: read_polygons(out / f"region_{v}.csv")[v] for v in expect}
    r1_face, r2_face, sum_face = ref.outer_faces(ch)
    for v, poly in regions.items():
        fails += check_shape(v, poly)
        tol = ref.tolerance(poly, [(r1_face, r2_face)])
        for x, y in poly:
            if x > r1_face + tol or y > r2_face + tol or (
                    sum_face is not None and x + y > sum_face + tol):
                fails.append(f"{v}: vertex {(float(x), float(y))} beyond the outer faces")
                break
    for inner, outer_v in NESTING:
        if inner in regions and outer_v in regions:
            tol = ref.tolerance(regions[outer_v])
            if outside(regions[outer_v], regions[inner], tol):
                fails.append(f"{inner} not inside {outer_v}")
    for v, poly in regions.items():
        tol = ref.tolerance(poly)
        for point in grid_points(v, ch, grid, rng):
            corners = ref.polygon_corners(*ref.variant_caps(v, ch, point))
            if outside(poly, corners, tol):
                fails.append(f"{v}: the grid polygon at {tuple(map(float, point))} "
                             "is not inside the region")
                break
    if "one_time_pad" in regions:
        want = min(mpf(ch["rk"]), ref.c(ref.snr_inr(ch)[1]))
        got = max(y for _, y in regions["one_time_pad"])
        if abs(got - want) > ref.RTOL * max(want, ref.ONE):
            fails.append(f"one_time_pad max R2 {float(got)} != min(rk, c(snr2)) {float(want)}")
    return fails


# ----------------------------------------------------------------- sumrate

def family_channel(p, alpha, rk):
    """The symmetric channel with snr = p and inr = p**alpha."""
    return {"h11": 1.0, "h22": 1.0, "h21": p ** ((alpha - 1.0) / 2.0),
            "p1": p, "p2": p, "rk": rk}


def check_sumrate(out: Path, ctx: dict, rng: random.Random) -> list:
    header, rows = read_csv(out / "sumrate.csv")
    axis = ctx["axis"]
    if header != [axis, *VARIANTS, "outer"]:
        return [f"sumrate.csv header {header}"]
    axis_values = [float(r[0]) for r in rows]
    if len(axis_values) != len(ctx["points"]) or any(
            abs(a - b) > 1e-12 * max(1.0, abs(b)) for a, b in zip(axis_values, ctx["points"])):
        return [f"sumrate.csv axis {axis_values} != {ctx['points']}"]
    fails = []
    previous = None
    for row in rows:
        x = float(row[0])
        if axis == "rk":
            ch = dict(ctx["channel"], rk=x)
        else:
            ch = family_channel(ctx["p"], x, ctx["rk"])
        cells = dict(zip(header[1:], (mpf(float(v)) if v else None for v in row[1:])))
        label = f"{axis}={x}"
        want_outer = ref.keyed_sum_bound(ch)
        outer = cells["outer"]
        if (outer is None) != (want_outer is None):
            fails.append(f"{label}: outer cell {'blank' if outer is None else 'set'} "
                         "against the reference")
        elif outer is not None and abs(outer - want_outer) > ref.RTOL * want_outer:
            fails.append(f"{label}: outer {float(outer)} != reference {float(want_outer)}")
        high = ref.high_regime(ch)
        for v in VARIANTS:
            cell = cells[v]
            if (cell is None) != (high and v in WEAK_ONLY):
                fails.append(f"{label}: {v} cell {'blank' if cell is None else 'set'} "
                             f"with inr1 {'>' if high else '<='} snr2")
                continue
            if cell is None:
                continue
            tol = ref.RTOL * max(cell, ref.ONE)
            if outer is not None and cell > outer + tol:
                fails.append(f"{label}: {v} {float(cell)} above the outer bound")
            best = max(ref.best_sum(*ref.variant_caps(v, ch, point))
                       for point in grid_points(v, ch, ctx["grid"], rng))
            if cell < best - tol:
                fails.append(f"{label}: {v} {float(cell)} below an on-grid point's "
                             f"sum rate {float(best)}")
        for inner, outer_v in NESTING:
            a, b = cells[inner], cells[outer_v]
            if a is not None and b is not None and a > b + ref.RTOL * max(b, ref.ONE):
                fails.append(f"{label}: {inner} {float(a)} above {outer_v} {float(b)}")
        if axis == "rk" and previous is not None:
            for v in VARIANTS + ("outer",):
                a, b = previous[v], cells[v]
                if a is not None and b is not None and b < a - ref.RTOL * max(a, ref.ONE):
                    fails.append(f"{label}: {v} decreases along rk")
        previous = cells
    return fails


# -------------------------------------------------------------------- gdof

def check_gdof(out: Path, ctx: dict, rng: random.Random) -> list:
    polys = read_polygons(out / "gdof.csv")
    names = [*GDOF_SCHEMES, "no_secrecy"]
    if list(polys) != names:
        return [f"gdof.csv holds {list(polys)}, expected {names}"]
    cap = ref.no_secrecy_polygon(ctx["alpha"])
    fails = []
    for name, poly in polys.items():
        fails += check_shape(name, poly)
        want = ref.gdof_polygon(name, ctx["alpha"], ctx["gamma"], ctx["eta"])
        fails += check_same_polygon(name, poly, want)
        if outside(cap, poly, ref.tolerance(cap)):
            fails.append(f"{name}: leaves the no-secrecy polytope")
    return fails


# ------------------------------------------------------------------ verify

def check_verify(out: Path, ctx: dict, rng: random.Random) -> list:
    report = json.loads((out / "verify.json").read_text(encoding="utf-8"))
    fails = []
    if report["seed"] != ctx["seed"]:
        fails.append(f"report seed {report['seed']} != {ctx['seed']}")
    if not report["results"] or report["n_scenarios"] != len(report["results"]):
        fails.append("report row count does not match n_scenarios")
    if not report["all_pass"]:
        fails.append("all_pass is false")
    for row in report["results"]:
        where = f"{row['invariant']} [{row['scenario']}]"
        if not row["pass"]:
            fails.append(f"{where}: does not pass")
        elif row["margin"] < 0:
            fails.append(f"{KNOWN_FAULT}: {where} margin={row['margin']}")
    return fails


CHECKS = {"region": check_region, "sumrate": check_sumrate,
          "gdof": check_gdof, "verify": check_verify}


def check(kind: str, out: Path, ctx: dict, seed) -> list:
    """Failures of one command's output; `seed` picks the sampled grid points."""
    try:
        return CHECKS[kind](out, ctx, random.Random(seed))
    except (OSError, ValueError, KeyError, IndexError) as e:
        return [f"unreadable output: {e!r}"]


def same_files(a: Path, b: Path) -> list:
    """Byte-for-byte comparison of two commands' output directories."""
    names = sorted(p.name for p in a.iterdir())
    if names != sorted(p.name for p in b.iterdir()):
        return [f"rerun wrote other files: {names}"]
    return [f"rerun changed {n}" for n in names
            if (a / n).read_bytes() != (b / n).read_bytes()]
