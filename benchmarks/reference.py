"""Reference formulas for the benchmark's output checks, in 50-digit mpmath.

Everything here is restated from the model, not taken from the program:
the scheme caps, the keyed outer bounds, the secure GDOF polytopes, and a
small exact polygon toolkit to compare regions with. The module must stay
free of any `zickey` import, so that agreement with the program's output is
evidence and not a copy of it.

A channel is a dict with the float keys h11, h22, h21, p1, p2 and rk.
Polygons are lists of (x, y) mpf pairs, counterclockwise from the origin.
"""

from __future__ import annotations

from mpmath import log, mp, mpf

mp.dps = 50

RTOL = mpf("1e-9")  # relative tolerance on rates compared
ZERO = mpf(0)
ONE = mpf(1)


def c(x):
    """Gaussian capacity term 0.5*log2(1 + x) in bits."""
    return log(1 + mpf(x), 2) / 2


def gains(ch):
    """Squared gains (g11, g22, g21) and powers (p1, p2) as mpf."""
    h11, h22, h21, p1, p2 = (mpf(ch[k]) for k in ("h11", "h22", "h21", "p1", "p2"))
    return h11**2, h22**2, h21**2, p1, p2


def snr_inr(ch):
    """(snr1, snr2, inr1) for unit noise."""
    g11, g22, g21, p1, p2 = gains(ch)
    return g11 * p1, g22 * p2, g21 * p2


def high_regime(ch) -> bool:
    """Whether the cross link dominates user 2's direct link (inr1 > snr2)."""
    _, snr2, inr1 = snr_inr(ch)
    return inr1 > snr2


# ---------------------------------------------------------------- scheme caps

def key_split_caps(ch, lam1, lam2, b1, b2, eta):
    """(R1 cap, R2 cap, sum cap) of key splitting at one parameter point."""
    g11, g22, g21, p1, p2 = gains(ch)
    rk = mpf(ch["rk"])
    lam1, lam2, b1, b2, eta = (mpf(v) for v in (lam1, lam2, b1, b2, eta))
    p1m, p1a = lam1 * b1 * p1, (1 - lam1) * b1 * p1
    p2p, p2c = lam2 * b2 * p2, (1 - lam2) * b2 * p2
    noise1 = 1 + g11 * p1a + g21 * p2p
    r1 = c(g11 * p1m / noise1)
    leak = c(g21 * p2p / (1 + g11 * p1a))
    common = min(c(g21 * p2c / noise1), c(g22 * p2c / (1 + g22 * p2p)), eta * rk)
    private_cap = c(g22 * p2p)
    private = max(ZERO, min(private_cap, private_cap - leak + (1 - eta) * rk))
    rsum = c((g11 * p1m + g21 * p2c) / noise1) + private
    return r1, common + private, rsum


def wiretap_caps(ch, b1, b2):
    """(R1 cap, R2 cap, inf) when the key only enlarges the wiretap code."""
    g11, g22, g21, p1, p2 = gains(ch)
    q1, q2 = mpf(b1) * p1, mpf(b2) * p2
    r1 = c(g11 * q1 / (1 + g21 * q2))
    cap2 = c(g22 * q2)
    r2 = max(ZERO, min(cap2, cap2 - c(g21 * q2) + mpf(ch["rk"])))
    return r1, r2, mp.inf


def otp_caps(ch, b1, b2):
    """(R1 cap, R2 cap, inf) when the key is a one-time pad."""
    g11, g22, g21, p1, p2 = gains(ch)
    q1, q2 = mpf(b1) * p1, mpf(b2) * p2
    r1 = c(g11 * q1 / (1 + g21 * q2))
    return r1, min(mpf(ch["rk"]), c(g22 * q2)), mp.inf


def variant_caps(variant, ch, point):
    """Caps of a CLI scheme variant at a point (lam1, lam2, b1, b2, eta).

    Variants that pin an axis ignore the point's value on it.
    """
    lam1, lam2, b1, b2, eta = point
    if variant == "key_splitting":
        return key_split_caps(ch, lam1, lam2, b1, b2, eta)
    if variant == "rate_splitting":
        return key_split_caps(ch, lam1, lam2, b1, b2, 1)
    if variant == "rate_splitting_no_an":
        return key_split_caps(ch, 1, lam2, b1, b2, 1)
    if variant == "key_as_wiretap":
        return wiretap_caps(ch, b1, b2)
    if variant == "one_time_pad":
        return otp_caps(ch, b1, b2)
    raise ValueError(f"unknown scheme variant {variant!r}")


def polygon_corners(r1, r2, rsum):
    """The two non-axis corners of {R1 <= r1, R2 <= r2, R1 + R2 <= rsum}."""
    a, b = min(r1, rsum), min(r2, rsum)
    return [(a, min(b, max(ZERO, rsum - a))), (min(a, max(ZERO, rsum - b)), b)]


def best_sum(r1, r2, rsum):
    """Largest R1 + R2 on the polygon {R1 <= r1, R2 <= r2, R1 + R2 <= rsum}."""
    return min(rsum, r1 + r2)


def gdof_split_lambda2(ch):
    """lambda2 putting user 2's private power at the cross-link noise floor."""
    _, _, g21, _, p2 = gains(ch)
    if g21 * p2 <= 0:
        return ONE
    return min(ONE, 1 / (g21 * p2))


# --------------------------------------------------------------- outer bounds

def keyed_r2_bound(ch):
    """Keyed R2 outer bound, valid in every regime."""
    snr1, snr2, inr1 = snr_inr(ch)
    return c(snr2 - snr2 * inr1 / (1 + snr1 + inr1)) + mpf(ch["rk"])


def keyed_sum_bound(ch):
    """Keyed sum-rate outer bound, or None unless snr2 > inr1."""
    snr1, snr2, inr1 = snr_inr(ch)
    if not snr2 > inr1:
        return None
    return c(snr1) + c(snr2) - c(inr1) + mpf(ch["rk"])


def outer_faces(ch):
    """Outer faces (r1_face, r2_face, sum_face or None) of the region:
    R1 <= c(snr1), R2 <= min(c(snr2), keyed R2 bound), and the keyed sum
    bound where it applies."""
    snr1, snr2, _ = snr_inr(ch)
    return c(snr1), min(c(snr2), keyed_r2_bound(ch)), keyed_sum_bound(ch)


def outer_polygon(ch):
    r1, r2, s = outer_faces(ch)
    faces = [(ONE, ZERO, r1), (ZERO, ONE, r2)]
    if s is not None:
        faces.append((ONE, ONE, s))
    return polygon_from_faces(faces)


# --------------------------------------------------------- GDOF polytopes

def gdof_polygon(scheme, alpha, gamma, eta):
    """Secure GDOF polytope of a scheme (alpha <= 1), axes d1, d2.

    key splitting: d1 <= 1, d2 <= 1 - alpha + min(alpha, eta*gamma),
    d1 + d2 <= 2 - alpha (rate splitting is eta = 1); the wiretap-key and
    one-time-pad schemes are the hull of two power-allocation boxes.
    """
    alpha, gamma, eta = mpf(alpha), mpf(gamma), mpf(eta)
    if scheme == "rate_splitting":
        scheme, eta = "key_splitting", ONE
    if scheme == "key_splitting":
        d2 = 1 - alpha + min(alpha, eta * gamma)
        return polygon_from_faces([(ONE, ZERO, ONE), (ZERO, ONE, d2),
                                   (ONE, ONE, 2 - alpha)])
    if scheme == "key_as_wiretap":
        corners = [(1 - alpha, min(ONE, 1 - alpha + gamma)), (ONE, 1 - alpha)]
    elif scheme == "one_time_pad":
        corners = [(1 - alpha, min(gamma, ONE)), (ONE, min(gamma, 1 - alpha))]
    elif scheme == "no_secrecy":
        return no_secrecy_polygon(alpha)
    else:
        raise ValueError(f"unknown GDOF scheme {scheme!r}")
    return down_closed_hull(corners)


def no_secrecy_polygon(alpha):
    alpha = mpf(alpha)
    return polygon_from_faces([(ONE, ZERO, ONE), (ZERO, ONE, ONE),
                               (ONE, ONE, 2 - alpha)])


# ----------------------------------------------------------- polygon toolkit

def cross(o, a, b):
    """z-component of (a - o) x (b - o); positive for a left turn."""
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points):
    """Monotone-chain hull, CCW from the lexicographic minimum.

    Collinear and near-repeated points are dropped, up to a tolerance far
    below RTOL, so that an mpf round-off never adds a vertex.
    """
    pts = sorted({(mpf(x), mpf(y)) for x, y in points})
    scale = max([abs(v) for p in pts for v in p] + [ONE])
    eps = scale**2 * mpf("1e-40")
    if len(pts) <= 2:
        return pts

    def chain(seq):
        out = []
        for q in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], q) <= eps:
                out.pop()
            out.append(q)
        return out

    lower, upper = chain(pts), chain(reversed(pts))
    return lower[:-1] + upper[:-1]


def down_closed_hull(points):
    """Hull of the points with their axis projections and the origin."""
    pts = [(ZERO, ZERO)]
    for x, y in points:
        pts += [(x, y), (x, ZERO), (ZERO, y)]
    return convex_hull(pts)


def polygon_from_faces(faces):
    """Polygon {a*x + b*y <= c for every face} in the first quadrant."""
    planes = [(mpf(a), mpf(b), mpf(cc)) for a, b, cc in faces]
    planes += [(-ONE, ZERO, ZERO), (ZERO, -ONE, ZERO)]
    scale = max([abs(p[2]) for p in planes] + [ONE])
    feasible = []
    for i, (a1, b1, c1) in enumerate(planes):
        for a2, b2, c2 in planes[i + 1:]:
            det = a1 * b2 - a2 * b1
            if det == 0:
                continue
            x = (c1 * b2 - c2 * b1) / det
            y = (a1 * c2 - a2 * c1) / det
            if all(a * x + b * y <= cc + scale * mpf("1e-40") for a, b, cc in planes):
                feasible.append((max(x, ZERO), max(y, ZERO)))
    if not feasible:
        raise ValueError("faces cut an empty polygon")
    return convex_hull(feasible)


def inside_margin(polygon, point):
    """Largest violation of the polygon by the point (<= 0 means inside).

    The polygon is convex and down-closed, CCW from the origin. A segment or
    a single point is treated as its bounding box, which is the same set for
    a down-closed polygon with fewer than three vertices.
    """
    x, y = mpf(point[0]), mpf(point[1])
    worst = max(-x, -y)
    if len(polygon) < 3:
        return max([worst, x - max(p[0] for p in polygon),
                    y - max(p[1] for p in polygon)])
    n = len(polygon)
    for i in range(n):
        (x0, y0), (x1, y1) = polygon[i], polygon[(i + 1) % n]
        length = mp.sqrt((x1 - x0) ** 2 + (y1 - y0) ** 2)
        if length == 0:
            continue
        worst = max(worst, -cross((x0, y0), (x1, y1), (x, y)) / length)
    return worst


def scale_of(*polygons):
    """Largest coordinate over the polygons, the scale tolerances follow."""
    return max([abs(mpf(v)) for poly in polygons for p in poly for v in p] + [mpf("1e-300")])


def tolerance(*polygons):
    return RTOL * scale_of(*polygons)

