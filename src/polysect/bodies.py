"""Convex bodies behind support/membership oracles.

Every body answers two queries in floating point: support(u) -> (value,
support point) and member(x) -> bool (membership within the body's
tolerance).  Balls, ellipsoids and exact polytopes have closed forms; the
cap body conv(polytope ∪ ball) evaluates membership through the identity
conv(A ∪ B) = union over t of (t·A + (1-t)·B), which turns the question
into a one-dimensional convex minimization over t, searched in floats
until a sample or a convexity bound settles it.

A planar section of a body is seen through its exit function
(exit_function): the boundary point on the ray at angle θ from an interior
centre.  8 rays from a first interior point find the centre, the centroid
of their exits.  Each exit is the upper end of a closed-form ray_interval
(balls, ellipsoids), or else comes from ray_exit, doubling and bisection of
the membership oracle along the same ray, up to BODY_CEILING, which no spec
body reaches.  The cone scan in `cones` reads its cross-sections through the
same function, and the polygonality probe of `criteria` calls it at the
angles it chooses.
"""

from __future__ import annotations

import math
import os
import random
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from operator import add, mul, sub, truediv
from typing import Callable, Sequence

from .geometry import MAX_MAGNITUDE, AffineFlat, DimensionMismatch, GeometryError
from .polytope import Polytope, convex_hull


class BodyError(GeometryError):
    pass


class FlatMissesBody(BodyError):
    """A section flat has no chart point in the body's interior."""


class UnboundedSection(BodyError):
    """A section ray is still inside the body at the exit ceiling."""


@dataclass(frozen=True)
class BodyOracle:
    """A convex body seen through support and membership queries.

    support(u) returns (h(u), p) with h the support function and p a point
    of the body attaining it.  member(x) answers membership within the
    body's own tolerance.  `polytope` is set when the body wraps one; the
    testers then decide exactly on it.
    """

    dim: int
    support: Callable[[Sequence[float]], tuple[float, tuple[float, ...]]]
    member: Callable[[Sequence[float]], bool]
    interior_hint: tuple[float, ...]
    name: str = "body"
    polytope: Polytope | None = None
    ray_interval: (
        Callable[[Sequence[float], Sequence[float]], tuple[float, float] | None]
        | None
    ) = None


# Spec bodies lie within ±2·MAX_MAGNITUDE (a cap's ball may reach past its
# polytope's box), so a unit-speed ray from an interior point leaves one
# long before this parameter.
BODY_CEILING = 1e102

# The least tau a sampled tester takes: float exits are rounded to about 1e-16
# of their size, and a tolerance near that reads rounding as strict corners.
MIN_TAU = 1e-12


# The float kernels below iterate in C (sum over map).  sum adds the same
# terms in the same order as over a generator, so every float equals the
# one a per-element generator gave (tests/helpers.py keeps those forms).
# Inputs may be ints or Fractions, so the generic helpers convert with float.


def _fdot(a, b) -> float:
    return sum(map(mul, map(float, a), map(float, b)))


def _fnorm(v) -> float:
    try:
        return math.sqrt(sum(map(pow, map(float, v), repeat(2))))
    except OverflowError:  # float ** raises where x * x would give inf
        return math.inf


def _axpy(a, x, y):
    """The map of y + a*x, termwise."""
    return map(add, y, map(mul, repeat(a), x))


def _lincomb(a, x, b, y):
    """The map of a*x + b*y, termwise."""
    return map(add, map(mul, repeat(a), x), map(mul, repeat(b), y))


def _funit(v):
    n = _fnorm(v)
    return tuple(map(truediv, v, repeat(n))) if n > 1e-15 else None


def _gauss_unit(rng: random.Random, d: int) -> tuple[float, ...]:
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(d)]
        n = math.sqrt(sum(map(mul, v, v)))
        if n > 1e-9:
            return tuple(map(truediv, v, repeat(n)))


def _orthonormal_frame(rng: random.Random, d: int, k: int, given=()):
    """k orthonormal float vectors in dimension d, normal to the orthonormal
    vectors `given` (Gram-Schmidt on gaussians)."""
    while True:
        vecs = []
        for _ in range(k):
            v = _gauss_unit(rng, d)
            for u in (*given, *vecs):
                dot = sum(map(mul, v, u))
                v = tuple(map(sub, v, map(mul, repeat(dot), u)))
            n = math.sqrt(sum(map(mul, v, v)))
            if n < 1e-6:
                break
            vecs.append(tuple(map(truediv, v, repeat(n))))
        if len(vecs) == k:
            return tuple(vecs)


def make_ball(center, radius) -> BodyOracle:
    c = tuple(float(x) for x in center)
    r = float(radius)
    if not all(map(math.isfinite, (*c, r))):
        raise BodyError("ball center and radius must be finite")
    if r <= 0:
        raise BodyError("ball radius must be positive")

    r_tol = r + 1e-12
    try:
        rr = r_tol**2
    except OverflowError:
        raise BodyError("ball radius is too large for float arithmetic") from None

    def support(u):
        nu = _fnorm(u)
        if nu == 0:
            raise BodyError("support direction must be nonzero")
        point = tuple(map(add, c, map(truediv, map(mul, repeat(r), u), repeat(nu))))
        return _fdot(u, c) + r * nu, point

    def member(x):
        return _fnorm(map(sub, x, c)) <= r_tol

    def ray_interval(z, u):
        return _sphere_interval([*map(sub, z, c)], [*map(float, u)], rr)

    return BodyOracle(len(c), support, member, c, "ball", None, ray_interval)


def make_ellipsoid(center, semi_axes) -> BodyOracle:
    c = tuple(float(x) for x in center)
    a = tuple(float(x) for x in semi_axes)
    if len(a) != len(c):
        raise DimensionMismatch("center and semi-axes dimensions disagree")
    if not all(map(math.isfinite, c + a)):
        raise BodyError("ellipsoid center and semi-axes must be finite")
    if any(x <= 0 for x in a):
        raise BodyError("semi-axes must be positive")

    aa = tuple(map(mul, a, a))

    def support(u):
        s = math.sqrt(sum(map(pow, map(mul, a, u), repeat(2))))
        if s == 0:
            raise BodyError("support direction must be nonzero")
        point = tuple(map(add, c, map(truediv, map(mul, aa, u), repeat(s))))
        return _fdot(u, c) + s, point

    def member(x):
        return sum(map(pow, map(truediv, map(sub, x, c), a), repeat(2))) <= 1.0 + 1e-12

    def ray_interval(z, u):
        w = [*map(truediv, map(sub, z, c), a)]
        return _sphere_interval(w, [*map(truediv, u, a)], 1.0 + 1e-12)

    return BodyOracle(len(c), support, member, c, "ellipsoid", None, ray_interval)


def _sphere_interval(w, v, rr):
    """Roots of |w + t*v|^2 = rr as (t0, t1), or None when the line misses.

    w and v are float sequences, so the dot products need no float().
    """
    a = sum(map(mul, v, v))
    if a == 0:
        raise BodyError("ray direction must be nonzero")
    b = sum(map(mul, w, v))
    cc = sum(map(mul, w, w)) - rr
    # |w + t*v|^2 <= rr is -(a*t^2 + 2*b*t + cc) >= 0 with -a < 0: one interval
    return _nappe_interval(-a, -b, -cc, 0.0)


def _nappe_interval(a, b, c, q):
    """The part of {r : a*r^2 + 2*b*r + c >= 0} on the forward nappe's side.

    The set is a line's meet with a double cone (or, for a < 0, with a
    sphere's inside).  When a > 0 the line's direction lies inside the
    double cone and the set is two rays, one per nappe; the forward one
    points along sign(q).  Otherwise the set is one interval (or empty).
    Stable form of the quadratic formula: with s = -(b + sign(b)*sqrt(disc))
    the roots are s/a and c/s, so no root is a difference of near-equal
    terms.
    """
    inf = math.inf
    if a == 0:
        if b == 0:
            return (-inf, inf) if c >= 0 else None
        root = -c / (2.0 * b)
        return (root, inf) if b > 0 else (-inf, root)
    disc = b * b - a * c
    if disc < 0:
        return (-inf, inf) if a > 0 else None
    s = -(b + math.copysign(math.sqrt(disc), b))
    if s == 0:
        lo = hi = 0.0
    else:
        lo, hi = s / a, c / s
        if hi < lo:
            lo, hi = hi, lo
    if a < 0:
        return (lo, hi)
    return (hi, inf) if q > 0 else (-inf, lo)


def wrap_polytope(poly: Polytope) -> BodyOracle:
    verts = [tuple(float(x) for x in v) for v in poly.vertices]
    hint = tuple(float(x) for x in poly.interior_point())

    columns = tuple(zip(*verts))

    def support(u):
        # vertex k's values u_i * v_i, summed in _fdot's order
        terms = [map(mul, repeat(ui), col) for ui, col in zip(map(float, u), columns)]
        values = list(map(sum, zip(*terms)))
        # max keeps the first vertex of largest value, as a strict > scan does
        k = max(range(len(verts)), key=values.__getitem__)
        return values[k], verts[k]

    def member(x):
        xq = tuple(Fraction(float(xi)) for xi in x)
        return poly.contains(xq) != "outside"

    return BodyOracle(poly.ambient_dim, support, member, hint, "polytope", poly)


def _closest_point_finder(poly: Polytope):
    """Float (inside, closest) tests for a full-dimensional 3-polytope.

    inside(p) holds when p satisfies every float facet plane n.p <= c;
    closest(p) is the closest point of the polytope to an outside p.  The
    facet data (normal, offset, n.n, and the facet's edges in rotational
    order with their outward edge normals and squared lengths) is built
    once; the returned functions do only the per-point work.
    """
    verts = [tuple(float(x) for x in v) for v in poly.vertices]
    facets = []
    for (normal, offset), face in zip(poly._int_facets, poly.facet_vertices):
        n = tuple(map(float, normal))
        pts = [verts[i] for i in face]
        centroid = tuple(sum(q[i] for q in pts) / len(pts) for i in range(3))
        m = len(pts)
        order = _order_polygon(pts, centroid, n)
        edges = []
        for k in range(m):
            a = pts[order[k]]
            b = pts[order[(k + 1) % m]]
            e = tuple(bi - ai for ai, bi in zip(a, b))
            edges.append((a, e, _cross3f(e, n), _fdot(e, e)))
        facets.append((n, float(offset), _fdot(n, n), tuple(edges)))
    planes = [(nx, ny, nz, c) for (nx, ny, nz), c, _, _ in facets]

    def inside(p) -> bool:
        px, py, pz = p
        return all(nx * px + ny * py + nz * pz <= c for nx, ny, nz, c in planes)

    def closest(p) -> tuple[float, ...]:
        # unrolled 3-D arithmetic in the operation order of _fdot and _fnorm,
        # so the points equal those of the generic per-call form
        px, py, pz = p
        best = None
        best_pt = None

        def consider(q):
            nonlocal best, best_pt
            d = math.sqrt((px - q[0]) ** 2 + (py - q[1]) ** 2 + (pz - q[2]) ** 2)
            if best is None or d < best:
                best, best_pt = d, q

        for (nx, ny, nz), c, nn, edges in facets:
            t = (nx * px + ny * py + nz * pz - c) / nn
            qx, qy, qz = px - t * nx, py - t * ny, pz - t * nz
            # inside the facet polygon iff on the inner side of every edge plane
            inside = True
            for (ax, ay, az), (ex, ey, ez), (ox, oy, oz), ee in edges:
                if ox * (qx - ax) + oy * (qy - ay) + oz * (qz - az) > 1e-12:
                    inside = False
                # edge segment candidate
                if ee > 0:
                    s = ((px - ax) * ex + (py - ay) * ey + (pz - az) * ez) / ee
                    s = max(0.0, min(1.0, s))
                    consider((ax + s * ex, ay + s * ey, az + s * ez))
            if inside:
                consider((qx, qy, qz))
        for v in verts:
            consider(v)
        return best_pt

    return inside, closest


def _cross3f(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _order_polygon(pts, centroid, normal):
    """Indices of coplanar points in rotational order around the centroid."""
    ref = tuple(a - b for a, b in zip(pts[0], centroid))
    e1 = _funit(ref) or (1.0, 0.0, 0.0)
    e2 = _funit(_cross3f(normal, e1))
    ang = []
    for i, q in enumerate(pts):
        d = tuple(a - b for a, b in zip(q, centroid))
        ang.append((math.atan2(_fdot(d, e2), _fdot(d, e1)), i))
    return [i for _, i in sorted(ang)]


def glue_cap(poly: Polytope, center, radius) -> BodyOracle:
    """conv(polytope ∪ ball): an exact polytope with one round bump glued on."""
    if poly.ambient_dim != 3:
        raise BodyError("cap bodies are supported in dimension 3 only")
    if poly.dim != 3:
        raise BodyError("cap bodies need a full-dimensional polytope")
    c = tuple(float(x) for x in center)
    if len(c) != 3:
        raise DimensionMismatch("cap center must be 3-dimensional")
    r = float(radius)
    if r <= 0:
        raise BodyError("ball radius must be positive")
    ball = make_ball(c, r)
    pwrap = wrap_polytope(poly)
    # the member test squares vertex coordinates and facet normals in floats
    # (huge normals come from huge coordinates or huge denominators)
    data = [x for v in poly.vertices for x in v]
    data += [x for normal, _ in poly._int_facets for x in normal]
    if any(abs(x) > MAX_MAGNITUDE for x in data):
        raise BodyError("cap polytope is too large for float arithmetic")
    inside, closest_point = _closest_point_finder(poly)

    def support(u):
        hp, pp = pwrap.support(u)
        hb, pb = ball.support(u)
        return (hp, pp) if hp >= hb else (hb, pb)

    def member(x):
        if pwrap.member(x) or ball.member(x):
            return True
        # conv(K ∪ B) = ∪_t (t·K + (1-t)·B); membership minimizes
        # f(t) = dist(x, t·K + (1-t)·c) - (1-t)·r, which is convex in t.
        def f(t):
            shifted = map(sub, x, map(mul, repeat(1.0 - t), c))
            scaled = tuple(map(truediv, shifted, repeat(t)))
            if inside(scaled):
                d = 0.0
            else:
                q = closest_point(scaled)
                d = _fnorm(map(sub, scaled, q))
            return t * d - (1.0 - t) * r

        return _convex_min_at_most(f, 1e-9, 1.0, 1e-9)

    return BodyOracle(3, support, member, pwrap.interior_hint, "cap")


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _convex_min_at_most(f, lo: float, hi: float, level: float) -> bool:
    """Whether the minimum of a convex f over [lo, hi] is at most `level`.

    A golden-section search that stops on the first certificate: a sample
    at or below `level` proves yes, and a convexity lower bound from the
    four bracket samples above `level` proves no.  When the bracket gets
    narrower than 1e-15 without either, the midpoint sample decides.
    """
    ts = [lo, hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo), hi]
    fs = [f(t) for t in ts]
    while True:
        if min(fs) <= level:
            return True
        if _convex_lower_bound(ts, fs) > level:
            return False
        if ts[3] - ts[0] < 1e-15:
            return f(0.5 * (ts[0] + ts[3])) <= level
        if fs[1] <= fs[2]:
            # the minimum lies in [t0, t2]; the old t1 becomes the new t2
            t = ts[2] - _INV_PHI * (ts[2] - ts[0])
            ts = [ts[0], t, ts[1], ts[2]]
            fs = [fs[0], f(t), fs[1], fs[2]]
        else:
            t = ts[1] + _INV_PHI * (ts[3] - ts[1])
            ts = [ts[1], ts[2], t, ts[3]]
            fs = [fs[1], fs[2], f(t), fs[3]]


def _convex_lower_bound(ts, fs) -> float:
    """Lower bound on [t0, t3] of a convex f sampled at t0 < t1 < t2 < t3.

    Outside the chord between two samples a convex function lies above the
    chord's line (secant extension).  Each gap between samples is bounded by
    the extended neighbouring chords, and the maximum of two lines is
    smallest at a gap end or where they cross.
    """
    if not ts[0] < ts[1] < ts[2] < ts[3]:
        return -math.inf
    s = [(fs[i + 1] - fs[i]) / (ts[i + 1] - ts[i]) for i in range(3)]
    gaps = (
        (ts[0], ts[1], ((ts[1], fs[1], s[1]),)),
        (ts[1], ts[2], ((ts[1], fs[1], s[0]), (ts[2], fs[2], s[2]))),
        (ts[2], ts[3], ((ts[2], fs[2], s[1]),)),
    )
    bound = math.inf
    for a, b, lines in gaps:
        candidates = [a, b]
        if len(lines) == 2:
            (t0, f0, k0), (t1, f1, k1) = lines
            if k0 != k1:
                cross = (f1 - f0 + k0 * t0 - k1 * t1) / (k0 - k1)
                if a < cross < b:
                    candidates.append(cross)
        for t in candidates:
            bound = min(bound, max(f0 + k * (t - t0) for t0, f0, k in lines))
    return bound


def sample_section_boundary(body: BodyOracle, flat: AffineFlat):
    """The `exit_function` of body ∩ flat from a centre, in the flat's
    orthonormalized basis: θ maps to the boundary point at angle θ, relative
    to the centre.  The flat must be 2-dimensional and meet the body's
    interior (FlatMissesBody otherwise).  The centre is the centroid of the
    exits at angles 2πj/8 from a first interior chart point x0 when member
    accepts it, and x0 otherwise.
    """
    if flat.dim != 2:
        raise BodyError("section sampling needs a 2-dimensional flat")
    if flat.ambient_dim != body.dim:
        raise DimensionMismatch("flat and body dimensions disagree")
    base = tuple(float(x) for x in flat.base)
    frame = tuple(_funit(tuple(float(x) for x in b)) for b in flat.basis)
    at = lambda cx, cy: tuple(_axpy(cy, frame[1], _axpy(cx, frame[0], base)))
    exits = lambda x: exit_function(body.member, body.ray_interval, at(*x), frame, BODY_CEILING)

    x0 = _interior_chart_point(body, at)
    if x0 is None:
        raise FlatMissesBody("flat misses the body's interior")
    # centre on the centroid of 8 exits: better-conditioned than the first hit
    probe = list(map(exits(x0), (2.0 * math.pi * j / 8 for j in range(8))))
    centre = (x0[0] + sum(p[0] for p in probe) / 8, x0[1] + sum(p[1] for p in probe) / 8)
    return exits(centre if body.member(at(*centre)) else x0)


def check_sampling(boundary_points: int, tau: float) -> None:
    """Reject sampling parameters that no tester can use.

    boundary_points, the probe's vertex bound, must be at least 8; a NaN
    tau compares false everywhere and would pass every flatness test.
    """
    if boundary_points < 8:
        raise BodyError("need at least 8 boundary points")
    if not (math.isfinite(tau) and tau >= MIN_TAU):
        raise BodyError(f"tau must be finite and positive, at least {MIN_TAU:g}")


def ray_exit(member, start, u, ceiling: float) -> float | None:
    """Exit parameter r of the ray start + r*u, for a start inside, from
    member alone.

    The step doubles from r = 1 until member fails, then 60 bisection steps
    narrow the crossing.  None when the doubling passes `ceiling`.
    """

    def inside(r):
        return member(tuple(_axpy(r, u, start)))

    lo, hi = 0.0, 1.0
    while inside(hi):
        lo = hi
        hi *= 2.0
        if hi > ceiling:
            return None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if inside(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exit_function(member, ray_interval, start, frame, ceiling):
    """The boundary of the planar section through `start` spanned by the
    orthonormal frame (e1, e2), as a function of the angle θ: the exit r of
    the ray along cos θ·e1 + sin θ·e2, as the chart offset (r cos θ,
    r sin θ) from start.  With a closed-form ray_interval (a BodyOracle's
    or a ConeOracle's) r is the interval's upper end, or 0 when the line
    misses: start is inside, so the interval holds 0 up to rounding.
    Without one, r comes from ray_exit.  An exit at or beyond `ceiling`
    raises UnboundedSection.
    """
    e1, e2 = frame

    def point_at(th):
        ct, st = math.cos(th), math.sin(th)
        u = tuple([ct * a + st * b for a, b in zip(e1, e2)])
        if ray_interval is None:
            r = ray_exit(member, start, u, ceiling)
        else:
            span = ray_interval(start, u)
            r = max(span[1], 0.0) if span is not None else 0.0
        if r is None or not r < ceiling:
            raise UnboundedSection("section boundary ray never left the body")
        return (r * ct, r * st)

    return point_at


def _interior_chart_point(body: BodyOracle, at):
    # project the body's interior hint onto the chart, then spiral outward
    hint = body.interior_hint
    base = at(0.0, 0.0)
    u1 = tuple(map(sub, at(1.0, 0.0), base))
    u2 = tuple(map(sub, at(0.0, 1.0), base))
    d = tuple(map(sub, hint, base))
    c0 = (_fdot(d, u1), _fdot(d, u2))
    scale = max(1.0, _fnorm(d))

    def candidates():  # drawn lazily: the first one usually lies inside
        yield c0
        yield (0.0, 0.0)
        for ring in range(1, 9):
            rad = scale * ring / 4.0
            for k in range(8 * ring):
                th = 2 * math.pi * k / (8 * ring)
                yield (c0[0] + rad * math.cos(th), c0[1] + rad * math.sin(th))

    return next((cand for cand in candidates() if body.member(at(*cand))), None)


# ---------------------------------------------------------------------------
# body descriptions (JSON-friendly)


def _num(x) -> Fraction:
    """A finite rational from a JSON number or a string such as "1/2"."""
    shown = reprlib.repr(x)  # a huge number or string would fill the line
    if isinstance(x, bool) or not isinstance(x, (int, float, str, Fraction)):
        raise BodyError(f"cannot interpret {shown} as a number")
    try:
        value = Fraction(x)
    except (ValueError, ArithmeticError):
        raise BodyError(f"{shown} is not a finite number") from None
    if abs(value) > MAX_MAGNITUDE:
        raise BodyError(f"{shown} is beyond 1e100 in absolute value")
    return value


def _vec(x, what: str) -> tuple[Fraction, ...]:
    if not isinstance(x, (list, tuple)):
        raise BodyError(f"{what} must be a list of numbers")
    return tuple(_num(v) for v in x)


def body_from_spec(spec: dict, base_dir: str = ".") -> BodyOracle:
    """Build a body oracle from a JSON-style description.

    kinds: ball {center, radius}, ellipsoid {center, semi_axes},
    polytope {vertices | off}, cap {polytope, center, radius}.
    """
    if not isinstance(spec, dict) or "kind" not in spec:
        raise BodyError("body description needs a 'kind' field")
    kind = spec["kind"]

    def need(key):
        if key not in spec:
            raise BodyError(f"{kind} spec needs {key!r}")
        return spec[key]

    if kind == "ball":
        return make_ball(_vec(need("center"), "center"), _num(need("radius")))
    if kind == "ellipsoid":
        center = _vec(need("center"), "center")
        return make_ellipsoid(center, _vec(need("semi_axes"), "semi_axes"))
    if kind == "polytope":
        return wrap_polytope(_polytope_from_spec(spec, base_dir))
    if kind == "cap":
        poly = _polytope_from_spec(need("polytope"), base_dir)
        center = _vec(need("center"), "center")
        return glue_cap(poly, center, _num(need("radius")))
    raise BodyError(f"unknown body kind {kind!r}")


def _polytope_from_spec(spec: dict, base_dir: str) -> Polytope:
    if not isinstance(spec, dict):
        raise BodyError("polytope spec must be an object")
    if "off" in spec:
        from .offio import load_polytope

        path = spec["off"]
        if not isinstance(path, str):
            raise BodyError("polytope spec 'off' must be a path string")
        with open(os.path.join(base_dir, path), "r", encoding="utf-8") as fh:
            poly, _warnings = load_polytope(fh.read())
        return poly
    if "vertices" in spec:
        rows = spec["vertices"]
        if not isinstance(rows, (list, tuple)):
            raise BodyError("vertices must be a list of points")
        return convex_hull([_vec(row, "a vertex") for row in rows])
    raise BodyError("polytope spec needs 'vertices' or 'off'")
