"""Shadow-boundary walk for 3-dimensional polytopes.

The extreme points of the 2-dimensional shadow K|ξ^⊥ are enumerated
without ever hulling the projected vertices: from a boundary point of the
shadow, lift the chart point to the ambient line along ξ, put an apex on
that line far outside the body, and look at the visual cone.  The line's
direction -ξ lies on the cone's boundary: inside a single facet it spans a
shadow edge (step to its counterclockwise endpoint), on a cone edge the
point is an isolated extreme of the shadow.  Iterating counterclockwise
visits every shadow vertex in increasing polar angle and terminates after
finitely many steps on polytopes.

Only the cone facets through -ξ are ever read, and those are found in the
chart without building the cone: such a facet's plane contains the lifted
line, so it is the preimage of a chart line through the current point that
supports the shadow along an edge.  One angular scan of the vertex images
around the point wraps the cone around -ξ, as gift wrapping does (Jarvis
1973; Chand & Kapur 1970).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

from .geometry import (
    AffineFlat,
    DimensionMismatch,
    GeometryError,
    Point,
    Vector,
    as_vector,
    cross3,
    is_zero_vector,
    norm2,
    vadd,
    vdot,
    vscale,
    vsub,
)
from .polytope import Polytope, _canonical_halfspace, convex_hull, is_extreme


class WalkError(GeometryError):
    pass


ChartPoint = tuple[Fraction, Fraction]


def shadow_chart(xi) -> AffineFlat:
    """The subspace ξ^⊥ through the origin, charted right-handedly.

    The basis (e1, e2) satisfies det[e1, e2, ξ] > 0, so counterclockwise in
    chart coordinates is counterclockwise seen against the direction ξ.
    For an axis-parallel ξ the chart is the two remaining axes in cyclic
    order.
    """
    xi = as_vector(xi)
    if len(xi) != 3:
        raise DimensionMismatch("shadow walks live in dimension 3")
    if is_zero_vector(xi):
        raise WalkError("direction must be nonzero")
    axis = min(range(3), key=lambda i: abs(xi[i]))
    a = tuple(Fraction(1 if i == axis else 0) for i in range(3))
    e1 = vsub(a, vscale(xi, vdot(a, xi) / norm2(xi)))
    e2 = cross3(xi, e1)
    return AffineFlat((Fraction(0),) * 3, (e1, e2))


@dataclass(frozen=True)
class _Frame:
    """What every step of one walk reads: the body's vertex images in the
    chart, the same images on an integer grid (images times `scale`) and
    the ξ-height of the apexes."""

    body: Polytope
    images: tuple[ChartPoint, ...]
    grid: tuple[tuple[int, int], ...]
    scale: int
    apex_level: Fraction


def _frame(body: Polytope, chart: AffineFlat, xi: Vector) -> _Frame:
    heights = [vdot(xi, v) for v in body.vertices]
    top, bottom = max(heights), min(heights)
    if top == bottom:
        raise WalkError("body is flat along the walk direction")
    images = tuple(_chart_point(chart, v) for v in body.vertices)
    scale = math.lcm(*(c.denominator for p in images for c in p))
    grid = tuple((int(a * scale), int(b * scale)) for a, b in images)
    # the scan below needs the images to span the chart
    g0 = grid[0]
    rays = [(g[0] - g0[0], g[1] - g0[1]) for g in grid]
    far = max(rays, key=lambda d: abs(d[0]) + abs(d[1]))
    if all(_cross2(far, d) == 0 for d in rays):
        raise WalkError("the shadow along the walk direction is not 2-dimensional")
    return _Frame(body, images, grid, scale, top + 3 * (top - bottom))


@dataclass
class WalkState:
    xi: Vector
    chart: AffineFlat
    center: ChartPoint
    current: ChartPoint
    apex: Point | None = None
    frame: _Frame | None = field(default=None, repr=False)


@dataclass(frozen=True)
class StepOutcome:
    kind: str  # "edge" | "isolated-extreme"
    next_point: ChartPoint
    active_normals: tuple[Vector, ...]
    segment: tuple[ChartPoint, ChartPoint] | None


@dataclass(frozen=True)
class WalkResult:
    xi: Vector
    flat: AffineFlat
    vertices: tuple[ChartPoint, ...]
    angles: tuple[float, ...]
    steps: int
    start: ChartPoint


def _chart_point(chart: AffineFlat, v: Point) -> ChartPoint:
    return tuple(vdot(v, b) / n2 for b, n2 in zip(chart.basis, chart.basis_norm2s))


def _cross2(a, b) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


_INTERIOR = "point lies in the shadow's interior, not its boundary"


def _wrap(frame: _Frame, x: ChartPoint):
    """Wrap the vertex images around x: the rays (hi, lo) and whether x is
    inside an edge, or a WalkError when x is not on the shadow's boundary.

    hi and lo are the counterclockwise-most and clockwise-most rays p - x,
    each as (side of r, (dx, dy), index) with the farthest image on the ray.
    Angles are measured from the reference r = centroid - x of the images.
    When x is not interior, r is a positive combination of rays that span
    the chart, so it lies strictly inside their cone: no ray points against
    r and the cone's angle from lo to hi is at most π.  So an interior x
    shows as r = 0, as a ray against r, or as an angle over π
    (cross(lo, hi) < 0).  An angle of exactly π puts x inside an edge;
    under π, x is a vertex if it is an image and outside if not.
    Everything runs on the integer grid, scaled so that x is a grid point.
    """
    ox, oy = x[0] * frame.scale, x[1] * frame.scale
    q = math.lcm(ox.denominator, oy.denominator)
    ox, oy = int(ox * q), int(oy * q)
    grid = frame.grid if q == 1 else [(a * q, b * q) for a, b in frame.grid]
    rx = sum(g[0] for g in grid) - len(grid) * ox
    ry = sum(g[1] for g in grid) - len(grid) * oy
    if rx == 0 and ry == 0:
        raise WalkError(_INTERIOR)
    hi = lo = None
    hit = False
    for i, (gx, gy) in enumerate(grid):
        dx, dy = gx - ox, gy - oy
        if dx == 0 and dy == 0:
            hit = True
            continue
        side = rx * dy - ry * dx
        if side == 0 and rx * dx + ry * dy < 0:
            raise WalkError(_INTERIOR)
        ray = ((side > 0) - (side < 0), (dx, dy), i)
        if hi is None:
            hi = lo = ray
            continue
        turn = _turn(ray, hi)
        if turn > 0 or (turn == 0 and _farther(ray, hi)):
            hi = ray
        turn = _turn(ray, lo)
        if turn < 0 or (turn == 0 and _farther(ray, lo)):
            lo = ray
    span = _cross2(lo[1], hi[1])
    if span < 0:
        raise WalkError(_INTERIOR)
    if span > 0 and not hit:
        raise WalkError("point lies outside the shadow")
    return hi, lo, span == 0


def _turn(a, b) -> int:
    """Positive, zero or negative as ray a's angle is after, equal to or
    before ray b's, for two rays of one scan."""
    if a[0] != b[0]:
        return a[0] - b[0]
    return a[0] and _cross2(b[1], a[1])


def _farther(a, b) -> bool:
    """For two rays in one direction: is a's image farther from x?"""
    return abs(a[1][0]) + abs(a[1][1]) > abs(b[1][0]) + abs(b[1][1])


def _facet_normal(state: WalkState, u) -> Vector:
    """Canonical normal of the cone facet over the chart line through x
    along u, for a u with the shadow on its clockwise side.

    A vertex v with image p differs from the apex by lift(p - x) plus a
    multiple of ξ, so n = ξ × lift(u) gives n.(v - apex) =
    det[e1, e2, ξ] * cross(u, p - x).  The shadow chart is right-handed,
    so the body lies on the non-positive side, as on the cone's facets.
    """
    e1, e2 = state.chart.basis
    n = cross3(state.xi, vadd(vscale(e1, u[0]), vscale(e2, u[1])))
    return _canonical_halfspace(n, Fraction(0)).normal


def step_g(body: Polytope, state: WalkState) -> StepOutcome:
    """One walk step from the current shadow-boundary point.

    Puts an apex on the lifted line and reads the facets of its visual cone
    that contain the direction -ξ, without building the cone: they are the
    preimages of the chart lines through x that carry a shadow edge, found
    by `_wrap`.  Angular span over π: x is interior.  Exactly π: x lies
    inside one edge, so there is one facet.  Under π with x a vertex image:
    x is an isolated extreme with two facets.  Under π otherwise: x is
    outside.  A facet's plane supports the body, and it meets the body in
    the face spanned by the vertices over its chart line, whose images run
    from x out to the farthest image on each side.  One active facet: that
    face shades a whole shadow edge, and the counterclockwise endpoint is
    the next point.  Two: the counterclockwise-most forward endpoint of the
    active facets continues the walk.  No face projects to a point: each
    active facet's chart line holds an image other than x.

    The vertex images and the apex height are computed once per walk and
    kept in `state.frame`.
    """
    frame = state.frame
    if frame is None or frame.body is not body:
        frame = state.frame = _frame(body, state.chart, state.xi)
    xi = state.xi
    x = state.current
    p = state.chart.point_at(tuple(Fraction(c) for c in x))
    state.apex = vadd(p, vscale(xi, (frame.apex_level - vdot(p, xi)) / norm2(xi)))
    hi, lo, inside_edge = _wrap(frame, x)
    a, b = frame.images[hi[2]], frame.images[lo[2]]
    hi_normal = _facet_normal(state, hi[1])
    if inside_edge:
        active = (hi_normal,)
        faces = ((a, b), (b, a))
    else:
        lo_normal = _facet_normal(state, (-lo[1][0], -lo[1][1]))
        active = tuple(sorted((hi_normal, lo_normal)))
        faces = ((a, x), (b, x))
    # forward = counterclockwise of x around the shadow's center
    candidates = [
        (g, f) for g, f in faces if _cross2(vsub(x, state.center), vsub(g, x)) > 0
    ]
    if not candidates:
        raise WalkError("no forward endpoint found on the active facets")

    best_g, best_f = candidates[0]
    for g, f in candidates[1:]:
        turn = _cross2(vsub(g, x), vsub(best_g, x))
        if turn > 0 or (turn == 0 and _d2(g, x) > _d2(best_g, x)):
            best_g, best_f = g, f
    if inside_edge:
        return StepOutcome("edge", best_g, active, (best_f, best_g))
    return StepOutcome("isolated-extreme", best_g, active, None)


def _d2(a, b) -> Fraction:
    return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2


def shadow_walk(body: Polytope, xi) -> WalkResult:
    """Enumerate the shadow's extreme points counterclockwise by walking.

    Starts from the chart support point in direction (1, 0) (stepping off
    it first when it is edge-interior), emits every isolated extreme in
    strictly increasing polar angle, and stops on returning to the first
    one.  Termination within |vertices| + 2 steps is guaranteed for
    polytopes; exceeding the bound raises.  Each emitted point is checked
    extreme on the hulled shadow.
    """
    if body.ambient_dim != 3 or body.dim != 3:
        raise WalkError("shadow walks need a full-dimensional 3-polytope")
    xi = as_vector(xi)
    chart = shadow_chart(xi)
    frame = _frame(body, chart, xi)
    projected = frame.images
    center = (
        sum(p[0] for p in projected) / len(projected),
        sum(p[1] for p in projected) / len(projected),
    )
    best = max(p[0] for p in projected)
    start = next(p for p in projected if p[0] == best)
    state = WalkState(xi, chart, center, start, frame=frame)

    emitted: list[ChartPoint] = []
    max_steps = len(body.vertices) + 2
    steps = 0
    shadow_hull = convex_hull(projected)
    while steps < max_steps:
        outcome = step_g(body, state)
        steps += 1
        if outcome.kind == "isolated-extreme":
            v = state.current
            if emitted and v == emitted[0]:
                break
            if emitted:
                # exact counterclockwise monotonicity around the center
                prev = emitted[-1]
                if _cross2(vsub(prev, center), vsub(v, center)) <= 0:
                    raise WalkError("walk angle failed to increase")
            if not is_extreme(v, shadow_hull):
                raise WalkError("walk emitted a non-extreme shadow point")
            emitted.append(v)
        state.current = outcome.next_point
        if emitted and state.current == emitted[0]:
            break
    else:
        raise WalkError("walk exceeded the vertex bound without closing")
    if not emitted:
        raise WalkError("walk closed without emitting any vertex")
    angles = tuple(
        math.atan2(float(v[1] - center[1]), float(v[0] - center[0]))
        for v in emitted
    )
    return WalkResult(xi, chart, tuple(emitted), angles, steps, start)
