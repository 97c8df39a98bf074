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
1973; Chand & Kapur 1970).  The scan runs on the images' integer
`chart_grid` rows, made from the body's int vertex form, and
`shadow_walk` takes only the kind and the next point from each step: it
checks, orders and measures the emitted points on their rows and makes
chart points for the points it reports only.  The apex and the facet
normals are what `step_g` adds for callers that read them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .geometry import (
    AffineFlat,
    DimensionMismatch,
    GeometryError,
    Point,
    Vector,
    as_vector,
    cross3,
    int_scaled,
    is_zero_vector,
    norm2,
    vadd,
    vdot,
    vscale,
    vsub,
)
from . import hull as _hull
from .polytope import Polytope, _canonical_halfspace


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
    chart as `chart_grid` rows (image i is grid[i] times `factors`, axis by
    axis, built by `image` where a point is reported), the sum of the rows
    and the ξ-height of the apexes.  A chart point on the grid is a triple
    (a, b, q) for the grid point (a/q, b/q)."""

    body: Polytope
    grid: tuple[tuple[int, int], ...]
    factors: tuple[Fraction, Fraction]
    total: tuple[int, int]
    apex_level: Fraction

    def image(self, i: int) -> ChartPoint:
        (a, b), (f1, f2) = self.grid[i], self.factors
        return a * f1, b * f2


def _frame(body: Polytope, chart: AffineFlat, xi: Vector) -> _Frame:
    # the chart base's ints, then the vertices' from the body's int form
    ints, den = body._scaled_with((chart.base,))
    (xs,), xden = int_scaled((xi,))
    heights = [sum(map(mul, v, xs)) for v in ints[1:]]
    top, bottom = max(heights), min(heights)
    if top == bottom:
        raise WalkError("body is flat along the walk direction")
    grid, factors = chart._int_chart_grid(ints, den)
    # the scan below needs the images to span the chart
    g0 = grid[0]
    rays = [(g[0] - g0[0], g[1] - g0[1]) for g in grid]
    far = max(rays, key=lambda d: abs(d[0]) + abs(d[1]))
    if all(_cross2(far, d) == 0 for d in rays):
        raise WalkError("the shadow along the walk direction is not 2-dimensional")
    total = (sum(g[0] for g in grid), sum(g[1] for g in grid))
    apex_level = Fraction(top + 3 * (top - bottom), den * xden)
    return _Frame(body, tuple(grid), factors, total, apex_level)


def _on_grid(frame: _Frame, p: ChartPoint) -> tuple[int, int, int]:
    """The chart point p on the frame's grid, as (a, b, q)."""
    a, b = p[0] / frame.factors[0], p[1] / frame.factors[1]
    q = math.lcm(a.denominator, b.denominator)
    return int(a * q), int(b * q), q


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


def _cross2(a, b) -> Fraction:
    return a[0] * b[1] - a[1] * b[0]


_INTERIOR = "point lies in the shadow's interior, not its boundary"


def _wrap(frame: _Frame, x: tuple[int, int, int]):
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
    Everything runs on the integer grid, scaled by q so that x = (ox, oy, q)
    is a grid point, and the rays are in those units.  The grid's axes are
    scaled apart, which keeps every side, turn and order of rays along one
    direction that the scan reads.
    """
    ox, oy, q = x
    grid = frame.grid if q == 1 else [(a * q, b * q) for a, b in frame.grid]
    rx = frame.total[0] * q - len(grid) * ox
    ry = frame.total[1] * q - len(grid) * oy
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
    multiple of ξ, so n = ξ × lift(u) (`point_at` of the chart, which
    passes through the origin) gives n.(v - apex) =
    det[e1, e2, ξ] * cross(u, p - x).  The shadow chart is right-handed,
    so the body lies on the non-positive side, as on the cone's facets.
    """
    n = cross3(state.xi, state.chart.point_at(u))
    return _canonical_halfspace(n, Fraction(0)).normal


def _step(frame: _Frame, x: tuple[int, int, int], center: tuple[int, int, int]):
    """The walk's move from the shadow-boundary point x: its kind ("edge" or
    "isolated-extreme"), the image index of the next point, the index of
    the other end of the edge x lies inside (None at a vertex: the other
    end is x), and `_wrap`'s rays hi and lo.  x and the center are grid
    points (a, b, q).

    The face of each active cone facet runs from x out to the farthest
    image on its chart line (see `step_g`).  The rays are measured from the
    inward reference r and the boundary runs counterclockwise, so the
    forward one is always lo, the clockwise-most: next is lo's far end,
    which must lie counterclockwise of x around the center.
    """
    hi, lo, inside_edge = _wrap(frame, x)
    (ox, oy, q), (cx, cy, n) = x, center
    # x - center, in units of 1 / (q n); the rays are in units of 1 / q
    ux, uy = n * ox - q * cx, n * oy - q * cy
    if ux * lo[1][1] - uy * lo[1][0] <= 0:
        raise WalkError("no forward endpoint found on the active facets")
    if not inside_edge:
        return "isolated-extreme", lo[2], None, hi, lo
    return "edge", lo[2], hi[2], hi, lo


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
    the next point.  Two: the far end of the forward one, clockwise-most
    around x, continues the walk.  No face projects to a point: each
    active facet's chart line holds an image other than x.

    The move itself is `_step`, which `shadow_walk` runs alone; this adds
    the apex (kept in `state.apex`) and the canonical facet normals.  The
    grid rows and the apex height are computed once per walk and kept in
    `state.frame`; the chart points reported are built from their rows.
    """
    frame = state.frame
    if frame is None or frame.body is not body:
        frame = state.frame = _frame(body, state.chart, state.xi)
    xi = state.xi
    x = state.current
    p = state.chart.point_at(tuple(Fraction(c) for c in x))
    state.apex = vadd(p, vscale(xi, (frame.apex_level - vdot(p, xi)) / norm2(xi)))
    kind, g, f, hi, lo = _step(frame, _on_grid(frame, x), _on_grid(frame, state.center))
    best = frame.image(g)
    # the rays are on the grid: back to chart directions, axis by axis
    f1, f2 = frame.factors
    hi_normal = _facet_normal(state, (hi[1][0] * f1, hi[1][1] * f2))
    if kind == "edge":
        return StepOutcome(kind, best, (hi_normal,), (frame.image(f), best))
    lo_normal = _facet_normal(state, (-lo[1][0] * f1, -lo[1][1] * f2))
    return StepOutcome(kind, best, tuple(sorted((hi_normal, lo_normal))), None)


def shadow_walk(body: Polytope, xi) -> WalkResult:
    """Enumerate the shadow's extreme points counterclockwise by walking.

    Starts from the chart support point in direction (1, 0) (stepping off
    it first when it is edge-interior), emits every isolated extreme in
    strictly increasing polar angle, and stops on returning to the first
    one.  Termination within |vertices| + 2 steps is guaranteed for
    polytopes; exceeding the bound raises.  Each step is `_step` alone: the
    apex and the facet normals that `step_g` reports are never read here.
    The walk runs on the frame's grid rows: each emitted row is checked
    against the vertex rows of the shadow, hulled once by
    `hull.hull_full_dim` from the distinct rows, and chart points are made
    for the emitted vertices and the start only.  An angle is the atan2 of
    the floats of the exact offsets from the centroid, each an int over an
    int, which rounds as the Fraction does.
    """
    if body.ambient_dim != 3 or body.dim != 3:
        raise WalkError("shadow walks need a full-dimensional 3-polytope")
    xi = as_vector(xi)
    chart = shadow_chart(xi)
    frame = _frame(body, chart, xi)
    grid = frame.grid
    n = len(grid)
    sx, sy = frame.total
    best = max(g[0] for g in grid)
    start = next(i for i, g in enumerate(grid) if g[0] == best)

    rows = list(dict.fromkeys(grid))
    extreme = {rows[i] for i in _hull.hull_full_dim(rows).vertex_indices}
    # image indices; points are compared by their grid rows
    emitted: list[int] = []
    max_steps = len(body.vertices) + 2
    steps = 0
    current = start
    while steps < max_steps:
        g = grid[current]
        kind, following = _step(frame, (g[0], g[1], 1), (sx, sy, n))[:2]
        steps += 1
        if kind == "isolated-extreme":
            if emitted and g == grid[emitted[0]]:
                break
            if emitted:
                # exact counterclockwise monotonicity around the center
                prev = grid[emitted[-1]]
                turn = _cross2(
                    (n * prev[0] - sx, n * prev[1] - sy), (n * g[0] - sx, n * g[1] - sy)
                )
                if turn <= 0:
                    raise WalkError("walk angle failed to increase")
            if g not in extreme:
                raise WalkError("walk emitted a non-extreme shadow point")
            emitted.append(current)
        current = following
        if emitted and grid[current] == grid[emitted[0]]:
            break
    else:
        raise WalkError("walk exceeded the vertex bound without closing")
    if not emitted:
        raise WalkError("walk closed without emitting any vertex")
    # image - center on axis j is (n g_j - s_j) f_j / n
    (p1, q1), (p2, q2) = ((f.numerator, f.denominator) for f in frame.factors)
    angles = tuple(
        math.atan2(
            (n * grid[i][1] - sy) * p2 / (n * q2), (n * grid[i][0] - sx) * p1 / (n * q1)
        )
        for i in emitted
    )
    vertices = tuple(map(frame.image, emitted))
    return WalkResult(xi, chart, vertices, angles, steps, frame.image(start))
