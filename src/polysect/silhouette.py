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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    vneg,
    vscale,
    vsub,
)
from .polytope import Polytope, convex_hull, is_extreme


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


def lift_line(x: ChartPoint, xi) -> AffineFlat:
    """The ambient line over a chart point, directed along ξ."""
    chart = shadow_chart(xi)
    base = chart.point_at(tuple(Fraction(c) for c in x))
    return AffineFlat(base, (as_vector(xi),))


@dataclass
class WalkState:
    xi: Vector
    chart: AffineFlat
    center: ChartPoint
    current: ChartPoint
    apex: Point | None = None


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


def _make_apex(body: Polytope, chart: AffineFlat, x: ChartPoint, xi: Vector) -> Point:
    """A point of the lifted line far beyond the body's support along ξ."""
    vals = [vdot(xi, v) for v in body.vertices]
    top, bottom = max(vals), min(vals)
    spread = top - bottom
    if spread == 0:
        raise WalkError("body is flat along the walk direction")
    p = chart.point_at(tuple(Fraction(c) for c in x))
    t = (top + 3 * spread - vdot(p, xi)) / norm2(xi)
    return vadd(p, vscale(xi, t))


def step_g(body: Polytope, state: WalkState) -> StepOutcome:
    """One walk step from the current shadow-boundary point.

    Builds the visual cone from an apex on the lifted line; the facets
    whose normals annihilate ξ are the ones whose relative boundary holds
    the direction -ξ.  The plane of an active facet passes through the apex
    and supports the body, so it meets the body in the face spanned by the
    body vertices on it.  One active facet: that face shades a whole shadow
    edge, and the counterclockwise endpoint is the next point.  Two or
    more: the current point is an isolated extreme and the
    counterclockwise-most forward endpoint of the active facets continues
    the walk.
    """
    from .cones import visual_cone

    xi = state.xi
    chart = state.chart
    x = state.current
    apex = _make_apex(body, chart, x, xi)
    state.apex = apex
    cone = visual_cone(apex, body)
    if cone.halfspaces is None:
        raise WalkError("visual cone unexpectedly degenerate")
    down = vneg(xi)
    if not cone.contains_direction(down):
        raise WalkError("point lies outside the shadow")
    active = [hs.normal for hs in cone.halfspaces if vdot(hs.normal, xi) == 0]
    if not active:
        raise WalkError("point lies in the shadow's interior, not its boundary")

    candidates: list[tuple[ChartPoint, ChartPoint]] = []  # (g, f) per facet
    for n in active:
        level = vdot(n, apex)
        pts = [_chart_point(chart, v) for v in body.vertices if vdot(n, v) == level]
        # collinear points: the lexicographic extremes are the segment's ends
        a, b = min(pts), max(pts)
        if a == b:
            raise WalkError("facet section projects to a point")
        for g, f in ((a, b), (b, a)):
            if g == x:
                continue
            # forward = counterclockwise of x around the shadow's center
            if _cross2(vsub(x, state.center), vsub(g, x)) > 0:
                candidates.append((g, f))
    if not candidates:
        raise WalkError("no forward endpoint found on the active facets")

    best_g, best_f = candidates[0]
    for g, f in candidates[1:]:
        turn = _cross2(vsub(g, x), vsub(best_g, x))
        if turn > 0 or (turn == 0 and _d2(g, x) > _d2(best_g, x)):
            best_g, best_f = g, f
    if len(active) >= 2:
        return StepOutcome("isolated-extreme", best_g, tuple(active), None)
    return StepOutcome("edge", best_g, tuple(active), (best_f, best_g))


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
    projected = [_chart_point(chart, v) for v in body.vertices]
    center = (
        sum(p[0] for p in projected) / len(projected),
        sum(p[1] for p in projected) / len(projected),
    )
    best = max(p[0] for p in projected)
    start = next(p for p in projected if p[0] == best)
    state = WalkState(xi, chart, center, start)

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
