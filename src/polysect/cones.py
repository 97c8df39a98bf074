"""Pointed polyhedral cones and the subspace polyhedrality scan.

A cone is stored as apex + primitive extreme-ray directions together with a
functional w that is strictly positive on every ray, and one exact hull: the
pyramid conv({0} u B), B the rays scaled onto {w . y = 1}.  Its vertices
other than 0 are B's, and its facets through 0 are the cone's halfspaces
(faces of a pyramid: Ziegler, Lectures on Polytopes, 1995); ray
membership and sections through the apex are polytope operations on it.

Cones that are only known through a directional membership oracle (round
visual cones and the like) are scanned: 2-dimensional cross-sections normal
to the oracle's interior axis hint, each in a random plane through the
hint's unit point, drawn the same way in every dimension, and a
polygonality verdict per section; an exact cone is reported without a
sample.  Each cross-section is read through the exit function of
`bodies`, with rays up to 2^30, and probed by the polygonality probe of
`criteria`.  The scan refutes polyhedrality or stays consistent; it never
proves it.  It reports as the testers of `criteria` do, in one
CriterionReport with a KleeWitness, and notes a run that sampled nothing
as "zero-budget".
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul, sub, truediv
from typing import Callable, Sequence

from .bodies import (
    UnboundedSection,
    _fdot,
    _fnorm,
    _funit,
    _nappe_interval,
    _orthonormal_frame,
    check_sampling,
    exit_function,
)
from .criteria import CriterionReport, _klee_witness, _report, _sample_loop, polygonality_detect
from .geometry import (
    AffineFlat,
    DimensionMismatch,
    GeometryError,
    Point,
    Vector,
    as_point,
    as_vector,
    int_scaled,
    is_zero_vector,
    vdot,
    vscale,
    vsub,
)
from .polytope import (
    Halfspace,
    Polytope,
    _hull_of_rows,
    _integer_halfspace,
    convex_hull,
    section as _polytope_section,
)


class ConeError(GeometryError):
    pass


@dataclass(frozen=True)
class PolyCone:
    """Pointed polyhedral cone: apex plus primitive extreme-ray directions.

    halfspaces (when full-dimensional) are apex-relative:
    cone = {apex + y : normal . y <= 0 for every halfspace}.
    positive_normal is strictly positive on every generator; pyramid is
    conv({0} u generators scaled onto {positive_normal . y = 1}).
    """

    apex: Point
    generators: tuple[Vector, ...]
    halfspaces: tuple[Halfspace, ...] | None
    positive_normal: Vector
    pyramid: Polytope

    @property
    def ambient_dim(self) -> int:
        return len(self.apex)

    @property
    def span_dim(self) -> int:
        return self.pyramid.dim

    @property
    def extreme_ray_count(self) -> int:
        return len(self.generators)

    def contains_direction(self, direction) -> bool:
        """Exact: does the ray apex + t*direction (t >= 0) stay in the cone?"""
        u = as_vector(direction)
        if len(u) != self.ambient_dim:
            raise DimensionMismatch("direction dimension differs from the cone")
        if is_zero_vector(u):
            return True
        t = vdot(self.positive_normal, u)
        if t <= 0:
            return False
        return self.pyramid.contains(vscale(u, 1 / t)) != "outside"


@dataclass(frozen=True)
class ConeSection:
    """Intersection of a cone with a flat through its apex, in chart form.

    `cone` lives in the flat's chart with its apex at the chart origin.
    """

    apex: Point
    flat: AffineFlat
    cone: PolyCone


def _cone_from_rays(apex: Point, directions, w: Vector) -> PolyCone:
    """The cone at `apex` over rational or int `directions`, with w.g > 0
    on every nonzero direction g.

    Each ray is reduced once to coprime ints G (a repeated ray keeps its
    first occurrence), and its point on {w.y = 1} is G D / t for the ints
    W = D w and t = W.G > 0.  Over L, the lcm of the t, those points are
    the int rows G (L / t) times the factor D / L on every axis, so one
    hull of the 0 row and those rows (`_hull_of_rows`) is the pyramid, the
    point 0 when there is no ray.
    The points share a hyperplane that misses 0, so the pyramid's nonzero
    vertices are the extreme rays' points, and each generator is the G of
    its vertex's row.  A full-dimensional pyramid is the cone near its
    vertex 0: its facets through 0 are the halfspaces, and its one other
    facet lies in {w.y = 1}.
    """
    (wi, *dirs), den = int_scaled((w, *directions))
    rays = {}  # coprime ints -> t
    for g in filter(any, dirs):
        k = gcd(*g)
        g = tuple(x // k for x in g)
        if g not in rays:
            t = sum(map(mul, wi, g))
            if t <= 0:
                raise ConeError("functional is not strictly positive on a generator")
            rays[g] = t
    L = lcm(*rays.values())
    ray_of = {tuple(x * (L // t) for x in g): g for g, t in rays.items()}
    factor = Fraction(den, L)
    pyramid = _hull_of_rows([(0,) * len(w), *ray_of], (factor,) * len(w))
    # a vertex's row: each coordinate is row_j D / L in lowest terms, and
    # its denominator divides L
    rows = (
        tuple(x.numerator * (L // x.denominator) // den for x in v)
        for v in pyramid.vertices if any(v)
    )
    gens = tuple(tuple(map(Fraction, g)) for g in sorted(map(ray_of.__getitem__, rows)))
    halfspaces = None
    if pyramid.dim == len(w):
        halfspaces = tuple(_integer_halfspace(n, 0) for n, c in pyramid._int_facets if c == 0)
    return PolyCone(tuple(apex), gens, halfspaces, tuple(w), pyramid)


def _separating_functional(z: Point, poly: Polytope) -> Vector:
    """A w with w.(v - z) > 0 for every vertex v of a lower-dimensional
    body (z outside)."""
    zp = poly.span.project_point(z) if poly.span is not None else poly.vertices[0]
    if zp != z:
        return vsub(zp, z)
    cz = poly.to_chart(z)
    for slack, (normal, _) in zip(poly._int_slacks(cz), poly._int_facets):
        if slack > 0:
            # minus the chart normal n lifted: sum_j (n_j / |b_j|^2) b_j
            span = poly.span
            lifted = span.point_at(tuple(map(truediv, normal, span.basis_norm2s)))
            return vsub(span.base, lifted)
    raise ConeError("no separating halfspace found for an outside point")


def visual_cone(apex, body) -> PolyCone:
    """Cone of rays from an exterior apex through the body, reduced.

    The apex must be strictly outside (inside or boundary is rejected).
    On a full-dimensional body only the rays that can be extreme are
    hulled, by the horizon rule of Quickhull (Barber, Dobkin & Huhdanpaa
    1996): when every facet through a vertex strictly sees the apex, or
    every one strictly hides it, the vertex's ray passes through the
    body's interior, so its base point is interior to the cone's base and
    the vertex is dropped.  A facet with the apex on its plane keeps the
    vertex.  In R^1 every ray is kept: each vertex lies on one facet there,
    yet both rays are extreme.  The facet slacks at the apex are integers
    (`Polytope._int_slacks`), and the vertex rays are ints over one
    denominator, made from the body's int vertex form.
    """
    if isinstance(body, Polytope):
        poly = body
    else:
        poly = convex_hull(list(getattr(body, "vertices", body)))
    z = as_point(apex)
    if len(z) != poly.ambient_dim:
        raise DimensionMismatch("apex dimension differs from the body")
    (zi, *vi), _ = poly._scaled_with((z,))
    rays = [list(map(sub, v, zi)) for v in vi]
    if poly.dim < poly.ambient_dim:
        if poly.contains(z) != "outside":
            raise ConeError("apex must lie strictly outside the body")
        return _cone_from_rays(z, rays, _separating_functional(z, poly))
    slacks = list(poly._int_slacks(z))
    seen = next((f for f, s in enumerate(slacks) if s > 0), None)
    if seen is None:
        raise ConeError("apex must lie strictly outside the body")
    # per vertex, the union over its facets of 1 (sees the apex), 2 (hides
    # it) and 4 (apex on the facet's plane)
    sides = [0] * len(poly.vertices)
    for s, verts in zip(slacks, poly.facet_vertices):
        bit = 1 if s > 0 else 2 if s < 0 else 4
        for v in verts:
            sides[v] |= bit
    if len(z) > 1:
        rays = [r for r, side in zip(rays, sides) if side not in (1, 2)]
    return _cone_from_rays(z, rays, tuple(Fraction(-x) for x in poly._int_facets[seen][0]))


def cone_section(cone: PolyCone, flat: AffineFlat) -> ConeSection | None:
    """Intersect a cone with a flat through its apex (None = only the apex).

    The result cone lives in the flat's chart, re-anchored so the apex is
    the chart origin.  The section of the cone's pyramid by the flat's
    linear span is the pyramid over the span's slice of the base, so its
    nonzero chart vertices are the rays of the result, and everything is
    exact.
    """
    if flat.ambient_dim != cone.ambient_dim:
        raise DimensionMismatch("flat and cone dimensions disagree")
    if not flat.contains(cone.apex):
        raise ConeError("flat must pass through the apex")
    anchored = AffineFlat(cone.apex, flat.basis)
    origin = tuple(Fraction(0) for _ in range(cone.ambient_dim))
    sec = _polytope_section(cone.pyramid, AffineFlat(origin, flat.basis)).polytope
    if sec.dim == 0:
        return None
    w_chart = tuple(vdot(cone.positive_normal, b) for b in flat.basis)
    chart_cone = _cone_from_rays(origin[: anchored.dim], sec.vertices, w_chart)
    return ConeSection(cone.apex, anchored, chart_cone)


# ---------------------------------------------------------------------------
# oracle cones and the subspace scan


@dataclass(frozen=True)
class ConeOracle:
    """Directional membership oracle for a cone.

    member(u) answers whether the ray apex + t*u (t >= 0) stays in the cone;
    axis_hint must be an interior direction: the scan cuts every
    cross-section normal to it, and a hint that member rejects (or whose
    opposite member accepts) makes every sample a coverage miss.
    ray_interval(w, d), when set, is the closed-form counterpart of
    BodyOracle.ray_interval: the interval (r0, r1) of {r : member(w + r*d)}
    under member's tolerance, with infinite ends for unbounded rays, or
    None when the line misses the cone.  The scan's sweep reads exits off
    it, and bisects member without it.
    """

    dim: int
    member: Callable[[Sequence[float]], bool]
    axis_hint: tuple[float, ...]
    ray_interval: (
        Callable[[Sequence[float], Sequence[float]], tuple[float, float] | None]
        | None
    ) = None


def ball_visual_cone_oracle(apex, center, radius: float) -> ConeOracle:
    """The round cone of directions from `apex` that hit the ball (closed).

    Inputs are checked as `make_ball` checks a ball.  An apex outside then
    has cos_half > 1e-8, so k > 0 and ray_interval may square u.a >= k|u|.
    """
    z = tuple(float(x) for x in apex)
    c = tuple(float(x) for x in center)
    if len(z) != len(c):
        raise DimensionMismatch("apex and center dimensions disagree")
    if not all(map(math.isfinite, (*z, *c, radius))):
        raise ConeError("ball apex, center and radius must be finite")
    if radius <= 0:
        raise ConeError("ball radius must be positive")
    axis = tuple(b - a for a, b in zip(z, c))
    dist = _fnorm(axis)
    if not math.isfinite(dist):
        # squaring overflowed: the axis would read as the zero vector
        raise ConeError("apex is too far from the ball for float arithmetic")
    if dist <= radius:
        raise ConeError("apex must lie strictly outside the ball")
    cos_half = math.sqrt(1.0 - (radius / dist) ** 2)
    unit_axis = tuple(a / dist for a in axis)
    k = cos_half - 1e-12

    def member(u):
        nu = _fnorm(u)
        if nu == 0:
            return True
        return _fdot(u, axis) / (nu * dist) >= k

    def ray_interval(w, d):
        # u = w + r*d is in the cone iff u.a >= 0 and (u.a)^2 >= k^2 |u|^2
        p, q = _fdot(w, unit_axis), _fdot(d, unit_axis)
        kk = k * k
        a = q * q - kk * _fdot(d, d)
        b = p * q - kk * _fdot(w, d)
        c = p * p - kk * _fdot(w, w)
        span = _nappe_interval(a, b, c, q)
        if span is None:
            return None
        # the forward nappe is the half-line p + q*r >= 0
        r0, r1 = span
        if q > 0:
            r0 = max(r0, -p / q)
        elif q < 0:
            r1 = min(r1, -p / q)
        elif p < 0:
            return None
        return (r0, r1) if r0 <= r1 else None

    return ConeOracle(len(z), member, unit_axis, ray_interval)


def mirkil_scan(
    cone: ConeOracle | PolyCone,
    samples: int,
    seed: int = 0,
    *,
    boundary_points: int = 64,
    tau: float = 1e-9,
) -> CriterionReport:
    """Scan a cone for polyhedrality via 3-dimensional sections.

    Every sample draws a random orthonormal pair (e1, e2) normal to the
    unit axis hint w and cuts the cone by the plane through w spanned by
    the pair, so the section lies in the 3-subspace spanned by w, e1 and
    e2 (in dimension 3, the whole space), and a witness keeps that 3-frame
    (w, e1, e2) in `normals`.  Exits are read off the oracle's
    ray_interval, or bisected from member without one, up to 2^30.  An
    exact PolyCone is answered at once: its sections are polyhedral by
    construction, so no draw or frame is made.
    The result is the testers' CriterionReport, criterion "Mirkil" on body
    "cone".  The verdict is one-sided: a witness, a cross-section that the
    probe proves to have more than boundary_points vertices, refutes
    ("non-polyhedral"); "polyhedral-consistent" only reports the surviving
    budget.  A zero budget is noted "zero-budget".  A sample with no
    bounded cross-section is noted as a coverage violation, and every
    sample is one when w is zero, outside the cone, or has -w in the cone.
    """
    if samples < 0:
        raise ConeError("sample budget must be nonnegative")
    check_sampling(boundary_points, tau)
    exact = isinstance(cone, PolyCone)
    if (cone.ambient_dim if exact else cone.dim) < 3:
        raise ConeError("scan needs ambient dimension 3 or higher")
    if exact:
        note = "exact cone: every section is polyhedral by construction" if samples else "zero-budget"
        outcome = (None, samples, [note])
        return _report("Mirkil", "cone", True, samples, outcome, boundary_points, tau, seed)
    rng = random.Random(seed)
    w = _funit(cone.axis_hint)
    if w is not None and (not cone.member(w) or cone.member(tuple(-x for x in w))):
        w = None

    def trial(i, notes):
        verdict = None
        if w is not None:
            frame = _orthonormal_frame(rng, cone.dim, 2, (w,))
            point_at = exit_function(cone.member, cone.ray_interval, w, frame, 2.0**30)
            try:
                verdict = polygonality_detect(point_at, boundary_points, tau)
            except UnboundedSection:
                pass
        if verdict is None:
            notes.append(f"sample {i}: coverage violation (no bounded cross-section)")
            return None
        return _klee_witness(verdict, i, notes, "cone-section", (w, *frame), ())

    outcome = _sample_loop(samples, trial)
    return _report("Mirkil", "cone", False, samples, outcome, boundary_points, tau, seed)
