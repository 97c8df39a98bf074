"""Exact polytope representations and operations.

A `Polytope` stores its extreme vertices in ambient coordinates and its
irredundant facets once, as canonical integer (normal, offset) pairs in its
own affine span chart (the identity chart for a full-dimensional polytope);
the Fraction `halfspaces` are built from them when read.  Sections,
projections and boundary tests all stay in exact arithmetic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from operator import mul, truediv
from typing import Iterable, Sequence

from .geometry import (
    ZERO,
    AffineFlat,
    DimensionMismatch,
    GeometryError,
    Point,
    Vector,
    as_point,
    identity_flat,
    int_scaled,
    is_zero_vector,
    orthogonalize,
    solve_particular,
    vdot,
    vsub,
)
from . import hull as _hull


class PolytopeError(GeometryError):
    pass


class UnboundedPolyhedron(PolytopeError):
    """Halfspace data admits a recession direction; no vertex form exists."""


class DiamondConfigError(PolytopeError):
    """Segment/face configuration violates the crossing precondition."""


@dataclass(frozen=True)
class Halfspace:
    """Closed halfspace {x : normal . x <= offset} with rational data."""

    normal: Vector
    offset: Fraction

    def evaluate(self, point: Sequence[Fraction]) -> Fraction:
        """normal . point - offset; <= 0 inside, == 0 on the boundary."""
        return vdot(self.normal, tuple(point)) - self.offset

    def canonical(self) -> "Halfspace":
        return _canonical_halfspace(self.normal, self.offset)


def _canonical_halfspace(normal: Sequence[Fraction], offset: Fraction) -> Halfspace:
    if is_zero_vector(tuple(normal)):
        raise PolytopeError("halfspace needs a nonzero normal")
    scale = lcm(*[x.denominator for x in normal], offset.denominator)
    return _integer_halfspace([int(x * scale) for x in normal], int(offset * scale))


def _integer_halfspace(normal: Sequence[int], offset: int) -> Halfspace:
    """{normal . x <= offset} with the common gcd divided out."""
    g = gcd(*normal, offset)
    return Halfspace(tuple(Fraction(x // g) for x in normal), Fraction(offset // g))


class Polytope:
    """Immutable exact polytope with vertex form, facet form, incidence.

    `span` is the affine hull with an orthogonal chart basis; chart_vertices
    and facets live in that chart.  The facets are stored once, as canonical
    int (normal, offset) pairs in `_int_facets` (see `convex_hull`).  The
    edges and the vertices' integer form (`_scaled_with`) are computed
    lazily, once per polytope.
    """

    __slots__ = (
        "vertices",
        "chart_vertices",
        "span",
        "_int_facets",
        "facet_vertices",
        "_edges",
        "_int_vertices",
    )

    def __init__(self, vertices, chart_vertices, span, int_facets, facet_vertices):
        self.vertices: tuple[Point, ...] = vertices
        self.chart_vertices: tuple[Point, ...] = chart_vertices
        self.span: AffineFlat | None = span
        self._int_facets: tuple[tuple[tuple[int, ...], int], ...] = int_facets
        self.facet_vertices: tuple[frozenset[int], ...] = facet_vertices
        self._edges: tuple[tuple[int, int], ...] | None = None
        self._int_vertices: tuple[tuple[tuple[int, ...], ...], int] | None = None

    @property
    def halfspaces(self) -> tuple[Halfspace, ...]:
        """The facets as Fraction `Halfspace`s, built on each read."""
        ints = self._int_facets
        return tuple(Halfspace(tuple(map(Fraction, n)), Fraction(c)) for n, c in ints)

    def _scaled_with(self, points: Sequence[Sequence[Fraction]]):
        """`int_scaled((*points, *self.vertices))`, with every row a tuple.

        The vertices are scaled once per polytope, by the lcm D of their
        denominators, and kept; each call scales the extra points by their
        own lcm E and brings both to L = lcm(D, E), which is the lcm of all
        the denominators, so the ints and L are int_scaled's.
        """
        if self._int_vertices is None:
            rows, den = int_scaled(self.vertices)
            self._int_vertices = tuple(map(tuple, rows)), den
        verts, den = self._int_vertices
        if not points:
            return list(verts), den
        extra, e = int_scaled(points)
        common = lcm(den, e)
        a, b = common // e, common // den
        rows = [tuple(x * a for x in p) for p in extra]
        rows.extend(verts if b == 1 else (tuple(x * b for x in v) for v in verts))
        return rows, common

    # -- basic geometry -----------------------------------------------------

    @property
    def ambient_dim(self) -> int:
        return len(self.vertices[0])

    @property
    def dim(self) -> int:
        return len(self.chart_vertices[0])

    def __repr__(self):
        return f"Polytope(dim={self.dim}, ambient={self.ambient_dim}, vertices={len(self.vertices)})"

    def to_chart(self, point: Point) -> Point | None:
        if len(point) != self.ambient_dim:
            raise DimensionMismatch("point dimension differs from the polytope")
        if self.dim == 0:
            return () if tuple(point) == self.vertices[0] else None
        if self.span is None or self.dim == self.ambient_dim:
            return tuple(point)
        return self.span.coordinates(tuple(point))

    def chart_contains(self, chart_point: Sequence[Fraction]) -> str:
        """Relative classification in the span chart: interior/boundary/outside.

        Each integer facet is evaluated in ints (`_int_slacks`).
        """
        if self.dim == 0:
            return "interior"
        boundary = False
        for v in self._int_slacks(chart_point):
            if v > 0:
                return "outside"
            if v == 0:
                boundary = True
        return "boundary" if boundary else "interior"

    def _int_slacks(self, chart_point: Sequence[Fraction]):
        """normal·p - offset per facet, times the lcm of p's denominators.

        The scale is positive, so each value has the sign of the facet's
        exact slack.
        """
        if len(chart_point) != self.dim:
            raise DimensionMismatch("chart point dimension differs from the polytope")
        (p,), den = int_scaled((chart_point,))
        return (
            sum(map(mul, normal, p)) - offset * den
            for normal, offset in self._int_facets
        )

    def contains(self, point: Point) -> str:
        """Relative classification of an ambient point (interior = rel.
        interior); a point of the wrong dimension raises DimensionMismatch."""
        cv = self.to_chart(as_point(point))
        if cv is None:
            return "outside"
        return self.chart_contains(cv)

    def interior_point(self) -> Point:
        """A relative-interior point (vertex centroid)."""
        return tuple(sum(c) / len(self.vertices) for c in zip(*self.vertices))

    # -- faces ---------------------------------------------------------------

    def active_facets(self, chart_point: Sequence[Fraction]) -> tuple[int, ...]:
        """Indices of the facets tight at a chart point (evaluated in ints)."""
        return tuple(i for i, v in enumerate(self._int_slacks(chart_point)) if v == 0)

    def facet(self, index: int) -> "FaceRef":
        return FaceRef(self, frozenset((index,)))

    def face_of(self, point: Point) -> "FaceRef":
        """Smallest face containing an ambient point of the polytope."""
        cv = self.to_chart(as_point(point))
        if cv is None or self.chart_contains(cv) == "outside":
            raise PolytopeError("point lies outside the polytope")
        return FaceRef(self, frozenset(self.active_facets(cv)))

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Vertex pairs forming 1-faces, tried on a common facet only (computed once)."""
        if self._edges is None:
            self._edges = self._compute_edges()
        return self._edges

    def _compute_edges(self):
        k = self.dim
        if k <= 0:
            return ()
        if k == 1:
            return ((0, 1),) if len(self.vertices) == 2 else ()
        # a pair spans an edge iff it shares k - 1 facets (k <= 4): a polygon's
        # facet is an edge, two facets of a 3-polytope meet in an edge or less,
        # and so do three of a 4-polytope, whose 2-faces lie in just two facets
        incident = [[] for _ in self.vertices]
        for f, verts in enumerate(self.facet_vertices):
            for v in verts:
                incident[v].append(f)
        out = []
        for i, facets in enumerate(incident):
            shared = Counter(
                j for f in facets for j in self.facet_vertices[f] if j > i
            )
            out.extend((i, j) for j in sorted(shared) if shared[j] >= k - 1)
        return tuple(out)

    def boundary_cycle(self) -> tuple[int, ...]:
        """Counterclockwise vertex order for a 2-dimensional chart polytope."""
        if self.dim != 2:
            raise PolytopeError("boundary cycle needs a 2-dimensional polytope")
        n = Fraction(len(self.chart_vertices))
        ox = sum((v[0] for v in self.chart_vertices), ZERO) / n
        oy = sum((v[1] for v in self.chart_vertices), ZERO) / n

        def half(i):
            dx, dy = self.chart_vertices[i][0] - ox, self.chart_vertices[i][1] - oy
            return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

        import functools

        def cmp(a, b):
            ha, hb = half(a), half(b)
            if ha != hb:
                return -1 if ha < hb else 1
            ax, ay = self.chart_vertices[a][0] - ox, self.chart_vertices[a][1] - oy
            bx, by = self.chart_vertices[b][0] - ox, self.chart_vertices[b][1] - oy
            cr = ax * by - ay * bx
            if cr == 0:
                raise PolytopeError("distinct extreme points collinear with centroid")
            return -1 if cr > 0 else 1

        return tuple(sorted(range(len(self.chart_vertices)), key=functools.cmp_to_key(cmp)))


@dataclass(frozen=True)
class FaceRef:
    """A face named by its active halfspace set (empty set = whole polytope)."""

    polytope: Polytope
    active: frozenset[int]

    @property
    def vertex_indices(self) -> tuple[int, ...]:
        verts = set(range(len(self.polytope.vertices)))
        for f in self.active:
            verts &= self.polytope.facet_vertices[f]
        return tuple(sorted(verts))

    @property
    def vertices(self) -> tuple[Point, ...]:
        return tuple(self.polytope.vertices[i] for i in self.vertex_indices)

    def to_polytope(self) -> Polytope:
        return convex_hull(self.vertices)


# ---------------------------------------------------------------------------
# construction


def _dim0_polytope(point: Point) -> Polytope:
    return Polytope((point,), ((),), None, (), ())


def convex_hull(points: Iterable[Sequence]) -> Polytope:
    """Exact convex hull of rational points (ambient dimension 1 to 4).

    Lower-dimensional input is handled inside its affine span: the span is
    reported on the result and the facet form lives in the span chart.
    The work is done on an integer grid: each axis is scaled by the lcm of
    its denominators, repeated points are dropped by their grid rows, and
    the points whose differences from the first raise the integer rank are
    the pivots; Gram-Schmidt runs on the pivot differences alone.
    Full-dimensional input is hulled on the grid rows, keeps its points as
    chart vertices and lists them in grid-row order, which is their
    lexicographic order since every scale is positive; lower-dimensional
    input is hulled on its `chart_grid` rows, and chart coordinates are
    made for the returned vertices only.  Every facet is canonical: an
    integer normal and offset with no common factor, sorted as ints.
    """
    pts = [as_point(p) for p in points]
    if not pts:
        raise PolytopeError("convex hull of no points")
    d = len(pts[0])
    for p in pts:
        if len(p) != d:
            raise DimensionMismatch("points live in different dimensions")
    if d not in (1, 2, 3, 4):
        raise PolytopeError(f"ambient dimension {d} unsupported (need 1..4)")

    scales = [lcm(*[p[j].denominator for p in pts]) for j in range(d)]
    rows = {}  # grid row -> its first point; the scaling is injective
    for p in pts:
        rows.setdefault(
            tuple(x.numerator * (s // x.denominator) for x, s in zip(p, scales)), p
        )
    grid, pts = list(rows), list(rows.values())
    pivots = _hull.affine_pivots(grid, d)
    if not pivots:
        return _dim0_polytope(pts[0])
    if len(pivots) == d:
        span = identity_flat(d)
        factors = tuple(Fraction(1, s) for s in scales)
    else:
        base = pts[0]
        span = AffineFlat(base, orthogonalize(vsub(pts[i], base) for i in pivots))
        grid, factors = span.chart_grid(pts)
    return _hull_of_grid(grid, factors, span, pts)


def _hull_of_grid(grid, factors, span: AffineFlat, points=None) -> Polytope:
    """The hull of chart points given as the rows of an integer grid.

    Chart coordinate j of point i is grid[i][j] * factors[j], every factor
    is positive, the rows are distinct and they span the chart.  `points`
    are the same points in the coordinates the result reports; without
    them the chart points are reported, as for a shadow.  A grid facet
    n.g <= c is sum_j (n_j / f_j) s_j <= c in chart coordinates s, an
    integer halfspace once multiplied by the lcm of the factors'
    numerators.  Chart coordinates are made for the hull's vertices only.
    Facets are canonicalised and sorted as ints.
    """

    def chart(i):
        return tuple(map(mul, grid[i], factors))

    if len(factors) == 1:
        lo = min(range(len(grid)), key=grid.__getitem__)
        hi = max(range(len(grid)), key=grid.__getitem__)
        vert_idx = [lo, hi]
        a, b = chart(lo)[0], chart(hi)[0]
        facets = [
            ((-a.denominator,), -a.numerator, (lo,)),
            ((b.denominator,), b.numerator, (hi,)),
        ]
    else:
        data = _hull.hull_full_dim(grid)
        vert_idx = data.vertex_indices
        scale = lcm(*[f.numerator for f in factors])
        axis = [f.denominator * (scale // f.numerator) for f in factors]
        facets = []
        for n, c, fverts in data.facets:
            n = tuple(map(mul, n, axis))
            g = gcd(*n, c * scale)
            facets.append((tuple(x // g for x in n), c * scale // g, fverts))

    # a grid row is its chart point under positive per-axis scales, so for a
    # chart spanning the whole space the rows sort as the reported points do
    full = span.dim == span.ambient_dim
    if points is None:
        points = charts = {i: chart(i) for i in vert_idx}
    elif not full:
        charts = {i: chart(i) for i in vert_idx}
    else:
        charts = points
    order = sorted(vert_idx, key=(grid if full else points).__getitem__)
    position = {i: pos for pos, i in enumerate(order)}
    vertices = tuple(points[i] for i in order)
    chart_vertices = tuple(charts[i] for i in order)
    facets.sort()  # on (normal, offset): no two facets share both
    ints = tuple((n, c) for n, c, _ in facets)
    facet_vertices = tuple(frozenset(position[i] for i in f[2]) for f in facets)
    return Polytope(vertices, chart_vertices, span, ints, facet_vertices)


def _hull_of_rows(rows, factors) -> Polytope:
    """The hull of chart points given as `chart_grid` rows (coordinate j of
    row i is rows[i][j] * factors[j]), repeated rows dropped.  Rows spanning
    the chart are hulled by `_hull_of_grid`; a lower-dimensional set by
    `convex_hull` of its chart points, in a span charted from the first row.
    """
    grid = list(dict.fromkeys(rows))
    k = len(factors)
    if len(_hull.affine_pivots(grid, k)) == k:
        return _hull_of_grid(grid, factors, identity_flat(k))
    return convex_hull([tuple(map(mul, g, factors)) for g in grid])


def _certify_hull(poly: Polytope, rows, factors) -> None:
    """Raise PolytopeError unless `poly` is the hull H of the chart points
    given as integer rows, with H's vertices, facets and span.

    Chart coordinate j of row i is rows[i][j] * factors[j], every factor
    positive.  A poly spanning the chart has the identity span, with its
    vertices as chart vertices.  Otherwise every point lies on `poly.span`
    (or is poly's one vertex, which has no facets), and the check goes on
    in the span's chart, each chart vertex lifting to its listed vertex.
    In a chart of dimension k = 1, 2 or 3, a facet n.s <= c reads
    (n_j f_j L)_j . r <= c L on the rows, L the lcm of the denominators:
    (1) every facet normal is nonzero and every row satisfies every facet,
        so H lies in the facets' polyhedron Q;
    (2) every vertex is a row, and no vertex or facet is listed twice;
    (3) the vertices tight on a facet have affine rank k - 1, so each facet
        is a facet of H and its listed vertices span it;
    (4) the facets tight at a vertex have rank k: it is a vertex of Q in H,
        hence of H;
    (5) every ridge of a listed facet lies in a second listed facet.
    The facet-ridge graph of a polytope is connected, so by (5) the facets
    are all of H's and Q = H, and by (3) every vertex of H is listed.  (5)
    reads "two facets" for k = 1 and follows from (4) for k = 2, a polygon
    vertex lying on two edges only.  For k = 3 the vertices of each facet
    must form as many edges of H (pairs tight on facets of rank 2) as there
    are vertices, which a polygon reaches only with all its vertices and
    edges; without it, an octahedron missing one facet passes.  Last, each
    facet's vertex set must be its tight vertices.
    """
    k = len(factors)
    span, vertices, charts = poly.span, poly.vertices, poly.chart_vertices
    pts = None
    if poly.dim != k:
        pts = [tuple(map(mul, r, factors)) for r in rows]
        if span is None:
            if {*pts} != {*vertices} or len(vertices) > 1 or poly._int_facets:
                raise PolytopeError("hull points leave the hull's span")
            return
        if span.ambient_dim != k or span.dim != poly.dim or not all(map(span.contains, pts)):
            raise PolytopeError("hull points leave the hull's span")
        rows, factors = span.chart_grid(pts)
        k = poly.dim
    elif span != identity_flat(k) or charts != vertices:
        raise PolytopeError("a full-dimensional hull must keep the identity chart")
    if k > 3:
        raise PolytopeError("the hull certificate covers charts of dimension 0-3")
    scale = lcm(*[f.denominator for f in factors])
    axis = [f.numerator * (scale // f.denominator) for f in factors]
    planes = [(tuple(map(mul, n, axis)), c * scale) for n, c in poly._int_facets]
    for normal, c in planes:
        if not any(normal) or any(sum(map(mul, normal, r)) > c for r in rows):
            raise PolytopeError("a hull point violates a hull facet")
    # a chart vertex over the factors is a row when it equals one (ints and
    # Fractions of equal value hash alike)
    index = {r: i for i, r in enumerate(rows)}
    ids = [index.get(tuple(map(truediv, v, factors))) for v in charts]
    if None in ids or pts is not None and tuple(pts[i] for i in ids) != vertices:
        raise PolytopeError("a hull vertex is not a hull point")
    verts = [rows[i] for i in ids]
    if len(set(verts)) != len(verts) or len(set(planes)) != len(planes):
        raise PolytopeError("the hull lists a vertex or a facet twice")
    on = [
        [i for i, v in enumerate(verts) if sum(map(mul, normal, v)) == c]
        for normal, c in planes
    ]
    at = [set() for _ in verts]
    for f, tight in enumerate(on):
        if not tight or len(_hull.affine_pivots([verts[i] for i in tight], k - 1)) < k - 1:
            raise PolytopeError("a hull facet is not a facet of the hull")
        for i in tight:
            at[i].add(f)
    if any(len(_hull.int_pivots([planes[f][0] for f in fs], k)) < k for fs in at):
        raise PolytopeError("a hull vertex is not a vertex of the hull")
    if k == 1 and len(planes) != 2:
        raise PolytopeError("the hull's facets do not close up")
    for tight in on if k == 3 else ():
        edges = sum(
            len(_hull.int_pivots([planes[f][0] for f in at[a] & at[b]], 2)) == 2
            for a, b in combinations(tight, 2)
        )
        if edges != len(tight):
            raise PolytopeError("the hull's facets do not close up")
    if poly.facet_vertices != tuple(map(frozenset, on)):
        raise PolytopeError("a facet's vertex set is not its tight vertices")


# ---------------------------------------------------------------------------
# vertex enumeration from halfspace data


def vertices_of(halfspaces: Iterable[Halfspace]) -> Polytope | None:
    """Enumerate the vertex form of a bounded halfspace intersection.

    Returns None for an empty intersection and raises UnboundedPolyhedron
    when a recession direction exists (ambient dimension 1 to 4, as for
    `convex_hull`).  When the integer normals have rank d, the set is
    bounded iff {u : n.u <= 0 for every normal n} = {0}, which by Farkas'
    lemma holds iff the origin is interior to the hull of the normals.  The
    basic points are then the solutions of the d-subsets of boundaries whose
    normals reach rank d under `int_pivots` that satisfy every halfspace.
    """
    hss = [hs.canonical() for hs in halfspaces]
    if not hss:
        raise PolytopeError("no halfspaces")
    d = len(hss[0].normal)
    for hs in hss:
        if len(hs.normal) != d:
            raise DimensionMismatch("halfspace dimensions disagree")
    if d not in (1, 2, 3, 4):
        raise PolytopeError(f"ambient dimension {d} unsupported (need 1..4)")

    normals = [hs.normal for hs in hss]
    int_normals = [tuple(int(x) for x in n) for n in normals]
    if len(_hull.int_pivots(int_normals, d)) < d:
        # Directions orthogonal to every normal are free lines of the set,
        # so a nonempty intersection is unbounded.  Substituting
        # x = sum_i s_i b_i over a basis of the normal span keeps emptiness.
        ortho = orthogonalize(normals)
        chart = [
            Halfspace(tuple(vdot(hs.normal, b) for b in ortho), hs.offset).canonical()
            for hs in hss
        ]
        if vertices_of(chart) is None:
            return None
        raise UnboundedPolyhedron("halfspace normals do not span the space")
    if convex_hull(normals).contains((ZERO,) * d) != "interior":
        raise UnboundedPolyhedron("recession direction found")

    found: dict[Point, None] = {}
    for combo in combinations(range(len(hss)), d):
        if len(_hull.int_pivots([int_normals[i] for i in combo], d)) < d:
            continue
        x = solve_particular(
            [hss[i].normal for i in combo], [hss[i].offset for i in combo]
        )
        if all(hs.evaluate(x) <= 0 for hs in hss):
            found.setdefault(x)
    if not found:
        return None
    return convex_hull(list(found))


# ---------------------------------------------------------------------------
# sections and projections


@dataclass(frozen=True)
class Section:
    """Exact intersection body ∩ flat, presented in the flat's chart.

    polytope lives in chart coordinates; ambient_vertices are the same
    vertices embedded back in the ambient space (index-aligned).
    """

    polytope: Polytope
    flat: AffineFlat
    ambient_vertices: tuple[Point, ...]
    meets_interior: bool


def _slice(
    body: Polytope, normal: Vector, point: Point
) -> list[tuple[tuple[int, ...], int, tuple[int, ...]]]:
    """The cut of the body by the hyperplane {x : normal.x = normal.point}.

    Lists (X, den, indices) for the cut point X / den: each vertex on the
    plane with (i,), then each edge (i, j) whose ends lie strictly on
    opposite sides, in `edges()` order, with its crossing.  The normal, the
    point and the vertices are scaled to ints (the vertices' int form is
    the body's own, `Polytope._scaled_with`), so each side is an int a_i,
    a vertex on the plane is V_i / D for the int vertices V over their
    common denominator D, and the crossing of (i, j) with a_i > 0 > a_j is
    (a_i V_j - a_j V_i) / ((a_i - a_j) D).  Nothing is reduced.
    """
    (N,), _ = int_scaled((normal,))
    (M, *V), scale = body._scaled_with((point,))
    level = sum(map(mul, N, M))
    sides = [sum(map(mul, N, v)) - level for v in V]
    cut = [(V[i], scale, (i,)) for i, a in enumerate(sides) if a == 0]
    for i, j in body.edges():
        a, b = sides[i], sides[j]
        if a * b < 0:
            w, y = V[i], V[j]
            if a < 0:
                a, b, w, y = b, a, y, w
            x = tuple(a * yk - b * wk for wk, yk in zip(w, y))
            cut.append((x, (a - b) * scale, (i, j)))
    return cut


def section(body: Polytope, flat: AffineFlat) -> Section | None:
    """Exact section of a polytope by an affine flat (None when disjoint).

    The flat is intersected one bounding hyperplane at a time; at each stage
    `_slice` lists the on-plane vertices and the edge crossings of the
    current polytope, computed in ints, and each crossing is made a point
    of Fractions.  The last stage's slice points
    are already the section's vertices, each once: an on-plane vertex is
    extreme, a crossing lies in the relative interior of one edge and is
    extreme in the slice, so their `chart_grid` rows are hulled once.
    Any flat is accepted: a line gives the chord (a point or a segment
    whose chart vertices are its end parameters), and a flat spanning the
    whole space has no bounding hyperplane and gives the body in its chart.
    """
    if flat.ambient_dim != body.ambient_dim:
        raise DimensionMismatch("flat and body dimensions disagree")

    pts = body.vertices
    for i, n in enumerate(flat.normal_directions()):
        current = body if i == 0 else convex_hull(pts)
        pts = [
            current.vertices[ids[0]] if len(ids) == 1
            else tuple(Fraction(x, den) for x in X)
            for X, den, ids in _slice(current, n, flat.base)
        ]
        if not pts:
            return None

    # sorted, as an ambient hull lists vertices: a lower-dimensional chart
    # hull takes its span's base point from the first row; every slice point
    # is a section vertex, so the hull's vertices lift back to exactly them
    pts = sorted(pts)
    sec_poly = _hull_of_rows(*flat.chart_grid(pts))
    ambient = tuple(flat.point_at(cv) for cv in sec_poly.vertices)
    if sorted(ambient) != pts:
        raise PolytopeError("section vertex fell off the flat")

    probe = flat.point_at(sec_poly.interior_point())
    meets_interior = body.contains(probe) == "interior"
    return Section(sec_poly, flat, ambient, meets_interior)


@dataclass(frozen=True)
class Projection:
    """Orthogonal shadow of a polytope on a flat, in the flat's chart."""

    polytope: Polytope
    subspace: AffineFlat

    @property
    def ambient_vertices(self) -> tuple[Point, ...]:
        """The shadow's vertices lifted into the ambient space on each read."""
        return tuple(self.subspace.point_at(cv) for cv in self.polytope.vertices)


def project(body: Polytope, subspace: AffineFlat) -> Projection:
    """Orthogonal projection: hull the vertices' `chart_grid` rows, made
    from the body's int vertex form."""
    if subspace.ambient_dim != body.ambient_dim:
        raise DimensionMismatch("subspace and body dimensions disagree")
    grid = subspace._int_chart_grid(*body._scaled_with((subspace.base,)))
    return Projection(_hull_of_rows(*grid), subspace)


# ---------------------------------------------------------------------------
# extremeness and boundary tests


def is_extreme(point, body) -> bool:
    """Is the point an extreme point of the body (which must contain it)?"""
    poly = body if isinstance(body, Polytope) else convex_hull(body)
    p = as_point(point)
    if poly.contains(p) == "outside":
        raise PolytopeError("point lies outside the body")
    return p in poly.vertices


def supporting_line_test(line: AffineFlat, body: Polytope) -> bool:
    """Does the line meet the body only in boundary points?

    False when the line misses the body or passes through the (relative)
    interior; true exactly when the nonempty intersection sits inside the
    boundary.  The answer is read off `section(body, line)`: a chord meets
    the relative interior iff its midpoint, the section's vertex centroid
    that `Section.meets_interior` probes, does; a single point is all
    relative interior, so no line supports it.
    """
    if line.dim != 1:
        raise PolytopeError("supporting_line_test needs a 1-dimensional flat")
    if line.ambient_dim != body.ambient_dim:
        raise DimensionMismatch("line and body dimensions disagree")
    sec = section(body, line)
    return sec is not None and not sec.meets_interior


# ---------------------------------------------------------------------------
# diamond construction and boundary check


def _face_polytope(face) -> Polytope:
    if isinstance(face, Polytope):
        return face
    if isinstance(face, FaceRef):
        return face.to_polytope()
    return convex_hull(face)


def diamond_hull(face, p, q) -> Polytope:
    """Hull of a boundary face with a segment crossing it exactly once.

    The open segment (p q) must meet the face in a single point; every other
    configuration (miss, endpoint contact, overlap in a segment) raises
    DiamondConfigError.  The chord is read off the section of the face by
    the line p + t(q - p), whose chart coordinate is t: the first and last
    section vertices are its end parameters.
    """
    Q = _face_polytope(face)
    p = as_point(p)
    q = as_point(q)
    if p == q:
        raise DiamondConfigError("segment endpoints coincide")
    if len(p) != Q.ambient_dim or len(q) != Q.ambient_dim:
        raise DimensionMismatch("segment and face dimensions disagree")

    sec = section(Q, AffineFlat(p, (vsub(q, p),)))
    if sec is None:
        raise DiamondConfigError("segment misses the face")
    (lo,), (hi,) = sec.polytope.vertices[0], sec.polytope.vertices[-1]
    if lo > 1 or hi < 0:
        raise DiamondConfigError("segment misses the face")
    lo, hi = max(lo, Fraction(0)), min(hi, Fraction(1))
    if lo != hi:
        raise DiamondConfigError("segment overlaps the face in more than a point")
    if lo == 0 or lo == 1:
        raise DiamondConfigError("segment meets the face at an endpoint")
    return convex_hull(Q.vertices + (p, q))


def check_diamond_boundary(body: Polytope, diamond) -> bool:
    """Is the diamond contained in the body's boundary?

    For a polytope this is exact: a convex subset lies in the boundary iff
    one facet is tight at every diamond vertex (the vertices' active facets
    meet).  The diamond must be contained in the body (anything else raises).
    """
    if body.dim != body.ambient_dim:
        raise PolytopeError("boundary check needs a full-dimensional body")
    verts = diamond.vertices if isinstance(diamond, Polytope) else tuple(
        as_point(v) for v in diamond
    )
    tight = set(range(len(body._int_facets)))
    for v in verts:
        if body.contains(v) == "outside":
            raise PolytopeError("diamond is not contained in the body")
        tight.intersection_update(body.active_facets(v))
    return bool(tight)
