"""Shared test utilities: independent oracles and random geometry builders.

Everything here is deliberately written as straight-line brute force so it
can serve as an oracle for the fast library implementations.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F
from itertools import combinations
from math import gcd, isqrt

from polysect import convex_hull
from polysect.geometry import identity_flat, solve_particular, vadd, vdot, vscale, vsub
from polysect.hull import IntHull, _simplicial_facets
from polysect.polytope import _canonical_halfspace


def det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def int_rank(rows) -> int:
    """Rank of small integer matrices via fraction-free elimination.
    Reference for hull.int_pivots, which stops at a given rank."""
    mat = [list(r) for r in rows if any(r)]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pr = mat[rank]
        for i in range(rank + 1, len(mat)):
            if mat[i][c] != 0:
                f, g = pr[c], mat[i][c]
                mat[i] = [f * x - g * y for x, y in zip(mat[i], pr)]
        rank += 1
        if rank == len(mat):
            break
    return rank


def facet_normal(diffs, k):
    """Integer vector orthogonal to k-1 difference vectors in dimension k.
    Reference for the per-dimension plane closures of hull._simplicial_facets."""
    if k == 2:
        (dx, dy), = diffs
        return (dy, -dx)
    if k == 3:
        a, b = diffs
        return (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )
    # cofactor expansion of the 3x4 difference matrix
    rows = list(diffs)
    out = []
    sign = 1
    for c in range(4):
        minor = [[rows[r][cc] for cc in range(4) if cc != c] for r in range(3)]
        out.append(sign * det3(minor))
        sign = -sign
    return tuple(out)


def dot(a, b):
    """The generator dot product the hull's visibility scan once used."""
    return sum(x * y for x, y in zip(a, b))


def rand_fraction(rng: random.Random, lo: int = -4, hi: int = 4, den: int = 8) -> F:
    return F(rng.randint(lo * den, hi * den), den)


def random_points(rng, dim, count, lo=-4, hi=4, den=8):
    return [
        tuple(rand_fraction(rng, lo, hi, den) for _ in range(dim))
        for _ in range(count)
    ]


def centered_polytope(rng, dim, base_points, lo=-4, hi=4, den=8):
    """Random full-dimensional polytope translated so the origin is interior."""
    while True:
        pts = random_points(rng, dim, base_points, lo, hi, den)
        poly = convex_hull(pts)
        if poly.dim != dim:
            continue
        c = poly.interior_point()
        return convex_hull([vsub(v, c) for v in poly.vertices])


def polytope_of_dim(rng, dim, k):
    """Random k-dimensional polytope in dimension `dim` (0 <= k <= dim):
    integer combinations of k random directions from a random base point."""
    base = random_points(rng, dim, 1)[0]
    if k == 0:
        return convex_hull([base])
    while True:
        dirs = random_points(rng, dim, k, -2, 2, 2)
        pts = []
        for _ in range(rng.randint(k + 1, k + 5)):
            coeffs = [rng.randint(-2, 2) for _ in dirs]
            pts.append(tuple(
                x + sum(c * v[i] for c, v in zip(coeffs, dirs))
                for i, x in enumerate(base)
            ))
        poly = convex_hull(pts)
        if poly.dim == k:
            return poly


def random_line(rng, poly):
    """(base, direction) of a line through a vertex, an edge midpoint or a
    random point, along two vertices (so inside the affine hull) or a
    random direction; never a zero direction."""
    verts = poly.vertices
    kind = rng.randrange(3)
    if kind == 0:
        base = rng.choice(verts)
    elif kind == 1 and len(verts) > 1:
        a, b = rng.sample(verts, 2)
        base = tuple((x + y) / 2 for x, y in zip(a, b))
    else:
        base = random_points(rng, len(verts[0]), 1)[0]
    if len(verts) > 1 and rng.random() < 0.5:
        a, b = rng.sample(verts, 2)
        u = vsub(b, a)
    else:
        u = random_points(rng, len(verts[0]), 1, -2, 2, 2)[0]
    if all(x == 0 for x in u):
        u = (F(1),) + (F(0),) * (len(u) - 1)
    return base, u


def matrix_rank(rows) -> int:
    """Rank of a rational matrix by plain Gaussian elimination."""
    mat = [[F(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        for i in range(rank + 1, len(mat)):
            f = mat[i][c] / mat[rank][c]
            mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def in_hull_exact(points, x) -> bool:
    """Is x in conv(points)?  Barycentric search over small affine subsets."""
    pts = list(points)
    d = len(x)
    if tuple(x) in {tuple(p) for p in pts}:
        return True
    for size in range(2, d + 2):
        for combo in combinations(pts, size):
            matrix = [[p[i] for p in combo] for i in range(d)]
            matrix.append([F(1)] * size)
            if matrix_rank(matrix) < size:
                continue
            sol = solve_particular(matrix, list(x) + [F(1)])
            if sol is not None and all(l >= 0 for l in sol):
                return True
    return False


def is_extreme_oracle(points, x) -> bool:
    """Extreme point test by definition: x not in the hull of the others."""
    others = [p for p in points if tuple(p) != tuple(x)]
    if not others:
        return True
    return not in_hull_exact(others, x)


CUBE_VERTICES = tuple(
    (F(sx), F(sy), F(sz)) for sx in (-1, 1) for sy in (-1, 1) for sz in (-1, 1)
)

# The 12 edges of the cube, listed by hand as vertex pairs differing in one
# coordinate.  An independent enumeration for section oracles.
CUBE_EDGES = tuple(
    (a, b)
    for a, b in combinations(CUBE_VERTICES, 2)
    if sum(1 for i in range(3) if a[i] != b[i]) == 1
)


def edge_plane_crossings(edges, normal, offset):
    """Exact crossings of segment list with the hyperplane normal.x = offset."""
    out = []
    for a, b in edges:
        va = vdot(normal, a) - offset
        vb = vdot(normal, b) - offset
        if va == 0:
            out.append(tuple(a))
        if vb == 0:
            out.append(tuple(b))
        if (va < 0 < vb) or (vb < 0 < va):
            t = va / (va - vb)
            out.append(vadd(a, vscale(vsub(b, a), t)))
    return sorted(set(out))


def closest_point_on_polytope_reference(poly, p):
    """Float closest point of a full-dimensional 3-polytope (outside case).

    The per-call form: every call rebuilds the facet normals and orders each
    facet's vertices by angle.  Reference for the cap body's precomputed
    facet data, which must give bit-identical points.
    """
    import math

    def fdot(a, b):
        return sum(float(x) * float(y) for x, y in zip(a, b))

    def fnorm(v):
        return math.sqrt(sum(float(x) ** 2 for x in v))

    def funit(v):
        n = fnorm(v)
        return tuple(x / n for x in v) if n > 1e-15 else None

    def cross(a, b):
        return (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )

    def order_polygon(pts, centroid, normal):
        ref = tuple(a - b for a, b in zip(pts[0], centroid))
        e1 = funit(ref) or (1.0, 0.0, 0.0)
        e2 = funit(cross(normal, e1))
        ang = []
        for i, q in enumerate(pts):
            d = tuple(a - b for a, b in zip(q, centroid))
            ang.append((math.atan2(fdot(d, e2), fdot(d, e1)), i))
        return [i for _, i in sorted(ang)]

    verts = [tuple(float(x) for x in v) for v in poly.vertices]
    best = None
    best_pt = None

    def consider(q):
        nonlocal best, best_pt
        d = fnorm(tuple(a - b for a, b in zip(p, q)))
        if best is None or d < best:
            best, best_pt = d, q

    for hs, face in zip(poly.halfspaces, poly.facet_vertices):
        n = tuple(float(x) for x in hs.normal)
        c = float(hs.offset)
        nn = fdot(n, n)
        t = (fdot(n, p) - c) / nn
        proj = tuple(pi - t * ni for pi, ni in zip(p, n))
        pts = [verts[i] for i in face]
        inside = True
        centroid = tuple(sum(q[i] for q in pts) / len(pts) for i in range(3))
        m = len(pts)
        order = order_polygon(pts, centroid, n)
        for k in range(m):
            a = pts[order[k]]
            b = pts[order[(k + 1) % m]]
            e = tuple(bi - ai for ai, bi in zip(a, b))
            out = cross(e, n)
            if fdot(out, tuple(pi - ai for pi, ai in zip(proj, a))) > 1e-12:
                inside = False
            ee = fdot(e, e)
            if ee > 0:
                s = max(0.0, min(1.0, fdot(tuple(pi - ai for pi, ai in zip(p, a)), e) / ee))
                consider(tuple(ai + s * ei for ai, ei in zip(a, e)))
        if inside:
            consider(proj)
    for v in verts:
        consider(v)
    return best_pt


def glue_cap_member_reference(poly, center, radius):
    """The cap body's membership test by a fixed 80-step ternary search.

    Each step decides containment of the scaled point exactly on Fractions.
    Reference for the cap member's certificate-stopped float search, which
    must give the same verdicts.
    """
    from polysect.bodies import _closest_point_finder, make_ball, wrap_polytope

    c = tuple(float(x) for x in center)
    r = float(radius)
    ball = make_ball(c, r)
    pwrap = wrap_polytope(poly)
    _, closest_point = _closest_point_finder(poly)

    def member(x):
        if pwrap.member(x) or ball.member(x):
            return True

        def f(t):
            scaled = tuple((xi - (1.0 - t) * ci) / t for xi, ci in zip(x, c))
            if poly.contains(tuple(F(v) for v in scaled)) != "outside":
                d = 0.0
            else:
                q = closest_point(scaled)
                d = sum((a - b) ** 2 for a, b in zip(scaled, q)) ** 0.5
            return t * d - (1.0 - t) * r

        lo, hi = 1e-9, 1.0
        for _ in range(80):
            m1 = lo + (hi - lo) / 3
            m2 = hi - (hi - lo) / 3
            if f(m1) <= f(m2):
                hi = m2
            else:
                lo = m1
        return f(0.5 * (lo + hi)) <= 1e-9

    return member


def exact_cone_oracle_sampling_only(cone):
    """An exact cone's membership oracle without the exact short-cut.

    mirkil_scan then samples its cross-sections by bisection of member, the
    route every cone oracle without a closed-form ray_interval takes.
    """
    from polysect.cones import ConeOracle, cone_oracle_from_exact

    full = cone_oracle_from_exact(cone)
    return ConeOracle(full.dim, full.member, full.axis_hint)


def section_two_hulls(body, flat):
    """section() that hulls the last stage in ambient space, then again in
    the flat's chart.  Reference for the library's single chart hull."""
    from polysect.polytope import Section, _slice

    current = body
    for n in flat.normal_directions():
        pts = [x for x, _ in _slice(current, n, flat.base)]
        if not pts:
            return None
        current = convex_hull(pts)
    chart_pts = [flat.coordinates(v) for v in current.vertices]
    assert None not in chart_pts
    sec_poly = convex_hull(chart_pts)
    ambient = tuple(flat.point_at(cv) for cv in sec_poly.vertices)
    probe = flat.point_at(sec_poly.interior_point())
    return Section(sec_poly, flat, ambient, body.contains(probe) == "interior")


def polytope_fields(poly):
    """Every field of a Polytope, edges included, as one comparable tuple."""
    return (
        poly.vertices, poly.chart_vertices, poly.span, poly.halfspaces,
        poly.facet_vertices, poly.edges(),
    )


def section_fields(sec):
    if sec is None:
        return None
    return (
        polytope_fields(sec.polytope), sec.flat, sec.ambient_vertices,
        sec.meets_interior,
    )


def lattice_sphere(n2):
    """The integer points with |p|^2 = n2, sorted; every one is extreme."""
    r = isqrt(n2)
    span = range(-r, r + 1)
    return sorted(
        (x, y, z) for x in span for y in span for z in span if x * x + y * y + z * z == n2
    )


def edges_by_pair_scan(poly):
    """Polytope.edges() as it tested every vertex pair against every facet.
    Reference for the vertex-facet index."""
    k = poly.dim
    if k <= 0:
        return ()
    if k == 1:
        return ((0, 1),) if len(poly.vertices) == 2 else ()
    out = []
    for i, j in combinations(range(len(poly.vertices)), 2):
        common = [
            f for f, verts in enumerate(poly.facet_vertices) if i in verts and j in verts
        ]
        if len(common) < k - 1:
            continue
        rows = [poly._int_facets[f][0] for f in common]
        if int_rank(rows) == k - 1:
            out.append((i, j))
    return tuple(out)


def _make_apex(body, chart, x, xi):
    """A point of the lifted line far beyond the body's support along xi."""
    from polysect.geometry import norm2
    from polysect.silhouette import WalkError

    vals = [vdot(xi, v) for v in body.vertices]
    top, bottom = max(vals), min(vals)
    spread = top - bottom
    if spread == 0:
        raise WalkError("body is flat along the walk direction")
    p = chart.point_at(tuple(F(c) for c in x))
    t = (top + 3 * spread - vdot(p, xi)) / norm2(xi)
    return vadd(p, vscale(xi, t))


def step_g_via_sections(body, state):
    """The walk step that built the whole visual cone from the apex, cut each
    active facet's plane with section() and took the farthest pair of the
    section's chart points as the shadow edge.  Reference for step_g's
    angular scan of the vertex images."""
    from polysect.cones import visual_cone
    from polysect.geometry import AffineFlat, nullspace, vneg
    from polysect.silhouette import (
        StepOutcome, WalkError, _cross2,
    )

    def _d2(a, b):
        return (a[0] - b[0]) ** 2 + (a[1] - b[1]) ** 2

    xi, chart, x = state.xi, state.chart, state.current
    apex = _make_apex(body, chart, x, xi)
    state.apex = apex
    cone = visual_cone(apex, body)
    if cone.halfspaces is None:
        raise WalkError("visual cone unexpectedly degenerate")
    if not cone.contains_direction(vneg(xi)):
        raise WalkError("point lies outside the shadow")
    active = [hs.normal for hs in cone.halfspaces if vdot(hs.normal, xi) == 0]
    if not active:
        raise WalkError("point lies in the shadow's interior, not its boundary")
    candidates = []
    for n in active:
        sec = section_two_hulls(body, AffineFlat.spanning(apex, nullspace([n])))
        if sec is None:
            raise WalkError("active cone facet misses the body")
        pts = [chart.projected_coordinates(v) for v in sec.ambient_vertices]
        a = b = pts[0]
        best = F(0)
        for i in range(len(pts)):
            for j in range(i + 1, len(pts)):
                if _d2(pts[i], pts[j]) > best:
                    best, a, b = _d2(pts[i], pts[j]), pts[i], pts[j]
        if a == b:
            raise WalkError("facet section projects to a point")
        for g, f in ((a, b), (b, a)):
            if g != x and _cross2(vsub(x, state.center), vsub(g, x)) > 0:
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


def hull_by_rescan(points):
    """hull_full_dim as it rescanned every candidate against every merged
    hyperplane for its tight set.  Reference for reading incidence off the
    merged simplicial facets."""
    k = len(points[0])
    merged = {}
    for f in _simplicial_facets(points):
        g = 0
        for x in f.normal:
            g = gcd(g, abs(x))
        g = gcd(g, abs(f.offset)) or 1
        key = (tuple(x // g for x in f.normal), f.offset // g)
        merged.setdefault(key, set()).update(f.vertices)
    candidates = sorted(set().union(*merged.values()))
    tight = {
        (n, c): [v for v in candidates if sum(x * y for x, y in zip(n, points[v])) == c]
        for (n, c) in merged
    }
    active = {}
    for (n, _), verts in tight.items():
        for v in verts:
            active.setdefault(v, []).append(n)
    true_vertices = [
        v for v in candidates if len(active[v]) >= k and int_rank(active[v]) == k
    ]
    vert_set = set(true_vertices)
    facets = sorted(
        (n, c, tuple(v for v in verts if v in vert_set))
        for (n, c), verts in tight.items()
    )
    return IntHull(tuple(true_vertices), tuple(facets))


def coverage_note_by_fraction_image(poly, normals, offsets):
    """criteria._coverage_note as it built the image N(P) from Fraction dot
    products and classified the unscaled offsets.  Reference for the
    integer image."""
    image = convex_hull([tuple(vdot(n, v) for n in normals) for v in poly.vertices])
    where = image.contains(tuple(offsets))
    if where == "outside":
        return "coverage violation (flat misses the body)"
    if where != "interior":
        return "coverage violation (flat misses the interior)"
    return None


def chart_contains_by_evaluate(poly, chart_point):
    """Polytope.chart_contains as it evaluated each Halfspace in Fractions.
    Reference for the integer evaluation."""
    if poly.dim == 0:
        return "interior"
    vals = [hs.evaluate(chart_point) for hs in poly.halfspaces]
    if any(v > 0 for v in vals):
        return "outside"
    return "boundary" if any(v == 0 for v in vals) else "interior"


def diameter_by_pair_loop(points):
    """polygonality_detect's diameter as the pair loop over math.hypot gave
    it.  Reference for the block-pruned diameter."""
    diam = 0.0
    for i in range(len(points)):
        for j in range(i + 1, len(points)):
            d = math.hypot(points[i][0] - points[j][0], points[i][1] - points[j][1])
            if d > diam:
                diam = d
    return diam


def brute_force_facets(points):
    """Independent O(n^k) facet oracle for integer points: every supporting
    hyperplane through k affinely independent points with all points on one
    side, as sorted canonical (normal, offset) pairs."""
    k = len(points[0])
    seen = set()
    out = []
    for combo in combinations(range(len(points)), k):
        p0 = points[combo[0]]
        diffs = [tuple(a - b for a, b in zip(points[i], p0)) for i in combo[1:]]
        if int_rank(diffs) < k - 1:
            continue
        n = facet_normal(diffs, k)
        if not any(n):
            continue
        c = sum(x * y for x, y in zip(n, p0))
        vals = [sum(x * y for x, y in zip(n, q)) for q in points]
        sides = {(v > c) - (v < c) for v in vals}
        sides.discard(0)
        if len(sides) != 1:
            continue
        if 1 in sides:
            n, c = tuple(-x for x in n), -c
        g = 0
        for x in n:
            g = gcd(g, abs(x))
        g = gcd(g, abs(c)) or 1
        key = (tuple(x // g for x in n), c // g)
        if key not in seen:
            seen.add(key)
            out.append(key)
    return sorted(out)


def restrict_halfspaces(halfspaces, flat):
    """Rewrite ambient halfspaces in a flat's chart coordinates.

    Substituting x = base + sum_j s_j b_j into n.x <= c gives the chart
    constraint (n.b_j)_j . s <= c - n.base.  Constraints with zero chart
    normal are either vacuous or prove the flat misses the set entirely, in
    which case None is returned.  Together with vertices_of this is an
    independent route to sections of full-dimensional bodies.
    """
    out = []
    for hs in halfspaces:
        n = tuple(vdot(hs.normal, b) for b in flat.basis)
        c = hs.offset - vdot(hs.normal, flat.base)
        if all(x == 0 for x in n):
            if c < 0:
                return None
            continue
        out.append(_canonical_halfspace(n, c))
    return tuple(out)


# ---------------------------------------------------------------------------
# test-only constructors and the routes the library's ray primitive replaced


def _positive_functional(gens):
    """A w with w.g > 0 for every generator; raises when the cone is not pointed.

    w is a relative-interior point of the dual {w : w.g >= 0} clipped to the
    unit box; strict positivity on every generator certifies pointedness.
    """
    from polysect.cones import ConeError, primitive_direction
    from polysect.geometry import vneg
    from polysect.polytope import Halfspace, vertices_of

    d = len(gens[0])
    if d == 1:
        signs = {1 if g[0] > 0 else -1 for g in gens}
        if len(signs) > 1:
            raise ConeError("generators span a line: the cone is not pointed")
        return (F(next(iter(signs))),)
    hss = [Halfspace(vneg(primitive_direction(g)), F(0)) for g in gens]
    for axis in range(d):
        for sign in (1, -1):
            n = tuple(F(sign if i == axis else 0) for i in range(d))
            hss.append(Halfspace(n, F(1)))
    dual = vertices_of(hss)
    w = dual.interior_point()
    for g in gens:
        if vdot(w, g) <= 0:
            raise ConeError("cone has a lineality direction (not pointed)")
    return w


def from_generators(apex, directions):
    """Cone from arbitrary generators, reduced to its extreme rays.

    Requires a pointed cone; a lineality direction is detected and rejected.
    """
    from polysect.cones import PolyCone, _cone_from_rays
    from polysect.geometry import (
        DimensionMismatch, as_point, as_vector, is_zero_vector,
    )

    apex = as_point(apex)
    gens = [as_vector(g) for g in directions]
    for g in gens:
        if len(g) != len(apex):
            raise DimensionMismatch("generator dimension differs from the apex")
    gens = [g for g in gens if not is_zero_vector(g)]
    if not gens:
        zero = tuple(F(0) for _ in apex)
        return PolyCone(apex, (), 0, None, zero, None)
    w = _positive_functional(gens)
    return _cone_from_rays(apex, gens, w)


def cone_contains_point(cone, point) -> bool:
    """Exact: is the point in the cone (its direction from the apex is)?"""
    from polysect.geometry import as_point

    return cone.contains_direction(vsub(as_point(point), cone.apex))


def lift_line(x, xi):
    """The ambient line over a shadow-chart point, directed along ξ."""
    from polysect.geometry import AffineFlat, as_vector
    from polysect.silhouette import shadow_chart

    base = shadow_chart(xi).point_at(tuple(F(c) for c in x))
    return AffineFlat(base, (as_vector(xi),))


def hexagonal_prism_oracle():
    """A hexagonal prism seen through float oracles only (polytope=None)."""
    import dataclasses

    from polysect.bodies import wrap_polytope

    hexagon = [(math.cos(k * math.pi / 3), math.sin(k * math.pi / 3)) for k in range(6)]
    vertices = [
        (F(x).limit_denominator(1000), F(y).limit_denominator(1000), F(z))
        for x, y in hexagon for z in (-1, 1)
    ]
    return dataclasses.replace(
        wrap_polytope(convex_hull(vertices)), polytope=None, name="prism"
    )


def sphere_interval_reference(w, v, rr):
    """Roots of |w + t*v|^2 = rr as (t0, t1), or None when the line misses.

    The stable quadratic written out on its own, as the ball and ellipsoid
    ray intervals computed it before they shared the cone's root code.
    """
    from polysect.bodies import BodyError, _fdot

    a = _fdot(v, v)
    if a == 0:
        raise BodyError("ray direction must be nonzero")
    b = _fdot(w, v)
    cc = _fdot(w, w) - rr
    disc = b * b - a * cc
    if disc < 0:
        return None
    q = -(b + math.copysign(math.sqrt(disc), b))
    if q == 0:
        return (0.0, 0.0)
    t0, t1 = q / a, cc / q
    return (t0, t1) if t0 <= t1 else (t1, t0)


def sample_section_boundary_chart_form(body, flat, count):
    """sample_section_boundary with bisection probes in chart form.

    Bodies without ray_interval probe at(x0 + s*cos θ, x0 + s*sin θ), the
    flat's chart point mapped out, with the exit ceiling 2^40, as the
    section sweep did before it shared ray_exit with the cone scan.  Bodies
    with ray_interval take its exit, as the library does.
    """
    from polysect.bodies import BodyError, _funit, _interior_chart_point

    base = tuple(float(x) for x in flat.base)
    u1 = _funit(tuple(float(x) for x in flat.basis[0]))
    u2 = _funit(tuple(float(x) for x in flat.basis[1]))

    def at(cx, cy):
        return tuple(b + cx * a1 + cy * a2 for b, a1, a2 in zip(base, u1, u2))

    def exit_of(inside):
        lo, hi = 0.0, 1.0
        while inside(hi):
            lo, hi = hi, 2.0 * hi
            if hi > 2.0**40:
                raise BodyError("section boundary ray never left the body")
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if inside(mid) else (lo, mid)
        return 0.5 * (lo + hi)

    def sweep(x0):
        start = at(*x0)
        pts = []
        for j in range(count):
            th = 2.0 * math.pi * j / count
            ct, st = math.cos(th), math.sin(th)
            if body.ray_interval is not None:
                u = tuple(ct * a1 + st * a2 for a1, a2 in zip(u1, u2))
                span = body.ray_interval(start, u)
                t = max(span[1], 0.0) if span is not None else 0.0
            else:
                t = exit_of(
                    lambda s: body.member(at(x0[0] + s * ct, x0[1] + s * st))
                )
            pts.append((x0[0] + t * ct, x0[1] + t * st))
        return tuple(pts)

    x0 = _interior_chart_point(body, at)
    pts = sweep(x0)
    cx = sum(p[0] for p in pts) / count
    cy = sum(p[1] for p in pts) / count
    if body.member(at(cx, cy)):
        pts = sweep((cx, cy))
    return pts


def simplicial_facets_by_dot_scan(points):
    """hull._simplicial_facets as it tested visibility through a generator
    dot product on each live facet.  Reference for the unrolled int scan."""
    from polysect.hull import HullError, _Facet, _initial_simplex

    if not points:
        raise HullError("no points")
    k = len(points[0])
    if k not in (2, 3, 4):
        raise HullError(f"unsupported hull dimension {k}")
    simplex = _initial_simplex(points, k)
    ref_sum = tuple(sum(points[i][c] for i in simplex) for c in range(k))
    ref_den = k + 1
    facets = {}
    ridge_owners = {}
    next_id = 0

    def oriented(verts):
        p0 = points[verts[0]]
        diffs = [tuple(a - b for a, b in zip(points[v], p0)) for v in verts[1:]]
        n = facet_normal(diffs, k)
        c = dot(n, p0)
        side = dot(n, ref_sum) - c * ref_den
        if side > 0:
            n = tuple(-x for x in n)
            c = -c
        elif side == 0:
            raise HullError("reference point landed on a facet hyperplane")
        return _Facet(verts, n, c)

    def ridges(f):
        return [frozenset(f.vertices[:d] + f.vertices[d + 1:]) for d in range(k)]

    def add_facet(f):
        nonlocal next_id
        facets[next_id] = f
        for ridge in ridges(f):
            ridge_owners.setdefault(ridge, []).append(next_id)
        next_id += 1

    def remove_facet(fid):
        for ridge in ridges(facets.pop(fid)):
            ridge_owners[ridge].remove(fid)
            if not ridge_owners[ridge]:
                del ridge_owners[ridge]

    for drop in range(k + 1):
        add_facet(oriented(tuple(simplex[:drop] + simplex[drop + 1:])))
    in_simplex = set(simplex)
    for ip, p in enumerate(points):
        if ip in in_simplex:
            continue
        visible = [fid for fid, f in facets.items() if dot(f.normal, p) > f.offset]
        if not visible:
            continue
        visible_set = set(visible)
        horizon = []
        for fid in visible:
            for ridge in ridges(facets[fid]):
                owners = ridge_owners[ridge]
                if len(owners) != 2:
                    raise HullError("hull boundary lost ridge pairing")
                other = owners[0] if owners[1] == fid else owners[1]
                if other not in visible_set:
                    horizon.append(ridge)
        for fid in visible:
            remove_facet(fid)
        for ridge in horizon:
            add_facet(oriented(tuple(sorted(ridge)) + (ip,)))
    return list(facets.values())


def epsilon_certificate_by_section(body, p, q, family=None, seed=0):
    """criteria.epsilon_certificate as it built the whole section through the
    midpoint, hulled it in the flat's chart and kept the section facets
    through the midpoint, scoring the family in Fractions.  Reference for
    reading the section facets off the body's tight facets."""
    from polysect.criteria import (
        CriterionError, EpsilonCert, _angle, default_normal_family,
    )
    from polysect.geometry import AffineFlat, as_point, as_vector, dist2, norm2, nullspace
    from polysect.polytope import section

    p = as_point(p)
    q = as_point(q)
    if p == q:
        raise CriterionError("certificate needs two distinct points")
    if body.contains(p) == "outside" or body.contains(q) == "outside":
        raise CriterionError("both points must lie in the body")
    mid = vscale(vadd(p, q), F(1, 2))
    d = body.ambient_dim
    if body.dim == d and body.contains(mid) == "interior":
        r2_min = None
        for hs in body.halfspaces:
            num = hs.offset - vdot(hs.normal, mid)
            val = float(num) / math.sqrt(float(norm2(hs.normal)))
            if r2_min is None or val < r2_min:
                r2_min = val
        dist_px = math.sqrt(float(dist2(p, mid)))
        radius = min(r2_min, 0.99 * dist_px)
        branch1 = math.sqrt(max(dist_px * dist_px - radius * radius, 0.0))
        branch2 = math.asin(min(radius / dist_px, 1.0))
        eps = 0.5 * min(branch1, branch2)
        return EpsilonCert(
            p, q, "interior-crossing", eps, mid, (branch1, branch2), radius=radius,
        )

    u = vsub(q, p)
    if family is None:
        family = default_normal_family(d, seed=seed)
    best = None
    best_score = None
    for nu in family:
        nu = as_vector(nu)
        dot = vdot(u, nu)
        if dot == 0:
            continue
        score = dot * dot / (norm2(u) * norm2(nu))
        if best_score is None or score > best_score:
            best, best_score = nu, score
    if best is None:
        raise CriterionError("family-coverage failure: no flat transversal to the segment")
    flat = AffineFlat.spanning(mid, nullspace([best]))
    sec = section(body, flat)
    spoly = sec.polytope
    x_chart = spoly.to_chart(flat.coordinates(mid))
    vertex_ids = set()
    for hs, face in zip(spoly.halfspaces, spoly.facet_vertices):
        if hs.evaluate(x_chart) == 0:
            vertex_ids.update(face)
    xs = [
        sec.ambient_vertices[i] for i in sorted(vertex_ids)
        if sec.ambient_vertices[i] != mid
    ]
    delta = abs(float(vdot(best, vsub(p, mid)))) / math.sqrt(float(norm2(best)))
    branches = [delta]
    for xj in xs:
        branches.append(_angle(vsub(xj, p), vsub(q, p)))
    eps = 0.5 * min(branches)
    interior_pt = flat.point_at(spoly.interior_point())
    return EpsilonCert(
        p, q, "boundary-segment", eps, mid, tuple(branches),
        flat_normal=best, flat_offset=vdot(best, mid),
        vertex_set=tuple(xs), distance=delta, interior_point=interior_pt,
    )


def hull_by_dot_scan(points):
    """hull_full_dim on the simplicial facets of the generator-dot scan."""
    from unittest import mock

    import polysect.hull as hull

    with mock.patch.object(hull, "_simplicial_facets", simplicial_facets_by_dot_scan):
        return hull.hull_full_dim(points)


def no_extreme_in_cone_in_fractions(body, p, q, epsilon):
    """criteria.no_extreme_in_cone as it compared Fraction lengths and dot
    products.  Reference for the common-denominator integer route."""
    from polysect.geometry import as_point, norm2

    p, q = as_point(p), as_point(q)
    u = vsub(q, p)
    eps2 = F(epsilon) ** 2
    cos_bound = F(math.cos(min(epsilon, math.pi)))
    u2 = norm2(u)
    for y in body.vertices:
        if y == p:
            continue
        w = vsub(y, p)
        w2 = norm2(w)
        if w2 >= eps2:
            continue
        dot, ab = vdot(w, u), w2 * u2
        if cos_bound <= 0:
            if dot > 0 or (dot == 0 and cos_bound < 0) or dot * dot < cos_bound ** 2 * ab:
                return False
        elif dot > 0 and dot * dot > cos_bound ** 2 * ab:
            return False
    return True


def convex_hull_by_gram_schmidt(points):
    """convex_hull as it found the span by Fraction Gram-Schmidt over every
    point and projected every point into the span chart with
    projected_coordinates.  Reference for the integer pivots and the
    chart-grid hull."""
    from polysect.geometry import (
        AffineFlat, DimensionMismatch, as_point, identity_flat, is_zero_vector,
        norm2,
    )
    from polysect.hull import hull_full_dim
    from polysect.polytope import (
        Polytope, PolytopeError, _dim0_polytope, _integer_halfspace,
    )

    pts = list(dict.fromkeys(as_point(p) for p in points))
    if not pts:
        raise PolytopeError("convex hull of no points")
    d = len(pts[0])
    for p in pts:
        if len(p) != d:
            raise DimensionMismatch("points live in different dimensions")
    if d not in (1, 2, 3, 4):
        raise PolytopeError(f"ambient dimension {d} unsupported (need 1..4)")

    base = pts[0]
    ortho, ortho_n2 = [], []
    for p in pts[1:]:
        w = vsub(p, base)
        for b, n2 in zip(ortho, ortho_n2):
            w = vsub(w, vscale(b, vdot(w, b) / n2))
        if not is_zero_vector(w):
            ortho.append(w)
            ortho_n2.append(norm2(w))
        if len(ortho) == d:
            break
    k = len(ortho)
    if k == 0:
        return _dim0_polytope(base)
    if k == d:
        span = identity_flat(d)
        chart_pts = pts
    else:
        span = AffineFlat(base, tuple(ortho))
        chart_pts = [span.projected_coordinates(p) for p in pts]

    if k == 1:
        lo = min(range(len(pts)), key=lambda i: chart_pts[i])
        hi = max(range(len(pts)), key=lambda i: chart_pts[i])
        vert_idx = [lo, hi]
        facets = [
            (_canonical_halfspace((F(-1),), -chart_pts[lo][0]), (lo,)),
            (_canonical_halfspace((F(1),), chart_pts[hi][0]), (hi,)),
        ]
    else:
        scales = [math.lcm(*[cv[j].denominator for cv in chart_pts]) for j in range(k)]
        int_pts = [tuple(int(cv[j] * scales[j]) for j in range(k)) for cv in chart_pts]
        data = hull_full_dim(int_pts)
        vert_idx = data.vertex_indices
        facets = [
            (_integer_halfspace([n[j] * scales[j] for j in range(k)], c), fverts)
            for (n, c, fverts) in data.facets
        ]

    order = sorted(vert_idx, key=lambda i: pts[i])
    position = {i: pos for pos, i in enumerate(order)}
    facets.sort(key=lambda f: (f[0].normal, f[0].offset))
    return Polytope(
        tuple(pts[i] for i in order),
        tuple(chart_pts[i] for i in order),
        span,
        tuple(
            (tuple(x.numerator for x in hs.normal), hs.offset.numerator)
            for hs, _ in facets
        ),
        tuple(frozenset(position[i] for i in fverts) for _, fverts in facets),
    )


def project_by_projected_coordinates(body, subspace):
    """project() as it hulled every vertex's projected_coordinates with the
    Gram-Schmidt hull.  Reference for hulling the chart-grid rows."""
    from polysect.geometry import DimensionMismatch
    from polysect.polytope import Projection

    if subspace.ambient_dim != body.ambient_dim:
        raise DimensionMismatch("subspace and body dimensions disagree")
    poly = convex_hull_by_gram_schmidt(
        [subspace.projected_coordinates(v) for v in body.vertices]
    )
    return Projection(poly, subspace)


def lift_base_facets_in_fractions(base, w):
    """cones._lift_base_facets as it summed Fraction multiples of the span's
    basis vectors.  Reference for the integer lift on the grid basis."""
    from polysect.geometry import vadd
    from polysect.polytope import _canonical_halfspace

    span = base.span
    out = []
    for hs in base.halfspaces:
        m = tuple(F(0) for _ in w)
        for a_j, b_j, n2 in zip(hs.normal, span.basis, span.basis_norm2s):
            m = vadd(m, vscale(b_j, a_j / n2))
        c = hs.offset + vdot(m, span.base)
        out.append(_canonical_halfspace(vsub(m, vscale(w, c)), F(0)))
    return tuple(sorted(out, key=lambda h: (h.normal, h.offset)))


def visual_cone_over_all_vertices(apex, body):
    """visual_cone as it passed a ray through every vertex of the body on to
    _cone_from_rays, hulled their base points with the Gram-Schmidt hull and
    lifted the base facets in Fractions.  Reference for the horizon rule."""
    from unittest import mock

    import polysect.cones as cones
    from polysect.geometry import DimensionMismatch, as_point, vneg
    from polysect.polytope import Polytope

    poly = body if isinstance(body, Polytope) else convex_hull_by_gram_schmidt(
        list(getattr(body, "vertices", body))
    )
    z = as_point(apex)
    if len(z) != poly.ambient_dim:
        raise DimensionMismatch("apex dimension differs from the body")
    if poly.contains(z) != "outside":
        raise cones.ConeError("apex must lie strictly outside the body")
    if poly.dim == poly.ambient_dim:
        w = next(vneg(hs.normal) for hs in poly.halfspaces if hs.evaluate(z) > 0)
    else:
        w = cones._separating_functional(z, poly)
    gens = [vsub(v, z) for v in poly.vertices]
    with mock.patch.object(cones, "convex_hull", convex_hull_by_gram_schmidt), \
            mock.patch.object(cones, "_lift_base_facets", lift_base_facets_in_fractions):
        return cones._cone_from_rays(z, gens, w)


def shadow_walk_by_step_g(body, xi, step=None):
    """shadow_walk as a loop of step_g (or of another step with its
    signature), checking each emitted point with is_extreme on the
    Gram-Schmidt hull of the projected vertices.  Reference for the walk's
    own step and its chart-grid shadow check."""
    from polysect import silhouette as S
    from polysect.geometry import as_vector
    from polysect.polytope import is_extreme

    step = step or S.step_g
    if body.ambient_dim != 3 or body.dim != 3:
        raise S.WalkError("shadow walks need a full-dimensional 3-polytope")
    xi = as_vector(xi)
    chart = S.shadow_chart(xi)
    frame = S._frame(body, chart, xi)
    projected = tuple(chart.projected_coordinates(v) for v in body.vertices)
    center = (
        sum(p[0] for p in projected) / len(projected),
        sum(p[1] for p in projected) / len(projected),
    )
    best = max(p[0] for p in projected)
    start = next(p for p in projected if p[0] == best)
    state = S.WalkState(xi, chart, center, start, frame=frame)

    emitted = []
    max_steps = len(body.vertices) + 2
    steps = 0
    shadow_hull = convex_hull_by_gram_schmidt(projected)
    while steps < max_steps:
        outcome = step(body, state)
        steps += 1
        if outcome.kind == "isolated-extreme":
            v = state.current
            if emitted and v == emitted[0]:
                break
            if emitted:
                prev = emitted[-1]
                if S._cross2(vsub(prev, center), vsub(v, center)) <= 0:
                    raise S.WalkError("walk angle failed to increase")
            if not is_extreme(v, shadow_hull):
                raise S.WalkError("walk emitted a non-extreme shadow point")
            emitted.append(v)
        state.current = outcome.next_point
        if emitted and state.current == emitted[0]:
            break
    else:
        raise S.WalkError("walk exceeded the vertex bound without closing")
    if not emitted:
        raise S.WalkError("walk closed without emitting any vertex")
    angles = tuple(
        math.atan2(float(v[1] - center[1]), float(v[0] - center[0]))
        for v in emitted
    )
    return S.WalkResult(xi, chart, tuple(emitted), angles, steps, start)


# ---------------------------------------------------------------------------
# the float oracle kernels as per-element generators, as they were written
# before they iterated in C; references for bit-for-bit comparisons


def fdot_by_generator(a, b):
    return sum(float(x) * float(y) for x, y in zip(a, b))


def fnorm_by_generator(v):
    try:
        return math.sqrt(sum(float(x) ** 2 for x in v))
    except OverflowError:
        return math.inf


def funit_by_generator(v):
    n = fnorm_by_generator(v)
    return tuple(x / n for x in v) if n > 1e-15 else None


def gauss_unit_by_generator(rng, d):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(d)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-9:
            return tuple(x / n for x in v)


def orthonormal_frame_by_generator(rng, d, k):
    while True:
        vecs = []
        for _ in range(k):
            v = list(gauss_unit_by_generator(rng, d))
            for u in vecs:
                dot = sum(a * b for a, b in zip(v, u))
                v = [a - dot * b for a, b in zip(v, u)]
            n = math.sqrt(sum(x * x for x in v))
            if n < 1e-6:
                break
            vecs.append(tuple(x / n for x in v))
        if len(vecs) == k:
            return tuple(vecs)


def sphere_interval_by_generator(w, v, rr):
    from polysect.bodies import BodyError, _nappe_interval

    a = fdot_by_generator(v, v)
    if a == 0:
        raise BodyError("ray direction must be nonzero")
    b = fdot_by_generator(w, v)
    cc = fdot_by_generator(w, w) - rr
    return _nappe_interval(-a, -b, -cc, 0.0)


def ball_by_generators(center, radius):
    """(support, member, ray_interval) of make_ball, per-element generators."""
    from polysect.bodies import BodyError

    c = tuple(float(x) for x in center)
    r = float(radius)

    def support(u):
        nu = fnorm_by_generator(u)
        if nu == 0:
            raise BodyError("support direction must be nonzero")
        point = tuple(ci + r * ui / nu for ci, ui in zip(c, u))
        return fdot_by_generator(u, c) + r * nu, point

    def member(x):
        return fnorm_by_generator(tuple(xi - ci for xi, ci in zip(x, c))) <= r + 1e-12

    def ray_interval(z, u):
        w = tuple(zi - ci for zi, ci in zip(z, c))
        return sphere_interval_by_generator(w, u, (r + 1e-12) ** 2)

    return support, member, ray_interval


def ellipsoid_by_generators(center, semi_axes):
    """(support, member, ray_interval) of make_ellipsoid, per-element generators."""
    from polysect.bodies import BodyError

    c = tuple(float(x) for x in center)
    a = tuple(float(x) for x in semi_axes)

    def support(u):
        s = math.sqrt(sum((ai * ui) ** 2 for ai, ui in zip(a, u)))
        if s == 0:
            raise BodyError("support direction must be nonzero")
        point = tuple(ci + ai * ai * ui / s for ci, ai, ui in zip(c, a, u))
        return fdot_by_generator(u, c) + s, point

    def member(x):
        return (
            sum(((xi - ci) / ai) ** 2 for xi, ci, ai in zip(x, c, a))
            <= 1.0 + 1e-12
        )

    def ray_interval(z, u):
        w = tuple((zi - ci) / ai for zi, ci, ai in zip(z, c, a))
        v = tuple(ui / ai for ui, ai in zip(u, a))
        return sphere_interval_by_generator(w, v, 1.0 + 1e-12)

    return support, member, ray_interval


def polytope_support_by_scan(verts, u):
    """wrap_polytope's support as a strict > scan over the float vertices."""
    best = None
    best_pt = None
    for v in verts:
        val = fdot_by_generator(u, v)
        if best is None or val > best:
            best, best_pt = val, v
    return best, best_pt


def support_shadow_by_generator(oracle, frame, count):
    e1, e2 = frame
    pts = []
    for j in range(count):
        th = 2.0 * math.pi * j / count
        u = tuple(math.cos(th) * a + math.sin(th) * b for a, b in zip(e1, e2))
        _, s = oracle.support(u)
        pts.append((
            sum(si * ai for si, ai in zip(s, e1)),
            sum(si * bi for si, bi in zip(s, e2)),
        ))
    return tuple(pts)


def radial_sweep_by_generator(member, ray_interval, start, frame, count, offset, ceiling):
    """radial_sweep with its ray directions and bisection probes built by
    generators (ray_exit written out)."""
    e1, e2 = frame
    pts = []
    for j in range(count):
        th = offset + 2.0 * math.pi * j / count
        ct, st = math.cos(th), math.sin(th)
        u = tuple(ct * a1 + st * a2 for a1, a2 in zip(e1, e2))
        if ray_interval is not None:
            span = ray_interval(start, u)
            r = max(span[1], 0.0) if span is not None else 0.0
            if r >= ceiling:
                return None
        else:
            inside = lambda r: member(tuple(si + r * ui for si, ui in zip(start, u)))
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
            r = 0.5 * (lo + hi)
        pts.append((r * ct, r * st))
    return tuple(pts)


def frame_lift_by_generator(s, frame, dim):
    """mirkil_scan's lift of a point s of a frame's span, by a generator."""
    return tuple(sum(si * fi[j] for si, fi in zip(s, frame)) for j in range(dim))


def vertices_of_by_subset_scan(halfspaces):
    """polytope.vertices_of as it scanned (d-1)-subsets of the normals for a
    recession ray and solved each d-subset that Gaussian elimination found
    nonsingular.  Reference for the hull-of-normals boundedness test and
    the int_pivots bases."""
    from polysect.geometry import DimensionMismatch, nullspace, orthogonalize
    from polysect.polytope import Halfspace, PolytopeError, UnboundedPolyhedron

    hss = [hs.canonical() for hs in halfspaces]
    if not hss:
        raise PolytopeError("no halfspaces")
    d = len(hss[0].normal)
    for hs in hss:
        if len(hs.normal) != d:
            raise DimensionMismatch("halfspace dimensions disagree")
    normals = [hs.normal for hs in hss]
    if matrix_rank(normals) < d:
        ortho = orthogonalize(normals)
        chart = [
            Halfspace(tuple(vdot(hs.normal, b) for b in ortho), hs.offset).canonical()
            for hs in hss
        ]
        if vertices_of_by_subset_scan(chart) is None:
            return None
        raise UnboundedPolyhedron("halfspace normals do not span the space")
    if d == 1:
        rays = [(F(1),), (F(-1),)]
    else:
        # an extreme ray of a pointed recession cone is tight on d-1
        # independent constraints
        rays = []
        for combo in combinations(normals, d - 1):
            if matrix_rank(combo) == d - 1:
                (u,) = nullspace(list(combo))
                rays += [u, tuple(-x for x in u)]
    for ray in rays:
        if all(vdot(n, ray) <= 0 for n in normals):
            raise UnboundedPolyhedron("recession direction found")
    found = {}
    for combo in combinations(hss, d):
        matrix = [hs.normal for hs in combo]
        if matrix_rank(matrix) < d:
            continue
        x = solve_particular(matrix, [hs.offset for hs in combo])
        if all(hs.evaluate(x) <= 0 for hs in hss):
            found.setdefault(x)
    if not found:
        return None
    return convex_hull(list(found))


def slice_points_by_fractions(body, normal, offset):
    """The cut of a polytope by {x : normal.x = offset} in Fractions: the
    on-plane vertices, then the edge crossings in edges() order.  Reference
    for polytope._slice's integer cut."""
    vals = [vdot(normal, v) - offset for v in body.vertices]
    pts = [v for v, val in zip(body.vertices, vals) if val == 0]
    for i, j in body.edges():
        a, b = vals[i], vals[j]
        if (a < 0 < b) or (b < 0 < a):
            t = a / (a - b)
            vi, vj = body.vertices[i], body.vertices[j]
            pts.append(vadd(vi, vscale(vsub(vj, vi), t)))
    return pts


def primitive_direction_by_gcd_loop(v):
    """cones.primitive_direction as it cleared denominators by their lcm and
    folded a gcd over the absolute values.  Reference for int_scaled plus
    one gcd call."""
    from polysect.geometry import as_vector

    v = as_vector(v)
    scale = math.lcm(*[x.denominator for x in v])
    ints = [int(x * scale) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    return tuple(F(x // g) for x in ints)


def line_interval_by_clipping(body, base, u):
    """Exact parameter interval {t : base + t*u in body} as (lo, hi), or None.

    The clipping route `supporting_line_test` and `diamond_hull` once took:
    a line in the body's affine hull is clipped against the facets in the
    hull's chart; any other line meets the hull in at most one point t0,
    and the interval is (t0, t0) when that point lies in the body.
    """
    span = body.span
    if span is None:  # a single point: every direction is normal to its hull
        origin, normals = body.vertices[0], identity_flat(len(u)).basis
    else:
        origin, normals = span.base, span.normal_directions()
    cons = [(vdot(n, u), vdot(n, vsub(origin, base))) for n in normals]
    crossing = next(((a, b) for a, b in cons if a != 0), None)
    if crossing is not None:
        t0 = crossing[1] / crossing[0]
        if any(a * t0 != b for a, b in cons):
            return None
        if body.contains(vadd(base, vscale(u, t0))) == "outside":
            return None
        return (t0, t0)
    if any(b != 0 for _, b in cons):
        return None
    cb = span.coordinates(base)
    cd = tuple(vdot(u, bb) / n2 for bb, n2 in zip(span.basis, span.basis_norm2s))
    lo = hi = None
    for hs in body.halfspaces:
        a = vdot(hs.normal, cd)
        b = hs.offset - vdot(hs.normal, cb)
        if a == 0:
            if b < 0:
                return None
        elif a > 0:
            hi = b / a if hi is None else min(hi, b / a)
        else:
            lo = b / a if lo is None else max(lo, b / a)
    return (lo, hi) if lo <= hi else None


def cone_section_by_subflat(cone, flat):
    """`cones.cone_section` by the route it once took: the base is cut by
    the sub-flat {w.y = 1} ∩ span built from a nullspace (a point for a
    line), and the rays are charted one by one."""
    from polysect.cones import ConeError, ConeSection, _cone_from_rays
    from polysect.geometry import AffineFlat, nullspace
    from polysect.polytope import section

    if not flat.contains(cone.apex):
        raise ConeError("flat must pass through the apex")
    anchored = AffineFlat(cone.apex, flat.basis)
    if cone.base is None:
        return None
    w = cone.positive_normal
    w_chart = tuple(vdot(w, b) for b in anchored.basis)
    if all(x == 0 for x in w_chart):
        return None
    if anchored.dim == 1:
        y0 = vscale(anchored.basis[0], 1 / w_chart[0])
        if cone.base.contains(y0) == "outside":
            return None
        ray_points = [y0]
    else:
        j = next(i for i, x in enumerate(w_chart) if x != 0)
        y0 = vscale(anchored.basis[j], 1 / w_chart[j])
        dirs = []
        for coeffs in nullspace([w_chart]):
            v = tuple(F(0) for _ in range(cone.ambient_dim))
            for c, b in zip(coeffs, anchored.basis):
                v = vadd(v, vscale(b, c))
            dirs.append(v)
        sec = section(cone.base, AffineFlat.spanning(y0, dirs))
        if sec is None:
            return None
        ray_points = list(sec.ambient_vertices)
    chart_rays = [
        tuple(vdot(r, b) / n2 for b, n2 in zip(anchored.basis, anchored.basis_norm2s))
        for r in ray_points
    ]
    origin = tuple(F(0) for _ in range(anchored.dim))
    return ConeSection(cone.apex, anchored, _cone_from_rays(origin, chart_rays, w_chart))


def projection_check_by_rehull(poly, E, shadow):
    """criteria's K2 check as it re-derived the shadow: chart coordinates of
    every vertex through projected_coordinates, an is_extreme filter against
    the shadow, and a second hull of the extreme points, which must list the
    shadow's vertices and halfspaces.  Reference for the integer
    certificate; raises CriterionError, or PolytopeError when a projected
    vertex falls outside the shadow."""
    from polysect.criteria import CriterionError
    from polysect.polytope import is_extreme

    pts = [E.projected_coordinates(v) for v in poly.vertices]
    ext = [p for p in dict.fromkeys(pts) if is_extreme(p, shadow)]
    rehull = convex_hull(ext)
    if shadow.vertices != rehull.vertices:
        raise CriterionError("projection disagrees with the extreme-point hull")
    if shadow.halfspaces != rehull.halfspaces:
        raise CriterionError("projection facets disagree with the extreme-point hull")


def draw_flat_by_solving(rng, d, k, delta):
    """criteria._draw_flat as every K1/T1.1 draw once ran it: the flat is
    built from a particular solution and the normals' nullspace, and a draw
    is redrawn when the system has no solution, the nullspace spans nothing
    or the flat's dimension is not k.  Reference for the normals-only draw,
    which redraws on the integer rank of the rounded normals."""
    from polysect.bodies import _gauss_unit
    from polysect.criteria import _delta_value, _rationalize
    from polysect.geometry import AffineFlat, GeometryError, nullspace

    while True:
        normals_f = [_gauss_unit(rng, d) for _ in range(d - k)]
        offsets_f = [_delta_value(delta, f) for f in normals_f]
        normals = [_rationalize(f) for f in normals_f]
        offsets = [_rationalize((v,))[0] for v in offsets_f]
        base = solve_particular(normals, offsets)
        if base is None:
            continue
        try:
            flat = AffineFlat.spanning(base, nullspace(normals))
        except GeometryError:
            continue
        if flat.dim == k:
            return flat, normals, offsets, normals_f, offsets_f


def default_normal_family_by_rationalize(dim, seed=0):
    """criteria.default_normal_family as it built each member as Fractions
    through _rationalize.  Reference for drawing the members as int rows."""
    from polysect.bodies import _gauss_unit
    from polysect.criteria import _rationalize
    from polysect.geometry import is_zero_vector

    rng = random.Random(seed)
    family = [tuple(F(1 if i == a else 0) for i in range(dim)) for a in range(dim)]
    while len(family) < 24:
        v = _rationalize(_gauss_unit(rng, dim))
        if not is_zero_vector(v):
            family.append(v)
    return tuple(family)


def section_by_chart_coordinates(body, flat):
    """section() as it charted every last-stage slice point through
    `flat.coordinates` (raising for a point off the flat) and hulled those
    Fractions with `convex_hull`.  Reference for hulling the slice points'
    `chart_grid` rows."""
    from polysect.geometry import DimensionMismatch
    from polysect.polytope import PolytopeError, Section, _slice

    if flat.ambient_dim != body.ambient_dim:
        raise DimensionMismatch("flat and body dimensions disagree")
    pts = body.vertices
    for i, n in enumerate(flat.normal_directions()):
        current = body if i == 0 else convex_hull(pts)
        pts = [x for x, _ in _slice(current, n, flat.base)]
        if not pts:
            return None
    chart_pts = []
    for v in sorted(pts):
        cv = flat.coordinates(v)
        if cv is None:
            raise PolytopeError("section vertex fell off the flat")
        chart_pts.append(cv)
    sec_poly = convex_hull(chart_pts)
    ambient = tuple(flat.point_at(cv) for cv in sec_poly.vertices)
    probe = flat.point_at(sec_poly.interior_point())
    return Section(sec_poly, flat, ambient, body.contains(probe) == "interior")


def random_subspace_by_spanning(rng, origin, d, k):
    """K2's exact subspace draw as it redrew k rounded gaussian directions
    until `AffineFlat.spanning` gave a k-flat.  Reference for the shared
    draw of independent grid rows."""
    from polysect.bodies import _gauss_unit
    from polysect.criteria import _rationalize
    from polysect.geometry import AffineFlat, GeometryError

    while True:
        dirs = [_rationalize(_gauss_unit(rng, d)) for _ in range(k)]
        try:
            E = AffineFlat.spanning(origin, dirs)
        except GeometryError:
            continue
        if E.dim == k:
            return E


def every_polytope_field(poly):
    """`polytope_fields` and the integer facets."""
    return polytope_fields(poly) + (poly._int_facets,)
