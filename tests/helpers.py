"""Shared test utilities, of four kinds:

- straight-line brute force, an oracle on small inputs: ranks, facets,
  extreme points, hull membership, vertex enumeration, section points and
  edges;
- builders of random and fixed geometry, and `certify`, which runs the
  library's integer hull certificate on an answer;
- wrong answers (`SHADOW_MUTATIONS`) that the certificate must refuse;
- routes the library replaced, kept as references where no check of the
  answer itself stands in for them yet: the float kernels written per
  element, the cap, sphere and sweep routes, the flat and normal draws,
  the pair-loop diameter and the Fraction cone exclusion.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction as F
from itertools import combinations
from math import gcd, isqrt
from operator import add, mul

from polysect import convex_hull
from polysect.geometry import (
    identity_flat, nullspace, solve_particular, vadd, vdot, vscale, vsub,
)
from polysect.polytope import Halfspace, Polytope, _canonical_halfspace, _integer_halfspace


def vneg(v):
    return tuple(-x for x in v)


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


def assert_orthonormal(vectors, count):
    """Assert that vectors holds count float vectors, orthonormal within 1e-12."""
    assert len(vectors) == count
    for i, a in enumerate(vectors):
        for j, b in enumerate(vectors):
            assert abs(dot(a, b) - (i == j)) <= 1e-12, (i, j)


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
    """An exact cone as a membership oracle, which mirkil_scan samples.

    member decides each float direction exactly; the axis hint is the sum
    of the unit generators.  mirkil_scan answers a PolyCone at once; on
    this oracle it samples cross-sections by bisection of member, the route
    of every cone oracle without a closed-form ray_interval.
    """
    from polysect.bodies import _funit
    from polysect.cones import ConeOracle

    def member(u):
        return cone.contains_direction(tuple(F(float(x)) for x in u))

    hint = _funit([sum(c) for c in zip(*map(_funit, cone.generators))])
    return ConeOracle(cone.ambient_dim, member, hint)


def polytope_fields(poly):
    """Every field of a Polytope, edges included, as one comparable tuple."""
    return (
        poly.vertices, poly.chart_vertices, poly.span, poly.halfspaces,
        poly.facet_vertices, poly.edges(),
    )


def lattice_sphere(n2):
    """The integer points with |p|^2 = n2, sorted; every one is extreme."""
    r = isqrt(n2)
    span = range(-r, r + 1)
    return sorted(
        (x, y, z) for x in span for y in span for z in span if x * x + y * y + z * z == n2
    )


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


def section_points_by_subsets(body, flat):
    """Every point where the flat meets the affine hull of at most c + 1
    vertices of the body (c the flat's codimension) in exactly one point,
    inside their hull.  Each is in the section, and each section vertex is
    one: it is the flat's only point on the smallest face holding it."""
    normals = flat.normal_directions()
    rhs = [F(1)] + [vdot(n, flat.base) for n in normals]
    # the side of each normal's level each vertex lies on: the hull of
    # vertices all strictly on one side misses the flat
    sides = {v: [(vdot(n, v) > c) - (vdot(n, v) < c) for n, c in zip(normals, rhs[1:])] for v in body.vertices}
    out = set()
    for size in range(1, len(normals) + 2):
        for combo in combinations(body.vertices, size):
            if any({sides[v][j] for v in combo} in ({1}, {-1}) for j in range(len(normals))):
                continue
            # barycentric weights l with sum l = 1 and n . sum l_i v_i = n . base
            matrix = [[F(1)] * size] + [[vdot(n, v) for v in combo] for n in normals]
            if matrix_rank(matrix) < size:
                continue
            lam = solve_particular(matrix, rhs)
            if lam is not None and min(lam) >= 0:
                out.add(tuple(sum(map(F.__mul__, lam, c)) for c in zip(*combo)))
    return sorted(out)


def edges_by_face_meet(poly):
    """Vertex pairs whose smallest common face, the meet of the facets that
    hold both (the whole polytope when none does), has no other vertex."""
    out = []
    on = [[verts for verts in poly.facet_vertices if i in verts] for i in range(len(poly.vertices))]
    for i, j in combinations(range(len(poly.vertices)), 2):
        face = set(range(len(poly.vertices)))
        for verts in on[i]:
            if j in verts:
                face &= verts
        if len(face) == 2:
            out.append((i, j))
    return tuple(out)


def certify(poly, points, flat=None):
    """`polytope._certify_hull` of poly against the points' `chart_grid` rows
    in the flat's chart (by default the identity chart of their space)."""
    from polysect.polytope import _certify_hull

    flat = flat or identity_flat(len(points[0]))
    _certify_hull(poly, *flat.chart_grid(points))


def certify_pyramid(pyramid, rays):
    """Certify a cone's pyramid against its rays scaled onto one hyperplane
    w . y = 1 (w . y > 0 on each): `certify` against 0 and the rays up to
    dimension 3.  A 4-D pyramid is past the certificate, so its base, the
    hull of its nonzero vertices, is certified against the rays instead, and
    its facets must be one through 0 over each base facet, tight on 0 and
    that facet's vertices, plus one tight on the whole base."""
    zero = (F(0),) * len(rays[0])
    if pyramid.dim <= 3:
        certify(pyramid, [zero, *rays])
        return
    verts = pyramid.vertices
    base = convex_hull([v for v in verts if v != zero])
    certify(base, rays)
    assert zero in verts and len(verts) == len(base.vertices) + 1
    index = {v: i for i, v in enumerate(verts)}
    facets = pyramid._int_facets
    tight = tuple(
        frozenset(i for i, v in enumerate(verts) if sum(map(mul, n, v)) == c) for n, c in facets
    )
    assert all(sum(map(mul, n, v)) <= c for n, c in facets for v in verts)
    assert tight == pyramid.facet_vertices
    sides = [
        frozenset(index[base.vertices[j]] for j in fv) | {index[zero]}
        for fv in base.facet_vertices
    ]
    assert [t for (_, c), t in zip(facets, tight) if c] == [frozenset(map(index.get, base.vertices))]
    through = [t for (_, c), t in zip(facets, tight) if not c]
    assert len(through) == len(sides) and set(through) == set(sides)


# ---------------------------------------------------------------------------
# test-only constructors and the routes the library's ray primitive replaced


def primitive_direction(v):
    """Scale a rational direction to coprime integers (same orientation)."""
    from polysect.cones import ConeError
    from polysect.geometry import as_vector, int_scaled, is_zero_vector

    v = as_vector(v)
    if is_zero_vector(v):
        raise ConeError("zero vector has no direction")
    (ints,), _ = int_scaled((v,))
    g = gcd(*ints)
    return tuple(F(x // g) for x in ints)


def _positive_functional(gens):
    """A w with w.g > 0 for every generator; raises when the cone is not pointed.

    w is a relative-interior point of the dual {w : w.g >= 0} clipped to the
    unit box; strict positivity on every generator certifies pointedness.
    """
    from polysect.cones import ConeError
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
    from polysect.cones import _cone_from_rays
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
        return _cone_from_rays(apex, (), tuple(F(0) for _ in apex))
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


def prism_oracle(m):
    """A prism over a regular m-gon (its vertices rounded to 1/10^6) seen
    through float oracles only (polytope=None)."""
    import dataclasses

    from polysect.bodies import wrap_polytope

    ngon = [(math.cos(2 * math.pi * k / m), math.sin(2 * math.pi * k / m)) for k in range(m)]
    vertices = [
        (F(x).limit_denominator(10**6), F(y).limit_denominator(10**6), F(z))
        for x, y in ngon for z in (-1, 1)
    ]
    return dataclasses.replace(
        wrap_polytope(convex_hull(vertices)), polytope=None, name=f"{m}-gon prism"
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


def radial_sweep_by_generator(member, ray_interval, start, frame, count, offset, ceiling):
    """The exit_function points at the angles offset + 2πj/count, j < count,
    or None when an exit lies at or beyond `ceiling`, with the ray
    directions and bisection probes built by generators (ray_exit written
    out)."""
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


def rationalize(v):
    """The floats of v rounded onto the 1/RATIONALIZE_DENOMINATOR grid, as
    Fractions: the rounding every reference draw below applies."""
    from polysect.criteria import RATIONALIZE_DENOMINATOR as den

    return tuple(F(round(float(x) * den), den) for x in v)


def draw_flat_by_solving(rng, d, k, delta):
    """criteria._draw_flat as every K1/T1.1 draw once ran it: the flat is
    built from a particular solution and the normals' nullspace, and a draw
    is redrawn when the system has no solution, the nullspace spans nothing
    or the flat's dimension is not k.  Reference for the rows-only draw,
    which redraws on the integer rank of the rounded normals' grid rows."""
    from polysect.bodies import _gauss_unit
    from polysect.criteria import _delta_value
    from polysect.geometry import AffineFlat, GeometryError, nullspace

    while True:
        normals_f = [_gauss_unit(rng, d) for _ in range(d - k)]
        offsets_f = [_delta_value(delta, f) for f in normals_f]
        normals = [rationalize(f) for f in normals_f]
        offsets = [rationalize((v,))[0] for v in offsets_f]
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
    through `rationalize`.  Reference for drawing the members as int rows."""
    from polysect.bodies import _gauss_unit
    from polysect.geometry import is_zero_vector

    rng = random.Random(seed)
    family = [tuple(F(1 if i == a else 0) for i in range(dim)) for a in range(dim)]
    while len(family) < 24:
        v = rationalize(_gauss_unit(rng, dim))
        if not is_zero_vector(v):
            family.append(v)
    return tuple(family)


def random_subspace_by_spanning(rng, origin, d, k):
    """K2's exact subspace draw as it redrew k rounded gaussian directions
    until `AffineFlat.spanning` gave a k-flat.  Reference for the shared
    draw of independent grid rows."""
    from polysect.bodies import _gauss_unit
    from polysect.geometry import AffineFlat, GeometryError

    while True:
        dirs = [rationalize(_gauss_unit(rng, d)) for _ in range(k)]
        try:
            E = AffineFlat.spanning(origin, dirs)
        except GeometryError:
            continue
        if E.dim == k:
            return E


# ---------------------------------------------------------------------------
# wrong answers for the hull certificate: each takes an honest hull, charted
# polytope or shadow of dimension 1 to 3 and breaks one of its claims


def _shadow_with(shadow, chart=None, ints=None):
    """The shadow with the given chart vertices and/or int facets; ambient
    vertices and facet-vertex sets are rebuilt to match."""
    chart = shadow.chart_vertices if chart is None else tuple(chart)
    ints = shadow._int_facets if ints is None else tuple(ints)
    halfspaces = tuple(Halfspace(tuple(map(F, n)), F(c)) for n, c in ints)
    return Polytope(
        tuple(map(shadow.span.point_at, chart)), chart, shadow.span, ints,
        tuple(
            frozenset(i for i, v in enumerate(chart) if hs.evaluate(v) == 0)
            for hs in halfspaces
        ),
    )


def _tight(shadow, v):
    return [f for f, hs in zip(shadow._int_facets, shadow.halfspaces) if hs.evaluate(v) == 0]


def _drop_vertex(shadow):
    return _shadow_with(shadow, chart=shadow.chart_vertices[1:])


def _drop_vertex_and_its_facets(shadow):
    at = _tight(shadow, shadow.chart_vertices[0])
    return _shadow_with(
        shadow, chart=shadow.chart_vertices[1:],
        ints=[f for f in shadow._int_facets if f not in at],
    )


def _repeat_vertex(shadow):
    return _shadow_with(shadow, chart=shadow.chart_vertices[:1] + shadow.chart_vertices)


def _add_edge_midpoint(shadow):
    # two vertices of facet 0; their midpoint is on the boundary, not extreme
    a, b = [v for v in shadow.chart_vertices if shadow.halfspaces[0].evaluate(v) == 0][:2]
    return _shadow_with(shadow, chart=shadow.chart_vertices + (tuple((x + y) / 2 for x, y in zip(a, b)),))


def _drop_facet(shadow):
    return _shadow_with(shadow, ints=shadow._int_facets[1:])


def _repeat_facet(shadow):
    return _shadow_with(shadow, ints=shadow._int_facets[:1] + shadow._int_facets)


def _shift_offset(step):
    def mutate(shadow):
        (n, c), *rest = shadow._int_facets
        return _shadow_with(shadow, ints=[(n, c + step), *rest])
    return mutate


def _with_halfspace(shadow, normal, offset):
    hs = _integer_halfspace(normal, offset)
    new = (tuple(int(x) for x in hs.normal), int(hs.offset))
    return _shadow_with(shadow, ints=[*shadow._int_facets, new])


def _add_parallel_halfspace(shadow):
    n, c = shadow._int_facets[0]
    return _with_halfspace(shadow, n, c + 1)


def _add_vertex_supporting_halfspace(shadow):
    # the sum of two facets tight at a vertex supports the shadow there only
    (a, c), (b, e) = _tight(shadow, shadow.chart_vertices[0])[:2]
    return _with_halfspace(shadow, tuple(map(add, a, b)), c + e)


def _add_cutting_halfspace(shadow):
    # a hyperplane through k vertices with vertices strictly on both sides:
    # tight on enough vertices to pass for a facet, but it cuts the shadow
    verts, k = shadow.chart_vertices, shadow.dim
    for combo in combinations(verts, k):
        normals = nullspace([[y - x for x, y in zip(combo[0], v)] for v in combo[1:]])
        if len(normals) != 1:
            continue
        (n,) = normals
        level = vdot(n, combo[0])
        if min(vdot(n, v) for v in verts) < level < max(vdot(n, v) for v in verts):
            scale = math.lcm(*[x.denominator for x in n])
            return _with_halfspace(
                shadow, tuple(int(x * scale) for x in n), int(level * scale)
            )
    raise AssertionError("no cutting hyperplane through vertices")


def _grow_about_the_centroid(shadow):
    # twice as large: every point still satisfies every facet, but no
    # vertex is one of the points
    verts = shadow.chart_vertices
    m = tuple(sum(c) / len(verts) for c in zip(*verts))
    ints = []
    for n, c in shadow._int_facets:
        offset = 2 * c - sum(map(mul, n, m))
        ints.append((tuple(x * offset.denominator for x in n), offset.numerator))
    return _shadow_with(shadow, [tuple(2 * x - y for x, y in zip(v, m)) for v in verts], ints)


SHADOW_MUTATIONS = {
    "drop-vertex": _drop_vertex,
    "drop-vertex-and-its-facets": _drop_vertex_and_its_facets,
    "repeat-vertex": _repeat_vertex,
    "add-edge-midpoint": _add_edge_midpoint,
    "drop-facet": _drop_facet,
    "grow-about-the-centroid": _grow_about_the_centroid,
    "repeat-facet": _repeat_facet,
    "offset-plus-1": _shift_offset(1),
    "offset-minus-1": _shift_offset(-1),
    "redundant-parallel": _add_parallel_halfspace,
    "redundant-at-a-vertex": _add_vertex_supporting_halfspace,
    "cutting-through-vertices": _add_cutting_halfspace,
}
SEGMENT_FREE_MUTATIONS = {
    "redundant-at-a-vertex", "add-edge-midpoint", "cutting-through-vertices",
}
