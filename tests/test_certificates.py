"""The exact kernel's answers, certified instead of re-derived.

`polytope._certify_hull` proves in integers that a polytope's vertices,
facets and span are those of the hull of given chart points.  Each
hull-shaped answer is checked by it against its input: `convex_hull`
against its points, `project` against the body's vertices, `section`
against the brute-force point set `helpers.section_points_by_subsets`, and
a visual cone's base against every vertex ray scaled onto
positive_normal . y = 1 (the walk's shadow is certified in
test_silhouette).  Hulls of dimension 4 are checked by brute force.
Metamorphic relations check that answers move with the maps that preserve
them, and the output conventions that byte-identical reports rely on are
pinned: vertex order, facet order and the chart rules.  Every wrong answer
in `helpers.SHADOW_MUTATIONS` must be refused, for every kind of answer.
"""

import functools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
from helpers import (
    SEGMENT_FREE_MUTATIONS,
    SHADOW_MUTATIONS,
    brute_force_facets,
    certify,
    certify_pyramid,
    int_rank,
    lattice_sphere,
    matrix_rank,
    polytope_fields,
    primitive_direction,
    section_points_by_subsets,
)

from polysect import cones
from polysect.cones import ConeError, visual_cone
from polysect.geometry import (
    AffineFlat,
    DimensionMismatch,
    GeometryError,
    as_point,
    identity_flat,
    orthogonalize,
    vdot,
    vsub,
)
from polysect.polytope import (
    PolytopeError,
    _canonical_halfspace,
    convex_hull,
    project,
    section,
)
from polysect.silhouette import shadow_chart, shadow_walk

fractions = st.fractions(-4, 4, max_denominator=4)
# a coarse lattice makes facets with more vertices than the dimension common
lattice = st.integers(-1, 1).map(F)


def _cloud(dim, min_size=1, max_size=10):
    return st.lists(st.tuples(*[fractions] * dim), min_size=min_size, max_size=max_size)


@st.composite
def clouds(draw, dims=(1, 2, 3, 4)):
    """A rational cloud in R^d, d in dims, often in a lower-dimensional flat
    and often with repeated points."""
    d = draw(st.sampled_from(dims))
    k = draw(st.integers(0, d))
    coords = draw(st.sampled_from((fractions, lattice)))
    pts = draw(st.lists(st.tuples(*[coords] * max(k, 1)), min_size=1, max_size=10))
    if k < d:
        # an affine image of a k-dimensional cloud (a point for k = 0)
        matrix = draw(st.lists(st.tuples(*[fractions] * max(k, 1)), min_size=d, max_size=d))
        offset = draw(st.tuples(*[fractions] * d))
        pts = [
            tuple(o + sum(a * x for a, x in zip(row, p)) * (k > 0) for o, row in zip(offset, matrix))
            for p in pts
        ]
    repeats = draw(st.lists(st.integers(0, len(pts) - 1), max_size=3))
    return pts + [pts[i] for i in repeats]


def _flats(d, data, max_dim=None):
    """A flat of dimension 1 to max_dim (default d) in R^d, or None."""
    base = data.draw(st.tuples(*[fractions] * d))
    dirs = data.draw(st.lists(st.tuples(*[fractions] * d), min_size=1, max_size=max_dim or d))
    try:
        return AffineFlat.spanning(base, dirs)
    except GeometryError:
        return None


def chart_of(points):
    """The chart convex_hull gives points spanning less than their space:
    based at the first point, with Gram-Schmidt over the differences from it
    that raise the rank, taken in input order."""
    pts = list(dict.fromkeys(as_point(p) for p in points))
    kept = []
    for p in pts[1:]:
        if matrix_rank(kept + [vsub(p, pts[0])]) > len(kept):
            kept.append(vsub(p, pts[0]))
    return AffineFlat(pts[0], orthogonalize(kept))


def chart_fields(poly):
    """Every field of a polytope that lives in its own chart."""
    return poly.chart_vertices, poly._int_facets, poly.facet_vertices, poly.edges()


def assert_conventions(poly):
    """Vertices in lexicographic order, facets canonical and sorted as ints,
    a full-dimensional polytope in the identity chart and a point with no
    chart or facets."""
    assert list(poly.vertices) == sorted(set(poly.vertices))
    assert list(poly._int_facets) == sorted(set(poly._int_facets))
    assert all(math.gcd(*n, c) == 1 for n, c in poly._int_facets)
    if poly.dim == 0:
        assert (poly.span, poly.chart_vertices, poly._int_facets) == (None, ((),), ())
    elif poly.dim == poly.ambient_dim:
        assert poly.span == identity_flat(poly.dim)
        assert poly.chart_vertices == poly.vertices


def _in_dim4_by_brute_force(poly, pts):
    """A full-dimensional hull in R^4 against brute_force_facets of the
    points on their integer grid (facet n.y <= c of the grid y = L x is
    (L n).x <= c), its vertices against the points those facets pin, and
    each facet's vertex set against the vertices on it."""
    scale = math.lcm(*[x.denominator for p in pts for x in p])
    grid = sorted({tuple(int(x * scale) for x in p) for p in pts})
    facets = brute_force_facets(grid)
    expected = {
        _canonical_halfspace(tuple(F(x * scale) for x in n), F(c)) for n, c in facets
    }
    assert set(poly.halfspaces) == expected
    vertices = [
        tuple(F(x, scale) for x in g) for g in grid
        if int_rank([n for n, c in facets if vdot(n, g) == c]) == 4
    ]
    assert poly.vertices == tuple(vertices)
    assert poly.facet_vertices == tuple(
        frozenset(i for i, v in enumerate(vertices) if hs.evaluate(v) == 0) for hs in poly.halfspaces
    )


class TestChartGrid:
    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_rows_times_factors_are_projected_coordinates(self, data):
        d = data.draw(st.integers(1, 4))
        flat = _flats(d, data)
        if flat is None:
            return
        pts = data.draw(_cloud(d, 0, 8))
        rows, factors = flat.chart_grid(pts)
        assert all(f > 0 for f in factors)
        assert all(isinstance(x, int) for row in rows for x in row)
        assert [tuple(g * f for g, f in zip(row, factors)) for row in rows] == [
            flat.projected_coordinates(p) for p in pts
        ]

    def test_wrong_dimension_point(self):
        flat = AffineFlat.spanning((0, 0, 0), [(1, 0, 0)])
        with pytest.raises(DimensionMismatch):
            flat.chart_grid([(1, 2)])


class TestConvexHull:
    @settings(max_examples=80, deadline=None)
    @given(clouds())
    @example([(F(1), F(2), F(3))] * 3)
    @example([(F(0),), (F(3, 2),), (F(-1, 3),), (F(3, 2),)])
    @example([(F(0), F(0), F(0), F(0)), (F(1), F(1), F(1), F(1)), (F(2), F(2), F(2), F(2))])
    @example([(F(2),)])
    @example([(F(1),), (F(3),), (F(2),), (F(1),), (F(5, 2),), (F(-1),)])
    @example([(F(0), F(0), F(0)), (F(1), F(0), F(0)), (F(1), F(1), F(0))])  # pivot order
    def test_certified_with_its_conventions(self, pts):
        poly = convex_hull(pts)
        assert_conventions(poly)
        if 0 < poly.dim < poly.ambient_dim:
            assert poly.span == chart_of(pts)
        if poly.dim == 4:
            _in_dim4_by_brute_force(poly, pts)
        else:
            certify(poly, pts)

    @pytest.mark.parametrize("pts, error", [
        ([], "convex hull of no points"),
        ([(1, 2), (1, 2, 3)], "points live in different dimensions"),
        ([(0,) * 5, (1,) * 5], "ambient dimension 5 unsupported"),
    ])
    def test_errors(self, pts, error):
        with pytest.raises(GeometryError, match=error):
            convex_hull(pts)

    def test_lattice_sphere(self):
        pts = random.Random(3).sample(lattice_sphere(426), 150)
        poly = convex_hull(pts)
        assert len(poly.vertices) == 150
        certify(poly, pts)


def _signed_permutation(rng, d):
    perm, signs = rng.sample(range(d), d), [rng.choice((1, -1)) for _ in range(d)]
    return [[signs[i] * (j == perm[i]) for j in range(d)] for i in range(d)]


def _unimodular(rng, d):
    """An integer matrix of determinant +-1: a signed permutation times
    elementary row additions."""
    m = _signed_permutation(rng, d)
    for _ in range(3 * d):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if i != j:
            c = rng.choice((-2, -1, 1, 2))
            m[i] = [a + c * b for a, b in zip(m[i], m[j])]
    return m


def _map(m, t, p):
    return tuple(sum(a * x for a, x in zip(row, p)) + s for row, s in zip(m, t))


def _map_flat(m, t, flat, orthogonal):
    base = _map(m, t, flat.base)
    dirs = [_map(m, (0,) * len(t), b) for b in flat.basis]
    # an orthogonal map keeps the basis orthogonal, so the chart is kept
    return AffineFlat(base, tuple(dirs)) if orthogonal else AffineFlat.spanning(base, dirs)


MAPS = ["translation", "signed-permutation", "unimodular"]


def _draw_map(rng, kind, d):
    t = tuple(F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d))
    if kind == "translation":
        return [[int(i == j) for j in range(d)] for i in range(d)], t
    if kind == "signed-permutation":
        return _signed_permutation(rng, d), (0,) * d
    return _unimodular(rng, d), t


class TestMetamorphic:
    """Answers commute with the maps that preserve them: a hull with every
    affine map of determinant +-1, a section with affine maps of body and
    flat together, a projection with the orthogonal ones only (a unimodular
    map changes which direction is orthogonal to the subspace)."""

    @settings(max_examples=30, deadline=None)
    @given(clouds(), st.sampled_from(MAPS), st.integers(0, 2**32))
    def test_convex_hull(self, pts, kind, seed):
        poly = convex_hull(pts)
        m, t = _draw_map(random.Random(seed), kind, poly.ambient_dim)
        image = convex_hull([_map(m, t, p) for p in pts])
        assert image.dim == poly.dim
        assert set(image.vertices) == {_map(m, t, v) for v in poly.vertices}
        if poly.dim == poly.ambient_dim:
            # a facet n'.y <= c' of the image pulls back to (n' M).x <= c' - n'.t
            pulled = {
                _canonical_halfspace(
                    tuple(F(vdot(n, col)) for col in zip(*m)), c - vdot(n, t)
                )
                for n, c in image._int_facets
            }
            assert pulled == set(poly.halfspaces)
        elif kind != "unimodular":
            # an isometry moves the span's chart with the points, so the chart
            # answer stays; only a translation keeps the vertex order too
            assert image._int_facets == poly._int_facets
            assert set(image.chart_vertices) == set(poly.chart_vertices)
            if kind == "translation":
                assert chart_fields(image) == chart_fields(poly)

    @settings(max_examples=25, deadline=None)
    @given(clouds(dims=(2, 3, 4)), st.sampled_from(MAPS[:2]), st.integers(0, 2**32), st.data())
    def test_project_with_isometries(self, pts, kind, seed, data):
        body = convex_hull(pts)
        d = body.ambient_dim
        flat = _flats(d, data)
        if flat is None:
            return
        m, t = _draw_map(random.Random(seed), kind, d)
        image = project(convex_hull([_map(m, t, p) for p in pts]), _map_flat(m, t, flat, True))
        proj = project(body, flat).polytope
        # the subspace's chart moves with the map, so the shadow stays; a
        # lower-dimensional shadow is charted from the first body vertex,
        # which a signed permutation may change
        assert set(image.polytope.vertices) == set(proj.vertices)
        if kind == "translation" or proj.dim == flat.dim:
            assert polytope_fields(image.polytope) == polytope_fields(proj)

    @settings(max_examples=25, deadline=None)
    @given(clouds(dims=(2, 3, 4)), st.sampled_from(MAPS), st.integers(0, 2**32), st.data())
    def test_section_with_affine_maps(self, pts, kind, seed, data):
        body = convex_hull(pts)
        d = body.ambient_dim
        flat = _flats(d, data)
        if flat is None:
            return
        m, t = _draw_map(random.Random(seed), kind, d)
        sec = section(body, flat)
        image = section(
            convex_hull([_map(m, t, p) for p in pts]),
            _map_flat(m, t, flat, kind != "unimodular"),
        )
        if sec is None:
            assert image is None
            return
        assert sorted(image.ambient_vertices) == sorted(_map(m, t, v) for v in sec.ambient_vertices)
        assert image.meets_interior == sec.meets_interior
        if kind == "unimodular":
            return
        # an isometry keeps the flat's chart; a lower-dimensional section is
        # charted from its least vertex, which a signed permutation may change
        assert set(image.polytope.vertices) == set(sec.polytope.vertices)
        if kind == "translation" or sec.polytope.dim == flat.dim:
            assert polytope_fields(image.polytope) == polytope_fields(sec.polytope)


@st.composite
def cone_cases(draw):
    """A body and an apex: anywhere, on the plane of a facet (slack 0), or
    on the line through two vertices (two rays in one direction)."""
    body = convex_hull(draw(clouds()))
    d = body.ambient_dim
    how = draw(st.sampled_from(["free", "facet-plane", "collinear"]))
    if how == "free" or len(body.vertices) < 2:
        return body, draw(st.tuples(*[fractions] * d))
    t = draw(st.fractions(F(1, 4), 3, max_denominator=4))
    if how == "facet-plane" and body.dim == d:
        f = draw(st.integers(0, len(body.facet_vertices) - 1))
        on = sorted(body.facet_vertices[f])
        a, b = draw(st.sampled_from(on)), draw(st.sampled_from(on))
    else:
        a, b = draw(st.permutations(range(len(body.vertices))))[:2]
    u, v = body.vertices[a], body.vertices[b]
    return body, tuple(x + t * (x - y) for x, y in zip(u, v))


def scaled_rays(cone, body):
    """Every vertex ray from the apex, scaled onto positive_normal . y = 1."""
    w = cone.positive_normal
    return [tuple(x / vdot(w, g) for x in g) for g in (vsub(v, cone.apex) for v in body.vertices)]


def check_cone(cone, body):
    """The pyramid is the certified hull of 0 and every vertex ray, field for
    field (so the horizon rule drops no ray that matters); the rays are its
    nonzero vertices, and the halfspaces are its facets through 0."""
    rays = scaled_rays(cone, body)
    pyramid = cone.pyramid
    certify_pyramid(pyramid, rays)
    zero = (F(0),) * len(cone.apex)
    assert polytope_fields(pyramid) == polytope_fields(convex_hull([zero, *rays]))
    tops = [v for v in pyramid.vertices if v != zero]
    assert cone.generators == tuple(sorted(map(primitive_direction, tops)))
    assert cone.span_dim == pyramid.dim
    d = len(cone.apex)
    if pyramid.dim < d:
        assert cone.halfspaces is None
        return
    # the forms the CLI's bytes rely on: coprime int normals, offsets 0,
    # sorted by normal
    normals = [hs.normal for hs in cone.halfspaces]
    assert normals == sorted(normals)
    for n in normals:
        assert all(x.denominator == 1 for x in n) and math.gcd(*map(int, n)) == 1
    assert all(hs.offset == 0 for hs in cone.halfspaces)
    assert normals == [n for n, c in pyramid._int_facets if c == 0]
    if d == 1:
        assert normals == [tuple(-x for x in primitive_direction(tops[0]))]


class TestVisualCone:
    @staticmethod
    def check(body, apex):
        try:
            cone = visual_cone(apex, body)
        except ConeError as e:
            assert str(e) == "apex must lie strictly outside the body"
            assert body.contains(apex) != "outside"
            return
        check_cone(cone, body)

    @settings(max_examples=60, deadline=None)
    @given(cone_cases())
    def test_certified(self, case):
        self.check(*case)

    def test_errors(self):
        cube = convex_hull(helpers.CUBE_VERTICES)
        for apex in [(0, 0, 0), (1, 1, 1), (1, 0, 0)]:
            with pytest.raises(ConeError, match="strictly outside"):
                visual_cone(apex, cube)
        with pytest.raises(DimensionMismatch):
            visual_cone((0, 0, 0, 3), cube)

    @pytest.mark.parametrize("apex", [(0, 0, 20), (20, 1, 3), (0, 0, 11), (7, 7, 0)])
    def test_lattice_sphere(self, apex):
        # 150 extreme points; (20, 1, 3) and (7, 7, 0) lie on one facet's
        # plane, and (0, 0, 11) on four, with four pairs of vertices in line
        # with it
        body = convex_hull(random.Random(3).sample(lattice_sphere(101), 150))
        self.check(body, tuple(F(x) for x in apex))

    def test_horizon_rule_drops_interior_rays(self):
        body = convex_hull(lattice_sphere(101))
        seen = []
        real = cones._cone_from_rays

        def spy(apex, directions, w):
            seen.append(len(directions))
            return real(apex, directions, w)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cones, "_cone_from_rays", spy)
            visual_cone((F(40), F(3), F(1)), body)
        assert seen and seen[0] < len(body.vertices) // 2


def _cube(d):
    return convex_hull([tuple(F(1 if b >> i & 1 else -1) for i in range(d)) for b in range(2**d)])


def _flat(base, *dirs):
    return AffineFlat.spanning(base, dirs)


def _honest_answers():
    """name -> (answer, points, chart flat or None) for every kind of
    hull-shaped answer, spanning its chart or of lower dimension."""
    rng = random.Random(5)
    cloud3 = helpers.random_points(rng, 3, 12)
    plane = [(x, y, x - 2 * y + 1) for x, y, _ in cloud3]
    in_3flat = [(x, y, z, x + y - z) for x, y, z in cloud3]
    square = [(0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (2, 2, 0, 0)]
    tetra = convex_hull(in_3flat)
    out = {
        "hull-3d": (convex_hull(cloud3), cloud3, None),
        "hull-2d-in-3d": (convex_hull(plane), plane, None),
        "hull-3d-in-4d": (tetra, in_3flat, None),
        "hull-segment": (convex_hull(cloud3[:2]), cloud3[:2], None),
    }
    shadows = [
        ("project-2d", convex_hull(cloud3), _flat((0, 0, 0), (1, 2, 0), (0, 1, 3))),
        ("project-3d", _cube(4), _flat((0,) * 4, (1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 2))),
        ("project-2d-in-3d", convex_hull(square), _flat((0,) * 4, (1, 0, 0, 1), (0, 1, 0, 0), (0, 0, 1, 0))),
        ("project-segment", convex_hull(cloud3[:2]), _flat((0, 0, 0), (1, 0, 0), (0, 1, 0))),
    ]
    for name, body, flat in shadows:
        out[name] = (project(body, flat).polytope, body.vertices, flat)
    sections = [
        ("section-2d", _cube(3), _flat((0, 0, 0), (1, -1, 0), (1, 1, -2))),
        ("section-3d", _cube(4), _flat((0,) * 4, (1, 1, 0, 0), (0, 0, 1, 1), (1, -1, 0, 0))),
        ("section-2d-in-3d", convex_hull(square), _flat((1, 1, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1))),
        ("section-segment", _cube(3), _flat((1, 1, 0), (0, 0, 1), (1, -1, 0))),
    ]
    for name, body, flat in sections:
        out[name] = (section(body, flat).polytope, section_points_by_subsets(body, flat), flat)
    for name, body, apex in [
        ("cone-pyramid-3d", _cube(3), (F(1, 2), F(1, 3), 3)),
        ("cone-pyramid-3d-in-4d", convex_hull(square), (1, F(1, 3), 2, F(1, 2))),
        ("cone-pyramid-segment", convex_hull([(0, 0, 0), (1, 0, 0)]), (3, 0, 0)),
    ]:
        cone = visual_cone(apex, body)
        out[name] = (cone.pyramid, [(F(0),) * len(apex), *scaled_rays(cone, body)], None)
    xi = (1, 2, 3)
    walk = shadow_walk(_cube(3), xi)
    out["walk-shadow"] = (convex_hull(walk.vertices), _cube(3).vertices, shadow_chart(xi))
    return out


# built on first use, so that a kernel fault fails these tests, not collection
ANSWER_NAMES = [
    "cone-pyramid-3d", "cone-pyramid-3d-in-4d", "cone-pyramid-segment",
    "hull-2d-in-3d", "hull-3d",
    "hull-3d-in-4d", "hull-segment", "project-2d", "project-2d-in-3d", "project-3d",
    "project-segment", "section-2d", "section-2d-in-3d", "section-3d",
    "section-segment", "walk-shadow",
]
# the answers that span less than their chart
LOWER = [n for n in ANSWER_NAMES if n.endswith(("-in-3d", "-in-4d", "segment"))]


@functools.lru_cache(maxsize=1)
def _answers():
    answers = _honest_answers()
    assert sorted(answers) == ANSWER_NAMES
    return answers


class TestCertifierStrength:
    """The checker accepts every honest answer and refuses each wrong one."""

    @pytest.mark.parametrize("name", ANSWER_NAMES)
    def test_accepts_honest_answers(self, name):
        answer, points, flat = _answers()[name]
        assert 1 <= answer.dim <= 3 and (answer.dim == 1) == name.endswith("segment")
        certify(answer, points, flat)

    @pytest.mark.parametrize("name, mutation", [
        (name, mutation)
        for name in ANSWER_NAMES
        for mutation in sorted(SHADOW_MUTATIONS)
        # a segment's vertex lies on one facet, which has no other vertex,
        # and no hyperplane through a vertex cuts a segment
        if not name.endswith("segment") or mutation not in SEGMENT_FREE_MUTATIONS
    ])
    def test_refuses_every_mutation(self, name, mutation):
        answer, points, flat = _answers()[name]
        with pytest.raises(PolytopeError):
            certify(SHADOW_MUTATIONS[mutation](answer), points, flat)

    @pytest.mark.parametrize("name", LOWER)
    def test_refuses_an_answer_moved_off_its_span(self, name):
        answer, points, flat = _answers()[name]
        k = len(answer.vertices[0])
        assert answer.dim < k
        # along an axis that the span's directions miss
        step = next(
            e for e in identity_flat(k).basis
            if AffineFlat.spanning((0,) * k, [*answer.span.basis, e]).dim > answer.dim
        )
        moved = convex_hull([tuple(map(F.__add__, v, step)) for v in answer.vertices])
        with pytest.raises(PolytopeError, match="leave the hull's span"):
            certify(moved, points, flat)

    @pytest.mark.parametrize("mutation", sorted(SHADOW_MUTATIONS))
    def test_refuses_every_mutation_of_a_4d_pyramid(self, mutation):
        # past the certificate's dimensions: checked through its base
        body = _cube(4)
        cone = visual_cone((3, F(1, 2), F(1, 3), F(1, 5)), body)
        rays = scaled_rays(cone, body)
        certify_pyramid(cone.pyramid, rays)
        with pytest.raises((AssertionError, PolytopeError)):
            certify_pyramid(SHADOW_MUTATIONS[mutation](cone.pyramid), rays)

    def test_point_answers(self):
        point = convex_hull([(1, 2, 3)])
        certify(point, [(1, 2, 3)] * 2, None)
        for points in ([(1, 2, 3), (1, 2, 4)], [(1, 2, 4)]):
            with pytest.raises(PolytopeError, match="span"):
                certify(point, points, None)

    def test_hull_of_dimension_four_is_out_of_scope(self):
        with pytest.raises(PolytopeError, match="dimension 0-3"):
            certify(_cube(4), _cube(4).vertices, None)

    def test_facet_vertex_sets_are_checked(self):
        answer, points, flat = _answers()["hull-3d"]
        fv = answer.facet_vertices
        wrong = type(answer)(
            answer.vertices, answer.chart_vertices, answer.span, answer._int_facets,
            fv[1:] + fv[:1],
        )
        with pytest.raises(PolytopeError, match="vertex set"):
            certify(wrong, points, flat)
