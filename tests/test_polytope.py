import inspect
import random
from fractions import Fraction as F
from itertools import product
from math import lcm

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from polysect.geometry import (
    AffineFlat, DimensionMismatch, GeometryError, identity_flat, int_scaled, nullspace,
    vdot, vsub,
)
from polysect.polytope import (
    _slice,
    DiamondConfigError,
    Halfspace,
    Polytope,
    PolytopeError,
    UnboundedPolyhedron,
    check_diamond_boundary,
    convex_hull,
    diamond_hull,
    is_extreme,
    project,
    section,
    supporting_line_test,
    vertices_of,
)

import helpers
from helpers import (
    certify,
    edges_by_face_meet,
    polytope_fields,
    restrict_halfspaces,
    section_points_by_subsets,
    vertices_of_by_subset_scan,
)


@pytest.fixture(scope="module")
def cube():
    return convex_hull(helpers.CUBE_VERTICES)


class TestConvexHull:
    def test_cube_counts_and_halfspaces(self, cube):
        assert len(cube.vertices) == 8
        assert len(cube.halfspaces) == 6
        assert len(cube.edges()) == 12
        expected = set()
        for axis in range(3):
            for sign in (1, -1):
                n = [F(0)] * 3
                n[axis] = F(sign)
                expected.add((tuple(n), F(1)))
        assert {(h.normal, h.offset) for h in cube.halfspaces} == expected

    def test_duplicate_and_interior_points_dropped(self):
        poly = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1), (0, 0)])
        assert len(poly.vertices) == 4
        assert poly.contains((F(1), F(1))) == "interior"

    def test_vertices_sorted_and_deterministic(self):
        rng = random.Random(3)
        pts = helpers.random_points(rng, 3, 14)
        base = convex_hull(pts)
        for seed in range(4):
            shuffled = pts[:]
            random.Random(seed).shuffle(shuffled)
            again = convex_hull(shuffled)
            assert again.vertices == base.vertices
            assert again.halfspaces == base.halfspaces

    def test_low_dimensional_input_gets_span(self):
        tri = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (F(1, 4), F(1, 4), F(0))])
        assert tri.dim == 2 and tri.ambient_dim == 3
        assert len(tri.vertices) == 3
        assert tri.span.dim == 2
        # relative classification
        assert tri.contains((F(1, 4), F(1, 4), F(0))) == "interior"
        assert tri.contains((F(1, 2), F(1, 2), F(0))) == "boundary"
        assert tri.contains((F(1, 4), F(1, 4), F(1, 100))) == "outside"

    def test_segment_polytope(self):
        seg = convex_hull([(0, 0, 0), (2, 2, 2), (1, 1, 1)])
        assert seg.dim == 1
        assert seg.vertices == ((F(0), F(0), F(0)), (F(2), F(2), F(2)))
        assert seg.contains((F(1), F(1), F(1))) == "interior"
        assert seg.contains((F(2), F(2), F(2))) == "boundary"
        assert seg.edges() == ((0, 1),)

    def test_point_polytope(self):
        pt = convex_hull([(1, 2), (1, 2)])
        assert pt.dim == 0
        assert pt.contains((F(1), F(2))) == "interior"
        assert pt.contains((F(1), F(3))) == "outside"

    def test_one_dimensional_input(self):
        pt = convex_hull([(2,)])
        assert pt.dim == 0 and pt.vertices == ((F(2),),) and pt.span is None
        seg = convex_hull([(3,), (F(-1, 2),), (1,), (3,)])
        assert seg.vertices == seg.chart_vertices == ((F(-1, 2),), (F(3),))
        assert seg.span == identity_flat(1)
        assert seg.halfspaces == (
            Halfspace((F(-2),), F(1)),
            Halfspace((F(1),), F(3)),
        )
        assert seg.facet_vertices == (frozenset({0}), frozenset({1}))
        assert seg.contains((F(0),)) == "interior"
        assert seg.contains((F(3),)) == "boundary"
        assert seg.contains((F(4),)) == "outside"

    def test_ambient_dimension_five_rejected(self):
        with pytest.raises(PolytopeError, match="unsupported"):
            convex_hull([(0, 0, 0, 0, 0), (1, 0, 0, 0, 0)])

    def test_four_dimensional_cube(self):
        hc = convex_hull(list(product((-1, 1), repeat=4)))
        assert len(hc.vertices) == 16
        assert len(hc.halfspaces) == 8
        assert len(hc.edges()) == 32

    def test_all_vertices_satisfy_halfspaces(self, cube):
        for hs in cube.halfspaces:
            for cv in cube.chart_vertices:
                assert hs.evaluate(cv) <= 0

    @settings(max_examples=30, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_hull_vertices_match_extreme_oracle(self, seed):
        rng = random.Random(seed)
        pts = helpers.random_points(rng, 2, rng.randint(3, 8), den=4)
        poly = convex_hull(pts)
        assume(poly.dim == 2)
        for p in set(pts):
            assert (p in poly.vertices) == helpers.is_extreme_oracle(pts, p)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=4)
# a coarse grid makes facets with more vertices than the dimension common
lattice = st.integers(min_value=-1, max_value=1).map(F)
grids = st.sampled_from((lattice, rationals))


def points(dim, min_size, max_size, coords=rationals):
    return st.lists(st.tuples(*[coords] * dim), min_size=min_size, max_size=max_size)


def fraction_halfspaces(poly):
    return tuple(Halfspace(tuple(map(F, n)), F(c)) for n, c in poly._int_facets)


class TestOneFacetForm:
    """The facets are stored once, as ints; `halfspaces` is built on each read."""

    def test_five_fields_and_no_halfspaces_slot(self):
        assert list(inspect.signature(Polytope.__init__).parameters) == [
            "self", "vertices", "chart_vertices", "span", "int_facets", "facet_vertices",
        ]
        assert Polytope.__slots__ == (
            "vertices", "chart_vertices", "span", "_int_facets", "facet_vertices", "_edges",
            "_int_vertices",
        )
        assert Polytope.halfspaces.fset is None

    def test_every_hull_dimension(self):
        for k in range(5):
            simplex = [(F(0),) * 4] + [tuple(F(int(i == j)) for j in range(4)) for i in range(k)]
            poly = convex_hull(simplex)
            assert poly.dim == k
            assert len(poly.halfspaces) == (k + 1 if k else 0)
            assert poly.halfspaces == fraction_halfspaces(poly)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_halfspaces_are_the_int_facets_as_fractions(self, data):
        d = data.draw(st.integers(1, 4), label="ambient dim")
        k = data.draw(st.integers(0, d), label="flat dim")
        base = data.draw(st.tuples(*[rationals] * d), label="base")
        vectors = st.tuples(*[rationals] * d)
        dirs = data.draw(st.lists(vectors, min_size=k, max_size=k), label="directions")
        coeffs = data.draw(
            st.lists(st.tuples(*[rationals] * k), min_size=1, max_size=10),
            label="coefficients",
        )
        pts = [
            tuple(b + sum(c * v[j] for c, v in zip(cs, dirs)) for j, b in enumerate(base))
            for cs in coeffs
        ]
        poly = convex_hull(pts)
        assert poly.dim <= k
        assert all(
            type(x) is int for n, c in poly._int_facets for x in n + (c,)
        )
        hss = poly.halfspaces
        assert hss == fraction_halfspaces(poly)
        assert len(hss) == len(poly.facet_vertices)
        if poly.dim == 0:
            assert hss == ()
        else:
            assert poly.halfspaces is not hss  # built again, not cached
        assert not hasattr(poly, "__dict__")
        with pytest.raises(AttributeError):
            poly.halfspaces = hss


class TestIntVertexForm:
    """`_scaled_with(points)` is `int_scaled((*points, *vertices))` with
    tuple rows, from the vertices' ints made once per polytope."""

    @settings(max_examples=120, deadline=None, derandomize=True)
    @given(st.data())
    def test_matches_int_scaled(self, data):
        d = data.draw(st.integers(1, 4), label="dim")
        vden = data.draw(st.integers(1, 12), label="vertex denominator")
        coord = st.integers(-24, 24).map(lambda n: F(n, vden))
        body = convex_hull(data.draw(points(d, 1, 8, coord), label="vertices"))
        D = lcm(*[x.denominator for v in body.vertices for x in v])
        relation = data.draw(st.sampled_from(["coprime", "equal", "divides"]), label="relation")
        if relation == "coprime":
            pden = data.draw(st.sampled_from([p for p in (5, 7, 11, 13) if D % p]))
        elif relation == "equal":
            pden = D
        else:
            pden = data.draw(st.sampled_from([k for k in range(1, D + 1) if D % k == 0]))
        # numerators 1 + k pden are coprime to pden: each coordinate keeps it
        pcoord = st.integers(-3, 3).map(lambda k: F(1 + k * pden, pden))
        pts = data.draw(points(d, 0, 3, pcoord), label="points")
        want, want_den = int_scaled((*pts, *body.vertices))
        for _ in range(2):  # the second call reads the cached vertex form
            rows, den = body._scaled_with(pts)
            assert den == want_den
            assert rows == [tuple(r) for r in want]
            assert all(type(r) is tuple for r in rows)
            assert all(type(x) is int for r in rows for x in r)

    @pytest.mark.parametrize("query", ["section", "project", "cone", "walk", "epsilon"])
    def test_a_second_query_does_not_rescale_the_vertices(self, query, monkeypatch):
        from polysect import cones, criteria, geometry, polytope, silhouette

        body = convex_hull([tuple(x / 2 + F(1, 3) for x in v) for v in helpers.CUBE_VERTICES])
        plane = AffineFlat.spanning((F(1, 3),) * 3, [(1, 0, 0), (0, 1, 1)])
        p, q = body.vertices[0], body.vertices[1]
        run = {
            "section": lambda: section(body, plane),
            "project": lambda: project(body, plane),
            "cone": lambda: cones.visual_cone((0, 0, 5), body),
            "walk": lambda: silhouette.shadow_walk(body, (1, 2, 3)),
            "epsilon": lambda: criteria.no_extreme_in_cone(
                body, p, q, criteria.epsilon_certificate(body, p, q).epsilon
            ),
        }[query]
        n = len(body.vertices)
        scaled = []

        def spy(vectors):
            vectors = list(vectors)
            scaled.append(vectors[-n:] == list(body.vertices))
            return real(vectors)

        real = geometry.int_scaled
        for module in (cones, criteria, geometry, polytope, silhouette):
            monkeypatch.setattr(module, "int_scaled", spy)
        counts = []
        for _ in range(2):
            run()
            counts.append(scaled.count(True))
        assert counts == [1, 1]


class TestEdgeIndex:
    """edges() finds pairs through a vertex-facet index and a rank test; the
    pairs whose smallest common face has no third vertex are the same."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(st.sampled_from((1, 2, 3, 4)), grids).flatmap(
            lambda dg: points(dg[0], 1, 14, dg[1])
        )
    )
    def test_cloud_matches_face_meet(self, pts):
        poly = convex_hull(pts)
        assert poly.edges() == edges_by_face_meet(poly)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_flat_cloud_matches_face_meet(self, data):
        d = data.draw(st.sampled_from((3, 4)), label="ambient dim")
        m = data.draw(st.integers(1, d - 1), label="flat dim")
        dirs = data.draw(points(d, m, m), label="directions")
        coeffs = data.draw(points(m, 1, 12, lattice), label="coefficients")
        pts = [
            tuple(sum(c[j] * dirs[j][i] for j in range(m)) for i in range(d))
            for c in coeffs
        ]
        poly = convex_hull(pts)
        assert poly.edges() == edges_by_face_meet(poly)

    def test_lattice_sphere_matches_face_meet(self):
        pts = random.Random(3).sample(helpers.lattice_sphere(426), 150)
        poly = convex_hull(pts)
        assert len(poly.vertices) == 150
        edges = poly.edges()
        assert edges == edges_by_face_meet(poly)
        # Euler: V - E + F = 2 for a 3-polytope
        assert 150 - len(edges) + len(poly.halfspaces) == 2


def _mean(points):
    return tuple(sum(c) / len(points) for c in zip(*points))


def contains_probes(poly):
    """Chart points with their expected class: vertices, edge midpoints,
    facet centroids, the vertex centroid and points pushed outside."""
    cvs = poly.chart_vertices
    centre = _mean(cvs)
    probes = [(v, "boundary") for v in cvs]
    probes += [
        (_mean([cvs[i], cvs[j]]), "boundary" if poly.dim > 1 else "interior")
        for i, j in poly.edges()
    ]
    facet_centres = [_mean([cvs[i] for i in verts]) for verts in poly.facet_vertices]
    probes += [(f, "boundary") for f in facet_centres]
    probes.append((centre, "interior"))
    for p in list(cvs) + facet_centres:
        for t in (F(1, 3), F(2), F(7, 5)):
            q = tuple(c + t * (x - c) for x, c in zip(p, centre))
            probes.append((q, "interior" if t < 1 else "outside"))
    return probes


class TestIntegerContains:
    """chart_contains evaluates integer facets at a denominator-cleared
    point; vertices, edge midpoints, facet centroids and points pushed in
    or out from the centroid get their known class."""

    def check(self, poly):
        for q, expected in contains_probes(poly):
            got = poly.chart_contains(q)
            assert got == expected
            assert poly.contains(poly.span.point_at(q)) == got

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(st.sampled_from((1, 2, 3, 4)), grids).flatmap(
            lambda dg: points(dg[0], 1, 12, dg[1])
        )
    )
    def test_full_dimensional_cloud(self, pts):
        poly = convex_hull(pts)
        assume(poly.dim == len(pts[0]))
        assert all(x.denominator == 1 for hs in poly.halfspaces for x in hs.normal)
        self.check(poly)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_flat_cloud(self, data):
        d = data.draw(st.sampled_from((2, 3, 4)), label="ambient dim")
        m = data.draw(st.integers(1, d - 1), label="flat dim")
        base = data.draw(st.tuples(*[rationals] * d), label="base")
        dirs = data.draw(points(d, m, m), label="directions")
        coeffs = data.draw(points(m, 1, 12, data.draw(grids)), label="coefficients")
        pts = [
            tuple(base[i] + sum(c[j] * dirs[j][i] for j in range(m)) for i in range(d))
            for c in coeffs
        ]
        poly = convex_hull(pts)
        assume(0 < poly.dim < d)
        self.check(poly)
        normal = poly.span.normal_directions()[0]
        off_span = tuple(x + n for x, n in zip(poly.vertices[0], normal))
        assert poly.contains(off_span) == "outside"

    def test_lattice_sphere(self):
        poly = convex_hull(random.Random(3).sample(helpers.lattice_sphere(94), 60))
        self.check(poly)

    @pytest.mark.parametrize("pts", [
        helpers.CUBE_VERTICES,
        [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
        [(1, 2, 3)],
    ], ids=["cube", "triangle-in-3d", "point"])
    @pytest.mark.parametrize("point", [(0, 0, 0, 9), (5, 0)])
    def test_wrong_dimension_point_raises(self, pts, point):
        poly = convex_hull(pts)
        for query in (poly.contains, poly.face_of):
            with pytest.raises(DimensionMismatch):
                query(point)

    @pytest.mark.parametrize("pts", [
        helpers.CUBE_VERTICES, [(0, 0, 0), (1, 0, 0), (0, 1, 0)],
    ], ids=["cube", "triangle-in-3d"])
    def test_wrong_dimension_chart_point_raises(self, pts):
        poly = convex_hull(pts)
        for chart_point in ((0,) * (poly.dim + 1), (0,) * (poly.dim - 1)):
            for query in (poly.chart_contains, poly.active_facets):
                with pytest.raises(DimensionMismatch):
                    query(chart_point)


class TestFaces:
    def test_face_of_vertex_and_edge(self, cube):
        corner = cube.face_of((F(1), F(1), F(1)))
        assert corner.vertices == ((F(1), F(1), F(1)),)
        edge_mid = cube.face_of((F(1), F(1), F(0)))
        assert set(edge_mid.vertices) == {(F(1), F(1), F(-1)), (F(1), F(1), F(1))}
        inside = cube.face_of((F(0), F(0), F(0)))
        assert inside.active == frozenset()
        assert len(inside.vertices) == 8

    def test_face_to_polytope(self, cube):
        top = next(
            cube.facet(i)
            for i, hs in enumerate(cube.halfspaces)
            if hs.normal == (F(0), F(0), F(1))
        )
        face_poly = top.to_polytope()
        assert face_poly.dim == 2
        assert all(v[2] == 1 for v in face_poly.vertices)

    def test_boundary_cycle_square(self):
        sq = convex_hull([(0, 0), (1, 0), (1, 1), (0, 1)])
        cyc = sq.boundary_cycle()
        pts = [sq.vertices[i] for i in cyc]
        # consecutive cross products all positive: counterclockwise convex cycle
        n = len(pts)
        for i in range(n):
            a, b, c = pts[i], pts[(i + 1) % n], pts[(i + 2) % n]
            cr = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
            assert cr > 0


class TestSection:
    def test_cube_hexagon_matches_edge_oracle(self, cube):
        flat = AffineFlat.spanning((0, 0, 0), [(1, -1, 0), (1, 1, -2)])
        sec = section(cube, flat)
        assert sec is not None and sec.meets_interior
        expected = helpers.edge_plane_crossings(
            helpers.CUBE_EDGES, (F(1), F(1), F(1)), F(0)
        )
        assert sorted(sec.ambient_vertices) == expected
        assert len(sec.polytope.vertices) == 6
        # chart and ambient stay aligned
        for cv, av in zip(sec.polytope.vertices, sec.ambient_vertices):
            assert flat.point_at(cv) == av

    def test_plane_through_vertex_only(self, cube):
        # x+y+z = 3 touches the cube at its corner
        flat = AffineFlat.spanning((1, 1, 1), [(1, -1, 0), (1, 1, -2)])
        sec = section(cube, flat)
        assert sec is not None
        assert sec.polytope.dim == 0
        assert sec.ambient_vertices == ((F(1), F(1), F(1)),)
        assert sec.meets_interior is False

    def test_missing_plane(self, cube):
        flat = AffineFlat.spanning((5, 5, 5), [(1, -1, 0), (1, 1, -2)])
        assert section(cube, flat) is None

    def test_line_section(self, cube):
        line = AffineFlat.spanning((0, 0, 0), [(1, 1, 1)])
        sec = section(cube, line)
        assert sec is not None and sec.polytope.dim == 1
        assert sorted(sec.ambient_vertices) == [
            (F(-1), F(-1), F(-1)),
            (F(1), F(1), F(1)),
        ]

    def test_facet_plane_section(self, cube):
        flat = AffineFlat.spanning((1, 0, 0), [(0, 1, 0), (0, 0, 1)])
        sec = section(cube, flat)
        assert sec is not None
        assert len(sec.polytope.vertices) == 4
        assert sec.meets_interior is False

    def test_four_dimensional_section(self):
        hc = convex_hull(list(product((-1, 1), repeat=4)))
        flat = AffineFlat.spanning(
            (0, 0, 0, 0), [(1, 1, 0, 0), (0, 0, 1, 1), (1, -1, 0, 0)]
        )
        sec = section(hc, flat)
        assert sec is not None and sec.meets_interior
        assert sec.polytope.dim == 3
        for av in sec.ambient_vertices:
            assert hc.contains(av) == "boundary"

    @settings(max_examples=20, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_section_vertices_live_on_body_boundary(self, seed):
        rng = random.Random(seed)
        body = helpers.centered_polytope(rng, 3, 9, den=4)
        direction = [
            tuple(F(rng.randint(-3, 3)) for _ in range(3)) for _ in range(2)
        ]
        assume(
            len(
                {
                    d
                    for d in direction
                    if any(x != 0 for x in d)
                }
            )
            == 2
        )
        try:
            flat = AffineFlat.spanning((0, 0, 0), direction)
        except Exception:
            assume(False)
        assume(flat.dim == 2)
        sec = section(body, flat)
        assert sec is not None  # the origin is interior, so the flat hits
        assert sec.meets_interior
        for av in sec.ambient_vertices:
            assert body.contains(av) == "boundary"


class TestProjection:
    def test_cube_shadow_on_axis_plane(self, cube):
        flat = AffineFlat.spanning((0, 0, 0), [(1, 0, 0), (0, 1, 0)])
        proj = project(cube, flat)
        assert len(proj.polytope.vertices) == 4
        assert {tuple(v) for v in proj.ambient_vertices} == {
            (F(sx), F(sy), F(0)) for sx in (-1, 1) for sy in (-1, 1)
        }

    def test_cube_shadow_along_diagonal_is_hexagon(self, cube):
        flat = AffineFlat.spanning((0, 0, 0), [(1, -1, 0), (1, 1, -2)])
        proj = project(cube, flat)
        assert len(proj.polytope.vertices) == 6

    def test_wrong_dimension_raises(self, cube):
        with pytest.raises(DimensionMismatch):
            project(cube, AffineFlat.spanning((0, 0), [(1, 0)]))

    def test_projection_onto_line(self, cube):
        flat = AffineFlat.spanning((0, 0, 0), [(1, 1, 1)])
        proj = project(cube, flat)
        assert proj.polytope.dim == 1
        assert sorted(proj.ambient_vertices) == [
            (F(-1), F(-1), F(-1)),
            (F(1), F(1), F(1)),
        ]


class TestVerticesOf:
    def test_cube_round_trip(self, cube):
        poly = vertices_of(cube.halfspaces)
        assert poly.vertices == cube.vertices
        assert poly.halfspaces == cube.halfspaces

    def test_empty_intersection(self):
        hss = [
            Halfspace((F(1), F(0)), F(-1)),
            Halfspace((F(-1), F(0)), F(-1)),
            Halfspace((F(0), F(1)), F(1)),
            Halfspace((F(0), F(-1)), F(1)),
        ]
        assert vertices_of(hss) is None

    def test_unbounded_detected(self):
        with pytest.raises(UnboundedPolyhedron):
            vertices_of([Halfspace((F(1), F(0)), F(1)), Halfspace((F(0), F(1)), F(1))])

    def test_rank_deficient_slab_unbounded(self):
        with pytest.raises(UnboundedPolyhedron):
            vertices_of(
                [
                    Halfspace((F(1), F(0), F(0)), F(1)),
                    Halfspace((F(-1), F(0), F(0)), F(1)),
                ]
            )

    def test_rank_deficient_empty(self):
        assert (
            vertices_of(
                [
                    Halfspace((F(1), F(0), F(0)), F(-1)),
                    Halfspace((F(-1), F(0), F(0)), F(-1)),
                ]
            )
            is None
        )

    def test_simplex_round_trip(self):
        simplex = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
        poly = vertices_of(simplex.halfspaces)
        assert poly.vertices == simplex.vertices

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_round_trips(self, seed):
        rng = random.Random(seed)
        body = helpers.centered_polytope(rng, 3, 8, den=2)
        back = vertices_of(body.halfspaces)
        assert back is not None
        assert back.vertices == body.vertices

    def test_five_dimensional_systems_rejected(self):
        # bounded, and empty: both fail up front, as convex_hull does
        for offset in (F(1), F(-1)):
            hss = [
                Halfspace(tuple(F(s if i == axis else 0) for i in range(5)), offset)
                for axis in range(5) for s in (1, -1)
            ]
            with pytest.raises(PolytopeError, match="unsupported"):
                vertices_of(hss)

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_matches_subset_scan(self, data):
        d = data.draw(st.integers(1, 4), label="dim")
        hss = data.draw(halfspace_systems(d), label="halfspaces")
        assert vertices_of_outcome(vertices_of, hss) == vertices_of_outcome(
            vertices_of_by_subset_scan, hss
        )

    def test_subset_scan_sweep_reaches_every_outcome(self):
        rng = random.Random(11)
        kinds = set()
        for _ in range(240):
            d = rng.randint(1, 4)
            free = rng.choice((0, 0, 0, rng.randint(0, d - 1)))
            hss, m = [], rng.randint(d + 1, d + 4)
            while len(hss) < m:
                n = [F(rng.randint(-2, 2)) for _ in range(d - free)] + [F(0)] * free
                if any(n):
                    hss.append(Halfspace(tuple(n), F(rng.randint(-2, 6), 2)))
            got = vertices_of_outcome(vertices_of, hss)
            assert got == vertices_of_outcome(vertices_of_by_subset_scan, hss), hss
            kinds.add(got[0])
        assert kinds == {"empty", "unbounded", "polytope"}


def halfspace_systems(d):
    """Halfspace lists in dimension d with small integer normals; a drawn
    number of trailing coordinates is zero in every normal, so some systems
    are rank-deficient."""
    free = st.integers(0, d - 1)
    coords = st.integers(-2, 2).map(F)
    offsets = st.fractions(min_value=-2, max_value=3, max_denominator=2)

    def system(z):
        normal = st.tuples(*[coords] * (d - z)).filter(any).map(
            lambda n: n + (F(0),) * z
        )
        hs = st.builds(Halfspace, normal, offsets)
        return st.lists(hs, min_size=1, max_size=d + 4)

    return free.flatmap(system)


def vertices_of_outcome(route, hss):
    try:
        poly = route(hss)
    except UnboundedPolyhedron as e:
        return ("unbounded", str(e))
    if poly is None:
        return ("empty",)
    return ("polytope", polytope_fields(poly))


class TestSlice:
    """_slice's integer cut by its definition: the vertices on the plane,
    then the crossing of every edge whose ends lie strictly on opposite
    sides, in edges() order, each point as ints over a positive int."""

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_matches_its_definition(self, data):
        d = data.draw(st.integers(2, 4), label="dim")
        small = st.fractions(min_value=-2, max_value=2, max_denominator=3)
        body = convex_hull(data.draw(points(d, d + 1, 2 * d + 2, small), label="body"))
        normal = data.draw(st.tuples(*[small] * d).filter(any), label="normal")
        point = data.draw(
            st.one_of(
                st.just(body.interior_point()),
                st.sampled_from(body.vertices),
                # beyond the body's box [-2, 2]^d
                st.tuples(*[small] * d).map(lambda p: tuple(3 + abs(x) for x in p)),
            ),
            label="point",
        )
        cut = _slice(body, normal, point)
        level = sum(n * x for n, x in zip(normal, point))
        side = [(v > level) - (v < level) for v in (vdot(normal, u) for u in body.vertices)]
        assert [ids for _, _, ids in cut] == [(i,) for i, s in enumerate(side) if s == 0] + [
            (i, j) for i, j in body.edges() if side[i] * side[j] < 0
        ]
        for X, den, ids in cut:
            assert type(den) is int and den > 0 and all(type(c) is int for c in X)
            x = tuple(F(c, den) for c in X)
            assert vdot(normal, x) == level
            if len(ids) == 1:
                assert x == body.vertices[ids[0]]
            else:  # on the segment: x = a + t (b - a) for one t in (0, 1)
                a, b = (body.vertices[i] for i in ids)
                t = {(p - q) / (r - q) for p, q, r in zip(x, a, b) if r != q}
                assert len(t) == 1 and 0 < t.pop() < 1
                assert all(p == q for p, q, r in zip(x, a, b) if r == q)


class TestSectionDifferential:
    """section() against the H-route: restrict_halfspaces, then vertices_of."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_section_matches_halfspace_route(self, data):
        d = data.draw(st.sampled_from((3, 4)), label="ambient dim")
        small = st.fractions(min_value=-2, max_value=2, max_denominator=2)
        pts = data.draw(points(d, d + 1, 2 * d + 1, small), label="body points")
        body = convex_hull(pts)
        assume(body.dim == d)
        m = data.draw(st.integers(1, d - 1), label="flat dim")
        base = data.draw(
            st.one_of(
                st.just(body.interior_point()),
                st.sampled_from(body.vertices),
                st.tuples(*[small] * d),
            ),
            label="flat base",
        )
        dirs = data.draw(points(d, m, m, small), label="flat directions")
        try:
            flat = AffineFlat.spanning(base, dirs)
        except GeometryError:
            assume(False)
        sec = section(body, flat)
        restricted = restrict_halfspaces(body.halfspaces, flat)
        ref = None if restricted is None else vertices_of(restricted)
        if sec is None or ref is None:
            assert sec is None and ref is None
        else:
            assert set(sec.polytope.vertices) == set(ref.vertices)


@st.composite
def sections_through_faces(draw):
    """A body (possibly flat) and a flat through one of its vertices, edge
    midpoints or facet centroids, or through any point; for full-dimensional
    bodies the flat may lie in a hyperplane supporting the body at that face."""
    d = draw(st.sampled_from((3, 4)), label="ambient dim")
    pts = draw(points(d, 2, 2 * d + 2, draw(grids)), label="body points")
    if draw(st.booleans(), label="flat body"):
        pts = [p[:-1] + (F(0),) for p in pts]
    body = convex_hull(pts)
    faces = [(i,) for i in range(len(body.vertices))] + list(body.edges())
    faces += [tuple(sorted(f)) for f in body.facet_vertices]
    face = draw(st.sampled_from(faces), label="face")
    base = tuple(sum(c) / len(face) for c in zip(*(body.vertices[i] for i in face)))
    if draw(st.booleans(), label="base anywhere"):
        base = draw(st.tuples(*[rationals] * d), label="base")
    m = draw(st.integers(1, d - 1), label="flat dim")
    if body.dim == d and draw(st.booleans(), label="supporting"):
        normal = (F(0),) * d
        for hs, verts in zip(body.halfspaces, body.facet_vertices):
            if set(face) <= verts:
                normal = tuple(a + b for a, b in zip(normal, hs.normal))
        dirs = draw(st.permutations(nullspace([normal])), label="directions")[:m]
    else:
        small = st.fractions(min_value=-2, max_value=2, max_denominator=2)
        dirs = draw(points(d, m, m, small), label="directions")
    try:
        return body, AffineFlat.spanning(base, dirs)
    except GeometryError:
        assume(False)


def certify_in_chart(poly, points, flat):
    """Certify a hull of dimension 3 or less; a 4-polytope here is a body of
    R^4 in a chart of the whole space, whose points are all vertices."""
    if poly.dim < 4:
        certify(poly, points, flat)
    else:
        assert set(poly.vertices) == {flat.projected_coordinates(p) for p in points}


def check_section(body, flat):
    """section() against the brute-force point set: None when that is empty,
    else its certified hull in the flat's chart with sorted vertices, lifted
    to the ambient vertices, charted from its least vertex when it spans
    less than the flat, and meeting the body's relative interior exactly
    when its vertex centroid does."""
    sec = section(body, flat)
    pts = section_points_by_subsets(body, flat)
    if not pts:
        assert sec is None
        return None
    certify_in_chart(sec.polytope, pts, flat)
    assert list(sec.polytope.vertices) == sorted(sec.polytope.vertices)
    assert sec.ambient_vertices == tuple(map(flat.point_at, sec.polytope.vertices))
    if 0 < sec.polytope.dim < flat.dim:
        assert sec.polytope.span.base == flat.coordinates(min(sec.ambient_vertices))
    centroid = tuple(sum(c) / len(c) for c in zip(*sec.ambient_vertices))
    assert sec.meets_interior == (body.contains(centroid) == "interior")
    return sec


class TestSectionThroughFaces:
    """Sections through vertices, edges and facets, and in supporting
    hyperplanes, are certified against the brute-force point set."""

    @settings(max_examples=60, deadline=None)
    @given(sections_through_faces())
    @example(  # a flat triangle cut in a segment listed against sorted order
        (convex_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0)]),
         AffineFlat.spanning((F(3, 2), 0, 0), [(-1, F(3, 2), 0), (0, 0, 1)]))
    )
    def test_certified_against_subset_points(self, case):
        check_section(*case)


class TestSupportingLine:
    def test_square_cases(self):
        sq = convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)])
        along_edge = AffineFlat.spanning((0, 0), [(1, 0)])
        through_inside = AffineFlat.spanning((0, 0), [(1, 1)])
        corner_only = AffineFlat.spanning((0, 0), [(1, -1)])
        missing = AffineFlat.spanning((5, 0), [(0, 1)])
        assert supporting_line_test(along_edge, sq) is True
        assert supporting_line_test(through_inside, sq) is False
        assert supporting_line_test(corner_only, sq) is True
        assert supporting_line_test(missing, sq) is False

    def test_cube_cases(self, cube):
        along_edge = AffineFlat.spanning((1, 1, 0), [(0, 0, 1)])
        in_facet_plane = AffineFlat.spanning((0, 0, 1), [(1, 0, 0)])
        through_inside = AffineFlat.spanning((0, 0, 0), [(1, 2, 3)])
        assert supporting_line_test(along_edge, cube) is True
        assert supporting_line_test(in_facet_plane, cube) is True
        assert supporting_line_test(through_inside, cube) is False

    def test_degenerate_body(self):
        tri = convex_hull([(0, 0, 0), (2, 0, 0), (0, 2, 0)])
        crossing_plane_inside = AffineFlat.spanning((F(1, 2), F(1, 2), -1), [(0, 0, 1)])
        crossing_plane_on_edge = AffineFlat.spanning((1, 0, -1), [(0, 0, 1)])
        inside_plane_through = AffineFlat.spanning((F(1, 2), F(1, 2), 0), [(1, 1, 0)])
        inside_plane_support = AffineFlat.spanning((0, 0, 0), [(1, -1, 0)])
        off_plane = AffineFlat.spanning((0, 0, 5), [(1, 0, 0)])
        assert supporting_line_test(crossing_plane_inside, tri) is False
        assert supporting_line_test(crossing_plane_on_edge, tri) is True
        assert supporting_line_test(inside_plane_through, tri) is False
        assert supporting_line_test(inside_plane_support, tri) is True
        assert supporting_line_test(off_plane, tri) is False

    def test_wrong_flat_dimension_rejected(self, cube):
        plane = AffineFlat.spanning((0, 0, 0), [(1, 0, 0), (0, 1, 0)])
        with pytest.raises(PolytopeError):
            supporting_line_test(plane, cube)


class TestExtreme:
    def test_vertices_and_midpoints(self, cube):
        assert is_extreme((1, 1, 1), cube) is True
        assert is_extreme((0, 0, 1), cube) is False
        with pytest.raises(PolytopeError):
            is_extreme((3, 0, 0), cube)

    def test_accepts_raw_points(self):
        pts = [(0, 0), (2, 0), (0, 2), (1, 1)]
        assert is_extreme((0, 0), pts) is True
        assert is_extreme((1, 1), pts) is False


class TestDiamond:
    def _facet_segment_config(self, cube):
        q_face = convex_hull([(F(-1, 2), F(-1, 2), F(1)), (F(1, 2), F(1, 2), F(1))])
        p = (F(-1, 2), F(1, 2), F(1))
        q = (F(1, 2), F(-1, 2), F(1))
        return q_face, p, q

    def test_valid_crossing_builds_hull(self, cube):
        q_face, p, q = self._facet_segment_config(cube)
        dia = diamond_hull(q_face, p, q)
        assert set(dia.vertices) == set(q_face.vertices) | {p, q}
        assert check_diamond_boundary(cube, dia) is True

    def test_endpoint_contact_rejected(self, cube):
        q_face, p, _ = self._facet_segment_config(cube)
        with pytest.raises(DiamondConfigError):
            diamond_hull(q_face, (F(0), F(0), F(1)), (F(1, 2), F(-1, 2), F(1)))

    def test_miss_rejected(self, cube):
        q_face, _, _ = self._facet_segment_config(cube)
        with pytest.raises(DiamondConfigError):
            diamond_hull(q_face, (F(-1, 2), F(1, 2), F(1)), (F(-1, 4), F(1, 4), F(1)))

    def test_off_plane_miss_rejected(self, cube):
        q_face, _, _ = self._facet_segment_config(cube)
        with pytest.raises(DiamondConfigError):
            diamond_hull(q_face, (F(-1, 2), F(1, 2), F(0)), (F(1, 2), F(-1, 2), F(0)))

    def test_overlap_rejected(self, cube):
        q_face, _, _ = self._facet_segment_config(cube)
        with pytest.raises(DiamondConfigError):
            diamond_hull(q_face, (F(-3, 4), F(-3, 4), F(1)), (F(3, 4), F(3, 4), F(1)))

    def test_crossing_point_face(self, cube):
        # the face is a single point; the segment pivots through it
        q_face = convex_hull([(F(0), F(0), F(1))])
        dia = diamond_hull(q_face, (F(-1, 2), F(0), F(1)), (F(1, 2), F(0), F(1)))
        assert check_diamond_boundary(cube, dia) is True

    def test_interior_vertex_fails_check(self, cube):
        q_face, p, q = self._facet_segment_config(cube)
        dia = convex_hull(q_face.vertices + (p, (F(1, 4), F(-1, 4), F(1, 2))))
        assert check_diamond_boundary(cube, dia) is False
        dia2 = convex_hull(q_face.vertices + ((F(0), F(0), F(0)), q))
        assert check_diamond_boundary(cube, dia2) is False

    def test_outside_diamond_raises(self, cube):
        q_face, p, q = self._facet_segment_config(cube)
        with pytest.raises(PolytopeError):
            check_diamond_boundary(cube, convex_hull((p, q, (F(3), F(0), F(0)))))

    def test_cross_facet_diamond_fails_check(self, cube):
        # two facet midpoints: their segment midpoint is interior
        dia = convex_hull([(F(1), F(0), F(0)), (F(-1), F(0), F(0))])
        assert check_diamond_boundary(cube, dia) is False

    @settings(max_examples=25, deadline=None)
    @given(st.integers(min_value=0, max_value=10_000))
    def test_random_facet_configurations_hold(self, seed):
        rng = random.Random(seed)
        body = helpers.centered_polytope(rng, 3, 8, den=2)
        facet_idx = rng.randrange(len(body.halfspaces))
        face = body.facet(facet_idx).to_polytope()
        assume(face.dim == 2)
        centre = face.interior_point()
        a = vsub(face.vertices[0], centre)
        others = [v for v in face.vertices[1:] if v != face.vertices[0]]
        b = vsub(others[-1], centre)
        # need two genuinely different directions inside the facet
        assume(
            any(
                a[i] * b[j] != a[j] * b[i]
                for i in range(3)
                for j in range(i + 1, 3)
            )
        )
        shrink = F(1, 3)
        q_face = convex_hull(
            [
                vsub(centre, tuple(x * shrink for x in a)),
                tuple(c + x * shrink for c, x in zip(centre, a)),
            ]
        )
        p = tuple(c + x * shrink for c, x in zip(centre, b))
        q = vsub(centre, tuple(x * shrink for x in b))
        dia = diamond_hull(q_face, p, q)
        assert check_diamond_boundary(body, dia) is True


def _chord(body, base, u):
    """(lo, hi) of {t : base + t u in body} from the line's brute-force
    section points, whose chart coordinate is t; None when the line misses."""
    line = AffineFlat(base, (u,))
    ts = [line.coordinates(x)[0] for x in section_points_by_subsets(body, line)]
    return (min(ts), max(ts)) if ts else None


def _diamond_by_chord(face, p, q):
    """diamond_hull with the chord read off the brute-force section points."""
    if p == q:
        raise DiamondConfigError("segment endpoints coincide")
    chord = _chord(face, p, vsub(q, p))
    if chord is None or chord[0] > 1 or chord[1] < 0:
        raise DiamondConfigError("segment misses the face")
    lo, hi = max(chord[0], F(0)), min(chord[1], F(1))
    if lo != hi:
        raise DiamondConfigError("segment overlaps the face in more than a point")
    if lo == 0 or lo == 1:
        raise DiamondConfigError("segment meets the face at an endpoint")
    return convex_hull(face.vertices + (p, q))


def _outcome(route, *args):
    try:
        return polytope_fields(route(*args))
    except GeometryError as exc:  # the error type and message are outcomes too
        return (type(exc), str(exc))


def _line_case(seed):
    """A random body of any dimension in dimension 1-4 and a line by it."""
    rng = random.Random(seed)
    d = rng.randint(1, 4)
    body = helpers.polytope_of_dim(rng, d, rng.randint(0, d))
    base, u = helpers.random_line(rng, body)
    return rng, body, base, u


def _diamond_case(seed):
    """A face of any dimension and a segment on a line by it, whose ends
    sit at, before or beyond a point of the line or the face's centroid."""
    rng, face, base, u = _line_case(seed)
    x = rng.choice((base, face.interior_point()))
    p = tuple(a - rng.choice((0, F(1, 2), 1, 3)) * b for a, b in zip(x, u))
    q = tuple(a + rng.choice((0, F(1, 3), 1, 2)) * b for a, b in zip(x, u))
    return face, p, q


class TestLineSectionRoute:
    """supporting_line_test and diamond_hull read the chord off `section`;
    the chord of the brute-force section points is the reference."""

    def _check(self, body, base, u):
        line = AffineFlat(base, (u,))
        ref = _chord(body, base, u)
        sec = section(body, line)
        # the chart coordinate of base + t*u is t
        if sec is None:
            assert ref is None
        else:
            assert ref == (sec.polytope.vertices[0][0], sec.polytope.vertices[-1][0])
        supported = ref is not None and body.contains(
            line.point_at(((ref[0] + ref[1]) / 2,))
        ) != "interior"
        assert supporting_line_test(line, body) is supported
        return ref

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_chord_matches_subset_points(self, seed):
        _, body, base, u = _line_case(seed)
        self._check(body, base, u)

    def test_every_outcome_class_occurs(self):
        seen = set()
        for seed in range(150):
            _, body, base, u = _line_case(seed)
            chord = self._check(body, base, u)
            kind = "none" if chord is None else (
                "point" if chord[0] == chord[1] else "segment"
            )
            seen.add((body.ambient_dim, body.dim, kind))
        assert {c for _, _, c in seen} == {"none", "point", "segment"}
        assert {(d, k) for d, k, _ in seen} == {
            (d, k) for d in range(1, 5) for k in range(d + 1)
        }
        for d in range(2, 5):
            assert {c for dd, _, c in seen if dd == d} == {"none", "point", "segment"}

    @settings(max_examples=120, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_diamond_matches_subset_points(self, seed):
        face, p, q = _diamond_case(seed)
        assert _outcome(diamond_hull, face, p, q) == _outcome(
            _diamond_by_chord, face, p, q
        )

    def test_diamond_outcomes_cover_every_error(self):
        outcomes = set()
        for seed in range(150):
            face, p, q = _diamond_case(seed)
            got = _outcome(diamond_hull, face, p, q)
            assert got == _outcome(_diamond_by_chord, face, p, q)
            outcomes.add(got[1] if isinstance(got[1], str) else "hull")
        assert outcomes == {
            "hull",
            "segment endpoints coincide",
            "segment misses the face",
            "segment overlaps the face in more than a point",
            "segment meets the face at an endpoint",
        }

    def test_wrong_dimension_line_raises(self, cube):
        with pytest.raises(DimensionMismatch):
            supporting_line_test(AffineFlat.spanning((0, 0), [(1, 0)]), cube)
        with pytest.raises(DimensionMismatch):
            diamond_hull(cube, (0, 0), (1, 1))


class TestWholeSpaceSection:
    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_flat_spanning_the_space_gives_the_body(self, seed):
        rng = random.Random(seed)
        d = rng.randint(1, 4)
        body = helpers.polytope_of_dim(rng, d, rng.randint(0, d))
        sec = section(body, identity_flat(d))
        assert sec.ambient_vertices == body.vertices
        assert sec.polytope.vertices == body.vertices
        assert sec.meets_interior
        if body.dim == d:
            assert polytope_fields(sec.polytope) == polytope_fields(body)
        # any chart of the whole space: the body in that chart
        while True:
            dirs = helpers.random_points(rng, d, d, -2, 2, 1)
            if helpers.matrix_rank(dirs) == d:
                break
        flat = AffineFlat.spanning(helpers.random_points(rng, d, 1)[0], dirs)
        sec = section(body, flat)
        assert sorted(sec.ambient_vertices) == list(body.vertices)
        assert sec.polytope.dim == body.dim
        assert polytope_fields(sec.polytope) == polytope_fields(
            # section hulls the chart points in the order of the ambient ones
            convex_hull([flat.coordinates(v) for v in body.vertices])
        )


def _chart_rows_case(seed):
    """A body of any dimension in R^d, d = 1..4, and a flat of any dimension
    through a vertex, an edge midpoint, the centroid or any point, spanned by
    differences of body vertices or by random directions."""
    rng = random.Random(seed)
    d = rng.randint(1, 4)
    body = helpers.polytope_of_dim(rng, d, rng.randint(0, d))
    verts = body.vertices
    kind = rng.randrange(4)
    if kind == 0:
        base = rng.choice(verts)
    elif kind == 1 and len(verts) > 1:
        a, b = rng.sample(verts, 2)
        base = tuple((x + y) / 2 for x, y in zip(a, b))
    elif kind == 2:
        base = body.interior_point()
    else:
        base = helpers.random_points(rng, d, 1)[0]
    m = rng.randint(1, d)
    while True:
        dirs = []
        for _ in range(m):
            if len(verts) > 1 and rng.random() < 0.5:
                a, b = rng.sample(verts, 2)
                dirs.append(vsub(b, a))
            else:
                dirs.append(helpers.random_points(rng, d, 1, -2, 2, 2)[0])
        try:
            flat = AffineFlat.spanning(base, dirs)
        except GeometryError:
            continue
        if flat.dim == m:
            return body, flat


def _outcome_classes(poly, flat):
    """The classes a section or shadow in the flat's chart falls in."""
    if poly is None:
        return {"empty"}
    out = {("point", "segment")[poly.dim] if poly.dim < 2 else "polytope"}
    out.add("full" if poly.dim == flat.dim else "lower-dimensional")
    return out


EVERY_OUTCOME = {"empty", "point", "segment", "polytope", "full", "lower-dimensional"}


class TestChartRowsHull:
    """section() and project() hull `chart_grid` rows through one helper;
    the section is certified against the brute-force point set and the
    shadow against the body's vertices, a lower-dimensional shadow charted
    from the first vertex's image."""

    @staticmethod
    def check(body, flat):
        sec = check_section(body, flat)
        proj = project(body, flat)
        certify_in_chart(proj.polytope, body.vertices, flat)
        assert list(proj.polytope.vertices) == sorted(proj.polytope.vertices)
        if 0 < proj.polytope.dim < flat.dim:
            assert proj.polytope.span.base == flat.projected_coordinates(body.vertices[0])
        # lifted on read, each to the projection of a body vertex
        lifted = proj.ambient_vertices
        assert lifted == tuple(flat.point_at(cv) for cv in proj.polytope.vertices)
        assert set(lifted) <= {flat.project_point(v) for v in body.vertices}
        return _outcome_classes(sec and sec.polytope, flat), _outcome_classes(
            proj.polytope, flat
        )

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_certified(self, seed):
        self.check(*_chart_rows_case(seed))

    def test_sweep_reaches_every_outcome(self):
        sections, shadows = set(), set()
        for seed in range(300):
            a, b = self.check(*_chart_rows_case(seed))
            sections |= a
            shadows |= b
        assert sections == EVERY_OUTCOME
        assert shadows == EVERY_OUTCOME - {"empty"}

    def test_lower_dimensional_polygon_in_a_three_flat(self):
        square = convex_hull([(0, 0, 0, 0), (2, 0, 0, 0), (0, 2, 0, 0), (2, 2, 0, 0)])
        flat = AffineFlat.spanning((1, 1, 0, 0), [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 1)])
        sections, shadows = self.check(square, flat)
        assert sections == shadows == {"polytope", "lower-dimensional"}

    def test_projection_stores_no_lift(self, cube):
        import dataclasses

        from polysect.polytope import Projection

        assert [f.name for f in dataclasses.fields(Projection)] == ["polytope", "subspace"]
        proj = project(cube, AffineFlat.spanning((0, 0, 0), [(1, 0, 0), (0, 1, 1)]))
        with pytest.raises(AttributeError):
            proj.ambient_vertices = ()


class TestSectionOffFlatGuard:
    """A slice point off the flat, or on it but not a vertex, makes the
    hull's lifted vertices differ from the slice points: the guard raises."""

    @pytest.mark.parametrize("move", ["along-normal", "off-to-interior", "on-to-interior"])
    def test_moved_slice_point_raises(self, cube, monkeypatch, move):
        from polysect import polytope

        flat = AffineFlat.spanning((0, 0, F(1, 2)), [(1, 0, 0), (0, 1, 0)])
        real = polytope._slice

        def moved(body, normal, point):
            cut = real(body, normal, point)
            pts = [tuple(F(c, den) for c in X) for X, den, _ in cut]
            x, ids = pts[0], cut[0][2]
            if move != "along-normal":
                x = tuple(sum(c) / len(cut) for c in zip(*pts))
            if move != "on-to-interior":
                x = (x[0], x[1], x[2] + F(1, 3))
            (X,), den = int_scaled((x,))
            return [(X, den, ids)] + cut[1:]

        monkeypatch.setattr(polytope, "_slice", moved)
        with pytest.raises(PolytopeError, match="section vertex fell off the flat"):
            section(cube, flat)
