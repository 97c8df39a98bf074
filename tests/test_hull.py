import random
from fractions import Fraction as F
from functools import lru_cache
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from polysect import convex_hull
from polysect.hull import (
    DegenerateInput,
    HullError,
    _plane_closure,
    _simplicial_facets,
    hull_full_dim,
)

import helpers
from helpers import brute_force_facets, certify, det3, dot, facet_normal, int_rank, matrix_rank


def permanent_det(m):
    """Independent determinant by signed permutation expansion."""
    n = len(m)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term *= m[i][perm[i]]
        total += sign * term
    return total


ints = st.integers(min_value=-6, max_value=6)


class TestDeterminants:
    def test_known_values(self):
        assert det3(((1, 0, 0), (0, 1, 0), (0, 0, 1))) == 1

    @given(st.tuples(*[st.tuples(ints, ints, ints)] * 3))
    def test_det3_matches_permutation_expansion(self, m):
        assert det3(m) == permanent_det(m)


class TestIntRank:
    @settings(max_examples=60)
    @given(st.lists(st.tuples(ints, ints, ints), min_size=1, max_size=5))
    def test_matches_rational_rank(self, rows):
        lifted = [tuple(F(x) for x in r) for r in rows]
        assert int_rank(rows) == matrix_rank(lifted)


class TestFacetNormal:
    @given(st.tuples(ints, ints, ints), st.tuples(ints, ints, ints))
    def test_orthogonal_to_spanning_diffs(self, a, b):
        assume(int_rank([a, b]) == 2)
        n = facet_normal([a, b], 3)
        assert any(x != 0 for x in n)
        assert sum(x * y for x, y in zip(n, a)) == 0
        assert sum(x * y for x, y in zip(n, b)) == 0

    @settings(max_examples=40)
    @given(st.lists(st.tuples(ints, ints, ints, ints), min_size=3, max_size=3))
    def test_orthogonal_in_dim_four(self, diffs):
        assume(int_rank(diffs) == 3)
        n = facet_normal(diffs, 4)
        assert any(x != 0 for x in n)
        for d in diffs:
            assert sum(x * y for x, y in zip(n, d)) == 0


def facets_as_set(facets):
    return {(n, c) for n, c, _ in facets}


class TestHullAgainstBruteForce:
    def test_square_with_clutter(self):
        pts = [(0, 0), (4, 0), (4, 4), (0, 4), (2, 2), (1, 0), (0, 0)]
        out = hull_full_dim(pts)
        assert sorted(pts[i] for i in out.vertex_indices) == [
            (0, 0),
            (0, 4),
            (4, 0),
            (4, 4),
        ]
        assert facets_as_set(out.facets) == set(brute_force_facets(pts))

    def test_cube_and_octahedron(self):
        cube = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
        out = hull_full_dim(cube)
        assert len(out.vertex_indices) == 8
        assert len(out.facets) == 6
        assert facets_as_set(out.facets) == set(brute_force_facets(cube))

        octa = [
            (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
        ]
        out = hull_full_dim(octa)
        assert len(out.vertex_indices) == 6
        assert len(out.facets) == 8
        assert facets_as_set(out.facets) == set(brute_force_facets(octa))

    def test_four_dimensional_cross_polytope(self):
        pts = []
        for i in range(4):
            for s in (1, -1):
                v = [0, 0, 0, 0]
                v[i] = s
                pts.append(tuple(v))
        out = hull_full_dim(pts)
        assert len(out.vertex_indices) == 8
        assert len(out.facets) == 16
        assert facets_as_set(out.facets) == set(brute_force_facets(pts))

    def test_degenerate_input_rejected(self):
        with pytest.raises(DegenerateInput):
            hull_full_dim([(0, 0), (1, 1), (2, 2), (3, 3)])

    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(ints, ints), min_size=3, max_size=10))
    def test_random_plane_sets_match_oracle(self, pts):
        assume(int_rank([tuple(a - b for a, b in zip(p, pts[0])) for p in pts]) == 2)
        out = hull_full_dim(pts)
        assert facets_as_set(out.facets) == set(brute_force_facets(pts))
        for n, c, _ in out.facets:
            assert all(sum(x * y for x, y in zip(n, p)) <= c for p in pts)
        for i in out.vertex_indices:
            assert helpers.is_extreme_oracle(
                [tuple(F(x) for x in p) for p in pts],
                tuple(F(x) for x in pts[i]),
            )

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.tuples(ints, ints, ints), min_size=4, max_size=9))
    def test_random_space_sets_match_oracle(self, pts):
        assume(int_rank([tuple(a - b for a, b in zip(p, pts[0])) for p in pts]) == 3)
        out = hull_full_dim(pts)
        assert facets_as_set(out.facets) == set(brute_force_facets(pts))
        for n, c, _ in out.facets:
            assert all(sum(x * y for x, y in zip(n, p)) <= c for p in pts)

    def test_facet_tuples_are_tight_true_vertices(self):
        # degenerate inputs: points on facets, on edges and inside
        square = [(0, 0), (4, 0), (4, 4), (0, 4), (2, 0), (4, 2), (1, 1), (0, 3)]
        cube = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
        cube += [(1, 1, 0), (1, 0, 0), (1, 1, 1), (0, 0, 1), (2, 1, 1)]
        cross = []
        for i in range(4):
            for s in (2, -2):
                v = [0, 0, 0, 0]
                v[i] = s
                cross.append(tuple(v))
        cross += [(1, 1, 0, 0), (0, 0, 0, 0), (1, 0, 0, 1)]
        rng = random.Random(11)
        lattice = [
            [tuple(rng.randint(-2, 2) for _ in range(k)) for _ in range(14)]
            for k in (2, 3, 4)
        ]
        for pts in [square, cube, cross] + lattice:
            out = hull_full_dim(pts)
            for n, c, fverts in out.facets:
                tight = tuple(
                    v for v in out.vertex_indices
                    if sum(x * y for x, y in zip(n, pts[v])) == c
                )
                assert fverts == tight

    def test_insertion_order_does_not_change_answer(self):
        # points go in farthest first from the centroid, ties by index: on the
        # lattice sphere every point ties, so the list order alone decides
        rng = random.Random(7)
        clouds = [
            [tuple(rng.randint(-5, 5) for _ in range(k)) for _ in range(n)]
            for k, n in ((3, 12), (2, 12), (4, 10))
        ]
        for pts in clouds + [random.Random(1).sample(helpers.lattice_sphere(50), 84)]:
            base = hull_full_dim(pts)
            base_facets = facets_as_set(base.facets)
            base_verts = sorted(pts[i] for i in base.vertex_indices)
            for seed in range(5):
                shuffled = pts[:]
                random.Random(seed).shuffle(shuffled)
                out = hull_full_dim(shuffled)
                assert facets_as_set(out.facets) == base_facets
                assert sorted(shuffled[i] for i in out.vertex_indices) == base_verts


@st.composite
def degenerate_clouds(draw):
    """Small lattice boxes (coplanar and collinear runs), doubled so that
    midpoints stay integral, plus midpoints (points inside facets and edges)
    and duplicated points."""
    k = draw(st.sampled_from((2, 3, 4)))
    box = st.integers(-draw(st.integers(1, 2)), draw(st.integers(1, 2)))
    base = draw(st.lists(st.tuples(*[box] * k), min_size=k + 1, max_size=16))
    pts = [tuple(2 * x for x in p) for p in base]
    index = st.integers(0, len(pts) - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=8))
    pts += [tuple((a + b) // 2 for a, b in zip(pts[i], pts[j])) for i, j in pairs]
    pts += draw(st.lists(st.sampled_from(pts), max_size=4))
    return draw(st.permutations(pts))


@lru_cache(maxsize=4)
def _brute_force_facets(points):
    """`brute_force_facets` of a sorted point tuple, once per point set, as
    the tests hull one set in several orders."""
    return tuple(brute_force_facets(list(points)))


def check_hull(pts, out):
    """The whole IntHull without another hull route: facets sorted as ints,
    vertices one index per point in ascending order, and each facet listing
    exactly the vertices tight on it; the facets and vertices are those of
    the certified `convex_hull` for k <= 3, and brute force for k = 4 (the
    brute-force facets and the points where their tight normals reach
    rank 4)."""
    k = len(pts[0])
    if k < 4:
        poly = convex_hull(pts)
        certify(poly, pts)
        facets, vertices = list(poly._int_facets), list(poly.vertices)
    else:
        vertices = sorted(set(pts))
        facets = list(_brute_force_facets(tuple(vertices)))
        vertices = [p for p in vertices if int_rank([n for n, c in facets if dot(n, p) == c]) == k]
    assert [(n, c) for n, c, _ in out.facets] == facets
    assert list(out.vertex_indices) == sorted(out.vertex_indices)
    assert sorted(pts[i] for i in out.vertex_indices) == vertices
    for n, c, fverts in out.facets:
        assert fverts == tuple(v for v in out.vertex_indices if dot(n, pts[v]) == c)


class TestWholeHull:
    """The IntHull of degenerate and wide clouds, checked whole."""

    @settings(max_examples=30, deadline=None)
    @given(degenerate_clouds())
    def test_degenerate_clouds(self, pts):
        k = len(pts[0])
        assume(int_rank([tuple(a - b for a, b in zip(p, pts[0])) for p in pts]) == k)
        check_hull(pts, hull_full_dim(pts))

    def test_lattice_sphere_with_inner_points(self):
        rng = random.Random(4)
        sphere = rng.sample(helpers.lattice_sphere(94), 60)
        # doubled, with chord midpoints: inside the body or on its facets
        pts = [tuple(2 * x for x in p) for p in sphere]
        pts += [
            tuple(a + b for a, b in zip(p, q))
            for p, q in (rng.sample(sphere, 2) for _ in range(20))
        ]
        pts += rng.sample(pts, 5)
        out = hull_full_dim(pts)
        assert len(out.vertex_indices) == 60
        check_hull(pts, out)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_wide_clouds_with_duplicates(self, k):
        rng = random.Random(k)
        for _ in range(20 if k < 4 else 3):
            pts = [tuple(rng.randint(-10**6, 10**6) for _ in range(k)) for _ in range(25 if k < 4 else 10)]
            # a coplanar run on the first coordinate hyperplane, and repeats
            pts += [(10**6,) + tuple(rng.randint(-9, 9) for _ in range(k - 1)) for _ in range(6)]
            pts += rng.sample(pts, 4)
            rng.shuffle(pts)
            check_hull(pts, hull_full_dim(pts))

    def test_lattice_sphere(self):
        pts = random.Random(3).sample(helpers.lattice_sphere(426), 150)
        out = hull_full_dim(pts)
        assert len(out.vertex_indices) == 150
        check_hull(pts, out)


class TestMixedDimensions:
    @pytest.mark.parametrize(
        "pts",
        [
            [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1)],
            [(0, 0), (1, 0), (0, 1), (1, 1, 1)],
            [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1)],
        ],
    )
    def test_points_of_different_lengths_raise_hull_error(self, pts):
        with pytest.raises(HullError, match="points live in different dimensions"):
            hull_full_dim(pts)


huge = st.integers(min_value=-10**40, max_value=10**40)
coords = st.one_of(st.integers(-3, 3), huge)


class TestPlaneClosures:
    """Each unrolled plane closure gives the generic facet normal, its offset
    and the orientation that puts the reference point inside."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_match_facet_normal_and_orientation(self, data):
        k = data.draw(st.sampled_from((2, 3, 4)))
        pts = data.draw(st.lists(st.tuples(*[coords] * k), min_size=k, max_size=k))
        ref_sum = data.draw(st.tuples(*[coords] * k))
        ref_den = data.draw(st.integers(1, 10**40))
        verts = tuple(data.draw(st.permutations(range(k))))
        p0 = pts[verts[0]]
        n = facet_normal([tuple(a - b for a, b in zip(pts[v], p0)) for v in verts[1:]], k)
        c = dot(n, p0)
        side = dot(n, ref_sum) - c * ref_den
        plane = _plane_closure(pts, ref_sum, ref_den)
        if side == 0:
            with pytest.raises(HullError):
                plane(verts)
            return
        if side > 0:
            n, c = tuple(-x for x in n), -c
        assert plane(verts) == n + (c,)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_reference_on_the_plane_raises(self, k):
        pts = [tuple(int(i == j) for j in range(k)) for i in range(k)]
        # the centroid of the k unit points, times k: on their plane
        with pytest.raises(HullError, match="reference point"):
            _plane_closure(pts, (1,) * k, k)(tuple(range(k)))


class TestVertexRule:
    """A candidate is a vertex by its facet count for k <= 3, by the rank of
    its facet normals for k = 4."""

    HEXAGON = [(2, 0), (1, 2), (-1, 2), (-2, 0), (-1, -2), (1, -2)]

    @pytest.mark.parametrize("order", range(6))
    def test_midpoint_of_a_join_segment_is_not_a_vertex(self, order):
        # the join of a lattice hexagon and a skew segment has 8 facets; the
        # segment's midpoint lies on the 6 that contain the segment, whose
        # normals have rank 3, so a count of 4 facets would take it
        lo, mid, hi = (0, 0, 1, -1), (0, 0, 1, 0), (0, 0, 1, 1)
        pts = [(x, y, 0, 0) for x, y in self.HEXAGON] + [lo, mid]
        if order:
            random.Random(order).shuffle(pts)
        pts.append(hi)  # after the midpoint, so the midpoint is in the initial simplex
        out = hull_full_dim(pts)
        check_hull(pts, out)
        assert len(out.vertex_indices) == 8 and len(out.facets) == 8
        assert pts.index(mid) not in out.vertex_indices
        on_mid = [n for n, c, _ in out.facets if dot(n, mid) == c]
        assert len(on_mid) == 6 and int_rank(on_mid) == 3
        # the midpoint is a candidate: some simplicial facet has it
        assert any(pts.index(mid) in f.vertices for f in _simplicial_facets(pts))

    @staticmethod
    def _with_face_points(vertices, scale):
        """The vertices times scale, plus edge midpoints and facet centroids
        (integral at that scale)."""
        body = convex_hull(vertices)
        verts = [tuple(int(x) * scale for x in v) for v in body.vertices]
        extra = [
            tuple((a + b) // 2 for a, b in zip(verts[i], verts[j])) for i, j in body.edges()
        ]
        for fverts in body.facet_vertices:
            extra.append(
                tuple(sum(verts[i][c] for i in fverts) // len(fverts) for c in range(len(verts[0])))
            )
        return verts, extra

    @pytest.mark.parametrize(
        "name, vertices, scale",
        [
            ("square", [(0, 0), (2, 0), (2, 2), (0, 2)], 2),
            ("lattice hexagon", HEXAGON, 2),
            ("cube", [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)], 4),
            ("octahedron", [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], 6),
            ("hexagonal prism", [(x, y, z) for x, y in HEXAGON for z in (0, 1)], 12),
            # every facet is a triangular prism: no vertex lies on a facet of
            # k = 4 members, so the rank test alone takes each one
            (
                "triangle duoprism",
                [a + b for a in ((0, 0), (1, 0), (0, 1)) for b in ((0, 0), (1, 0), (0, 1))],
                6,
            ),
        ],
    )
    def test_lattice_bodies_with_face_points(self, name, vertices, scale):
        verts, extra = self._with_face_points(vertices, scale)
        if len(verts[0]) == 4:
            assert all(len(fverts) > 4 for _, _, fverts in hull_full_dim(verts).facets)
        for seed in range(4):
            pts = extra + verts if seed == 0 else verts + extra
            if seed > 1:
                random.Random(seed).shuffle(pts)
            out = hull_full_dim(pts)
            check_hull(pts, out)
            assert sorted(pts[i] for i in out.vertex_indices) == sorted(verts)
            # insertion goes farthest first from the centroid, so the face
            # points come after the vertices; listed first, they make up the
            # initial simplex and stay candidates
            if seed == 0:
                candidates = set().union(*(f.vertices for f in _simplicial_facets(pts)))
                assert len(candidates) > len(verts)
