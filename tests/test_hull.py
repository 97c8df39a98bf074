import random
from fractions import Fraction as F
from itertools import combinations, permutations

import pytest
from hypothesis import assume, given, settings, strategies as st

from polysect.hull import (
    DegenerateInput,
    _simplicial_facets,
    det3,
    facet_normal,
    hull_full_dim,
    int_rank,
)

import helpers
from helpers import brute_force_facets, matrix_rank


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
        rng = random.Random(7)
        pts = [(rng.randint(-5, 5), rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(12)]
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


class TestIncidenceFromMergedFacets:
    """The whole IntHull equals the route that rescanned every candidate."""

    @settings(max_examples=150, deadline=None)
    @given(degenerate_clouds())
    def test_degenerate_clouds_match_rescan(self, pts):
        k = len(pts[0])
        assume(int_rank([tuple(a - b for a, b in zip(p, pts[0])) for p in pts]) == k)
        assert hull_full_dim(pts) == helpers.hull_by_rescan(pts)

    def test_lattice_sphere_with_inner_points_matches_rescan(self):
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
        assert out == helpers.hull_by_rescan(pts)


class TestUnrolledVisibilityScan:
    """The inline per-dimension visibility test builds the same simplicial
    facets, in the same order, and the same IntHull as the generator dot."""

    @settings(max_examples=150, deadline=None)
    @given(degenerate_clouds())
    def test_degenerate_clouds_match_dot_scan(self, pts):
        k = len(pts[0])
        assume(int_rank([tuple(a - b for a, b in zip(p, pts[0])) for p in pts]) == k)
        assert _simplicial_facets(pts) == helpers.simplicial_facets_by_dot_scan(pts)
        assert hull_full_dim(pts) == helpers.hull_by_dot_scan(pts)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_wide_clouds_with_duplicates_match_dot_scan(self, k):
        rng = random.Random(k)
        for _ in range(20):
            pts = [tuple(rng.randint(-10**6, 10**6) for _ in range(k)) for _ in range(25)]
            # a coplanar run on the first coordinate hyperplane, and repeats
            pts += [(10**6,) + tuple(rng.randint(-9, 9) for _ in range(k - 1)) for _ in range(6)]
            pts += rng.sample(pts, 4)
            rng.shuffle(pts)
            assert _simplicial_facets(pts) == helpers.simplicial_facets_by_dot_scan(pts)
            assert hull_full_dim(pts) == helpers.hull_by_dot_scan(pts)

    def test_lattice_sphere_matches_dot_scan(self):
        pts = random.Random(3).sample(helpers.lattice_sphere(426), 150)
        out = hull_full_dim(pts)
        assert len(out.vertex_indices) == 150
        assert out == helpers.hull_by_dot_scan(pts)
