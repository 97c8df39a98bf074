from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from helpers import matrix_rank

from polysect.geometry import (
    AffineFlat,
    DimensionMismatch,
    GeometryError,
    as_point,
    cross3,
    dist2,
    frac,
    identity_flat,
    is_zero_vector,
    norm2,
    nullspace,
    orthogonalize,
    solve_particular,
    vadd,
    vdot,
    vscale,
    vsub,
)

rationals = st.fractions(min_value=-8, max_value=8, max_denominator=12)


def vectors(dim):
    return st.tuples(*([rationals] * dim))


class TestScalars:
    def test_frac_accepts_exact_inputs(self):
        assert frac(3) == F(3)
        assert frac("1/3") == F(1, 3)
        assert frac("0.25") == F(1, 4)
        assert frac(F(2, 6)) == F(1, 3)

    def test_frac_rejects_floats(self):
        with pytest.raises(TypeError):
            frac(0.1)
        with pytest.raises(TypeError):
            frac(True)

    def test_as_point_converts_entries(self):
        assert as_point([1, "1/2"]) == (F(1), F(1, 2))


class TestVectorOps:
    def test_basics(self):
        a, b = (F(1), F(2)), (F(3), F(-1))
        assert vadd(a, b) == (F(4), F(1))
        assert vsub(a, b) == (F(-2), F(3))
        assert vscale(a, F(1, 2)) == (F(1, 2), F(1))
        assert vdot(a, b) == F(1)
        assert norm2(a) == F(5)
        assert dist2(a, b) == F(13)
        assert is_zero_vector((F(0), F(0)))
        assert not is_zero_vector(a)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            vadd((F(1),), (F(1), F(2)))

    @given(vectors(3), vectors(3))
    def test_cross_product_orthogonality(self, a, b):
        c = cross3(a, b)
        assert vdot(c, a) == 0
        assert vdot(c, b) == 0


class TestLinearAlgebra:
    def test_unique_solution(self):
        x = solve_particular([[F(2), F(0)], [F(0), F(3)]], [F(4), F(9)])
        assert x == (F(2), F(3))

    def test_no_solution(self):
        assert solve_particular([[F(1), F(1)], [F(1), F(1)]], [F(0), F(1)]) is None

    def test_underdetermined(self):
        # a consistent rank-deficient system: free variables are set to 0
        x = solve_particular([[F(1), F(1)]], [F(1)])
        assert x == (F(1), F(0))

    def test_solve_particular_inconsistent(self):
        assert solve_particular([[F(1)], [F(1)]], [F(0), F(1)]) is None

    def test_nullspace_of_plane_normal(self):
        basis = nullspace([(F(1), F(1), F(1))])
        assert len(basis) == 2
        for v in basis:
            assert vdot(v, (F(1), F(1), F(1))) == 0
        assert matrix_rank(basis) == 2

    def test_rank(self):
        assert matrix_rank([(F(1), F(0)), (F(0), F(1))]) == 2
        assert matrix_rank([(F(1), F(2)), (F(2), F(4))]) == 1
        assert matrix_rank([(F(0), F(0))]) == 0

    def test_orthogonalize_known_value(self):
        # By hand: second vector minus its projection onto the first:
        # (1,0,1) - (1/2)(1,1,0) = (1/2,-1/2,1).
        out = orthogonalize([(F(1), F(1), F(0)), (F(1), F(0), F(1))])
        assert out == ((F(1), F(1), F(0)), (F(1, 2), F(-1, 2), F(1)))

    @settings(max_examples=60)
    @given(st.lists(vectors(3), min_size=1, max_size=4))
    def test_orthogonalize_properties(self, vecs):
        out = orthogonalize(vecs)
        for i in range(len(out)):
            for j in range(i + 1, len(out)):
                assert vdot(out[i], out[j]) == 0
        assert matrix_rank(out) == matrix_rank(vecs) == len(out)


class TestAffineFlat:
    def test_rejects_bad_basis(self):
        with pytest.raises(GeometryError):
            AffineFlat((F(0), F(0)), ())
        with pytest.raises(GeometryError):
            AffineFlat((F(0), F(0)), ((F(0), F(0)),))
        with pytest.raises(GeometryError):
            AffineFlat((F(0), F(0), F(0)), ((F(1), F(0), F(0)), (F(1), F(1), F(0))))
        with pytest.raises(DimensionMismatch):
            AffineFlat((F(0), F(0)), ((F(1), F(0), F(0)),))

    def test_spanning_orthogonalizes(self):
        flat = AffineFlat.spanning((0, 0, 0), [(1, 1, 0), (1, 0, 1)])
        assert flat.basis == ((F(1), F(1), F(0)), (F(1, 2), F(-1, 2), F(1)))

    @settings(max_examples=60)
    @given(st.tuples(rationals, rationals))
    def test_chart_round_trip(self, coeffs):
        flat = AffineFlat.spanning((1, 2, 3), [(1, 1, 0), (0, 0, 1)])
        p = flat.point_at(coeffs)
        assert flat.coordinates(p) == coeffs
        assert flat.projected_coordinates(p) == coeffs

    def test_off_flat_returns_none(self):
        flat = AffineFlat.spanning((0, 0, 0), [(1, 0, 0)])
        assert flat.coordinates((F(0), F(1), F(0))) is None
        assert flat.coordinates((F(2), F(0), F(0))) == (F(2),)

    def test_normal_directions_complement(self):
        flat = AffineFlat.spanning((0, 0, 0), [(1, 1, 0), (0, 0, 1)])
        normals = flat.normal_directions()
        assert len(normals) == 1
        for b in flat.basis:
            assert vdot(normals[0], b) == 0

    @given(vectors(3))
    def test_projection_lands_on_flat(self, p):
        flat = AffineFlat.spanning((0, 1, 0), [(2, 0, 0), (0, 0, 5)])
        proj = flat.project_point(p)
        assert flat.contains(proj)
        assert flat.project_point(proj) == proj
        # residual is orthogonal to the flat directions
        for b in flat.basis:
            assert vdot(vsub(p, proj), b) == 0

    def test_identity_flat(self):
        flat = identity_flat(3)
        assert flat.coordinates((F(1), F(2), F(3))) == (F(1), F(2), F(3))
        assert flat.normal_directions() == ()

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_identity_flat_is_shared_and_its_cached_values_stay_right(self, d):
        flat = identity_flat(d)
        assert identity_flat(d) is flat
        # use the shared flat first, then compare with a flat of its own
        flat.chart_grid([(F(1, 2),) * d, (F(-3),) * d])
        flat.coordinates((F(1, 3),) * d)
        fresh = AffineFlat(flat.base, flat.basis)
        assert fresh is not flat and fresh == flat
        assert identity_flat(d).basis_norm2s == fresh.basis_norm2s == (F(1),) * d
        assert identity_flat(d)._grid_basis == fresh._grid_basis
        assert flat._grid_basis[1] == (F(1),) * d


class TestFlatFromEquations:
    """{x : N x = o} through one solution, spanned by the nullspace of N,
    as `cli.parse_flat` and K1/T1.1 oracle draws build it."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_solution_and_nullspace(self, data):
        d = data.draw(st.integers(2, 4))
        m = data.draw(st.integers(1, d - 1))
        normals = data.draw(st.lists(st.tuples(*[rationals] * d), min_size=m, max_size=m))
        if matrix_rank(normals) < m:
            return
        offsets = data.draw(st.lists(rationals, min_size=m, max_size=m))
        flat = AffineFlat.from_equations(normals, offsets)
        assert flat == AffineFlat.spanning(
            solve_particular(normals, offsets), nullspace(normals)
        )
        assert flat.dim == d - m
        for p in (flat.base, flat.point_at((F(1),) * flat.dim)):
            assert [vdot(n, p) for n in normals] == list(offsets)

    def test_hyperplane_and_whole_normal_rank(self):
        flat = AffineFlat.from_equations([(1, 1, 1)], [F(3)])
        assert flat.base == (3, 0, 0) and flat.dim == 2
        with pytest.raises(GeometryError):
            AffineFlat.from_equations([(1, 0), (0, 1)], [F(1), F(2)])


class TestCoefficientRoutes:
    """`coordinates` and `project_point` read `projected_coordinates`."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_routes_agree(self, data):
        d = data.draw(st.integers(1, 4))
        dirs = data.draw(st.lists(st.tuples(*[rationals] * d), min_size=1, max_size=d))
        try:
            flat = AffineFlat.spanning(data.draw(st.tuples(*[rationals] * d)), dirs)
        except GeometryError:
            return
        p = data.draw(st.tuples(*[rationals] * d))
        coeffs = flat.projected_coordinates(p)
        assert flat.project_point(p) == flat.point_at(coeffs)
        on = flat.point_at(coeffs)
        assert flat.coordinates(on) == coeffs
        assert flat.coordinates(p) == (coeffs if on == p else None)
