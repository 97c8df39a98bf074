"""The integer chart-grid routes against the Fraction routes they replaced.

`convex_hull` finds its span by integer pivots and hulls chart-grid rows,
`project` hulls the body's chart-grid rows, `visual_cone` hulls only the
rays the horizon rule keeps and lifts the base facets in integers, and
`shadow_walk` runs its own step on the grid.  Each must return what the
reference in `helpers` returns, compared by `repr` of every field.
"""

import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

import helpers
from helpers import (
    convex_hull_by_gram_schmidt,
    lattice_sphere,
    polytope_fields,
    project_by_projected_coordinates,
    shadow_walk_by_step_g,
    step_g_via_sections,
    visual_cone_over_all_vertices,
)

from polysect import cones
from polysect.cones import visual_cone
from polysect.geometry import AffineFlat, DimensionMismatch, GeometryError
from polysect.polytope import convex_hull, project
from polysect.silhouette import WalkError, WalkState, shadow_chart, shadow_walk, step_g

fractions = st.fractions(-4, 4, max_denominator=4)


def _cloud(dim, min_size=1, max_size=10):
    return st.lists(st.tuples(*[fractions] * dim), min_size=min_size, max_size=max_size)


@st.composite
def clouds(draw, dims=(1, 2, 3, 4)):
    """A rational cloud in R^d, d in dims, often in a lower-dimensional flat
    and often with repeated points."""
    d = draw(st.sampled_from(dims))
    k = draw(st.integers(0, d))
    pts = draw(_cloud(max(k, 1)))
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


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (GeometryError, ValueError) as e:
        return f"{type(e).__name__}: {e}"


def _polytope_repr(fn, *args):
    out = _outcome(fn, *args)
    return out if isinstance(out, str) else repr(polytope_fields(out))


def _projection_repr(fn, body, flat):
    out = _outcome(fn, body, flat)
    if isinstance(out, str):
        return out
    return repr((polytope_fields(out.polytope), out.subspace, out.ambient_vertices))


def _cone_repr(fn, apex, body):
    out = _outcome(fn, apex, body)
    if isinstance(out, str):
        return out
    base = None if out.base is None else polytope_fields(out.base)
    return repr((
        out.apex, out.generators, out.span_dim, out.halfspaces,
        out.positive_normal, base,
    ))


SQUARE_IN_XY = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)]


class TestChartGrid:
    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_rows_times_factors_are_projected_coordinates(self, data):
        d = data.draw(st.integers(1, 4))
        base = data.draw(st.tuples(*[fractions] * d))
        dirs = data.draw(st.lists(st.tuples(*[fractions] * d), min_size=1, max_size=d))
        try:
            flat = AffineFlat.spanning(base, dirs)
        except GeometryError:
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


class TestConvexHullRoute:
    @settings(max_examples=250, deadline=None)
    @given(clouds())
    @example([(F(1), F(2), F(3))] * 3)
    @example([(F(0),), (F(3, 2),), (F(-1, 3),), (F(3, 2),)])
    @example([(F(0), F(0), F(0), F(0)), (F(1), F(1), F(1), F(1)), (F(2), F(2), F(2), F(2))])
    def test_matches_gram_schmidt_route(self, pts):
        assert _polytope_repr(convex_hull, pts) == _polytope_repr(convex_hull_by_gram_schmidt, pts)

    @pytest.mark.parametrize("pts", [
        [], [(1, 2), (1, 2, 3)], [(0,) * 5, (1,) * 5],
    ])
    def test_errors_match(self, pts):
        assert _polytope_repr(convex_hull, pts) == _polytope_repr(convex_hull_by_gram_schmidt, pts)


class TestProjectRoute:
    @settings(max_examples=150, deadline=None)
    @given(clouds(dims=(2, 3, 4)), st.data())
    @example(SQUARE_IN_XY, None)
    def test_matches_projected_coordinates_route(self, pts, data):
        body = convex_hull(pts)
        d = body.ambient_dim
        if data is None:
            # the xz-plane sees the square edge-on: a segment shadow
            flat = AffineFlat.spanning((0, 0, 0), [(1, 0, 0), (0, 0, 1)])
        else:
            base = data.draw(st.tuples(*[fractions] * d))
            dirs = data.draw(st.lists(st.tuples(*[fractions] * d), min_size=1, max_size=d))
            try:
                flat = AffineFlat.spanning(base, dirs)
            except GeometryError:
                return
        assert _projection_repr(project, body, flat) == _projection_repr(
            project_by_projected_coordinates, body, flat
        )

    def test_wrong_dimension(self):
        body = convex_hull(SQUARE_IN_XY)
        flat = AffineFlat.spanning((0, 0), [(1, 0)])
        assert _projection_repr(project, body, flat) == _projection_repr(
            project_by_projected_coordinates, body, flat
        )
        assert "DimensionMismatch" in _projection_repr(project, body, flat)


@st.composite
def cone_cases(draw):
    """A body and an apex: anywhere, on the plane of a facet (slack 0), or
    on the line through two vertices (two rays in one direction)."""
    body = convex_hull(draw(clouds(dims=(2, 3, 4))))
    d = body.ambient_dim
    how = draw(st.sampled_from(["free", "facet-plane", "collinear"]))
    if how == "free" or len(body.vertices) < 2:
        return body, draw(st.tuples(*[fractions] * d))
    t = draw(st.fractions(F(1, 4), 3, max_denominator=4))
    if how == "facet-plane" and body.dim == d:
        f = draw(st.integers(0, len(body.halfspaces) - 1))
        on = sorted(body.facet_vertices[f])
        a, b = draw(st.sampled_from(on)), draw(st.sampled_from(on))
    else:
        a, b = draw(st.permutations(range(len(body.vertices))))[:2]
    u, v = body.vertices[a], body.vertices[b]
    return body, tuple(x + t * (x - y) for x, y in zip(u, v))


class TestVisualConeRoute:
    @settings(max_examples=250, deadline=None)
    @given(cone_cases())
    def test_matches_all_vertex_route(self, case):
        body, apex = case
        assert _cone_repr(visual_cone, apex, body) == _cone_repr(
            visual_cone_over_all_vertices, apex, body
        )

    def test_errors_match(self):
        cube = convex_hull(helpers.CUBE_VERTICES)
        for apex in [(0, 0, 0), (1, 1, 1), (1, 0, 0), (0, 0, 0, 3)]:
            assert _cone_repr(visual_cone, apex, cube) == _cone_repr(
                visual_cone_over_all_vertices, apex, cube
            )

    @pytest.mark.parametrize("apex", [(0, 0, 20), (20, 1, 3), (0, 0, 11), (7, 7, 0)])
    def test_lattice_sphere(self, apex):
        # 150 extreme points; (20, 1, 3) and (7, 7, 0) lie on one facet's
        # plane, and (0, 0, 11) on four, with four pairs of vertices in line
        # with it
        body = convex_hull(random.Random(3).sample(lattice_sphere(101), 150))
        assert len(body.vertices) == 150
        apex = tuple(F(x) for x in apex)
        assert _cone_repr(visual_cone, apex, body) == _cone_repr(
            visual_cone_over_all_vertices, apex, body
        )

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


class TestShadowWalkRoute:
    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            _cloud(3, 4, 14),
            st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=4, max_size=14),
            clouds(dims=(3,)),
        ),
        st.one_of(
            st.sampled_from([(0, 0, 1), (1, 0, 0), (1, 1, 0), (1, 1, 1)]),
            st.tuples(*[st.integers(-3, 3)] * 3).filter(any),
        ),
    )
    def test_matches_step_g_loop(self, pts, xi):
        body = convex_hull(pts)
        if body.dim != 3:
            return
        new = _outcome(shadow_walk, body, xi)
        assert repr(new) == repr(_outcome(shadow_walk_by_step_g, body, xi))

    @pytest.mark.parametrize("xi", [(0, 0, 1), (1, 2, 3), (1, 1, 0)])
    def test_lattice_sphere(self, xi):
        body = convex_hull(random.Random(3).sample(lattice_sphere(101), 150))
        new = shadow_walk(body, xi)
        assert repr(new) == repr(shadow_walk_by_step_g(body, xi))
        assert repr(new) == repr(shadow_walk_by_step_g(body, xi, step_g_via_sections))


def _step_outcome(step, body, state):
    try:
        return repr(step(body, state)), state.apex
    except WalkError as e:
        return str(e), state.apex


class TestStepRoute:
    """step_g on the grid against the route that built the visual cone, at
    points off the grid (inside shadow edges, at odd fractions), around
    centers other than the centroid, along rational directions."""

    @settings(max_examples=60, deadline=None)
    @given(
        _cloud(3, 4, 12),
        st.tuples(*[st.fractions(-3, 3, max_denominator=3)] * 3).filter(any),
        st.data(),
    )
    def test_matches_section_route(self, pts, xi, data):
        body = convex_hull(pts)
        if body.dim != 3:
            return
        chart = shadow_chart(xi)
        shadow = project(body, chart).polytope
        if shadow.dim != 2:
            return
        cycle = [shadow.vertices[i] for i in shadow.boundary_cycle()]
        weights = data.draw(st.lists(
            st.integers(1, 5), min_size=len(cycle), max_size=len(cycle)
        ))
        center = tuple(
            sum(w * v[j] for w, v in zip(weights, cycle)) / sum(weights) for j in (0, 1)
        )
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            t = data.draw(st.fractions(F(1, 7), F(6, 7), max_denominator=7))
            x = tuple(p + t * (q - p) for p, q in zip(a, b))
            new = _step_outcome(step_g, body, WalkState(xi, chart, center, x))
            old = _step_outcome(step_g_via_sections, body, WalkState(xi, chart, center, x))
            assert new == old
