"""Shadow-boundary walk: termination, order, and hull equivalence."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import (
    CUBE_VERTICES,
    lattice_sphere,
    lift_line,
    shadow_walk_by_step_g,
    step_g_via_sections,
)

from polysect.geometry import as_vector, cross3, vdot
from polysect.polytope import convex_hull, project
from polysect.silhouette import (
    WalkError,
    WalkState,
    shadow_chart,
    shadow_walk,
    step_g,
)

OCTA_VERTICES = [
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
]


def cube():
    return convex_hull(CUBE_VERTICES)


def octahedron():
    return convex_hull(OCTA_VERTICES)


def cross2(a, b):
    return a[0] * b[1] - a[1] * b[0]


def assert_ccw_cycle(vertices):
    """Every consecutive pair turns counterclockwise around the centroid."""
    n = len(vertices)
    cx = sum(v[0] for v in vertices) / n
    cy = sum(v[1] for v in vertices) / n
    for i in range(n):
        a = vertices[i]
        b = vertices[(i + 1) % n]
        assert cross2((a[0] - cx, a[1] - cy), (b[0] - cx, b[1] - cy)) > 0


class TestShadowChart:
    def test_axis_direction_uses_remaining_axes(self):
        chart = shadow_chart((0, 0, 1))
        assert chart.basis == ((1, 0, 0), (0, 1, 0))

    def test_right_handed_and_orthogonal(self):
        for xi in [(0, 0, 1), (1, 1, 1), (2, -3, 5), (-1, 0, 0)]:
            chart = shadow_chart(xi)
            e1, e2 = chart.basis
            xiv = tuple(F(c) for c in xi)
            assert vdot(e1, xiv) == 0
            assert vdot(e2, xiv) == 0
            assert vdot(e1, e2) == 0
            assert vdot(cross3(e1, e2), xiv) > 0

    def test_zero_direction_rejected(self):
        with pytest.raises(WalkError):
            shadow_chart((0, 0, 0))

    def test_wrong_dimension_rejected(self):
        with pytest.raises(Exception):
            shadow_chart((1, 0))


class TestLiftLine:
    def test_lifted_line_projects_back(self):
        xi = (1, 2, 3)
        chart = shadow_chart(xi)
        line = lift_line((F(2), F(-1)), xi)
        assert line.dim == 1
        assert line.basis[0] == (1, 2, 3)
        # the base point's chart coordinates recover the input
        base = line.base
        x1 = vdot(base, chart.basis[0]) / vdot(chart.basis[0], chart.basis[0])
        x2 = vdot(base, chart.basis[1]) / vdot(chart.basis[1], chart.basis[1])
        assert (x1, x2) == (2, -1)


class TestStepG:
    def test_cube_edge_interior_step(self):
        chart = shadow_chart((0, 0, 1))
        state = WalkState(
            (F(0), F(0), F(1)), chart, (F(0), F(0)), (F(1), F(0))
        )
        out = step_g(cube(), state)
        assert out.kind == "edge"
        assert out.next_point == (1, 1)
        assert out.segment == ((1, -1), (1, 1))

    def test_cube_corner_is_isolated_extreme(self):
        chart = shadow_chart((0, 0, 1))
        state = WalkState(
            (F(0), F(0), F(1)), chart, (F(0), F(0)), (F(1), F(1))
        )
        out = step_g(cube(), state)
        assert out.kind == "isolated-extreme"
        assert out.next_point == (-1, 1)

    def test_octahedron_vertex_is_isolated_extreme(self):
        chart = shadow_chart((0, 0, 1))
        state = WalkState(
            (F(0), F(0), F(1)), chart, (F(0), F(0)), (F(1), F(0))
        )
        out = step_g(octahedron(), state)
        assert out.kind == "isolated-extreme"
        assert out.next_point == (0, 1)

    def test_interior_point_rejected(self):
        chart = shadow_chart((0, 0, 1))
        state = WalkState(
            (F(0), F(0), F(1)), chart, (F(0), F(0)), (F(0), F(0))
        )
        with pytest.raises(WalkError, match="interior"):
            step_g(cube(), state)

    def test_outside_point_rejected(self):
        chart = shadow_chart((0, 0, 1))
        state = WalkState(
            (F(0), F(0), F(1)), chart, (F(0), F(0)), (F(5), F(0))
        )
        with pytest.raises(WalkError, match="outside"):
            step_g(cube(), state)

    def test_apex_is_recorded_beyond_support(self):
        chart = shadow_chart((0, 0, 1))
        state = WalkState(
            (F(0), F(0), F(1)), chart, (F(0), F(0)), (F(1), F(1))
        )
        step_g(cube(), state)
        assert state.apex is not None
        assert state.apex[2] > 1  # beyond the top support plane


class TestShadowWalk:
    def test_cube_emits_four_corners_ccw(self):
        result = shadow_walk(cube(), (0, 0, 1))
        assert result.vertices == ((1, -1), (1, 1), (-1, 1), (-1, -1))
        assert result.steps <= 8
        assert_ccw_cycle(result.vertices)

    def test_cube_diagonal_direction_gives_hexagon(self):
        result = shadow_walk(cube(), (1, 1, 1))
        assert len(result.vertices) == 6
        assert_ccw_cycle(result.vertices)

    def test_octahedron_square_shadow(self):
        result = shadow_walk(octahedron(), (0, 0, 1))
        assert set(result.vertices) == {(1, 0), (0, 1), (-1, 0), (0, -1)}
        assert result.steps <= 6

    def test_angles_increase_after_unwrap(self):
        result = shadow_walk(cube(), (0, 0, 1))
        unwrapped = [result.angles[0]]
        for a in result.angles[1:]:
            while a <= unwrapped[-1]:
                a += 2 * math.pi
            unwrapped.append(a)
        assert all(b > a for a, b in zip(unwrapped, unwrapped[1:]))
        assert unwrapped[-1] - unwrapped[0] < 2 * math.pi

    def test_step_budget_is_vertex_bound(self):
        for xi in [(0, 0, 1), (1, 1, 1), (1, 2, 3)]:
            body = cube()
            result = shadow_walk(body, xi)
            assert result.steps <= len(body.vertices)

    @pytest.mark.parametrize("seed", range(100))
    def test_matches_hulled_projection_with_same_cyclic_order(self, seed):
        rng = random.Random(seed)
        pts = [
            tuple(F(rng.randint(-50, 50), rng.randint(1, 9)) for _ in range(3))
            for _ in range(20)
        ]
        body = convex_hull(pts)
        if body.dim != 3:
            return
        xi = tuple(F(rng.randint(-9, 9)) for _ in range(3))
        if all(c == 0 for c in xi):
            xi = (F(1), F(0), F(0))
        result = shadow_walk(body, xi)
        assert result.steps <= len(body.vertices)
        shadow = project(body, shadow_chart(xi)).polytope
        assert set(result.vertices) == set(shadow.vertices)
        # same counterclockwise cyclic order as the hulled shadow
        hv = list(shadow.vertices)
        cx = sum(p[0] for p in hv) / len(hv)
        cy = sum(p[1] for p in hv) / len(hv)
        hv.sort(key=lambda p: math.atan2(float(p[1] - cy), float(p[0] - cx)))
        wv = list(result.vertices)
        i = hv.index(wv[0])
        assert hv[i:] + hv[:i] == wv
        assert_ccw_cycle(result.vertices)

    def test_two_dim_body_rejected(self):
        flat_square = convex_hull(
            [(1, 1, 0), (1, -1, 0), (-1, 1, 0), (-1, -1, 0)]
        )
        with pytest.raises(WalkError):
            shadow_walk(flat_square, (0, 0, 1))

    def test_result_records_start_and_direction(self):
        result = shadow_walk(cube(), (0, 0, 1))
        assert result.xi == (0, 0, 1)
        assert result.start == (1, -1)
        assert len(result.angles) == len(result.vertices)


# a vertical triangle face whose middle vertex projects between the others,
# and a vertical edge along xi = (0, 0, 1)
VERTICAL_TRIANGLE = [(0, 0, 0), (2, 0, 0), (1, 0, 2), (1, 1, 1)]
VERTICAL_EDGE = [(0, 0, 0), (0, 0, 1), (1, 0, 0), (0, 1, 0)]
lattice_clouds = st.lists(
    st.tuples(*[st.integers(-2, 2).map(F)] * 3), min_size=4, max_size=14
)
rational_clouds = st.lists(
    st.tuples(*[st.fractions(-3, 3, max_denominator=3)] * 3), min_size=4, max_size=14
)
directions = st.one_of(
    st.sampled_from([(0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 0), (1, 1, 1)]),
    st.tuples(*[st.integers(-3, 3)] * 3).filter(any),
)


def _attempt(step, body, state):
    try:
        return step(body, state), state.apex
    except WalkError as e:
        return str(e), state.apex


class TestFaceRoute:
    """step_g wraps the vertex images around the point; the route that built
    the whole visual cone, cut each active facet's plane with section() and
    took the farthest chart pair gives the same steps, errors and apexes."""

    @settings(max_examples=60, deadline=None)
    @given(st.one_of(lattice_clouds, rational_clouds), directions)
    @example(VERTICAL_TRIANGLE, (0, 0, 1))
    @example(VERTICAL_EDGE, (0, 0, 1))
    def test_steps_match_section_route(self, pts, xi):
        body = convex_hull(pts)
        if body.dim != 3:
            return
        xi = as_vector(xi)
        chart = shadow_chart(xi)
        shadow = project(body, chart).polytope.vertices
        n = len(shadow)
        center = tuple(sum(c) / n for c in zip(*shadow))
        # shadow vertices, midpoints of vertex pairs (boundary or interior)
        # and the centroid (interior); then each of those points mirrored
        # away from the centroid, 2p - center: outside for every vertex and
        # boundary midpoint, inside or outside for the others
        points = set(shadow) | {center}
        points |= {tuple((a + b) / 2 for a, b in zip(p, q)) for p in shadow for q in shadow}
        points |= {tuple(2 * a - c for a, c in zip(p, center)) for p in points}
        for x in sorted(points):
            new = _attempt(step_g, body, WalkState(xi, chart, center, x))
            old = _attempt(step_g_via_sections, body, WalkState(xi, chart, center, x))
            assert new == old

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(lattice_clouds, rational_clouds), directions)
    @example(VERTICAL_TRIANGLE, (0, 0, 1))
    @example(VERTICAL_EDGE, (0, 0, 1))
    def test_walk_matches_section_route(self, pts, xi):
        body = convex_hull(pts)
        if body.dim != 3:
            return
        new = shadow_walk(body, xi)
        old = shadow_walk_by_step_g(body, xi, step_g_via_sections)
        assert new == old

    @pytest.mark.parametrize("xi", [(0, 0, 1), (1, 2, 3)])
    def test_lattice_sphere_walk_matches_section_route(self, xi):
        # 60 extreme points; along (0, 0, 1) antipodal pairs give vertical edges
        body = convex_hull(random.Random(1).sample(lattice_sphere(94), 60))
        assert len(body.vertices) == 60
        new = shadow_walk(body, xi)
        old = shadow_walk_by_step_g(body, xi, step_g_via_sections)
        assert new == old


class TestWalkCheck:
    """Each emitted point is checked against the shadow hulled by the shared
    chart-rows helper, which is the shadow `project` returns."""

    def test_check_hull_is_the_projection(self, monkeypatch):
        from polysect import silhouette

        hulls = []
        real = silhouette._hull_of_rows

        def recorded(rows, factors):
            hulls.append(real(rows, factors))
            return hulls[-1]

        monkeypatch.setattr(silhouette, "_hull_of_rows", recorded)
        xi = (1, 2, 3)
        result = shadow_walk(octahedron(), xi)
        (hull,) = hulls
        shadow = project(octahedron(), shadow_chart(as_vector(xi))).polytope
        assert hull.vertices == shadow.vertices
        assert set(result.vertices) == set(shadow.vertices)

    def test_point_missing_from_the_check_hull_raises(self, monkeypatch):
        from polysect import silhouette

        real = silhouette._hull_of_rows

        def drop_a_vertex(rows, factors):
            hull = real(rows, factors)
            return convex_hull(hull.vertices[1:])

        monkeypatch.setattr(silhouette, "_hull_of_rows", drop_a_vertex)
        with pytest.raises(WalkError, match="non-extreme"):
            shadow_walk(cube(), (1, 2, 3))
