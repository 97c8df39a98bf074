"""Shadow-boundary walk: termination, order, and hull equivalence."""

import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import CUBE_VERTICES, certify, lattice_sphere, lift_line

from polysect.geometry import as_vector, cross3, vdot, vsub
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

    def test_center_outside_the_shadow_has_no_forward_step(self):
        # the center (5, 0) lies outside the shadow: around it the forward
        # edge at (1, 0), up to (1, 1), turns clockwise, and the walk never
        # steps back along the other end, (1, -1)
        chart = shadow_chart((0, 0, 1))
        state = WalkState(
            (F(0), F(0), F(1)), chart, (F(5), F(0)), (F(1), F(0))
        )
        with pytest.raises(WalkError, match="no forward endpoint"):
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


def check_step(body, state, shadow):
    """step_g at state.current against the certified shadow in the walk's
    chart: an interior or outside point raises, a vertex is an isolated
    extreme and a point inside an edge steps along it, each to the next
    shadow vertex counterclockwise; the active cone facets contain the
    direction xi and support the body at the apex, which lies on the lifted
    line beyond the body."""
    x, xi = state.current, as_vector(state.xi)
    where = shadow.chart_contains(x)
    if where != "boundary":
        with pytest.raises(WalkError, match=where):
            step_g(body, state)
        return None
    out = step_g(body, state)
    assert state.chart.projected_coordinates(state.apex) == x
    assert vdot(xi, state.apex) > max(vdot(xi, v) for v in body.vertices)
    for n in out.active_normals:
        assert vdot(n, xi) == 0
        assert max(vdot(n, vsub(v, state.apex)) for v in body.vertices) == 0
    cycle = [shadow.vertices[i] for i in shadow.boundary_cycle()]
    if x in cycle:
        assert out.kind == "isolated-extreme" and len(out.active_normals) == 2
        assert out.next_point == cycle[(cycle.index(x) + 1) % len(cycle)]
    else:
        a, b = out.segment
        assert out.kind == "edge" and len(out.active_normals) == 1
        assert b == out.next_point == cycle[(cycle.index(a) + 1) % len(cycle)]
        assert shadow.active_facets(x) == shadow.active_facets(tuple((p + q) / 2 for p, q in zip(a, b)))
    return out


def check_walk(body, xi):
    """shadow_walk's vertices are the certified shadow's, each once, in
    counterclockwise order from the start rule's point."""
    chart = shadow_chart(xi)
    result = shadow_walk(body, xi)
    shadow = convex_hull(result.vertices)
    certify(shadow, body.vertices, chart)
    assert len(shadow.vertices) == len(result.vertices)
    cycle = [shadow.vertices[i] for i in shadow.boundary_cycle()]
    i = cycle.index(result.vertices[0])
    assert tuple(cycle[i:] + cycle[:i]) == result.vertices
    images = [chart.projected_coordinates(v) for v in body.vertices]
    assert result.start == next(p for p in images if p[0] == max(q[0] for q in images))
    assert result.steps <= len(body.vertices) + 2
    return shadow


class TestCertifiedSteps:
    """The walk and each step_g move are checked against the shadow that the
    hull certificate proves, at its vertices, at midpoints of vertex pairs
    (on an edge or inside), at the centroid and at those points mirrored
    away from the centroid (outside, or inside for interior ones)."""

    @settings(max_examples=30, deadline=None)
    @given(st.one_of(lattice_clouds, rational_clouds), directions)
    @example(VERTICAL_TRIANGLE, (0, 0, 1))
    @example(VERTICAL_EDGE, (0, 0, 1))
    def test_steps_and_walk(self, pts, xi):
        body = convex_hull(pts)
        if body.dim != 3:
            return
        shadow = check_walk(body, xi)
        n = len(shadow.vertices)
        center = tuple(sum(c) / n for c in zip(*shadow.vertices))
        points = set(shadow.vertices) | {center}
        points |= {tuple((a + b) / 2 for a, b in zip(p, q)) for p in shadow.vertices for q in shadow.vertices}
        points |= {tuple(2 * a - c for a, c in zip(p, center)) for p in points}
        chart = shadow_chart(xi)
        kinds = {check_step(body, WalkState(as_vector(xi), chart, center, x), shadow) is None for x in sorted(points)}
        assert kinds == {True, False}

    @pytest.mark.parametrize("xi", [(0, 0, 1), (1, 2, 3), (1, 1, 0)])
    def test_lattice_sphere(self, xi):
        # 150 extreme points; along (0, 0, 1) antipodal pairs give vertical edges
        body = convex_hull(random.Random(3).sample(lattice_sphere(101), 150))
        shadow = check_walk(body, xi)
        x = shadow.vertices[0]
        state = WalkState(as_vector(xi), shadow_chart(xi), shadow.interior_point(), x)
        for _ in shadow.vertices:
            state.current = check_step(body, state, shadow).next_point
        assert state.current == x


class TestWalkCheck:
    """Each emitted point is checked against the shadow's vertex rows, which
    `hull.hull_full_dim` finds among the distinct grid rows; as chart
    points they are the vertices of the shadow `project` returns."""

    def test_check_hull_is_the_projection(self, monkeypatch):
        from polysect import hull

        hulls = []
        real = hull.hull_full_dim

        def recorded(rows):
            hulls.append((rows, real(rows)))
            return hulls[-1][1]

        body, xi = octahedron(), (1, 2, 3)
        monkeypatch.setattr(hull, "hull_full_dim", recorded)
        result = shadow_walk(body, xi)
        ((rows, data),) = hulls
        monkeypatch.undo()
        assert len(set(rows)) == len(rows)
        chart = shadow_chart(as_vector(xi))
        _, (f1, f2) = chart.chart_grid(body.vertices)
        shadow = project(body, chart).polytope
        checked = {(rows[i][0] * f1, rows[i][1] * f2) for i in data.vertex_indices}
        assert checked == set(shadow.vertices)
        assert set(result.vertices) == set(shadow.vertices)

    def test_point_missing_from_the_check_hull_raises(self, monkeypatch):
        from polysect import hull

        real = hull.hull_full_dim

        def drop_a_vertex(rows):
            data = real(rows)
            return hull.IntHull(data.vertex_indices[1:], data.facets)

        body = cube()
        monkeypatch.setattr(hull, "hull_full_dim", drop_a_vertex)
        with pytest.raises(WalkError, match="non-extreme"):
            shadow_walk(body, (1, 2, 3))
