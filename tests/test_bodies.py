"""Support-function body oracles and boundary sampling."""

import dataclasses
import json
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from helpers import (
    CUBE_VERTICES,
    centered_polytope,
    closest_point_on_polytope_reference,
    glue_cap_member_reference,
    sphere_interval_reference,
)

from polysect.bodies import (
    BodyError,
    FlatMissesBody,
    _closest_point_finder,
    _convex_min_at_most,
    _nappe_interval,
    _sphere_interval,
    body_from_spec,
    glue_cap,
    make_ball,
    make_ellipsoid,
    ray_exit,
    sample_section_boundary,
    wrap_polytope,
)
from polysect.criteria import klee_section_test
from polysect.geometry import AffineFlat, DimensionMismatch
from polysect.polytope import convex_hull

TOL = 1e-9


def cube():
    return convex_hull(CUBE_VERTICES)


NOT_FINITE = [math.nan, math.inf, -math.inf]


class TestBall:
    def setup_method(self):
        self.ball = make_ball((0, 0, 0), 1)

    def test_support_scaling(self):
        h, pt = self.ball.support((2.0, 0.0, 0.0))
        assert abs(h - 2.0) < 1e-12
        assert max(abs(a - b) for a, b in zip(pt, (1.0, 0.0, 0.0))) < 1e-12

    def test_support_diagonal(self):
        h, pt = self.ball.support((1.0, 1.0, 1.0))
        assert abs(h - math.sqrt(3)) < 1e-12
        r = math.sqrt(sum(c * c for c in pt))
        assert abs(r - 1.0) < 1e-12

    def test_membership(self):
        assert self.ball.member((0.0, 0.0, 0.0))
        assert self.ball.member((1.0, 0.0, 0.0))
        assert not self.ball.member((1.0 + 1e-6, 0.0, 0.0))

    def test_shifted_center(self):
        ball = make_ball((2, 0, 0), 1)
        h, _ = ball.support((1.0, 0.0, 0.0))
        assert abs(h - 3.0) < 1e-12
        assert ball.member((2.5, 0.0, 0.0))
        assert not ball.member((0.5, 0.0, 0.0))

    def test_zero_direction_rejected(self):
        with pytest.raises(BodyError):
            self.ball.support((0.0, 0.0, 0.0))

    def test_bad_radius_rejected(self):
        with pytest.raises(BodyError):
            make_ball((0, 0, 0), 0)

    @pytest.mark.parametrize("x", NOT_FINITE)
    def test_center_and_radius_must_be_finite(self, x):
        # a NaN radius used to give a ball that K1 called polytope-consistent
        for center, radius in [((0, 0, 0), x), ((0, x, 0), 1)]:
            with pytest.raises(BodyError, match="must be finite"):
                make_ball(center, radius)


class TestEllipsoid:
    def test_support_closed_form(self):
        ell = make_ellipsoid((0, 0, 0), (2, 1, 1))
        h, pt = ell.support((1.0, 0.0, 0.0))
        assert abs(h - 2.0) < 1e-12
        u = (1.0, 1.0, 0.0)
        h, pt = ell.support(u)
        assert abs(h - math.sqrt(5.0)) < 1e-12
        # the support point realizes the support value and sits on the surface
        assert abs(sum(a * b for a, b in zip(u, pt)) - h) < 1e-12
        assert abs((pt[0] / 2) ** 2 + pt[1] ** 2 + pt[2] ** 2 - 1.0) < 1e-12

    def test_membership(self):
        ell = make_ellipsoid((0, 0, 0), (2, 1, 1))
        assert ell.member((1.99, 0.0, 0.0))
        assert not ell.member((0.0, 1.01, 0.0))

    def test_degenerate_axis_rejected(self):
        with pytest.raises(BodyError):
            make_ellipsoid((0, 0, 0), (1, 0, 1))

    @pytest.mark.parametrize("x", NOT_FINITE)
    def test_center_and_semi_axes_must_be_finite(self, x):
        # an infinite semi-axis used to give a "non-polytope" verdict
        for center, axes in [((0, 0, 0), (1, x, 1)), ((x, 0, 0), (1, 1, 1))]:
            with pytest.raises(BodyError, match="must be finite"):
                make_ellipsoid(center, axes)


class TestWrapPolytope:
    def test_exact_membership(self):
        oracle = wrap_polytope(cube())
        assert oracle.polytope is not None
        assert oracle.member((1.0, 1.0, 1.0))
        assert not oracle.member((1.0000001, 0.0, 0.0))

    def test_support_matches_vertex_maximum(self):
        body = cube()
        oracle = wrap_polytope(body)
        rng = random.Random(0)
        for _ in range(20):
            u = tuple(rng.uniform(-1, 1) for _ in range(3))
            h, pt = oracle.support(u)
            best = max(
                sum(float(c) * x for c, x in zip(v, u)) for v in body.vertices
            )
            assert abs(h - best) < 1e-9

    def test_keeps_polytope_reference(self):
        body = cube()
        assert wrap_polytope(body).polytope is body


class TestGlueCap:
    @pytest.mark.parametrize("x", NOT_FINITE)
    def test_center_and_radius_must_be_finite(self, x):
        # a NaN radius used to fail later, in a criterion
        for center, radius in [((1, 0, 0), x), ((1, x, 0), 1)]:
            with pytest.raises(BodyError):
                glue_cap(cube(), center, radius)

    def setup_method(self):
        # unit cube with a spherical cap glued on the +x side
        self.body = glue_cap(cube(), (1, 0, 0), 1)

    def test_contains_both_pieces(self):
        assert self.body.member((-1.0, -1.0, -1.0))
        assert self.body.member((1.9, 0.0, 0.0))

    def test_convex_combination_of_pieces(self):
        # midpoint of a cube vertex and a cap point
        assert self.body.member((0.45, -0.5, -0.5))

    def test_member_where_the_scaled_point_is_inside_the_polytope(self):
        # outside the cube and the ball, inside their hull: the minimum of
        # f(t) falls where x - (1 - t) c, scaled by 1 / t, lies inside the cube
        body = glue_cap(cube(), (3, 0, 0), 0.5)
        x = (1.125, 0.375, 0.25)
        assert body.member(x)
        assert glue_cap_member_reference(cube(), (3, 0, 0), 0.5)(x)

    def test_outside_both(self):
        assert not self.body.member((2.1, 0.0, 0.0))
        assert not self.body.member((-1.0, -1.0, -1.2))
        assert not self.body.member((1.5, 1.0, 1.0))

    def test_precomputed_closest_points_match_reference(self):
        rng = random.Random(5)
        polys = [cube()] + [centered_polytope(rng, 3, 12) for _ in range(3)]
        for poly in polys:
            inside, closest = _closest_point_finder(poly)
            checked = 0
            while checked < 40:
                p = tuple(rng.uniform(-6.0, 6.0) for _ in range(3))
                if poly.contains(tuple(F(x) for x in p)) != "outside":
                    assert inside(p)
                    continue
                assert not inside(p)
                assert closest(p) == closest_point_on_polytope_reference(poly, p)
                checked += 1

    def test_member_matches_reference(self):
        # random points and points 1e-7 (relative) inside and outside the
        # boundary along rays, on four caps
        rng = random.Random(8)
        caps = [(cube(), (1.0, 0.0, 0.0), 1.0), (cube(), (1.0, 0.2, -0.1), 0.8)]
        for _ in range(2):
            poly = centered_polytope(rng, 3, 12)
            vertex = tuple(float(x) for x in poly.vertices[0])
            caps.append((poly, vertex, rng.uniform(0.5, 1.5)))
        for poly, center, radius in caps:
            body = glue_cap(poly, center, radius)
            reference = glue_cap_member_reference(poly, center, radius)
            points = [tuple(rng.uniform(-4.0, 4.0) for _ in range(3)) for _ in range(16)]
            z = body.interior_hint
            for _ in range(8):
                u = tuple(rng.gauss(0.0, 1.0) for _ in range(3))
                t = ray_exit(body.member, z, u, 2.0**40)
                for scale in (1 - 1e-7, 1 + 1e-7):
                    points.append(tuple(a + scale * t * b for a, b in zip(z, u)))
            for x in points:
                assert body.member(x) == reference(x), x

    def test_support_is_max_of_pieces(self):
        h, _ = self.body.support((1.0, 0.0, 0.0))
        assert abs(h - 2.0) < 1e-6
        h, _ = self.body.support((-1.0, 0.0, 0.0))
        assert abs(h - 1.0) < 1e-6
        h, _ = self.body.support((0.0, 1.0, 0.0))
        assert abs(h - 1.0) < 1e-6


class TestConvexMinAtMost:
    """The certificate-stopped golden-section search behind cap membership."""

    def counted(self, f):
        calls = []

        def g(t):
            calls.append(t)
            return f(t)

        return g, calls

    @pytest.mark.parametrize("shift", [-0.5, -1e-3, 1e-3, 0.5])
    def test_decides_by_the_minimum(self, shift):
        f, calls = self.counted(lambda t: (t - 0.3) ** 2 + shift)
        assert _convex_min_at_most(f, 1e-9, 1.0, 0.0) == (shift <= 0)
        assert len(calls) < 40

    def test_nonsmooth_minimum(self):
        # a kink, as the distance to a polytope has
        f, calls = self.counted(lambda t: abs(t - 0.61) * 3 + 1e-4)
        assert not _convex_min_at_most(f, 1e-9, 1.0, 0.0)
        assert len(calls) < 40

    def test_minimum_at_an_end(self):
        assert _convex_min_at_most(lambda t: 1.0 - t, 0.0, 1.0, 1e-9)
        assert not _convex_min_at_most(lambda t: 1.0 + t, 0.0, 1.0, 0.5)

    def test_undecided_falls_back_to_the_midpoint(self):
        # the minimum equals the level between samples: no sample reaches it
        # and no bound exceeds it, so the bracket narrows to 1e-15 and the
        # midpoint sample, a hair above the level, decides
        f, calls = self.counted(lambda t: 1e-9 + abs(t - 1 / 3))
        assert not _convex_min_at_most(f, 0.0, 1.0, 1e-9)
        assert len(calls) == 77
        assert abs(calls[-2] - calls[-3]) < 1e-15


coords = st.floats(-3.0, 3.0)
lengths = st.floats(0.1, 10.0)


@st.composite
def smooth_bodies(draw):
    center = draw(st.tuples(coords, coords, coords))
    if draw(st.booleans()):
        return make_ball(center, draw(lengths))
    return make_ellipsoid(center, draw(st.tuples(lengths, lengths, lengths)))


@st.composite
def interior_rays(draw):
    """(body, interior point z, direction u) with z at most 0.95 of the way out."""
    body = draw(smooth_bodies())
    v = draw(st.tuples(coords, coords, coords))
    u = draw(st.tuples(coords, coords, coords))
    assume(math.hypot(*v) > 0.1 and math.hypot(*u) > 0.1)
    _, edge = body.support(v)
    frac = draw(st.floats(0.0, 0.95))
    c = body.interior_hint
    z = tuple(ci + frac * (ei - ci) for ci, ei in zip(c, edge))
    return body, z, u


class TestRayInterval:
    """Closed-form ray intervals against the member bisection they replace."""

    @settings(max_examples=150, deadline=None)
    @given(interior_rays())
    def test_exit_matches_bisection(self, case):
        body, z, u = case
        t0, t1 = body.ray_interval(z, u)
        assert t0 < 0 < t1

        def along(t):
            return tuple(zi + t * ui for zi, ui in zip(z, u))

        fallback = dataclasses.replace(body, ray_interval=None)
        t_bisect = ray_exit(fallback.member, z, u, 2.0**40)
        assert abs(t1 - t_bisect) <= 1e-9 * t_bisect
        assert body.member(along(t1 * (1 - 1e-8)))
        assert not body.member(along(t1 * (1 + 1e-8)))
        assert body.member(along(t0 * (1 - 1e-8)))
        assert not body.member(along(t0 * (1 + 1e-8)))

    @settings(max_examples=40, deadline=None)
    @given(smooth_bodies(), st.integers(0, 10_000))
    def test_section_sample_matches_bisection(self, body, seed):
        rng = random.Random(seed)
        base = tuple(F(round(c * 64), 64) for c in body.interior_hint)
        dirs = [tuple(rng.randint(-4, 4) for _ in range(3)) for _ in range(2)]
        assume(any(any(d) for d in dirs))
        flat = AffineFlat.spanning(base, dirs)
        assume(flat.dim == 2)
        fast = _sweep(sample_section_boundary(body, flat), 16)
        fallback = dataclasses.replace(body, ray_interval=None)
        slow = _sweep(sample_section_boundary(fallback, flat), 16)
        scale = max(math.hypot(*p) for p in slow)
        for p, q in zip(fast, slow):
            assert math.dist(p, q) <= 1e-9 * scale

    def test_same_tolerance_as_member(self):
        # member accepts 1e-12 beyond the surface; the interval ends there
        ball = make_ball((0, 0, 0), 1)
        ell = make_ellipsoid((0, 0, 0), (1, 2, 2))
        for body in (ball, ell):
            _, t1 = body.ray_interval((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))
            assert body.member((t1 - 1e-14, 0.0, 0.0))
            assert not body.member((t1 + 1e-14, 0.0, 0.0))
            assert t1 > 1.0 + 4e-13

    def test_line_missing_the_body(self):
        ball = make_ball((0, 0, 0), 1)
        assert ball.ray_interval((0.0, 0.0, 2.0), (1.0, 0.0, 0.0)) is None
        ell = make_ellipsoid((0, 0, 0), (2, 1, 1))
        assert ell.ray_interval((0.0, 1.5, 0.0), (1.0, 0.0, 0.0)) is None

    def test_zero_direction_rejected(self):
        with pytest.raises(BodyError):
            make_ball((0, 0, 0), 1).ray_interval((0.0, 0.0, 0.0), (0.0, 0.0, 0.0))

    def test_bodies_without_closed_form(self):
        assert wrap_polytope(cube()).ray_interval is None
        assert glue_cap(cube(), (1, 0, 0), 1).ray_interval is None

    def test_nappe_interval_linear_case(self):
        # a == 0: the set {r : 2*b*r + c >= 0}, on either nappe's side,
        # against the sign of 2*b*r + c on a grid that holds most roots
        grid = [k / 4 for k in range(-40, 41)]
        for b in (-2.0, -0.5, 0.0, 0.5, 3.0):
            for c in (-3.0, -1.0, 0.0, 1.5):
                for q in (-1.0, 1.0):
                    span = _nappe_interval(0.0, b, c, q)
                    for r in grid:
                        inside = span is not None and span[0] <= r <= span[1]
                        assert inside == (2.0 * b * r + c >= 0), (b, c, q, r)


def _sweep(point_at, count):
    return [point_at(2.0 * math.pi * j / count) for j in range(count)]


def _xy_plane(z=0):
    return AffineFlat.spanning((F(0), F(0), F(z)), [(1, 0, 0), (0, 1, 0)])


class TestSampleSectionBoundary:
    def test_ball_circle_radii(self):
        for p in _sweep(sample_section_boundary(make_ball((0, 0, 0), 1), _xy_plane()), 32):
            assert abs(math.hypot(*p) - 1.0) < 1e-6

    def test_cube_section_square(self):
        point_at = sample_section_boundary(wrap_polytope(cube()), _xy_plane())
        for p in _sweep(point_at, 16):
            assert abs(max(abs(c) for c in p) - 1.0) < 1e-9

    def test_offset_flat(self):
        point_at = sample_section_boundary(make_ball((0, 0, 0), 1), _xy_plane(F(1, 2)))
        r = math.sqrt(1 - 0.25)
        for p in _sweep(point_at, 16):
            assert abs(math.hypot(*p) - r) < 1e-6

    def test_points_are_relative_to_the_centre(self):
        # the centre of an off-centre section is the centroid of 8 exits
        ball = make_ball((0.5, -0.25, 0), 1)
        point_at = sample_section_boundary(ball, _xy_plane())
        for p in _sweep(point_at, 16):
            assert abs(math.hypot(*p) - 1.0) < 1e-9
        assert point_at(0.0)[1] == 0.0 and point_at(0.5 * math.pi)[0] < 1e-15

    def test_flat_missing_interior_raises(self):
        with pytest.raises(FlatMissesBody, match="interior"):
            sample_section_boundary(make_ball((0, 0, 0), 1), _xy_plane(5))

    def test_needs_two_dim_flat(self):
        line = AffineFlat.spanning((F(0),) * 3, [(1, 0, 0)])
        with pytest.raises(BodyError):
            sample_section_boundary(make_ball((0, 0, 0), 1), line)

    def test_eight_exits_then_one_per_probe(self):
        # 8 exits find the centre; every later exit starts from it
        ball = make_ball((0.25, -0.5, 0.125), 1.5)
        calls = []

        def ray_interval(z, u):
            calls.append(z)
            return ball.ray_interval(z, u)

        counted = dataclasses.replace(ball, ray_interval=ray_interval)
        flat = AffineFlat.spanning((F(1, 3), F(-1, 2), F(0)), [(1, 2, 0), (0, 1, -1)])
        point_at = sample_section_boundary(counted, flat)
        assert len(calls) == 8
        _sweep(point_at, 5)
        assert len(calls) == 13
        assert len(set(calls[:8])) == len(set(calls[8:])) == 1


finite = st.floats(-1e6, 1e6)


@st.composite
def sphere_lines(draw):
    """(w, v, rr): a line w + t*v in dimension 2-4 and a squared radius."""
    dim = draw(st.integers(2, 4))
    w = draw(st.lists(finite, min_size=dim, max_size=dim))
    v = draw(st.lists(finite, min_size=dim, max_size=dim))
    return w, v, draw(st.floats(0.0, 1e12))


def _same_roots(w, v, rr):
    # repr tells -0.0 from 0.0, so equal reprs mean bit-identical tuples
    try:
        expected = repr(sphere_interval_reference(w, v, rr))
    except BodyError:
        with pytest.raises(BodyError):
            _sphere_interval(w, v, rr)
        return
    assert repr(_sphere_interval(w, v, rr)) == expected, (w, v, rr)


class TestMergedRayRoutes:
    """The shared quadratic and ray primitive against the routes they replaced."""

    @settings(max_examples=300, deadline=None)
    @given(sphere_lines())
    @example(([0.0, 0.0], [0.0, 0.0], 1.0))
    @example(([1.0, 0.0], [0.0, 1.0], 1.0))
    @example(([-0.0, 2.0], [1.0, -0.0], 4.0))
    @example(([1.0, 0.0], [1.0, 0.0], 1.0))  # a root at -0.0
    def test_sphere_roots_bit_identical(self, case):
        _same_roots(*case)

    def test_sphere_roots_bit_identical_on_seeded_lines(self):
        rng = random.Random(11)
        for _ in range(20_000):
            dim = rng.randint(2, 4)
            scale = 10.0 ** rng.randint(-6, 6)
            w = [rng.gauss(0.0, scale) for _ in range(dim)]
            v = [rng.gauss(0.0, 10.0 ** rng.randint(-3, 3)) for _ in range(dim)]
            _same_roots(w, v, (rng.uniform(0.0, 2.0) * scale) ** 2)


def _cap_spec(scale):
    cube_vertices = [[scale * c for c in v] for v in CUBE_VERTICES]
    return {"kind": "cap", "polytope": {"vertices": cube_vertices},
            "center": [scale, 0, 0], "radius": scale}


class TestBodyCeiling:
    """Bisected ray exits give up at BODY_CEILING, beyond every spec body."""

    def test_scaled_cap_gives_the_unit_verdict(self):
        # 1e13 across: exits from an interior point lie beyond 2^40 (1.1e12)
        reports = [
            klee_section_test(body_from_spec(_cap_spec(s)), 1, 1, boundary_points=8)
            for s in (1, 10**13)
        ]
        unit, scaled = [
            (r.verdict, r.samples_used, r.notes, r.witness.sample_index, r.witness.triple)
            for r in reports
        ]
        assert unit[0] == "non-polytope"
        assert scaled == unit


class TestBodyFromSpec:
    def test_ball_spec(self):
        oracle = body_from_spec({"kind": "ball", "center": [0, 0, 0], "radius": 1})
        assert oracle.dim == 3
        assert oracle.member((0.5, 0.0, 0.0))

    def test_rational_strings(self):
        oracle = body_from_spec(
            {"kind": "ball", "center": ["1/2", 0, 0], "radius": "3/2"}
        )
        assert oracle.member((1.9, 0.0, 0.0))

    def test_ellipsoid_spec(self):
        oracle = body_from_spec(
            {"kind": "ellipsoid", "center": [0, 0, 0], "semi_axes": [2, 1, 1]}
        )
        assert oracle.member((1.9, 0.0, 0.0))

    def test_polytope_vertices_spec(self):
        oracle = body_from_spec(
            {"kind": "polytope", "vertices": [list(v) for v in CUBE_VERTICES]}
        )
        assert oracle.polytope is not None
        assert len(oracle.polytope.vertices) == 8

    def test_polytope_off_reference(self, tmp_path):
        from polysect.offio import emit_off

        path = tmp_path / "cube.off"
        path.write_text(emit_off(cube()))
        oracle = body_from_spec({"kind": "polytope", "off": "cube.off"}, str(tmp_path))
        assert oracle.polytope is not None
        assert len(oracle.polytope.vertices) == 8

    def test_cap_spec(self):
        oracle = body_from_spec(
            {
                "kind": "cap",
                "polytope": {"vertices": [list(v) for v in CUBE_VERTICES]},
                "center": [1, 0, 0],
                "radius": 1,
            }
        )
        assert oracle.member((1.9, 0.0, 0.0))

    def test_unknown_kind_rejected(self):
        with pytest.raises(BodyError):
            body_from_spec({"kind": "torus"})

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "ball", "center": [0, 0, 0]}, "ball spec needs 'radius'"),
            ({"kind": "ellipsoid", "semi_axes": [1, 1]}, "ellipsoid spec needs 'center'"),
            ({"kind": "cap", "center": [0, 0, 0], "radius": 1}, "cap spec needs 'polytope'"),
            ({"kind": "cap", "polytope": {}, "center": [0, 0, 0], "radius": 1},
             "polytope spec needs 'vertices' or 'off'"),
            ({"kind": "cap", "polytope": "cube.off", "center": [0, 0, 0], "radius": 1},
             "polytope spec must be an object"),
        ],
    )
    def test_missing_key_rejected(self, spec, message):
        with pytest.raises(BodyError, match=message):
            body_from_spec(spec)

    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"kind": "ball", "center": 5, "radius": 1}, "center must be a list"),
            ({"kind": "ball", "center": None, "radius": 1}, "center must be a list"),
            ({"kind": "polytope", "vertices": 5}, "vertices must be a list of points"),
            ({"kind": "ball", "center": [0, 0, 0], "radius": math.inf}, "not a finite"),
            ({"kind": "ball", "center": [0, 0, 0], "radius": "1/0"}, "not a finite"),
            ({"kind": "polytope", "off": 5}, "'off' must be a path string"),
            ({"kind": "ball", "center": [0, 0, 0], "radius": "1e999"}, "beyond 1e100"),
            ({"kind": "ball", "center": [1e300, 0, 0], "radius": 1}, "beyond 1e100"),
            ({"kind": "ball", "center": [0, 0, 0], "radius": 10**400}, "beyond 1e100"),
            ({"kind": "ball", "center": [0, 0, 0], "radius": math.nan}, "not a finite"),
            ({"kind": "ball", "center": [0, 0, 0], "radius": "nan"}, "not a finite"),
            ({"kind": "ball", "center": [0, 0, 0], "radius": "-1/0"}, "not a finite"),
            ({"kind": "ball", "center": [0, 0, 0], "radius": [1]}, "cannot interpret"),
            ({"kind": "ellipsoid", "center": [0, 0, 0], "semi_axes": "1,1,1"},
             "semi_axes must be a list"),
            ({"kind": "polytope", "vertices": [[0, 0, 0], 5]}, "a vertex must be a list"),
        ],
    )
    def test_malformed_value_rejected(self, spec, message):
        with pytest.raises(BodyError, match=message):
            body_from_spec(spec)

    def test_largest_value_accepted(self):
        oracle = body_from_spec({"kind": "ball", "center": [-1e100, 0, 0], "radius": 1e100})
        assert oracle.member((-1e100, 0.0, 0.0))

    def test_cap_beyond_float_range_rejected(self):
        # a tiny coordinate with a huge denominator gives huge integer normals
        tiny = "1/" + "1" + "0" * 160
        vertices = [[1, 0, 0], [0, 1, 0], [0, 0, 1], [0, 0, tiny]]
        spec = {"kind": "cap", "polytope": {"vertices": vertices},
                "center": [0, 0, 0], "radius": 1}
        with pytest.raises(BodyError, match="too large for float arithmetic"):
            body_from_spec(spec)

    def test_cap_center_dimension_checked(self):
        with pytest.raises(DimensionMismatch):
            glue_cap(cube(), (1, 0), 1)

    def test_bool_coordinate_rejected(self):
        with pytest.raises(BodyError):
            body_from_spec({"kind": "ball", "center": [True, 0, 0], "radius": 1})

    def test_round_trip_through_json(self):
        text = json.dumps({"kind": "ball", "center": [0, 0, 0], "radius": 1})
        oracle = body_from_spec(json.loads(text))
        assert oracle.name == "ball"
