"""Visual cones, exact cone sections, and the polyhedrality scan."""

import dataclasses
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (
    CUBE_VERTICES,
    centered_polytope,
    certify_pyramid,
    cone_contains_point,
    exact_cone_oracle_sampling_only,
    from_generators,
    is_extreme_oracle,
    matrix_rank,
    polytope_of_dim,
    primitive_direction,
    random_points,
    section_points_by_subsets,
)

from polysect.bodies import ray_exit
from polysect.cones import (
    ConeError,
    ConeOracle,
    ball_visual_cone_oracle,
    cone_oracle_from_exact,
    cone_section,
    mirkil_scan,
    visual_cone,
)
from polysect.geometry import AffineFlat, vdot, vscale, vsub
from polysect.polytope import convex_hull

OCTA_VERTICES = [
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
]


def cube():
    return convex_hull(CUBE_VERTICES)


def octahedron():
    return convex_hull(OCTA_VERTICES)


def brute_force_extreme_rays(body, apex):
    """Independent filter: scale every vertex ray onto the plane z = -1
    below the apex and keep those extreme in the planar hull.  Valid for
    apexes strictly above the body (all rays point downward)."""
    apex = tuple(F(a) for a in apex)
    rays = [vsub(v, apex) for v in body.vertices]
    assert all(r[-1] < 0 for r in rays)
    base = [vscale(r, F(-1) / r[-1]) for r in rays]
    keep = [
        primitive_direction(r)
        for r, y in zip(rays, base)
        if is_extreme_oracle(base, y)
    ]
    return set(keep)


class TestPrimitiveDirection:
    def test_integer_scaling(self):
        assert primitive_direction((F(2), F(4), F(-6))) == (1, 2, -3)

    def test_fraction_clearing(self):
        assert primitive_direction((F(1, 2), F(1, 3))) == (3, 2)

    def test_scale_invariance(self):
        v = (F(3, 7), F(-2, 5), F(1))
        assert primitive_direction(v) == primitive_direction(vscale(v, F(11, 4)))

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(max_denominator=60), min_size=1, max_size=4))
    def test_coprime_ints_along_the_direction(self, v):
        assume(any(v))
        p = primitive_direction(v)
        assert all(x.denominator == 1 for x in p) and math.gcd(*map(int, p)) == 1
        # p = s v for one s > 0
        s = next(a / b for a, b in zip(p, v) if b)
        assert s > 0 and p == tuple(s * x for x in v)


class TestVisualCone:
    def test_cube_from_above_has_four_rays(self):
        cone = visual_cone((0, 0, 3), cube())
        assert cone.apex == (0, 0, 3)
        assert cone.extreme_ray_count == 4
        assert set(cone.generators) == {
            (1, 1, -2), (1, -1, -2), (-1, 1, -2), (-1, -1, -2),
        }

    def test_cube_halfspaces_are_tight_at_apex(self):
        cone = visual_cone((0, 0, 3), cube())
        assert cone.halfspaces is not None
        for hs in cone.halfspaces:
            assert hs.offset == 0
            vals = [vdot(hs.normal, g) for g in cone.generators]
            assert all(v <= 0 for v in vals)
            # each facet of a 3-dim pointed cone holds at least two rays
            assert sum(1 for v in vals if v == 0) >= 2

    @pytest.mark.parametrize("apex, ray, normal", [(5, (-1,), (1,)), (-4, (1,), (-1,))])
    def test_segment_in_one_dimension_keeps_its_ray(self, apex, ray, normal):
        # each end of the segment lies on one facet, which sees or hides the
        # apex, so the horizon rule would drop both rays: R^1 keeps them all
        cone = visual_cone((apex,), convex_hull([(-1,), (2,)]))
        assert cone.generators == (ray,)
        assert [(hs.normal, hs.offset) for hs in cone.halfspaces] == [(normal, 0)]

    def test_octahedron_from_above_has_four_rays(self):
        cone = visual_cone((0, 0, 3), octahedron())
        assert cone.extreme_ray_count == 4

    @pytest.mark.parametrize("body_fn", [cube, octahedron])
    def test_matches_brute_force_filter(self, body_fn):
        body = body_fn()
        cone = visual_cone((0, 0, 3), body)
        assert set(cone.generators) == brute_force_extreme_rays(body, (0, 0, 3))

    @pytest.mark.parametrize("seed", range(5))
    def test_random_bodies_match_brute_force(self, seed):
        rng = random.Random(seed)
        body = centered_polytope(rng, 3, 12)
        top = max(v[-1] for v in body.vertices)
        apex = (F(rng.randint(-2, 2)), F(rng.randint(-2, 2)), top + 3)
        cone = visual_cone(apex, body)
        assert set(cone.generators) == brute_force_extreme_rays(body, apex)

    def test_membership_of_body_and_apex(self):
        body = cube()
        cone = visual_cone((0, 0, 3), body)
        assert cone_contains_point(cone, cone.apex)
        for v in body.vertices:
            assert cone_contains_point(cone, v)
        assert cone_contains_point(cone, (0, 0, 0))

    def test_pointedness(self):
        cone = visual_cone((0, 0, 3), cube())
        for g in cone.generators:
            assert cone.contains_direction(g)
            assert not cone.contains_direction(vscale(g, F(-1)))

    def test_outside_directions_rejected(self):
        cone = visual_cone((0, 0, 3), cube())
        assert not cone.contains_direction((0, 0, 1))
        assert not cone_contains_point(cone, (5, 5, 3))

    def test_apex_inside_raises(self):
        with pytest.raises(ConeError):
            visual_cone((0, 0, 0), cube())

    def test_apex_on_boundary_raises(self):
        with pytest.raises(ConeError):
            visual_cone((1, 1, 1), cube())
        with pytest.raises(ConeError):
            visual_cone((1, 0, 0), cube())


class TestFromGenerators:
    def test_redundant_ray_dropped(self):
        cone = from_generators(
            (0, 0, 0), [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]
        )
        assert set(cone.generators) == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_orthant_membership(self):
        cone = from_generators((0, 0, 0), [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert cone.contains_direction((2, 3, 1))
        assert not cone.contains_direction((-1, 1, 1))

    def test_lineality_rejected(self):
        with pytest.raises(ConeError, match="lineality"):
            from_generators((0, 0, 0), [(1, 0, 0), (-1, 0, 0), (0, 1, 0)])


class TestConeSection:
    def setup_method(self):
        self.cone = visual_cone((0, 0, 3), cube())

    def test_hyperplane_through_apex(self):
        flat = AffineFlat((F(0), F(0), F(3)), ((F(0), F(1), F(0)), (F(0), F(0), F(1))))
        sec = cone_section(self.cone, flat)
        assert sec is not None
        assert set(sec.cone.generators) == {(1, -2), (-1, -2)}
        # the chart is anchored at the apex, so the section apex is the origin
        assert sec.cone.apex == (0, 0)

    def test_section_matches_visual_cone_of_sectioned_body(self):
        # cutting the cone and taking the visual cone of the cut body agree
        flat = AffineFlat((F(0), F(0), F(3)), ((F(0), F(1), F(0)), (F(0), F(0), F(1))))
        sec = cone_section(self.cone, flat)
        square = convex_hull([(-1, -1), (-1, 1), (1, -1), (1, 1)])
        direct = visual_cone((0, 3), square)
        assert set(sec.cone.generators) == set(direct.generators)

    def test_apex_only_section_is_none(self):
        flat = AffineFlat((F(0), F(0), F(3)), ((F(1), F(0), F(0)), (F(0), F(1), F(0))))
        assert cone_section(self.cone, flat) is None

    def test_full_dimensional_flat_returns_cone(self):
        flat = AffineFlat.spanning(
            (F(0), F(0), F(3)), [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        )
        sec = cone_section(self.cone, flat)
        assert sec is not None
        assert set(sec.cone.generators) == set(self.cone.generators)

    def test_line_section_through_a_ray(self):
        flat = AffineFlat.spanning((F(0), F(0), F(3)), [(1, 1, -2)])
        sec = cone_section(self.cone, flat)
        assert sec is not None
        assert sec.cone.extreme_ray_count == 1

    def test_line_section_missing_the_cone(self):
        flat = AffineFlat.spanning((F(0), F(0), F(3)), [(1, 0, 0)])
        assert cone_section(self.cone, flat) is None

    def test_flat_must_pass_through_apex(self):
        flat = AffineFlat.spanning((F(5), F(5), F(5)), [(0, 1, 0), (0, 0, 1)])
        with pytest.raises(ConeError):
            cone_section(self.cone, flat)


def _cone_section_case(seed):
    """The visual cone of a random body of any dimension in dimension 1-4
    from an outside apex, and a flat of any dimension through the apex,
    sometimes along one of the cone's rays."""
    rng = random.Random(seed)
    d = rng.randint(1, 4)
    body = polytope_of_dim(rng, d, rng.randint(0, d))
    apex = random_points(rng, d, 1, -6, 6, 2)[0]
    while body.contains(apex) != "outside":
        apex = random_points(rng, d, 1, -6, 6, 2)[0]
    cone = visual_cone(apex, body)
    k = rng.randint(1, d)
    dirs = random_points(rng, d, k, -2, 2, 1)
    while matrix_rank(dirs) < k:
        dirs = random_points(rng, d, k, -2, 2, 1)
    if rng.random() < 0.5:
        dirs[0] = rng.choice(cone.generators)
    shift = rng.randint(-2, 2)
    base = tuple(a + shift * b for a, b in zip(apex, dirs[-1]))
    return cone, AffineFlat.spanning(base, dirs)


def check_cone_section(cone, flat):
    """cone_section against brute force: the section points of the cone's
    pyramid by the flat's linear span other than 0 lie on w . y = 1, so in
    that span's chart they lie on w_chart . s = 1, and the section cone's
    pyramid is the certified hull of 0 and them; None when there are none."""
    got = cone_section(cone, flat)
    linear = AffineFlat((F(0),) * cone.ambient_dim, flat.basis)
    pts = [] if cone.pyramid is None else section_points_by_subsets(cone.pyramid, linear)
    pts = [p for p in pts if any(p)]
    if not pts:
        assert got is None
        return None
    assert (got.apex, got.flat) == (cone.apex, AffineFlat(cone.apex, flat.basis))
    w_chart = tuple(vdot(cone.positive_normal, b) for b in flat.basis)
    assert got.cone.positive_normal == w_chart
    certify_pyramid(got.cone.pyramid, [linear.coordinates(p) for p in pts])
    return got


class TestConeSectionRoute:
    """cone_section cuts the pyramid by the flat's linear span in one
    `section`; the brute-force section points of the pyramid are the
    reference, through the hull certificate."""

    @settings(max_examples=80, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_certified(self, seed):
        check_cone_section(*_cone_section_case(seed))

    def test_every_outcome_class_occurs(self):
        seen = set()
        for seed in range(200):
            cone, flat = _cone_section_case(seed)
            got = check_cone_section(cone, flat)
            seen.add((cone.ambient_dim, flat.dim, got is None))
        assert {(d, k) for d, k, _ in seen} == {
            (d, k) for d in range(1, 5) for k in range(1, d + 1)
        }
        for d in range(2, 5):
            assert {none for dd, _, none in seen if dd == d} == {True, False}

    def test_flat_off_the_apex_raises(self):
        cone = visual_cone((0, 0, 3), cube())
        flat = AffineFlat.spanning((F(5), F(5), F(5)), [(0, 1, 0), (0, 0, 1)])
        with pytest.raises(ConeError, match="flat must pass through the apex"):
            cone_section(cone, flat)


class TestApexInTheBodysAffineHull:
    """A lower-dimensional body seen from an apex in its own affine hull:
    the separating functional is the lifted chart normal of a facet that
    sees the apex, so the cone is the chart body's visual cone, lifted."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(min_value=0, max_value=10**6))
    def test_matches_the_chart_cone_lifted(self, seed):
        rng = random.Random(seed)
        d = rng.randint(2, 4)
        body = polytope_of_dim(rng, d, rng.randint(1, d - 1))
        span = body.span
        chart_apex = tuple(F(rng.randint(-12, 12), 2) for _ in range(body.dim))
        assume(body.chart_contains(chart_apex) == "outside")
        cone = visual_cone(span.point_at(chart_apex), body)
        chart_cone = visual_cone(chart_apex, convex_hull(body.chart_vertices))
        lifted = {
            primitive_direction(vsub(span.point_at(g), span.base))
            for g in chart_cone.generators
        }
        assert set(cone.generators) == lifted
        assert cone.span_dim == chart_cone.span_dim
        # the functional is a direction of the body's span
        w = cone.positive_normal
        assert span.contains(tuple(b + x for b, x in zip(span.base, w)))

    def test_apex_on_a_facet_line_is_separated_by_a_seeing_facet(self):
        # the edge whose line holds the apex has zero slack there and does
        # not separate: its vertices would get w.(v - z) = 0
        tri = convex_hull([(0, 0, 0), (1, 0, 0), (0, 1, 0)])
        for z, rays in (
            ((2, 0, 0), {(-2, 1, 0), (-1, 0, 0)}),
            ((0, 2, 0), {(0, -1, 0), (1, -2, 0)}),
            ((0, -1, 0), {(0, 1, 0), (1, 1, 0)}),
        ):
            assert set(visual_cone(z, tri).generators) == rays


class TestConeOracle:
    def test_exact_oracle_matches_cone(self):
        cone = visual_cone((0, 0, 3), cube())
        oracle = cone_oracle_from_exact(cone)
        rng = random.Random(3)
        for _ in range(50):
            u = tuple(rng.uniform(-1, 1) for _ in range(3))
            assert oracle.member(u) == cone.contains_direction(
                tuple(F(x) for x in u)
            )

    def test_axis_hint_is_member(self):
        cone = visual_cone((0, 0, 3), cube())
        oracle = cone_oracle_from_exact(cone)
        assert oracle.member(oracle.axis_hint)


class TestMirkilScan:
    def test_negative_budget_raises(self):
        cone = visual_cone((0, 0, 3), cube())
        with pytest.raises(ConeError):
            mirkil_scan(cone_oracle_from_exact(cone), -1)

    def test_zero_budget_is_flagged(self):
        cone = visual_cone((0, 0, 3), cube())
        rep = mirkil_scan(cone_oracle_from_exact(cone), 0)
        assert rep.verdict == "polyhedral-consistent"
        assert "zero-budget" in rep.notes
        assert rep.samples_used == 0

    def test_exact_cone_short_circuits(self):
        cone = visual_cone((0, 0, 3), cube())
        rep = mirkil_scan(cone_oracle_from_exact(cone), 5, seed=1)
        assert rep.verdict == "polyhedral-consistent"
        assert rep.samples_used == 5
        assert "zero-budget" not in rep.notes
        assert any("polyhedral by construction" in n for n in rep.notes)

    def test_sampled_exact_cone_stays_consistent(self):
        cone = visual_cone((0, 0, 3), cube())
        oracle = exact_cone_oracle_sampling_only(cone)
        rep = mirkil_scan(oracle, 3, seed=2, boundary_points=48)
        assert rep.verdict == "polyhedral-consistent"
        assert rep.witness is None

    def test_ball_cone_produces_witness(self):
        oracle = ball_visual_cone_oracle((0.0, 0.0, 3.0), (0.0, 0.0, 0.0), 1.0)
        rep = mirkil_scan(oracle, 10, seed=0)
        assert rep.verdict == "non-polyhedral"
        assert rep.samples_used <= 10
        assert rep.witness is not None
        assert rep.witness.triple_area > 0
        # a refutation proves more vertices than the bound; nothing is redrawn
        assert rep.witness.reverified and rep.witness.vertex_bound == 65
        assert rep.notes == ()

    @pytest.mark.parametrize("seed", range(8))
    def test_narrow_four_dim_cone_refuted_on_its_first_sample(self, seed):
        # every 3-subspace holds the axis hint, so no sample misses the
        # narrow 4-D cone
        oracle = ball_visual_cone_oracle((0, 0, 0, 3), (0, 0, 0, 0), 1.0)
        rep = mirkil_scan(oracle, 1, seed)
        assert (rep.verdict, rep.notes) == ("non-polyhedral", ())

    def test_unbounded_cross_section_is_noted(self):
        # a cone wider than a half-space's worth around its axis: the
        # section normal to the axis is unbounded, and rays pass 2^30
        oracle = ConeOracle(3, lambda u: u[2] >= -0.5 * math.hypot(u[0], u[1]), (0.0, 0.0, 1.0))
        rep = mirkil_scan(oracle, 2, seed=1)
        assert rep.verdict == "polyhedral-consistent"
        assert rep.notes == tuple(
            f"sample {i}: coverage violation (no bounded cross-section)" for i in range(2)
        )

    def test_ball_cone_four_dim_witness(self):
        oracle = ball_visual_cone_oracle(
            (0.0, 0.0, 0.0, 3.0), (0.0, 0.0, 0.0, 0.0), 1.0
        )
        rep = mirkil_scan(oracle, 5, seed=1, boundary_points=48)
        assert rep.verdict == "non-polyhedral"
        assert rep.witness is not None
        assert len(rep.witness.normals) == 3

    def test_four_dim_exact_cone_consistent(self):
        cross4 = convex_hull(
            [tuple((1 if i == j else 0) * s for j in range(4)) for i in range(4) for s in (1, -1)]
        )
        cone = visual_cone((0, 0, 0, 3), cross4)
        rep = mirkil_scan(cone_oracle_from_exact(cone), 4, seed=3)
        assert rep.verdict == "polyhedral-consistent"

    @pytest.mark.parametrize("far", [1e155, 1e200])
    def test_far_apex_does_not_overflow(self, far):
        # squaring the apex distance overflows; a round cone must not be
        # answered from the zero axis that an infinite norm would give
        with pytest.raises(ConeError, match="too far"):
            ball_visual_cone_oracle((0.0, 0.0, far), (0.0, 0.0, 0.0), 1.0)

    def test_determinism(self):
        oracle = ball_visual_cone_oracle((0.0, 0.0, 3.0), (0.0, 0.0, 0.0), 1.0)
        a = mirkil_scan(oracle, 6, seed=9)
        b = mirkil_scan(oracle, 6, seed=9)
        assert a == b


coords = st.floats(-3.0, 3.0)


@st.composite
def ball_cone_rays(draw):
    """(oracle, interior direction w, direction d) for a ball's visual cone.

    w is a unit direction at most 0.9 of the half-angle off the axis.  d
    keeps an angular margin from the cone's boundary, so the exit is either
    clearly finite or clearly absent, as the scan's boundary rays are.
    """
    dim = draw(st.sampled_from((3, 4)))
    center = draw(st.tuples(*[coords] * dim))
    radius = draw(st.floats(0.1, 3.0))
    u = draw(st.tuples(*[coords] * dim))
    assume(math.hypot(*u) > 0.1)
    reach = draw(st.floats(1.1, 8.0)) * radius / math.hypot(*u)
    apex = tuple(c + reach * x for c, x in zip(center, u))
    oracle = ball_visual_cone_oracle(apex, center, radius)
    axis = oracle.axis_hint
    half = math.asin(radius / math.dist(apex, center))
    v = draw(st.tuples(*[coords] * dim))
    side = tuple(x - sum(a * b for a, b in zip(v, axis)) * a for x, a in zip(v, axis))
    assume(math.hypot(*side) > 0.1)
    tilt = draw(st.floats(0.0, 0.9)) * half
    w = tuple(
        math.cos(tilt) * a + math.sin(tilt) * x / math.hypot(*side)
        for a, x in zip(axis, side)
    )
    d = draw(st.tuples(*[coords] * dim))
    nd = math.hypot(*d)
    assume(nd > 0.1)
    # a line through the apex (u = 0) is degenerate; the scan's lines have
    # d orthogonal to w and stay at distance 1 from it
    wd = sum(a * b for a, b in zip(w, d)) / nd
    assume(1.0 - wd * wd > 0.01)
    off_axis = math.acos(max(-1.0, min(1.0, sum(a * b for a, b in zip(d, axis)) / nd)))
    assume(abs(off_axis - half) > 0.05)
    return oracle, w, d


class TestConeRayInterval:
    """Closed-form cone exits against the member bisection they replace."""

    @settings(max_examples=150, deadline=None)
    @given(ball_cone_rays())
    def test_exit_matches_bisection(self, case):
        oracle, w, d = case
        fallback = dataclasses.replace(oracle, ray_interval=None)

        def along(r):
            return tuple(wi + r * di for wi, di in zip(w, d))

        r_bisect = ray_exit(fallback.member, w, d, 2.0**30)
        r0, r1 = oracle.ray_interval(w, d)
        assert r0 < 0 < r1
        if r_bisect is None:
            assert r1 == math.inf
            return
        assert abs(r1 - r_bisect) <= 1e-9 * r_bisect
        assert oracle.member(along(r1 * (1 - 1e-8)))
        assert not oracle.member(along(r1 * (1 + 1e-8)))

    def test_lines_missing_the_cone(self):
        oracle = ball_visual_cone_oracle((0.0, 0.0, 3.0), (0.0, 0.0, 0.0), 1.0)
        # in the plane orthogonal to the axis through the apex
        assert oracle.ray_interval((1.0, 0.0, 0.0), (0.0, 1.0, 0.0)) is None
        # meets only the backward nappe, which member rejects, with the
        # axis component of d zero, negative and positive
        for d in ((0.1, 0.0, 0.0), (1.0, 0.0, 0.1), (1.0, 0.0, -0.1)):
            assert oracle.ray_interval((0.0, 0.0, 1.0), d) is None

    def test_same_tolerance_as_member(self):
        # member accepts cosines down to cos_half - 1e-12; the exit is there
        oracle = ball_visual_cone_oracle((0.0, 0.0, 3.0), (0.0, 0.0, 0.0), 1.0)
        w, d = oracle.axis_hint, (1.0, 0.0, 0.0)
        _, r1 = oracle.ray_interval(w, d)
        at = lambda r: tuple(wi + r * di for wi, di in zip(w, d))
        assert oracle.member(at(r1 - 5e-14))
        assert not oracle.member(at(r1 + 5e-14))

    def test_unbounded_ray(self):
        oracle = ball_visual_cone_oracle((0.0, 0.0, 3.0), (0.0, 0.0, 0.0), 1.0)
        r0, r1 = oracle.ray_interval((0.0, 0.0, -1.0), (0.0, 0.01, -1.0))
        assert r1 == math.inf and r0 < 0

    def test_positional_construction_has_no_closed_form(self):
        oracle = ConeOracle(3, lambda u: True, (0.0, 0.0, 1.0))
        assert oracle.ray_interval is None
        assert cone_oracle_from_exact(visual_cone((0, 0, 3), cube())).ray_interval is None

    @pytest.mark.parametrize(
        "apex, center, radius, seed",
        [
            ((0.0, 0.0, 3.0), (0.0, 0.0, 0.0), 1.0, 0),
            ((2.0, -1.0, 0.5), (0.1, 0.2, -0.3), 1.5, 4),
            ((0.3, 5.0, 1.0), (0.0, 0.0, 0.0), 2.5, 7),
            ((0.0, 0.0, 0.0, 3.0), (0.0, 0.0, 0.0, 0.0), 1.0, 1),
            ((1.0, 2.0, -1.0, 0.5), (0.0, 0.0, 0.5, 0.0), 1.2, 5),
        ],
    )
    def test_mirkil_scan_same_verdict_as_bisection(self, apex, center, radius, seed):
        # witness triples may differ: a round section ties on triple area
        oracle = ball_visual_cone_oracle(apex, center, radius)
        fallback = dataclasses.replace(oracle, ray_interval=None)
        fast = mirkil_scan(oracle, 3, seed=seed, boundary_points=32)
        slow = mirkil_scan(fallback, 3, seed=seed, boundary_points=32)
        assert (fast.verdict, fast.samples_used) == (slow.verdict, slow.samples_used)
        assert fast.verdict == "non-polyhedral"
        assert fast.notes == slow.notes
        assert len(fast.witness.points) == len(slow.witness.points)
