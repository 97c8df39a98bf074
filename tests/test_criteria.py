"""Polygonality detection, Klee-style testers, certificates, and drift."""

import dataclasses
import functools
import itertools
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

import helpers
from helpers import (
    CUBE_VERTICES,
    SHADOW_MUTATIONS,
    centered_polytope,
    exact_cone_oracle_sampling_only,
    prism_oracle,
)

from polysect.bodies import (
    BodyError,
    BodyOracle,
    glue_cap,
    make_ball,
    make_ellipsoid,
    wrap_polytope,
)
from polysect import criteria
from polysect.cones import (
    ConeError,
    ball_visual_cone_oracle,
    cone_oracle_from_exact,
    mirkil_scan,
    visual_cone,
)
from polysect.criteria import (
    CriterionError,
    CriterionReport,
    KleeWitness,
    _coverage_note,
    _ray_hit_cone_oracle,
    DriftConfig,
    default_normal_family,
    drift_config_from_geometry,
    drift_inequality_eval,
    epsilon_certificate,
    klee_projection_test,
    klee_section_test,
    no_extreme_in_cone,
    polygonality_detect,
    sphere_apexes,
    visual_cone_test,
)
from polysect.geometry import (
    AffineFlat,
    DimensionMismatch,
    GeometryError,
    as_point,
    dist2,
    int_scaled,
    norm2,
    nullspace,
    solve_particular,
    vdot,
    vsub,
)
from polysect.polytope import (
    PolytopeError,
    _certify_hull,
    convex_hull,
    project,
    section,
)

OCTA_VERTICES = [
    (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
]


def cube():
    return convex_hull(CUBE_VERTICES)


def ngon_exits(m, phase=0.3, scale=1.0):
    """The exit function of a regular m-gon of inradius `scale` about the origin."""
    def point_at(th):
        r = scale / max(math.cos(th - phase - 2 * math.pi * k / m) for k in range(m))
        return (r * math.cos(th), r * math.sin(th))

    return point_at


def ngon_support(m, phase=0.3):
    """The support point function of a regular m-gon inscribed in the unit circle."""
    verts = [(math.cos(phase + 2 * math.pi * k / m), math.sin(phase + 2 * math.pi * k / m))
             for k in range(m)]
    return lambda th: max(verts, key=lambda v: v[0] * math.cos(th) + v[1] * math.sin(th))


def circle(scale=1.0):
    # a circle's exit from its centre and its support point coincide
    return lambda th: (scale * math.cos(th), scale * math.sin(th))


def counted(point_at):
    calls = []

    def f(th):
        calls.append(th)
        return point_at(th)

    return f, calls


class TestPolygonalityDetect:
    @pytest.mark.parametrize("support", [False, True])
    @pytest.mark.parametrize("n", [8, 48, 256, 1024])
    def test_circle_is_curved_after_2n_plus_1_probes(self, n, support):
        point_at, calls = counted(circle())
        verdict = polygonality_detect(point_at, n, support=support)
        assert verdict.kind == "curved"
        assert len(calls) == len(verdict.points) == 2 * n + 1
        assert verdict.vertex_bound == n + 1
        i, j, k = verdict.witness_triple
        assert (j - i) % len(verdict.points) == (k - j) % len(verdict.points) == 1
        assert verdict.witness_area > 0

    @pytest.mark.parametrize("support", [False, True])
    @pytest.mark.parametrize("m", [3, 4, 5, 6, 8, 12, 40, 256])
    def test_regular_polygons_close_with_their_vertex_count(self, m, support):
        point_at = ngon_support(m) if support else ngon_exits(m)
        point_at, calls = counted(point_at)
        verdict = polygonality_detect(point_at, max(8, m), support=support)
        assert (verdict.kind, verdict.edges) == ("polygon", m)
        # about two probes per vertex for support points, four for exits
        assert len(calls) <= (2 if support else 5) * m + 4

    @pytest.mark.parametrize("support", [False, True])
    def test_many_vertices_refute(self, support):
        point_at = ngon_support(40) if support else ngon_exits(40)
        verdict = polygonality_detect(point_at, 8, support=support)
        assert verdict.kind == "curved" and verdict.vertex_bound == 9

    def test_repeated_support_points_are_one_vertex(self):
        point_at, calls = counted(ngon_support(3))
        verdict = polygonality_detect(point_at, 8, support=True)
        assert (verdict.kind, verdict.edges) == ("polygon", 3)
        assert len(verdict.points) == 3 and len(calls) == 7

    def test_point_shadow_is_a_polygon(self):
        verdict = polygonality_detect(lambda th: (2.0, -1.0), 8, support=True)
        assert (verdict.kind, verdict.edges, verdict.points) == ("polygon", 0, ((2.0, -1.0),))

    @pytest.mark.parametrize("scale", [1e-3, 1e3])
    def test_tau_scales_with_the_probe_box(self, scale):
        # a scaled circle stays curved and a scaled square a square: tau is
        # relative to the box of the first four probes, not absolute
        assert polygonality_detect(circle(scale), 8).kind == "curved"
        assert polygonality_detect(ngon_exits(4, scale=scale), 8).edges == 4

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), 0.0, -1e-9])
    def test_tau_must_be_finite_and_positive(self, tau):
        with pytest.raises(CriterionError, match="tau"):
            polygonality_detect(circle(), 8, tau=tau)

    @pytest.mark.parametrize("m", [4, 5, 6])
    def test_tau_below_float_rounding_is_refused(self, m):
        # at tau = 1e-17 the rounding of these exits reads as strict
        # corners, and the probe would refute the polygon
        with pytest.raises(CriterionError, match="at least 1e-12"):
            polygonality_detect(ngon_exits(m), 8, tau=1e-17)
        assert polygonality_detect(ngon_exits(m), 8, tau=1e-12).edges == m

    @pytest.mark.parametrize("bound", [-1, 0, 7])
    def test_bound_must_be_at_least_8(self, bound):
        with pytest.raises(CriterionError, match="at least 8"):
            polygonality_detect(circle(), bound)

    def test_loose_tau_accepts_circle(self):
        assert polygonality_detect(circle(), 8, tau=0.5).kind == "polygon"

    def test_probe_cap_passes_undecided(self):
        # a shadow that doubles on every call neither closes nor proves 9
        # vertices: the probe stops at 8n + 16 probes and passes
        calls = []

        def point_at(th):
            calls.append(th)
            return circle(2.0 ** len(calls))(th)

        verdict = polygonality_detect(point_at, 8, support=True)
        assert (verdict.kind, verdict.edges, len(calls)) == ("capped", None, 80)

    def test_probe_cap_is_noted(self):
        calls = []

        def support(u):
            calls.append(u)
            return 0.0, tuple(2.0 ** len(calls) * x for x in u)

        growing = BodyOracle(3, support, lambda x: True, (0.0, 0.0, 0.0))
        rep = klee_projection_test(growing, 1, seed=0, boundary_points=8)
        assert (rep.verdict, rep.notes) == ("polytope-consistent", ("sample 0: probe cap reached",))
        assert len(calls) == 80

    @pytest.mark.parametrize("index", [0, 3, 15])
    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_points_must_be_finite(self, index, bad):
        for coord in (0, 1):
            calls = []

            def point_at(th):
                calls.append(th)
                p = list(circle()(th))
                if len(calls) == index + 1:
                    p[coord] = bad
                return tuple(p)

            with pytest.raises(CriterionError, match="finite"):
                polygonality_detect(point_at, 8)


class TestKleeSectionTest:
    def test_cube_is_consistent(self):
        rep = klee_section_test(cube(), 10, seed=4)
        assert rep.criterion == "K1"
        assert rep.verdict == "polytope-consistent"
        assert rep.exact
        assert rep.samples_used == 10
        assert rep.witness is None

    def test_ball_rejected_on_first_flat(self):
        rep = klee_section_test(make_ball((0, 0, 0), 1), 5, seed=7)
        assert rep.verdict == "non-polytope"
        assert rep.samples_used == 1
        assert rep.witness is not None
        assert rep.witness.kind == "section"
        assert rep.witness.reverified

    def test_ellipsoid_rejected(self):
        rep = klee_section_test(make_ellipsoid((0, 0, 0), (2, 1, 1)), 5, seed=3)
        assert rep.verdict == "non-polytope"
        assert rep.witness.reverified

    def test_wrapped_polytope_routes_exact(self):
        rep = klee_section_test(wrap_polytope(cube()), 6, seed=1)
        assert rep.exact
        assert rep.verdict == "polytope-consistent"

    def test_delta_marks_non_central(self):
        rep = klee_section_test(cube(), 6, seed=2, delta=0.25)
        assert rep.criterion == "T1.1"
        assert rep.verdict == "polytope-consistent"

    def test_callable_delta(self):
        rep = klee_section_test(cube(), 6, seed=2, delta=lambda u: 0.1)
        assert rep.criterion == "T1.1"
        assert rep.verdict == "polytope-consistent"

    def test_four_dim_polytope(self):
        rng = random.Random(11)
        body = centered_polytope(rng, 4, 8)
        rep = klee_section_test(body, 4, seed=5)
        assert rep.verdict == "polytope-consistent"

    def test_three_dim_sections_of_four_dim_body(self):
        rng = random.Random(12)
        body = centered_polytope(rng, 4, 8)
        rep = klee_section_test(body, 3, seed=5, k=3)
        assert rep.verdict == "polytope-consistent"

    def test_k_bounds_enforced(self):
        with pytest.raises(CriterionError):
            klee_section_test(cube(), 3, k=1)
        with pytest.raises(CriterionError):
            klee_section_test(cube(), 3, k=3)

    def test_oracle_needs_plane_sections_in_three_dim(self):
        # sampled sections only work for 2-flats of 3-dim bodies
        with pytest.raises(CriterionError):
            klee_section_test(make_ball((0, 0, 0, 0), 1), 3)

    def test_negative_budget_rejected(self):
        with pytest.raises(CriterionError):
            klee_section_test(cube(), -1)

    def test_coverage_notes_mention_missed_flats(self):
        # a tiny off-center body: many random central flats miss it entirely
        small = convex_hull(
            [(F(3) + F(s1, 10), F(3) + F(s2, 10), F(3) + F(s3, 10))
             for s1 in (-1, 1) for s2 in (-1, 1) for s3 in (-1, 1)]
        )
        rep = klee_section_test(small, 8, seed=0)
        assert rep.verdict == "polytope-consistent"
        assert any("miss" in n for n in rep.notes)


    def test_oracle_notes_mention_missed_flats(self):
        # most central planes pass far from a small off-center ball
        rep = klee_section_test(make_ball((5, 0, 0), 0.5), 4, seed=0)
        assert rep.verdict == "polytope-consistent"
        assert any("flat misses interior" in n for n in rep.notes)

    def test_other_body_errors_are_not_coverage_notes(self):
        # an oracle that never says "outside": the ray search gives up, and
        # that is an error, not a flat that missed the body
        endless = BodyOracle(
            3, lambda u: (0.0, (0.0, 0.0, 0.0)), lambda x: True, (0.0, 0.0, 0.0)
        )
        with pytest.raises(BodyError, match="never left"):
            klee_section_test(endless, 1)


MISSES_BODY = "coverage violation (flat misses the body)"
MISSES_INTERIOR = "coverage violation (flat misses the interior)"

TESSERACT = [tuple(F(s) for s in signs) for signs in itertools.product((-1, 1), repeat=4)]
SIMPLEX4 = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
TRIANGLE3 = [(0, 0, 0), (2, 0, 0), (0, 2, 0)]
SEGMENT3 = [(0, 0, 0), (2, 2, 2)]
SQUARE4 = [(1, 1, 0, 0), (1, -1, 0, 0), (-1, 1, 0, 0), (-1, -1, 0, 0)]


def _fractions(normals, offsets):
    return [tuple(F(x) for x in n) for n in normals], [F(o) for o in offsets]


def section_note(poly, normals, offsets):
    """The coverage note that a built section() gives: the reference."""
    normals, offsets = _fractions(normals, offsets)
    flat = AffineFlat.spanning(solve_particular(normals, offsets), nullspace(normals))
    assert flat.dim == poly.ambient_dim - len(normals)
    sec = section(poly, flat)
    if sec is None:
        return MISSES_BODY
    if not sec.meets_interior:
        return MISSES_INTERIOR
    return None


# (body vertices, normals of the flat, offsets, the note section() gives)
COVERAGE_CASES = {
    "cube, plane through a vertex": (CUBE_VERTICES, [(1, 1, 1)], [3], MISSES_INTERIOR),
    "cube, plane along an edge": (CUBE_VERTICES, [(1, 1, 0)], [2], MISSES_INTERIOR),
    "cube, facet plane": (CUBE_VERTICES, [(0, 0, 1)], [1], MISSES_INTERIOR),
    "cube, plane past a facet": (CUBE_VERTICES, [(0, 0, 1)], [2], MISSES_BODY),
    "cube, plane past a vertex": (CUBE_VERTICES, [(1, 1, 1)], [F(7, 2)], MISSES_BODY),
    "cube, central plane": (CUBE_VERTICES, [(1, 1, 1)], [0], None),
    "cube, plane near a vertex": (CUBE_VERTICES, [(1, 1, 1)], [F(5, 2)], None),
    "tesseract, 2-flat of a 2-face": (
        TESSERACT, [(0, 0, 1, 0), (0, 0, 0, 1)], [1, 1], MISSES_INTERIOR),
    "tesseract, 2-flat across a 2-face": (
        TESSERACT, [(0, 1, 0, 0), (0, 0, 1, 1)], [0, 2], MISSES_INTERIOR),
    "tesseract, 2-flat along an edge": (
        TESSERACT, [(1, 1, 0, 0), (0, 0, 1, 0)], [2, 1], MISSES_INTERIOR),
    "tesseract, 2-flat through a vertex": (
        TESSERACT, [(1, 1, 0, 0), (0, 0, 1, 1)], [2, 2], MISSES_INTERIOR),
    "tesseract, 2-flat inside a facet": (
        TESSERACT, [(1, 0, 0, 0), (0, 1, 1, 0)], [1, 0], MISSES_INTERIOR),
    "tesseract, 2-flat past a 2-face": (
        TESSERACT, [(0, 0, 1, 0), (0, 0, 0, 1)], [1, F(3, 2)], MISSES_BODY),
    "tesseract, central 2-flat": (
        TESSERACT, [(1, 1, 0, 0), (0, 0, 1, 1)], [0, 0], None),
    "tesseract, 2-flat near a vertex": (
        TESSERACT, [(1, 1, 0, 0), (0, 0, 1, 1)], [1, 1], None),
    "tesseract, facet 3-flat": (TESSERACT, [(0, 0, 0, 1)], [1], MISSES_INTERIOR),
    "tesseract, 3-flat through a vertex": (
        TESSERACT, [(1, 1, 1, 1)], [4], MISSES_INTERIOR),
    "tesseract, 3-flat past a vertex": (TESSERACT, [(1, 1, 1, 1)], [5], MISSES_BODY),
    "tesseract, 3-flat near a vertex": (TESSERACT, [(1, 1, 1, 1)], [3], None),
    "simplex, 2-flat of a 2-face": (
        SIMPLEX4, [(1, 0, 0, 0), (0, 1, 0, 0)], [0, 0], MISSES_INTERIOR),
    "simplex, 2-flat through an edge": (
        SIMPLEX4, [(1, 0, 0, 0), (0, 1, 0, 0)], [F(1, 2), F(1, 2)], MISSES_INTERIOR),
    "simplex, 2-flat through the interior": (
        SIMPLEX4, [(1, 0, 0, 0), (0, 1, 0, 0)], [F(1, 4), F(1, 4)], None),
    "simplex, 2-flat past a vertex": (
        SIMPLEX4, [(1, 0, 0, 0), (0, 1, 0, 0)], [1, 1], MISSES_BODY),
    "triangle, its own plane": (TRIANGLE3, [(0, 0, 1)], [0], None),
    "triangle, parallel plane": (TRIANGLE3, [(0, 0, 1)], [1], MISSES_BODY),
    "triangle, plane across it": (TRIANGLE3, [(1, 0, 0)], [1], None),
    "triangle, slanted plane across it": (TRIANGLE3, [(1, 0, 1)], [F(1, 2)], None),
    "triangle, plane through a vertex": (TRIANGLE3, [(1, 0, 0)], [2], MISSES_INTERIOR),
    "triangle, plane along an edge": (TRIANGLE3, [(1, 1, 0)], [2], MISSES_INTERIOR),
    "triangle, plane past a vertex": (TRIANGLE3, [(1, 0, 0)], [3], MISSES_BODY),
    "segment, plane across it": (SEGMENT3, [(1, 0, 0)], [1], None),
    "segment, plane through an end": (SEGMENT3, [(1, 0, 0)], [0], MISSES_INTERIOR),
    "segment, plane containing it": (SEGMENT3, [(1, -1, 0)], [0], None),
    "segment, parallel plane": (SEGMENT3, [(1, -1, 0)], [1], MISSES_BODY),
    "segment, plane past an end": (SEGMENT3, [(1, 0, 0)], [-1], MISSES_BODY),
    "square, its own 2-flat": (SQUARE4, [(0, 0, 1, 0), (0, 0, 0, 1)], [0, 0], None),
    "square, parallel 2-flat": (
        SQUARE4, [(0, 0, 1, 0), (0, 0, 0, 1)], [1, 0], MISSES_BODY),
    "square, 2-flat across it": (
        SQUARE4, [(1, 0, 0, 0), (0, 0, 1, 0)], [0, 0], None),
    "square, 2-flat through its center": (
        SQUARE4, [(1, 0, 0, 0), (0, 1, 0, 0)], [0, 0], None),
    "square, slanted 2-flat through it": (
        SQUARE4, [(1, 0, 1, 0), (0, 1, 0, 1)], [F(1, 2), 0], None),
    "square, 2-flat along an edge": (
        SQUARE4, [(1, 0, 0, 0), (0, 0, 1, 0)], [1, 0], MISSES_INTERIOR),
    "square, 2-flat through a vertex": (
        SQUARE4, [(1, 0, 0, 0), (0, 1, 0, 0)], [1, 1], MISSES_INTERIOR),
    "square, 2-flat past an edge": (
        SQUARE4, [(1, 0, 0, 0), (0, 1, 0, 0)], [2, 0], MISSES_BODY),
    "square, 3-flat through a vertex": (SQUARE4, [(1, 1, 0, 0)], [2], MISSES_INTERIOR),
    "square, 3-flat containing it": (SQUARE4, [(0, 0, 1, 0)], [0], None),
}


@st.composite
def clouds_and_flats(draw):
    """A small integer cloud in 3-D or 4-D (flat when its last coordinate is
    pinned) and a flat through one of its points, a midpoint or anywhere."""
    d = draw(st.sampled_from((3, 4)))
    k = draw(st.integers(2, d - 1))
    coord = st.integers(-2, 2)
    pts = draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=8 if d == 3 else 6))
    if draw(st.booleans()):
        pts = [p[:-1] + (0,) for p in pts]
    normals = draw(st.lists(st.tuples(*[coord] * d), min_size=d - k, max_size=d - k))
    assume(len(nullspace(normals)) == k)
    image = [tuple(sum(a * b for a, b in zip(n, p)) for n in normals) for p in pts]
    mode = draw(st.sampled_from(("point", "midpoint", "anywhere")))
    if mode == "point":
        offsets = draw(st.sampled_from(image))
    elif mode == "midpoint":
        a, b = draw(st.sampled_from(image)), draw(st.sampled_from(image))
        offsets = tuple(F(x + y, 2) for x, y in zip(a, b))
    else:
        offsets = tuple(F(draw(st.integers(-12, 12)), 2) for _ in normals)
    return convex_hull(pts), normals, offsets


class TestCoverageFromImage:
    """The image hull N(P) gives the coverage note that a built section gives."""

    @pytest.mark.parametrize("case", sorted(COVERAGE_CASES))
    def test_constructed_flats(self, case):
        vertices, normals, offsets, expected = COVERAGE_CASES[case]
        poly = convex_hull(vertices)
        assert section_note(poly, normals, offsets) == expected
        note = _coverage_note(int_scaled(poly.vertices), *_fractions(normals, offsets))
        assert note == expected

    @settings(max_examples=150, deadline=None)
    @given(clouds_and_flats())
    def test_clouds_match_sections(self, case):
        poly, normals, offsets = case
        expected = section_note(poly, normals, offsets)
        note = _coverage_note(int_scaled(poly.vertices), *_fractions(normals, offsets))
        assert note == expected

    @pytest.mark.parametrize(
        "dim, k, delta", [(3, 2, None), (3, 2, 2), (4, 2, 0.25), (4, 2, 2), (4, 3, 1.5)]
    )
    def test_reports_match_the_section_route(self, dim, k, delta, monkeypatch):
        # the tester draws the same flats either way, so whole reports agree
        bodies = [centered_polytope(random.Random(seed), dim, 8) for seed in range(3)]
        ours = [klee_section_test(b, 12, seed=5, k=k, delta=delta) for b in bodies]
        theirs = []
        for b in bodies:
            monkeypatch.setattr(
                criteria, "_coverage_note", lambda _, ns, os: section_note(b, ns, os)
            )
            theirs.append(klee_section_test(b, 12, seed=5, k=k, delta=delta))
        assert ours == theirs


@pytest.mark.parametrize("tester", [klee_section_test, klee_projection_test])
def test_exact_testers_scale_the_vertices_once_per_polytope(tester, monkeypatch):
    from polysect import polytope

    body = centered_polytope(random.Random(2), 3, 9)
    scaled = []
    real = polytope.int_scaled

    def spy(vectors):
        vectors = list(vectors)
        scaled.append(vectors == list(body.vertices))
        return real(vectors)

    monkeypatch.setattr(polytope, "int_scaled", spy)
    for seed in (1, 2):
        assert tester(body, 6, seed=seed).verdict == "polytope-consistent"
    assert scaled.count(True) == 1


class TestIntegerCoverageImage:
    """_coverage_note hulls N(P) in ints; the note a built section gives is
    the reference, on drawn flats and flats through vertices and facets."""

    @pytest.mark.parametrize("dim, k", [(3, 2), (4, 2), (4, 3)])
    @pytest.mark.parametrize("delta", [None, 0.25, 2])
    def test_drawn_flats_match_sections(self, dim, k, delta):
        rng = random.Random(dim * 10 + k)
        seen = set()
        for seed in range(3):
            body = centered_polytope(random.Random(seed), dim, 8)
            for _ in range(4):
                # a K1 or T1.1 flat as the tester draws it, then the same
                # normals through a vertex that maximises the first, past it,
                # and through a point of a facet
                rows, offsets = criteria._draw_rows(rng, dim, k, delta)[:2]
                normals = list(map(criteria._grid_vector, rows))
                offsets = list(criteria._grid_vector(offsets))
                top = max(body.vertices, key=lambda v: vdot(normals[0], v))
                at_top = [vdot(n, top) for n in normals]
                f = rng.randrange(len(body.halfspaces))
                fverts = body.facet(f).vertices
                facet_pt = tuple(sum(c) / len(fverts) for c in zip(*fverts))
                on_facet = [body.halfspaces[f].normal] + normals[1:]
                flats = [
                    (normals, offsets),
                    (normals, at_top),
                    (normals, [at_top[0] + F(1, 3)] + at_top[1:]),
                    (on_facet, [vdot(n, facet_pt) for n in on_facet]),
                ]
                for ns, os in flats:
                    note = _coverage_note(int_scaled(body.vertices), ns, os)
                    assert note == section_note(body, ns, os)
                    seen.add(note)
        assert seen == {None, MISSES_INTERIOR, MISSES_BODY}


def _ball():
    return make_ball((0, 0, 0), 1)


class TestDeltaChecks:
    """A section offset must be a finite, float-safe number."""

    @pytest.mark.parametrize("body", [cube, _ball])
    @pytest.mark.parametrize(
        "delta, message",
        [
            (float("inf"), "delta must be finite"),
            (float("-inf"), "delta must be finite"),
            (float("nan"), "delta must be finite"),
            (1e101, "at most 1e100"),
            (-1e300, "at most 1e100"),
        ],
    )
    def test_constant_delta_checked_up_front(self, body, delta, message):
        with pytest.raises(CriterionError, match=message):
            klee_section_test(body(), 0, delta=delta)

    @pytest.mark.parametrize("body", [cube, _ball])
    def test_callable_delta_value_checked(self, body):
        with pytest.raises(CriterionError, match="delta must be finite"):
            klee_section_test(body(), 2, delta=lambda u: float("nan"))

    def test_largest_delta_misses_the_body(self):
        for body in (cube(), _ball()):
            rep = klee_section_test(body, 2, delta=1e100)
            assert rep.verdict == "polytope-consistent"
            assert all("coverage violation" in n for n in rep.notes)


SAMPLING_ENTRY_POINTS = {
    "K1-cube": lambda **kw: klee_section_test(cube(), 1, **kw),
    "K1-ball": lambda **kw: klee_section_test(_ball(), 1, **kw),
    "K2-ball": lambda **kw: klee_projection_test(_ball(), 1, **kw),
    "T1.2-ball": lambda **kw: visual_cone_test(_ball(), [(0, 0, 3)], **kw),
    "mirkil": lambda **kw: mirkil_scan(
        ball_visual_cone_oracle((0, 0, 3), (0, 0, 0), 1.0), 1, **kw
    ),
}


@pytest.mark.parametrize("entry", sorted(SAMPLING_ENTRY_POINTS))
@pytest.mark.parametrize(
    "params, message",
    [
        ({"boundary_points": 7}, "at least 8 boundary points"),
        ({"tau": float("nan")}, "tau must be finite and positive"),
        ({"tau": float("inf")}, "tau must be finite and positive"),
        ({"tau": 0.0}, "tau must be finite and positive"),
        ({"tau": 1e-13}, "tau must be finite and positive, at least 1e-12"),
    ],
)
def test_bad_sampling_parameters_rejected_up_front(entry, params, message):
    with pytest.raises(BodyError, match=message):
        SAMPLING_ENTRY_POINTS[entry](**params)


@pytest.mark.parametrize("entry", sorted(SAMPLING_ENTRY_POINTS))
def test_every_tester_returns_one_report_type(entry):
    # every entry but the cube refutes at its defaults, so each witness
    # route is checked too
    rep = SAMPLING_ENTRY_POINTS[entry]()
    assert type(rep) is CriterionReport
    assert type(rep.witness) is (type(None) if entry == "K1-cube" else KleeWitness)


def _cube_cone_sampled():
    return exact_cone_oracle_sampling_only(visual_cone((0, 0, 3), cube()))


# The prism and sampled cube-cone cases are polytopes behind float oracles
# only, at the least vertex bound: every section, shadow and cross-section
# has at most 8 vertices, so the probe closes it and each reads consistent.
# TestVertexBoundMatrix runs more polytopes and smooth bodies.
PINNED_CASES = {
    "K1-cube": lambda: klee_section_test(cube(), 6, seed=2),
    "T1.1-cube-0.25": lambda: klee_section_test(cube(), 6, seed=2, delta=0.25),
    "T1.1-cube-5": lambda: klee_section_test(cube(), 3, seed=2, delta=5),
    "K2-cube": lambda: klee_projection_test(cube(), 4, seed=3),
    "K1-segment": lambda: klee_section_test(convex_hull(SEGMENT3), 6, seed=1),
    "K1-ball": lambda: klee_section_test(_ball(), 5, seed=7),
    "K1-ellipsoid": lambda: klee_section_test(make_ellipsoid((0, 0, 0), (2, 1, 1)), 5, seed=3),
    "K1-offcenter-ball": lambda: klee_section_test(make_ball((5, 0, 0), 0.5), 4, seed=0),
    "K2-ball": lambda: klee_projection_test(_ball(), 4, seed=8),
    "K2-ellipsoid": lambda: klee_projection_test(make_ellipsoid((0, 0, 0), (2, 1, 1)), 5, seed=3),
    "K1-zero": lambda: klee_section_test(_ball(), 0),
    "K2-zero": lambda: klee_projection_test(_ball(), 0),
    "T1.2-zero": lambda: visual_cone_test(_ball(), []),
    "mirkil-zero": lambda: mirkil_scan(ball_visual_cone_oracle((0, 0, 3), (0, 0, 0), 1.0), 0),
    "T1.2-cube": lambda: visual_cone_test(cube(), ("sphere", (0.0, 0.0, 0.0), 6.0), seed=2, budget=3),
    "T1.2-ball": lambda: visual_cone_test(
        _ball(), ("sphere", (0.0, 0.0, 0.0), 4.0), seed=0, budget=2, sections_per_apex=3
    ),
    "mirkil-ball-3d": lambda: mirkil_scan(
        ball_visual_cone_oracle((0, 0, 3), (0, 0, 0), 1.0), 3, seed=2, boundary_points=48
    ),
    "mirkil-ball-4d": lambda: mirkil_scan(
        ball_visual_cone_oracle((0, 0, 0, 3), (0, 0, 0, 0), 1.0), 3, seed=1
    ),
    "mirkil-exact": lambda: mirkil_scan(
        cone_oracle_from_exact(visual_cone((0, 0, 3), cube())), 4, seed=3
    ),
    "mirkil-cube-cone-8": lambda: mirkil_scan(_cube_cone_sampled(), 3, seed=0, boundary_points=8),
    "mirkil-cube-cone-16": lambda: mirkil_scan(_cube_cone_sampled(), 3, seed=0, boundary_points=16),
    "K1-prism-0": lambda: klee_section_test(prism_oracle(6), 3, seed=0, boundary_points=8),
    "K1-prism-1": lambda: klee_section_test(prism_oracle(6), 3, seed=1, boundary_points=8),
    "K1-prism-2": lambda: klee_section_test(prism_oracle(6), 3, seed=2, boundary_points=8),
    "K2-prism-0": lambda: klee_projection_test(prism_oracle(6), 3, seed=0, boundary_points=8),
    "K2-prism-1": lambda: klee_projection_test(prism_oracle(6), 3, seed=1, boundary_points=8),
}

def _each(indices, text):
    return tuple(f"sample {i}: {text}" for i in indices)


# (verdict, samples_used, notes, witness sample index, witness triple),
# recorded before the testers shared one sampling loop, and again when one
# adaptive probe replaced the fixed sample and its re-draw: the smooth
# bodies kept their verdicts, samples and witness samples, and the polytopes
# behind float oracles came to read consistent; T1.2-ball's triple moved
# again when T1.2 drew its cone scan's seed from its own stream, and
# mirkil-ball-4d's when the 4-D scan came to cut its sections normal to the
# axis hint
PINNED_OUTPUTS = {
    "K1-ball": ("non-polytope", 1, (), 0, (0, 1, 2)),
    "K1-cube": ("polytope-consistent", 6, (), None, None),
    "K1-ellipsoid": ("non-polytope", 1, (), 0, (47, 48, 49)),
    "K1-offcenter-ball": (
        "polytope-consistent", 4,
        _each(range(4), "coverage violation (flat misses interior)"),
        None, None,
    ),
    "K1-prism-0": ("polytope-consistent", 3, (), None, None),
    "K1-prism-1": ("polytope-consistent", 3, (), None, None),
    "K1-prism-2": ("polytope-consistent", 3, (), None, None),
    "K1-segment": (
        "polytope-consistent", 6,
        _each(range(6), "coverage violation (flat misses the interior)"),
        None, None,
    ),
    "K1-zero": ("polytope-consistent", 0, ("zero-budget",), None, None),
    "K2-ball": ("non-polytope", 1, (), 0, (1, 2, 3)),
    "K2-cube": ("polytope-consistent", 4, (), None, None),
    "K2-ellipsoid": ("non-polytope", 1, (), 0, (27, 28, 29)),
    "K2-prism-0": ("polytope-consistent", 3, (), None, None),
    "K2-prism-1": ("polytope-consistent", 3, (), None, None),
    "K2-zero": ("polytope-consistent", 0, ("zero-budget",), None, None),
    "T1.1-cube-0.25": ("polytope-consistent", 6, (), None, None),
    "T1.1-cube-5": (
        "polytope-consistent", 3,
        _each(range(3), "coverage violation (flat misses the body)"),
        None, None,
    ),
    "T1.2-ball": ("non-polytope", 1, (), 0, (24, 25, 26)),
    "T1.2-cube": (
        "polytope-consistent", 3,
        tuple(f"apex {i}: exact cone, 6 extreme rays" for i in range(3)),
        None, None,
    ),
    "T1.2-zero": ("polytope-consistent", 0, ("zero-budget",), None, None),
    "mirkil-ball-3d": ("non-polyhedral", 1, (), 0, (6, 7, 8)),
    "mirkil-ball-4d": ("non-polyhedral", 1, (), 0, (41, 42, 43)),
    "mirkil-cube-cone-16": ("polyhedral-consistent", 3, (), None, None),
    "mirkil-cube-cone-8": ("polyhedral-consistent", 3, (), None, None),
    "mirkil-exact": (
        "polyhedral-consistent", 4,
        ("exact cone: every section is polyhedral by construction",),
        None, None,
    ),
    "mirkil-zero": ("polyhedral-consistent", 0, ("zero-budget",), None, None),
}


@pytest.mark.parametrize("case", sorted(PINNED_CASES))
def test_pinned_tester_outputs(case):
    rep = PINNED_CASES[case]()
    w = rep.witness
    got = (
        rep.verdict, rep.samples_used, tuple(rep.notes),
        None if w is None else w.sample_index, None if w is None else tuple(w.triple),
    )
    assert got == PINNED_OUTPUTS[case]


@functools.cache
def _prism(m):
    return prism_oracle(m)


SMOOTH_BODIES = {
    "ball": lambda: make_ball((0, 0, 0), 1),
    "ellipsoid-2-1-1": lambda: make_ellipsoid((0, 0, 0), (2, 1, 1)),
    "ellipsoid-1-10-100": lambda: make_ellipsoid((0, 0, 0), (1, 10, 100)),
}


class TestVertexBoundMatrix:
    """A slice of the one-sided matrix: a polytope whose sections, shadows
    or cross-sections have at most boundary_points vertices is never
    refuted, and a smooth body is refuted on its first sample at every
    allowed bound."""

    @pytest.mark.parametrize("m", [6, 12, 24, 40])
    @pytest.mark.parametrize(
        "tester, default", [(klee_section_test, 48), (klee_projection_test, 64)],
        ids=["K1", "K2"],
    )
    def test_prisms_pass(self, m, tester, default):
        # an m-gon prism's sections have at most m vertices, its shadows m + 2
        for n in (default, max(16, m + 2)):
            for seed in range(5):
                rep = tester(_prism(m), 1, seed, boundary_points=n)
                assert (rep.verdict, rep.notes) == ("polytope-consistent", ()), (n, seed)

    @pytest.mark.parametrize("body", sorted(SMOOTH_BODIES))
    @pytest.mark.parametrize("n", [8, 48, 256, 1024])
    def test_smooth_bodies_refuted_on_the_first_sample(self, body, n):
        for tester in (klee_section_test, klee_projection_test):
            for seed in range(5):
                rep = tester(SMOOTH_BODIES[body](), 2, seed, boundary_points=n)
                assert (rep.verdict, rep.samples_used) == ("non-polytope", 1), (tester, seed)
                assert rep.witness.vertex_bound == n + 1
                assert len(rep.witness.points) == 2 * n + 1

    @pytest.mark.parametrize("n", [8, 16])
    def test_cones(self, n):
        round_cone = ball_visual_cone_oracle((0, 0, 3), (0, 0, 0), 1.0)
        for seed in range(3):
            rep = mirkil_scan(_cube_cone_sampled(), 2, seed, boundary_points=n)
            assert (rep.verdict, rep.notes) == ("polyhedral-consistent", ())
            rep = mirkil_scan(round_cone, 1, seed, boundary_points=n)
            assert rep.verdict == "non-polyhedral"

    @pytest.mark.parametrize("n", [8, 16])
    @pytest.mark.parametrize("radius", [3, 10, 100])
    def test_four_dim_ball_cones_refuted(self, radius, n):
        # every cross-section is cut normal to the cone's axis, so even the
        # narrow cone of a far apex is met by each sample
        ball4 = make_ball((0, 0, 0, 0), 1)
        apex = tuple(radius * x / math.sqrt(15) for x in (1, 2, -1, 3))
        round_cone = ball_visual_cone_oracle(apex, (0, 0, 0, 0), 1.0)
        sphere = ("sphere", (0, 0, 0, 0), float(radius))
        for seed in range(5):
            rep = visual_cone_test(ball4, sphere, seed, budget=1, sections_per_apex=1,
                                   boundary_points=n)
            assert (rep.verdict, rep.notes) == ("non-polytope", ()), seed
            rep = mirkil_scan(round_cone, 1, seed, boundary_points=n)
            assert (rep.verdict, rep.notes) == ("non-polyhedral", ()), seed

    @pytest.mark.parametrize(
        "vertices, apex",
        [
            ([tuple(s if i == a else 0 for i in range(4)) for a in range(4) for s in (1, -1)],
             (3, 1, 0, 0)),
            ([(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, -1, -1, -1)],
             (2, 2, 1, -1)),
        ],
        ids=["cross-polytope", "simplex"],
    )
    def test_four_dim_sampled_cones_pass(self, vertices, apex):
        # a cross-section has at most one edge per facet of the cone
        cone = visual_cone(apex, convex_hull(vertices))
        assert len(cone.halfspaces) <= 8
        oracle = exact_cone_oracle_sampling_only(cone)
        for seed in range(3):
            rep = mirkil_scan(oracle, 2, seed, boundary_points=8)
            assert (rep.verdict, rep.notes) == ("polyhedral-consistent", ()), seed


class TestKleeProjectionTest:
    def test_cube_is_consistent(self):
        rep = klee_projection_test(cube(), 10, seed=4)
        assert rep.criterion == "K2"
        assert rep.verdict == "polytope-consistent"
        assert rep.exact

    def test_ellipsoid_rejected_on_first_subspace(self):
        rep = klee_projection_test(make_ellipsoid((0, 0, 0), (2, 1, 1)), 5, seed=3)
        assert rep.verdict == "non-polytope"
        assert rep.samples_used == 1
        assert rep.witness.kind == "projection"
        assert rep.witness.reverified

    def test_ball_rejected(self):
        rep = klee_projection_test(make_ball((0, 0, 0), 1), 4, seed=8)
        assert rep.verdict == "non-polytope"

    def test_wrapped_polytope_exact(self):
        rep = klee_projection_test(wrap_polytope(cube()), 5, seed=2)
        assert rep.exact
        assert rep.verdict == "polytope-consistent"

    def test_four_dim_exact(self):
        rng = random.Random(21)
        body = centered_polytope(rng, 4, 8)
        rep = klee_projection_test(body, 4, seed=6)
        assert rep.verdict == "polytope-consistent"

    def test_random_bodies_consistent(self):
        for seed in range(3):
            rng = random.Random(seed)
            body = centered_polytope(rng, 3, 10)
            rep = klee_projection_test(body, 6, seed=seed)
            assert rep.verdict == "polytope-consistent"


def _random_plane(rng, d, k):
    """A k-flat through a rational point along small rational directions."""
    while True:
        try:
            E = AffineFlat.spanning(
                helpers.random_points(rng, d, 1)[0],
                helpers.random_points(rng, d, k, -2, 2, 2),
            )
        except GeometryError:
            continue
        if E.dim == k:
            return E


def _certify(body, E, shadow):
    """K2's check of body on E with project() answering shadow."""
    _certify_hull(shadow, *E.chart_grid(body.vertices))


class TestProjectionCertificate:
    """K2 on an exact body certifies project()'s shadow through
    `polytope._certify_hull`, which refuses every wrong shadow."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(0, 2**32), st.sampled_from([(3, 2), (4, 2), (4, 3)]),
        st.integers(0, 4),
    )
    def test_accepts_honest_shadows(self, seed, dk, body_dim):
        d, k = dk
        rng = random.Random(seed)
        body = helpers.polytope_of_dim(rng, d, min(body_dim, d))
        E = _random_plane(rng, d, k)
        _certify(body, E, project(body, E).polytope)

    def test_sweep_reaches_every_shadow_dimension(self):
        seen = set()
        for seed in range(300):
            rng = random.Random(seed)
            d, k = rng.choice([(3, 2), (4, 2), (4, 3)])
            body = helpers.polytope_of_dim(rng, d, rng.randrange(d + 1))
            E = _random_plane(rng, d, k)
            shadow = project(body, E).polytope
            _certify(body, E, shadow)
            seen.add((k, shadow.dim))
        assert seen == {(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)}

    @pytest.mark.parametrize("body_dim", [2, 3])
    def test_k2_refuses_a_wrong_shadow(self, body_dim, monkeypatch):
        # the tester's own trial reaches the certificate on the image hull
        body = helpers.polytope_of_dim(random.Random(1), 3, body_dim)
        real = criteria._image_hull

        def wrong(scaled, rows):
            hull, *rest = real(scaled, rows)
            return SHADOW_MUTATIONS["drop-facet"](hull), *rest

        assert klee_projection_test(body, 2, seed=3).verdict == "polytope-consistent"
        monkeypatch.setattr(criteria, "_image_hull", wrong)
        with pytest.raises(PolytopeError):
            klee_projection_test(body, 2, seed=3)

    def test_octahedron_missing_a_facet_needs_the_closing_check(self):
        # the 4-D cross-polytope's shadow on the first three axes is the
        # octahedron; without one facet, its other facets still each touch
        # three vertices and every vertex still sits on rank-3 normals
        body = convex_hull(
            [tuple(s if i == a else 0 for i in range(4)) for a in range(4) for s in (1, -1)]
        )
        E = AffineFlat.spanning((0,) * 4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])
        bad = SHADOW_MUTATIONS["drop-facet"](project(body, E).polytope)
        with pytest.raises(PolytopeError, match="do not close up"):
            _certify(body, E, bad)

    def test_square_missing_a_vertex_fails_on_its_facets(self):
        # every projected point is still a row tight on the two facets at
        # the dropped corner, so the facets must be read on listed vertices
        body = convex_hull(CUBE_VERTICES)
        E = AffineFlat.spanning((0, 0, 0), [(1, 0, 0), (0, 1, 0)])
        bad = SHADOW_MUTATIONS["drop-vertex"](project(body, E).polytope)
        with pytest.raises(PolytopeError, match="not a facet of the hull"):
            _certify(body, E, bad)

    def test_segment_shadow_charted_from_an_inner_point(self):
        # the first vertex projects inside the segment shadow, where
        # project()'s chart starts; a hull of the extreme points alone would
        # start at an end, so only a check of the answer itself passes it
        body = convex_hull([(-1, 0, 0), (0, -1, 0), (1, 1, 0)])
        E = AffineFlat.spanning((0, 0, 0), [(0, 1, 0), (0, 0, 1)])
        shadow = project(body, E).polytope
        assert shadow.dim == 1 and shadow.span.base == (0, 0)
        _certify(body, E, shadow)

    def test_point_shadow_is_certified(self):
        body = convex_hull([(1, 2, 3), (1, 2, 5)])
        E = AffineFlat.spanning((0, 0, 0), [(1, 0, 0), (0, 1, 0)])
        _certify(body, E, project(body, E).polytope)
        with pytest.raises(PolytopeError):
            _certify(body, E, convex_hull([(1, 3)]))


class TestImageHull:
    """The hull of the integer image R·V is the shadow on the span of the
    rows R, up to an invertible linear map of the chart: same dimension,
    vertex and facet counts, and body vertices landing on hull vertices."""

    @settings(max_examples=100, deadline=None)
    @given(st.integers(0, 2**32), st.sampled_from([(3, 2), (4, 2), (4, 3)]), st.data())
    def test_image_hull_is_the_shadow(self, seed, dk, data):
        d, k = dk
        rng = random.Random(seed)
        body = helpers.polytope_of_dim(rng, d, data.draw(st.integers(0, d)))
        rows = criteria._independent_rows(rng, d, k)[1]
        hull, image, den = criteria._image_hull(int_scaled(body.vertices), rows)
        # the rows times the vertices scaled to ints by their common denominator
        assert image == [tuple(vdot(r, v) * den for r in rows) for v in body.vertices]
        assert all(type(x) is int for r in image for x in r)
        E = AffineFlat.spanning((0,) * d, map(criteria._grid_vector, rows))
        shadow = project(body, E).polytope
        assert (hull.dim, len(hull.vertices), len(hull._int_facets)) == (
            shadow.dim, len(shadow.vertices), len(shadow._int_facets)
        )
        on_hull = {i for i, r in enumerate(image) if r in set(hull.vertices)}
        on_shadow = {
            i for i, v in enumerate(body.vertices)
            if E.projected_coordinates(v) in set(shadow.vertices)
        }
        assert on_hull == on_shadow
        _certify_hull(hull, image, (F(1),) * k)

    def test_exact_runs_build_no_flat_and_no_shadow(self, monkeypatch):
        from polysect import polytope

        def fail(*args, **kwargs):
            raise AssertionError("a flat, a shadow or a Fraction row was built")

        bodies = [centered_polytope(random.Random(s), d, 8) for s, d in enumerate((3, 4))]
        bodies += [helpers.polytope_of_dim(random.Random(5), 4, j) for j in (1, 2, 3)]
        for name in ("spanning", "from_equations"):
            monkeypatch.setattr(AffineFlat, name, classmethod(fail))
        monkeypatch.setattr(polytope, "project", fail)
        monkeypatch.setattr(criteria, "_grid_vector", fail)
        for body in bodies:
            d = body.ambient_dim
            for k in range(2, d):
                for delta in (None, 0.25, lambda u: u[0] - 0.5):
                    klee_section_test(body, 3, seed=1, k=k, delta=delta)
                klee_projection_test(body, 3, seed=1, k=k)


class _ScriptedRandom(random.Random):
    """random.Random whose first gauss() calls return scripted values."""

    def __init__(self, seed, gausses):
        super().__init__(seed)
        self.script = list(gausses)
        self.calls = 0

    def gauss(self, mu=0.0, sigma=1.0):
        self.calls += 1
        return self.script.pop(0) if self.script else super().gauss(mu, sigma)


def _as_grid_draw(drawn):
    """`_draw_rows`' (N, o, float N, float o) with N and o as the Fractions
    on the 1/RATIONALIZE_DENOMINATOR grid that their numerators stand for."""
    rows, offsets, normals_f, offsets_f = drawn
    grid = criteria._grid_vector
    return [list(map(grid, rows)), list(grid(offsets)), normals_f, offsets_f]


class TestNormalsOnlyDraw:
    """Exact K1/T1.1 draws only grid rows and offset numerators;
    helpers.draw_flat_by_solving is the route that built a flat for every
    draw, and `_draw_flat` builds the same flat from the rows."""

    DELTAS = {"K1": None, "T1.1": 0.25, "T1.1-callable": lambda u: u[0] - 0.5}

    @pytest.mark.parametrize("delta", sorted(DELTAS))
    @pytest.mark.parametrize("d, k", [(3, 2), (4, 2), (4, 3)])
    def test_same_draws_as_the_flat_route(self, d, k, delta):
        delta = self.DELTAS[delta]
        for seed in range(150):
            ours, ref = random.Random(seed), random.Random(seed)
            for _ in range(3):
                flat, *drawn = helpers.draw_flat_by_solving(ref, d, k, delta)
                assert _as_grid_draw(criteria._draw_rows(ours, d, k, delta)) == drawn
            assert ours.getstate() == ref.getstate()
        flat, _, _, *floats = helpers.draw_flat_by_solving(random.Random(d * k), d, k, delta)
        assert criteria._draw_flat(random.Random(d * k), d, k, delta) == (flat, *floats)

    @pytest.mark.parametrize("delta", [None, 0.25])
    def test_dependent_rounding_is_redrawn(self, delta):
        # A seeded gaussian pair rounds to dependent rows with probability
        # about 2^-40, so one is scripted: (1, 1e-7, 0, 0) and (1, 0, 0, 0)
        # are independent floats whose rows on the 2^-20 grid are equal.
        script = [1.0, 1e-7, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
        ours, ref = _ScriptedRandom(3, script), _ScriptedRandom(3, script)
        normals, offsets, _, _ = _as_grid_draw(criteria._draw_rows(ours, 4, 2, delta))
        assert ours.calls == 16  # the scripted pair and one redraw
        expected = helpers.draw_flat_by_solving(ref, 4, 2, delta)
        assert (normals, offsets) == expected[1:3]
        assert ours.getstate() == ref.getstate()

    @pytest.mark.parametrize("delta", sorted(DELTAS))
    @pytest.mark.parametrize("d, k", [(3, 2), (4, 2), (4, 3)])
    def test_exact_reports_repr_equal_to_the_flat_route(self, d, k, delta, monkeypatch):
        # the reference hands `_coverage_note` the Fraction normals and offsets
        delta = self.DELTAS[delta]
        bodies = [centered_polytope(random.Random(s), d, 9) for s in range(3)]
        bodies.append(helpers.polytope_of_dim(random.Random(7), d, 2))
        ours = [repr(klee_section_test(b, 8, seed=s, k=k, delta=delta))
                for s, b in enumerate(bodies)]
        monkeypatch.setattr(
            criteria, "_draw_rows",
            lambda *a: helpers.draw_flat_by_solving(*a)[1:],
        )
        assert ours == [repr(klee_section_test(b, 8, seed=s, k=k, delta=delta))
                        for s, b in enumerate(bodies)]


class TestIndependentRowsDraw:
    """K1/T1.1 normals and K2 subspaces come from one draw of independent
    grid rows; helpers.random_subspace_by_spanning is K2's old draw."""

    @pytest.mark.parametrize("d, k", [(3, 2), (4, 2), (4, 3)])
    def test_k2_subspaces_and_rng_match_the_spanning_draw(self, d, k, monkeypatch):
        drawn, states = [], []
        real = criteria._independent_rows

        def spy(rng, dim, count):
            out = real(rng, dim, count)
            states.append(rng.getstate())
            return out

        monkeypatch.setattr(criteria, "_independent_rows", spy)
        monkeypatch.setattr(
            criteria, "_image_hull", lambda scaled, rows: drawn.append(rows) or (None, [], 1)
        )
        monkeypatch.setattr(criteria, "_certify_hull", lambda *args: None)
        body = centered_polytope(random.Random(d * k), d, 8)
        origin = (F(0),) * d
        for seed in range(150):
            drawn.clear()
            states.clear()
            klee_projection_test(body, 3, seed=seed, k=k)
            ref = random.Random(seed)
            for rows, state in zip(drawn, states, strict=True):
                E = AffineFlat.spanning(origin, map(criteria._grid_vector, rows))
                assert E == helpers.random_subspace_by_spanning(ref, origin, d, k)
                assert state == ref.getstate()
            assert len(drawn) == 3

    @pytest.mark.parametrize("draw", ["_draw_rows", "_draw_flat"])
    def test_callable_delta_is_evaluated_on_the_accepted_draw_only(self, draw):
        # the first scripted pair rounds to dependent rows and is redrawn
        script = [1.0, 1e-7, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0]
        calls = []
        delta = lambda u: calls.append(u) or 0.25
        normals_f = getattr(criteria, draw)(_ScriptedRandom(3, script), 4, 2, delta)[-2]
        assert calls == normals_f


class TestVisualConeChecks:
    """Negative counts and a sphere radius that is not finite fail before
    any cone is built, on exact and oracle bodies alike."""

    @staticmethod
    def no_cones(monkeypatch):
        from polysect import cones

        def fail(*args, **kwargs):
            raise AssertionError("a cone was built")

        monkeypatch.setattr(cones, "visual_cone", fail)
        monkeypatch.setattr(cones, "mirkil_scan", fail)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"budget": -5}, "apex budget must be nonnegative"),
            ({"budget": -1}, "apex budget must be nonnegative"),
            ({"sections_per_apex": -3}, "sections per apex must be nonnegative"),
        ],
    )
    @pytest.mark.parametrize("source", ["sphere", "apex list"])
    def test_negative_counts_rejected(self, kwargs, message, source, monkeypatch):
        self.no_cones(monkeypatch)
        apexes = ("sphere", (0.0, 0.0, 0.0), 6.0) if source == "sphere" else [(0, 0, 3)]
        for body in (cube(), make_ball((0, 0, 0), 1)):
            with pytest.raises(CriterionError, match=message):
                visual_cone_test(body, apexes, **kwargs)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_rejected(self, radius, monkeypatch):
        self.no_cones(monkeypatch)
        for body in (cube(), make_ball((0, 0, 0), 1)):
            with pytest.raises(CriterionError, match="sphere radius must be finite"):
                visual_cone_test(body, ("sphere", (0.0, 0.0, 0.0), radius), budget=2)

    def test_zero_section_count_is_allowed(self):
        ball = make_ball((0, 0, 0), 1)
        rep = visual_cone_test(ball, [(0, 0, 3)], sections_per_apex=0)
        assert (rep.verdict, rep.samples_used) == ("polytope-consistent", 1)
        # no cone section was sampled, and the report says so once
        assert rep.notes == ("zero-budget",)
        assert visual_cone_test(ball, [], sections_per_apex=0).notes == ("zero-budget",)


class TestVisualConeTest:
    def test_cube_apexes_give_exact_cones(self):
        rep = visual_cone_test(cube(), [(0, 0, 3), (3, 0, 0)], seed=1)
        assert rep.criterion == "T1.2"
        assert rep.verdict == "polytope-consistent"
        assert rep.exact
        assert any("exact cone" in n for n in rep.notes)

    def test_sphere_source_on_cube(self):
        rep = visual_cone_test(
            cube(), ("sphere", (0.0, 0.0, 0.0), 6.0), seed=2, budget=4
        )
        assert rep.verdict == "polytope-consistent"
        assert rep.samples_used == 4

    def test_ball_oracle_rejected(self):
        rep = visual_cone_test(
            make_ball((0, 0, 0), 1),
            ("sphere", (0.0, 0.0, 0.0), 4.0),
            seed=0,
            budget=1,
            sections_per_apex=3,
        )
        assert rep.verdict == "non-polytope"
        assert rep.witness is not None
        assert rep.witness.kind == "visual-cone"
        assert rep.witness.apex is not None

    def test_cone_scan_notes_carry_their_apex(self):
        # from beside the long ellipsoid the cone holds directions at right
        # angles to its hint, so the section normal to the hint is unbounded:
        # the clean run says which apex saw no section
        ell = make_ellipsoid((0, 0, 0), (1, 10, 100))
        rep = visual_cone_test(ell, [(1.02, 5.0, 50.0)], 0, sections_per_apex=1, boundary_points=8)
        assert rep.verdict == "polytope-consistent"
        assert rep.notes == ("apex 0: sample 0: coverage violation (no bounded cross-section)",)

    def test_cone_scan_seed_is_drawn_apart_from_the_apexes(self, monkeypatch):
        # apex 0's direction is the first gaussian of Random(seed); a scan
        # seeded with seed + i would draw apex i's stream again
        from polysect import cones

        seeds = []
        real = cones.mirkil_scan

        def spy(oracle, samples, seed=0, **kwargs):
            # a scan that samples nothing, so that every apex is scanned
            seeds.append(seed)
            return real(oracle, 0, seed, **kwargs)

        monkeypatch.setattr(cones, "mirkil_scan", spy)
        ball4 = make_ball((0, 0, 0, 0), 1)
        for seed in range(8):
            seeds.clear()
            visual_cone_test(ball4, ("sphere", (0, 0, 0, 0), 10.0), seed, budget=3,
                             sections_per_apex=1)
            assert len(seeds) == 3
            assert all(s != seed + i for i, s in enumerate(seeds)), seed

    def test_ray_hit_oracle_matches_the_half_angle(self):
        # the closed-form ray interval decides every direction away from
        # the cone's boundary as the ball's analytic half-angle does
        ball = make_ball((0.1, -0.2, 0.3), 1.5)
        apex = (0.5, 0.2, 4.0)
        oracle = _ray_hit_cone_oracle(ball, apex)
        to_center = [c - a for a, c in zip(apex, ball.interior_hint)]
        dist = math.hypot(*to_center)
        half = math.asin(1.5 / dist)
        axis = [x / dist for x in to_center]
        rng = random.Random(4)
        hits = 0
        for _ in range(40):
            u = [a + 0.6 * rng.gauss(0.0, 1.0) for a in axis]
            cos_angle = sum(a * b for a, b in zip(u, axis)) / math.hypot(*u)
            angle = math.acos(max(-1.0, min(1.0, cos_angle)))
            if abs(angle - half) < 1e-3:
                continue
            assert oracle.member(u) == (angle < half)
            hits += angle < half
        assert 0 < hits < 40

    @pytest.mark.parametrize(
        "kwargs", [{}, {"budget": 0}, {"sections_per_apex": 0}]
    )
    def test_body_without_ray_interval_is_rejected_up_front(self, kwargs):
        # no apex is drawn and no cone built: the body's member is never called
        ball = make_ball((0, 0, 0), 1)
        cap = glue_cap(cube(), (1, 0, 0), 1)
        for body in (cap, dataclasses.replace(ball, ray_interval=None)):
            calls = []

            def member(x, body=body):
                calls.append(x)
                return body.member(x)

            counted_body = dataclasses.replace(body, member=member)
            for apexes in (("sphere", (0.0, 0.0, 0.0), 4.0), [(0, 0, 4)]):
                with pytest.raises(CriterionError, match="ray_interval"):
                    visual_cone_test(counted_body, apexes, **kwargs)
            with pytest.raises(CriterionError, match="ray_interval"):
                _ray_hit_cone_oracle(counted_body, (0, 0, 4))
            assert calls == []

    def test_apex_inside_exact_body_raises(self):
        with pytest.raises(ConeError):
            visual_cone_test(cube(), [(0, 0, 0)], seed=0)

    @pytest.mark.parametrize("apex", [(0.0, 3.0), (0.0, 0.0, 3.0, 7.0)])
    def test_apex_of_another_dimension_raises(self, apex):
        # float bodies check the apex as the exact path does, not truncate it
        bodies = (cube(), make_ball((0, 0, 0), 1), make_ellipsoid((0, 0, 0), (1, 1, 2)))
        for body in bodies:
            with pytest.raises(DimensionMismatch, match="^apex dimension differs from the body$"):
                visual_cone_test(body, [apex], 1, sections_per_apex=1, boundary_points=8)

    def test_sphere_apexes_deterministic(self):
        rng1, rng2 = random.Random(5), random.Random(5)
        a = sphere_apexes((0.0, 0.0, 0.0), 4.0, 6, rng1)
        b = sphere_apexes((0.0, 0.0, 0.0), 4.0, 6, rng2)
        assert a == b
        for apex in a:
            assert abs(math.dist(apex, (0, 0, 0)) - 4.0) < 1e-9


class TestEpsilonCertificate:
    def test_cube_diagonal_interior_crossing(self):
        body = cube()
        cert = epsilon_certificate(body, (1, 1, 1), (-1, -1, -1))
        assert cert.case == "interior-crossing"
        assert cert.radius == 1.0
        expected = 0.5 * math.asin(1 / math.sqrt(3))
        assert abs(cert.epsilon - expected) < 1e-12
        assert cert.epsilon == 0.30773985433519374

    def test_cube_edge_boundary_segment(self):
        body = cube()
        cert = epsilon_certificate(body, (1, 1, 1), (1, 1, -1))
        assert cert.case == "boundary-segment"
        assert cert.distance == 1.0
        assert set(cert.vertex_set) == {(1, -1, 0), (-1, 1, 0)}
        angle = math.acos(1 / math.sqrt(5))
        assert any(abs(b - angle) < 1e-9 for b in cert.bound_branches)
        assert cert.epsilon == 0.5

    def test_facet_interior_segment(self):
        body = cube()
        cert = epsilon_certificate(
            body, (1, F(1, 2), F(1, 2)), (1, F(-1, 2), F(-1, 2))
        )
        assert cert.case == "boundary-segment"
        # the tight section facet lies inside the cube facet x = 1
        assert cert.vertex_set
        assert all(v[0] == 1 for v in cert.vertex_set)
        assert 0 < cert.epsilon <= 0.5 * cert.distance
        assert no_extreme_in_cone(
            body, (1, F(1, 2), F(1, 2)), (1, F(-1, 2), F(-1, 2)), cert.epsilon
        )

    def test_epsilon_always_positive_on_random_pairs(self):
        rng = random.Random(2)
        body = centered_polytope(rng, 3, 10)
        verts = body.vertices
        for p in verts[:4]:
            for q in verts[:4]:
                if p == q:
                    continue
                cert = epsilon_certificate(body, p, q)
                assert cert.epsilon > 0
                assert no_extreme_in_cone(body, p, q, cert.epsilon)

    def test_identical_endpoints_rejected(self):
        with pytest.raises(CriterionError):
            epsilon_certificate(cube(), (1, 1, 1), (1, 1, 1))

    def test_outside_point_rejected(self):
        with pytest.raises(CriterionError):
            epsilon_certificate(cube(), (2, 0, 0), (0, 0, 0))


class TestNoExtremeInCone:
    def test_certified_epsilon_excludes(self):
        body = cube()
        cert = epsilon_certificate(body, (1, 1, 1), (-1, -1, -1))
        assert no_extreme_in_cone(body, (1, 1, 1), (-1, -1, -1), cert.epsilon)

    def test_oversized_epsilon_fails(self):
        body = cube()
        assert not no_extreme_in_cone(body, (1, 1, 1), (-1, -1, -1), math.pi)

    def test_p_itself_never_counts(self):
        body = cube()
        assert no_extreme_in_cone(body, (1, 1, 1), (-1, -1, -1), 1e-6)

    def test_nan_epsilon_rejected(self):
        with pytest.raises(CriterionError, match="finite"):
            no_extreme_in_cone(cube(), (1, 1, 1), (-1, -1, -1), float("nan"))

    @pytest.mark.parametrize("eps", [float("inf"), float("-inf")])
    def test_infinite_epsilon_rejected(self, eps):
        with pytest.raises(CriterionError, match="finite"):
            no_extreme_in_cone(cube(), (1, 1, 1), (-1, -1, -1), eps)

    @settings(max_examples=150, deadline=None)
    @given(
        st.integers(0, 2**32),
        st.floats(1e-3, 4.0),
        st.sampled_from((2, 3, 4)),
    )
    def test_matches_fraction_route(self, seed, eps, d):
        rng = random.Random(seed)
        body = centered_polytope(rng, d, d + 4)
        verts = body.vertices
        p, q = rng.sample(verts, 2)
        if rng.random() < 0.5:  # a q that is no vertex
            q = tuple((a + b) / 3 for a, b in zip(q, rng.choice(verts)))
        assume(p != q)
        got = no_extreme_in_cone(body, p, q, eps)
        assert got == helpers.no_extreme_in_cone_in_fractions(body, p, q, eps)


def _boundary_reference(body, p, q, seed):
    """The boundary case by its definition: the flat through the midpoint
    normal to the default family member most transverse to q - p (the
    first on ties), its built section, and the vertices of the section's
    facets through the midpoint other than the midpoint, in the section's
    order."""
    u, mid = vsub(q, p), tuple((a + b) / 2 for a, b in zip(p, q))
    members = default_normal_family(len(u), seed=seed)
    scores = [vdot(u, nu) ** 2 / norm2(nu) if vdot(u, nu) else -1 for nu in members]
    best = members[scores.index(max(scores))]
    flat = AffineFlat.spanning(mid, nullspace([best]))
    sec = section(body, flat)
    tight = sec.polytope.active_facets(sec.polytope.to_chart(flat.coordinates(mid)))
    on = set().union(*(sec.polytope.facet_vertices[f] for f in tight))
    xs = tuple(sec.ambient_vertices[i] for i in sorted(on) if sec.ambient_vertices[i] != mid)
    return best, flat, sec, xs


def _fraction_angle(a, b):
    """The angle between two Fraction vectors, from the floats of their
    exact dot products."""
    num = float(vdot(a, b))
    return math.acos(max(-1.0, min(1.0, num / math.sqrt(float(norm2(a)) * float(norm2(b))))))


def _same_certificate(body, p, q, seed=0):
    """epsilon_certificate against its definition.  Interior case: the
    inscribed radius is the least facet distance of the midpoint (capped at
    0.99 |p - mid|).  Boundary case (`_boundary_reference`): the vertices,
    their angles at p, and the section's vertex centroid; with no vertex
    there is no angle bound, and the certificate is refused.  Every
    certificate returned passes its own check, `no_extreme_in_cone`."""
    try:
        cert = epsilon_certificate(body, p, q, seed=seed)
    except CriterionError as exc:
        p, q = as_point(p), as_point(q)
        u = vsub(q, p)
        if not any(u):
            assert str(exc) == "certificate needs two distinct points"
        else:
            assert str(exc) == "boundary case: no section vertex besides the midpoint"
            mid = tuple((a + b) / 2 for a, b in zip(p, q))
            assert body.dim < body.ambient_dim or body.contains(mid) == "boundary"
            assert _boundary_reference(body, p, q, seed)[-1] == ()
        return str(exc)
    p, q, mid = cert.p, cert.q, cert.midpoint
    assert mid == tuple((a + b) / 2 for a, b in zip(p, q))
    dist = math.sqrt(float(dist2(p, mid)))
    if cert.case == "interior-crossing":
        assert body.dim == body.ambient_dim and body.contains(mid) == "interior"
        radius = min(
            float(hs.offset - vdot(hs.normal, mid)) / math.sqrt(float(norm2(hs.normal)))
            for hs in body.halfspaces
        )
        radius = min(radius, 0.99 * dist)
        branches = (
            math.sqrt(max(dist * dist - radius * radius, 0.0)),
            math.asin(min(radius / dist, 1.0)),
        )
        assert (cert.radius, cert.bound_branches) == (radius, branches)
    else:
        assert body.dim < body.ambient_dim or body.contains(mid) == "boundary"
        best, flat, sec, xs = _boundary_reference(body, p, q, seed)
        u = vsub(q, p)
        distance = abs(float(vdot(best, vsub(p, mid)))) / math.sqrt(float(norm2(best)))
        assert (cert.flat_normal, cert.flat_offset) == (best, vdot(best, mid))
        assert xs and (cert.vertex_set, cert.distance) == (xs, distance)
        assert cert.bound_branches == (distance, *(_fraction_angle(vsub(x, p), u) for x in xs))
        assert cert.interior_point == flat.point_at(sec.polytope.interior_point())
    assert cert.epsilon == 0.5 * min(cert.bound_branches)
    assert no_extreme_in_cone(body, p, q, cert.epsilon)
    return repr(cert)


@st.composite
def embedded_bodies(draw):
    """A polytope of dimension 1 to d in R^d, d in 2..4: a small lattice cloud
    in R^k mapped by a rational affine map (segments and polygons in 3-D
    and 4-D among them)."""
    d = draw(st.sampled_from((2, 3, 4)))
    k = draw(st.integers(1, d))
    small = st.integers(-3, 3)
    cloud = draw(st.lists(st.tuples(*[small] * k), min_size=2, max_size=10, unique=True))
    if k == d:
        pts = cloud
    else:
        den = st.sampled_from((1, 2, 3))
        basis = [
            [F(draw(small), draw(den)) for _ in range(d)] for _ in range(k)
        ]
        shift = [F(draw(small), 2) for _ in range(d)]
        pts = [
            tuple(shift[c] + sum(x * b[c] for x, b in zip(pt, basis)) for c in range(d))
            for pt in cloud
        ]
    body = convex_hull(pts)
    assume(body.dim >= 1)
    return body


def _body_point(draw, body):
    """A vertex, an edge midpoint, a facet's vertex centroid or the body's."""
    verts = body.vertices
    kind = draw(st.sampled_from(("vertex", "edge", "facet", "centroid")))
    if kind == "edge" and body.edges():
        i, j = draw(st.sampled_from(body.edges()))
        return tuple((a + b) / 2 for a, b in zip(verts[i], verts[j]))
    if kind == "facet" and body.facet_vertices:
        ids = sorted(draw(st.sampled_from(body.facet_vertices)))
        return tuple(sum(c) / len(ids) for c in zip(*(verts[i] for i in ids)))
    if kind == "centroid":
        return body.interior_point()
    return draw(st.sampled_from(verts))


class TestEpsilonWithoutSection:
    """The boundary case is read off the tight facets and edges; a built
    section through the midpoint checks it against the definition."""

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_matches_the_definition(self, data):
        body = data.draw(embedded_bodies())
        d = body.ambient_dim
        if body.edges() and data.draw(st.booleans()):
            i, j = data.draw(st.sampled_from(body.edges()))
            p, q = body.vertices[i], body.vertices[j]
        else:
            p, q = _body_point(data.draw, body), _body_point(data.draw, body)
        assume(p != q)
        _same_certificate(body, p, q, seed=data.draw(st.integers(0, 99)))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-10**6, 10**6), min_size=2, max_size=4).filter(any))
    def test_int_chart_basis_is_the_flat_basis_scaled_up(self, row):
        # each int vector is a positive multiple of the Fraction one, so
        # both order points alike
        basis = criteria._int_chart_basis(row)
        flat = AffineFlat.spanning((0,) * len(row), nullspace([row]))
        assert len(basis) == len(flat.basis)
        for b, fb in zip(basis, flat.basis):
            assert all(type(x) is int for x in b)
            scale = vdot(b, fb) / norm2(fb)
            assert scale > 0 and b == tuple(scale * x for x in fb)

    def test_vertex_of_the_body_on_the_flat(self):
        # the edge runs along the z axis, so the family's z axis wins and
        # the flat z = 0 holds the body vertices (1, -1, 0) and (-1, 0, 0),
        # each on one facet through the edge
        body = convex_hull([(1, 1, 1), (1, 1, -1), (1, -1, 0), (-1, 0, 0)])
        p, q = (1, 1, 1), (1, 1, -1)
        _same_certificate(body, p, q)
        cert = epsilon_certificate(body, p, q)
        assert cert.case == "boundary-segment" and cert.flat_normal == (0, 0, 1)
        assert set(cert.vertex_set) == {(1, -1, 0), (-1, 0, 0)}
        assert cert.interior_point == (F(1, 3), 0, 0)

    def test_midpoint_as_a_crossing(self):
        rng = random.Random(5)
        for _ in range(3):
            body = centered_polytope(rng, 3, 14)
            for i, j in body.edges():
                p, q = body.vertices[i], body.vertices[j]
                _same_certificate(body, p, q)
                cert = epsilon_certificate(body, p, q)
                assert cert.case == "boundary-segment"
                assert cert.midpoint not in cert.vertex_set

    @pytest.mark.parametrize(
        "pts",
        [
            [(0, 0, 0), (1, 2, 3)],
            [(0, 0, 0), (2, 0, 2), (2, 2, 4), (0, 2, 2), (1, 3, 4)],
            [(1, 0, 0, 1), (F(5, 2), 1, 0, 2)],
            [(0, 0, 0, 0), (2, 0, 1, 1), (2, 2, 0, 1), (0, 2, -1, 0), (3, 1, 1, F(3, 2))],
            [(0, 0, 0, 0), (2, 0, 1, 1), (2, 2, 0, 1), (0, 2, -1, 0), (1, 1, 3, 1)],
        ],
    )
    def test_segments_and_polygons_in_three_and_four_dimensions(self, pts):
        body = convex_hull(pts)
        assert body.dim < body.ambient_dim
        assert body.dim < 3 or body.ambient_dim == 4
        verts = body.vertices
        cands = list(verts) + [body.interior_point()]
        cands += [tuple((a + b) / 2 for a, b in zip(verts[i], verts[j]))
                  for i, j in body.edges()]
        for p, q in itertools.permutations(cands, 2):
            _same_certificate(body, p, q)

    def test_lattice_sphere(self):
        body = convex_hull(random.Random(3).sample(helpers.lattice_sphere(426), 150))
        rng = random.Random(8)
        verts = body.vertices
        pairs = [tuple(verts[i] for i in rng.choice(body.edges())) for _ in range(6)]
        pairs += [tuple(rng.sample(verts, 2)) for _ in range(3)]
        for fv in rng.sample(body.facet_vertices, 3):
            ids = sorted(fv)
            pairs.append((verts[ids[0]], verts[ids[-1]]))
        for p, q in pairs:
            _same_certificate(body, p, q)


class TestDriftInequality:
    def test_gamma_zero_closed_form(self):
        res = drift_inequality_eval(
            DriftConfig(0.0, 0.3, 0.9, 1.0, 0.2)
        )
        assert res.lhs == 0.0
        assert res.holds

    def test_right_angle_closed_form(self):
        eps2 = 0.31
        res = drift_inequality_eval(
            DriftConfig(0.2, math.pi / 2, math.pi / 2, 1.0, eps2)
        )
        assert res.rhs == math.tan(eps2)

    def test_synthetic_violation_detected(self):
        res = drift_inequality_eval(
            DriftConfig(1.2, 0.0, math.pi / 2, 1.0, 0.05)
        )
        assert not res.holds
        assert res.lhs > res.rhs

    def test_validation_errors(self):
        with pytest.raises(CriterionError):
            drift_inequality_eval(DriftConfig(-0.1, 0.3, 0.9, 1.0, 0.2))
        with pytest.raises(CriterionError):
            drift_inequality_eval(DriftConfig(0.1, 0.3, 0.0, 1.0, 0.2))
        with pytest.raises(CriterionError):
            drift_inequality_eval(DriftConfig(0.1, 2.0, 0.9, 1.0, 0.2))
        with pytest.raises(CriterionError):
            drift_inequality_eval(DriftConfig(0.1, 0.3, 0.9, 0.0, 0.2))
        with pytest.raises(CriterionError):
            drift_inequality_eval(DriftConfig(0.1, 0.3, 0.9, 1.0, 1.6))

    def test_realized_configuration_holds(self):
        cfg, points = drift_config_from_geometry(
            (0, 0, 0), (2, 0, 0), (0.5, 0.4, 0.1), gamma=0.15
        )
        assert cfg.realized
        res = drift_inequality_eval(cfg)
        assert res.holds
        assert res.chain_holds

    def test_realized_lengths_match_formulas(self):
        cfg, points = drift_config_from_geometry(
            (0, 0, 0), (2, 0, 0), (0.5, 0.4, 0.1), gamma=0.1
        )
        res = drift_inequality_eval(cfg)
        b, t, a, p, qn = (
            points["b"], points["t"], points["a"], points["p"], points["q_n"]
        )
        assert abs(res.lengths["b-t"] - math.dist(b, t)) < 1e-9
        assert abs(res.lengths["a-t"] - math.dist(a, t)) < 1e-9
        assert abs(res.lengths["b-p"] - math.dist(b, p)) < 1e-9
        assert abs(res.lengths["b-q"] - math.dist(b, qn)) < 1e-9

    def test_many_random_realized_configs_hold(self):
        rng = random.Random(17)
        done = 0
        while done < 40:
            p = (0.0, 0.0, 0.0)
            q = (rng.uniform(1, 3), 0.0, 0.0)
            qn = (
                rng.uniform(0.2, 0.8) * q[0],
                rng.uniform(-0.5, 0.5),
                rng.uniform(-0.5, 0.5),
            )
            try:
                cfg, _ = drift_config_from_geometry(
                    p, q, qn, gamma=rng.uniform(0.0, 0.6)
                )
            except CriterionError:
                continue
            res = drift_inequality_eval(cfg)
            assert res.holds, (cfg, res)
            done += 1

    def test_collinear_drifting_point_rejected(self):
        with pytest.raises(CriterionError):
            drift_config_from_geometry((0, 0, 0), (2, 0, 0), (1, 0, 0))

    def test_coincident_segment_rejected(self):
        with pytest.raises(CriterionError):
            drift_config_from_geometry((0, 0, 0), (0, 0, 0), (1, 1, 0))


class TestNormalFamily:
    def test_contains_axes(self):
        fam = default_normal_family(3)
        assert (F(1), F(0), F(0)) in fam
        assert len(fam) == 24

    def test_deterministic(self):
        assert default_normal_family(3, seed=5) == default_normal_family(3, seed=5)
        assert default_normal_family(3, seed=5) != default_normal_family(3, seed=6)

    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    def test_int_rows_give_the_rationalized_family(self, dim):
        for seed in range(40):
            fam = default_normal_family(dim, seed)
            assert fam == helpers.default_normal_family_by_rationalize(dim, seed)
            assert all(type(x) is F for v in fam for x in v)
