"""The float oracle kernels against their per-element generator forms.

The kernels in bodies, criteria and cones sum over map objects in C.  sum
adds the same terms in the same order either way, so every float must
equal the one the generator forms in helpers give, bit for bit: results are
compared through repr, which tells -0.0 from 0.0.  The inputs mix floats,
ints, Fractions and signed zeros, which the oracles accept.
"""

import hashlib
import math
import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (
    CUBE_VERTICES,
    ball_by_generators,
    ellipsoid_by_generators,
    fdot_by_generator,
    fnorm_by_generator,
    funit_by_generator,
    gauss_unit_by_generator,
    orthonormal_frame_by_generator,
    polytope_support_by_scan,
    radial_sweep_by_generator,
    sphere_interval_by_generator,
)

from polysect.bodies import (
    BodyError,
    UnboundedSection,
    _fdot,
    _fnorm,
    _funit,
    _gauss_unit,
    _orthonormal_frame,
    _sphere_interval,
    exit_function,
    glue_cap,
    make_ball,
    make_ellipsoid,
    wrap_polytope,
)
from polysect.cones import ball_visual_cone_oracle, mirkil_scan
from polysect.criteria import klee_projection_test, klee_section_test, visual_cone_test
from polysect.polytope import convex_hull

number = st.one_of(
    st.floats(-1e6, 1e6),
    st.sampled_from([0.0, -0.0]),
    st.integers(-(10**6), 10**6),
    st.fractions(-1000, 1000, max_denominator=10**4),
)
wide = st.one_of(number, st.floats(allow_nan=False, allow_infinity=False))
vec3 = st.tuples(number, number, number)
# all-float inputs, as the sweeps pass them
fvec3 = st.tuples(*[st.floats(-1e3, 1e3)] * 3)


def outcome(f, *args):
    """repr of f(*args), or the type of the exception it raises."""
    try:
        return repr(f(*args))
    except (ArithmeticError, BodyError) as exc:
        return type(exc).__name__


def same(f, g, *args):
    assert outcome(f, *args) == outcome(g, *args), args


class TestHelpers:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(wide, min_size=0, max_size=5), st.lists(wide, min_size=0, max_size=5))
    def test_fdot(self, a, b):
        same(_fdot, fdot_by_generator, a, b)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(wide, min_size=0, max_size=5))
    def test_fnorm_and_funit(self, v):
        same(_fnorm, fnorm_by_generator, v)
        same(_funit, funit_by_generator, v)

    def test_signed_zeros(self):
        for v in [(-0.0, -0.0), (0.0, -0.0, 0), (F(0), -0.0)]:
            same(_fdot, fdot_by_generator, v, v)
            same(_fdot, fdot_by_generator, v, (-1.0,) * len(v))
            same(_fnorm, fnorm_by_generator, v)
            same(_funit, funit_by_generator, v)

    def test_overflow_reads_infinite(self):
        assert _fnorm((1e200, F(10) ** 200, 3)) == math.inf

    @pytest.mark.parametrize("d", [2, 3, 4, 7])
    def test_gauss_unit_and_frames(self, d):
        # a frame with no vectors given is the generator form's, bit for bit;
        # one normal to a given unit w is orthonormal together with w
        for seed in range(20):
            assert repr(_gauss_unit(random.Random(seed), d)) == repr(
                gauss_unit_by_generator(random.Random(seed), d)
            )
            w = _gauss_unit(random.Random(1000 + seed), d)
            for k in range(1, d + 1):
                assert repr(_orthonormal_frame(random.Random(seed), d, k)) == repr(
                    orthonormal_frame_by_generator(random.Random(seed), d, k)
                )
                if k == d:
                    continue
                vecs = (w, *_orthonormal_frame(random.Random(seed), d, k, (w,)))
                assert len(vecs) == k + 1
                for a, u in enumerate(vecs):
                    for b, v in enumerate(vecs):
                        assert abs(_fdot(u, v) - (a == b)) <= 1e-12, (seed, k, a, b)

    @settings(max_examples=200, deadline=None)
    @given(fvec3, fvec3, st.floats(0.0, 1e12))
    def test_sphere_interval(self, w, v, rr):
        same(_sphere_interval, sphere_interval_by_generator, w, v, rr)


class TestBodyClosures:
    @settings(max_examples=200, deadline=None)
    @given(vec3, st.floats(1e-3, 1e3), vec3, vec3)
    def test_ball(self, center, radius, x, u):
        ball = make_ball(center, radius)
        support, member, ray_interval = ball_by_generators(center, radius)
        same(ball.support, support, u)
        same(ball.member, member, x)
        same(ball.ray_interval, ray_interval, x, u)

    @settings(max_examples=200, deadline=None)
    @given(vec3, st.tuples(*[st.floats(1e-3, 1e3)] * 3), vec3, vec3)
    def test_ellipsoid(self, center, axes, x, u):
        ell = make_ellipsoid(center, axes)
        support, member, ray_interval = ellipsoid_by_generators(center, axes)
        same(ell.support, support, u)
        same(ell.member, member, x)
        same(ell.ray_interval, ray_interval, x, u)

    @settings(max_examples=100, deadline=None)
    @given(vec3)
    def test_polytope_support_keeps_the_first_maximum(self, u):
        cube = convex_hull(CUBE_VERTICES)
        verts = [tuple(float(x) for x in v) for v in cube.vertices]
        same(wrap_polytope(cube).support, lambda u: polytope_support_by_scan(verts, u), u)

    def test_huge_radius_is_refused(self):
        # the squared radius behind the ray intervals would overflow
        with pytest.raises(BodyError, match="too large"):
            make_ball((0, 0, 0), 1e160)
        make_ball((0, 0, 0), 1e100)


def _bodies():
    cube = convex_hull(CUBE_VERTICES)
    return [
        make_ball((0.25, -0.5, 0.125), 1.5),
        make_ellipsoid((0.5, 0.25, -0.25), (2.0, 1.25, 0.75)),
        glue_cap(cube, (1, 0, 0), 1),
        make_ellipsoid((0.25, 0, -0.5, 0.125), (1.5, 1.0, 2.0, 0.75)),
    ]


def sweep_is_unbounded(member, ray_interval, start, frame, count, offset, ceiling):
    """Compare exit_function at the angles offset + 2πj/count, j < count,
    with the reference sweep; True when the reference ran into the ceiling,
    where exit_function must raise UnboundedSection."""
    point_at = exit_function(member, ray_interval, start, frame, ceiling)
    angles = [offset + 2.0 * math.pi * j / count for j in range(count)]
    expected = radial_sweep_by_generator(member, ray_interval, start, frame, count, offset, ceiling)
    if expected is None:
        with pytest.raises(UnboundedSection):
            [point_at(th) for th in angles]
        return True
    assert repr(tuple(map(point_at, angles))) == repr(expected)
    return False


class TestSweeps:
    @pytest.mark.parametrize("with_interval", [True, False])
    def test_exit_function(self, with_interval):
        rng = random.Random(4)
        for body in _bodies()[:2]:
            ray = body.ray_interval if with_interval else None
            for _ in range(3):
                e1, e2 = _orthonormal_frame(rng, 3, 2)
                start = tuple(c + 0.1 * x for c, x in zip(body.interior_hint, e1))
                args = (body.member, ray, start, (e1, e2), 12, rng.uniform(0, 0.5))
                assert not sweep_is_unbounded(*args, 1e102)
                assert sweep_is_unbounded(*args, 0.5)

    def test_exit_function_reads_cone_intervals(self):
        # exits read the cone's closed form by the rule they apply to every
        # interval: the scan's cross-sections, at its 2^30 ceiling and at a
        # low one
        cone = ball_visual_cone_oracle((4.0, 1.0, -2.0), (0.25, -0.5, 0.125), 1.5)
        rng = random.Random(5)
        for start in (cone.axis_hint, tuple(x + 0.01 for x in cone.axis_hint)):
            for _ in range(3):
                frame = _orthonormal_frame(rng, 3, 2)
                args = (cone.member, cone.ray_interval, start, frame, 16, rng.uniform(0, 0.4))
                sweep_is_unbounded(*args, 2.0**30)
                assert sweep_is_unbounded(*args, 0.1)


# sha256 over the reprs of these reports, recorded when section sampling
# took its centre from 8 exits, again when the Mirkil scan came to return a
# CriterionReport (the same fields and floats, under new names), and again
# when one adaptive probe replaced the fixed samples (every verdict and
# samples_used kept), and again when T1.2 drew its cone scan's seed from its
# own stream (only the T1.2 report moved, with its verdict and samples_used
# kept), and again when the Mirkil scan cut every section normal to the axis
# hint (only the 4-D cone moved: its first sample, a miss before, now
# refutes).  A change to any float on the oracle path changes it.
GOLDEN_REPORTS = "03dde6872802936b1515d2dd97302c1069fa970dcf85096f7d85a4c0e3fa59a2"


def golden_reports():
    ball = make_ball((0.25, -0.5, 0.125), 1.5)
    ell, cap, ell4 = _bodies()[1:]
    cone3 = ball_visual_cone_oracle((4.0, 1.0, -2.0), (0.25, -0.5, 0.125), 1.5)
    cone4 = ball_visual_cone_oracle((4.0, 1.0, -2.0, 0.5), (0.25, -0.5, 0.125, 0.0), 1.5)
    return [
        klee_section_test(ball, 2, 11),
        klee_section_test(ball, 2, 12, delta=0.25),
        klee_projection_test(ball, 2, 13),
        klee_section_test(ell, 2, 14),
        klee_section_test(ell, 2, 15, delta=0.25),
        klee_projection_test(ell, 2, 16),
        klee_section_test(cap, 1, 17, boundary_points=8),
        klee_section_test(cap, 1, 5, delta=0.25, boundary_points=8),
        klee_projection_test(cap, 2, 19),
        mirkil_scan(cone3, 2, 20),
        mirkil_scan(cone4, 2, 23),
        visual_cone_test(ball, [(3.0, 2.0, 1.0)], 21, sections_per_apex=1, boundary_points=8),
        klee_projection_test(ell4, 2, 22),
    ]


def test_golden_oracle_reports():
    h = hashlib.sha256()
    for rep in golden_reports():
        h.update(repr(rep).encode())
    assert h.hexdigest() == GOLDEN_REPORTS
