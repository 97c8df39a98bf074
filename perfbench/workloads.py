"""The four benchmark workloads: seeded inputs, request mixes and output checks.

Every workload is a closed loop driven by one client: the next request is
sent only after the previous one returned.  A *pass* is one full round of
the workload's request mix; the timed phase always runs whole passes, so the
mix measured is the same whatever the machine's speed.  Inputs come from
``random.Random`` seeded with the workload name, the benchmark seed and the
pass index, so a seed fixes every input.

A request is ``call`` (timed) and ``check`` (untimed, with tracing paused).
``check`` raises ``CheckFailed`` when the output is wrong and otherwise
returns a canonical form of the output for the run's digest.  Checks read
verdicts, exact vertex sets and exit codes, never raw report bytes, so new
report fields cannot trip them.
"""

from __future__ import annotations

import importlib
import json
import math
import os
import random
import shlex
import signal
import subprocess
import sys
from fractions import Fraction
from typing import Callable, NamedTuple


class CheckFailed(Exception):
    pass


class Request(NamedTuple):
    kind: str
    call: Callable[[], object]
    check: Callable[[object], object]


def expect(cond, why: str) -> None:
    if not cond:
        raise CheckFailed(why)


def _rng(name: str, seed: int, p) -> random.Random:
    return random.Random(f"{name}:{seed}:{p}")


def _fstr(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _pstr(p) -> str:
    return ",".join(_fstr(Fraction(x)) for x in p)


def _dot(a, b):
    return sum(x * y for x, y in zip(a, b))


def _sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _cloud(rng: random.Random, dim: int, count: int) -> list:
    """Rational points with denominator 8 in the box [-4, 4]^dim."""
    return [
        tuple(Fraction(rng.randint(-32, 32), 8) for _ in range(dim))
        for _ in range(count)
    ]


def _rank(rows) -> int:
    """Rank of a list of rational vectors, by fraction-free Gaussian elimination."""
    ints = []
    for r in rows:
        scale = math.lcm(*(Fraction(x).denominator for x in r))
        ints.append([int(x * scale) for x in r])
    rank = 0
    for col in range(len(ints[0]) if ints else 0):
        pivot = next((i for i in range(rank, len(ints)) if ints[i][col]), None)
        if pivot is None:
            continue
        ints[rank], ints[pivot] = ints[pivot], ints[rank]
        top = ints[rank]
        for i in range(rank + 1, len(ints)):
            r = ints[i]
            if r[col]:
                r = [a * top[col] - b * r[col] for a, b in zip(r, top)]
                g = math.gcd(*r)
                ints[i] = [a // g for a in r] if g > 1 else r
        rank += 1
    return rank


def _check_faces(points, vertices, halfspaces, dim: int, cone: bool = False) -> None:
    """Check that `vertices` and `halfspaces` are exactly the hull of `points`, for dim <= 4.

    Soundness: every point satisfies every halfspace and every vertex is an
    input point.  Completeness: each halfspace is a facet (its tight vertices
    span a (dim-1)-face), a point is listed exactly when the normals of the
    halfspaces tight at it have rank dim, and the face counts satisfy
    Euler's relation, which fails when a facet is left out.  With `cone` the
    points are primitive ray directions of a pointed cone whose halfspaces
    pass through its apex, and dim is the dimension of its cross-section.
    """
    hss = list(halfspaces)
    pts = sorted(set(points))
    verts = list(vertices)
    expect(len(set(verts)) == len(verts), "vertex listed twice")
    expect(set(verts) <= set(pts), "vertex not among the input points")
    tight = {}
    for p in pts:
        slack = [hs.offset - _dot(hs.normal, p) for hs in hss]
        expect(min(slack, default=0) >= 0, "input point outside a facet")
        tight[p] = frozenset(i for i, s in enumerate(slack) if s == 0)

    def normal_rank(ids):
        return _rank([hss[i].normal for i in ids])

    def face_dim(vs):
        if not vs:
            return -1
        if cone:
            return _rank(vs) - 1
        return _rank([_sub(v, vs[0]) for v in vs[1:]])

    on = [[v for v in verts if i in tight[v]] for i in range(len(hss))]
    for face in on:
        expect(face_dim(face) == dim - 1, "halfspace is not a facet")
    listed = set(verts)
    for p in pts:
        if p in listed:
            expect(normal_rank(tight[p]) == dim, "listed vertex is not a vertex")
        else:
            expect(normal_rank(tight[p]) < dim, "vertex left out of the list")
    f = {0: len(verts), dim - 1: len(hss)}
    if dim >= 3:
        ids = [frozenset(map(verts.index, face)) for face in on]
        f[dim - 2] = sum(
            1 for i in range(len(hss)) for j in range(i + 1, len(hss))
            if len(ids[i] & ids[j]) >= dim - 1
            and face_dim([verts[k] for k in sorted(ids[i] & ids[j])]) == dim - 2
        )
    if dim == 4:
        f[1] = sum(
            1 for i in range(len(verts)) for j in range(i + 1, len(verts))
            if normal_rank(tight[verts[i]] & tight[verts[j]]) == dim - 1
        )
    euler = sum((-1) ** k * f[k] for k in range(dim))
    expect(euler == 1 - (-1) ** dim, "face counts break Euler's relation: a facet is missing")


def _check_hull(points, poly, dim: int) -> None:
    """Independent check of the program's hull of `points`."""
    expect(poly.dim == dim, f"hull has dimension {poly.dim}, expected {dim}")
    _check_faces(points, poly.vertices, poly.halfspaces, dim)


class _Workload:
    """A workload of one checkout, seed and scratch directory; `tracer` is set in traced runs."""

    def __init__(self, root: str, seed: int, work: str, tracer=None):
        self.root = root
        self.seed = seed
        self.work = work
        self.tracer = tracer


class _InProcess(_Workload):
    """Shared set-up for workloads that call the library directly."""

    in_process = True

    def _modules(self):
        for short in ("polytope", "geometry", "criteria", "cones", "bodies", "silhouette"):
            setattr(self, short, importlib.import_module(f"polysect.{short}"))

    def warmup(self) -> None:
        """One request of each kind, untimed, so lazy state is built."""
        seen = set()
        for req in self.pass_requests("warmup"):
            if req.kind not in seen and req.kind not in self.warmup_skip:
                seen.add(req.kind)
                req.check(req.call())

    warmup_skip = ()


# ---------------------------------------------------------------------------
# exact-sections


class ExactSections(_InProcess):
    """Hull a seeded cloud, re-centre it, then run one small K1/T1.1/K2 test."""

    name = "exact-sections"
    trace_passes = 12
    BUDGET = 2
    DELTA = 0.25
    SIZES_4D = (8, 11, 14)

    def setup(self) -> None:
        self._modules()

    def pass_requests(self, p) -> list:
        rng = _rng(self.name, self.seed, p)
        shift = p if isinstance(p, int) else 0
        reqs = []
        for j, tester in enumerate(("K1", "T1.1", "K2")):
            reqs.append(self._request(rng, tester, 3, 30))
            reqs.append(self._request(rng, tester, 4, self.SIZES_4D[(j + shift) % 3]))
        return reqs

    def _request(self, rng, tester, dim, count):
        pts = _cloud(rng, dim, count)
        tseed = rng.randrange(1 << 30)
        polytope, criteria = self.polytope, self.criteria

        def call():
            hull = polytope.convex_hull(pts)
            c = hull.interior_point()
            body = polytope.convex_hull([_sub(v, c) for v in hull.vertices])
            if tester == "K2":
                rep = criteria.klee_projection_test(body, self.BUDGET, tseed)
            else:
                delta = self.DELTA if tester == "T1.1" else None
                rep = criteria.klee_section_test(body, self.BUDGET, tseed, delta=delta)
            return hull, c, body, rep

        def check(out):
            hull, c, body, rep = out
            _check_hull(pts, hull, dim)
            expect(
                set(body.vertices) == {_sub(v, c) for v in hull.vertices},
                "re-centred hull lost or gained vertices",
            )
            expect(rep.verdict == "polytope-consistent", f"{tester} verdict {rep.verdict}")
            expect(rep.witness is None, "witness reported on an exact polytope")
            expect(rep.samples_used == self.BUDGET, "tester skipped samples")
            return (
                tester, dim, tuple(sorted(_pstr(v) for v in hull.vertices)),
                rep.verdict, rep.samples_used, rep.notes,
            )

        return Request(f"{tester}-{dim}d", call, check)


# ---------------------------------------------------------------------------
# exact-queries


class ExactQueries(_InProcess):
    """Read-only queries on a pool of exact 3-polytopes built at set-up."""

    name = "exact-queries"
    trace_passes = 20
    POOL = 16
    POINTS = 24

    def setup(self) -> None:
        self._modules()
        rng = _rng(self.name, self.seed, "pool")
        self.pool = []
        while len(self.pool) < self.POOL:
            hull = self.polytope.convex_hull(_cloud(rng, 3, self.POINTS))
            if hull.dim != 3:
                continue
            c = hull.interior_point()
            body = self.polytope.convex_hull([_sub(v, c) for v in hull.vertices])
            body.edges()
            self.pool.append(body)

    def pass_requests(self, p) -> list:
        rng = _rng(self.name, self.seed, p)
        return [
            self._epsilon(rng, edge=True),
            self._epsilon(rng, edge=False),
            self._walk(rng),
            self._cone(rng),
            self._project(rng),
        ]

    def _pick(self, rng):
        return self.pool[rng.randrange(len(self.pool))]

    def _epsilon(self, rng, edge: bool):
        body = self._pick(rng)
        if edge:
            i, j = body.edges()[rng.randrange(len(body.edges()))]
        else:
            i, j = rng.sample(range(len(body.vertices)), 2)
        p, q = body.vertices[i], body.vertices[j]
        cseed = rng.randrange(1 << 30)
        criteria = self.criteria

        def call():
            cert = criteria.epsilon_certificate(body, p, q, seed=cseed)
            return cert, criteria.no_extreme_in_cone(body, p, q, cert.epsilon)

        def check(out):
            cert, excluded = out
            expect(excluded, "certificate violates no_extreme_in_cone")
            expect(cert.epsilon > 0, "certificate radius is not positive")
            mid = tuple((a + b) / 2 for a, b in zip(p, q))
            slack = [hs.offset - _dot(hs.normal, mid) for hs in body.halfspaces]
            interior = all(s > 0 for s in slack)
            expect(min(slack) >= 0, "segment midpoint outside the body")
            expect(
                cert.case == ("interior-crossing" if interior else "boundary-segment"),
                f"certificate case {cert.case} disagrees with the midpoint",
            )
            expect(not edge or cert.case == "boundary-segment", "edge certified as interior")
            return ("epsilon", cert.case, tuple(sorted(_pstr(v) for v in cert.vertex_set)))

        return Request("epsilon-edge" if edge else "epsilon-pair", call, check)

    def _walk(self, rng):
        body = self._pick(rng)
        xi = _small_vector(rng, 3)
        silhouette, polytope = self.silhouette, self.polytope

        def call():
            return silhouette.shadow_walk(body, xi)

        def check(walk):
            chart = silhouette.shadow_chart(xi)
            shadow = polytope.project(body, chart).polytope
            _check_hull([chart.projected_coordinates(v) for v in body.vertices], shadow, 2)
            expect(len(set(walk.vertices)) == len(walk.vertices), "walk repeated a vertex")
            expect(set(walk.vertices) == set(shadow.vertices), "walk disagrees with project")
            expect(walk.steps <= len(body.vertices) + 2, "walk exceeded its step bound")
            return ("walk", tuple(_pstr(v) for v in walk.vertices), walk.steps)

        return Request("walk", call, check)

    def _cone(self, rng):
        body = self._pick(rng)
        u = _small_vector(rng, 3)
        top = max(_dot(u, v) for v in body.vertices)
        apex = tuple(x * (2 * top / _dot(u, u) + 1) for x in u)
        cones = self.cones

        def call():
            return cones.visual_cone(apex, body)

        def check(cone):
            rays = [_primitive(_sub(v, apex)) for v in body.vertices]
            expect(cone.extreme_ray_count >= 3, "visual cone has fewer than 3 rays")
            expect(cone.halfspaces is not None, "visual cone of a 3-polytope is not full")
            _check_faces(rays, cone.generators, cone.halfspaces, 2, cone=True)
            return ("cone", tuple(sorted(_pstr(g) for g in cone.generators)))

        return Request("cone", call, check)

    def _project(self, rng):
        body = self._pick(rng)
        while True:
            a, b = _small_vector(rng, 3), _small_vector(rng, 3)
            if any(_cross(a, b)):
                break
        origin = (Fraction(0),) * 3
        geometry, polytope = self.geometry, self.polytope

        def call():
            plane = geometry.AffineFlat.spanning(origin, [a, b])
            return plane, polytope.project(body, plane)

        def check(out):
            plane, proj = out
            shadow = proj.polytope
            _check_hull([plane.projected_coordinates(v) for v in body.vertices], shadow, 2)
            return ("project", tuple(_pstr(v) for v in shadow.vertices))

        return Request("project", call, check)


def _small_vector(rng, dim):
    while True:
        v = tuple(Fraction(rng.randint(-4, 4)) for _ in range(dim))
        if any(v):
            return v


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def _primitive(v) -> tuple:
    """The direction of v as coprime integers, the form cone generators take."""
    scale = math.lcm(*(Fraction(x).denominator for x in v))
    ints = [int(x * scale) for x in v]
    g = math.gcd(*ints)
    return tuple(Fraction(x // g) for x in ints)


# ---------------------------------------------------------------------------
# oracle-scan


class OracleScan(_InProcess):
    """Float testers on seeded balls, ellipsoids and one cap body."""

    name = "oracle-scan"
    trace_passes = 1
    ROUNDS = 12
    DELTA = 0.25
    warmup_skip = ("T1.2-ball",)

    def setup(self) -> None:
        self._modules()
        rng = _rng(self.name, self.seed, "bodies")
        bodies = self.bodies
        self.balls = [
            bodies.make_ball(_near_origin(rng), rng.uniform(1.0, 2.0)) for _ in range(3)
        ]
        self.ellipsoids = [
            bodies.make_ellipsoid(
                _near_origin(rng), tuple(rng.uniform(1.0, 2.5) for _ in range(3))
            )
            for _ in range(3)
        ]
        cube = self.polytope.convex_hull(
            [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        )
        self.cap_center = (1.0, rng.uniform(-0.25, 0.25), rng.uniform(-0.25, 0.25))
        self.cap_radius = rng.uniform(0.75, 1.0)
        self.cap = bodies.glue_cap(cube, self.cap_center, self.cap_radius)

    def pass_requests(self, p) -> list:
        rng = _rng(self.name, self.seed, p)
        reqs = []
        for r in range(self.ROUNDS):
            if r == self.ROUNDS // 2:
                reqs.append(self._t12(rng))
            ball = self.balls[rng.randrange(3)]
            ell = self.ellipsoids[rng.randrange(3)]
            reqs += [
                self._section(rng, ball, "K1"),
                self._section(rng, ball, "T1.1"),
                self._section(rng, ell, "K1"),
                self._section(rng, ell, "T1.1"),
                self._projection(rng, ell),
                self._projection(rng, self.cap),
                self._mirkil(rng),
                self._cap_probe(rng, inside=True),
                self._cap_probe(rng, inside=False),
                self._cap_probe(rng, inside=True),
                self._cap_probe(rng, inside=False),
            ]
        return reqs

    def _smooth_check(self, rep, what):
        expect(rep.verdict == "non-polytope", f"{what}: smooth body passed as a polytope")
        expect(rep.witness is not None and rep.witness.reverified, f"{what}: witness not reverified")
        return (what, rep.verdict, rep.samples_used, rep.witness.triple)

    def _section(self, rng, body, tester):
        tseed = rng.randrange(1 << 30)
        delta = self.DELTA if tester == "T1.1" else None
        criteria = self.criteria

        def call():
            return criteria.klee_section_test(body, 1, tseed, delta=delta)

        kind = f"{tester}-{body.name}"
        return Request(kind, call, lambda rep: self._smooth_check(rep, kind))

    def _projection(self, rng, body):
        tseed = rng.randrange(1 << 30)
        criteria = self.criteria

        def call():
            return criteria.klee_projection_test(body, 1, tseed)

        def check(rep):
            if body is self.cap:
                # one-sided: a cap shadow may look polygonal from one subspace
                if rep.verdict == "non-polytope":
                    expect(rep.witness.reverified, "cap witness not reverified")
                return ("K2-cap", rep.verdict, rep.samples_used)
            return self._smooth_check(rep, "K2-ellipsoid")

        return Request(f"K2-{body.name}", call, check)

    def _mirkil(self, rng):
        ball = self.balls[rng.randrange(3)]
        center = ball.interior_hint
        u = _unit(rng)
        reach = ball.support(u)[0] - _dot(u, center)
        apex = tuple(c + rng.uniform(2.0, 4.0) * reach * x for c, x in zip(center, u))
        mseed = rng.randrange(1 << 30)
        cones = self.cones

        def call():
            oracle = cones.ball_visual_cone_oracle(apex, center, reach)
            return cones.mirkil_scan(oracle, 2, mseed)

        def check(rep):
            expect(rep.verdict == "non-polyhedral", "round cone passed as polyhedral")
            expect(rep.witness is not None, "no Mirkil witness")
            return ("mirkil", rep.verdict, rep.samples_used, rep.witness.triple)

        return Request("mirkil-ball", call, check)

    def _cap_probe(self, rng, inside: bool):
        x = self._cap_inside(rng) if inside else self._cap_outside(rng)
        cap = self.cap

        def call():
            return cap.member(x)

        def check(got):
            expect(got == inside, f"cap membership {got}, expected {inside}")
            return ("cap", inside)

        return Request("cap-in" if inside else "cap-out", call, check)

    def _in_pieces(self, x) -> bool:
        in_cube = all(abs(v) <= 1.0 for v in x)
        d = math.dist(x, self.cap_center)
        return in_cube or d <= self.cap_radius

    def _cap_inside(self, rng):
        """A convex combination of a cube vertex and a cap point, outside both pieces."""
        hint = (0.0, 0.0, 0.0)
        while True:
            v = (1.0, rng.choice((-1.0, 1.0)), rng.choice((-1.0, 1.0)))
            u = _unit(rng)
            if u[0] < 0.2:
                continue
            b = tuple(c + self.cap_radius * w for c, w in zip(self.cap_center, u))
            t = rng.uniform(0.3, 0.7)
            x = tuple(t * a + (1 - t) * c for a, c in zip(v, b))
            x = tuple(h + 0.97 * (a - h) for h, a in zip(hint, x))
            if not self._in_pieces(x):
                return x

    def _cap_outside(self, rng):
        """A point beyond the cap's support function in its own direction."""
        u = _unit(rng)
        h_cube = sum(abs(w) for w in u)
        h_ball = _dot(u, self.cap_center) + self.cap_radius
        return tuple((max(h_cube, h_ball) + 0.05) * w for w in u)

    def _t12(self, rng):
        ball = self.balls[0]
        center = ball.interior_hint
        radius = 4.0 * (ball.support((1.0, 0.0, 0.0))[0] - center[0])
        tseed = rng.randrange(1 << 30)
        criteria = self.criteria

        def call():
            return criteria.visual_cone_test(
                ball, ("sphere", center, radius), tseed,
                budget=1, sections_per_apex=1, boundary_points=8,
            )

        def check(rep):
            out = self._smooth_check(rep, "T1.2-ball")
            expect(rep.witness.kind == "visual-cone", "T1.2 witness is not a visual cone")
            return out

        return Request("T1.2-ball", call, check)


def _near_origin(rng):
    return tuple(rng.uniform(-0.2, 0.2) for _ in range(3))


def _unit(rng):
    while True:
        v = [rng.gauss(0.0, 1.0) for _ in range(3)]
        n = math.sqrt(sum(x * x for x in v))
        if n > 1e-6:
            return tuple(x / n for x in v)


# ---------------------------------------------------------------------------
# cli-files


# the ten documented EXAMPLES commands and their documented exit codes
EXAMPLES = (
    ('section --body cube.off --flat "n=1,1,1;c=0" --svg hex.svg', 0),
    ("project --body cube.off --xi 0,0,1", 0),
    ("cone --body cube.off --apex 0,0,3", 0),
    ("klee-k1 --body ball.json --flats 5 --seed 7", 2),
    ("klee-k2 --body cube.off --subspaces 10 --seed 3", 0),
    ("t11 --body cube.off --flats 8 --delta 0.25 --seed 1", 0),
    ("t12 --body cube.off --apexes 4 --seed 5", 0),
    ("epsilon --body cube.off --p 1,1,1 --q=-1,-1,-1", 0),
    ("walk --body cube.off --xi 0,0,1 --svg walk.svg", 0),
    ("mirkil --body ball.json --apex 0,0,3 --samples 10 --seed 2", 2),
)

# malformed invocations scored against the README contract: exit code 1, one
# "error:" line on stderr, no traceback.  (name, argv, extra env)
MALFORMED = (
    ("boundary-points-4", "klee-k1 --body ball.json --flats 2 --boundary-points 4", {}),
    ("tau-nan", "klee-k1 --body ball.json --flats 2 --tau nan", {}),
    ("spec-missing-key", """klee-k1 --body-json '{"kind":"ball","center":[0,0,0]}' --flats 2""", {}),
    ("seed-env-abc", "klee-k1 --body ball.json --flats 2", {"POLYSECT_SEED": "abc"}),
    ("missing-flag", "section --body cube.off", {}),
    ("missing-file", 'section --body absent.off --flat "n=1,1,1;c=0"', {}),
    ("apex-inside", "cone --body cube.off --apex 0,0,0", {}),
    ("bad-vector", "project --body cube.off --xi 1,x,3", {}),
    ("oracle-walk", "walk --body ball.json --xi 0,0,1", {}),
)

# cases that break the contract at the commit that defined this benchmark:
# they count as failed requests but do not make the run incorrect
KNOWN_CONTRACT_BREACHES = frozenset(
    {"boundary-points-4", "tau-nan", "spec-missing-key", "seed-env-abc", "missing-flag"}
)

# squared radii of integer spheres with 96-120 (small) and 240-288 (large)
# lattice points; every lattice point on a sphere is extreme
SMALL_SPHERES = (94, 105, 113, 114, 137, 138, 141, 145)
LARGE_SPHERES = (329, 369, 426, 434, 497, 542, 546, 558)

# (label, squared radii, points, files per round).  The first file of a size
# gets section, project, cone, epsilon and walk; a second 150-point file gets
# section, cone and epsilon only, so that a pass holds 16 requests on
# 150-point files and the 11th-slowest request (latency_tail_ms) is one of them
SPHERES = (("s60", SMALL_SPHERES, 60, 1), ("s150", LARGE_SPHERES, 150, 2))

CHILD_TIMEOUT_S = 120


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def lattice_sphere(n2: int) -> list:
    r = math.isqrt(n2)
    out = set()
    for x in range(-r, r + 1):
        for y in range(-r, r + 1):
            z2 = n2 - x * x - y * y
            if z2 >= 0 and math.isqrt(z2) ** 2 == z2:
                z = math.isqrt(z2)
                out.add((x, y, z))
                out.add((x, y, -z))
    return sorted(out)


class CliResult(NamedTuple):
    code: int
    stdout: bytes
    stderr: bytes
    maxrss_kb: int


class CliFiles(_Workload):
    """Fresh `python -m polysect.cli` processes, one at a time."""

    name = "cli-files"
    in_process = False
    trace_passes = 1
    # two rounds, each on its own sphere files: one pass is longer than half
    # a run, so a run makes one pass and the tail percentile keeps its
    # meaning, and the tail averages over several bodies of each size
    ROUNDS = 2

    def __init__(self, root: str, seed: int, work: str, tracer=None):
        super().__init__(root, seed, work, tracer)
        self.child_rss_kb: list[int] = []
        self.child_import_s: list[float] = []
        self.report_bytes = 0
        src = os.path.join(root, "src")
        env = {k: v for k, v in os.environ.items() if k != "POLYSECT_SEED"}
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        self.env = env
        self._serial = 0

    def setup(self) -> None:
        os.makedirs(self.work, exist_ok=True)
        cube = [(x, y, z) for x in (-1, 1) for y in (-1, 1) for z in (-1, 1)]
        faces = ("4 0 1 3 2", "4 4 6 7 5", "4 0 4 5 1", "4 2 3 7 6", "4 0 2 6 4", "4 1 5 7 3")
        self._write("cube.off", _off_text(cube, faces))
        self._write("ball.json", json.dumps({"kind": "ball", "center": [0, 0, 0], "radius": 1}))
        rng = _rng(self.name, self.seed, "bodies")
        self.spheres = {}
        for r in range(self.ROUNDS):
            for label, radii, count, files in SPHERES:
                for k in range(files):
                    n2 = rng.choice(radii)
                    pts = rng.sample(lattice_sphere(n2), count)
                    self._write(f"{label}-{r}-{k}.off", _off_text(pts, ()))
                    self.spheres[label, r, k] = (n2, pts)

    def warmup(self) -> None:
        req = self._example(0)
        req.check(req.call())

    def _write(self, name, text):
        with open(os.path.join(self.work, name), "w", encoding="utf-8") as fh:
            fh.write(text)

    def pass_requests(self, p) -> list:
        rng = _rng(self.name, self.seed, p)
        out = []
        for r in range(self.ROUNDS):
            shared: dict = {}
            sphere = []
            for label, _, _, files in SPHERES:
                for k in range(files):
                    sphere += self._sphere_requests(rng, label, r, k, shared)
            groups = [
                [self._example(i) for i in range(len(EXAMPLES))],
                sphere,
                [self._malformed(*case) for case in MALFORMED],
            ]
            # round-robin, so every stretch mixes light and heavy commands
            for i in range(max(len(g) for g in groups)):
                out += [g[i] for g in groups if i < len(g)]
        return out

    # -- process handling --------------------------------------------------

    def _run(self, argv: list, env_extra=None) -> CliResult:
        self._serial += 1
        tag = f"c{self._serial}"
        env = dict(self.env, **(env_extra or {}))
        if self.tracer is None:
            cmd = [sys.executable, "-m", "polysect.cli"] + argv
        else:
            trace_file = os.path.join(self.work, f"{tag}.trace.json")
            boot = os.path.join(self.root, "perfbench", "cli_child.py")
            cmd = [sys.executable, boot, trace_file, "--"] + argv
        out_path = os.path.join(self.work, f"{tag}.out")
        err_path = os.path.join(self.work, f"{tag}.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=self.work)
            old = signal.signal(signal.SIGALRM, _alarm)
            signal.alarm(CHILD_TIMEOUT_S)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except _Timeout:
                proc.kill()
                os.wait4(proc.pid, 0)
                proc.returncode = -9
                raise CheckFailed(f"child ran longer than {CHILD_TIMEOUT_S} s") from None
            finally:
                signal.alarm(0)
                signal.signal(signal.SIGALRM, old)
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as fh:
            stdout = fh.read()
        with open(err_path, "rb") as fh:
            stderr = fh.read()
        os.remove(out_path)
        os.remove(err_path)
        self.child_rss_kb.append(usage.ru_maxrss)
        if self.tracer is not None:
            self.report_bytes += len(stdout)
            if os.path.exists(trace_file):
                with open(trace_file, "r", encoding="utf-8") as fh:
                    snap = json.load(fh)
                os.remove(trace_file)
                self.child_import_s.append(snap["import_s"])
                self.tracer.merge(snap, self.tracer.request)
        return CliResult(proc.returncode, stdout, stderr, usage.ru_maxrss)

    # -- request kinds -----------------------------------------------------

    def _example(self, i):
        command, code = EXAMPLES[i]
        argv = shlex.split(command)

        def check(res):
            expect(res.code == code, f"exit code {res.code}, documented {code}: {_tail(res)}")
            report = json.loads(res.stdout)
            return ("example", i, res.code) + _example_facts(argv[0], report, self.work)

        return Request(f"example-{argv[0]}", lambda: self._run(argv), check)

    def _sphere_requests(self, rng, label, r, k, shared):
        n2, pts = self.spheres[label, r, k]
        body = f"{label}-{r}-{k}.off"
        n = len(pts)
        centroid = tuple(Fraction(sum(p[i] for p in pts), n) for i in range(3))
        normal = _small_vector(rng, 3)
        flat = f"n={_pstr(normal)};c={_fstr(_dot(normal, centroid))}"
        xi = _pstr(_small_vector(rng, 3))
        u = _small_vector(rng, 3)
        scale = math.isqrt(4 * n2 // int(_dot(u, u))) + 2
        apex = _pstr(tuple(x * scale for x in u))
        i, j = rng.sample(range(n), 2)
        p, q = _pstr(pts[i]), _pstr(pts[j])
        key = (label, xi)

        def run(argv):
            return lambda: self._run(argv)

        def ok(res, command):
            expect(res.code == 0, f"{command} on {label}: exit {res.code}: {_tail(res)}")
            return json.loads(res.stdout)

        def check_section(res):
            rep = ok(res, "section")
            expect(rep["verdict"] == "polytope-consistent", "section verdict")
            expect(rep["meets_interior"] is True, "centroid flat misses the interior")
            expect(rep["vertex_count"] == len(rep["vertices"]) >= 3, "section polygon too small")
            return ("section", label, _exact_list(rep["chart_vertices"]))

        def check_shadow(command, field):
            def check(res):
                rep = ok(res, command)
                verts = _exact_list(rep[field])
                expect(len(verts) >= 3 and len(set(verts)) == len(verts), f"{command} vertices")
                if command == "walk":
                    expect(rep["steps"] <= n + 2, "walk exceeded its step bound")
                other = shared.setdefault(key, set(verts))
                expect(other == set(verts), "walk and project disagree on the shadow")
                return (command, label, verts)

            return check

        def check_cone(res):
            rep = ok(res, "cone")
            expect(rep["extreme_ray_count"] == len(rep["rays"]) >= 3, "cone rays")
            return ("cone", label, tuple(sorted(_exact_list(rep["rays"]))))

        def check_epsilon(res):
            rep = ok(res, "epsilon")
            expect(rep["verdict"] == "success" and rep["no_extreme_in_cone"] is True,
                   "certificate violated")
            return ("epsilon", label, rep["certificate"]["case"])

        reqs = [
            Request(f"section-{label}", run(["section", "--body", body, f"--flat={flat}"]),
                    check_section),
            Request(f"project-{label}", run(["project", "--body", body, f"--xi={xi}"]),
                    check_shadow("project", "chart_vertices")),
            Request(f"cone-{label}", run(["cone", "--body", body, f"--apex={apex}"]), check_cone),
            Request(f"epsilon-{label}",
                    run(["epsilon", "--body", body, f"--p={p}", f"--q={q}"]), check_epsilon),
            Request(f"walk-{label}",
                    run(["walk", "--body", body, f"--xi={xi}", "--svg", f"walk-{label}.svg"]),
                    check_shadow("walk", "vertices")),
        ]
        if k:
            reqs = [req for req in reqs if req.kind.split("-")[0] not in ("project", "walk")]
        return reqs

    def _malformed(self, name, command, env_extra):
        argv = shlex.split(command)

        def check(res):
            err = res.stderr.decode("utf-8", "replace").strip()
            lines = err.splitlines()
            expect(b"Traceback" not in res.stderr, f"{name}: traceback on stderr")
            expect(res.code == 1, f"{name}: exit {res.code}, contract says 1")
            expect(len(lines) == 1 and lines[0].startswith("error:"),
                   f"{name}: stderr is not one 'error:' line")
            return ("malformed", name, res.code)

        return Request(f"malformed-{name}", lambda: self._run(argv, env_extra), check)


def _tail(res: CliResult) -> str:
    lines = res.stderr.decode("utf-8", "replace").strip().splitlines()
    return lines[-1] if lines else ""


def _exact_list(points) -> tuple:
    return tuple(tuple(c["exact"] for c in p) for p in points)


def _example_facts(command, report, work) -> tuple:
    """Documented facts about the cube and ball examples."""
    verdict = report.get("verdict")
    if command == "section":
        expect(verdict == "polytope-consistent" and report["vertex_count"] == 6,
               "cube section is not the hexagon")
        with open(os.path.join(work, "hex.svg"), "r", encoding="utf-8") as fh:
            expect("<polygon" in fh.read(), "hexagon SVG has no polygon")
        return (verdict, report["vertex_count"])
    if command in ("project", "walk"):
        expect(report["vertex_count"] == 4, f"cube {command} is not a square")
        return (verdict, _exact_list(report["chart_vertices" if command == "project" else "vertices"]))
    if command == "cone":
        expect(report["extreme_ray_count"] == 4, "cube cone does not have 4 rays")
        return (verdict, tuple(sorted(_exact_list(report["rays"]))))
    if command == "epsilon":
        expect(verdict == "success" and report["no_extreme_in_cone"], "cube certificate")
        return (verdict, report["certificate"]["case"])
    if command in ("klee-k1", "mirkil"):
        expect(verdict in ("non-polytope", "non-polyhedral"), f"ball {command} verdict {verdict}")
        expect(report["witness"] is not None, f"ball {command} has no witness")
        return (verdict, report["budgets"]["samples_used"])
    expect(verdict == "polytope-consistent", f"cube {command} verdict {verdict}")
    return (verdict, report["budgets"]["samples_used"])


def _off_text(points, faces) -> str:
    lines = ["OFF", f"{len(points)} {len(faces)} 0"]
    lines += [" ".join(str(c) for c in p) for p in points]
    lines += list(faces)
    return "\n".join(lines) + "\n"


WORKLOADS = {
    w.name: w for w in (ExactSections, ExactQueries, OracleScan, CliFiles)
}
