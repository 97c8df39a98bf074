"""Executable polytope criteria for convex bodies.

Four one-sided testers decide "is this body a polytope?" from different
angles: planar sections through a chosen point family (K1 and its offset
variant), orthogonal shadows (K2), and visual cones from outside apexes.
Exact polytope inputs are decided exactly.  On oracle bodies one planar
probe (polygonality_detect) decides each sampled section, shadow or cone
cross-section: a witness proves more vertices than boundary_points, and a
clean run only reports "polytope-consistent".  The testers and the Mirkil
scan of `cones` return one CriterionReport with at most one KleeWitness;
one table holds each criterion's two verdict words.  On an
exact polytope K1/T1.1 decide flat coverage and K2 certifies the hull of its
shadow, both on the integer image R·V of the vertices under the drawn grid
rows R, since an invertible linear map keeps relative interiors and faces.

The module also builds exclusion certificates: given two points of a
polytope, an angle/distance radius ε such that no extreme point can sit
within distance ε of p inside the ε-cone around the ray p -> q, plus the
drift-inequality evaluator used to sanity-check the angle bookkeeping on
real configurations.
"""

from __future__ import annotations

import heapq
import math
import random
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import repeat
from operator import mul, sub, truediv

from .bodies import (
    BodyOracle,
    FlatMissesBody,
    MIN_TAU,
    _cross3f,
    _gauss_unit,
    _lincomb,
    _orthonormal_frame,
    check_sampling,
    sample_section_boundary,
)
from .geometry import (
    AffineFlat,
    DimensionMismatch,
    GeometryError,
    ONE,
    Point,
    Vector,
    as_point,
    dist2,
    is_zero_vector,
    int_scaled,
    require_same_dim,
    vadd,
    vscale,
    vsub,
)
from .hull import int_pivots
from .polytope import Polytope, _certify_hull, _hull_of_rows, _slice, convex_hull


class CriterionError(GeometryError):
    pass


# ---------------------------------------------------------------------------
# polygonality detection


@dataclass(frozen=True)
class PolygonalityVerdict:
    kind: str  # "polygon" (closed) | "curved" (refuted) | "capped" (probe cap)
    edges: int | None  # vertex count of a closed polygon
    points: tuple[tuple[float, float], ...]  # every probe, in angle order
    witness_triple: tuple[int, int, int] | None
    witness_area: float
    vertex_bound: int  # vertices the strict corners prove


def _beyond(p, a, b) -> float:
    """How far p lies beyond the chord a -> b of a counterclockwise boundary
    (to its right); the distance from a when a = b."""
    dx, dy = b[0] - a[0], b[1] - a[1]
    length = math.hypot(dx, dy)
    if length == 0.0:
        return math.hypot(p[0] - a[0], p[1] - a[1])
    return ((p[0] - a[0]) * dy - (p[1] - a[1]) * dx) / length


def _meet(p, a, b, q):
    """The point where line p a meets line b q, or None when parallel."""
    ux, uy, vx, vy = a[0] - p[0], a[1] - p[1], q[0] - b[0], q[1] - b[1]
    den = ux * vy - uy * vx
    if den == 0.0:
        return None
    t = ((b[0] - a[0]) * vy - (b[1] - a[1]) * vx) / den
    return (a[0] + t * ux, a[1] + t * uy)


def polygonality_detect(
    point_at, bound: int, tau: float = 1e-9, *, support: bool = False
) -> PolygonalityVerdict:
    """Probe a convex planar body until it closes as a polygon or has more
    than `bound` vertices.

    point_at(θ) is the boundary point on the ray at angle θ from an interior
    origin (an exit), or with `support` the support point in direction θ.
    Four probes at θ = kπ/2 start; D, the diagonal of their bounding box,
    sets the tolerance tau·D.  Then the unproven arc with the longest chord
    is probed: along the chord's outward normal (support), or toward the
    vertex the lines of its proven neighbour edges predict, else at the
    mid-angle (exit).  A probe at most tau·D beyond the chord of its two
    neighbours proves both of its arcs edges, as the convex boundary between
    the neighbours runs through it; an exit on its predicted vertex proves
    both new arcs.  Any other probe is a strict corner, with a vertex in the
    open arc between its neighbours; a vertex lies in at most two such
    arcs, so C corners prove ceil(C/2) vertices.  The verdict is "curved"
    once that exceeds `bound` (so never for a polygon of at most `bound`
    vertices, and after 2·bound + 1 probes for a smooth body), "polygon"
    (with C vertices) when every arc is proven, and "capped" at
    8·bound + 16 probes.  tau must be at least MIN_TAU, above float rounding.
    """
    if bound < 8:
        raise CriterionError("polygonality detection needs a vertex bound of at least 8")
    if not (math.isfinite(tau) and tau >= MIN_TAU):
        raise CriterionError(f"tau must be finite and positive, at least {MIN_TAU:g}")

    def probe(th):
        p = point_at(th)
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            raise CriterionError("boundary points must be finite")
        return p

    # node i holds the probe pts[i]; nxt and prv link the nodes in angle
    # order, and edge[i] marks the arc i -> nxt[i] proven (two of the four
    # first probes coincide only as repeated support points)
    pts = []
    for k in range(4):
        p = probe(0.5 * math.pi * k)
        if p not in pts:
            pts.append(p)
    xs, ys = [p[0] for p in pts], [p[1] for p in pts]
    tol = tau * math.hypot(max(xs) - min(xs), max(ys) - min(ys))
    n = len(pts)
    nxt, prv = [(i + 1) % n for i in range(n)], [(i - 1) % n for i in range(n)]
    edge, corner, count = [False] * n, [False] * n, 0
    heap = sorted((-math.dist(pts[i], pts[nxt[i]]), i) for i in range(n))  # a sorted list is a heap

    def recheck(i):
        nonlocal count
        now = _beyond(pts[i], pts[prv[i]], pts[nxt[i]]) > tol
        count += now - corner[i]
        corner[i] = now
        if not now:
            edge[prv[i]] = edge[i] = True

    for i in range(n):
        recheck(i)
    probes = 4
    while heap and (count + 1) // 2 <= bound and probes < 8 * bound + 16:
        i = heapq.heappop(heap)[1]
        if edge[i]:  # proven since it was queued
            continue
        j = nxt[i]
        a, b = pts[i], pts[j]
        vertex = None
        if support:
            th = math.atan2(a[0] - b[0], b[1] - a[1])
        else:
            lo = math.atan2(a[1], a[0])
            hi = lo + (math.atan2(b[1], b[0]) - lo) % (2.0 * math.pi)
            th = 0.5 * (lo + hi)
            if edge[prv[i]] and edge[j]:
                vertex = _meet(pts[prv[i]], a, b, pts[nxt[j]])
                if vertex is not None:
                    phi = lo + (math.atan2(vertex[1], vertex[0]) - lo) % (2.0 * math.pi)
                    if lo < phi < hi:
                        th = phi
                    else:
                        vertex = None
        q = probe(th)
        probes += 1
        if q == a or q == b:  # a support point repeated: the chord is an edge
            edge[i] = True
            continue
        k = len(pts)
        pts.append(q)
        nxt[i], prv[j] = k, k
        nxt.append(j)
        prv.append(i)
        edge[i] = vertex is not None and math.dist(q, vertex) <= tol
        edge.append(edge[i])
        corner.append(False)
        for x in (i, k, j):
            recheck(x)
        for x in (i, k):
            if not edge[x]:
                heapq.heappush(heap, (-math.dist(pts[x], pts[nxt[x]]), x))

    order = [0]
    while nxt[order[-1]]:
        order.append(nxt[order[-1]])
    points, proven = tuple(pts[i] for i in order), (count + 1) // 2
    if proven > bound:
        # the corner farthest beyond its chord, and its triangle's area
        far = max(order, key=lambda i: _beyond(pts[i], pts[prv[i]], pts[nxt[i]]))
        a, b = pts[prv[far]], pts[nxt[far]]
        area = 0.5 * _beyond(pts[far], a, b) * math.dist(a, b)
        idx, m = order.index(far), len(order)
        triple = ((idx - 1) % m, idx, (idx + 1) % m)
        return PolygonalityVerdict("curved", None, points, triple, area, proven)
    if not all(edge):
        return PolygonalityVerdict("capped", None, points, None, 0.0, proven)
    return PolygonalityVerdict("polygon", count, points, None, 0.0, proven)


# ---------------------------------------------------------------------------
# shared report plumbing


@dataclass(frozen=True)
class KleeWitness:
    sample_index: int
    kind: str  # "section" | "projection" | "visual-cone" | "cone-section"
    normals: tuple[tuple[float, ...], ...]
    offsets: tuple[float, ...]
    points: tuple[tuple[float, float], ...]
    triple: tuple[int, int, int] | None
    triple_area: float
    reverified: bool  # always True: a refutation is a proven vertex bound
    vertex_bound: int  # vertices the probe proved, more than boundary_points
    apex: tuple[float, ...] | None = None


@dataclass(frozen=True)
class CriterionReport:
    criterion: str  # "K1" | "K2" | "T1.1" | "T1.2" | "Mirkil"
    verdict: str  # one of the criterion's pair in _VERDICTS
    body_name: str
    exact: bool
    budget: int
    samples_used: int
    boundary_points: int
    tau: float
    seed: int
    witness: KleeWitness | None
    notes: tuple[str, ...] = ()


# criterion -> (verdict of a clean run, verdict of a refutation)
_VERDICTS = {
    **dict.fromkeys(("K1", "T1.1", "K2", "T1.2"), ("polytope-consistent", "non-polytope")),
    "Mirkil": ("polyhedral-consistent", "non-polyhedral"),
}


def _report(criterion, name, exact, budget, outcome, boundary_points, tau, seed):
    witness, used, notes = outcome
    verdict = _VERDICTS[criterion][witness is not None]
    return CriterionReport(
        criterion, verdict, name, exact, budget, used,
        boundary_points, tau, seed, witness, tuple(notes),
    )


def _sample_loop(budget: int, trial):
    """Run trial(i, notes) for i < budget until one returns a witness.

    Returns (witness or None, samples used, notes).  A witness at sample i
    used i + 1 samples and ends the run; a clean run used the whole budget.
    A zero budget is noted, so a run that sampled nothing says so.
    """
    notes: list[str] = [] if budget else ["zero-budget"]
    for i in range(budget):
        witness = trial(i, notes)
        if witness is not None:
            return witness, i + 1, notes
    return None, budget, notes


def _klee_witness(verdict, i, notes, kind, normals, offsets):
    """Sample i's witness from its probe verdict, or None; a capped probe is noted."""
    if verdict.kind == "capped":
        notes.append(f"sample {i}: probe cap reached")
    if verdict.kind != "curved":
        return None
    return KleeWitness(
        i, kind, normals, offsets, verdict.points,
        verdict.witness_triple, verdict.witness_area, True, verdict.vertex_bound,
    )


RATIONALIZE_DENOMINATOR = 2**20
# Beyond this a section flat's points (up to |delta| * RATIONALIZE_DENOMINATOR
# from the origin) have squared norms that overflow the float oracles.
MAX_DELTA = 1e100


def _grid_row(v) -> tuple[int, ...]:
    """The floats of v rounded onto the 1/RATIONALIZE_DENOMINATOR grid, as
    numerators over that denominator."""
    den = RATIONALIZE_DENOMINATOR
    return tuple(round(float(x) * den) for x in v)


def _grid_vector(row) -> Vector:
    """The point of the 1/RATIONALIZE_DENOMINATOR grid with these numerators."""
    return tuple(Fraction(n, RATIONALIZE_DENOMINATOR) for n in row)


def _resolve_body(body) -> tuple[Polytope | None, BodyOracle | None, str, bool]:
    """Split the input into (exact polytope, oracle, name, exactness)."""
    if isinstance(body, Polytope):
        return body, None, "polytope", True
    if isinstance(body, BodyOracle):
        if body.polytope is not None:
            return body.polytope, body, body.name, True
        return None, body, body.name, False
    raise CriterionError("body must be a Polytope or a BodyOracle")


def _delta_value(delta, direction) -> float:
    if delta is None:
        return 0.0
    value = float(delta(direction)) if callable(delta) else float(delta)
    if not math.isfinite(value):
        raise CriterionError("delta must be finite")
    if abs(value) > MAX_DELTA:
        raise CriterionError("delta must be at most 1e100 in absolute value")
    return value


# ---------------------------------------------------------------------------
# K1 / T1.1: sections


def klee_section_test(
    body,
    flats: int,
    seed: int = 0,
    *,
    k: int = 2,
    delta=None,
    boundary_points: int = 48,
    tau: float = 1e-9,
) -> CriterionReport:
    """Sample k-dimensional sections and test each for polygonality.

    Flats are intersections of hyperplanes {x . xi = delta(xi)} over seeded
    random directions xi; delta=None means central sections (criterion
    "K1"), any other delta non-central ones ("T1.1").  An exact
    section is always a polygon, so for exact polytopes the run only checks
    the flat family's interior coverage: `_coverage_note` decides it from the
    body's image under the normals' grid rows and the offsets' numerators
    (the flat scaled by RATIONALIZE_DENOMINATOR) and builds no flat.  On an
    oracle body `polygonality_detect` probes each section, and one with
    more than boundary_points vertices refutes.  Flats that miss the
    interior are reported as coverage violations, never silently skipped.
    """
    poly, oracle, name, exact = _resolve_body(body)
    if flats < 0:
        raise CriterionError("flat budget must be nonnegative")
    if delta is not None and not callable(delta):
        _delta_value(delta, None)
    check_sampling(boundary_points, tau)
    d = poly.ambient_dim if poly is not None else oracle.dim
    if not 2 <= k <= d - 1:
        raise CriterionError("section dimension k must satisfy 2 <= k <= d-1")
    if poly is None and k != 2:
        raise CriterionError("oracle bodies support k = 2 only")
    if poly is None and d != 3:
        raise CriterionError("oracle section sampling supports dimension 3 only")
    rng = random.Random(seed)
    scaled = poly._scaled_with(()) if poly is not None else None

    def trial(i, notes):
        if poly is not None:
            # exact sections are polytopes by construction; only coverage is
            # checked, and it needs the flat's grid rows and offsets alone
            note = _coverage_note(scaled, *_draw_rows(rng, d, k, delta)[:2])
            if note is not None:
                notes.append(f"sample {i}: {note}")
            return None
        flat, normals_f, offsets_f = _draw_flat(rng, d, k, delta)
        try:
            point_at = sample_section_boundary(oracle, flat)
        except FlatMissesBody:
            notes.append(f"sample {i}: coverage violation (flat misses interior)")
            return None
        verdict = polygonality_detect(point_at, boundary_points, tau)
        return _klee_witness(
            verdict, i, notes, "section", tuple(normals_f), tuple(offsets_f)
        )

    criterion = "K1" if delta is None else "T1.1"
    outcome = _sample_loop(flats, trial)
    return _report(criterion, name, exact, flats, outcome, boundary_points, tau, seed)


def _independent_rows(rng, d, count):
    """`count` seeded gaussian unit vectors in R^d and their `_grid_row`s,
    redrawn together until the rows are independent (integer rank `count`):
    the rounded vectors then span a `count`-dimensional space."""
    while True:
        floats = [_gauss_unit(rng, d) for _ in range(count)]
        rows = [_grid_row(f) for f in floats]
        if len(int_pivots(rows, count)) == count:
            return floats, rows


def _draw_rows(rng, d, k, delta):
    """The d - k seeded gaussian unit normals and offsets of a k-flat {x : N x = o}.

    Returns (N, o, float N, float o): the floats are the drawn normals and
    their offsets delta(normal), N and o their `_grid_row` numerators over
    RATIONALIZE_DENOMINATOR.  The normals come from `_independent_rows`, and
    independent normals always define a k-flat.
    """
    normals_f, rows = _independent_rows(rng, d, d - k)
    offsets_f = [_delta_value(delta, f) for f in normals_f]
    return rows, _grid_row(offsets_f), normals_f, offsets_f


def _draw_flat(rng, d, k, delta):
    """The flat `_draw_rows` draws, built on the grid: (flat, float N, float o)."""
    rows, offsets, normals_f, offsets_f = _draw_rows(rng, d, k, delta)
    flat = AffineFlat.from_equations(list(map(_grid_vector, rows)), _grid_vector(offsets))
    return flat, normals_f, offsets_f


def _image_hull(scaled, rows):
    """The hull of the image of a polytope's vertices under the integer rows R.

    `scaled` is (V, D): the vertices scaled to ints by their common
    denominator D > 0, the polytope's own int form (`Polytope._scaled_with`,
    made once per polytope).  The image rows R (D v) are hulled as chart
    rows with unit factors.  Returns (hull, image rows, D).
    """
    verts, den = scaled
    image = [tuple(sum(map(mul, r, v)) for r in rows) for v in verts]
    return _hull_of_rows(image, (ONE,) * len(rows)), image, den


def _coverage_note(scaled, normals, offsets) -> str | None:
    """Coverage of the flat {x : N x = o} (rows of N independent), unbuilt,
    for the polytope P whose vertices `scaled` holds as `_image_hull` takes them.

    The flat meets P iff o lies in the image N(P) = conv{N v}, and it meets
    relint P iff o lies in relint N(P), since a linear map sends relint P
    onto relint N(P) (Rockafellar, Convex Analysis, Thm 6.6).  One hull of
    the d-k dimensional image decides both, for bodies of any dimension;
    `contains` classifies relative to the image's own span.  N (rational or
    int) is scaled to int rows by a positive lcm a, `_image_hull` hulls
    their image of the vertices scaled by D, and o is scaled by a D to match.
    """
    rows, a = int_scaled(normals)
    hull, _, den = _image_hull(scaled, rows)
    where = hull.contains(tuple(o * a * den for o in offsets))
    if where == "outside":
        return "coverage violation (flat misses the body)"
    if where != "interior":
        return "coverage violation (flat misses the interior)"
    return None


# ---------------------------------------------------------------------------
# K2: projections


def klee_projection_test(
    body,
    subspaces: int,
    seed: int = 0,
    *,
    k: int = 2,
    boundary_points: int = 64,
    tau: float = 1e-9,
) -> CriterionReport:
    """Sample k-dimensional orthogonal shadows and test each for polygonality.

    Exact polytopes: the shadow on the span of k independent grid rows R
    is, in any chart of that span, M (R v) for an invertible k x k matrix
    M, so the integer image R·V has the shadow's dimension, facets and
    vertex preimages.  `_image_hull` hulls that image, and
    `polytope._certify_hull` proves in integers that its vertices, facets
    and span are those of the hull of the image rows (else `PolytopeError`).
    Oracle bodies: the shadow's support function is the restriction of the
    body's (h_{K|E}(u) = h_K(u) for u in E), so `polygonality_detect`
    probes the shadow through the body's support points, and a shadow with
    more than boundary_points vertices refutes.
    """
    poly, oracle, name, exact = _resolve_body(body)
    if subspaces < 0:
        raise CriterionError("subspace budget must be nonnegative")
    check_sampling(boundary_points, tau)
    d = poly.ambient_dim if poly is not None else oracle.dim
    if not 2 <= k <= d - 1:
        raise CriterionError("projection dimension k must satisfy 2 <= k <= d-1")
    if poly is None and k != 2:
        raise CriterionError("oracle bodies support k = 2 only")
    rng = random.Random(seed)
    scaled = poly._scaled_with(()) if poly is not None else None

    def trial(i, notes):
        if poly is not None:
            hull, image, _ = _image_hull(scaled, _independent_rows(rng, d, k)[1])
            _certify_hull(hull, image, (ONE,) * k)
            return None
        e1, e2 = frame = _orthonormal_frame(rng, d, 2)

        def point_at(th):
            _, s = oracle.support(tuple(_lincomb(math.cos(th), e1, math.sin(th), e2)))
            return (sum(map(mul, s, e1)), sum(map(mul, s, e2)))

        verdict = polygonality_detect(point_at, boundary_points, tau, support=True)
        return _klee_witness(verdict, i, notes, "projection", frame, ())

    outcome = _sample_loop(subspaces, trial)
    return _report("K2", name, exact, subspaces, outcome, boundary_points, tau, seed)


# ---------------------------------------------------------------------------
# T1.2: visual cones


NO_RAY_INTERVAL = "the visual cone of an oracle body needs its closed-form ray_interval"


def sphere_apexes(center, radius: float, count: int, rng: random.Random):
    c = tuple(float(x) for x in center)
    out = []
    for _ in range(count):
        u = _gauss_unit(rng, len(c))
        out.append(tuple(ci + radius * ui for ci, ui in zip(c, u)))
    return out


def visual_cone_test(
    body,
    apex_source,
    seed: int = 0,
    *,
    budget: int = 8,
    sections_per_apex: int = 2,
    boundary_points: int = 32,
    tau: float = 1e-9,
) -> CriterionReport:
    """Build visual cones from outside apexes and test them for polyhedrality.

    apex_source is either an iterable of apex points or a tuple
    ("sphere", center, radius) sampled `budget` times.  Exact bodies give
    exact cones (polyhedral by construction, so the run validates apex
    placement); oracle bodies get a ray-hit membership cone scanned by
    mirkil_scan's cross-section sampler, and one without a ray_interval is
    an error before any apex is drawn.  An apex inside or on the body is
    an error, per the outside-apex precondition.  A negative budget or
    section count and a sphere radius that is not finite are errors before
    any cone is built.  An oracle run with no sections per apex sampled
    nothing, so it notes "zero-budget" as an empty run does.
    """
    from .cones import mirkil_scan, visual_cone

    check_sampling(boundary_points, tau)
    if budget < 0:
        raise CriterionError("apex budget must be nonnegative")
    if sections_per_apex < 0:
        raise CriterionError("sections per apex must be nonnegative")
    poly, oracle, name, exact = _resolve_body(body)
    if poly is None and oracle.ray_interval is None:
        raise CriterionError(NO_RAY_INTERVAL)
    rng = random.Random(seed)
    if isinstance(apex_source, tuple) and apex_source and apex_source[0] == "sphere":
        _, center, radius = apex_source
        if not math.isfinite(float(radius)):
            raise CriterionError("sphere radius must be finite")
        apexes = sphere_apexes(center, float(radius), budget, rng)
    else:
        apexes = [tuple(float(x) for x in a) for a in apex_source]

    def trial(i, notes):
        apex = apexes[i]
        if poly is not None:
            cone = visual_cone(_grid_vector(_grid_row(apex)), poly)
            notes.append(f"apex {i}: exact cone, {cone.extreme_ray_count} extreme rays")
            return None
        # a scan seeded like the apex draw would reuse apex 0's direction in its 4-D frame
        rep = mirkil_scan(
            _ray_hit_cone_oracle(oracle, apex), sections_per_apex,
            seed=rng.randrange(1 << 30), boundary_points=boundary_points, tau=tau,
        )
        notes.extend(f"apex {i}: {note}" for note in rep.notes if note != "zero-budget")
        if rep.witness is None:
            return None
        return replace(rep.witness, sample_index=i, kind="visual-cone", normals=(), apex=apex)

    outcome = _sample_loop(len(apexes), trial)
    if poly is None and apexes and not sections_per_apex:
        outcome[2].append("zero-budget")  # no cone scan sampled a section
    return _report("T1.2", name, exact, len(apexes), outcome, boundary_points, tau, seed)


def _ray_hit_cone_oracle(body: BodyOracle, apex):
    """Directional membership for the visual cone of an oracle body.

    A direction u is in the cone iff the ray from the apex along u meets
    the body: iff the body's ray_interval along u/|u| exists and ends at
    t1 >= 0.  A body without a ray_interval raises CriterionError.
    """
    from .cones import ConeError, ConeOracle

    if body.ray_interval is None:
        raise CriterionError(NO_RAY_INTERVAL)
    z = tuple(map(float, apex))
    if len(z) != body.dim:
        raise DimensionMismatch("apex dimension differs from the body")
    if body.member(z):
        raise ConeError("apex must lie strictly outside the body")

    def member(u):
        nu = math.sqrt(sum(map(mul, u, u)))
        if nu == 0:
            return True
        span = body.ray_interval(z, tuple(map(truediv, u, repeat(nu))))
        return span is not None and span[1] >= 0.0

    return ConeOracle(body.dim, member, tuple(map(sub, body.interior_hint, z)))


# ---------------------------------------------------------------------------
# exclusion certificates


@dataclass(frozen=True)
class EpsilonCert:
    p: Point
    q: Point
    case: str  # "interior-crossing" | "boundary-segment"
    epsilon: float
    midpoint: Point
    bound_branches: tuple[float, ...]
    radius: float | None = None
    flat_normal: Vector | None = None
    flat_offset: Fraction | None = None
    vertex_set: tuple[Point, ...] = ()
    distance: float | None = None
    interior_point: Point | None = None


def _normal_family_rows(dim: int, seed: int) -> list[tuple[int, ...]]:
    """`default_normal_family` as int rows over RATIONALIZE_DENOMINATOR."""
    rng = random.Random(seed)
    den = RATIONALIZE_DENOMINATOR
    rows = [tuple(den if i == a else 0 for i in range(dim)) for a in range(dim)]
    while len(rows) < 24:
        row = _grid_row(_gauss_unit(rng, dim))
        if any(row):
            rows.append(row)
    return rows


def default_normal_family(dim: int, seed: int = 0):
    """Axis directions plus seeded rationalized random normals, 24 in all."""
    return tuple(map(_grid_vector, _normal_family_rows(dim, seed)))


def epsilon_certificate(body: Polytope, p, q, seed: int = 0) -> EpsilonCert:
    """Exclusion radius around p for the segment [p q] inside a polytope.

    Case "interior-crossing" (the open segment meets the interior): around
    the midpoint x an inscribed ball of radius R gives
    ε = ½·min{sqrt(|p-x|² − R²), arcsin(R/|p-x|)}.  Case
    "boundary-segment" ([p q] lies in the boundary): the flat through x
    normal to the member of `default_normal_family(d, seed)` most
    transverse to q - p is chosen (the family holds every axis, so some
    member is transverse), the facets of the section at x supply vertices
    x_j, and ε = ½·min{dist(p, flat), min_j angle(x_j, p, q)}, or
    CriterionError with no x_j but the midpoint.  The midpoint decides the
    case exactly: for a convex body, the open segment meets the interior iff
    its midpoint does.
    """
    p = as_point(p)
    q = as_point(q)
    if p == q:
        raise CriterionError("certificate needs two distinct points")
    if body.contains(p) == "outside" or body.contains(q) == "outside":
        raise CriterionError("both points must lie in the body")
    mid = vscale(vadd(p, q), Fraction(1, 2))
    d = body.ambient_dim
    # the body is convex and holds p and q, so it holds mid, and mid is
    # interior exactly when no facet is tight there
    tight = body.active_facets(body.to_chart(mid))

    if body.dim == d and not tight:
        # inscribed ball at the midpoint: facet distances -slack / den / |n| in
        # ints (int / int rounds as a Fraction's float does), float trig
        den = math.lcm(*[x.denominator for x in mid])
        r2_min = min(
            -slack / den / math.sqrt(sum(map(mul, n, n)))
            for slack, (n, _) in zip(body._int_slacks(mid), body._int_facets)
        )
        dist_px = math.sqrt(float(dist2(p, mid)))
        radius = min(r2_min, 0.99 * dist_px)
        branch1 = math.sqrt(max(dist_px * dist_px - radius * radius, 0.0))
        branch2 = math.asin(min(radius / dist_px, 1.0))
        eps = 0.5 * min(branch1, branch2)
        return EpsilonCert(
            p, q, "interior-crossing", eps, mid,
            (branch1, branch2), radius=radius,
        )

    # boundary segment: most transverse family flat through the midpoint (the
    # first on ties).  For a member nu with int row N and an integer multiple
    # U of u, the score (N·U)² / (N·N · U·U) is (nu·u)² / (|nu|² |u|²); U·U is
    # common to all, so two scores compare by cross-multiplying (N·U)² and
    # N·N.
    (P, Q, M), d0 = int_scaled((p, q, mid))
    U = list(map(sub, Q, P))
    best, best_num, best_n2 = None, 0, 1
    for N in _normal_family_rows(d, seed):
        dot = sum(map(mul, N, U))
        num, n2 = dot * dot, sum(map(mul, N, N))
        if num * best_n2 > best_num * n2:
            best, best_num, best_n2 = N, num, n2

    # The section S of the body by the flat H meets relint P (H separates p
    # from q), so S's facets through mid are the S ∩ F for the facets F of
    # P tight at mid.  Their vertices are the points of the cut of P by H
    # whose vertex indices (a vertex on H, or an edge crossing H) all lie
    # in one tight F.  The flat's normal is the grid vector best / den.
    den = RATIONALIZE_DENOMINATOR
    tight_sets = [body.facet_vertices[f] for f in tight]
    # p, q, mid and the cut points as ints over one common denominator D: a
    # cut point X / e with the gcd of X and e divided out needs e, so D is
    # the lcm of every coordinate's denominator.  An int over an int rounds
    # to float as the Fraction of the two does.
    cut = []
    for x, e, ids in _slice(body, best, mid):
        g = math.gcd(e, *x)
        cut.append(([c // g for c in x], e // g, ids))
    D = math.lcm(d0, *[e for _, e, _ in cut])
    P, Q, M = ([c * (D // d0) for c in v] for v in (P, Q, M))
    X = [[c * (D // e) for c in x] for x, e, _ in cut]
    kept = [
        i for i, (_, _, ids) in enumerate(cut)
        if X[i] != M and any(fv.issuperset(ids) for fv in tight_sets)
    ]
    if not kept:
        raise CriterionError("boundary case: no section vertex besides the midpoint")
    # listed in the flat's chart order, as the section's vertices are
    basis = _int_chart_basis(best)
    kept.sort(key=lambda i: tuple(sum(map(mul, map(sub, X[i], M), b)) for b in basis))
    delta = abs(sum(map(mul, best, map(sub, P, M)))) / (den * D)
    delta /= math.sqrt(sum(map(mul, best, best)) / (den * den))
    branches = [delta]
    U, dd = tuple(map(sub, Q, P)), D * D
    for i in kept:
        branches.append(_angle(tuple(map(sub, X[i], P)), U, dd))
    eps = 0.5 * min(branches)
    # the cut points are S's vertices, so this is S's vertex centroid
    n = len(cut) * D
    interior_pt = tuple(Fraction(sum(c), n) for c in zip(*X))
    return EpsilonCert(
        p, q, "boundary-segment", eps, mid, tuple(branches),
        flat_normal=_grid_vector(best),
        flat_offset=Fraction(sum(map(mul, best, M)), den * D),
        vertex_set=tuple(tuple(Fraction(c, cut[i][1]) for c in cut[i][0]) for i in kept),
        distance=delta, interior_point=interior_pt,
    )


def _int_chart_basis(row) -> list[tuple[int, ...]]:
    """Int vectors B_j, each a positive multiple of basis vector j of
    `AffineFlat.spanning(x, nullspace([row]))`, so that they order points
    as that flat's `projected_coordinates` do.

    The nullspace vector of free column f is e_f - (row_f / row_c) e_c for
    the first nonzero column c; times |row_c| it is an int vector.
    Gram-Schmidt steps W <- (B·B) W - (W·B) B scale each Fraction step by
    B·B > 0, and dividing by the gcd keeps the ints small.
    """
    c = next(i for i, x in enumerate(row) if x)
    a, sign = abs(row[c]), (1 if row[c] > 0 else -1)
    basis = []
    for f in range(len(row)):
        if f == c:
            continue
        w = [0] * len(row)
        w[f], w[c] = a, -sign * row[f]
        for b in basis:
            bb, wb = sum(map(mul, b, b)), sum(map(mul, w, b))
            w = [bb * x - wb * y for x, y in zip(w, b)]
        g = math.gcd(*w)
        basis.append(tuple(x // g for x in w))
    return basis


def _angle(a, b, dd: int) -> float:
    """The angle between the vectors a / D and b / D, for int vectors a and
    b and dd = D²: each dot product over dd rounds as its Fraction does."""
    num = sum(map(mul, a, b)) / dd
    den = math.sqrt(sum(map(mul, a, a)) / dd * (sum(map(mul, b, b)) / dd))
    if den == 0:
        raise CriterionError("angle of a zero vector is undefined")
    return math.acos(max(-1.0, min(1.0, num / den)))


def _angle_below(dot_: int, a2: int, b2: int, cos_bound: Fraction) -> bool:
    """Exact test: is the angle between vectors (dot, |a|², |b|²) < bound?

    Compares cos(angle) > cos_bound via squared quantities only, in ints:
    cos_bound = c/e with e > 0.
    """
    c, e = cos_bound.numerator, cos_bound.denominator
    if c <= 0:
        if dot_ >= 0:
            return dot_ > 0 or c < 0
        return dot_ * dot_ * e * e < c * c * a2 * b2
    if dot_ <= 0:
        return False
    return dot_ * dot_ * e * e > c * c * a2 * b2


def no_extreme_in_cone(body, p, q, epsilon: float) -> bool:
    """No vertex y ≠ p with |p-y| < ε and angle(y, p, q) < ε (exact).

    The angle comparison uses the exactly-representable rationalization of
    cos(ε); since certificates halve a strict bound, the sub-ulp slack
    cannot flip a certified verdict.  The points are scaled to integers by
    one common denominator s: lengths² and dot products scale by s², and
    each comparison has the same power of s on both sides.  The vertices'
    ints are the polytope's own (`Polytope._scaled_with`).
    """
    if not 0 < epsilon < math.inf:
        raise CriterionError("epsilon must be positive and finite")
    poly = body if isinstance(body, Polytope) else convex_hull(body)
    p = as_point(p)
    q = as_point(q)
    u = vsub(q, p)
    if is_zero_vector(u):
        raise CriterionError("p and q must differ")
    require_same_dim(p, poly.vertices[0])
    eps2 = Fraction(epsilon) ** 2
    cos_bound = Fraction(math.cos(min(epsilon, math.pi)))
    (P, Q, *Y), s = poly._scaled_with((p, q))
    U = [b - a for a, b in zip(P, Q)]
    u2 = sum(map(mul, U, U))
    # |w|² >= eps2 becomes |W|² · eps2.denominator >= eps2.numerator · s²
    far = eps2.numerator * s * s
    for y in Y:
        if y == P:
            continue
        W = [b - a for a, b in zip(P, y)]
        w2 = sum(map(mul, W, W))
        if w2 * eps2.denominator >= far:
            continue
        if _angle_below(sum(map(mul, W, U)), w2, u2, cos_bound):
            return False
    return True


# ---------------------------------------------------------------------------
# drift inequality


@dataclass(frozen=True)
class DriftConfig:
    """Angle bookkeeping for a segment drifting toward a limit ray.

    gamma: angle between the boundary segment and the limit ray;
    xi, phi: angles splitting the drifting point's offset between the
    section plane and its normal; eps1: distance from p to the drifting
    point; eps2: its angle from the limit ray.
    """

    gamma: float
    xi: float
    phi: float
    eps1: float
    eps2: float
    realized: bool = False


@dataclass(frozen=True)
class DriftResult:
    lhs: float
    rhs: float
    holds: bool
    lengths: dict
    chain_lhs: float
    chain_rhs: float
    chain_holds: bool


def drift_inequality_eval(cfg: DriftConfig) -> DriftResult:
    """Evaluate tan γ ≤ tan ε₂ (cos ξ cot φ + sin ξ) plus its length chain.

    The five derived lengths come from right-triangle identities of the
    configuration; the inequality is the triangle inequality
    |a-b| ≤ |a-t| + |t-b| divided by |b-p|.  Realized configurations
    (built from actual points) always satisfy it; synthetic angle tuples
    may not, and the report says which side failed.
    """
    if not 0 <= cfg.gamma < math.pi / 2:
        raise CriterionError("gamma must lie in [0, pi/2)")
    if not 0 < cfg.phi <= math.pi / 2:
        raise CriterionError("phi must lie in (0, pi/2] (phi = 0 degenerate)")
    if not 0 <= cfg.xi <= math.pi / 2:
        raise CriterionError("xi must lie in [0, pi/2]")
    if not 0 <= cfg.eps2 < math.pi / 2:
        raise CriterionError("eps2 must lie in [0, pi/2)")
    if cfg.eps1 <= 0:
        raise CriterionError("eps1 must be positive")
    l_bq = cfg.eps1 * math.sin(cfg.eps2)
    l_bp = cfg.eps1 * math.cos(cfg.eps2)
    l_ab = l_bp * math.tan(cfg.gamma)
    l_at = l_bq * math.cos(cfg.xi) * (math.cos(cfg.phi) / math.sin(cfg.phi))
    l_bt = l_bq * math.sin(cfg.xi)
    lengths = {
        "b-q": l_bq,
        "b-p": l_bp,
        "a-b": l_ab,
        "a-t": l_at,
        "b-t": l_bt,
    }
    lhs = math.tan(cfg.gamma)
    rhs = math.tan(cfg.eps2) * (
        math.cos(cfg.xi) * (math.cos(cfg.phi) / math.sin(cfg.phi))
        + math.sin(cfg.xi)
    )
    guard = 1e-12 * (1.0 + abs(rhs))
    holds = lhs <= rhs + guard
    chain_holds = l_ab <= l_at + l_bt + 1e-12 * (1.0 + l_at + l_bt)
    return DriftResult(lhs, rhs, holds, lengths, l_ab, l_at + l_bt, chain_holds)


def drift_config_from_geometry(
    p, q, q_n, gamma: float = 0.15
) -> tuple[DriftConfig, dict]:
    """Measure a DriftConfig from actual 3-dimensional points.

    p, q span the boundary segment; q_n is the drifting point (off the
    line through p and q).  The section plane holds the segment and a
    direction tilted between q_n's offset and its normal; the limit ray is
    the segment direction rotated by gamma inside that plane.  All aux
    points (feet of perpendiculars a, b, t) are real, so the measured
    lengths obey the inequality by the plain triangle inequality.
    """
    p = tuple(float(x) for x in p)
    q = tuple(float(x) for x in q)
    qn = tuple(float(x) for x in q_n)
    if len(p) != 3 or len(q) != 3 or len(qn) != 3:
        raise CriterionError("geometric drift configurations live in dimension 3")
    if not 0 <= gamma < math.pi / 2:
        raise CriterionError("gamma must lie in [0, pi/2)")
    u = tuple(b - a for a, b in zip(p, q))
    w = tuple(b - a for a, b in zip(p, qn))
    un = math.sqrt(sum(x * x for x in u))
    if un == 0:
        raise CriterionError("p and q must differ")
    uh = tuple(x / un for x in u)
    w_par = sum(a * b for a, b in zip(w, uh))
    w_perp = tuple(a - w_par * b for a, b in zip(w, uh))
    wn = math.sqrt(sum(x * x for x in w_perp))
    if wn < 1e-12:
        raise CriterionError("q_n must lie off the segment's line")
    wp = tuple(x / wn for x in w_perp)
    nrm = _cross3f(uh, wp)
    # section-plane direction: halfway (pi/4) between the offset and its normal
    tilt = math.pi / 4
    h2 = tuple(
        math.cos(tilt) * a + math.sin(tilt) * b for a, b in zip(wp, nrm)
    )
    l_hat = tuple(
        math.cos(gamma) * a + math.sin(gamma) * b for a, b in zip(uh, h2)
    )
    w_l = sum(a * b for a, b in zip(w, l_hat))
    if w_l <= 0:
        raise CriterionError("drifting point must lie forward of the limit ray")
    b_pt = tuple(a + w_l * lh for a, lh in zip(p, l_hat))
    w_u = sum(a * b for a, b in zip(w, uh))
    w_h2 = sum(a * b for a, b in zip(w, h2))
    t_pt = tuple(a + w_u * x + w_h2 * y for a, x, y in zip(p, uh, h2))
    tau_a = w_u + math.tan(gamma) * w_h2
    if not 0 <= tau_a <= un:
        raise CriterionError("perpendicular foot falls outside the segment")
    a_pt = tuple(a + tau_a * x for a, x in zip(p, uh))
    eps1 = math.sqrt(sum(x * x for x in w))
    eps2 = _fangle(w, l_hat)
    l_bt = math.dist(b_pt, t_pt)
    l_tq = math.dist(t_pt, qn)
    l_at = math.dist(a_pt, t_pt)
    if l_tq < 1e-12 or l_at < 1e-12:
        raise CriterionError("degenerate configuration: coincident aux points")
    xi = math.atan2(l_bt, l_tq)
    phi = math.atan2(l_tq, l_at)
    points = {"p": p, "q": q, "q_n": qn, "a": a_pt, "b": b_pt, "t": t_pt}
    return DriftConfig(gamma, xi, phi, eps1, eps2, realized=True), points


def _fangle(a, b) -> float:
    num = sum(x * y for x, y in zip(a, b))
    den = math.sqrt(sum(x * x for x in a) * sum(y * y for y in b))
    return math.acos(max(-1.0, min(1.0, num / den)))
