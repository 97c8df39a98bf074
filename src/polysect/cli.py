"""Command-line front end.

Parses polytope files and body specs, runs sections, projections, visual
cones, the Klee-style criteria testers, exclusion certificates, shadow
walks and polyhedrality scans, and writes JSON reports plus SVG renderings
of 2-dimensional results.

Exit codes: 0 for polytope-consistent or plain success, 2 when a
non-polytope witness was found, 1 on any error (the inner module's
message goes to stderr).  Reports carry no timestamps and serialize with
sorted keys, so identical invocations (including the seed) produce
byte-identical files.  Exact rationals appear as "a/b" strings together
with a convenience decimal that never carries authority.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from fractions import Fraction

from .bodies import MIN_TAU, BodyOracle, body_from_spec, sample_section_boundary
from .bodies import _num, _vec
from .cones import (
    ball_visual_cone_oracle,
    mirkil_scan,
    visual_cone,
)
from .criteria import (
    _ray_hit_cone_oracle,
    epsilon_certificate,
    klee_projection_test,
    klee_section_test,
    no_extreme_in_cone,
    polygonality_detect,
    visual_cone_test,
)
from .geometry import MAX_MAGNITUDE, AffineFlat, GeometryError
from .offio import load_polytope
from .polytope import Polytope, project, section
from .silhouette import shadow_chart, shadow_walk
from .svg import render_polygon

EXAMPLES = """examples:
  polysect section --body cube.off --flat "n=1,1,1;c=0" --svg hex.svg
  polysect project --body cube.off --xi 0,0,1
  polysect cone --body cube.off --apex 0,0,3
  polysect klee-k1 --body ball.json --flats 5 --seed 7
  polysect klee-k2 --body cube.off --subspaces 10 --seed 3
  polysect t11 --body cube.off --flats 8 --delta 0.25 --seed 1
  polysect t12 --body cube.off --apexes 4 --seed 5
  polysect epsilon --body cube.off --p 1,1,1 --q=-1,-1,-1
  polysect walk --body cube.off --xi 0,0,1 --svg walk.svg
  polysect mirkil --body ball.json --apex 0,0,3 --samples 10 --seed 2
"""


def _frac(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def jsonable(x):
    """Recursively convert report payloads to JSON-serializable data."""
    if isinstance(x, Fraction):
        return {"decimal": float(x), "exact": _frac(x)}
    if isinstance(x, bool) or x is None or isinstance(x, (int, float, str)):
        return x
    if dataclasses.is_dataclass(x) and not isinstance(x, type):
        return {
            f.name: jsonable(getattr(x, f.name)) for f in dataclasses.fields(x)
        }
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    raise TypeError(f"cannot serialize {type(x).__name__}")


def parse_vector(text: str) -> tuple[Fraction, ...]:
    try:
        parts = [Fraction(tok.strip()) for tok in text.split(",") if tok.strip()]
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"bad vector {text!r}: {e}") from None
    if not parts:
        raise ValueError(f"bad vector {text!r}: empty")
    # the same bound as body specs: beyond it float() overflows downstream
    if any(abs(x) > MAX_MAGNITUDE for x in parts):
        raise ValueError(f"bad vector {text!r}: a value is beyond 1e100 in absolute value")
    return tuple(parts)


def parse_flat(text: str, dim: int) -> tuple[AffineFlat, tuple, Fraction]:
    """Hyperplane spec "n=1,1,1;c=0" -> (flat, normal, offset)."""
    fields = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f'bad flat spec {text!r}: expected "n=...;c=..."')
        key, _, val = chunk.partition("=")
        fields[key.strip()] = val.strip()
    if "n" not in fields or "c" not in fields:
        raise ValueError(f'bad flat spec {text!r}: expected "n=...;c=..."')
    normal = parse_vector(fields["n"])
    try:
        offset = Fraction(fields["c"])
    except (ValueError, ZeroDivisionError) as e:
        raise ValueError(f"bad flat spec {text!r}: {e}") from None
    if abs(offset) > MAX_MAGNITUDE:
        raise ValueError(f"bad flat spec {text!r}: c is beyond 1e100 in absolute value")
    if len(normal) != dim:
        raise ValueError(
            f"flat normal has {len(normal)} components, body lives in {dim}"
        )
    if all(x == 0 for x in normal):
        raise ValueError("flat normal must be nonzero")
    return AffineFlat.from_equations([normal], [offset]), normal, offset


class BodyInput:
    def __init__(self, poly, oracle, spec, warnings, name):
        self.poly: Polytope | None = poly
        self.oracle: BodyOracle | None = oracle
        self.spec: dict | None = spec
        self.warnings: list[str] = warnings
        self.name: str = name

    @property
    def tester_arg(self):
        return self.oracle if self.oracle is not None else self.poly

    @property
    def dim(self) -> int:
        return self.poly.ambient_dim if self.poly is not None else self.oracle.dim

    def need_polytope(self, what: str) -> Polytope:
        if self.poly is None:
            raise GeometryError(f"{what} needs a polytope body, got {self.name}")
        return self.poly

    def describe(self) -> dict:
        out = {"name": self.name, "dim": self.dim}
        if self.warnings:
            out["warnings"] = list(self.warnings)
        return out


def load_body(args) -> BodyInput:
    text, base_dir, name = getattr(args, "body_json", None), ".", None
    if not text:
        path = args.body
        if path is None:
            raise ValueError("provide --body PATH or --body-json SPEC")
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
        name = os.path.splitext(os.path.basename(path))[0]
        if path.endswith(".off") or text.lstrip()[:3].upper() == "OFF":
            poly, warnings = load_polytope(text)
            return BodyInput(poly, None, None, warnings, name)
        base_dir = os.path.dirname(path) or "."
    spec = json.loads(text)
    oracle = body_from_spec(spec, base_dir)
    name = spec.get("name", oracle.name if name is None else name)
    # the name is echoed into every report, which must stay valid JSON
    if not isinstance(name, str):
        raise ValueError("body spec name must be a string")
    return BodyInput(oracle.polytope, oracle, spec, [], name)


def _ccw_order(poly: Polytope):
    """A chart polytope's vertices; a polygon's counterclockwise from just
    past angle -π around their centroid, as atan2 orders them.

    `Polytope.boundary_cycle` orders a polygon exactly, from angle 0; the
    cycle is turned to start at its first vertex below the centroid.  A
    chart of any other dimension keeps the polytope's own vertex order.
    """
    verts = poly.vertices
    if poly.dim != 2 or poly.ambient_dim != 2:
        return list(verts)
    cycle = poly.boundary_cycle()
    sy = sum(v[1] for v in verts)
    k = next(i for i, j in enumerate(cycle) if len(verts) * verts[j][1] < sy)
    return [verts[j] for j in cycle[k:] + cycle[:k]]


def _point_list(points):
    return [jsonable(tuple(p)) for p in points]


# ---------------------------------------------------------------------------
# command handlers: each takes the parsed args and the loaded body and returns
# (report dict, svg payload or None, exit code); main adds command, body and
# seed to every report


def _cmd_section(args, body):
    flat, normal, offset = parse_flat(args.flat, body.dim)
    report = {
        "flat": {"normal": jsonable(normal), "offset": jsonable(offset)},
        "tau": args.tau,
    }
    if body.poly is not None:
        sec = section(body.poly, flat)
        if sec is None:
            report.update(verdict="empty", vertices=[], vertex_count=0)
            return report, None, 0
        chart = _ccw_order(sec.polytope)
        report.update(
            verdict="polytope-consistent",
            vertex_count=len(sec.ambient_vertices),
            vertices=_point_list(sec.ambient_vertices),
            chart_vertices=_point_list(chart),
            section_dim=sec.polytope.dim,
            meets_interior=sec.meets_interior,
        )
        svg = None
        if sec.polytope.ambient_dim == 2:
            svg = (chart, {"closed": sec.polytope.dim == 2})
        return report, svg, 0
    verdict = polygonality_detect(sample_section_boundary(body.oracle, flat), args.samples, args.tau)
    curved = verdict.kind == "curved"
    report.update(
        verdict="non-polytope" if curved else "polytope-consistent",
        samples=args.samples,
        polygon=verdict.kind == "polygon",
        edge_count=verdict.edges,
        witness_triple=jsonable(verdict.witness_triple),
        witness_area=verdict.witness_area,
    )
    markers = list(verdict.witness_triple) if verdict.witness_triple else None
    svg = (list(verdict.points), {"closed": True, "marker_indices": markers})
    return report, svg, 2 if curved else 0


def _cmd_project(args, body):
    poly = body.need_polytope("project")
    if args.xi is not None:
        xi = parse_vector(args.xi)
        if len(xi) != 3 or poly.ambient_dim != 3:
            raise GeometryError("--xi projection needs a 3-dimensional body")
        flat = shadow_chart(xi)
    else:
        rows = [parse_vector(r) for r in args.basis.split(";") if r.strip()]
        flat = AffineFlat.spanning((Fraction(0),) * poly.ambient_dim, rows)
    shadow = project(poly, flat)
    chart = _ccw_order(shadow.polytope)
    report = {
        "subspace": {"base": jsonable(flat.base), "basis": jsonable(flat.basis)},
        "verdict": "polytope-consistent",
        "vertex_count": len(shadow.polytope.vertices),
        "chart_vertices": _point_list(chart),
        "shadow_dim": shadow.polytope.dim,
    }
    svg = None
    if shadow.polytope.ambient_dim == 2:
        svg = (chart, {"closed": shadow.polytope.dim == 2})
    return report, svg, 0


def _cmd_cone(args, body):
    poly = body.need_polytope("cone")
    apex = parse_vector(args.apex)
    cone = visual_cone(apex, poly)
    halfspaces = [
        {"normal": jsonable(hs.normal), "offset": jsonable(hs.offset)}
        for hs in (cone.halfspaces or ())
    ]
    report = {
        "apex": jsonable(cone.apex),
        "verdict": "success",
        "extreme_ray_count": cone.extreme_ray_count,
        "rays": _point_list(cone.generators),
        "halfspaces": halfspaces,
    }
    return report, None, 0


def _tester_report(rep):
    """The report of a sampled tester's CriterionReport; a witness exits 2."""
    w = rep.witness
    out = {
        "criterion": rep.criterion,
        "verdict": rep.verdict,
        "exact": rep.exact,
        "tau": rep.tau,
        "budgets": {
            "requested": rep.budget,
            "samples_used": rep.samples_used,
            "boundary_points": rep.boundary_points,
        },
        "witness": jsonable(w),
        "notes": list(rep.notes),
    }
    svg = None
    if w is not None and w.points:
        markers = list(w.triple) if w.triple else None
        svg = (list(w.points), {"closed": True, "marker_indices": markers})
    return out, svg, 0 if w is None else 2


def _cmd_sections(args, body):
    # klee-k1 has no --delta: central sections (K1); t11 requires one (T1.1);
    # klee-k2 draws subspaces and projects (K2)
    if args.command == "klee-k2":
        rep = klee_projection_test(
            body.tester_arg, args.subspaces, args.seed, k=args.k,
            boundary_points=args.boundary_points, tau=args.tau,
        )
    else:
        rep = klee_section_test(
            body.tester_arg, args.flats, args.seed, k=args.k,
            delta=getattr(args, "delta", None),
            boundary_points=args.boundary_points, tau=args.tau,
        )
    return _tester_report(rep)


def _default_sphere(body: BodyInput):
    if body.poly is not None:
        center = body.poly.interior_point()
        reach = max(
            math.sqrt(sum(float(v - c) ** 2 for v, c in zip(vtx, center)))
            for vtx in body.poly.vertices
        )
        # a one-point body has reach 0: radius 1 keeps the apexes off it
        return tuple(float(c) for c in center), 3.0 * reach or 1.0
    oracle = body.oracle
    center = oracle.interior_hint
    reach = 0.0
    for i in range(oracle.dim):
        for sign in (1.0, -1.0):
            u = tuple(sign if j == i else 0.0 for j in range(oracle.dim))
            _, pt = oracle.support(u)
            reach = max(
                reach, math.sqrt(sum((p - c) ** 2 for p, c in zip(pt, center)))
            )
    return tuple(center), 3.0 * reach or 1.0


def _cmd_t12(args, body):
    center, radius = _default_sphere(body)
    if args.radius is not None:
        radius = args.radius
    rep = visual_cone_test(
        body.tester_arg,
        ("sphere", center, radius),
        args.seed,
        budget=args.apexes,
        sections_per_apex=args.sections_per_apex,
        boundary_points=args.boundary_points,
        tau=args.tau,
    )
    out, svg, code = _tester_report(rep)
    out["sphere"] = {"center": list(center), "radius": radius}
    return out, svg, code


def _cmd_epsilon(args, body):
    poly = body.need_polytope("epsilon")
    p = parse_vector(args.p)
    q = parse_vector(args.q)
    cert = epsilon_certificate(poly, p, q, seed=args.seed)
    excluded = no_extreme_in_cone(poly, p, q, cert.epsilon)
    report = {
        "verdict": "success" if excluded else "certificate-violated",
        "certificate": jsonable(cert),
        "no_extreme_in_cone": excluded,
    }
    return report, None, 0 if excluded else 2


def _cmd_walk(args, body):
    poly = body.need_polytope("walk")
    xi = parse_vector(args.xi)
    result = shadow_walk(poly, xi)
    report = {
        "xi": jsonable(xi),
        "verdict": "success",
        "vertex_count": len(result.vertices),
        "vertices": _point_list(result.vertices),
        "angles": list(result.angles),
        "steps": result.steps,
        "start": jsonable(result.start),
    }
    svg = (list(result.vertices), {"closed": True})
    return report, svg, 0


def _cmd_mirkil(args, body):
    apex = parse_vector(args.apex)
    if body.poly is not None:
        cone = visual_cone(apex, body.poly)
    elif body.spec is not None and body.spec.get("kind") == "ball":
        # body_from_spec has read both keys through the same parsers
        center = tuple(map(float, _vec(body.spec["center"], "center")))
        cone = ball_visual_cone_oracle(
            tuple(float(a) for a in apex), center, float(_num(body.spec["radius"]))
        )
    else:
        cone = _ray_hit_cone_oracle(body.oracle, tuple(float(a) for a in apex))
    rep = mirkil_scan(
        cone,
        args.samples,
        args.seed,
        boundary_points=args.boundary_points,
        tau=args.tau,
    )
    out, svg, code = _tester_report(rep)
    out["apex"] = jsonable(apex)
    return out, svg, code


_HANDLERS = {
    "section": _cmd_section,
    "project": _cmd_project,
    "cone": _cmd_cone,
    "klee-k1": _cmd_sections,
    "klee-k2": _cmd_sections,
    "t11": _cmd_sections,
    "t12": _cmd_t12,
    "epsilon": _cmd_epsilon,
    "walk": _cmd_walk,
    "mirkil": _cmd_mirkil,
}


def _add_body_flags(p):
    body = p.add_mutually_exclusive_group()
    body.add_argument("--body", help="path to an OFF polytope or body-spec JSON")
    body.add_argument("--body-json", help="inline body-spec JSON")
    p.add_argument("--report", default="-", help="report path (default stdout)")
    p.add_argument("--svg", help="write an SVG rendering of 2-dim output")
    p.add_argument("--seed", type=int, default=None, help="RNG seed")
    p.add_argument("--tau", type=_tau, default=1e-9, help="tolerance, as a fraction of size")


def _positive(text: str) -> float:
    # --tau and --radius are echoed into reports, so a NaN or infinite
    # value would make the report invalid JSON
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError("must be finite and positive")
    return value


def _tau(text: str) -> float:
    tau = _positive(text)
    if tau < MIN_TAU:
        raise argparse.ArgumentTypeError(f"must be at least {MIN_TAU:g}")
    return tau


# upper bounds on counts: a vertex bound n lets the polygonality probe make
# up to 8n + 16 oracle exits or support calls per sample, and a budget
# multiplies whole samples
MAX_POINTS = 1024
MAX_BUDGET = 1000


def _at_most(limit: int):
    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value > limit:
            raise argparse.ArgumentTypeError(f"must be at most {limit}")
        return value

    return count


_points = _at_most(MAX_POINTS)
_BOUND_HELP = "most vertices a sampled section, shadow or cross-section may have and pass"
_budget = _at_most(MAX_BUDGET)


def _radius(text: str) -> float:
    # the oracles square apex coordinates: the body-spec magnitude bound
    radius = _positive(text)
    if radius > MAX_MAGNITUDE:
        raise argparse.ArgumentTypeError("must be at most 1e100")
    return radius


class _UsageError(Exception):
    """A malformed command line (unknown flag, missing argument, bad type)."""


class _Parser(argparse.ArgumentParser):
    # usage errors follow the error contract: one "error:" line, exit 1;
    # subparsers are built from the same class
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="polysect",
        description="Exact polytope sections, shadows, visual cones and "
        "polyhedrality criteria.",
        epilog=EXAMPLES,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("section", help="cut the body with a hyperplane")
    _add_body_flags(p)
    p.add_argument("--flat", required=True, help='hyperplane "n=1,1,1;c=0"')
    p.add_argument("--samples", type=_points, default=48, help=_BOUND_HELP)

    p = sub.add_parser("project", help="orthogonal shadow of a polytope")
    _add_body_flags(p)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--xi", help="project along this direction (3-dim)")
    target.add_argument("--basis", help='subspace basis "1,0,0;0,1,0"')

    p = sub.add_parser("cone", help="visual cone from an outside apex")
    _add_body_flags(p)
    p.add_argument("--apex", required=True, help="apex point, e.g. 0,0,3")

    p = sub.add_parser("klee-k1", help="central-section polyhedrality test")
    _add_body_flags(p)
    p.add_argument("--flats", type=_budget, default=20, help="number of sampled flats")
    p.add_argument("--k", type=int, default=2, help="section dimension")
    p.add_argument("--boundary-points", type=_points, help=_BOUND_HELP, default=48)

    p = sub.add_parser("klee-k2", help="projection polyhedrality test")
    _add_body_flags(p)
    p.add_argument("--subspaces", type=_budget, default=20)
    p.add_argument("--k", type=int, default=2, help="shadow dimension")
    p.add_argument("--boundary-points", type=_points, help=_BOUND_HELP, default=64)

    p = sub.add_parser("t11", help="non-central-section polyhedrality test")
    _add_body_flags(p)
    p.add_argument("--flats", type=_budget, default=20)
    p.add_argument("--k", type=int, default=2)
    p.add_argument("--delta", type=float, required=True, help="section offset")
    p.add_argument("--boundary-points", type=_points, help=_BOUND_HELP, default=48)

    p = sub.add_parser("t12", help="visual-cone polyhedrality test")
    _add_body_flags(p)
    p.add_argument("--apexes", type=_budget, default=8, help="sampled apex count")
    p.add_argument("--radius", type=_radius, default=None, help="apex sphere radius")
    p.add_argument("--sections-per-apex", type=_budget, default=2)
    p.add_argument("--boundary-points", type=_points, help=_BOUND_HELP, default=32)

    p = sub.add_parser("epsilon", help="extreme-point exclusion certificate")
    _add_body_flags(p)
    p.add_argument("--p", required=True, help="segment start (a body point)")
    p.add_argument("--q", required=True, help="segment end (a body point)")

    p = sub.add_parser("walk", help="shadow-boundary walk (3-dim)")
    _add_body_flags(p)
    p.add_argument("--xi", required=True, help="walk direction, e.g. 0,0,1")

    p = sub.add_parser("mirkil", help="cone polyhedrality scan")
    _add_body_flags(p)
    p.add_argument("--apex", required=True, help="cone apex, e.g. 0,0,3")
    p.add_argument("--samples", type=_budget, default=10)
    p.add_argument("--boundary-points", type=_points, help=_BOUND_HELP, default=64)
    return parser


def _write_text(path: str, text: str):
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _env_seed() -> int:
    try:
        return int(os.environ.get("POLYSECT_SEED", "0"))
    except ValueError:
        raise ValueError("POLYSECT_SEED must be an integer") from None


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        if args.svg == "-" and args.report == "-":
            raise _UsageError("--svg - needs --report PATH: both cannot go to stdout")
        if args.seed is None:
            args.seed = _env_seed()
        body = load_body(args)
        report, svg_payload, code = _HANDLERS[args.command](args, body)
        report.update(command=args.command, body=body.describe(), seed=args.seed)
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
        if args.svg:  # both texts are rendered before any output is written
            if svg_payload is None:
                raise GeometryError("no 2-dimensional output to render")
            points, opts = svg_payload
            _write_text(args.svg, render_polygon(points, **opts))
        try:
            _write_text(args.report, text)
        except OSError:  # exit 1 leaves no output file behind
            if args.svg and args.svg != "-":
                os.remove(args.svg)
            raise
        return code
    except (_UsageError, GeometryError, ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
