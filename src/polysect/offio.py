"""Read and write polytopes in a small OFF-style text format.

Layout:

    OFF                  (optional header line)
    nv [nf [ne]]         (counts; nf/ne optional and not trusted)
    x1 x2 ... xd         (one line per vertex; entries like 3, -1/2, 0.25)
    k i1 ... ik          (optional facet lines, vertex indices)

'#' starts a comment; blank lines are skipped.  Coordinates are parsed as
exact rationals ("a/b" stays a/b, decimals become their exact value).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .geometry import MAX_MAGNITUDE, GeometryError, Point
from .polytope import Polytope, convex_hull


class OffFormatError(GeometryError):
    pass


@dataclass(frozen=True)
class OffData:
    vertices: tuple[Point, ...]
    facets: tuple[tuple[int, ...], ...]


def _clean_lines(text: str) -> list[str]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append(line)
    return out


def parse_off(text: str) -> OffData:
    lines = _clean_lines(text)
    if not lines:
        raise OffFormatError("empty input")
    pos = 0
    if lines[0].upper() == "OFF":
        pos = 1
    if pos >= len(lines):
        raise OffFormatError("missing counts line")
    counts = lines[pos].split()
    pos += 1
    if not 1 <= len(counts) <= 3:
        raise OffFormatError("counts line must hold one to three integers")
    try:
        nv, nf, ne = [int(c) for c in counts] + [0] * (3 - len(counts))
    except ValueError as exc:
        raise OffFormatError(f"bad counts line: {exc}") from None
    if nv <= 0:
        raise OffFormatError("vertex count must be positive")
    if nf < 0 or ne < 0:
        raise OffFormatError("counts must not be negative")
    if pos + nv > len(lines):
        raise OffFormatError(f"expected {nv} vertex lines")

    vertices = []
    dim = None
    for i in range(nv):
        fields = lines[pos + i].split()
        try:
            coords = tuple(Fraction(f) for f in fields)
        except (ValueError, ZeroDivisionError) as exc:
            raise OffFormatError(f"bad coordinate on vertex line {i}: {exc}") from None
        if any(abs(x) > MAX_MAGNITUDE for x in coords):
            raise OffFormatError(
                f"coordinate on vertex line {i} is beyond 1e100 in absolute value"
            )
        if dim is None:
            dim = len(coords)
            if dim == 0:
                raise OffFormatError("vertex line holds no coordinates")
        elif len(coords) != dim:
            raise OffFormatError("vertex lines disagree on dimension")
        vertices.append(coords)
    pos += nv

    facets = []
    for line in lines[pos:]:
        fields = line.split()
        try:
            vals = [int(f) for f in fields]
        except ValueError as exc:
            raise OffFormatError(f"bad facet line: {exc}") from None
        if not vals:
            continue
        k, idx = vals[0], vals[1:]
        if k != len(idx):
            raise OffFormatError("facet line count does not match its indices")
        for j in idx:
            if not 0 <= j < nv:
                raise OffFormatError(f"facet index {j} out of range")
        facets.append(tuple(idx))
    if nf and facets and len(facets) != nf:
        raise OffFormatError("facet count does not match the facet lines")
    return OffData(tuple(vertices), tuple(facets))


def load_polytope(text: str) -> tuple[Polytope, list[str]]:
    """Polytope from OFF-style text: hull of the listed vertices.

    Returns (polytope, warnings); a warning is added when some listed points
    are not extreme (the hull of the input is used in that case).
    """
    data = parse_off(text)
    poly = convex_hull(data.vertices)
    warnings = []
    dropped = len(set(data.vertices)) - len(poly.vertices)
    if dropped:
        warnings.append(
            f"{dropped} input point(s) are not extreme; using the convex hull"
        )
    return poly, warnings


def _fmt(x: Fraction) -> str:
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def emit_off(poly: Polytope) -> str:
    """OFF-style text for a polytope (exact rational coordinates).

    Facet lines list vertex indices; for 3-dimensional polytopes each facet
    is written as a boundary cycle, otherwise in index order.
    """
    lines = ["OFF", f"{len(poly.vertices)} {len(poly.facet_vertices)} 0"]
    for v in poly.vertices:
        lines.append(" ".join(_fmt(x) for x in v))
    for fverts in poly.facet_vertices:
        idx = sorted(fverts)
        if poly.dim == 3 and len(idx) > 3:
            face = convex_hull([poly.vertices[i] for i in idx])
            by_point = {poly.vertices[i]: i for i in idx}
            idx = [by_point[face.vertices[c]] for c in face.boundary_cycle()]
        lines.append(str(len(idx)) + " " + " ".join(str(i) for i in idx))
    return "\n".join(lines) + "\n"
