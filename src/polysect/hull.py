"""Incremental convex hull over integer coordinates, dimensions 2 to 4.

This is the package's only hot loop, so it works on denominator-cleared
integer points (the caller scales each axis independently, which is a
linear bijection and preserves the whole face lattice).  Degenerate inserts
produce coplanar simplicial facets that get merged at the end.  The work
per facet is written out per dimension on flat int tuples: its oriented
plane comes from one closure for k = 2, 3 or 4 (the perpendicular, the
cross product, or a cofactor expansion through shared 2x2 minors, then the
side test against the reference point).  Each facet keeps, per vertex, the
id of the facet across the opposite ridge, so an insertion reads its
horizon off those pointers, and its new facets pair up on their (k-2)-
subfaces through a dict that lives for that insertion only.  After the
initial simplex the points go in farthest first from the centroid of all
the points (as Quickhull orders them), ties by index, which leaves fewer
facets to create and discard; the output is canonical, so the order
changes no answer.  Each inserted point is tested against every live
facet; there is no conflict graph.

A merged candidate is a vertex when it lies on k facets for k <= 3: a
boundary point that is not extreme lies in the relative interior of an edge
(2 facets) or of a facet (1).  In 4-D an edge can lie on any number of
facets, so there its facet normals must reach rank 4, found by pivots that
stop there.  A member of a merged facet with exactly k members skips that
test: the final simplicial facets triangulate the boundary, so the merged
set of a facet H holds every vertex of the face H ∩ P, which has at least
k; a candidate on H that is not extreme would be one member more.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from math import gcd
from typing import Iterable, Sequence

IntVec = tuple[int, ...]


class HullError(ValueError):
    pass


class DegenerateInput(HullError):
    """Points do not affinely span the requested dimension."""

def int_pivots(rows: Iterable[IntVec], limit: int) -> list[int]:
    """Indices of the rows that raise the rank of the rows before them.

    The package's one integer rank primitive: Fraction-free (Bareiss-style)
    elimination, each kept row reduced against the earlier ones so it is
    zero in their pivot columns.  Stops once the rank reaches limit, so a
    lazy iterable is read no further than its last pivot.
    """
    kept: list[tuple[int, list[int]]] = []  # (pivot column, reduced row)
    out = []
    for i, row in enumerate(rows):
        r = list(row)
        for c, b in kept:
            if r[c]:
                f, g = b[c], r[c]
                r = [f * x - g * y for x, y in zip(r, b)]
        c = next((c for c, x in enumerate(r) if x), None)
        if c is None:
            continue
        kept.append((c, r))
        out.append(i)
        if len(out) == limit:
            break
    return out


def affine_pivots(points: Sequence[IntVec], limit: int) -> list[int]:
    """Indices i > 0 of the points whose difference from points[0] raises
    the rank of the differences before it, up to rank limit."""
    p0 = points[0]
    diffs = (tuple(a - b for a, b in zip(p, p0)) for p in points[1:])
    return [i + 1 for i in int_pivots(diffs, limit)]


@dataclass
class _Facet:
    vertices: tuple[int, ...]
    normal: IntVec
    offset: int


@dataclass(frozen=True)
class IntHull:
    """Full-dimensional hull: true vertices and merged (irredundant) facets.

    facets are (normal, offset, vertex index tuple) with normal·x <= offset
    inside.  Each facet's tuple is exactly the set of true vertices tight on
    it (normal·v == offset), in increasing index order, so callers can take
    facet-vertex incidence from here instead of re-evaluating hyperplanes.
    """

    vertex_indices: tuple[int, ...]
    facets: tuple[tuple[IntVec, int, tuple[int, ...]], ...]


def _initial_simplex(points: Sequence[IntVec], k: int) -> list[int]:
    pivots = affine_pivots(points, k)
    if len(pivots) < k:
        raise DegenerateInput(f"points span only {len(pivots)} of {k} dimensions")
    return [0] + pivots


def _plane_closure(points: Sequence[IntVec], ref_sum: IntVec, ref_den: int):
    """plane(verts): normal + (offset,) of the plane through points[v], v in
    verts, with ref_sum / ref_den strictly inside (normal·x < offset).  The
    normal is the perpendicular, cross product or cofactor vector (k = 2, 3,
    4) of the differences points[v] - points[verts[0]]."""
    k = len(ref_sum)
    if k == 2:
        sx, sy = ref_sum

        def plane(verts):
            i, j = verts
            x0, y0 = points[i]
            x1, y1 = points[j]
            a, b = y1 - y0, x0 - x1
            o = a * x0 + b * y0
            side = a * sx + b * sy - o * ref_den
            if side:
                return (a, b, o) if side < 0 else (-a, -b, -o)
            raise HullError("reference point landed on a facet hyperplane")

    elif k == 3:
        sx, sy, sz = ref_sum

        def plane(verts):
            i, j, l = verts
            x0, y0, z0 = points[i]
            x1, y1, z1 = points[j]
            x2, y2, z2 = points[l]
            ux, uy, uz = x1 - x0, y1 - y0, z1 - z0
            vx, vy, vz = x2 - x0, y2 - y0, z2 - z0
            a = uy * vz - uz * vy
            b = uz * vx - ux * vz
            c = ux * vy - uy * vx
            o = a * x0 + b * y0 + c * z0
            side = a * sx + b * sy + c * sz - o * ref_den
            if side:
                return (a, b, c, o) if side < 0 else (-a, -b, -c, -o)
            raise HullError("reference point landed on a facet hyperplane")

    else:
        sx, sy, sz, sw = ref_sum

        def plane(verts):
            i, j, l, m = verts
            x0, y0, z0, w0 = points[i]
            x1, y1, z1, w1 = points[j]
            x2, y2, z2, w2 = points[l]
            x3, y3, z3, w3 = points[m]
            ux, uy, uz, uw = x1 - x0, y1 - y0, z1 - z0, w1 - w0
            vx, vy, vz, vw = x2 - x0, y2 - y0, z2 - z0, w2 - w0
            tx, ty, tz, tw = x3 - x0, y3 - y0, z3 - z0, w3 - w0
            m01, m02, m03 = vx * ty - vy * tx, vx * tz - vz * tx, vx * tw - vw * tx
            m12, m13, m23 = vy * tz - vz * ty, vy * tw - vw * ty, vz * tw - vw * tz
            a = uy * m23 - uz * m13 + uw * m12
            b = uz * m03 - ux * m23 - uw * m02
            c = ux * m13 - uy * m03 + uw * m01
            e = uy * m02 - ux * m12 - uz * m01
            o = a * x0 + b * y0 + c * z0 + e * w0
            side = a * sx + b * sy + c * sz + e * sw - o * ref_den
            if side:
                return (a, b, c, e, o) if side < 0 else (-a, -b, -c, -e, -o)
            raise HullError("reference point landed on a facet hyperplane")

    return plane


def _simplicial_facets(points: Sequence[IntVec]) -> list[_Facet]:
    """The incremental hull's simplicial facets, coplanar ones not merged."""
    if not points:
        raise HullError("no points")
    k = len(points[0])
    if k not in (2, 3, 4):
        raise HullError(f"unsupported hull dimension {k}")
    if any(len(p) != k for p in points):
        raise HullError("points live in different dimensions")

    simplex = _initial_simplex(points, k)
    # Strictly interior reference point, kept as (sum, count) to stay integral.
    ref_sum = tuple(sum(points[i][c] for i in simplex) for c in range(k))
    plane = _plane_closure(points, ref_sum, k + 1)

    # per live facet id: its plane for the inline visibility tests below, and
    # its vertex tuple with, per vertex, the facet across the opposite ridge;
    # facet drop of the simplex leaves out simplex[drop] and has id drop
    planes: dict[int, IntVec] = {}
    faces: dict[int, tuple[tuple[int, ...], list[int]]] = {}
    for drop in range(k + 1):
        verts = tuple(simplex[:drop] + simplex[drop + 1:])
        planes[drop] = plane(verts)
        faces[drop] = (verts, [j + (j >= drop) for j in range(k)])
    ids = count(k + 1)

    # farthest first from the centroid of all the points, ties by index
    n = len(points)
    total = [sum(c) for c in zip(*points)]
    in_simplex = set(simplex)
    order = sorted(
        (i for i in range(n) if i not in in_simplex),
        key=lambda i: sum((n * x - s) ** 2 for x, s in zip(points[i], total)),
        reverse=True,
    )
    for ip in order:
        p = points[ip]
        if k == 3:
            x, y, z = p
            visible = [
                fid for fid, (a, b, c, o) in planes.items() if a * x + b * y + c * z > o
            ]
        elif k == 2:
            x, y = p
            visible = [fid for fid, (a, b, o) in planes.items() if a * x + b * y > o]
        else:
            x, y, z, w = p
            visible = [
                fid
                for fid, (a, b, c, e, o) in planes.items()
                if a * x + b * y + c * z + e * w > o
            ]
        if not visible:
            continue
        # each horizon ridge (a visible facet's ridge whose neighbour is not
        # visible) gains the cone facet ridge + (ip,), which takes over that
        # neighbour; the new facets pair up on their (k-2)-subfaces
        visible_set = set(visible)
        open_subfaces: dict[tuple[int, ...], tuple[int, int]] = {}
        for fid in visible:
            verts, across = faces[fid]
            for j, other in enumerate(across):
                if other in visible_set:
                    continue
                ridge = verts[:j] + verts[j + 1:]
                new = next(ids)
                planes[new] = plane(ridge + (ip,))
                back = faces[other][1]
                back[back.index(fid)] = new
                links = [other] * k  # slots before the last: filled by mates
                for m in range(k - 1):
                    key = tuple(sorted(ridge[:m] + ridge[m + 1:]))
                    mate = open_subfaces.pop(key, None)
                    if mate is None:
                        open_subfaces[key] = (new, m)
                    else:
                        links[m] = mate[0]
                        faces[mate[0]][1][mate[1]] = new
                faces[new] = (ridge + (ip,), links)
        if open_subfaces:
            raise HullError("hull boundary lost ridge pairing")
        for fid in visible:
            del planes[fid], faces[fid]

    return [_Facet(faces[fid][0], pl[:k], pl[k]) for fid, pl in planes.items()]


def hull_full_dim(points: Sequence[IntVec]) -> IntHull:
    """Convex hull of integer points that affinely span their space; coplanar
    simplicial facets are merged by canonical oriented hyperplane."""
    merged: dict[tuple[IntVec, int], set[int]] = {}
    for f in _simplicial_facets(points):
        g = gcd(*f.normal, f.offset)
        key = (tuple(x // g for x in f.normal), f.offset // g)
        merged.setdefault(key, set()).update(f.vertices)
    k = len(points[0])

    # Incidence is read off the merged sets, with no rescan: hull ∩ H is the
    # union of the simplicial facets on H, so a true vertex is in the set of
    # every facet it is tight on (full rank there), and a candidate that is
    # not extreme keeps rank < k on any subset of its tight normals; for
    # k <= 3 the count alone decides, and for k = 4 a member of a set of
    # exactly k is a vertex with no rank test (module docstring).
    active: dict[int, list[IntVec]] = {}
    for (n, _), verts in merged.items():
        for v in verts:
            active.setdefault(v, []).append(n)
    on_simplex = {v for vs in merged.values() if len(vs) == k for v in vs} if k == 4 else ()
    true_vertices = sorted(
        v
        for v, ns in active.items()
        if len(ns) >= k and (k < 4 or v in on_simplex or len(int_pivots(ns, 4)) == 4)
    )
    vert_set = set(true_vertices)

    out_facets = []
    for (n, c), verts in merged.items():
        fverts = tuple(sorted(vert_set.intersection(verts)))
        if len(fverts) < k:
            raise HullError("merged facet lost its vertices")
        out_facets.append((n, c, fverts))
    out_facets.sort(key=lambda t: (t[0], t[1]))

    return IntHull(tuple(true_vertices), tuple(out_facets))
