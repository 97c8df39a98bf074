"""Incremental convex hull over integer coordinates, dimensions 2 to 4.

This is the package's only hot loop, so it works on denominator-cleared
integer points (the caller scales each axis independently, which is a
linear bijection and preserves the whole face lattice).  Orientation
predicates are exact integer determinants; degenerate inserts produce
coplanar simplicial facets that get merged at the end.  Each inserted
point is tested against every live facet, with the dot product written
out per dimension on flat int tuples; there is no conflict graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Iterable, Sequence

IntVec = tuple[int, ...]


class HullError(ValueError):
    pass


class DegenerateInput(HullError):
    """Points do not affinely span the requested dimension."""


def det3(m) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    )


def int_rank(rows: Sequence[IntVec]) -> int:
    """Rank of small integer matrices via fraction-free elimination."""
    mat = [list(r) for r in rows if any(r)]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pr = mat[rank]
        for i in range(rank + 1, len(mat)):
            if mat[i][c] != 0:
                f, g = pr[c], mat[i][c]
                mat[i] = [f * x - g * y for x, y in zip(mat[i], pr)]
        rank += 1
        if rank == len(mat):
            break
    return rank


def int_pivots(rows: Iterable[IntVec], limit: int) -> list[int]:
    """Indices of the rows that raise the rank of the rows before them.

    Stops once the rank reaches limit, so a lazy iterable is read no
    further than its last pivot.  Fraction-free elimination (Bareiss-style
    cross-multiplication): each kept row is reduced against the earlier
    ones, so it is zero in their pivot columns.
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


def facet_normal(diffs: Sequence[IntVec], k: int) -> IntVec:
    """Integer vector orthogonal to k-1 difference vectors in dimension k."""
    if k == 2:
        (dx, dy), = diffs
        return (dy, -dx)
    if k == 3:
        a, b = diffs
        return (
            a[1] * b[2] - a[2] * b[1],
            a[2] * b[0] - a[0] * b[2],
            a[0] * b[1] - a[1] * b[0],
        )
    if k == 4:
        # cofactor expansion of the 3x4 difference matrix
        rows = list(diffs)
        out = []
        sign = 1
        for c in range(4):
            minor = [[rows[r][cc] for cc in range(4) if cc != c] for r in range(3)]
            out.append(sign * det3(minor))
            sign = -sign
        return tuple(out)
    raise HullError(f"unsupported hull dimension {k}")


def _dot(a: IntVec, b: IntVec) -> int:
    return sum(x * y for x, y in zip(a, b))


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


def _simplicial_facets(points: Sequence[IntVec]) -> list[_Facet]:
    """The incremental hull's simplicial facets, coplanar ones not merged."""
    if not points:
        raise HullError("no points")
    k = len(points[0])
    if k not in (2, 3, 4):
        raise HullError(f"unsupported hull dimension {k}")

    simplex = _initial_simplex(points, k)
    # Strictly interior reference point, kept as (sum, count) to stay integral.
    ref_sum = tuple(sum(points[i][c] for i in simplex) for c in range(k))
    ref_den = k + 1

    facets: dict[int, _Facet] = {}
    # each live facet's plane as one flat int tuple, normal + (offset,), for
    # the inline visibility tests below
    planes: dict[int, IntVec] = {}
    ridge_owners: dict[frozenset[int], list[int]] = {}
    next_id = 0

    def oriented(verts: tuple[int, ...]) -> _Facet:
        p0 = points[verts[0]]
        diffs = [tuple(a - b for a, b in zip(points[v], p0)) for v in verts[1:]]
        n = facet_normal(diffs, k)
        c = _dot(n, p0)
        side = _dot(n, ref_sum) - c * ref_den
        if side > 0:
            n = tuple(-x for x in n)
            c = -c
        elif side == 0:
            raise HullError("reference point landed on a facet hyperplane")
        return _Facet(verts, n, c)

    def add_facet(f: _Facet) -> None:
        nonlocal next_id
        fid = next_id
        next_id += 1
        facets[fid] = f
        planes[fid] = f.normal + (f.offset,)
        for drop in range(k):
            ridge = frozenset(f.vertices[:drop] + f.vertices[drop + 1:])
            ridge_owners.setdefault(ridge, []).append(fid)

    def remove_facet(fid: int) -> None:
        f = facets.pop(fid)
        del planes[fid]
        for drop in range(k):
            ridge = frozenset(f.vertices[:drop] + f.vertices[drop + 1:])
            owners = ridge_owners[ridge]
            owners.remove(fid)
            if not owners:
                del ridge_owners[ridge]

    for drop in range(k + 1):
        verts = tuple(simplex[:drop] + simplex[drop + 1:])
        add_facet(oriented(verts))

    in_simplex = set(simplex)
    for ip, p in enumerate(points):
        if ip in in_simplex:
            continue
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
        visible_set = set(visible)
        horizon: list[frozenset[int]] = []
        for fid in visible:
            f = facets[fid]
            for drop in range(k):
                ridge = frozenset(f.vertices[:drop] + f.vertices[drop + 1:])
                owners = ridge_owners[ridge]
                if len(owners) != 2:
                    raise HullError("hull boundary lost ridge pairing")
                other = owners[0] if owners[1] == fid else owners[1]
                if other not in visible_set:
                    horizon.append(ridge)
        for fid in visible:
            remove_facet(fid)
        for ridge in horizon:
            add_facet(oriented(tuple(sorted(ridge)) + (ip,)))

    return list(facets.values())


def hull_full_dim(points: Sequence[IntVec]) -> IntHull:
    """Convex hull of integer points that affinely span their space."""
    # Merge coplanar simplicial facets by canonical oriented hyperplane.
    merged: dict[tuple[IntVec, int], set[int]] = {}
    for f in _simplicial_facets(points):
        g = gcd(*f.normal, f.offset)
        key = (tuple(x // g for x in f.normal), f.offset // g)
        merged.setdefault(key, set()).update(f.vertices)
    k = len(points[0])

    # Incidence is read off the merged sets, with no rescan: hull ∩ H is the
    # union of the simplicial facets on H, so a true vertex is in the set of
    # every facet it is tight on (full rank there), and a candidate that is
    # not extreme keeps rank < k on any subset of its tight normals.
    active: dict[int, list[IntVec]] = {}
    for (n, _), verts in merged.items():
        for v in verts:
            active.setdefault(v, []).append(n)
    true_vertices = sorted(
        v for v, ns in active.items() if len(ns) >= k and int_rank(ns) == k
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
