"""Exact rational geometry kernel.

Scalars are `fractions.Fraction`; points and vectors are plain tuples of
Fractions with a fixed ambient dimension.  Everything in this module is
exact: no floats, no square roots.  Angle-like questions elsewhere in the
package are phrased as squared-cosine or cross-sign comparisons so they
never leave rational arithmetic; bases are kept orthogonal rather than
orthonormal for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, Sequence

Point = tuple[Fraction, ...]
Vector = tuple[Fraction, ...]

ZERO = Fraction(0)
ONE = Fraction(1)
# The bound on every number read from outside (body specs, vector flags, OFF
# coordinates): beyond it the float oracles overflow when they square one.
MAX_MAGNITUDE = 1e100


class GeometryError(ValueError):
    """Base class for exact-kernel errors."""


class DimensionMismatch(GeometryError):
    """Operands live in different ambient dimensions."""


def frac(value: int | str | Fraction) -> Fraction:
    """Exact scalar from an int, Fraction, or string like '3/4' or '-0.25'.

    Floats are rejected on purpose: a binary float usually encodes a
    different rational than the decimal the caller had in mind.  Decimal
    strings are exact in base 10 and go through Fraction's own parser.
    A Fraction is returned as it is.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool) or isinstance(value, float):
        raise TypeError(f"refusing inexact scalar {value!r}; pass int, str, or Fraction")
    return Fraction(value)


def as_point(coords: Iterable[int | str | Fraction]) -> Point:
    return tuple(frac(c) for c in coords)


# A vector is representationally a point; the alias marks intent at call sites.
as_vector = as_point


def require_same_dim(a: Sequence, b: Sequence) -> None:
    if len(a) != len(b):
        raise DimensionMismatch(f"dimension mismatch: {len(a)} vs {len(b)}")


def vadd(a: Vector, b: Vector) -> Vector:
    require_same_dim(a, b)
    return tuple(x + y for x, y in zip(a, b))


def vsub(a: Vector, b: Vector) -> Vector:
    require_same_dim(a, b)
    return tuple(x - y for x, y in zip(a, b))


def vscale(v: Vector, s: Fraction) -> Vector:
    return tuple(x * s for x in v)


def vdot(a: Vector, b: Vector) -> Fraction:
    require_same_dim(a, b)
    return sum((x * y for x, y in zip(a, b)), ZERO)


def norm2(v: Vector) -> Fraction:
    """Squared euclidean length (exact; the length itself usually is not)."""
    return vdot(v, v)


def dist2(p: Point, q: Point) -> Fraction:
    return norm2(vsub(p, q))


def is_zero_vector(v: Vector) -> bool:
    return all(x == 0 for x in v)


def int_scaled(vectors: Iterable[Sequence[Fraction]]) -> tuple[list[list[int]], int]:
    """The vectors times den, as ints, and den: the lcm of all denominators.

    den is positive, so a linear or quadratic form of the scaled vectors has
    the sign of the rational one, scaled by a power of den.
    """
    vectors = list(vectors)
    den = lcm(*[x.denominator for v in vectors for x in v])
    return [[x.numerator * (den // x.denominator) for x in v] for v in vectors], den


def cross3(a: Vector, b: Vector) -> Vector:
    if len(a) != 3 or len(b) != 3:
        raise DimensionMismatch("cross3 needs 3-dimensional vectors")
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


# ---------------------------------------------------------------------------
# linear systems


def _eliminate(matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]):
    """Forward elimination; returns (rows, pivots) with rows = [coeffs + [b]]."""
    m = len(matrix)
    if m != len(rhs):
        raise DimensionMismatch("matrix and right-hand side disagree on row count")
    n = len(matrix[0]) if m else 0
    rows = [[frac(x) for x in row] + [frac(b)] for row, b in zip(matrix, rhs)]
    for row in rows:
        if len(row) != n + 1:
            raise DimensionMismatch("ragged matrix")
    pivots: list[tuple[int, int]] = []  # (row, col)
    r = 0
    for c in range(n):
        pivot = next((i for i in range(r, m) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        rows[r] = [x / inv for x in rows[r]]
        for i in range(m):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    return rows, pivots, n


def solve_particular(matrix, rhs) -> tuple[Fraction, ...] | None:
    """One exact solution of matrix @ x = rhs, with free variables at 0.

    None when the system is inconsistent.  A caller that needs the unique
    solution checks the rank first (`hull.int_pivots` on integer rows).
    """
    rows, pivots, n = _eliminate(matrix, rhs)
    pivot_rows = {r for r, _ in pivots}
    if any(row[n] != 0 for i, row in enumerate(rows) if i not in pivot_rows):
        return None
    values = [ZERO] * n
    for r, c in pivots:
        values[c] = rows[r][n]
    return tuple(values)


def nullspace(matrix: Sequence[Sequence[Fraction]]) -> tuple[Vector, ...]:
    """Exact basis of {x : matrix @ x = 0} (one vector per free column)."""
    if not matrix:
        raise GeometryError("nullspace of an empty matrix is ambiguous")
    rows, pivots, n = _eliminate(matrix, [ZERO] * len(matrix))
    pivot_cols = {c: r for r, c in pivots}
    free_cols = [c for c in range(n) if c not in pivot_cols]
    basis = []
    for fc in free_cols:
        v = [ZERO] * n
        v[fc] = ONE
        for c, r in pivot_cols.items():
            v[c] = -rows[r][fc]
        basis.append(tuple(v))
    return tuple(basis)


# ---------------------------------------------------------------------------
# orthogonalization and flats


def orthogonalize(vectors: Iterable[Vector]) -> tuple[Vector, ...]:
    """Gram-Schmidt without normalization.

    Keeps coordinates rational (no square roots); dependent inputs are
    dropped, so the result is a linearly independent orthogonal family
    spanning the same subspace.
    """
    basis: list[Vector] = []
    for v in vectors:
        w = tuple(frac(x) for x in v)
        for b in basis:
            w = vsub(w, vscale(b, vdot(w, b) / norm2(b)))
        if not is_zero_vector(w):
            basis.append(w)
    return tuple(basis)


@dataclass(frozen=True)
class AffineFlat:
    """Affine flat: base point + pairwise-orthogonal direction basis.

    The basis is orthogonal, not orthonormal; chart coordinates of a point
    on the flat are the exact coefficients against this basis.
    """

    base: Point
    basis: tuple[Vector, ...]

    def __post_init__(self):
        d = len(self.base)
        if not self.basis:
            raise GeometryError("flat needs at least one direction")
        for v in self.basis:
            if len(v) != d:
                raise DimensionMismatch("flat basis dimension differs from base point")
            if is_zero_vector(v):
                raise GeometryError("flat basis contains the zero vector")
        if len(self.basis) > d:
            raise GeometryError("flat dimension exceeds ambient dimension")
        for i, u in enumerate(self.basis):
            for v in self.basis[i + 1:]:
                if vdot(u, v) != 0:
                    raise GeometryError("flat basis must be pairwise orthogonal")

    @classmethod
    def spanning(cls, base: Iterable, directions: Iterable[Iterable]) -> "AffineFlat":
        """Flat through base spanned by arbitrary directions (orthogonalized)."""
        b = as_point(base)
        dirs = orthogonalize([as_vector(v) for v in directions])
        if not dirs:
            raise GeometryError("directions span nothing")
        return cls(b, dirs)

    @classmethod
    def from_equations(cls, normals, offsets) -> "AffineFlat":
        """The flat {x : N x = o} for independent normal rows N: through one
        solution, spanned by the nullspace of N."""
        return cls.spanning(solve_particular(normals, offsets), nullspace(normals))

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def basis_norm2s(self) -> tuple[Fraction, ...]:
        """Squared lengths of the basis vectors, computed once per flat.

        Not a field, so equality and hashing still see only base and basis.
        """
        return tuple(norm2(b) for b in self.basis)

    @property
    def ambient_dim(self) -> int:
        return len(self.base)

    def coordinates(self, point: Point) -> tuple[Fraction, ...] | None:
        """Chart coordinates of a point on the flat; None if it is off the flat."""
        if len(point) != self.ambient_dim:
            raise DimensionMismatch("point dimension differs from flat")
        coeffs = self.projected_coordinates(point)
        if self.point_at(coeffs) != point:
            return None
        return coeffs

    def point_at(self, coeffs: Sequence[Fraction]) -> Point:
        if len(coeffs) != self.dim:
            raise DimensionMismatch("coefficient count differs from flat dimension")
        p = self.base
        for c, b in zip(coeffs, self.basis):
            p = vadd(p, vscale(b, frac(c)))
        return p

    def project_point(self, point: Point) -> Point:
        """Orthogonal projection of any ambient point onto the flat."""
        return self.point_at(self.projected_coordinates(point))

    def projected_coordinates(self, point: Point) -> tuple[Fraction, ...]:
        """Chart coordinates of the orthogonal projection of any point."""
        rel = vsub(point, self.base)
        return tuple(
            vdot(rel, b) / n2 for b, n2 in zip(self.basis, self.basis_norm2s)
        )

    @cached_property
    def _grid_basis(self) -> tuple[tuple[tuple[int, ...], ...], tuple[Fraction, ...]]:
        """Each basis vector b_j as coprime ints B_j = b_j / s_j (s_j > 0),
        and r_j = 1 / (s_j |B_j|^2), so that x.b_j / |b_j|^2 = r_j (x.B_j).
        Computed once per flat, like `basis_norm2s`."""
        ints, rs = [], []
        for b in self.basis:
            den = lcm(*[x.denominator for x in b])
            row = [x.numerator * (den // x.denominator) for x in b]
            g = gcd(*row)
            row = tuple(x // g for x in row)
            ints.append(row)
            rs.append(Fraction(den, g * sum(map(mul, row, row))))
        return tuple(ints), tuple(rs)

    def chart_grid(self, points: Iterable[Sequence[Fraction]]):
        """`projected_coordinates` of many points at once, on an integer grid.

        Returns (rows, factors): with D the lcm of every denominator of the
        points and the base, row i is ((D p_i - D base) . B_j)_j over the
        basis vectors scaled to coprime ints, and chart coordinate j of p_i
        is rows[i][j] * factors[j].  Every factor is positive, so the rows
        are the chart points under a positive scaling of each axis: signs,
        orientations, hull faces and the lexicographic order carry over.
        """
        pts = list(points)
        d = self.ambient_dim
        for p in pts:
            if len(p) != d:
                raise DimensionMismatch("point dimension differs from flat")
        return self._int_chart_grid(*int_scaled([self.base, *pts]))

    def _int_chart_grid(self, ints, den: int):
        """`chart_grid` of the points whose ints over den are ints[1:], with
        the base's ints first (as `int_scaled([base, *points])` gives them)."""
        basis, rs = self._grid_basis
        offsets = [sum(map(mul, ints[0], b)) for b in basis]
        rows = [
            tuple(sum(map(mul, p, b)) - o for b, o in zip(basis, offsets))
            for p in ints[1:]
        ]
        return rows, tuple(r / den for r in rs)

    def normal_directions(self) -> tuple[Vector, ...]:
        """Orthogonal basis of the orthogonal complement of the direction space."""
        comp = nullspace(self.basis)
        if not comp:
            return ()
        return orthogonalize(comp)

    def contains(self, point: Point) -> bool:
        return self.coordinates(point) is not None


@lru_cache(maxsize=8)
def identity_flat(dim: int) -> AffineFlat:
    """The whole space as a flat with the standard basis chart.

    One instance per dimension is built and shared: an `AffineFlat` is
    frozen, and its cached values depend on its fields alone.
    """
    base = tuple(ZERO for _ in range(dim))
    basis = tuple(
        tuple(ONE if i == j else ZERO for j in range(dim)) for i in range(dim)
    )
    return AffineFlat(base, basis)
