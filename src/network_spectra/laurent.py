"""Exact bivariate Laurent polynomials over rationals and lattice polygons.

Coefficients are ``fractions.Fraction`` throughout; floats are rejected so
that every identity checked downstream is an exact equality.  A polynomial is
a sparse map from exponent pairs ``(i, j)`` to coefficients, with a
deterministic (sorted) term order for serialization.  Its one invariant is
that every stored coefficient is a nonzero ``Fraction``: ``__init__`` keeps it
for caller input, and every operation builds its result through the one
private constructor ``LaurentPoly2._normal``, which drops zero terms.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

import numpy as np

from .errors import NetworkSpectraError

Exponent = tuple[int, int]


def _as_coeff(x):
    """Coerce an exact scalar to Fraction; reject floats."""
    if isinstance(x, float):
        raise TypeError("floating coefficients are not allowed in exact algebra")
    if isinstance(x, Fraction):
        return x
    return Fraction(x)


class LaurentPoly2:
    """A Laurent polynomial in two variables z, w with rational coefficients."""

    __slots__ = ("_c", "_f")

    def __init__(self, coeffs: Mapping[Exponent, object] | None = None):
        c: dict[Exponent, Fraction] = {}
        for (i, j), v in (coeffs or {}).items():
            key, v = (int(i), int(j)), _as_coeff(v)
            c[key] = c[key] + v if key in c else v
        self._c = {k: v for k, v in c.items() if v}

    @staticmethod
    def _normal(c: dict[Exponent, Fraction]) -> "LaurentPoly2":
        """The polynomial of an exponent -> Fraction dict, its zero terms dropped."""
        out = LaurentPoly2.__new__(LaurentPoly2)
        out._c = {k: v for k, v in c.items() if v}
        return out

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "LaurentPoly2":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly2":
        return cls({(0, 0): 1})

    @classmethod
    def monomial(cls, i: int, j: int, coeff=1) -> "LaurentPoly2":
        return cls({(i, j): coeff})

    @classmethod
    def constant(cls, coeff) -> "LaurentPoly2":
        return cls({(0, 0): coeff})

    # -- basic protocol ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._c)

    def coeff(self, i: int, j: int) -> Fraction:
        return self._c.get((i, j), Fraction(0))

    def terms(self) -> Iterator[tuple[Exponent, Fraction]]:
        """Terms in sorted exponent order (deterministic)."""
        for key in sorted(self._c):
            yield key, self._c[key]

    def __len__(self) -> int:
        return len(self._c)

    def __eq__(self, other) -> bool:
        if isinstance(other, LaurentPoly2):
            return self._c == other._c
        if isinstance(other, (int, Fraction)):
            return self == LaurentPoly2.constant(other)
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self._c.items()))

    def __repr__(self):
        return f"LaurentPoly2({self})"

    def __str__(self):
        if not self._c:
            return "0"
        parts = []
        for (i, j), v in self.terms():
            mono = "".join(
                f"{name}^{e}" if e not in (0, 1) else (name if e == 1 else "")
                for name, e in (("z", i), ("w", j))
            )
            if not mono:
                parts.append(str(v))
            elif v == 1:
                parts.append(mono)
            elif v == -1:
                parts.append(f"-{mono}")
            else:
                parts.append(f"{v}*{mono}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    # -- ring operations ---------------------------------------------------

    def __add__(self, other) -> "LaurentPoly2":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        c = dict(self._c)
        for k, v in other._c.items():
            c[k] = c[k] + v if k in c else v
        return LaurentPoly2._normal(c)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly2":
        return LaurentPoly2._normal({k: -v for k, v in self._c.items()})

    def __sub__(self, other) -> "LaurentPoly2":
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other) -> "LaurentPoly2":
        if isinstance(other, (int, Fraction)):
            v = _as_coeff(other)
            return LaurentPoly2._normal({k: c * v for k, c in self._c.items()})
        if not isinstance(other, LaurentPoly2):
            return NotImplemented
        c: dict[Exponent, Fraction] = {}
        for (i1, j1), v1 in self._c.items():
            for (i2, j2), v2 in other._c.items():
                k = (i1 + i2, j1 + j2)
                c[k] = c[k] + v1 * v2 if k in c else v1 * v2
        return LaurentPoly2._normal(c)

    __rmul__ = __mul__

    @staticmethod
    def _coerce(other):
        if isinstance(other, LaurentPoly2):
            return other
        if isinstance(other, (int, Fraction)):
            return LaurentPoly2.constant(other)
        return NotImplemented

    # -- the operations used by the spectral machinery ----------------------

    def involution(self) -> "LaurentPoly2":
        """Substitute (z, w) -> (1/z, 1/w); an involution on the ring."""
        return LaurentPoly2._normal({(-i, -j): v for (i, j), v in self._c.items()})

    def derivative(self, var: str) -> "LaurentPoly2":
        """Formal partial derivative with respect to ``"z"`` or ``"w"``."""
        if var == "z":
            return LaurentPoly2._normal({(i - 1, j): i * v for (i, j), v in self._c.items()})
        if var == "w":
            return LaurentPoly2._normal({(i, j - 1): j * v for (i, j), v in self._c.items()})
        raise ValueError(f"unknown variable {var!r}")

    def floats(self) -> "FloatView":
        """The float view, built on first use and cached in a slot.  Exact
        operations never read it; each returns a new polynomial with its own."""
        try:
            return self._f
        except AttributeError:
            pass
        c = self._c or {(0, 0): Fraction(0)}  # the zero polynomial: one zero entry
        imin, jmin = min(i for i, _ in c), min(j for _, j in c)
        C = np.zeros((max(j for _, j in c) - jmin + 1, max(i for i, _ in c) - imin + 1))
        for (i, j), v in c.items():
            C[j - jmin, i - imin] = float(v)
        self._f = FloatView(imin, jmin, C)
        return self._f

    def newton_polygon(self) -> "NewtonPolygon":
        if not self._c:
            raise NetworkSpectraError("the zero polynomial has no Newton polygon")
        return NewtonPolygon.from_points(self._c.keys())

    # -- serialization -------------------------------------------------------

    def to_json_terms(self) -> list[list]:
        return [[i, j, str(v)] for (i, j), v in self.terms()]


class FloatView:
    """Dense float coefficients of a Laurent polynomial, for the float path.

    ``C[j - jmin, i - imin]`` is the coefficient of z^i w^j and ``A = |C|``.
    """

    __slots__ = ("imin", "jmin", "C", "A", "_t")

    def __init__(self, imin: int, jmin: int, C: np.ndarray):
        self.imin, self.jmin, self.C, self.A = imin, jmin, C, np.abs(C)

    def floats(self) -> "FloatView":
        return self

    def transposed(self) -> "FloatView":
        """The view with the roles of z and w swapped, built once."""
        try:
            return self._t
        except AttributeError:
            self._t = FloatView(self.jmin, self.imin, np.ascontiguousarray(self.C.T))
            return self._t

    def fiber(self, z: complex | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Coefficients of p(z, .) by w-exponent from jmin, and the same sums
        taken over |coefficient| * |z|^i (the fiber's residual yardstick).  An
        array of F values of z gives (F, m) arrays, a scalar z 1-D ones."""
        z = np.asarray(z, dtype=complex)[..., None]
        e = np.arange(self.imin, self.imin + self.C.shape[1])
        return z**e @ self.C.T, np.abs(z) ** e @ self.A.T

    def at(self, z: complex, w: complex) -> tuple[complex, float]:
        """p(z, w) and the sum of |coefficient * monomial| there."""
        a, s = self.fiber(z)
        w = complex(w)
        e = np.arange(self.jmin, self.jmin + len(a))
        return complex(a @ w**e), float(s @ abs(w) ** e)


def _cross(o: Exponent, a: Exponent, b: Exponent) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


class NewtonPolygon:
    """Convex hull of a finite set of lattice points, in ccw vertex order.

    The vertex list is canonical: it starts at the lexicographically smallest
    vertex and runs counterclockwise.  Lattice-point counts are computed both
    by Pick's theorem and by direct enumeration; a mismatch raises (it would
    mean a hull bug).
    """

    __slots__ = ("vertices",)

    def __init__(self, vertices: Iterable[Exponent]):
        self.vertices: tuple[Exponent, ...] = tuple((int(x), int(y)) for x, y in vertices)

    @classmethod
    def from_points(cls, points: Iterable[Exponent]) -> "NewtonPolygon":
        pts = sorted({(int(x), int(y)) for x, y in points})
        if not pts:
            raise ValueError("no points")
        if len(pts) == 1:
            return cls(pts)
        lower: list[Exponent] = []
        for p in pts:
            while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
                lower.pop()
            lower.append(p)
        upper: list[Exponent] = []
        for p in reversed(pts):
            while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
                upper.pop()
            upper.append(p)
        hull = lower[:-1] + upper[:-1]
        if len(hull) < 2:  # all points collinear -> keep the two extremes
            hull = [pts[0], pts[-1]]
        # canonical rotation: start at lexicographic minimum
        k = hull.index(min(hull))
        return cls(hull[k:] + hull[:k])

    # -- basic geometry ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, NewtonPolygon) and self.vertices == other.vertices

    def __hash__(self):
        return hash(self.vertices)

    def __repr__(self):
        return f"NewtonPolygon({list(self.vertices)})"

    @property
    def is_degenerate(self) -> bool:
        return len(self.vertices) < 3

    def edge_vectors(self) -> list[Exponent]:
        """Boundary edge vectors in ccw order (empty for degenerate hulls)."""
        if self.is_degenerate:
            return []
        n = len(self.vertices)
        return [
            (self.vertices[(k + 1) % n][0] - self.vertices[k][0],
             self.vertices[(k + 1) % n][1] - self.vertices[k][1])
            for k in range(n)
        ]

    def primitive_edges(self) -> list[tuple[Exponent, int]]:
        """(primitive vector, lattice length) for each ccw boundary edge."""
        out = []
        for vx, vy in self.edge_vectors():
            g = math.gcd(abs(vx), abs(vy))
            out.append(((vx // g, vy // g), g))
        return out

    def twice_area(self) -> int:
        if self.is_degenerate:
            return 0
        a = 0
        n = len(self.vertices)
        for k in range(n):
            x1, y1 = self.vertices[k]
            x2, y2 = self.vertices[(k + 1) % n]
            a += x1 * y2 - x2 * y1
        return a

    def contains(self, p: Exponent, strict: bool = False) -> bool:
        if len(self.vertices) == 1:
            return (not strict) and tuple(p) == self.vertices[0]
        if len(self.vertices) == 2:
            a, b = self.vertices
            if strict:
                return False
            if _cross(a, b, p) != 0:
                return False
            return min(a[0], b[0]) <= p[0] <= max(a[0], b[0]) and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
        n = len(self.vertices)
        for k in range(n):
            c = _cross(self.vertices[k], self.vertices[(k + 1) % n], p)
            if c < 0 or (strict and c == 0):
                return False
        return True

    # -- lattice point counting ----------------------------------------------

    def boundary_lattice_count(self) -> int:
        if len(self.vertices) == 1:
            return 1
        if len(self.vertices) == 2:
            (x1, y1), (x2, y2) = self.vertices
            return math.gcd(abs(x2 - x1), abs(y2 - y1)) + 1
        return sum(g for _, g in self.primitive_edges())

    def interior_lattice_count(self) -> int:
        """Interior count, by Pick's theorem cross-checked against enumeration."""
        by_pick = self._interior_by_pick()
        by_enum = len(self.interior_lattice_points())
        if by_pick != by_enum:
            raise AssertionError(
                f"Pick ({by_pick}) and enumeration ({by_enum}) disagree on {self!r}"
            )
        return by_enum

    def _interior_by_pick(self) -> int:
        if self.is_degenerate:
            return 0
        # Pick: A = I + B/2 - 1  =>  I = (2A - B + 2) / 2
        return (self.twice_area() - self.boundary_lattice_count() + 2) // 2

    def _bounding_box(self):
        xs = [v[0] for v in self.vertices]
        ys = [v[1] for v in self.vertices]
        return min(xs), max(xs), min(ys), max(ys)

    def interior_lattice_points(self) -> list[Exponent]:
        if self.is_degenerate:
            return []
        x0, x1, y0, y1 = self._bounding_box()
        return [
            (x, y)
            for x in range(x0, x1 + 1)
            for y in range(y0, y1 + 1)
            if self.contains((x, y), strict=True)
        ]

    # -- symmetry -------------------------------------------------------------

    def is_centrally_symmetric(self) -> bool:
        """Symmetric about the origin (vertex set closed under negation)."""
        vs = set(self.vertices)
        return vs == {(-x, -y) for x, y in vs}

    def to_json(self) -> list[list[int]]:
        return [list(v) for v in self.vertices]
