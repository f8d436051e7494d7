"""The line-bundle Laplacian and its exact characteristic polynomial.

Each dart u -> v with displacement (d1, d2) and conductance c adds c to the
diagonal entry of u and subtracts c * z^d1 w^d2 from the (u, v) entry; a loop
therefore contributes 2c and -c (chi^d + chi^-d) to its vertex's cell.  The
determinant is exact: a subset DP for n <= 8 and, above, interpolation of its
values on an integer grid sized by the rows' degrees (``_det``, ``_det_grid``).
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Sequence

import numpy as np

from .errors import SIZE_BOUND, InputError, NetworkSpectraError, check_size
from .graph_core import TorusGraph
from .laurent import LaurentPoly2

log = logging.getLogger(__name__)


@dataclass
class LaplacianMatrix:
    graph: TorusGraph
    conductances: dict
    entries: tuple[tuple[LaurentPoly2, ...], ...]

    @property
    def size(self) -> int:
        return len(self.entries)

    def entry(self, u: int, v: int) -> LaurentPoly2:
        return self.entries[u][v]

    @cached_property
    def darts(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-dart (tail, head, complex conductance, displacement), built once."""
        g = self.graph
        ds = range(g.n_darts)
        ends = np.array([(g.tail_of(d), g.head_of(d), *g.disp(d)) for d in ds], int).reshape(-1, 4)
        c = np.array([complex(self.conductances[g.edge_of(d)]) for d in ds])
        return ends[:, 0], ends[:, 1], c, ends[:, 2:]

    def transposed_involution_holds(self) -> bool:
        n = self.size
        return all(
            self.entries[u][v] == self.entries[v][u].involution()
            for u in range(n)
            for v in range(n)
        )


def build_laplacian(graph: TorusGraph, conductances: Mapping[int, Fraction]) -> LaplacianMatrix:
    n = graph.n_vertices
    entries = [[LaurentPoly2.zero() for _ in range(n)] for _ in range(n)]
    for d in range(graph.n_darts):
        u, v = graph.tail_of(d), graph.head_of(d)
        c = Fraction(conductances[graph.edge_of(d)])
        if c == 0:
            raise InputError(f"conductance of edge {graph.edge_of(d)} is zero")
        i, j = graph.disp(d)
        entries[u][u] = entries[u][u] + LaurentPoly2.constant(c)
        entries[u][v] = entries[u][v] - LaurentPoly2.monomial(i, j, c)
    return LaplacianMatrix(graph, dict(conductances), tuple(tuple(row) for row in entries))


def _det(rows: Sequence[Sequence[LaurentPoly2]]) -> LaurentPoly2:
    """Exact determinant: the subset DP for n <= 8, ``_det_grid`` above.  On a 2-core
    x86 host the DP's 2^n table lost above 8 (tri4x3, n = 12: 0.93 s, grid 0.015 s)
    but won on the thousand-bit coefficients of Y-Delta evolutions (n <= 6): tri2x2
    at 2193 bits 66 ms against 95 ms on the grid, tri3x2 at 1298 bits 200 vs 358."""
    return (_det_dp if len(rows) <= 8 else _det_grid)(rows)


def _det_dp(rows: Sequence[Sequence[LaurentPoly2]]) -> LaurentPoly2:
    """Exact determinant by column-subset dynamic programming.

    O(2^n * n) ring operations; avoids exact division entirely.
    """
    n = len(rows)
    log.debug("det: subset DP, V=%d", n)
    if n == 0:
        return LaurentPoly2.one()
    minors = {0: LaurentPoly2.one()}
    for mask in range(1, 1 << n):
        k = mask.bit_count() - 1  # row index to expand along
        acc = LaurentPoly2.zero()
        sign = -1 if k & 1 else 1  # (-1)^(k + column position)
        m = mask
        while m:
            j = (m & -m).bit_length() - 1
            entry = rows[k][j]
            if entry:
                term = entry * minors[mask ^ (1 << j)]
                acc = acc + term if sign > 0 else acc - term
            sign = -sign
            m &= m - 1
        minors[mask] = acc
    return minors[(1 << n) - 1]


def _det_grid(rows: Sequence[Sequence[LaurentPoly2]]) -> LaurentPoly2:
    """Exact determinant by integer evaluation and Newton interpolation: row u
    times d_u / (z^a_u w^b_u) (its denominators' lcm, least exponents) is an
    integer polynomial row, so det M has z-degree <= Dz, the sum of the rows'
    z-ranges (w likewise), and its (Dz+1) x (Dw+1) integer grid values fix it."""
    n, ints, za, wb, scale, dz, dw = len(rows), [], 0, 0, 1, 0, 0
    for row in rows:
        t = [(v, i, j, c) for v, e in enumerate(row) for (i, j), c in e.terms()]
        iz, jw = [x[1] for x in t] or [0], [x[2] for x in t] or [0]
        d = math.lcm(*(x[3].denominator for x in t))
        ints.append([(v, i - min(iz), j - min(jw), c.numerator * (d // c.denominator)) for v, i, j, c in t])
        za, wb, scale = za + min(iz), wb + min(jw), scale * d
        dz, dw = dz + max(iz) - min(iz), dw + max(jw) - min(jw)
    log.debug("det: grid, V=%d, grid %dx%d", n, dz + 1, dw + 1)
    zs, ws = range(-(dz // 2), dz - dz // 2 + 1), range(-(dw // 2), dw - dw // 2 + 1)
    by_z = []  # by_z[k][j]: the w^j coefficient of det M(zs[k], w)
    for z in zs:
        ms = [[[0] * n for _ in range(n)] for _ in ws]
        for m, w in zip(ms, ws):
            for row, t in zip(m, ints):
                for v, i, j, c in t:
                    row[v] += c * z**i * w**j
        by_z.append(_interpolate(ws, [_bareiss(m) for m in ms]))
    return LaurentPoly2({(i + za, j + wb): Fraction(c, scale)
                         for j, col in enumerate(zip(*by_z)) for i, c in enumerate(_interpolate(zs, col))})


def _bareiss(m: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination, in place."""
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        r = next((r for r in range(k, n) if m[r][k]), None)
        if r is None:
            return 0  # the column is zero on and below the diagonal
        m[k], m[r], sign = m[r], m[k], sign if r == k else -sign
        pivot, top = m[k][k], m[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * pivot - f * top[j]) // prev
        prev = pivot
    return sign * m[-1][-1]


def _interpolate(xs: Sequence[int], ys: Sequence[int]) -> list[int]:
    """Integer coefficients, lowest first, through (xs, ys); divided differences stay integral."""
    dd = list(ys)
    for k in range(1, len(xs)):
        dd[k:] = [(b - a) // (x - y) for a, b, x, y in zip(dd[k - 1:], dd[k:], xs[k:], xs)]
    coeffs = dd[-1:]
    for x, c in zip(xs[-2::-1], dd[-2::-1]):  # Horner: coeffs * (t - x) + c
        coeffs = [c - x * coeffs[0]] + [lo - x * hi for lo, hi in zip(coeffs, coeffs[1:])] + coeffs[-1:]
    return coeffs


def charpoly(L: LaplacianMatrix, max_vertices: int = SIZE_BOUND) -> LaurentPoly2:
    """det of the twisted Laplacian as an exact Laurent polynomial."""
    check_size(L.size, "vertices", max_vertices)
    return _det(L.entries)


def principal_minor(L: LaplacianMatrix, v0: int) -> LaurentPoly2:
    """det of the Laplacian with the row and column of ``v0`` removed."""
    if L.size < 2:
        raise NetworkSpectraError("the principal minor needs at least two vertices")
    if not 0 <= v0 < L.size:
        raise InputError(f"vertex {v0} is out of range 0..{L.size - 1}")
    keep = [v for v in range(L.size) if v != v0]
    rows = [[L.entries[u][v] for v in keep] for u in keep]
    return _det(rows)


@dataclass
class NodeReport:
    """Exact diagnostics of the characteristic polynomial at (z, w) = (1, 1)."""

    value: Fraction
    gradient: tuple[Fraction, Fraction]
    hessian: tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]
    hessian_det: Fraction

    @property
    def on_curve(self) -> bool:
        return self.value == 0

    @property
    def is_singular(self) -> bool:
        return self.on_curve and self.gradient == (0, 0)

    @property
    def is_node(self) -> bool:
        return self.is_singular and self.hessian_det != 0

    def to_json(self) -> dict:
        return {
            "value": str(self.value),
            "gradient": [str(g) for g in self.gradient],
            "hessian": [[str(x) for x in row] for row in self.hessian],
            "hessian_det": str(self.hessian_det),
            "is_node": self.is_node,
        }


def node_check(p: LaurentPoly2) -> NodeReport:
    value = p.eval(1, 1)
    pz = p.derivative("z")
    pw = p.derivative("w")
    grad = (pz.eval(1, 1), pw.eval(1, 1))
    h11 = pz.derivative("z").eval(1, 1)
    h12 = pz.derivative("w").eval(1, 1)
    h22 = pw.derivative("w").eval(1, 1)
    det = h11 * h22 - h12 * h12
    return NodeReport(value, grad, ((h11, h12), (h12, h22)), det)


def laplacian_matrix_at(L: LaplacianMatrix, z: complex, w: complex) -> np.ndarray:
    """Numeric n x n Laplacian at a point of (C*)^2, from the cached dart arrays."""
    tail, head, c, disp = L.darts
    z, w = complex(z), complex(w)
    m = np.zeros((L.size, L.size), dtype=complex)
    np.add.at(m, (tail, tail), c)
    np.add.at(m, (tail, head), -c * z ** disp[:, 0] * w ** disp[:, 1])
    return m
