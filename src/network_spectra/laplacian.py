"""The line-bundle Laplacian and its exact characteristic polynomial.

Each dart u -> v with displacement (d1, d2) and conductance c adds c to the
diagonal entry of u and subtracts c * z^d1 w^d2 from the (u, v) entry; a loop
therefore contributes 2c and -c (chi^d + chi^-d) to its vertex's cell.
``build_laplacian`` sums these in integers: each row is scaled by the lcm of
its conductances' denominators, so no Fraction is added.  The determinant is
exact: a subset DP for n <= 8 or, above, interpolation on an integer grid, both
over those integer rows, and one division at the end (``_det``).  From 4 rows
up the engines get the rows with each column's and each row's content divided
out, which the scale takes back (``_content_free``): conductances that a Y-Delta
program evolves share long factors, and the smaller rows nearly halved the
determinant at tri3x2, while below 4 rows the gcds cost more than the few
products they shorten.  ``charpoly_minors`` takes P, the principal minor
M_{v,v} and the cofactor M_{k,v} from one elimination: Bareiss makes each
intermediate entry a bordered minor (Sylvester's identity), so the subset DP's
table and the grid's trailing 2 x 2 block already hold them.  The resultants
that the spectral divisor is made of take the same interpolation over values
from the subresultant PRS (``_resultant``), and integer coefficient lists their
gcds.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import InputError, NetworkSpectraError
from .graph_core import TorusGraph
from .laurent import Exponent, LaurentPoly2

log = logging.getLogger(__name__)


IntRow = tuple[list[dict[Exponent, int]], int, int, int]


@dataclass
class LaplacianMatrix:
    """``rows[u]`` is (ints, a, b, s): row u is z^a w^b / s times the integer
    polynomials ``ints``, in ``_integer_row``'s form (s > 0 and coprime to the
    ints, least exponents 0); the Laurent ``entries`` are derived on first use."""

    graph: TorusGraph
    conductances: dict
    rows: tuple[IntRow, ...]

    @property
    def size(self) -> int:
        return len(self.rows)

    @cached_property
    def entries(self) -> tuple[tuple[LaurentPoly2, ...], ...]:
        return tuple(
            tuple(LaurentPoly2({(i + a, j + b): Fraction(c, s) for (i, j), c in e.items()}) for e in ints)
            for ints, a, b, s in self.rows
        )

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
    """Integer rows from the darts: row u is scaled by s_u, the lcm of the denominators
    of the conductances at u, so each dart adds its numerator times s_u / denominator
    (``_lcm_cofactors``); ``_normal_row`` then gives what ``_integer_row`` gives for
    the Fraction sums."""
    darts_at: list[list] = [[] for _ in range(graph.n_vertices)]
    for d in range(graph.n_darts):
        c = Fraction(conductances[graph.edge_of(d)])
        if c == 0:
            raise InputError(f"conductance of edge {graph.edge_of(d)} is zero")
        darts_at[graph.tail_of(d)].append((graph.head_of(d), graph.disp(d), c))
    rows = []
    for u, darts in enumerate(darts_at):
        s, cof = _lcm_cofactors(c.denominator for *_, c in darts)
        row: list[dict[Exponent, int]] = [{} for _ in darts_at]
        for v, ij, c in darts:
            x = c.numerator * cof[c.denominator]
            row[u][0, 0] = row[u].get((0, 0), 0) + x
            row[v][ij] = row[v].get(ij, 0) - x
        cells = [{k: x for k, x in e.items() if x} for e in row]
        # With len(darts) + 1 nonzero cells, the diagonal is nonzero and every dart
        # has an off-diagonal cell of its own, holding -x = -n s_u / q for its
        # conductance n / q in lowest terms.  For a prime p of s_u, the dart whose q
        # holds the most of p, as much as s_u does, has p in neither s_u / q nor n,
        # so p does not divide its cell: gcd(s_u, cells) = 1 without computing it.
        rows.append(_normal_row(cells, 0, 0, s, sum(map(len, cells)) == len(darts) + 1))
    return LaplacianMatrix(graph, dict(conductances), tuple(rows))


def _lcm_cofactors(qs: Iterable[int]) -> tuple[int, dict[int, int]]:
    """(s, {q: s // q}) for s the lcm of the positive ints ``qs``, in one pass.

    Each new q, with g = gcd(s, q), grows s by q // g: the cofactors so far are
    multiplied by it and q's is s // g, so no cofactor needs a division of s.  A
    repeated q is skipped (it would cost a full gcd).  On a 2-core x86 host, at
    step 40 of the tri2 cube program (seed 1, 11 300-bit denominators), a row's
    cofactors took 1.7-1.9 ms this way against 2.5-2.9 ms for ``math.lcm`` of the
    distinct denominators and one s // q per q, and the ``evolve`` benchmark pass
    0.425 s against 0.440 s (seed 1, 8 of 8 alternating 40-s pairs)."""
    s, cof = 1, {}
    for q in qs:
        if q in cof:
            continue
        g = math.gcd(s, q)
        f = q // g
        if f > 1:
            for k in cof:
                cof[k] *= f
        cof[q] = s // g
        s *= f
    return s, cof


def _det(rows: Sequence[IntRow]) -> LaurentPoly2:
    """Exact determinant, divided once: ``integer_det``'s D over its scale."""
    return _over(*integer_det(rows))


def _over(d: dict[Exponent, int], scale: Fraction, za: int = 0, wb: int = 0) -> LaurentPoly2:
    """The sum of d_ij z^(i + za) w^(j + wb) / scale, one division a term."""
    p, q = scale.numerator, scale.denominator
    return LaurentPoly2({(i + za, j + wb): Fraction(c * q, p) for (i, j), c in d.items()})


def integer_det(rows: Sequence[IntRow]) -> tuple[dict[Exponent, int], Fraction]:
    """det M as (D, s), integers D_ij != 0 and a rational s > 0: det M = sum of
    D_ij z^i w^j / s.

    Row u of M is z^a_u w^b_u / s_u times an integer polynomial row with exponents
    >= 0 (``LaplacianMatrix.rows``, ``minor_rows``, or ``_integer_row`` of a Laurent
    row).  From 4 rows up, ``_content_free`` divides each column's content, then
    each row's, out of the integer rows, and s is the product of the s_u over the
    product k of those contents; below, k = 1.  The subset DP takes the determinant
    of these rows for n <= 8, ``_det_grid`` above.  On a 2-core x86 host, with
    small signed conductances on lattices, the DP took 2-7 ms at n = 9 against
    3-5 ms on the grid, 37-62 ms at n = 12 against 12-13; with 1300-bit ones it
    won at every n (n = 9: 0.65-3.2 s against 6.5-16 s)."""
    ints = [r for r, *_ in rows]
    za, wb = sum(a for _, a, _, _ in rows), sum(b for *_, b, _ in rows)
    ints, cols, rws = _content_free(ints) if len(ints) >= 4 else (ints, (), ())
    d, = (_det_dp if len(ints) <= 8 else _det_grid)(ints)
    k = math.prod(cols) * math.prod(rws)
    return {(i + za, j + wb): c for (i, j), c in d.items()}, Fraction(math.prod(s for *_, s in rows), k)


def _content_free(ints: Sequence[Sequence[dict]]) -> tuple[list[list[dict]], list[int], list[int]]:
    """(ints', cols, rows) with ints[i][j] = cols[j] * rows[i] * ints'[i][j]: each
    column's content, then each row's, divided out (a zero column or row keeps its
    cells, content 1), so det ints = prod(cols) * prod(rows) * det ints'.

    Evolved conductances share large factors (the Laurent phenomenon of the
    cluster dynamics), and so do the cells of a column or row.  On a 2-core x86
    host, at tri3x2 step 10 of the ``evolve`` seed-1 draw, this cut the rows from
    3864 to 2587 bits and ``integer_det`` from 35 to 18 ms; at tri2x2 step 14
    from 6559 to 4381 bits and 10.7 to 8.0 ms.  Below 4 rows the determinant is a
    handful of products, cheaper than these 2n gcd chains: with the pass at every
    size, 40 tri2 steps took 0.38 s against 0.33."""
    cols = [math.gcd(*(c for row in ints for c in row[j].values())) or 1 for j in range(len(ints))]
    if any(g > 1 for g in cols):
        ints = [[cell if g == 1 else {e: c // g for e, c in cell.items()} for cell, g in zip(row, cols)] for row in ints]
    rows = [math.gcd(*(c for cell in row for c in cell.values())) or 1 for row in ints]
    ints = [row if g == 1 else [{e: c // g for e, c in cell.items()} for cell in row] for row, g in zip(ints, rows)]
    return ints, cols, rows


def _normal_row(row: list[dict[Exponent, int]], a: int, b: int, s: int, coprime: bool = False) -> IntRow:
    """z^a w^b / s times ``row``, in ``_integer_row``'s form: the gcd of s and the
    ints divided out and the least exponents (0 for a zero row) moved into a, b.
    ``coprime``: the caller knows that gcd to be 1, so it is not computed."""
    t = [(i, j, c) for e in row for (i, j), c in e.items()]
    da, db = min((i for i, _, _ in t), default=-a), min((j for _, j, _ in t), default=-b)
    g = 1 if coprime else math.gcd(s, *(c for *_, c in t))
    if da == db == 0 and g == 1:
        return row, a, b, s
    return [{(i - da, j - db): c // g for (i, j), c in e.items()} for e in row], a + da, b + db, s // g


def _integer_row(row: Sequence[LaurentPoly2]) -> IntRow:
    """(row * s / (z^a w^b), a, b, s): s the lcm of the row's denominators, a and b
    its least exponents, so the entries are integer polynomials with exponents >= 0.
    For Laurent rows that do not come from ``build_laplacian``."""
    t = [term for e in row for term in e.terms()]
    a, b = min((i for (i, _), _ in t), default=0), min((j for (_, j), _ in t), default=0)
    d = math.lcm(*(c.denominator for _, c in t))
    return [{(i - a, j - b): c.numerator * (d // c.denominator) for (i, j), c in e.terms()} for e in row], a, b, d


def _det_dp(ints: Sequence[Sequence[dict]], cols: Sequence[int] = ()) -> list[dict[Exponent, int]]:
    """[det, *minors] of integer polynomial rows by column-subset dynamic
    programming: O(2^n * n) polynomial products, no division and no gcd.  The
    table holds every minor of the first n - 1 rows, so the minor without the
    last row and column j, for each j of ``cols``, is read off it."""
    n = len(ints)
    log.debug("det: subset DP, V=%d%s", n, f", {len(cols)} minors" if cols else "")
    minors: list = [{(0, 0): 1}] + [None] * ((1 << n) - 1)
    for mask in range(1, 1 << n):
        k, acc = mask.bit_count() - 1, {}  # expand along row k
        for p, j in enumerate(j for j in range(n) if mask >> j & 1):
            for (a, b), x in ints[k][j].items():
                x = -x if (k + p) & 1 else x  # (-1)^(k + column position)
                for (i, jj), y in minors[mask ^ (1 << j)].items():
                    acc[a + i, b + jj] = acc.get((a + i, b + jj), 0) + x * y
        minors[mask] = acc
    full = (1 << n) - 1
    return [{k: c for k, c in minors[mask].items() if c} for mask in [full, *(full ^ 1 << j for j in cols)]]


def _det_grid(ints: Sequence[Sequence[dict]], cols: Sequence[int] = ()) -> list[dict[Exponent, int]]:
    """[det, *minors] of integer polynomial rows with exponents >= 0 by evaluation
    and Newton interpolation: the z-degree of each is <= Dz, the sum of the rows'
    largest z exponents (w likewise), and its (Dz+1) x (Dw+1) grid values fix it.

    A minor is the one without the last row and column j, for j of ``cols`` (n - 2
    or n - 1).  Both are read off the Bareiss elimination of the determinant: after
    n - 2 steps, row n - 2 of the trailing 2 x 2 block holds them (Sylvester's
    identity), unless a pivot swap moved one of the last two rows.  At such a
    point the first n - 1 rows are eliminated apart."""
    n = len(ints)
    t = [[(v, i, j, c) for v, e in enumerate(row) for (i, j), c in e.items()] for row in ints]
    dz, dw = (sum(max((x[k] for x in r), default=0) for r in t) for k in (1, 2))
    zs, ws = range(-(dz // 2), dz - dz // 2 + 1), range(-(dw // 2), dw - dw // 2 + 1)

    def at(z: int, w: int, rows: list) -> list[list[int]]:
        m = [[0] * n for _ in rows]
        for row, r in zip(m, rows):
            for v, i, j, c in r:
                row[v] += c * z**i * w**j
        return m

    by_z, redone = [], 0  # by_z[k][q][j]: the w^j coefficient of quantity q at zs[k]
    for z in zs:
        vals = []
        for w in ws:
            m = at(z, w, t)
            if not cols:
                vals.append((_bareiss(m),))
                continue
            sign, moved = _eliminate(m, n - 2)
            prev = m[n - 3][n - 3] if n > 2 else 1
            det = sign and sign * (m[-2][-2] * m[-1][-1] - m[-1][-2] * m[-2][-1]) // prev
            top = m
            if sign and moved >= n - 2:
                redone += 1
                top = at(z, w, t[:-1])
                sign, _ = _eliminate(top, n - 2)
            vals.append((det, *(sign * top[n - 2][2 * n - 3 - j] for j in cols)))
        by_z.append([_interpolate(ws, q) for q in zip(*vals)])
    log.debug("det: grid, V=%d, grid %dx%d%s", n, dz + 1, dw + 1,
              f", {len(cols)} minors, {redone} of {len(zs) * len(ws)} points re-eliminated" if cols else "")
    return [{(i, j): c for j, col in enumerate(zip(*q)) for i, c in enumerate(_interpolate(zs, col)) if c}
            for q in zip(*by_z)]


def _eliminate(m: list[list[int]], steps: int) -> tuple[int, int]:
    """``steps`` steps of fraction-free (Bareiss) elimination of an integer matrix
    with at least as many columns as rows, in place, rows swapped for a nonzero
    pivot.  After it, for i, j >= steps, m[i][j] is the minor of rows 0..steps-1, i
    and columns 0..steps-1, j of the matrix with its rows swapped (Sylvester's
    identity).  Returns (sign, moved): sign the swaps' parity, so that sign * m[i][j]
    is that minor of the given rows if every swap stayed above row steps, that is
    if moved, the largest row a swap took, is < steps (-1 if none).  sign is 0 if a
    column had no pivot: then every such minor is 0."""
    n, sign, prev, moved = len(m), 1, 1, -1
    for k in range(steps):
        r = next((r for r in range(k, n) if m[r][k]), None)
        if r is None:
            return 0, moved  # the column is zero on and below the diagonal
        if r != k:
            m[k], m[r], sign, moved = m[r], m[k], -sign, max(moved, r)
        pivot, top = m[k][k], m[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * pivot - f * top[j]) // prev
        prev = pivot
    return sign, moved


def _bareiss(m: list[list[int]]) -> int:
    """Determinant of a square integer matrix by fraction-free elimination, in place."""
    sign, _ = _eliminate(m, len(m) - 1)
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


def charpoly(L: LaplacianMatrix) -> LaurentPoly2:
    """det of the twisted Laplacian as an exact Laurent polynomial."""
    return _det(L.rows)


def charpoly_minors(L: LaplacianMatrix, v: int, k: int) -> tuple[LaurentPoly2, LaurentPoly2, LaurentPoly2]:
    """(P, M_{v,v}, M_{k,v}), M_{k,v} the det of the Laplacian with row k and column
    v removed, from one elimination.

    The engine gets B, the transpose of the content-free integer rows with rows
    and columns ordered (..., k, v), so det B = det L's rows, and takes the minors
    of B without its last row and column n - 1 or n - 2: M_{v,v}, and M_{k,v} up to
    the sign (-1)^(v + k + 1) of reordering the rest.  The subset DP reads them off
    its table, the grid off each point's trailing 2 x 2 block (``_det_grid``)."""
    n = L.size
    if not (0 <= v < n and 0 <= k < n) or k == v:
        raise InputError(f"minors ({k}, {v}) and ({v}, {v}) need two vertices in 0..{n - 1}")
    ints = [r for r, *_ in L.rows]
    ints, cols, rws = _content_free(ints) if n >= 4 else (ints, [1] * n, [1] * n)
    order = [u for u in range(n) if u not in (k, v)] + [k, v]
    dets = (_det_dp if n <= 8 else _det_grid)([[ints[i][j] for i in order] for j in order], (n - 1, n - 2))

    def poly(d: dict[Exponent, int], row: int, col: int, sign: int) -> LaurentPoly2:
        kept = [r for u, r in enumerate(L.rows) if u != row]
        za, wb = sum(a for _, a, _, _ in kept), sum(b for *_, b, _ in kept)
        c = math.prod(g for j, g in enumerate(cols) if j != col) * math.prod(g for i, g in enumerate(rws) if i != row)
        return _over(d, Fraction(sign * math.prod(s for *_, s in kept), c), za, wb)

    return poly(dets[0], -1, -1, 1), poly(dets[1], v, v, 1), poly(dets[2], k, v, 1 if (v + k) & 1 else -1)


def minor_rows(L: LaplacianMatrix, k: int, v: int) -> list[IntRow]:
    """The Laplacian's integer rows with row k and column v removed, each
    renormalised (``_normal_row``) once its column is gone."""
    return [_normal_row([e for j, e in enumerate(ints) if j != v], a, b, s)
            for i, (ints, a, b, s) in enumerate(L.rows) if i != k]


def principal_minor(L: LaplacianMatrix, v0: int) -> LaurentPoly2:
    """det of the Laplacian with the row and column of ``v0`` removed."""
    if L.size < 2:
        raise NetworkSpectraError("the principal minor needs at least two vertices")
    if not 0 <= v0 < L.size:
        raise InputError(f"vertex {v0} is out of range 0..{L.size - 1}")
    return charpoly_minors(L, v0, (v0 + 1) % L.size)[1]


# -- univariate integer polynomials: coefficient lists, lowest first ----------


def resultant_w(f: LaurentPoly2, g: LaurentPoly2) -> list[int]:
    """Res_w(f, g) as integer coefficients in z, after f and g are each scaled to
    integers and shifted to exponents >= 0 (which moves it by a factor c z^k).  It is
    the determinant of the Sylvester matrix at their formal w-degrees m and n, rows
    f w^r (r < n) then g w^r (r < m), coefficients lowest first; [1] for two w-free
    polynomials (m = n = 0), [] if f or g is 0.  Its z-degree is <= m * deg_z g +
    n * deg_z f, so its values at that many integers z, plus one, fix it
    (``_interpolate``); ``_resultant`` gives each value from the two integer
    w-polynomials."""
    if not (f and g):
        return []
    fi, gi = (_integer_row([h])[0][0] for h in (f, g))
    (m, fz), (n, gz) = ((max(j for _, j in t), max(i for i, _ in t)) for t in (fi, gi))
    deg = m * gz + n * fz
    zs = range(-(deg // 2), deg - deg // 2 + 1)
    # each w-column's z-coefficients, highest first, evaluated by Horner at each z
    fc, gc = ([[t.get((i, j), 0) for i in range(max((i for i, jj in t if jj == j), default=0), -1, -1)]
               for j in range(d + 1)] for t, d in ((fi, m), (gi, n)))
    vals = [_resultant([_horner(c, z) for c in fc], [_horner(c, z) for c in gc]) for z in zs]
    return _trim(_interpolate(zs, vals))


def _horner(coeffs: Iterable[int], x: int) -> int:
    """The polynomial with ``coeffs``, highest first, at x."""
    v = 0
    for c in coeffs:
        v = v * x + c
    return v


def _resultant(a: list[int], b: list[int]) -> int:
    """``resultant_w``'s Sylvester determinant of integer polynomials a and b, given
    lowest coefficient first at formal degrees m = len(a) - 1 and n = len(b) - 1.

    That layout is (-1)^(mn) times the classic Res(a, b), whose rows hold the
    coefficients highest first.  A vanishing leading coefficient is expanded away
    first (formal-degree rule): Res = ((-1)^n b_n)^(m - m') Res' if deg a = m' < m,
    a_m^(n - n') Res' if deg b = n' < n, and 0 if both vanish.  Then the subresultant
    PRS (Collins 1967, Brown-Traub 1971; Cohen, A Course in Computational Algebraic
    Number Theory, Alg. 3.3.7, contents left in) takes about m * n products where
    Bareiss on the Sylvester matrix takes (m + n)^3."""
    m, n = len(a) - 1, len(b) - 1
    k = -1 if m & n & 1 else 1
    if m and n and not (a[-1] and b[-1]):
        if not (a[-1] or b[-1]):
            return 0
        lead = a[-1] or (-1) ** n * b[-1]
        a, b = _trim(a), _trim(b)
        if not (a and b):
            return 0  # one polynomial is 0 at a positive formal degree: zero rows
        k *= lead ** (m + n + 2 - len(a) - len(b))
    m, n = len(a) - 1, len(b) - 1
    if m < n:
        a, b, m, n, k = b, a, n, m, -k if m & n & 1 else k
    g = h = 1
    while n > 0:
        d, lb = m - n, b[-1]
        k = -k if m & n & 1 else k
        r = a
        for _ in range(d + 1):  # pseudo-remainder: lb^(d + 1) a = q b + r
            c = r[-1]
            r = [lb * x for x in r[:-len(b)]] + [lb * x - c * y for x, y in zip(r[-len(b):-1], b)]
        r = _trim(r)
        if not r:
            return 0
        div = g * h**d
        a, b, m, n = b, [x // div for x in r], n, len(r) - 1
        g = a[-1]
        h = g**d // h ** (d - 1) if d else h
    return k * b[-1] ** m // h ** max(m - 1, 0)


def _trim(a: Sequence[int]) -> list[int]:
    a = list(a)
    while a and not a[-1]:
        a.pop()
    return a


def _primitive(a: Sequence[int]) -> list[int]:
    a = _trim(a)
    c = math.gcd(*a) * (-1 if a and a[-1] < 0 else 1)
    return [x // c for x in a]


def _derivative(a: Sequence[int]) -> list[int]:
    return [i * c for i, c in enumerate(a)][1:]


def poly_gcd(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """gcd of integer polynomials by the heuristic gcd (Char, Geddes and Gonnet
    1989): gamma = gcd(a(x), b(x)) read back in balanced base x, kept once its
    primitive part divides a and b, else x <- 2x + 1.  gamma's spurious factor
    divides the resultant of the cofactors, so once x exceeds twice that times
    the gcd's largest coefficient, the read-back is exact and the loop ends.
    Primitive, with a positive leading coefficient."""
    a, b = _primitive(a), _primitive(b)
    if not a or not b:
        return a or b
    x = 2 * min(max(map(abs, a)), max(map(abs, b))) + 2
    while True:
        gamma, digits = math.gcd(*(_horner(reversed(f), x) for f in (a, b))), []
        while gamma:
            digits.append((gamma + x // 2) % x - x // 2)
            gamma = (gamma - digits[-1]) // x
        g = _primitive(digits)
        try:
            poly_div(a, g), poly_div(b, g)
            return g
        except ArithmeticError:
            x = 2 * x + 1


def poly_div(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """The quotient a / b of integer polynomials; raises unless b divides a over the integers."""
    a, q = list(a), [0] * (len(a) - len(b) + 1)
    for k in reversed(range(len(q))):
        q[k] = a[k + len(b) - 1] // b[-1]
        for i, c in enumerate(b):
            a[k + i] -= q[k] * c
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return q


def squarefree_parts(f: Sequence[int]) -> list[tuple[list[int], int]]:
    """Yun's squarefree factorisation: the (part, k) with f = c * prod part^k, each
    part primitive, squarefree and of degree >= 1, the parts pairwise coprime."""
    df = _derivative(f)
    c = poly_gcd(f, df)
    w, y, out, k = poly_div(f, c), poly_div(df, c), [], 1
    while len(w) > 1:
        z = _trim(a - b for a, b in zip_longest(y, _derivative(w), fillvalue=0))
        g = poly_gcd(w, z)
        if len(g) > 1:
            out.append((g, k))
        w, y, k = poly_div(w, g), poly_div(z, g), k + 1
    return out


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
    """P's value, gradient and Hessian at (z, w) = (1, 1), read off its terms in one
    pass: with c_ij the coefficient of z^i w^j, they are the sums of c_ij weighted by
    1, i, j (value, dP/dz, dP/dw) and i(i-1), ij, j(j-1) (the Hessian h11, h12, h22);
    hessian_det = h11 h22 - h12^2.  The sums are taken in integers, of the c_ij times
    the lcm D of their denominators, and divided by D at the end."""
    terms = list(p.terms())
    d = math.lcm(*(c.denominator for _, c in terms))
    value = gz = gw = h11 = h12 = h22 = 0
    for (i, j), c in terms:
        x = c.numerator * (d // c.denominator)
        value += x
        gz += i * x
        gw += j * x
        h11 += i * (i - 1) * x
        h12 += i * j * x
        h22 += j * (j - 1) * x
    value, gz, gw, f11, f12, f22 = (Fraction(x, d) for x in (value, gz, gw, h11, h12, h22))
    return NodeReport(value, (gz, gw), ((f11, f12), (f12, f22)), Fraction(h11 * h22 - h12 * h12, d * d))


def laplacian_matrix_at(L: LaplacianMatrix, z, w) -> np.ndarray:
    """Numeric n x n Laplacian at a point of (C*)^2, from the cached dart arrays;
    at arrays z and w of one shape S, the (*S, n, n) stack of them, point by point."""
    tail, head, c, disp = L.darts
    z, w = np.asarray(z, complex), np.asarray(w, complex)
    c, disp = c.reshape(c.shape + (1,) * z.ndim), disp.reshape(disp.shape + (1,) * z.ndim)
    m = np.zeros((L.size, L.size, *z.shape), dtype=complex)
    np.add.at(m, (tail, tail), c)
    np.add.at(m, (tail, head), -c * z ** disp[:, 0] * w ** disp[:, 1])
    return np.moveaxis(m, (0, 1), (-2, -1))
