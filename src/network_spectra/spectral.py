"""Spectral data: amoebas, kernel vectors, amoeba holes and the divisor.  The
points at infinity are exact (``zigzag.points_at_infinity``).

The divisor is exact up to its last step: integer resultants and gcds give two
polynomials whose real roots are the points' coordinates, and only those roots
are floats.  The amoeba's holes are named by their orders: on one vertical slice
between each two consecutive critical values of log|z| on the real curve (the
real roots of the exact discriminant), each gap is labelled by counting fiber
roots, and the divisor labels each point by the gap it bounds the same way.
Everything else consumes the exact characteristic polynomial but computes in
floating point; the tolerances a caller sets are arguments with the defaults
used by the acceptance checks (root residual 1e-12 relative), the rest are the
module constants below.

No Fraction is converted per evaluation: fibers read the float coefficient
matrix each polynomial caches on first use (``LaurentPoly2.floats``, transpose
cached on the view), kernel vectors the arrays of ``LaplacianMatrix.darts``.
One solver, ``fibers``, finds the roots of a whole array of fibers with one
stacked eigenvalue call; the amoeba makes one call per sweep direction.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from typing import Mapping, Sequence

import numpy as np

from .errors import CorankTwo, DegenerateFiber, NetworkSpectraError
from .graph_core import TorusGraph
from .laplacian import (
    LaplacianMatrix, build_laplacian, integer_det, laplacian_matrix_at, minor_rows, poly_gcd,
    principal_minor, resultant_w, squarefree_parts,
)
from .laurent import FloatView, LaurentPoly2

ROOT_TOL = 1e-12
POLISH_ITERS = 50
CORANK_TOL = 1e-6        # relative size of the second-smallest singular value at corank two
BALANCE_SWEEPS = 4       # Osborne sweeps that balance the Laplacian before its SVD
REAL_TOL = Fraction(1, 10**7)  # a root is real within this, relative; the divisor certifies at r (1 -+ it)
DEFECT_BINS = 40         # occupancy grid of the symmetry defect, per axis
SVG_SIZE = 600

log = logging.getLogger(__name__)


# -- univariate fibers -------------------------------------------------------


def fibers(p: LaurentPoly2 | FloatView, zs: Sequence[complex],
           tol: float = ROOT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """The roots w of p(z, .) for each z of ``zs``, as an (F, d) array (d the w-span
    of p), and the mask of the fibers that are not degenerate: z = 0, outside
    (C*)^2, or an extreme w-coefficient below 1e-13 of its yardstick (a tentacle
    asymptote).  A degenerate fiber's row is 0, which no root in (C*)^2 takes.

    One ``np.linalg.eigvals`` call takes the stacked companion matrices, then Newton
    polishes every (fiber, root) pair at once: a root stops at |p| <= tol * scale,
    at a zero derivative, or after POLISH_ITERS steps (one DEBUG line per fiber).
    """
    f = p.floats()
    z = np.asarray(zs, dtype=complex)
    a, s = f.fiber(np.where(z == 0, 1, z))
    ok = (z != 0) & (np.abs(a[:, -1]) > 1e-13 * s[:, -1]) & (np.abs(a[:, 0]) > 1e-13 * s[:, 0])
    d = a.shape[1] - 1
    companion = np.zeros((ok.sum(), d, d), complex)
    companion[:, :1] = (-a[ok, -2::-1] / a[ok, -1:])[:, None]
    companion[:, range(1, d), range(d - 1)] = 1
    w = np.zeros((len(z), d), complex)
    w[ok] = np.linalg.eigvals(companion)
    e = np.arange(f.jmin, f.jmin + d + 1)
    da, flat = a * e, w.reshape(-1)
    todo = np.flatnonzero(np.repeat(ok, d))
    for _ in range(POLISH_ITERS):
        wt, row = flat[todo, None], todo // d
        below = wt ** (e - 1)
        powers = below * wt
        val = np.einsum("km,km->k", powers, a[row])
        dv = np.einsum("km,km->k", below, da[row])
        go = (np.abs(val) > tol * np.einsum("km,km->k", np.abs(powers), s[row])) & (dv != 0)
        todo = todo[go]
        if not len(todo):
            break
        flat[todo] -= val[go] / dv[go]
    else:
        for i, n in zip(*np.unique(todo // d, return_counts=True)):
            log.debug("fiber at z = %s: %d of %d roots hit the polish cap", z[i], n, d)
    return w, ok


def fiber_roots(p: LaurentPoly2 | FloatView, z: complex, tol: float = ROOT_TOL) -> list[complex]:
    """All w with p(z, w) = 0: ``fibers`` at the one z, raising DegenerateFiber where
    it masks the fiber.  Reads only ``p.floats()``, cached on the polynomial."""
    w, ok = fibers(p, [z], tol)
    if not ok[0]:
        raise DegenerateFiber("z = 0 is outside (C*)^2" if z == 0
                              else f"extreme w-coefficient vanishes at z = {z} (tentacle asymptote)")
    return w[0].tolist()


def fiber_roots_in_z(p: LaurentPoly2, w: complex, tol: float = ROOT_TOL) -> list[complex]:
    """All z with p(z, w) = 0 (the transposed sweep)."""
    return fiber_roots(p.floats().transposed(), w, tol=tol)


# -- the amoeba ---------------------------------------------------------------


@dataclass
class AmoebaCloud:
    samples: list[tuple[complex, complex]]
    radius: float
    skipped_fibers: int

    @cached_property
    def points(self) -> list[tuple[float, float]]:
        return [(math.log(abs(z)), math.log(abs(w))) for z, w in self.samples]

    def symmetric_defect(self) -> float:
        """Fraction of occupied cells whose point reflection is empty."""
        bins, step = DEFECT_BINS, 2 * self.radius / DEFECT_BINS
        cells = {(int((x + self.radius) / step), int((y + self.radius) / step)) for x, y in self.points}
        occ = {(i, j) for i, j in cells if 0 <= i < bins and 0 <= j < bins}
        bad = sum(1 for (i, j) in occ if (bins - 1 - i, bins - 1 - j) not in occ)
        return bad / max(1, len(occ))


def amoeba(
    p: LaurentPoly2,
    grid: int = 60,
    radius: float = 3.0,
    phases: int = 24,
) -> AmoebaCloud:
    """Sample the amoeba (log|z|, log|w|) over a log-radial grid of fibers.

    Sweeps fibers over z and (transposed) over w so both tentacle directions
    fill in, one ``fibers`` call each; degenerate fibers are skipped and counted.
    On tri2 at grid 60 that takes 0.015 s on a 2-core Xeon, 0.13 s fiber by fiber.
    """
    f = p.floats()
    t = np.linspace(-radius, radius, grid)[:, None]
    vals = np.exp(t + 2j * np.pi * (np.arange(phases) + 0.316) / phases).ravel()
    (ws, wok), (zs, zok) = fibers(f, vals), fibers(f.transposed(), vals)
    samples: list[tuple[complex, complex]] = []
    for val, w_row, z_row in zip(vals.tolist(), ws.tolist(), zs.tolist()):
        samples.extend((val, w) for w in w_row if w != 0)
        samples.extend((z, val) for z in z_row if z != 0)
    skipped = 2 * len(vals) - int(wok.sum() + zok.sum())
    return AmoebaCloud(samples, radius, skipped)


# -- kernel vectors --------------------------------------------------------------


def null_vectors(L: LaplacianMatrix, z: complex, w: complex):
    """(U, V, sigma_min): unit left/right kernel vectors at a near-curve point.

    The SVD runs on D^-1 Delta D, balanced by Osborne sweeps (equal off-diagonal
    row and column sums), so far from |z| = |w| = 1 a corank-one point keeps a
    clear singular-value gap.  U and V are D^-1 and D times its singular vectors
    of the smallest singular value, so U Delta ~ 0 and Delta V ~ 0.  Raises
    CorankTwo when the two smallest singular values are both tiny (corank >= 2).
    """
    m = laplacian_matrix_at(L, z, w)
    a, d = np.abs(m), np.ones(len(m))
    np.fill_diagonal(a, 0)
    for _ in range(BALANCE_SWEEPS):
        for i, (row, col) in enumerate(zip(a, a.T)):
            if row @ d > 0 and col @ (1 / d) > 0:
                d[i] = math.sqrt((row @ d) / (col @ (1 / d)))
    u, s, vh = np.linalg.svd(m * d / d[:, None])
    scale = s[0] if s[0] > 0 else 1.0
    if len(s) >= 2 and s[-2] <= CORANK_TOL * scale:
        raise CorankTwo(f"two singular values below {CORANK_TOL} * scale at ({z}, {w})")
    U, V = u[:, -1].conj() / d, vh[-1, :].conj() * d
    return U / np.linalg.norm(U), V / np.linalg.norm(V), float(s[-1])


# -- the spectral divisor -----------------------------------------------------------


@dataclass
class DivisorPoint:
    z: float
    w: float
    section_residual: float
    hole_index: int
    q_residual: float
    q_residual_sigma: float

    def amoeba_image(self) -> tuple[float, float]:
        return (math.log(abs(self.z)), math.log(abs(self.w)))

    def to_json(self) -> dict:
        return {
            "z": self.z,
            "w": self.w,
            "log_abs": list(self.amoeba_image()),
            "section_residual": self.section_residual,
            "hole": self.hole_index,
            "q_residual": self.q_residual,
            "q_residual_sigma": self.q_residual_sigma,
        }


@dataclass
class DivisorResult:
    genus: int
    points: list[DivisorPoint]
    node: dict
    z_polynomial: list[int]   # Gz: the points' z as its roots, integer coefficients lowest first
    w_polynomial: list[int]   # Gw: their w
    nodes: list[dict]         # candidates where the kernel has dimension two: nodes of C

    @property
    def hole_count(self) -> int:
        return len({p.hole_index for p in self.points} - {-1})

    @property
    def count_matches_genus(self) -> bool:
        return len(self.points) == self.genus == len(self.z_polynomial) - 1

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "hole_count": self.hole_count,
            "points": [p.to_json() for p in self.points],
            "count_matches_genus": self.count_matches_genus,
            "z_polynomial": [str(c) for c in self.z_polynomial],
            "w_polynomial": [str(c) for c in self.w_polynomial],
            "nodes": self.nodes,
            "node": self.node,
        }


def _strip(f: list[int]) -> list[int]:
    """f without its z-power factor."""
    return f[next((i for i, x in enumerate(f) if x), 0):]


def _divisor_polynomial(p: LaurentPoly2, q: LaurentPoly2, c: LaurentPoly2) -> list[int]:
    """gcd(Res_w(p, q), Res_w(p, c)) without its z-power factor, lowest first."""
    return _strip(poly_gcd(resultant_w(p, q), resultant_w(p, c)))


def _real_roots(f: list[int]) -> list[tuple[float, int]]:
    """(root, multiplicity) of the real roots of the integer polynomial f.

    Roots come from ``np.roots`` of each squarefree part, scaled to floats; a root
    r is kept only if the part changes sign exactly at the rationals
    r (1 -+ REAL_TOL).  An uncertified root is left out."""
    out = []
    for part, k in squarefree_parts(f):
        top = max(map(abs, part))
        for r in np.roots([c / top for c in reversed(part)]):
            if abs(r.imag) > REAL_TOL * abs(r):
                continue
            ends = [reduce(lambda v, c: v * e + c, reversed(part), 0) > 0
                    for e in (Fraction(r.real) * (1 - REAL_TOL), Fraction(r.real) * (1 + REAL_TOL))]
            if ends[0] != ends[1]:
                out.append((float(r.real), k))
    return out


def _gaps(p: LaurentPoly2, x: float) -> tuple[list[tuple[float, float]], list[complex]]:
    """The gaps (lo, hi) in log|w| of the amoeba's slice at log|z| = x, the two
    unbounded ones (lo = -inf, hi = inf) included, and the roots w over z = e^x,
    which ``_order`` counts: the sorted log|w| of the real roots over z = +-e^x
    alternate piece, gap, piece."""
    ws, ok = fibers(p, [math.exp(x), -math.exp(x)])
    if not ok.all():
        raise DegenerateFiber(f"a fiber over |z| = e^{x} is degenerate")
    ys = sorted(math.log(abs(r.real)) for r in ws.ravel().tolist() if abs(r.imag) <= REAL_TOL * abs(r))
    return list(zip([-math.inf, *ys[1::2]], [*ys[::2], math.inf])), ws[0].tolist()


def _order(p: LaurentPoly2, x: float, y: float, ws: list[complex]) -> tuple[int, int]:
    """The order (nu1, nu2) of the amoeba complement component at (x, y) = (log|z|,
    log|w|), given the roots ``ws`` over z = e^x: nu2 = jmin + #{|w| < e^y} over
    z = e^x, nu1 = imin + #{|z| < e^x} over w = e^y (Forsberg, Passare and Tsikh 2000)."""
    f = p.floats()
    return (f.imin + sum(abs(r) < math.exp(x) for r in fiber_roots_in_z(p, math.exp(y))),
            f.jmin + sum(abs(r) < math.exp(y) for r in ws))


def real_ovals(p: LaurentPoly2) -> list[tuple[int, int]]:
    """The orders of the amoeba's holes, sorted.

    A hole's ends in log|z| are critical values of the projection of the real curve
    to log|z|, the log|r| of the real roots r of the discriminant Res_w(P, P_w); so
    one slice between each two consecutive ones meets every hole.  The holes are the
    gaps of these slices whose order is an interior point of the Newton polygon
    other than (0, 0), the node's.  A slice with a degenerate fiber is skipped."""
    interior = set(p.newton_polygon().interior_lattice_points()) - {(0, 0)}
    if not interior:
        return []
    xs: list[float] = []
    for x in sorted(math.log(abs(r)) for r, _ in _real_roots(_strip(resultant_w(p, p.derivative("w"))))):
        if not xs or x - xs[-1] > REAL_TOL:  # one value, e.g. log|1| and log|-1| at a real node
            xs.append(x)
    holes = set()
    for x in ((a + b) / 2 for a, b in zip(xs, xs[1:])):
        try:
            gaps, ws = _gaps(p, x)
            holes |= {o for lo, hi in gaps[1:-1] if (o := _order(p, x, (lo + hi) / 2, ws)) in interior}
        except DegenerateFiber as exc:
            log.debug("real_ovals: slice log|z| = %s skipped: %s", x, exc)
    return sorted(holes)


def _hole(p: LaurentPoly2, z: float, w: float, orders: list[tuple[int, int]]) -> int:
    """Index in ``orders`` of the amoeba gap that the real point (z, w) bounds, or -1.

    The gap is the one at the point's end of its piece in the slice at log|z|; -1 at
    an outer end of the slice or on a degenerate fiber."""
    x, y = math.log(abs(z)), math.log(abs(w))
    try:
        gaps, ws = _gaps(p, x)
        lo, hi = min(gaps, key=lambda gap: min(abs(e - y) for e in gap))
        nu = _order(p, x, (lo + hi) / 2, ws) if math.isfinite(lo + hi) else None
    except DegenerateFiber:
        return -1
    return orders.index(nu) if nu in orders else -1


def spectral_divisor(graph: TorusGraph, conductances: Mapping[int, object], v0: int = 0) -> DivisorResult:
    """The points of the curve C where the v0 kernel component vanishes, exactly.

    Positive real conductances only.  By adjugate rank one, adj L = V U^T on C, so
    V_v0 = 0 exactly where P and the cofactors C_{k,v0} (row k and column v0
    deleted) vanish; C_{v0,v0} is the principal minor Q.  So the points' z are the
    roots of Gz = gcd(Res_w(P, Q), Res_w(P, C_{k,v0})) and their w those of Gw, the
    same with z and w swapped (the transposed cofactor C_{v0,k} would give sigma D).
    Each certified real root z of Gz takes as many real roots w of Gw as its
    multiplicity, those where relative |P| + |C_{k,v0}| is least.  A candidate where
    the kernel has dimension two is a node of C, listed apart.  Also evaluates Q
    at each point and at its (1/z, 1/w) image, the two-sided divisor check.
    """
    if graph.n_vertices < 2:
        raise NetworkSpectraError("the kernel section needs at least two vertices")
    if any(float(c) <= 0 for c in conductances.values()):
        raise NetworkSpectraError("positive real conductances required")
    from .laplacian import charpoly, node_check

    L = build_laplacian(graph, {k: v for k, v in conductances.items()})
    p, q = charpoly(L), principal_minor(L, v0)
    c = LaurentPoly2(integer_det(minor_rows(L, (v0 + 1) % L.size, v0))[0])
    gz = _divisor_polynomial(p, q, c)
    gw = _divisor_polynomial(*(LaurentPoly2({(j, i): x for (i, j), x in f.terms()}) for f in (p, q, c)))
    ws = [w for w, k in _real_roots(gw) for _ in range(k)]
    polygon = p.newton_polygon()
    orders = [o for o in polygon.interior_lattice_points() if o != (0, 0)]  # (0, 0): the node's
    pf, qf, cf = p.floats(), q.floats(), c.floats()
    points, nodes = [], []
    for z, k in _real_roots(gz):
        for w in sorted(ws, key=lambda w: sum(abs(v) / s for v, s in (pf.at(z, w), cf.at(z, w))))[:k]:
            try:
                _, V, _ = null_vectors(L, z, w)
            except CorankTwo:
                nodes.append({"z": z, "w": w})
                continue
            # relative |Q| at the point and at its (1/z, 1/w) image
            qres = [abs(v) / max(s, 1e-300) for v, s in (qf.at(z, w), qf.at(1 / z, 1 / w))]
            points.append(DivisorPoint(z, w, float(abs(V[v0])), _hole(p, z, w, orders), *qres))
    return DivisorResult(polygon.interior_lattice_count() - 1, points, node_check(p).to_json(), gz, gw, nodes)


# -- output writers -----------------------------------------------------------------


def write_amoeba_csv(path, cloud: AmoebaCloud) -> None:
    with open(path, "w") as fh:
        fh.write("log_abs_z,log_abs_w\n" + "".join(f"{x:.12g},{y:.12g}\n" for x, y in cloud.points))


def write_amoeba_svg(
    path,
    cloud: AmoebaCloud,
    divisor_points: Sequence[DivisorPoint] = (),
) -> None:
    """Hand-rolled scatter plot; divisor points are marked with crosses."""
    r, size = cloud.radius, SVG_SIZE

    def sx(x: float) -> float:
        return (x + r) / (2 * r) * size

    def sy(y: float) -> float:
        return size - (y + r) / (2 * r) * size

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">',
        f'<rect width="{size}" height="{size}" fill="white"/>',
    ]
    for x, y in cloud.points:
        if abs(x) <= r and abs(y) <= r:
            parts.append(
                f'<circle cx="{sx(x):.2f}" cy="{sy(y):.2f}" r="1" fill="#1f77b4" fill-opacity="0.35"/>'
            )
    for pt in divisor_points:
        x, y = pt.amoeba_image()
        parts.append(
            f'<g stroke="#d62728" stroke-width="2">'
            f'<line x1="{sx(x)-6:.2f}" y1="{sy(y):.2f}" x2="{sx(x)+6:.2f}" y2="{sy(y):.2f}"/>'
            f'<line x1="{sx(x):.2f}" y1="{sy(y)-6:.2f}" x2="{sx(x):.2f}" y2="{sy(y)+6:.2f}"/>'
            f"</g>"
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
