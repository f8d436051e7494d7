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
stacked eigenvalue call, and one, ``kernels``, the kernel vectors at a whole
array of points with one stacked SVD; ``fiber_roots`` and ``null_vectors`` are
their one-point cases.  The amoeba cloud is one (N, 2) array of (log|z|,
log|w|), built from one call per sweep direction.  The slices that ``real_ovals``
takes, or that label the divisor's points, take two stacked calls in all: one
for every fiber over z = +-e^x, one for every fiber over the gaps of every slice.
The divisor's other float work is stacked too: the residuals of every (z, w)
root pair in one evaluation, then one ``kernels`` call for all candidates.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import CorankTwo, DegenerateFiber, NetworkSpectraError
from .graph_core import TorusGraph
from .laplacian import (
    LaplacianMatrix, build_laplacian, charpoly_minors, laplacian_matrix_at, node_check, poly_gcd, resultant_w,
    squarefree_parts,
)
from .laurent import FloatView, LaurentPoly2

ROOT_TOL = 1e-12
POLISH_ITERS = 50
CORANK_TOL = 1e-6        # relative size of the second-smallest singular value at corank two
BALANCE_SWEEPS = 4       # Osborne sweeps that balance the Laplacian before its SVD
REAL_TOL = Fraction(1, 10**7)  # a root is real within this, relative; the divisor certifies at r (1 -+ it)
DEFECT_BINS = 40         # occupancy grid of the symmetry defect, per axis
AMOEBA_PHASES = 24       # sweep values per circle |z| = e^t (and |w| = e^t)
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
    Past float range fibers are masked or give 0 roots, silently: callers count them.
    """
    f = p.floats()
    z = np.asarray(zs, dtype=complex)
    with np.errstate(all="ignore"):
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


# -- the amoeba ---------------------------------------------------------------


@dataclass
class AmoebaCloud:
    samples: np.ndarray      # (N, 2): (log|z|, log|w|) per point
    radius: float
    skipped_fibers: int
    dropped_roots: int = 0   # roots of unmasked fibers that came back 0 (past float range)

    def symmetric_defect(self) -> float:
        """Fraction of occupied cells whose point reflection is empty."""
        cells = np.floor((self.samples + self.radius) / (2 * self.radius / DEFECT_BINS))
        cells = cells[((cells >= 0) & (cells < DEFECT_BINS)).all(axis=1)].astype(int)
        occ = np.zeros((DEFECT_BINS, DEFECT_BINS), bool)
        occ[cells[:, 0], cells[:, 1]] = True
        return int((occ & ~occ[::-1, ::-1]).sum()) / max(1, int(occ.sum()))


def amoeba(p: LaurentPoly2, grid: int = 60, radius: float = 3.0) -> AmoebaCloud:
    """Sample the amoeba (log|z|, log|w|) over a log-radial grid of fibers.

    Sweeps fibers over z and (transposed) over w so both tentacle directions
    fill in, one ``fibers`` call each; per sweep value the rows hold its w-roots,
    then its z-roots.  Degenerate fibers are skipped and counted, and so are the
    roots of the other fibers that come back 0.  On tri2 at grid 60 the sweep
    takes 0.015 s on a 2-core Xeon, 0.13 s fiber by fiber.
    """
    f = p.floats()
    t = np.linspace(-radius, radius, grid)[:, None]
    with np.errstate(all="ignore"):
        vals = np.exp(t + 2j * np.pi * (np.arange(AMOEBA_PHASES) + 0.316) / AMOEBA_PHASES).ravel()
        (ws, wok), (zs, zok) = fibers(f, vals), fibers(f.transposed(), vals)
        roots = np.hstack([ws, zs])
        lr, lv = np.log(np.hypot(roots.real, roots.imag)), np.log(np.hypot(vals.real, vals.imag))
    lv, is_w = np.broadcast_to(lv[:, None], lr.shape), np.arange(lr.shape[1]) < ws.shape[1]
    samples = np.stack([np.where(is_w, lv, lr), np.where(is_w, lr, lv)], axis=-1)[roots != 0]
    skipped = 2 * len(vals) - int(wok.sum() + zok.sum())
    return AmoebaCloud(samples, radius, skipped, int((ws[wok] == 0).sum() + (zs[zok] == 0).sum()))


# -- kernel vectors --------------------------------------------------------------


def kernels(L: LaplacianMatrix, zs: Sequence[complex], ws: Sequence[complex]):
    """(U, V, sigma_min, corank_two): unit left/right kernel vectors at each
    near-curve point (zs[i], ws[i]), as (N, n) arrays, the smallest singular value
    and the mask of the points where the two smallest are both tiny (corank >= 2).

    The SVD runs on D^-1 Delta D, balanced by Osborne sweeps (equal off-diagonal
    row and column sums), so far from |z| = |w| = 1 a corank-one point keeps a
    clear singular-value gap.  U and V are D^-1 and D times its singular vectors
    of the smallest singular value, so U Delta ~ 0 and Delta V ~ 0.  One
    ``laplacian_matrix_at`` call builds the stack, each sweep balances every
    matrix at once, and one ``np.linalg.svd`` call decomposes them all.
    """
    m = laplacian_matrix_at(L, zs, ws)
    n = L.size
    a, d = np.abs(m), np.ones(m.shape[:2])
    a[:, range(n), range(n)] = 0
    for _ in range(BALANCE_SWEEPS):
        for i in range(n):
            r, c = np.einsum("kj,kj->k", a[:, i], d), np.einsum("kj,kj->k", a[:, :, i], 1 / d)
            ok = (r > 0) & (c > 0)
            d[ok, i] = np.sqrt(r[ok] / c[ok])
    u, s, vh = np.linalg.svd(m * d[:, None, :] / d[:, :, None])
    scale = np.where(s[:, 0] > 0, s[:, 0], 1.0)
    two = s[:, -2] <= CORANK_TOL * scale if n >= 2 else np.zeros(len(s), bool)
    U, V = u[:, :, -1].conj() / d, vh[:, -1, :].conj() * d
    return U / np.linalg.norm(U, axis=1)[:, None], V / np.linalg.norm(V, axis=1)[:, None], s[:, -1], two


def null_vectors(L: LaplacianMatrix, z: complex, w: complex):
    """(U, V, sigma_min) at one near-curve point: ``kernels`` at the one point,
    raising CorankTwo where it has corank >= 2."""
    U, V, s, two = kernels(L, [z], [w])
    if two[0]:
        raise CorankTwo(f"two singular values below {CORANK_TOL} * scale at ({z}, {w})")
    return U[0], V[0], float(s[0])


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


def _relative(f: FloatView, z, w) -> np.ndarray:
    """|f| over the sum of its terms' absolute values at the points (z, w), the two
    arrays broadcast against each other: one ``fiber`` evaluation for every z."""
    a, s = f.fiber(z)
    w = np.asarray(w, complex)[..., None]
    e = np.arange(f.jmin, f.jmin + a.shape[-1])
    return np.abs((a * w**e).sum(-1)) / np.maximum((s * np.abs(w) ** e).sum(-1), 1e-300)


def _real_roots(f: list[int]) -> list[tuple[float, int]]:
    """(root, multiplicity) of the real roots of the integer polynomial f.

    Roots come from ``np.roots`` of each squarefree part, scaled to floats; a root
    r is kept only if the part changes sign exactly at the rationals
    e = r (1 -+ REAL_TOL).  With e = a / b, b > 0, that sign is the sign of the
    integer sum of c_i a^i b^(n - i), so no Fraction is formed.  An uncertified root
    is left out, with one DEBUG line per part that loses a root to ``np.roots`` or a
    real candidate to the certificate."""
    out, t, u = [], REAL_TOL.numerator, REAL_TOL.denominator
    for part, k in squarefree_parts(f):
        top = max(map(abs, part))
        roots, n = np.roots([c / top for c in reversed(part)]), len(out)
        real = [r.real for r in roots if abs(r.imag) <= REAL_TOL * abs(r)]
        for r in real:
            p, q = float(r).as_integer_ratio()
            ends = []
            for a, b in ((p * (u - t), q * u), (p * (u + t), q * u)):
                v, bk = 0, 1
                for c in reversed(part):  # v = sum of c_i a^i b^(n - i), by Horner
                    v, bk = v * a + c * bk, bk * b
                ends.append(v > 0)
            if ends[0] != ends[1]:
                out.append((float(r), k))
        if len(roots) < len(part) - 1 or len(out) - n < len(real):
            log.debug("degree-%d part: np.roots gave %d roots, %d of %d real candidates certified",
                      len(part) - 1, len(roots), len(out) - n, len(real))
    return out


def _slices(p: LaurentPoly2, xs: Sequence[float]) -> list[list[tuple[float, float, tuple[int, int] | None]] | None]:
    """The gaps (lo, hi, order) in log|w| of the amoeba's slice at each log|z| = x of
    ``xs``, or None where a fiber of the slice is degenerate.  The sorted log|w| of
    the real roots over z = +-e^x alternate piece, gap, piece.  The two unbounded gaps
    (lo = -inf, hi = inf) have order None; a bounded one's order at its midpoint y is
    nu1 = imin + #{|z| < e^x} over w = e^y, nu2 = jmin + #{|w| < e^y} over z = e^x
    (Forsberg, Passare and Tsikh 2000).  One ``fibers`` call solves every z = +-e^x,
    one more every w = e^y of every slice."""
    f = p.floats()
    ws, ok = fibers(f, [s * math.exp(x) for x in xs for s in (1, -1)])
    gaps: list = []
    for k in range(len(xs)):
        roots = ws[2 * k:2 * k + 2].ravel().tolist()
        ys = sorted(math.log(abs(r.real)) for r in roots if abs(r.imag) <= REAL_TOL * abs(r))
        gaps.append(list(zip([-math.inf, *ys[1::2]], [*ys[::2], math.inf])) if ok[2 * k:2 * k + 2].all() else None)
    ey = [math.exp((lo + hi) / 2) for gs in gaps if gs for lo, hi in gs[1:-1]]
    zs, zok = fibers(f.transposed(), ey)
    out, i = [], 0
    for x, gs, w0 in zip(xs, gaps, ws[::2].tolist()):
        if gs is None:
            out.append(None)
            continue
        j, i = i, i + len(gs[1:-1])
        ex = math.exp(x)
        orders = [(f.imin + sum(abs(r) < ex for r in row), f.jmin + sum(abs(r) < e for r in w0))
                  for row, e in zip(zs[j:i].tolist(), ey[j:i])]
        out.append([(*gap, o) for gap, o in zip(gs, [None, *orders, None])] if zok[j:i].all() else None)
    return out


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
    mids = [(a + b) / 2 for a, b in zip(xs, xs[1:])]
    holes = set()
    for x, gaps in zip(mids, _slices(p, mids)):
        if gaps is None:
            log.debug("real_ovals: slice log|z| = %s skipped: a fiber of the slice is degenerate", x)
        else:
            holes |= {o for _, _, o in gaps if o in interior}
    return sorted(holes)


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

    P, Q and C_{k,v0} come from one elimination (``charpoly_minors``).  The float
    stage is stacked: one evaluation of the residual matrix over every (z root,
    w root) pair, one ``kernels`` call for every candidate, and one evaluation of Q
    at every point and image.
    """
    if graph.n_vertices < 2:
        raise NetworkSpectraError("the kernel section needs at least two vertices")
    if any(float(c) <= 0 for c in conductances.values()):
        raise NetworkSpectraError("positive real conductances required")
    L = build_laplacian(graph, conductances)
    p, q, c = charpoly_minors(L, v0, (v0 + 1) % L.size)
    gz = _divisor_polynomial(p, q, c)
    gw = _divisor_polynomial(*(LaurentPoly2({(j, i): x for (i, j), x in f.terms()}) for f in (p, q, c)))
    zk, ws = _real_roots(gz), np.array([w for w, k in _real_roots(gw) for _ in range(k)])
    polygon = p.newton_polygon()
    orders = [o for o in polygon.interior_lattice_points() if o != (0, 0)]  # (0, 0): the node's
    zs = np.array([z for z, _ in zk])[:, None]
    res = _relative(p.floats(), zs, ws) + _relative(c.floats(), zs, ws)
    pairs = [(z, float(ws[j])) for (z, k), row in zip(zk, res) for j in np.argsort(row, kind="stable")[:k]]
    cz, cw = np.array(pairs).reshape(-1, 2).T
    _, V, _, two = kernels(L, cz, cw)
    # relative |Q| at each point and at its (1/z, 1/w) image
    qres = _relative(q.floats(), np.r_[cz, 1 / cz], np.r_[cw, 1 / cw]).reshape(2, -1).T.tolist()
    points, nodes = [], []
    for (z, w), v, node, qr in zip(pairs, np.abs(V[:, v0]).tolist(), two, qres):
        if node:
            nodes.append({"z": z, "w": w})
        else:
            points.append(DivisorPoint(z, w, v, -1, *qr))
    # each point's hole is the gap at its end of its piece in the slice at log|z|;
    # -1 at an outer end of the slice or on a degenerate fiber
    for pt, gaps in zip(points, _slices(p, [math.log(abs(pt.z)) for pt in points])):
        y = math.log(abs(pt.w))
        nu = gaps and min(gaps, key=lambda gap: min(abs(e - y) for e in gap[:2]))[2]
        pt.hole_index = orders.index(nu) if nu in orders else -1
    return DivisorResult(polygon.interior_lattice_count() - 1, points, node_check(p).to_json(), gz, gw, nodes)


# -- output writers -----------------------------------------------------------------


def write_amoeba_csv(path, cloud: AmoebaCloud) -> None:
    rows = ("%.12g,%.12g\n" * len(cloud.samples)) % tuple(cloud.samples.ravel().tolist())
    with open(path, "w") as fh:
        fh.write("log_abs_z,log_abs_w\n" + rows)


def write_amoeba_svg(path, cloud: AmoebaCloud, divisor_points: Sequence[DivisorPoint] = ()) -> None:
    """Hand-rolled scatter plot; divisor points are marked with crosses.  The cloud's
    circles are one ``%`` format over its in-frame (N, 2) array."""
    r, size = cloud.radius, SVG_SIZE

    def sx(x: float) -> float:
        return (x + r) / (2 * r) * size

    def sy(y: float) -> float:
        return size - (y + r) / (2 * r) * size

    xy = cloud.samples[(np.abs(cloud.samples) <= r).all(axis=1)]
    xy = np.stack([sx(xy[:, 0]), sy(xy[:, 1])], axis=1)
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
            f'viewBox="0 0 {size} {size}">\n<rect width="{size}" height="{size}" fill="white"/>\n')
    circles = ('<circle cx="%.2f" cy="%.2f" r="1" fill="#1f77b4" fill-opacity="0.35"/>\n' * len(xy)
               % tuple(xy.ravel().tolist()))
    marks = "".join(
        f'<g stroke="#d62728" stroke-width="2">'
        f'<line x1="{sx(x)-6:.2f}" y1="{sy(y):.2f}" x2="{sx(x)+6:.2f}" y2="{sy(y):.2f}"/>'
        f'<line x1="{sx(x):.2f}" y1="{sy(y)-6:.2f}" x2="{sx(x):.2f}" y2="{sy(y)+6:.2f}"/>'
        f"</g>\n"
        for x, y in (pt.amoeba_image() for pt in divisor_points)
    )
    with open(path, "w") as fh:
        fh.write(head + circles + marks + "</svg>\n")
