"""Floating-point spectral data: amoebas, kernel vectors, divisor points on
ovals, and experimental points-at-infinity estimates.

Everything here consumes the exact characteristic polynomial but computes in
floating point; the tolerances a caller sets are arguments with the defaults
used by the acceptance checks (root residual 1e-12 relative, divisor
refinement 1e-9), the rest are the module constants below.

No Fraction is converted per evaluation: fibers read the float coefficient
matrix each polynomial caches on first use (``LaurentPoly2.floats``, transpose
cached on the view), kernel vectors the arrays of ``LaplacianMatrix.darts``.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import CorankTwo, DegenerateFiber, NetworkSpectraError, NoConvergence
from .graph_core import TorusGraph
from .laplacian import LaplacianMatrix, build_laplacian, laplacian_matrix_at, principal_minor
from .laurent import FloatView, LaurentPoly2

ROOT_TOL = 1e-12
REFINE_TOL = 1e-9
POLISH_ITERS = 50
CORANK_TOL = 1e-6        # relative size of the second-smallest singular value at corank two
NODE_EXCLUSION = 1e-3    # real points this close to the node (1, 1) are dropped
OVAL_MARGIN = 0.4        # a cluster this close to the sweep edge in log scale is unbounded
BISECT_ITERS = 80
DEDUPE_TOL = 1e-5        # divisor points closer than this (relative) are one point
DEFECT_BINS = 40         # occupancy grid of the symmetry defect, per axis
TENTACLE_T_MAX = 9.0     # tentacles are followed over |log| in [T_MAX / 2, T_MAX]
TENTACLE_STEPS = 12
SVG_SIZE = 600

log = logging.getLogger(__name__)


# -- univariate fibers -------------------------------------------------------


def fiber_roots(p: LaurentPoly2 | FloatView, z: complex, tol: float = ROOT_TOL) -> list[complex]:
    """All w with p(z, w) = 0, via the companion matrix plus Newton polish.

    Reads only ``p.floats()``, cached on the polynomial.  Newton polishes all
    roots at once; a root stops at |p| <= tol * scale, at a zero derivative, or
    after POLISH_ITERS steps (logged at DEBUG).
    """
    if z == 0:
        raise DegenerateFiber("z = 0 is outside (C*)^2")
    f = p.floats()
    a, s = f.fiber(z)
    top = np.abs(a).max()
    if top == 0:
        raise DegenerateFiber(f"p(z, .) vanishes identically at z = {z}")
    if abs(a[-1]) < 1e-13 * top or abs(a[0]) < 1e-13 * top:
        raise DegenerateFiber(f"extreme w-coefficient vanishes at z = {z} (tentacle asymptote)")
    w = np.roots(a[::-1]).astype(complex)
    e = np.arange(f.jmin, f.jmin + len(a))
    da = a * e
    todo = np.arange(len(w))
    for _ in range(POLISH_ITERS):
        wt = w[todo, None]
        below = wt ** (e - 1)
        powers = below * wt
        val = powers @ a
        dv = below @ da
        go = (np.abs(val) > tol * (np.abs(powers) @ s)) & (dv != 0)
        todo = todo[go]
        if not len(todo):
            break
        w[todo] -= val[go] / dv[go]
    else:
        log.debug("fiber at z = %s: %d of %d roots hit the polish cap", z, len(todo), len(w))
    return w.tolist()


def fiber_roots_in_z(p: LaurentPoly2, w: complex, tol: float = ROOT_TOL) -> list[complex]:
    """All z with p(z, w) = 0 (the transposed sweep)."""
    return fiber_roots(p.floats().transposed(), w, tol=tol)


# -- the amoeba ---------------------------------------------------------------


@dataclass
class AmoebaCloud:
    samples: list[tuple[complex, complex]]
    radius: float
    skipped_fibers: int

    @property
    def points(self) -> list[tuple[float, float]]:
        return [(math.log(abs(z)), math.log(abs(w))) for z, w in self.samples]

    def symmetric_defect(self) -> float:
        """Fraction of occupied cells whose point reflection is empty."""
        bins = DEFECT_BINS
        grid = _occupancy(self.points, self.radius, bins)
        occ = {(i, j) for i in range(bins) for j in range(bins) if grid[i][j]}
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
    fill in; degenerate fibers are skipped and counted.
    """
    skipped = 0
    samples: list[tuple[complex, complex]] = []
    for t in np.linspace(-radius, radius, grid):
        for k in range(phases):
            val = cmath.exp(t + 2j * math.pi * (k + 0.316) / phases)
            try:
                samples.extend((val, w) for w in fiber_roots(p, val) if w != 0)
            except DegenerateFiber:
                skipped += 1
            try:
                samples.extend((z, val) for z in fiber_roots_in_z(p, val) if z != 0)
            except DegenerateFiber:
                skipped += 1
    return AmoebaCloud(samples, radius, skipped)


def _occupancy(points, radius: float, bins: int):
    grid = [[False] * bins for _ in range(bins)]
    step = 2 * radius / bins
    for x, y in points:
        i = int((x + radius) / step)
        j = int((y + radius) / step)
        if 0 <= i < bins and 0 <= j < bins:
            grid[i][j] = True
    return grid


# -- kernel vectors --------------------------------------------------------------


def null_vectors(
    L: LaplacianMatrix,
    z: complex,
    w: complex,
):
    """(U, V, sigma_min): left/right kernel vectors at a near-curve point.

    U and V are the singular vectors of the smallest singular value, so
    U* Delta ~ 0 and Delta V ~ 0.  Raises CorankTwo when the two smallest
    singular values are both tiny (corank >= 2, e.g. a very degenerate point).
    """
    m = laplacian_matrix_at(L, z, w)
    u, s, vh = np.linalg.svd(m)
    scale = s[0] if s[0] > 0 else 1.0
    if len(s) >= 2 and s[-2] <= CORANK_TOL * scale:
        raise CorankTwo(f"two singular values below {CORANK_TOL} * scale at ({z}, {w})")
    return u[:, -1].conj(), vh[-1, :].conj(), float(s[-1])


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
    hole_count: int
    sweep_points: int
    node: dict
    corank2_skipped: int = 0   # oval samples and refined points with corank >= 2, skipped
    sweep_widenings: int = 0   # times the oval sweep was widened and redone (0-2)

    @property
    def count_matches_genus(self) -> bool:
        return len(self.points) == self.genus

    def to_json(self) -> dict:
        return {
            "genus": self.genus,
            "hole_count": self.hole_count,
            "points": [p.to_json() for p in self.points],
            "count_matches_genus": self.count_matches_genus,
            "sweep_points": self.sweep_points,
            "node": self.node,
            "corank2_skipped": self.corank2_skipped,
            "sweep_widenings": self.sweep_widenings,
        }


def _real_curve_points(
    p: LaurentPoly2, radius: float, grid: int
) -> list[tuple[float, float]]:
    """Real points of the curve from sign-quadrant log sweeps in z and w."""
    pts = []
    ts = np.linspace(-radius, radius, grid)
    for t in ts:
        for sz in (1.0, -1.0):
            z = sz * math.exp(t)
            try:
                ws = fiber_roots(p, z)
            except DegenerateFiber:
                continue
            for w in ws:
                if abs(w.imag) <= 1e-8 * max(1.0, abs(w)) and w.real != 0:
                    pts.append((z, w.real))
        for sw in (1.0, -1.0):
            w = sw * math.exp(t)
            try:
                zs = fiber_roots_in_z(p, w)
            except DegenerateFiber:
                continue
            for z in zs:
                if abs(z.imag) <= 1e-8 * max(1.0, abs(z)) and z.real != 0:
                    pts.append((z.real, w))
    return [
        (z, w)
        for z, w in pts
        if (z - 1) ** 2 + (w - 1) ** 2 > NODE_EXCLUSION**2
    ]


@dataclass
class RealOval:
    """A bounded connected component of the real curve (a compact oval).

    For positive conductances the compact ovals are exactly the amoeba hole
    boundaries, so counting them is the hole-count estimator used on the
    bundled fixtures.
    """

    points: list[tuple[float, float]]   # (z, w), one sign quadrant
    centroid_log: tuple[float, float]


def real_ovals(
    p: LaurentPoly2,
    radius: float = 6.0,
    grid: int = 360,
) -> list[RealOval]:
    """Cluster real curve points into components; keep the bounded ones.

    Points are linked within one sign quadrant when their log-space distance
    is below a few sweep steps; clusters reaching the sweep boundary are
    unbounded branches, the rest are compact ovals.
    """
    pts = _real_curve_points(p, radius, grid)
    if not pts:
        return []
    link = max(8.0 * radius / grid, 0.08)
    keyed = [
        (math.copysign(1, z), math.copysign(1, w), math.log(abs(z)), math.log(abs(w)), z, w)
        for z, w in pts
    ]
    n = len(keyed)
    parent = list(range(n))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    order = sorted(range(n), key=lambda k: keyed[k][:4])
    for ii in range(n):
        i = order[ii]
        for jj in range(ii + 1, n):
            j = order[jj]
            if keyed[i][:2] != keyed[j][:2]:
                break
            if keyed[j][2] - keyed[i][2] > link:
                break
            if abs(keyed[j][3] - keyed[i][3]) <= link:
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[ra] = rb
    comps: dict[int, list[int]] = {}
    for k in range(n):
        comps.setdefault(find(k), []).append(k)
    ovals = []
    for members in comps.values():
        if len(members) < 8:
            continue
        logs = [(keyed[k][2], keyed[k][3]) for k in members]
        if any(max(abs(x), abs(y)) > radius - OVAL_MARGIN for x, y in logs):
            continue  # reaches the sweep boundary: an unbounded branch
        cx = sum(x for x, _ in logs) / len(logs)
        cy = sum(y for _, y in logs) / len(logs)
        ovals.append(RealOval([(keyed[k][4], keyed[k][5]) for k in members], (cx, cy)))
    ovals.sort(key=lambda o: o.centroid_log)
    return ovals


def _section_value(L: LaplacianMatrix, z: float, w: float, v0: int) -> tuple[float, np.ndarray]:
    _, V, _ = null_vectors(L, z, w)
    vec = np.real(V)
    n = np.linalg.norm(vec)
    if n == 0:
        raise NoConvergence(f"zero kernel vector at ({z}, {w})")
    vec = vec / n
    return float(vec[v0]), vec


def _track_root(p: LaurentPoly2 | FloatView, z: float, w_guess: float) -> float:
    """The real fiber root over z nearest to the guess."""
    ws = fiber_roots(p, z)
    real = [w.real for w in ws if abs(w.imag) <= 1e-7 * max(1.0, abs(w))]
    if not real:
        raise NoConvergence(f"no real branch above z = {z}")
    return min(real, key=lambda w: abs(w - w_guess))


def spectral_divisor(
    graph: TorusGraph,
    conductances: Mapping[int, object],
    v0: int = 0,
    radius: float = 6.0,
    grid: int = 360,
    refine_tol: float = REFINE_TOL,
    check_count: bool = False,
) -> DivisorResult:
    """Zeros of the v0 kernel-vector component along the compact ovals.

    Positive real conductances only.  Walks each compact oval (= amoeba hole
    boundary), tracks sign changes of the continuously normalized kernel
    component, and refines each change by bisection along the curve.  Samples
    where the kernel has dimension two are skipped and counted.  Also
    evaluates the v0 principal minor at each point and at its (1/z, 1/w)
    image, whose vanishing is the two-sided divisor check.
    """
    if graph.n_vertices < 2:
        raise NetworkSpectraError("the kernel section needs at least two vertices")
    if any(float(c) <= 0 for c in conductances.values()):
        raise NetworkSpectraError("positive real conductances required")
    from .laplacian import charpoly, node_check

    L = build_laplacian(graph, {k: v for k, v in conductances.items()})
    p = charpoly(L)
    qf = principal_minor(L, v0).floats()
    genus = p.newton_polygon().interior_lattice_count() - 1
    ovals = real_ovals(p, radius=radius, grid=grid)
    # ovals larger than the sweep window get truncated; widen and retry
    widenings = 0
    while len(ovals) < genus and widenings < 2:
        widenings += 1
        radius *= 1.6
        grid = int(grid * 1.6)
        ovals = real_ovals(p, radius=radius, grid=grid)

    found: list[DivisorPoint] = []
    corank2 = 0
    for k, oval in enumerate(ovals):
        pts = sorted(
            oval.points,
            key=lambda zw: math.atan2(
                math.log(abs(zw[1])) - oval.centroid_log[1],
                math.log(abs(zw[0])) - oval.centroid_log[0],
            ),
        )
        # section values around the loop and back; corank-2 samples have no kernel line
        samples = []
        for z, w in pts + pts[:1]:
            try:
                samples.append(((z, w), *_section_value(L, z, w, v0)))
            except CorankTwo:
                corank2 += 1
        if len(samples) < 2:
            continue
        if samples[-1][0] != samples[0][0]:
            samples.append(samples[0])  # close the loop on the first usable sample
        vals: list[float] = []  # continuously aligned
        prev_vec = None
        for _, s, vec in samples:
            if prev_vec is not None and float(np.dot(vec, prev_vec)) < 0:
                vec, s = -vec, -s
            prev_vec = vec
            vals.append(s)
        for i in range(len(samples) - 1):
            a, b = vals[i], vals[i + 1]
            if a == 0.0 or a * b >= 0:
                continue
            z, w = _bisect_section(L, p, samples[i][0], samples[i + 1][0], v0, refine_tol)
            try:
                s, _ = _section_value(L, z, w, v0)
            except CorankTwo:
                corank2 += 1
                continue
            # relative |Q| at the point and at its (1/z, 1/w) image
            qres = [abs(v) / max(scale, 1e-300) for v, scale in (qf.at(z, w), qf.at(1 / z, 1 / w))]
            found.append(DivisorPoint(z, w, abs(s), k, *qres))
    found = _dedupe_points(found)
    node = node_check(p).to_json()
    sweep_points = sum(len(o.points) for o in ovals)
    result = DivisorResult(genus, found, len(ovals), sweep_points, node, corank2, widenings)
    if check_count and not result.count_matches_genus:
        raise NetworkSpectraError(
            f"found {len(found)} divisor points, expected g = {genus}; "
            f"ovals = {len(ovals)}"
        )
    return result


def _bisect_section(L, p, p1, p2, v0, tol):
    """Bisect the kernel-component sign change along the curve between p1, p2;
    the last midpoint reached, or p1 if no midpoint could be evaluated."""
    (z1, w1), (z2, w2) = p1, p2
    # drive the coordinate that moves more in log scale; w drives the transpose
    by_z = abs(math.log(abs(z2)) - math.log(abs(z1))) >= abs(math.log(abs(w2)) - math.log(abs(w1)))
    (a1, b1), (a2, b2), f = (p1, p2, p) if by_z else ((w1, z1), (w2, z2), p.floats().transposed())

    def at(t: float):
        a = math.copysign(1.0, a1) * math.exp((1 - t) * math.log(abs(a1)) + t * math.log(abs(a2)))
        b = _track_root(f, a, (1 - t) * b1 + t * b2)
        return (a, b) if by_z else (b, a)

    lo, hi = 0.0, 1.0
    best = p1
    try:
        s_lo, vec_prev = _section_value(L, z1, w1, v0)
        for _ in range(BISECT_ITERS):
            mid = (lo + hi) / 2
            z, w = at(mid)
            s, vec = _section_value(L, z, w, v0)
            if float(np.dot(vec, vec_prev)) < 0:
                s, vec = -s, -vec
            vec_prev = vec
            best = (z, w)
            if abs(s) <= tol:
                break
            if (s < 0) == (s_lo < 0):
                lo, s_lo = mid, s
            else:
                hi = mid
    except (NoConvergence, CorankTwo, DegenerateFiber):
        pass  # keep the last point reached
    return best


def _dedupe_points(points: list[DivisorPoint]) -> list[DivisorPoint]:
    out: list[DivisorPoint] = []
    for p in points:
        if all(
            math.hypot(p.z - q.z, p.w - q.w) > DEDUPE_TOL * (1 + abs(p.z) + abs(p.w))
            for q in out
        ):
            out.append(p)
    return out


# -- points at infinity (experimental) ------------------------------------------


@dataclass
class TentacleEstimate:
    primitive: tuple[int, int]
    family_size: int
    edge_poly_roots: list[complex]
    tentacle_limits: list[complex]
    uncertainties: list[float]

    def to_json(self) -> dict:
        return {
            "primitive": list(self.primitive),
            "family_size": self.family_size,
            "edge_poly_roots": [[r.real, r.imag] for r in self.edge_poly_roots],
            "tentacle_limits": [[v.real, v.imag] for v in self.tentacle_limits],
            "uncertainties": self.uncertainties,
        }


def infinity_coordinates(
    graph: TorusGraph,
    conductances: Mapping[int, object],
) -> list[TentacleEstimate]:
    """Per-boundary-edge limits of the class monomial along amoeba tentacles.

    Advisory numbers: for each ccw boundary edge with primitive vector (a, b),
    follows the tentacle in the outward normal direction and reports the limit
    of z^a w^b, together with the roots of the boundary-edge polynomial that
    the limits should approach.  No equality with any other quantity is
    asserted.
    """
    from .laplacian import charpoly

    L = build_laplacian(graph, dict(conductances))
    p = charpoly(L)
    poly = p.newton_polygon()
    out = []
    nverts = len(poly.vertices)
    for k in range(nverts):
        v1 = poly.vertices[k]
        v2 = poly.vertices[(k + 1) % nverts]
        vec = (v2[0] - v1[0], v2[1] - v1[1])
        g = math.gcd(abs(vec[0]), abs(vec[1]))
        a, b = vec[0] // g, vec[1] // g
        normal = (b, -a)  # outward for ccw boundary
        edge_poly = [float(p.coeff(v1[0] + t * a, v1[1] + t * b)) for t in range(g + 1)]
        roots = [complex(r) for r in np.roots(list(reversed(edge_poly)))]
        limits, uncerts = _follow_tentacle(p, (a, b), normal, g)
        out.append(TentacleEstimate((a, b), g, roots, limits, uncerts))
    return out


def _follow_tentacle(p, prim, normal, count):
    """Track the `count` branches along direction `normal`, evaluating chi^prim."""
    a, b = prim
    ts = np.linspace(TENTACLE_T_MAX / 2, TENTACLE_T_MAX, TENTACLE_STEPS)
    drive_z = abs(normal[0]) >= abs(normal[1])
    tracks: list[list[complex]] = [[] for _ in range(count)]
    for t in ts:
        try:
            if drive_z:
                z = cmath.exp(normal[0] * t)
                ws = fiber_roots(p, z)
                cands = [(z, w) for w in ws]
                # keep roots whose log|w| tracks the tentacle line
                cands.sort(key=lambda zw: abs(math.log(abs(zw[1])) - normal[1] * t))
            else:
                w = cmath.exp(normal[1] * t)
                zs = fiber_roots_in_z(p, w)
                cands = [(z, w) for z in zs]
                cands.sort(key=lambda zw: abs(math.log(abs(zw[0])) - normal[0] * t))
        except DegenerateFiber:
            continue
        vals = sorted(
            (zw[0] ** a * zw[1] ** b for zw in cands[:count]),
            key=lambda v: (round(v.real, 6), round(v.imag, 6)),
        )
        for i, v in enumerate(vals[:count]):
            tracks[i].append(v)
    limits, uncerts = [], []
    for tr in tracks:
        if len(tr) < 2:
            raise NoConvergence("tentacle tracking lost every branch")
        limits.append(tr[-1])
        uncerts.append(abs(tr[-1] - tr[-2]))
    return limits, uncerts


# -- output writers -----------------------------------------------------------------


def write_amoeba_csv(path, cloud: AmoebaCloud) -> None:
    with open(path, "w") as fh:
        fh.write("log_abs_z,log_abs_w\n")
        for x, y in cloud.points:
            fh.write(f"{x:.12g},{y:.12g}\n")


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
