"""Floating-point spectral data: curve samples, amoebas, kernel vectors,
divisor points on ovals, and experimental points-at-infinity estimates.

Everything here consumes the exact characteristic polynomial but computes in
floating point; tolerances are explicit arguments with the defaults used by
the acceptance checks (root residual 1e-12 relative, divisor refinement 1e-9).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    CorankTwo,
    DegenerateFiber,
    NoConvergence,
    NonHarnackInput,
    SingleVertexGraph,
    WrongDivisorCount,
)
from .graph_core import TorusGraph
from .laplacian import LaplacianMatrix, build_laplacian, laplacian_matrix_at, principal_minor
from .laurent import LaurentPoly2

ROOT_TOL = 1e-12
REFINE_TOL = 1e-9


# -- univariate fibers -------------------------------------------------------


def fiber_roots(p: LaurentPoly2, z: complex, tol: float = ROOT_TOL) -> list[complex]:
    """All w with p(z, w) = 0, via the companion matrix plus Newton polish."""
    if z == 0:
        raise DegenerateFiber("z = 0 is outside (C*)^2")
    rows: dict[int, complex] = {}
    for (i, j), v in p.terms():
        rows[j] = rows.get(j, 0j) + float(v) * complex(z) ** i
    if not rows:
        return []
    jmin, jmax = min(rows), max(rows)
    coeffs = [rows.get(j, 0j) for j in range(jmax, jmin - 1, -1)]
    top = max(abs(c) for c in coeffs)
    if top == 0:
        raise DegenerateFiber(f"p(z, .) vanishes identically at z = {z}")
    if abs(coeffs[0]) < 1e-13 * top or abs(coeffs[-1]) < 1e-13 * top:
        raise DegenerateFiber(f"extreme w-coefficient vanishes at z = {z} (tentacle asymptote)")
    roots = np.roots(np.array(coeffs, dtype=complex))
    pw = p.derivative("w")
    polished = []
    for w in roots:
        w = complex(w)
        for _ in range(50):
            scale = p.scale_at(z, w)
            val = p.eval(z, w)
            if abs(val) <= tol * scale:
                break
            dv = pw.eval(z, w)
            if dv == 0:
                break
            w = w - val / dv
        polished.append(w)
    return polished


def fiber_roots_in_z(p: LaurentPoly2, w: complex, tol: float = ROOT_TOL) -> list[complex]:
    """All z with p(z, w) = 0 (the transposed sweep)."""
    swapped = LaurentPoly2({(j, i): v for (i, j), v in p.terms()})
    return fiber_roots(swapped, w, tol=tol)


# -- curve samples and the amoeba ---------------------------------------------


@dataclass
class CurveSample:
    z: complex
    w: complex
    log_abs: tuple[float, float]
    sigma_min: float
    residual: float
    U: np.ndarray | None = None
    V: np.ndarray | None = None


@dataclass
class AmoebaCloud:
    samples: list[tuple[complex, complex]]
    radius: float
    skipped_fibers: int

    @property
    def points(self) -> list[tuple[float, float]]:
        return [(math.log(abs(z)), math.log(abs(w))) for z, w in self.samples]

    def symmetric_defect(self, bins: int = 40) -> float:
        """Fraction of occupied cells whose point reflection is empty."""
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
    corank_tol: float = 1e-6,
):
    """(U, V, sigma_min): left/right kernel vectors at a near-curve point.

    U and V are the singular vectors of the smallest singular value, so
    U* Delta ~ 0 and Delta V ~ 0.  Raises CorankTwo when the two smallest
    singular values are both tiny (corank >= 2, e.g. a very degenerate point).
    """
    m = laplacian_matrix_at(L.graph, L.conductances, z, w)
    u, s, vh = np.linalg.svd(m)
    scale = s[0] if s[0] > 0 else 1.0
    if len(s) >= 2 and s[-2] <= corank_tol * scale:
        raise CorankTwo(f"two singular values below {corank_tol} * scale at ({z}, {w})")
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
        }


def _real_curve_points(
    p: LaurentPoly2, radius: float, grid: int, node_exclusion: float
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
        if (z - 1) ** 2 + (w - 1) ** 2 > node_exclusion**2
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
    node_exclusion: float = 1e-3,
    link: float | None = None,
    margin: float = 0.4,
) -> list[RealOval]:
    """Cluster real curve points into components; keep the bounded ones.

    Points are linked within one sign quadrant when their log-space distance
    is below ``link`` (a few sweep steps); clusters reaching the sweep
    boundary are unbounded branches, the rest are compact ovals.
    """
    pts = _real_curve_points(p, radius, grid, node_exclusion)
    if not pts:
        return []
    if link is None:
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
        if any(max(abs(x), abs(y)) > radius - margin for x, y in logs):
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


def _track_root(p: LaurentPoly2, z: float, w_guess: float) -> float:
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
    node_exclusion: float = 1e-3,
    check_count: bool = False,
) -> DivisorResult:
    """Zeros of the v0 kernel-vector component along the compact ovals.

    Positive real conductances only.  Walks each compact oval (= amoeba hole
    boundary), tracks sign changes of the continuously normalized kernel
    component, and refines each change by bisection along the curve.  Also
    evaluates the v0 principal minor at each point and at its (1/z, 1/w)
    image, whose vanishing is the two-sided divisor check.
    """
    if graph.n_vertices < 2:
        raise SingleVertexGraph("the kernel section needs at least two vertices")
    if any(float(c) <= 0 for c in conductances.values()):
        raise NonHarnackInput("positive real conductances required")
    from .laplacian import charpoly, node_check

    L = build_laplacian(graph, {k: v for k, v in conductances.items()})
    p = charpoly(L)
    q = principal_minor(L, v0)
    genus = p.newton_polygon().interior_lattice_count() - 1
    ovals = real_ovals(p, radius=radius, grid=grid, node_exclusion=node_exclusion)
    # ovals larger than the sweep window get truncated; widen and retry
    for _ in range(2):
        if len(ovals) >= genus:
            break
        radius *= 1.6
        grid = int(grid * 1.6)
        ovals = real_ovals(p, radius=radius, grid=grid, node_exclusion=node_exclusion)

    found: list[DivisorPoint] = []
    for k, oval in enumerate(ovals):
        pts = sorted(
            oval.points,
            key=lambda zw: math.atan2(
                math.log(abs(zw[1])) - oval.centroid_log[1],
                math.log(abs(zw[0])) - oval.centroid_log[0],
            ),
        )
        n = len(pts)
        # continuously aligned section values around the loop, plus wraparound
        vals: list[float] = []
        prev_vec = None
        for z, w in pts:
            s, vec = _section_value(L, z, w, v0)
            if prev_vec is not None and float(np.dot(vec, prev_vec)) < 0:
                vec, s = -vec, -s
            prev_vec = vec
            vals.append(s)
        s0, vec0 = _section_value(L, *pts[0], v0)
        if float(np.dot(vec0, prev_vec)) < 0:
            s0 = -s0
        vals.append(s0)  # aligned value of pts[0] coming around the loop
        for i in range(n):
            a, b = vals[i], vals[i + 1]
            if a == 0.0 or a * b >= 0:
                continue
            zw = _bisect_section(L, p, pts[i], pts[(i + 1) % n], v0, refine_tol)
            if zw is None:
                continue
            z, w = zw
            s, _ = _section_value(L, z, w, v0)
            qs = abs(complex(q.eval(z, w)))
            qs_sigma = abs(complex(q.eval(1 / z, 1 / w)))
            found.append(
                DivisorPoint(
                    z,
                    w,
                    abs(s),
                    k,
                    qs / max(q.scale_at(z, w), 1e-300),
                    qs_sigma / max(q.scale_at(1 / z, 1 / w), 1e-300),
                )
            )
    found = _dedupe_points(found)
    node = node_check(p).to_json()
    result = DivisorResult(genus, found, len(ovals), sum(len(o.points) for o in ovals), node)
    if check_count and not result.count_matches_genus:
        raise WrongDivisorCount(
            f"found {len(found)} divisor points, expected g = {genus}; "
            f"ovals = {len(ovals)}"
        )
    return result


def _bisect_section(L, p, p1, p2, v0, tol, iters: int = 80):
    """Bisect the kernel-component sign change along the curve between p1, p2."""
    (z1, w1), (z2, w2) = p1, p2
    s1, vec1 = _section_value(L, z1, w1, v0)

    def at(t: float):
        if abs(math.log(abs(z2)) - math.log(abs(z1))) >= abs(
            math.log(abs(w2)) - math.log(abs(w1))
        ):
            sz = math.copysign(1.0, z1)
            z = sz * math.exp((1 - t) * math.log(abs(z1)) + t * math.log(abs(z2)))
            w = _track_root(p, z, (1 - t) * w1 + t * w2)
        else:
            sw = math.copysign(1.0, w1)
            w = sw * math.exp((1 - t) * math.log(abs(w1)) + t * math.log(abs(w2)))
            z = _track_root(
                LaurentPoly2({(j, i): v for (i, j), v in p.terms()}), w, (1 - t) * z1 + t * z2
            )
            z, w = z, w
        return z, w

    lo, hi = 0.0, 1.0
    s_lo = s1
    vec_prev = vec1
    best = None
    for _ in range(iters):
        mid = (lo + hi) / 2
        try:
            z, w = at(mid)
        except NoConvergence:
            return best
        s, vec = _section_value(L, z, w, v0)
        if float(np.dot(vec, vec_prev)) < 0:
            s, vec = -s, -vec
        vec_prev = vec
        best = (z, w)
        if abs(s) <= tol:
            return best
        if (s < 0) == (s_lo < 0):
            lo, s_lo = mid, s
        else:
            hi = mid
    return best


def _dedupe_points(points: list[DivisorPoint], tol: float = 1e-5) -> list[DivisorPoint]:
    out: list[DivisorPoint] = []
    for p in points:
        if all(
            math.hypot(p.z - q.z, p.w - q.w) > tol * (1 + abs(p.z) + abs(p.w))
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
    t_max: float = 9.0,
    steps: int = 12,
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
        limits, uncerts = _follow_tentacle(p, (a, b), normal, g, t_max, steps)
        out.append(TentacleEstimate((a, b), g, roots, limits, uncerts))
    return out


def _follow_tentacle(p, prim, normal, count, t_max, steps):
    """Track the `count` branches along direction `normal`, evaluating chi^prim."""
    a, b = prim
    ts = np.linspace(t_max / 2, t_max, steps)
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


# -- residual samples ----------------------------------------------------------------


def curve_samples(
    p: LaurentPoly2,
    L: LaplacianMatrix,
    n_samples: int = 20,
    radius: float = 1.0,
    tol: float = ROOT_TOL,
    seed: int = 1,
) -> list[CurveSample]:
    """Random curve samples with kernel vectors, for residual reporting."""
    import random

    rng = random.Random(seed)
    out = []
    while len(out) < n_samples:
        t = rng.uniform(-radius, radius)
        phase = rng.uniform(0, 2 * math.pi)
        z = cmath.exp(t + 1j * phase)
        try:
            ws = fiber_roots(p, z, tol=tol)
        except DegenerateFiber:
            continue
        for w in ws:
            if abs(w) == 0:
                continue
            val = abs(p.eval(z, w))
            scale = p.scale_at(z, w)
            try:
                U, V, smin = null_vectors(L, z, w)
            except CorankTwo:
                continue
            out.append(
                CurveSample(
                    z,
                    w,
                    (math.log(abs(z)), math.log(abs(w))),
                    smin,
                    val / max(scale, 1e-300),
                    U,
                    V,
                )
            )
            if len(out) >= n_samples:
                break
    return out


# -- output writers -----------------------------------------------------------------


def write_amoeba_csv(path, cloud: AmoebaCloud, samples: Iterable[CurveSample] = ()) -> None:
    with open(path, "w") as fh:
        fh.write("log_abs_z,log_abs_w\n")
        for x, y in cloud.points:
            fh.write(f"{x:.12g},{y:.12g}\n")


def write_amoeba_svg(
    path,
    cloud: AmoebaCloud,
    divisor_points: Sequence[DivisorPoint] = (),
    size: int = 600,
) -> None:
    """Hand-rolled scatter plot; divisor points are marked with crosses."""
    r = cloud.radius

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
