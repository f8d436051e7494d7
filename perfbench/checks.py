"""Output checks that do not trust the code under test.

Each check reads a CLI report and compares it with what the benchmark
computes itself from the input JSON it wrote: a numeric Laplacian built
straight from the edge list, lattice-polygon arithmetic by Pick's theorem,
and numpy determinants.  A check returns a list of problems; an empty list
accepts the report.  The pass state carries what one job's check hands to a
later one (the zig-zag polygon of an input is compared with its charpoly
polygon) and the |Q| residuals of the divisor points.
"""

from __future__ import annotations

import cmath
import math
import random
from fractions import Fraction
from functools import cached_property
from pathlib import Path

import numpy as np

# numpy determinants of V <= 16 Laplacians agree with exact values to ~1e-14
# of the coefficient scale; the margin covers the largest rungs.
DET_RTOL = 1e-9
# divisor points lie on the curve to the CLI's refinement accuracy.
ON_CURVE_RTOL = 1e-6
# the CLI's default --qtol for |Q| at D and sigma D, relative to Q's scale
QTOL = 1e-6
# v0 component of the unit kernel vector at a divisor point: the CLI refines
# it to --tol 1e-9; the margin covers a second SVD of the same matrix.
SECTION_TOL = 1e-8
# relative spread of det L(c_n) / det L(c_0) over sample points on the torus.
CONSERVED_RTOL = 1e-6


class Network:
    """A network read from its JSON file, independent of ``graph_core``."""

    def __init__(self, data: dict):
        edges = sorted(data["edges"], key=lambda e: e["id"])
        self.n = len(data["vertices"])
        self.edges = [(e["tail"], e["head"], tuple(e["disp"])) for e in edges]
        self.conductances = [Fraction(str(e.get("conductance", 1))) for e in edges]

    def laplacian_at(self, z: complex, w: complex, conductances=None) -> np.ndarray:
        """Each dart u -> v with displacement d adds c to (u, u), -c chi^d to (u, v)."""
        cs = self.conductances if conductances is None else conductances
        m = np.zeros((self.n, self.n), dtype=complex)
        for (t, h, (dx, dy)), c in zip(self.edges, cs):
            c = float(c)
            for u, v, i, j in ((t, h, dx, dy), (h, t, -dx, -dy)):
                m[u, u] += c
                m[u, v] -= c * z**i * w**j
        return m

    @cached_property
    def genus(self) -> int:
        """Genus of the spectral curve, from the numeric support of det L."""
        return genus(hull(self.charpoly_support()))

    def charpoly_support(self) -> set[tuple[int, int]]:
        """Exponents of det L(z, w), by a 2-D DFT over roots of unity.

        The exponent box is the sum over rows of each row's exponent range,
        so the DFT grid is large enough that no two exponents alias.
        """
        lo = [0, 0]
        hi = [0, 0]
        for u in range(self.n):
            exps = [(0, 0)]
            for t, h, (dx, dy) in self.edges:
                if t == u:
                    exps.append((dx, dy))
                if h == u:
                    exps.append((-dx, -dy))
            for k in (0, 1):
                lo[k] += min(e[k] for e in exps)
                hi[k] += max(e[k] for e in exps)
        nz, nw = hi[0] - lo[0] + 1, hi[1] - lo[1] + 1
        vals = np.empty((nz, nw), dtype=complex)
        for a in range(nz):
            z = cmath.exp(2j * math.pi * a / nz)
            for b in range(nw):
                w = cmath.exp(2j * math.pi * b / nw)
                vals[a, b] = np.linalg.det(self.laplacian_at(z, w))
        coeffs = np.fft.fft2(vals) / (nz * nw)
        top = np.abs(coeffs).max()
        support = set()
        for i in range(lo[0], hi[0] + 1):
            for j in range(lo[1], hi[1] + 1):
                if abs(coeffs[i % nz, j % nw]) > 1e-9 * top:
                    support.add((i, j))
        return support


# -- lattice polygons ----------------------------------------------------------------


def hull(points) -> set[tuple[int, int]]:
    """Vertex set of the convex hull (collinear boundary points dropped)."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) <= 2:
        return set(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    return set(chain(pts)[:-1] + chain(reversed(pts))[:-1])


def _ccw(vertices) -> list[tuple[int, int]]:
    cx = sum(v[0] for v in vertices) / len(vertices)
    cy = sum(v[1] for v in vertices) / len(vertices)
    return sorted(vertices, key=lambda v: math.atan2(v[1] - cy, v[0] - cx))


def interior_count(vertices) -> int:
    """Interior lattice points of a convex lattice polygon, by Pick's theorem."""
    vs = _ccw(list(vertices))
    twice_area = 0
    boundary = 0
    for k, (x1, y1) in enumerate(vs):
        x2, y2 = vs[(k + 1) % len(vs)]
        twice_area += x1 * y2 - x2 * y1
        boundary += math.gcd(x2 - x1, y2 - y1)
    return (abs(twice_area) - boundary + 2) // 2


def genus(vertices) -> int:
    """Geometric genus of the spectral curve: one interior point is the node."""
    return interior_count(vertices) - 1


# -- per-subcommand checks -----------------------------------------------------------


class PassState:
    """What the checks of one pass share."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.zigzag_polygons: dict[str, set] = {}
        self.q_residuals: list[float] = []


def _torus_points(rng: random.Random, k: int = 3):
    return [
        (cmath.exp(2j * math.pi * rng.random()), cmath.exp(2j * math.pi * rng.random()))
        for _ in range(k)
    ]


def _terms(data) -> dict[tuple[int, int], Fraction]:
    return {(int(i), int(j)): Fraction(c) for i, j, c in data}


def _eval(terms, z, w) -> complex:
    return sum(complex(float(c)) * z**i * w**j for (i, j), c in terms.items())


def _compare_det(terms, matrices, points, label) -> list[str]:
    scale = sum(abs(float(c)) for c in terms.values())
    worst = 0.0
    for (z, w), m in zip(points, matrices):
        worst = max(worst, abs(_eval(terms, z, w) - np.linalg.det(m)) / scale)
    return [f"{label} differs from the numpy determinant by {worst:.2e} of its scale"] if worst > DET_RTOL else []


def check_validate(report, net: Network, key: str, state: PassState) -> list[str]:
    v = report["validate"]
    problems = [] if v["ok"] else [f"validate reports problems: {v['problems']}"]
    if (v["vertices"], v["edges"], v["faces"]) != (net.n, len(net.edges), len(net.edges) - net.n):
        problems.append(f"counts {v['vertices']}, {v['edges']}, {v['faces']} do not fit V - E + F = 0")
    return problems


def check_zigzag(report, net: Network, key: str, state: PassState) -> list[str]:
    if "polygon" not in report:
        return ["no zig-zag polygon (graph reported non-minimal)"]
    state.zigzag_polygons[key] = {tuple(v) for v in report["polygon"]}
    if sum(s["length"] for s in report["strands"]) != 4 * len(net.edges):
        return ["strands do not cover every dart once per turn"]
    return []


def check_charpoly(report, net: Network, key: str, state: PassState) -> list[str]:
    terms = _terms(report["charpoly"])
    points = _torus_points(state.rng)
    problems = _compare_det(terms, [net.laplacian_at(z, w) for z, w in points], points, "P")
    if any(terms.get((-i, -j)) != c for (i, j), c in terms.items()):
        problems.append("P is not sigma-symmetric")
    if sum(terms.values()) != 0:
        problems.append("P(1, 1) != 0")
    poly = hull(terms)
    if poly != {tuple(v) for v in report["newton_polygon"]}:
        problems.append("reported Newton polygon is not the hull of P's support")
    zz = state.zigzag_polygons.get(key)
    if zz is not None and poly != zz:
        problems.append(f"charpoly polygon {sorted(poly)} != zig-zag polygon {sorted(zz)}")
    if "principal_minor_v0" in report:
        minors = [np.delete(np.delete(net.laplacian_at(z, w), 0, 0), 0, 1) for z, w in points]
        problems += _compare_det(_terms(report["principal_minor_v0"]), minors, points, "Q")
    return problems


def check_newton(report, net: Network, key: str, state: PassState) -> list[str]:
    poly = {tuple(v) for v in report["charpoly_polygon"]}
    if report["genus"] != genus(poly):
        return [f"genus {report['genus']} != {genus(poly)} by Pick's theorem"]
    return []


def check_ocrsf(report, net: Network, key: str, state: PassState, draws: int, seed: int) -> list[str]:
    if (report["random_draws"], report["seed"]) != (draws, seed):
        return ["report does not echo the requested draws and seed"]
    return []


def check_temperley(report, net: Network, key: str, state: PassState) -> list[str]:
    if report["pairs"] != report["dimer_covers"]:
        return [f"{report['pairs']} dual pairs vs {report['dimer_covers']} dimer covers"]
    return []


def check_ydelta(report, net: Network, key: str, state: PassState, factor: Fraction) -> list[str]:
    if Fraction(report["factor"]) != factor:
        return [f"factor {report['factor']} != star sum {factor}"]
    return []


def check_abel(report, net: Network, key: str, state: PassState) -> list[str]:
    if not report["equivariance"] or not all(report["equivariance"].values()):
        return ["chart is not equivariant"]
    return []


def check_evolve(report, net: Network, key: str, state: PassState, steps: int) -> list[str]:
    problems = []
    if len(report["steps"]) != steps + 1:
        problems.append(f"{len(report['steps'])} steps recorded, expected {steps + 1}")
    if not (report["conserved_constant"] and report["strand_classes_preserved"]):
        problems.append("conserved quantities or strand classes reported as changed")
    first, last = report["steps"][0], report["steps"][-1]
    if any(s["conserved"] != first["conserved"] for s in report["steps"]):
        problems.append("conserved vectors differ between steps")
    # an independent look at conservation: det L(c_n) / det L(c_0) is one constant
    c0, cn = ([Fraction(s["conductances"][str(e)]) for e in range(len(net.edges))] for s in (first, last))
    ratios = [np.linalg.det(net.laplacian_at(z, w, cn)) / np.linalg.det(net.laplacian_at(z, w, c0))
              for z, w in _torus_points(state.rng)]
    spread = max(abs(r - ratios[0]) for r in ratios) / abs(ratios[0])
    if spread > CONSERVED_RTOL:
        problems.append(f"det L(c_n) / det L(c_0) varies by {spread:.2e} over the torus")
    return problems


def check_divisor(report, net: Network, key: str, state: PassState) -> list[str]:
    problems = []
    genus_ = net.genus
    if report["genus"] != genus_:
        problems.append(f"genus {report['genus']} != {genus_} from the benchmark's own polygon")
    if len(report["points"]) != genus_:
        problems.append(f"{len(report['points'])} divisor points for genus {genus_}")
    for pt in report["points"]:
        q = max(pt["q_residual"], pt["q_residual_sigma"])
        state.q_residuals.append(q)
        if q > QTOL:
            problems.append(f"relative |Q| above the CLI's --qtol: {q:.2e} at ({pt['z']:.6g}, {pt['w']:.6g})")
        m = net.laplacian_at(pt["z"], pt["w"])
        rel = abs(np.linalg.det(m)) / np.prod(np.abs(m).sum(axis=1))
        if rel > ON_CURVE_RTOL:
            problems.append(f"point ({pt['z']:.6g}, {pt['w']:.6g}) is off the curve by {rel:.2e}")
        section = abs(np.linalg.svd(m)[2][-1, 0])
        if section > SECTION_TOL:
            problems.append(f"kernel vector at ({pt['z']:.6g}, {pt['w']:.6g}) has v0 component {section:.2e}")
    return problems


def check_amoeba(report, net: Network, key: str, state: PassState) -> list[str]:
    problems = []
    genus_ = net.genus
    if report["genus"] != genus_:
        problems.append(f"genus {report['genus']} != {genus_} from the benchmark's own polygon")
    with open(report["csv"]) as fh:
        rows = sum(1 for _ in fh) - 1
    if rows != report["points"] or rows == 0:
        problems.append(f"CSV holds {rows} points, report says {report['points']}")
    marks = Path(report["svg"]).read_text().count('<g stroke="#d62728"')
    if marks != genus_:
        problems.append(f"SVG marks {marks} divisor points for genus {genus_}")
    return problems
