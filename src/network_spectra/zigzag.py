"""Zig-zag strands: tracing, minimality, boundary polygon, and fans.

A strand state is a pair ``(dart, turn)`` where the turn is made at the head
of the dart.  With counterclockwise rotations we fix the convention

    turn R: next dart = rot_prev(reversal(dart))
    turn L: next dart = rot_next(reversal(dart))

and turns alternate along a strand.  Swapping the two labels reverses every
strand and point-reflects all derived data; everything downstream is invariant
under that swap.

Crossings live one per edge: the two transits of an edge made with turn R at
the head (in both directions) form one arc through the edge's midpoint, the
two L-transits form the other, and the two arcs cross exactly once.  Summing
|det| bounds over strand pairs therefore equals the edge count on a minimal
network.

Each strand s has a point at infinity, the rational number

    nu(s) = prod over L-states (d, L) of (-c_{d >> 1}) / prod over R-states of c_{d >> 1},

equal for a strand and its reversal.  On a minimal network, take the ccw
boundary edge of Newton(P) from V1 with primitive vector h and lattice length
n: E(t) = sum_k P[V1 + k h] t^k is its top coefficient times the product of
(t - nu(s)) over the n strands of class h (``infinity_splits``, exactly).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping

from .errors import NetworkSpectraError
from .graph_core import TorusGraph, Vec, vadd
from .laurent import LaurentPoly2, NewtonPolygon

RIGHT = "R"
LEFT = "L"

State = tuple[int, str]


def transition(graph: TorusGraph, dart: int, turn: str) -> State:
    """One zig-zag step: turn at head(dart), flipping the turn label."""
    ad = graph.alpha(dart)
    if turn == RIGHT:
        return graph.rot_prev(ad), LEFT
    return graph.rot_next(ad), RIGHT


@dataclass(frozen=True)
class ZigZagStrand:
    id: int
    states: tuple[State, ...]
    homology: Vec

    @property
    def darts(self) -> tuple[int, ...]:
        return tuple(d for d, _ in self.states)

    def __len__(self) -> int:
        return len(self.states)


class StrandSystem:
    """All strands of a network plus the state -> strand lookup."""

    def __init__(self, graph: TorusGraph):
        self.graph = graph
        strands: list[ZigZagStrand] = []
        lookup: dict[State, int] = {}
        for d0 in range(graph.n_darts):
            for t0 in (RIGHT, LEFT):
                if (d0, t0) in lookup:
                    continue
                states = []
                st = (d0, t0)
                h = (0, 0)
                while st not in lookup:
                    lookup[st] = len(strands)
                    states.append(st)
                    h = vadd(h, graph.disp(st[0]))
                    st = transition(graph, *st)
                strands.append(ZigZagStrand(len(strands), tuple(states), h))
        self.strands: tuple[ZigZagStrand, ...] = tuple(strands)
        self._lookup = lookup

    def strand_of(self, dart: int, turn: str) -> int:
        return self._lookup[(dart, turn)]

    def reversal_of(self, sid: int) -> int:
        """Strand traversing the same curve backwards."""
        d, t = self.strands[sid].states[0]
        return self._lookup[(self.graph.alpha(d), t)]

    def unoriented_of(self, sid: int) -> int:
        """Canonical representative of {strand, reversal}."""
        return min(sid, self.reversal_of(sid))


def trace_strands(graph: TorusGraph) -> list[ZigZagStrand]:
    return list(StrandSystem(graph).strands)


def points_at_infinity(
    graph: TorusGraph, conductances: Mapping[int, object]
) -> list[tuple[Vec, Fraction]]:
    """(class, nu) of every strand, in trace order."""
    out = []
    for s in StrandSystem(graph).strands:
        nu = Fraction(1)
        for d, turn in s.states:
            c = Fraction(conductances[d >> 1])
            nu = nu * -c if turn == LEFT else nu / c
        out.append((s.homology, nu))
    return out


def infinity_splits(p: LaurentPoly2, points: list[tuple[Vec, Fraction]]) -> bool:
    """True iff every ccw boundary edge polynomial of ``p`` is its top
    coefficient times the product of (t - nu) over the points of its class."""
    poly = p.newton_polygon()
    for (x, y), (h, n) in zip(poly.vertices, poly.primitive_edges()):
        edge = [p.coeff(x + k * h[0], y + k * h[1]) for k in range(n + 1)]
        expanded = [edge[n]]  # coefficients low to high
        for cls, nu in points:
            if cls == h:  # times (t - nu)
                expanded = [b - nu * a for a, b in zip(expanded + [0], [0] + expanded)]
        if expanded != edge:
            return False
    return True


# -- minimality ---------------------------------------------------------------


@dataclass
class MinimalityReport:
    strands: list[dict]
    pairs: list[dict]
    minimal: bool

    def to_json(self) -> dict:
        return {"strands": self.strands, "pairs": self.pairs, "minimal": self.minimal}


def minimality_check(graph: TorusGraph) -> MinimalityReport:
    """Count strand crossings and compare with the homology determinant bound.

    A network is minimal iff no strand crosses itself and every unordered pair
    of (unoriented) strands crosses exactly |det| of their classes times.
    """
    sys = StrandSystem(graph)
    reps = sorted({sys.unoriented_of(s.id) for s in sys.strands})
    self_count = {r: 0 for r in reps}
    pair_count: dict[tuple[int, int], int] = {}
    for e in range(graph.n_edges):
        d = 2 * e
        a = sys.unoriented_of(sys.strand_of(d, RIGHT))
        b = sys.unoriented_of(sys.strand_of(d, LEFT))
        if a == b:
            self_count[a] += 1
        else:
            key = (min(a, b), max(a, b))
            pair_count[key] = pair_count.get(key, 0) + 1

    strands_out = []
    minimal = True
    for r in reps:
        s = sys.strands[r]
        ok = self_count[r] == 0
        minimal &= ok
        strands_out.append(
            {
                "strand": r,
                "homology": list(s.homology),
                "length": len(s),
                "self_crossings": self_count[r],
                "ok": ok,
            }
        )
    pairs_out = []
    for i, a in enumerate(reps):
        for b in reps[i + 1 :]:
            ha, hb = sys.strands[a].homology, sys.strands[b].homology
            bound = abs(ha[0] * hb[1] - ha[1] * hb[0])
            count = pair_count.get((a, b), 0)
            ok = count == bound
            minimal &= ok
            pairs_out.append(
                {"pair": [a, b], "crossings": count, "det_bound": bound, "ok": ok}
            )
    return MinimalityReport(strands_out, pairs_out, minimal)


# -- angular order ------------------------------------------------------------


def _half(v: Vec) -> int:
    # 0 for the half-plane starting at the positive x axis (angles [0, pi))
    return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1


def _angle_cmp(a: Vec, b: Vec) -> int:
    ha, hb = _half(a), _half(b)
    if ha != hb:
        return -1 if ha < hb else 1
    cr = a[0] * b[1] - a[1] * b[0]
    if cr > 0:
        return -1
    if cr < 0:
        return 1
    return 0


angle_key = functools.cmp_to_key(_angle_cmp)


def sort_ccw(vectors: Iterable[Vec]) -> list[Vec]:
    """Sort nonzero integer vectors by angle, starting at the positive x axis."""
    return sorted(vectors, key=angle_key)


def is_ccw_cyclic(vectors: list[Vec]) -> bool:
    """True if the cyclic sequence is weakly ccw-sorted (one full turn)."""
    n = len(vectors)
    if n <= 1:
        return True
    descents = 0
    for k in range(n):
        if _angle_cmp(vectors[k], vectors[(k + 1) % n]) > 0:
            descents += 1
    return descents <= 1


# -- boundary polygon ----------------------------------------------------------


def zigzag_polygon(graph: TorusGraph) -> NewtonPolygon:
    """Assemble the boundary polygon from strand homology classes.

    Classes sorted by angle concatenate to a closed convex boundary; the
    polygon is then centered so it is symmetric about the origin.
    """
    classes = [s.homology for s in StrandSystem(graph).strands]
    if any(h == (0, 0) for h in classes):
        raise NetworkSpectraError("a strand has trivial homology class")
    total = (0, 0)
    for h in classes:
        total = vadd(total, h)
    if total != (0, 0):
        raise NetworkSpectraError(f"strand classes sum to {total}, not (0, 0)")
    ordered = sort_ccw(classes)
    pts = [(0, 0)]
    for h in ordered:
        pts.append(vadd(pts[-1], h))
    pts.pop()  # closes up by the zero-sum check
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    cx, cy = min(xs) + max(xs), min(ys) + max(ys)
    if cx % 2 or cy % 2:
        raise NetworkSpectraError("boundary polygon has no lattice center of symmetry")
    shifted = [(x - cx // 2, y - cy // 2) for x, y in pts]
    poly = NewtonPolygon.from_points(shifted)
    if not poly.is_centrally_symmetric():
        raise NetworkSpectraError("assembled polygon is not centrally symmetric")
    return poly


# -- zig-zag fans ---------------------------------------------------------------


@dataclass(frozen=True)
class LocalFan:
    """Rays at one vertex in corner order, with the dart each cone selects.

    Corner k sits between rotation slots k and k+1.  ``rays[k]`` is the class
    of the strand turning R through corner k; the cone bounded by rays k-1 and
    k selects the outgoing dart at slot k (the incoming reversal for the
    reverse fan).
    """

    vertex: int
    rays: tuple[Vec, ...]
    cone_darts: tuple[int, ...]

    def locate(self, direction: Vec) -> int:
        """Dart selected by the cone whose interior contains ``direction``."""
        n = len(self.rays)
        for k in range(n):
            lo = self.rays[(k - 1) % n]
            hi = self.rays[k]
            if _angle_cmp(lo, hi) == 0:
                continue  # zero-width cone between equal rays
            if _between_ccw(lo, hi, direction):
                return self.cone_darts[k]
        raise NetworkSpectraError(
            f"direction {direction} lies on a ray of the local fan at vertex {self.vertex}"
        )


def _between_ccw(lo: Vec, hi: Vec, v: Vec) -> bool:
    """Strictly between lo and hi going ccw (angles, with wraparound)."""
    a, b, c = _angle_cmp(lo, v), _angle_cmp(v, hi), _angle_cmp(lo, hi)
    if c < 0:
        return a < 0 and b < 0
    return a < 0 or b < 0


@dataclass
class ZigZagFans:
    """Global fan rays plus the forward and reverse local fan at each vertex."""

    global_rays: tuple[Vec, ...]
    local: dict[int, LocalFan]
    local_reverse: dict[int, LocalFan]

    def cones(self) -> list[tuple[Vec, Vec]]:
        n = len(self.global_rays)
        return [(self.global_rays[k], self.global_rays[(k + 1) % n]) for k in range(n)]

    def selections(self, cone: tuple[Vec, Vec]) -> dict[int, int]:
        """Forward selection: the outgoing dart at each vertex for this cone."""
        direction = vadd(cone[0], cone[1])
        return {v: fan.locate(direction) for v, fan in self.local.items()}

    def reverse_selections(self, cone: tuple[Vec, Vec]) -> dict[int, int]:
        """Reverse selection: the incoming dart (head at the vertex)."""
        direction = vadd(cone[0], cone[1])
        return {v: fan.locate(direction) for v, fan in self.local_reverse.items()}


def fans(graph: TorusGraph) -> ZigZagFans:
    """Build the global fan and both local fans of a minimal network."""
    sys = StrandSystem(graph)
    classes: set[Vec] = set()
    for s in sys.strands:
        h = s.homology
        g = math.gcd(abs(h[0]), abs(h[1]))
        if g == 0:
            raise NetworkSpectraError("trivial strand class")
        if g != 1:
            raise NetworkSpectraError(f"non-primitive strand class {h} (network not minimal)")
        classes.add(h)
    global_rays = tuple(sort_ccw(classes))

    local: dict[int, LocalFan] = {}
    local_rev: dict[int, LocalFan] = {}
    for v, slots in graph.rotation.items():
        k = len(slots)
        fwd_rays = []
        rev_rays = []
        for i in range(k):
            nxt = slots[(i + 1) % k]
            fwd_rays.append(sys.strands[sys.strand_of(graph.alpha(nxt), RIGHT)].homology)
            rev_rays.append(sys.strands[sys.strand_of(graph.alpha(slots[i]), LEFT)].homology)
        if not is_ccw_cyclic(fwd_rays):
            raise NetworkSpectraError(f"local rays at vertex {v} are not in ccw order")
        local[v] = LocalFan(v, tuple(fwd_rays), tuple(slots))
        local_rev[v] = LocalFan(
            v, tuple(rev_rays), tuple(graph.alpha(d) for d in slots)
        )
    return ZigZagFans(global_rays, local, local_rev)
