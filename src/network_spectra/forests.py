"""Oriented cycle-rooted spanning forests: enumeration, the determinant
oracle, dual pairs, and the fan constructions for boundary classes.

An oriented OCRSF is stored as its successor function ``out``: one outgoing
dart per vertex, no edge used twice.  Each component of such a function holds
exactly one cycle and its tree darts point toward it, so the oriented OCRSFs
are exactly the successor functions.  ``_successors`` enumerates them by
backtracking over the vertices (a loop's two darts are its two orientations),
and ``_forest`` walks one to read off its cycles and their classes.

A dual pair's dual forest uses the dual edges of the primal forest's
complement, so the dual forests are the dual graph's successor functions on
the complement edges.  A primal forest with a contractible cycle (class
(0, 0)) has none: the F faces inside that cycle share only F - 1 complement
edges.  ``enumerate_dual_pairs`` still raises on such a forest instead of
skipping it, with an explicit ``raise`` so that ``python -O`` keeps it: the
benchmark in ``perfbench/`` lists this failure as known by its text, and
skipping the forest belongs with the benchmark's re-baseline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

from .errors import SIZE_BOUND, NetworkSpectraError, check_size
from .graph_core import TorusGraph, Vec, vadd
from .laurent import LaurentPoly2, NewtonPolygon
from .zigzag import StrandSystem, fans, zigzag_polygon


@dataclass(frozen=True)
class OrientedForest:
    """One OCRSF: its successor function and the oriented cycles read off it."""

    out: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]
    cycle_classes: tuple[Vec, ...]

    @property
    def edges(self) -> frozenset[int]:
        return frozenset(d >> 1 for d in self.out)

    def homology(self) -> Vec:
        h = (0, 0)
        for c in self.cycle_classes:
            h = vadd(h, c)
        return h

    def out_darts(self) -> dict[int, int]:
        """The successor function as a vertex -> dart map."""
        return dict(enumerate(self.out))

    def weight(self, conductances: Mapping[int, Fraction]) -> Fraction:
        w = Fraction(1)
        for e in self.edges:
            w *= Fraction(conductances[e])
        return w

    def is_union_of_cycles(self) -> bool:
        return sum(map(len, self.cycles)) == len(self.out)


def _successors(graph: TorusGraph, allowed: frozenset[int] | None = None) -> Iterator[tuple[int, ...]]:
    """Every successor function, by backtracking over the vertices in order.

    Each vertex takes an outgoing dart whose edge no earlier vertex took, on
    the ``allowed`` edges only when they are given.
    """
    choices = [
        [d for d in graph.rotation.get(v, ()) if allowed is None or d >> 1 in allowed]
        for v in range(graph.n_vertices)
    ]
    out = [0] * graph.n_vertices
    used: set[int] = set()

    def extend(v: int) -> Iterator[tuple[int, ...]]:
        if v == len(out):
            yield tuple(out)
            return
        for d in choices[v]:
            if d >> 1 not in used:
                used.add(d >> 1)
                out[v] = d
                yield from extend(v + 1)
                used.remove(d >> 1)

    return extend(0)


def _forest(graph: TorusGraph, out: tuple[int, ...]) -> OrientedForest:
    """Walk the successor function from each vertex; a walk that returns to
    its own path closes a new cycle, which starts where the walk re-entered."""
    seen = [False] * len(out)
    cycles = []
    for v in range(len(out)):
        path = []
        while not seen[v]:
            seen[v] = True
            path.append(v)
            v = graph.head_of(out[v])
        if v in path:
            cycles.append(tuple(out[u] for u in path[path.index(v):]))
    classes = []
    for cyc in cycles:
        h = (0, 0)
        for d in cyc:
            h = vadd(h, graph.disp(d))
        classes.append(h)
    return OrientedForest(out, tuple(cycles), tuple(classes))


def _ocrsfs(graph: TorusGraph, max_edges: int) -> Iterator[OrientedForest]:
    check_size(graph.n_edges, "edges", max_edges)
    return (_forest(graph, out) for out in _successors(graph))


def enumerate_ocrsfs(
    graph: TorusGraph, max_edges: int = SIZE_BOUND
) -> list[OrientedForest]:
    """All OCRSFs, one per successor function."""
    return list(_ocrsfs(graph, max_edges))


def pfnlap_sum(
    forests: Iterable[OrientedForest], conductances: Mapping[int, Fraction]
) -> LaurentPoly2:
    """Brute-force oracle for det of the twisted Laplacian, from its OCRSFs.

    Sums wt(gamma) * prod over oriented cycles of (1 - chi^[cycle]).  The
    weights are added up per sorted tuple of cycle classes first, so each
    product is expanded once per tuple.  The forests do not depend on the
    conductances, so one ``enumerate_ocrsfs`` list serves every draw.
    """
    by_classes: dict[tuple[Vec, ...], Fraction] = {}
    for f in forests:
        key = tuple(sorted(f.cycle_classes))
        by_classes[key] = by_classes.get(key, 0) + f.weight(conductances)
    total = LaurentPoly2.zero()
    for classes, wt in by_classes.items():
        term = LaurentPoly2.constant(wt)
        for h in classes:
            term = term * (1 - LaurentPoly2.monomial(*h))
        total = total + term
    return total


@dataclass(frozen=True)
class DualPair:
    primal: OrientedForest
    dual: OrientedForest
    cls: Vec

    @classmethod
    def build(cls, primal: OrientedForest, dual: OrientedForest) -> "DualPair":
        s = (0, 0)
        for h in primal.cycle_classes + dual.cycle_classes:
            s = vadd(s, h)
        if s[0] % 2 or s[1] % 2:
            raise AssertionError(f"half-integral pair class {s}/2 (crossing bug)")
        return cls(primal, dual, (s[0] // 2, s[1] // 2))

    def weight(self, conductances) -> Fraction:
        return self.primal.weight(conductances)


def _dual_forests(dual: TorusGraph, primal: OrientedForest) -> list[OrientedForest]:
    """The dual forests crossing no edge of ``primal``: the dual graph's
    successor functions on the complement of its edges."""
    complement = frozenset(range(dual.n_edges)) - primal.edges
    forests = [_forest(dual, out) for out in _successors(dual, complement)]
    for f in forests:
        assert f.edges == complement, "dual complement is not a CRSF"
        assert len(f.cycles) == len(primal.cycles), "dual cycle count differs from primal"
    return forests


def enumerate_dual_pairs(
    graph: TorusGraph, max_edges: int = SIZE_BOUND
) -> list[DualPair]:
    """All (primal OCRSF, crossing-free dual OCRSF) pairs.

    The dual edge set is forced to be the complement; only the dual cycle
    orientations are free (2^k per primal forest).
    """
    dual = graph.dual()
    pairs = []
    for primal in _ocrsfs(graph, max_edges):
        if (0, 0) in primal.cycle_classes:
            raise AssertionError("dual complement misses faces")
        pairs.extend(DualPair.build(primal, d) for d in _dual_forests(dual, primal))
    return pairs


def dual_pair_hull(
    graph: TorusGraph, max_edges: int = SIZE_BOUND
) -> NewtonPolygon:
    return NewtonPolygon.from_points(p.cls for p in enumerate_dual_pairs(graph, max_edges))


# -- extremal and external constructions ----------------------------------------


def _forest_from_out_darts(graph: TorusGraph, out: Mapping[int, int]) -> OrientedForest:
    """The forest of a successor function that must be a union of cycles."""
    if len({d >> 1 for d in out.values()}) != len(out):
        raise AssertionError("successor function reuses an edge")
    forest = _forest(graph, tuple(out[v] for v in range(graph.n_vertices)))
    if not forest.is_union_of_cycles():
        raise AssertionError("selection is not a disjoint union of cycles")
    return forest


def extremal_table(graph: TorusGraph) -> dict[Vec, OrientedForest]:
    """The unique extremal OCRSF for each vertex of the boundary polygon."""
    F = fans(graph)
    table: dict[Vec, OrientedForest] = {}
    for cone in F.cones():
        forest = _forest_from_out_darts(graph, F.selections(cone))
        h = forest.homology()
        if h in table:
            raise AssertionError(f"two cones produced class {h}")
        table[h] = forest
    poly = zigzag_polygon(graph)
    if set(table) != set(poly.vertices):
        raise AssertionError(
            f"extremal classes {sorted(table)} != polygon vertices {sorted(poly.vertices)}"
        )
    return table


def extremal_ocrsf(graph: TorusGraph, polygon_vertex: Vec) -> OrientedForest:
    poly = zigzag_polygon(graph)
    v = (int(polygon_vertex[0]), int(polygon_vertex[1]))
    if v not in poly.vertices:
        raise NetworkSpectraError(f"{v} is not a vertex of {poly.vertices}")
    return extremal_table(graph)[v]


def _chain(darts: Iterable[int]) -> dict[int, int]:
    """Signed edge chain of a dart sequence: +1 per forward dart, -1 per backward."""
    chain: dict[int, int] = {}
    for d in darts:
        chain[d >> 1] = chain.get(d >> 1, 0) + (-1 if d & 1 else 1)
    return chain


def polygon_edge_families(graph: TorusGraph):
    """For each ccw boundary edge (V1 -> V2): primitive vector and its strands."""
    poly = zigzag_polygon(graph)
    strands = StrandSystem(graph).strands
    out = []
    for v1, (prim, n) in zip(poly.vertices, poly.primitive_edges()):
        v2 = (v1[0] + n * prim[0], v1[1] + n * prim[1])
        family = [s.id for s in strands if s.homology == prim]
        assert len(family) == n, (v1, v2, family)
        out.append({"v1": v1, "v2": v2, "primitive": prim, "strands": family})
    return out


def external_ocrsf(
    graph: TorusGraph, polygon_edge: tuple[Vec, Vec], subset: Iterable[int]
) -> OrientedForest:
    """The external OCRSF for a boundary edge (V1, V2) and strand subset.

    Adds the chains of the chosen strands of the edge's family to the chain of
    the extremal OCRSF at V1; with the full family this lands on the extremal
    OCRSF at V2.
    """
    v1 = (int(polygon_edge[0][0]), int(polygon_edge[0][1]))
    v2 = (int(polygon_edge[1][0]), int(polygon_edge[1][1]))
    families = polygon_edge_families(graph)
    fam = next((f for f in families if f["v1"] == v1 and f["v2"] == v2), None)
    if fam is None:
        raise NetworkSpectraError(f"({v1}, {v2}) is not a ccw boundary edge")
    subset = list(subset)
    if len(set(subset)) != len(subset) or any(s not in fam["strands"] for s in subset):
        raise NetworkSpectraError(
            f"subset {subset} not within the family {fam['strands']} of edge ({v1}, {v2})"
        )
    strands = StrandSystem(graph).strands
    darts = list(extremal_ocrsf(graph, v1).out)
    for sid in subset:
        darts.extend(strands[sid].darts)
    out: dict[int, int] = {}
    for e, val in _chain(darts).items():
        if val == 0:
            continue
        if abs(val) != 1:
            raise AssertionError(f"chain value {val} on edge {e}")
        d = 2 * e if val > 0 else 2 * e + 1
        v = graph.tail_of(d)
        if v in out:
            raise AssertionError("chain is not a successor function")
        out[v] = d
    if set(out) != set(range(graph.n_vertices)):
        raise AssertionError("chain does not cover every vertex")
    return _forest_from_out_darts(graph, out)


def boundary_point_counts(graph: TorusGraph, forests: Iterable[OrientedForest]):
    """#OCRSFs of ``forests`` per boundary lattice point, with the binomial
    reference value."""
    poly = zigzag_polygon(graph)
    counts: dict[Vec, int] = {}
    for f in forests:
        h = f.homology()
        if poly.contains(h) and not poly.contains(h, strict=True):
            counts[h] = counts.get(h, 0) + 1
    expected: dict[Vec, int] = {}
    for fam in polygon_edge_families(graph):
        n = len(fam["strands"])
        v1, prim = fam["v1"], fam["primitive"]
        for k in range(n + 1):
            pt = (v1[0] + k * prim[0], v1[1] + k * prim[1])
            expected[pt] = math.comb(n, k)
    return counts, expected
