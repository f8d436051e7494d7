"""Oriented cycle-rooted spanning forests: enumeration, the determinant
oracle, dual pairs, and the fan constructions for boundary classes.

An oriented OCRSF is stored as its successor function ``out``: one outgoing
dart per vertex, no edge used twice.  Each component of such a function holds
exactly one cycle and its tree darts point toward it, so the oriented OCRSFs
are exactly the successor functions.  ``distinct_choices`` is the package's one
backtracking search, and its order is every enumeration's order.  ``_successors``
runs it over the vertices with darts keyed by edge (a loop's two darts are its
two orientations), ``enumerate_dimers`` over the whites with darts keyed by
their black head.  ``_forest`` walks ``TorusGraph.dart_table`` once, with one
mark array; the weights and ``pfnlap_sum`` sum in integers.

A dual pair's dual forest uses the dual edges of the primal forest's
complement, so the dual forests are the dual graph's successor functions on
the complement edges.  A primal forest with a contractible cycle (class
(0, 0)) has none: the F faces inside that cycle share only F - 1 complement
edges.  ``enumerate_dual_pairs`` still raises on such a forest instead of
skipping it, with an explicit ``raise`` so that ``python -O`` keeps it: the
benchmark in ``perfbench/`` lists this failure as known by its text, and
skipping the forest belongs with the benchmark's re-baseline.  It raises at
the first such forest in the search's order, so that order must not change.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Iterator, Mapping, Sequence

from .errors import NetworkSpectraError, check_size
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
        x = y = 0
        for hx, hy in self.cycle_classes:
            x, y = x + hx, y + hy
        return x, y

    def weight(self, conductances: Mapping[int, Fraction]) -> Fraction:
        return fraction_product(conductances[d >> 1] for d in self.out)

    def is_union_of_cycles(self) -> bool:
        return sum(map(len, self.cycles)) == len(self.out)


def fraction_product(values: Iterable) -> Fraction:
    """Ints or Fractions multiplied as numerators and denominators: one gcd."""
    ratios = [x.as_integer_ratio() for x in values]
    return Fraction(math.prod(p for p, _ in ratios), math.prod(q for _, q in ratios))


def distinct_choices(options: Sequence[Sequence[tuple[object, Hashable]]]) -> Iterator[tuple]:
    """Every tuple with one item per slot and no key taken twice, depth first:
    ``options[k]`` lists slot k's ``(item, key)`` pairs, tried in list order."""
    chosen: list = [None] * len(options)
    used: set = set()

    def extend(k: int) -> Iterator[tuple]:
        if k == len(options):
            yield tuple(chosen)
            return
        for item, key in options[k]:
            if key not in used:
                used.add(key)
                chosen[k] = item
                yield from extend(k + 1)
                used.remove(key)

    return extend(0)


def _successors(graph: TorusGraph, allowed: frozenset[int] | None = None) -> Iterator[tuple[int, ...]]:
    """Every successor function: each vertex takes an outgoing dart, on the
    ``allowed`` edges only when they are given, and no edge twice."""
    return distinct_choices([
        [(d, d >> 1) for d in graph.rotation.get(v, ()) if allowed is None or d >> 1 in allowed]
        for v in range(graph.n_vertices)
    ])


def _forest(graph: TorusGraph, out: tuple[int, ...]) -> OrientedForest:
    """Walk the successor function on ``graph.dart_table`` from each vertex,
    marking the vertices it reaches with the walk's start; a walk that reaches
    a vertex it marked itself closes a new cycle, which starts there."""
    table = graph.dart_table
    mark = [-1] * len(out)
    cycles, classes = [], []
    for start in range(len(out)):
        v = start
        while mark[v] < 0:
            mark[v] = start
            v = table[out[v]][0]
        if mark[v] == start:
            cyc = [out[v]]
            u, (x, y) = table[cyc[0]]
            while u != v:
                cyc.append(out[u])
                u, (dx, dy) = table[out[u]]
                x, y = x + dx, y + dy
            cycles.append(tuple(cyc))
            classes.append((x, y))
    return OrientedForest(out, tuple(cycles), tuple(classes))


def _ocrsfs(graph: TorusGraph) -> Iterator[OrientedForest]:
    check_size(graph.n_edges, "edges")
    return (_forest(graph, out) for out in _successors(graph))


def enumerate_ocrsfs(graph: TorusGraph) -> list[OrientedForest]:
    """All OCRSFs, one per successor function."""
    return list(_ocrsfs(graph))


def pfnlap_sum(forests: Iterable[OrientedForest], conductances: Mapping[int, Fraction]) -> LaurentPoly2:
    """Brute-force oracle for det of the twisted Laplacian, from its OCRSFs:
    the sum of wt(gamma) * prod over oriented cycles of (1 - chi^[cycle]).

    All in integers.  With c_e = p_e / q_e in lowest terms and Q the product
    of all q_e, a forest's weight is (prod_F p_e) * (Q // prod_F q_e) / Q, an
    exact division.  The weights are added up per tuple of cycle classes (in
    walk order), each tuple's product is expanded once on an exponent -> int
    Counter, and the total is divided by Q once per exponent.  The forests do
    not depend on the conductances, so one ``enumerate_ocrsfs`` list serves
    every draw.  A common denominator lcm(q_e) would make n_e as long as the
    lcm; on 2000-bit signed draws that ran 2-3x slower than a Fraction per
    forest (sq3x2 8.7 s, tri2x2 2.1 s, against 2.8 s and 1.2 s), where Q took
    0.97 s and 0.54 s.
    """
    ratios = {e: Fraction(c).as_integer_ratio() for e, c in conductances.items()}
    common = math.prod(q for _, q in ratios.values())
    by_dart = {d: r for e, r in ratios.items() for d in (2 * e, 2 * e + 1)}
    by_classes: dict[tuple[Vec, ...], int] = {}
    for f in forests:
        num = den = 1
        for d in f.out:
            p, q = by_dart[d]
            num *= p
            den *= q
        by_classes[f.cycle_classes] = by_classes.get(f.cycle_classes, 0) + num * (common // den)
    total: Counter = Counter()
    for classes, wt in by_classes.items():
        term = Counter({(0, 0): wt})
        for hx, hy in classes:
            term.subtract({(i + hx, j + hy): a for (i, j), a in term.items()})
        total.update(term)
    return LaurentPoly2({k: Fraction(a, common) for k, a in total.items()})


@dataclass(frozen=True)
class DualPair:
    primal: OrientedForest
    dual: OrientedForest
    cls: Vec

    @classmethod
    def build(cls, primal: OrientedForest, dual: OrientedForest) -> "DualPair":
        s = vadd(primal.homology(), dual.homology())
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
        assert len(f.cycle_classes) == len(primal.cycle_classes), "dual cycle count differs from primal"
    return forests


def enumerate_dual_pairs(graph: TorusGraph) -> list[DualPair]:
    """All (primal OCRSF, crossing-free dual OCRSF) pairs.

    The dual edge set is forced to be the complement; only the dual cycle
    orientations are free (2^k per primal forest).
    """
    dual = graph.dual()
    pairs = []
    for primal in _ocrsfs(graph):
        if (0, 0) in primal.cycle_classes:
            raise AssertionError("dual complement misses faces")
        pairs.extend(DualPair.build(primal, d) for d in _dual_forests(dual, primal))
    return pairs


def dual_pair_hull(graph: TorusGraph) -> NewtonPolygon:
    return NewtonPolygon.from_points(p.cls for p in enumerate_dual_pairs(graph))


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
    per_class = Counter(f.homology() for f in forests)
    counts = {h: n for h, n in per_class.items()
              if poly.contains(h) and not poly.contains(h, strict=True)}
    expected: dict[Vec, int] = {}
    for fam in polygon_edge_families(graph):
        (x, y), (px, py), n = fam["v1"], fam["primitive"], len(fam["strands"])
        for k in range(n + 1):
            expected[x + k * px, y + k * py] = math.comb(n, k)
    return counts, expected
