"""Oriented cycle-rooted spanning forests: enumeration, the determinant
oracle, dual pairs, and the fan constructions for boundary classes.

An OCRSF is an edge subset of size |V| whose components each carry exactly one
cycle, together with an orientation of every cycle.  Tree edges are oriented
toward their component's cycle, so an oriented OCRSF is the same thing as a
successor function: one outgoing dart per vertex, no edge used twice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from typing import Iterable, Mapping, Sequence

from .errors import SIZE_BOUND, NotAPolygonVertex, StrandNotOnEdgeFamily, check_size
from .graph_core import TorusGraph, Vec, vadd
from .laurent import LaurentPoly2, NewtonPolygon
from .zigzag import StrandSystem, fans, zigzag_polygon


@dataclass(frozen=True)
class OrientedForest:
    """One OCRSF: oriented cycles plus tree darts pointing toward the cycles."""

    edges: frozenset[int]
    cycles: tuple[tuple[int, ...], ...]
    cycle_classes: tuple[Vec, ...]
    tree_darts: tuple[int, ...]

    def homology(self) -> Vec:
        h = (0, 0)
        for c in self.cycle_classes:
            h = vadd(h, c)
        return h

    def out_darts(self, graph: TorusGraph) -> dict[int, int]:
        """The successor function: one outgoing dart per vertex."""
        out = {}
        for cyc in self.cycles:
            for d in cyc:
                out[graph.tail_of(d)] = d
        for d in self.tree_darts:
            out[graph.tail_of(d)] = d
        return out

    def weight(self, conductances: Mapping[int, Fraction]) -> Fraction:
        w = Fraction(1)
        for e in self.edges:
            w *= Fraction(conductances[e])
        return w

    def is_union_of_cycles(self) -> bool:
        return not self.tree_darts


def _components(graph: TorusGraph, edge_subset: Sequence[int]):
    """Connected components spanned by the subset, as (vertices, edges) pairs."""
    adj: dict[int, list[int]] = {}
    for e in edge_subset:
        ed = graph.edges[e]
        adj.setdefault(ed.tail, []).append(e)
        adj.setdefault(ed.head, []).append(e)
    seen: set[int] = set()
    comps = []
    for start in adj:
        if start in seen:
            continue
        verts = {start}
        stack = [start]
        edges: set[int] = set()
        while stack:
            v = stack.pop()
            for e in adj[v]:
                edges.add(e)
                ed = graph.edges[e]
                for u in (ed.tail, ed.head):
                    if u not in verts:
                        verts.add(u)
                        stack.append(u)
        seen |= verts
        comps.append((verts, edges))
    return comps


def _unique_cycle(graph: TorusGraph, verts: set[int], edges: set[int]):
    """The unique cycle of a unicyclic component, as an oriented dart tuple."""
    deg: dict[int, int] = {v: 0 for v in verts}
    for e in edges:
        ed = graph.edges[e]
        deg[ed.tail] += 1
        deg[ed.head] += 1
    alive = set(edges)
    changed = True
    while changed:
        changed = False
        for e in list(alive):
            ed = graph.edges[e]
            if ed.tail != ed.head and (deg[ed.tail] == 1 or deg[ed.head] == 1):
                alive.remove(e)
                deg[ed.tail] -= 1
                deg[ed.head] -= 1
                changed = True
    start_edge = min(alive)
    d = 2 * start_edge
    cyc = [d]
    v = graph.head_of(d)
    used = {start_edge}
    while v != graph.tail_of(cyc[0]) or len(used) < len(alive):
        for e in sorted(alive):
            if e in used:
                continue
            ed = graph.edges[e]
            if ed.tail == v:
                cyc.append(2 * e)
                used.add(e)
                v = ed.head
                break
            if ed.head == v:
                cyc.append(2 * e + 1)
                used.add(e)
                v = ed.tail
                break
        else:
            raise AssertionError("cycle walk failed")
    return tuple(cyc), alive


def _tree_darts_toward(graph: TorusGraph, edges: set[int], cycle_edges: set[int]):
    """Orient non-cycle edges toward the cycle (each vertex one out-dart)."""
    tree = edges - cycle_edges
    if not tree:
        return ()
    cyc_verts = set()
    for e in cycle_edges:
        cyc_verts.add(graph.edges[e].tail)
        cyc_verts.add(graph.edges[e].head)
    adj: dict[int, list[int]] = {}
    for e in tree:
        ed = graph.edges[e]
        adj.setdefault(ed.tail, []).append(e)
        adj.setdefault(ed.head, []).append(e)
    out = []
    attached = set(cyc_verts)
    frontier = [v for v in cyc_verts if v in adj]
    remaining = set(tree)
    while remaining:
        new_frontier = []
        for v in frontier:
            for e in adj.get(v, ()):
                if e not in remaining:
                    continue
                ed = graph.edges[e]
                far = ed.head if ed.tail == v else ed.tail
                out.append(2 * e + 1 if ed.tail == v else 2 * e)
                remaining.remove(e)
                if far not in attached:
                    attached.add(far)
                    new_frontier.append(far)
        if not new_frontier and remaining:
            raise AssertionError("tree orientation failed")
        frontier = new_frontier
    return tuple(sorted(out))


def _cycle_class(graph: TorusGraph, cyc: Sequence[int]) -> Vec:
    h = (0, 0)
    for d in cyc:
        h = vadd(h, graph.disp(d))
    return h


def _crsf_structures(graph: TorusGraph, max_edges: int):
    """Unoriented CRSFs: (edge subset, canonical cycles, tree darts)."""
    check_size(graph.n_edges, "edges", max_edges)
    out = []
    for subset in combinations(range(graph.n_edges), graph.n_vertices):
        comps = _components(graph, subset)
        if sum(len(vs) for vs, _ in comps) != graph.n_vertices:
            continue
        if any(len(vs) != len(es) for vs, es in comps):
            continue
        cycles = []
        trees: list[int] = []
        for vs, es in comps:
            cyc, cyc_edges = _unique_cycle(graph, vs, es)
            cycles.append(cyc)
            trees.extend(_tree_darts_toward(graph, es, cyc_edges))
        out.append((frozenset(subset), tuple(cycles), tuple(sorted(trees))))
    return out


def _orientations(graph: TorusGraph, cycles):
    """All per-cycle orientation choices (2^k)."""
    reversed_cycles = [tuple(graph.alpha(d) for d in reversed(c)) for c in cycles]
    for choice in product((0, 1), repeat=len(cycles)):
        yield tuple(
            cycles[k] if pick == 0 else reversed_cycles[k]
            for k, pick in enumerate(choice)
        )


def enumerate_ocrsfs(
    graph: TorusGraph, max_edges: int = SIZE_BOUND
) -> list[OrientedForest]:
    """All OCRSFs: subset scan expanded over cycle orientations."""
    out: list[OrientedForest] = []
    for edges, cycles, trees in _crsf_structures(graph, max_edges):
        for oriented in _orientations(graph, cycles):
            out.append(
                OrientedForest(
                    edges,
                    oriented,
                    tuple(_cycle_class(graph, c) for c in oriented),
                    trees,
                )
            )
    return out


def pfnlap_sum(
    graph: TorusGraph,
    conductances: Mapping[int, Fraction],
    max_edges: int = SIZE_BOUND,
) -> LaurentPoly2:
    """Brute-force oracle for det of the twisted Laplacian.

    Sums wt(gamma) * prod over cycles of (1 - chi^[cycle]); summing the two
    orientations of each cycle independently turns the product into
    prod of [(1 - chi^h) + (1 - chi^-h)] per unoriented CRSF.
    """
    total = LaurentPoly2.zero()
    for edges, cycles, _trees in _crsf_structures(graph, max_edges):
        wt = Fraction(1)
        for e in edges:
            wt *= Fraction(conductances[e])
        term = LaurentPoly2.constant(wt)
        for cyc in cycles:
            h = _cycle_class(graph, cyc)
            factor = (LaurentPoly2.one() - LaurentPoly2.monomial(h[0], h[1])) + (
                LaurentPoly2.one() - LaurentPoly2.monomial(-h[0], -h[1])
            )
            term = term * factor
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


def enumerate_dual_pairs(
    graph: TorusGraph, max_edges: int = SIZE_BOUND
) -> list[DualPair]:
    """All (primal OCRSF, crossing-free dual OCRSF) pairs.

    The crossing-free dual edge set is forced to be the complement; only the
    dual cycle orientations are free (2^k per primal forest).
    """
    dual = graph.dual()
    pairs = []
    for edges, cycles, trees in _crsf_structures(graph, max_edges):
        complement = [e.id for e in graph.edges if e.id not in edges]
        comps = _components(dual, complement)
        assert sum(len(vs) for vs, _ in comps) == dual.n_vertices, (
            "dual complement misses faces"
        )
        assert all(len(vs) == len(es) for vs, es in comps), (
            "dual complement is not a CRSF"
        )
        dual_cycles = []
        dual_trees: list[int] = []
        for vs, es in comps:
            cyc, cyc_edges = _unique_cycle(dual, vs, es)
            dual_cycles.append(cyc)
            dual_trees.extend(_tree_darts_toward(dual, es, cyc_edges))
        assert len(dual_cycles) == len(cycles), "dual cycle count differs from primal"
        for p_cycles in _orientations(graph, cycles):
            primal = OrientedForest(
                edges,
                p_cycles,
                tuple(_cycle_class(graph, c) for c in p_cycles),
                trees,
            )
            for d_cycles in _orientations(dual, tuple(dual_cycles)):
                dual_forest = OrientedForest(
                    frozenset(complement),
                    d_cycles,
                    tuple(_cycle_class(dual, c) for c in d_cycles),
                    tuple(sorted(dual_trees)),
                )
                pairs.append(DualPair.build(primal, dual_forest))
    return pairs


def dual_pair_hull(
    graph: TorusGraph, max_edges: int = SIZE_BOUND
) -> NewtonPolygon:
    return NewtonPolygon.from_points(p.cls for p in enumerate_dual_pairs(graph, max_edges))


# -- extremal and external constructions ----------------------------------------


def _forest_from_out_darts(graph: TorusGraph, out: Mapping[int, int]) -> OrientedForest:
    """Build an OrientedForest from a successor function that is a union of cycles."""
    darts = sorted(out.values())
    edges = frozenset(graph.edge_of(d) for d in darts)
    if len(edges) != len(darts):
        raise AssertionError("successor function reuses an edge")
    indeg: dict[int, int] = {}
    for d in darts:
        indeg[graph.head_of(d)] = indeg.get(graph.head_of(d), 0) + 1
    if set(indeg) != set(out) or any(v != 1 for v in indeg.values()):
        raise AssertionError("selection is not a disjoint union of cycles")
    cycles = []
    seen: set[int] = set()
    for v0 in sorted(out):
        if v0 in seen:
            continue
        cyc = []
        v = v0
        while v not in seen:
            seen.add(v)
            cyc.append(out[v])
            v = graph.head_of(out[v])
        cycles.append(tuple(cyc))
    return OrientedForest(
        edges,
        tuple(cycles),
        tuple(_cycle_class(graph, c) for c in cycles),
        (),
    )


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
        raise NotAPolygonVertex(f"{v} is not a vertex of {poly.vertices}")
    return extremal_table(graph)[v]


def _chain_of_forest(graph: TorusGraph, f: OrientedForest) -> dict[int, int]:
    """Signed edge chain (+1 forward dart, -1 backward) of a union of cycles."""
    chain: dict[int, int] = {}
    for cyc in f.cycles:
        for d in cyc:
            e = graph.edge_of(d)
            chain[e] = chain.get(e, 0) + (1 if graph.is_forward(d) else -1)
    return chain


def _chain_of_strand(graph: TorusGraph, strand) -> dict[int, int]:
    chain: dict[int, int] = {}
    for d in strand.darts:
        e = graph.edge_of(d)
        chain[e] = chain.get(e, 0) + (1 if graph.is_forward(d) else -1)
    return chain


def polygon_edge_families(graph: TorusGraph):
    """For each ccw boundary edge (V1 -> V2): primitive vector and its strands."""
    poly = zigzag_polygon(graph)
    sys = StrandSystem(graph)
    out = []
    n = len(poly.vertices)
    for k in range(n):
        v1 = poly.vertices[k]
        v2 = poly.vertices[(k + 1) % n]
        vec = (v2[0] - v1[0], v2[1] - v1[1])
        g = math.gcd(abs(vec[0]), abs(vec[1]))
        prim = (vec[0] // g, vec[1] // g)
        family = [s.id for s in sys.strands if s.homology == prim]
        assert len(family) == g, (v1, v2, family)
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
        raise NotAPolygonVertex(f"({v1}, {v2}) is not a ccw boundary edge")
    subset = list(subset)
    if len(set(subset)) != len(subset) or any(s not in fam["strands"] for s in subset):
        raise StrandNotOnEdgeFamily(
            f"subset {subset} not within the family {fam['strands']} of edge ({v1}, {v2})"
        )
    sys = StrandSystem(graph)
    chain = _chain_of_forest(graph, extremal_ocrsf(graph, v1))
    for sid in subset:
        for e, val in _chain_of_strand(graph, sys.strands[sid]).items():
            chain[e] = chain.get(e, 0) + val
    out: dict[int, int] = {}
    for e, val in chain.items():
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


def boundary_point_counts(graph: TorusGraph, max_edges: int = SIZE_BOUND):
    """#OCRSFs per boundary lattice point, with the binomial reference value."""
    poly = zigzag_polygon(graph)
    counts: dict[Vec, int] = {}
    for f in enumerate_ocrsfs(graph, max_edges=max_edges):
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
