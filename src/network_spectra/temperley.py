"""Dimer covers of the superposition graph and the bijection with dual pairs.

A dimer cover is a perfect matching of the superposition graph, stored as a
set of its edge ids.  The matching induced by a dual pair puts each white ON
THE TAIL SIDE of the oriented primal or dual edge covering it: edge u -> v in
the forest matches (u, white); dual edge f -> f' in the dual forest matches
(f, white).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import SIZE_BOUND, NotAMatching, check_size
from .forests import DualPair, enumerate_dual_pairs, extremal_table
from .graph_core import SuperposedGraph, TorusGraph, Vec, vadd, vsub
from .laurent import NewtonPolygon


@dataclass(frozen=True)
class DimerCover:
    edges: frozenset[int]

    def weight(self, sup: SuperposedGraph, conductances: Mapping[int, Fraction]) -> Fraction:
        w = Fraction(1)
        for ge in self.edges:
            w *= Fraction(sup.edge_weight(ge, conductances))
        return w


def enumerate_dimers(sup: SuperposedGraph, max_whites: int = SIZE_BOUND) -> list[DimerCover]:
    """All perfect matchings, by backtracking over white vertices."""
    g = sup.graph
    blacks, whites = sup.color_classes()
    check_size(len(whites), "white vertices", max_whites)
    if len(blacks) != len(whites):
        return []
    out: list[DimerCover] = []
    chosen: list[int] = []
    used_black: set[int] = set()

    def backtrack(k: int) -> None:
        if k == len(whites):
            out.append(DimerCover(frozenset(chosen)))
            return
        w = whites[k]
        for d in g.rotation[w]:
            b = g.head_of(d)
            if b in used_black:
                continue
            used_black.add(b)
            chosen.append(g.edge_of(d))
            backtrack(k + 1)
            chosen.pop()
            used_black.remove(b)

    backtrack(0)
    return out


def temperley_map(sup: SuperposedGraph, pair: DualPair) -> DimerCover:
    """The dimer cover induced by a dual pair of OCRSFs."""
    base = sup.base
    dual_basegraph = base.dual()
    edges: list[int] = []
    for v, d in sorted(pair.primal.out_darts(base).items()):
        side = "tail" if base.is_forward(d) else "head"
        edges.append(sup.half_edge(base.edge_of(d), side))
    for f, d in sorted(pair.dual.out_darts(dual_basegraph).items()):
        side = "left" if dual_basegraph.is_forward(d) else "right"
        edges.append(sup.half_edge(dual_basegraph.edge_of(d), side))
    cover = DimerCover(frozenset(edges))
    _check_matching(sup, cover)
    return cover


def _check_matching(sup: SuperposedGraph, cover: DimerCover) -> None:
    g = sup.graph
    covered: dict[int, int] = {}
    for ge in cover.edges:
        e = g.edges[ge]
        for v in (e.tail, e.head):
            if v in covered:
                raise NotAMatching(f"vertex {v} covered twice")
            covered[v] = ge
    if len(covered) != g.n_vertices:
        raise NotAMatching("not every vertex is covered")


def dimer_homology(sup: SuperposedGraph, m: DimerCover, m0: DimerCover) -> Vec:
    """Class of the superposition cycle system of two covers.

    Orient every matched edge black -> white; the difference of the two
    1-chains is a cycle whose class is the difference of displacement sums.
    """
    g = sup.graph

    def total(cover: DimerCover) -> Vec:
        s = (0, 0)
        for ge in cover.edges:
            s = vadd(s, g.edges[ge].disp)
        return s

    return vsub(total(m), total(m0))


def reference_pair(graph: TorusGraph) -> DualPair:
    """The extremal dual pair at the lexicographically maximal polygon vertex.

    Its orientations are forced: all primal and dual cycles add up to the
    vertex class.  Used as the reference matching, which pins down the
    translation freedom of dimer classes so that [M_F] = [F] exactly.
    """
    table = extremal_table(graph)
    vmax = max(table)
    target = table[vmax]
    for pair in enumerate_dual_pairs(graph):
        if (
            pair.primal.edges == target.edges
            and pair.primal.cycles == target.cycles
            and pair.cls == vmax
        ):
            return pair
    raise AssertionError(f"no dual pair realizes the extremal class {vmax}")


def dimer_class(sup: SuperposedGraph, m: DimerCover, m0: DimerCover, reference_class: Vec) -> Vec:
    return vadd(dimer_homology(sup, m, m0), reference_class)


def dimer_newton_polygon(graph: TorusGraph) -> NewtonPolygon:
    """Hull of dimer classes, referenced so it matches the network polygon."""
    sup = graph.superpose()
    ref = reference_pair(graph)
    m0 = temperley_map(sup, ref)
    covers = enumerate_dimers(sup)
    return NewtonPolygon.from_points(
        dimer_class(sup, m, m0, ref.cls) for m in covers
    )
