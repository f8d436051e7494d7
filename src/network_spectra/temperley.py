"""Dimer covers of the superposition graph and the bijection with dual pairs.

A dimer cover is a perfect matching of the superposition graph, stored as a
set of its edge ids.  The matching induced by a dual pair puts each white ON
THE TAIL SIDE of the oriented primal or dual edge covering it: edge u -> v in
the forest matches (u, white); dual edge f -> f' in the dual forest matches
(f, white).  ``enumerate_dimers`` runs the package's one backtracking search,
``forests.distinct_choices``, in its order; ``DimerCover.weight`` sums in
integers (``forests.fraction_product``: one gcd per cover, not one per edge).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .errors import NetworkSpectraError, check_size
from .forests import DualPair, _dual_forests, distinct_choices, extremal_table, fraction_product
from .graph_core import SuperposedGraph, TorusGraph, Vec, vadd, vsub
from .laurent import NewtonPolygon


@dataclass(frozen=True)
class DimerCover:
    edges: frozenset[int]

    def weight(self, sup: SuperposedGraph, conductances: Mapping[int, Fraction]) -> Fraction:
        return fraction_product(sup.edge_weight(ge, conductances) for ge in self.edges)


def enumerate_dimers(sup: SuperposedGraph) -> list[DimerCover]:
    """All perfect matchings: ``distinct_choices`` over the white vertices in
    order, each white's darts keyed by their black head.  The whites are the
    base graph's edges, so the size bound counts edges."""
    g = sup.graph
    blacks, whites = sup.color_classes()
    check_size(len(whites), "edges")
    if len(blacks) != len(whites):
        return []
    options = [[(g.edge_of(d), g.head_of(d)) for d in g.rotation[w]] for w in whites]
    return [DimerCover(frozenset(edges)) for edges in distinct_choices(options)]


def temperley_map(sup: SuperposedGraph, pair: DualPair) -> DimerCover:
    """The dimer cover induced by a dual pair of OCRSFs.

    Each forest dart ``d`` matches the white of edge ``d >> 1`` on its tail
    side, which ``d & 1`` names: tail/head for primal darts, left/right face
    for dual darts.
    """
    edges = [sup.half_edge(d >> 1, ("tail", "head")[d & 1]) for d in pair.primal.out]
    edges += [sup.half_edge(d >> 1, ("left", "right")[d & 1]) for d in pair.dual.out]
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
                raise NetworkSpectraError(f"vertex {v} covered twice")
            covered[v] = ge
    if len(covered) != g.n_vertices:
        raise NetworkSpectraError("not every vertex is covered")


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
    vertex class, so one of the 2^k dual forests on the extremal forest's
    complement qualifies.  Used as the reference matching, which pins down
    the translation freedom of dimer classes so that [M_F] = [F] exactly.
    """
    table = extremal_table(graph)
    vmax = max(table)
    for dual in _dual_forests(graph.dual(), table[vmax]):
        pair = DualPair.build(table[vmax], dual)
        if pair.cls == vmax:
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
