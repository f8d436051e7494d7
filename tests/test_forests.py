import random
from collections import Counter
from fractions import Fraction

import pytest

from network_spectra import forests as forests_mod
from network_spectra import laplacian
from network_spectra.errors import NetworkSpectraError, TooLarge
from network_spectra.fixtures import FIXTURE_NAMES, build
from network_spectra.forests import (
    boundary_point_counts,
    dual_pair_hull,
    enumerate_dual_pairs,
    enumerate_ocrsfs,
    external_ocrsf,
    extremal_ocrsf,
    extremal_table,
    pfnlap_sum,
    polygon_edge_families,
)
from network_spectra.graph_core import random_rational_conductances
from network_spectra.laplacian import build_laplacian, charpoly
from network_spectra.laurent import LaurentPoly2
from network_spectra.zigzag import zigzag_polygon


def test_sq1_ocrsfs():
    g, _ = build("sq1")
    forests = enumerate_ocrsfs(g)
    assert len(forests) == 4
    assert sorted(f.homology() for f in forests) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_hex1_ocrsfs():
    g, _ = build("hex1")
    forests = enumerate_ocrsfs(g)
    assert len(forests) == 6
    assert sorted(f.homology() for f in forests) == [
        (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0),
    ]


def test_tri2_ocrsf_count():
    # 4 double-loop + 12 two-cycle + 16 tree-decorated orientations (frozen count)
    g, _ = build("tri2")
    assert len(enumerate_ocrsfs(g)) == 32


def test_component_balance():
    g, _ = build("tri2")
    for f in enumerate_ocrsfs(g):
        assert len(f.edges) == g.n_vertices
        assert len(f.out) == g.n_vertices
        assert all(g.tail_of(d) == v for v, d in enumerate(f.out))


def test_enumeration_bound(lattice):
    g = lattice("sq", 4, 4)
    with pytest.raises(TooLarge, match=r"^32 edges exceeds the size bound 24$"):
        enumerate_ocrsfs(g)
    with pytest.raises(TooLarge, match=r"^32 edges exceeds the size bound 24$"):
        enumerate_dual_pairs(g)


def test_pfnlap_sq1_unit():
    g, c = build("sq1")
    assert pfnlap_sum(enumerate_ocrsfs(g), c) == LaurentPoly2(
        {(0, 0): 4, (1, 0): -1, (-1, 0): -1, (0, 1): -1, (0, -1): -1}
    )


def test_pfnlap_equals_charpoly_unit(any_network):
    g, c = any_network
    assert pfnlap_sum(enumerate_ocrsfs(g), c) == charpoly(build_laplacian(g, c))


def test_pfnlap_equals_charpoly_random(any_network, rng):
    g, _ = any_network
    forests = enumerate_ocrsfs(g)
    for _ in range(20):
        c = random_rational_conductances(g, rng, positive=False)
        assert pfnlap_sum(forests, c) == charpoly(build_laplacian(g, c))


def _reference_pfnlap(forests, c):
    """The oracle summed in Fractions: one weight per forest, added per sorted
    tuple of cycle classes, then each tuple's prod (1 - chi^h) expanded."""
    by_classes = {}
    for f in forests:
        key = tuple(sorted(f.cycle_classes))
        by_classes[key] = by_classes.get(key, 0) + f.weight(c)
    total = LaurentPoly2.zero()
    for classes, wt in by_classes.items():
        term = LaurentPoly2.constant(wt)
        for h in classes:
            term = term * (1 - LaurentPoly2.monomial(*h))
        total = total + term
    return total


def test_pfnlap_matches_fraction_sum(any_network, rng, long_conductances):
    g, c = any_network
    forests = enumerate_ocrsfs(g)
    for cond in (c, random_rational_conductances(g, rng, positive=False), long_conductances(g)):
        assert pfnlap_sum(forests, cond) == _reference_pfnlap(forests, cond)


@pytest.mark.parametrize("kind, m, n", [("sq", 2, 2), ("tri", 2, 2), ("sq", 3, 2)],
                         ids=["sq2x2", "tri2x2", "sq3x2"])
def test_pfnlap_matches_fraction_sum_on_lattices(lattice, kind, m, n):
    g = lattice(kind, m, n)
    forests = enumerate_ocrsfs(g)
    for seed in (1, 5):
        c = random_rational_conductances(g, random.Random(seed), positive=False)
        assert pfnlap_sum(forests, c) == _reference_pfnlap(forests, c)


def test_pfnlap_of_no_forests_is_zero():
    g, c = build("tri2")
    assert pfnlap_sum([], c) == LaurentPoly2.zero()


def test_pfnlap_accepts_int_conductances():
    g, _ = build("tri2")
    forests = enumerate_ocrsfs(g)
    c = {e.id: (-1) ** e.id * (e.id + 2) for e in g.edges}
    assert pfnlap_sum(forests, c) == _reference_pfnlap(forests, c)
    assert pfnlap_sum(forests, c) == charpoly(build_laplacian(g, c))


def test_pfnlap_does_not_use_the_laplacian(monkeypatch, rng):
    g, _ = build("tri2")
    c = random_rational_conductances(g, rng, positive=False)
    det = charpoly(build_laplacian(g, c))

    def unavailable(*args, **kwargs):
        raise AssertionError("the oracle called the determinant it checks")

    for name in ("integer_det", "build_laplacian", "_normal_row"):
        monkeypatch.setattr(laplacian, name, unavailable)
    assert pfnlap_sum(enumerate_ocrsfs(g), c) == det


def test_sq1_dual_pairs():
    g, _ = build("sq1")
    pairs = enumerate_dual_pairs(g)
    assert len(pairs) == 8
    classes = Counter(p.cls for p in pairs)
    assert classes == Counter(
        {(1, 0): 1, (-1, 0): 1, (0, 1): 1, (0, -1): 1, (0, 0): 4}
    )
    # primal (1,0)-loop pairs with dual cycles of class +-(1,0)
    for p in pairs:
        if p.primal.cycle_classes == ((1, 0),):
            assert p.dual.cycle_classes in (((1, 0),), ((-1, 0),))


def test_dual_pair_hull_matches(any_network):
    g, c = any_network
    assert dual_pair_hull(g) == zigzag_polygon(g)
    assert dual_pair_hull(g) == charpoly(build_laplacian(g, c)).newton_polygon()


def test_dual_cycles_parallel(any_network):
    g, _ = any_network
    for p in enumerate_dual_pairs(g):
        classes = [h for h in p.primal.cycle_classes + p.dual.cycle_classes]
        nonzero = [h for h in classes if h != (0, 0)]
        for a in nonzero:
            for b in nonzero:
                assert a[0] * b[1] - a[1] * b[0] == 0


def test_extremal_unique_per_polygon_vertex(any_network):
    g, _ = any_network
    table = extremal_table(g)
    counts = Counter(f.homology() for f in enumerate_ocrsfs(g))
    for v, forest in table.items():
        assert counts[v] == 1
        assert forest.is_union_of_cycles()
        assert forest.homology() == v
        for cyc in forest.cycles:  # each cycle is walked from its least vertex
            assert g.tail_of(cyc[0]) == min(g.tail_of(d) for d in cyc)


def test_extremal_sq1():
    g, _ = build("sq1")
    forest = extremal_ocrsf(g, (1, 0))
    assert forest.edges == frozenset({0})
    assert forest.cycle_classes == ((1, 0),)


def test_extremal_hex1():
    g, _ = build("hex1")
    forest = extremal_ocrsf(g, (1, 0))
    assert forest.edges == frozenset({0, 1})
    assert forest.homology() == (1, 0)


def test_extremal_rejects_non_vertex():
    g, _ = build("tri2")
    with pytest.raises(NetworkSpectraError, match=r"^\(5, 5\) is not a vertex of "):
        extremal_ocrsf(g, (5, 5))
    with pytest.raises(NetworkSpectraError, match=r"^\(1, 1\) is not a vertex of "):
        extremal_ocrsf(g, (1, 1))  # boundary point but not a vertex


def test_external_empty_subset_is_extremal():
    g, _ = build("sq1")
    fam = next(f for f in polygon_edge_families(g) if f["v1"] == (1, 0))
    forest = external_ocrsf(g, (fam["v1"], fam["v2"]), [])
    assert forest.homology() == (1, 0)


def test_external_single_strand_moves_to_next_vertex():
    g, _ = build("sq1")
    fam = next(f for f in polygon_edge_families(g) if f["v1"] == (1, 0) and f["v2"] == (0, 1))
    forest = external_ocrsf(g, (fam["v1"], fam["v2"]), fam["strands"])
    assert forest.homology() == (0, 1)
    assert forest.edges == frozenset({1})  # the (0,1) loop


def test_external_full_family_identity(any_network):
    g, _ = any_network
    for fam in polygon_edge_families(g):
        edge = (fam["v1"], fam["v2"])
        assert external_ocrsf(g, edge, []).homology() == fam["v1"]
        assert external_ocrsf(g, edge, fam["strands"]).homology() == fam["v2"]
        for k in range(len(fam["strands"]) + 1):
            f = external_ocrsf(g, edge, fam["strands"][:k])
            assert f.is_union_of_cycles()
            indeg = Counter(g.head_of(d) for d in f.out)
            assert all(indeg[v] == 1 for v in range(g.n_vertices))


def test_external_rejects_wrong_strand():
    g, _ = build("tri2")
    fams = polygon_edge_families(g)
    fam = fams[0]
    other = next(f for f in fams if f["primitive"] != fam["primitive"])
    with pytest.raises(NetworkSpectraError, match=r" not within the family "):
        external_ocrsf(g, (fam["v1"], fam["v2"]), other["strands"][:1])


def test_boundary_counts_binomial(any_network):
    g, _ = any_network
    counts, expected = boundary_point_counts(g, enumerate_ocrsfs(g))
    assert counts == expected


def test_tri2_interior_edge_point_count_two():
    # the vertical boundary edges of tri2 have lattice length 2: C(2,1) = 2
    g, _ = build("tri2")
    counts, _ = boundary_point_counts(g, enumerate_ocrsfs(g))
    assert counts[(1, 1)] == 2
    assert counts[(-1, -1)] == 2


def test_weights_product_of_conductances(rng):
    g, _ = build("hex1")
    c = random_rational_conductances(g, rng)
    for f in enumerate_ocrsfs(g):
        expected = Fraction(1)
        for e in f.edges:
            expected *= c[e]
        assert f.weight(c) == expected


LATTICE_OCRSF_COUNTS = [("sq", 2, 2, 136), ("tri", 2, 2, 876), ("sq", 3, 2, 1538)]


@pytest.mark.parametrize("kind, m, n, count", LATTICE_OCRSF_COUNTS, ids=["sq2x2", "tri2x2", "sq3x2"])
def test_lattice_ocrsfs_are_successor_functions(lattice, rng, kind, m, n, count):
    g = lattice(kind, m, n)
    forests = enumerate_ocrsfs(g)
    assert len(forests) == count == len({f.out for f in forests})
    for f in forests:
        assert len(f.edges) == g.n_vertices
        assert all(g.tail_of(d) == v for v, d in enumerate(f.out))
        for cyc in f.cycles:  # closed walks along the successor function
            assert all(f.out[g.tail_of(d)] == d for d in cyc)
            assert all(g.head_of(a) == g.tail_of(b) for a, b in zip(cyc, cyc[1:] + cyc[:1]))
    for _ in range(2):
        c = random_rational_conductances(g, rng, positive=False)
        assert pfnlap_sum(forests, c) == charpoly(build_laplacian(g, c))


@pytest.mark.parametrize("kind, m, n", [(k, m, n) for k, m, n, _ in LATTICE_OCRSF_COUNTS],
                         ids=["sq2x2", "tri2x2", "sq3x2"])
def test_contractible_cycle_raises_before_dual_forests(lattice, monkeypatch, kind, m, n):
    # Known failure, kept on purpose: perfbench/run.py's KNOWN_FAILURES expects this
    # text from `newton` and `temperley-check` on these three lattices.  ROADMAP
    # item 4 deletes the raise together with the benchmark's re-baseline.
    real = forests_mod._dual_forests

    def dual_forests(dual, primal):
        assert (0, 0) not in primal.cycle_classes
        return real(dual, primal)

    monkeypatch.setattr(forests_mod, "_dual_forests", dual_forests)
    with pytest.raises(AssertionError, match=r"^dual complement misses faces$"):
        enumerate_dual_pairs(lattice(kind, m, n))


def reference_successors(graph, allowed=None):
    """The recursive backtracker that ``distinct_choices`` replaced, kept as the
    reference for its output and order."""
    choices = [
        [d for d in graph.rotation.get(v, ()) if allowed is None or d >> 1 in allowed]
        for v in range(graph.n_vertices)
    ]
    out = [0] * graph.n_vertices
    used = set()

    def extend(v):
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


SEARCH_INPUTS = [*FIXTURE_NAMES, "sq2x2", "tri2x2", "sq3x2"]


def search_input(lattice, name):
    """A bundled fixture's graph, or a generated lattice named like ``sq2x2``."""
    if name in FIXTURE_NAMES:
        return build(name)[0]
    m, n = name[-3], name[-1]
    return lattice(name[:-3], int(m), int(n))


@pytest.mark.parametrize("name", SEARCH_INPUTS)
def test_successors_match_reference_backtracker(lattice, name):
    g = search_input(lattice, name)
    assert list(forests_mod._successors(g)) == list(reference_successors(g))


@pytest.mark.parametrize("name", SEARCH_INPUTS)
def test_dual_forests_match_reference_backtracker(lattice, name):
    g = search_input(lattice, name)
    dual = g.dual()
    checked = 0
    for primal in enumerate_ocrsfs(g):
        if (0, 0) in primal.cycle_classes:
            continue
        complement = frozenset(range(dual.n_edges)) - primal.edges
        expected = list(reference_successors(dual, complement))
        assert [f.out for f in forests_mod._dual_forests(dual, primal)] == expected
        checked += 1
    assert checked > 0


def test_distinct_choices_order():
    options = [[("a", 0), ("b", 1)], [("c", 0), ("d", 1), ("e", 2)], []]
    assert list(forests_mod.distinct_choices(options[:2])) == [
        ("a", "d"), ("a", "e"), ("b", "c"), ("b", "e"),
    ]
    assert list(forests_mod.distinct_choices(options)) == []
    assert list(forests_mod.distinct_choices([])) == [()]
