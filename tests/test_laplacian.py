from fractions import Fraction

import pytest

from network_spectra.errors import SingleVertexGraph, TooLarge
from network_spectra.fixtures import build
from network_spectra.graph_core import random_rational_conductances
from network_spectra.laplacian import (
    build_laplacian,
    charpoly,
    node_check,
    principal_minor,
)
from network_spectra.laurent import LaurentPoly2
from network_spectra.zigzag import zigzag_polygon

# hand-expanded determinants at unit conductances (frozen)
UNIT_CHARPOLY = {
    "sq1": {(0, 0): 4, (1, 0): -1, (-1, 0): -1, (0, 1): -1, (0, -1): -1},
    "hex1": {(0, 0): 6, (1, 0): -1, (-1, 0): -1, (0, 1): -1, (0, -1): -1, (1, -1): -1, (-1, 1): -1},
    "tri1": {(0, 0): 6, (1, 0): -1, (-1, 0): -1, (0, 1): -1, (0, -1): -1, (-1, 1): -1, (1, -1): -1},
    "sq2": {(0, 0): 16, (0, 1): -8, (0, -1): -8, (0, 2): 1, (0, -2): 1, (1, 0): -1, (-1, 0): -1},
    "tri2": {
        (0, 0): 34,
        (0, 1): -14,
        (0, -1): -14,
        (0, 2): 1,
        (0, -2): 1,
        (1, 0): -1,
        (-1, 0): -1,
        (1, 1): -2,
        (-1, -1): -2,
        (1, 2): -1,
        (-1, -2): -1,
    },
}


@pytest.mark.parametrize("name", sorted(UNIT_CHARPOLY))
def test_unit_charpoly(name):
    g, c = build(name)
    assert charpoly(build_laplacian(g, c)) == LaurentPoly2(UNIT_CHARPOLY[name])


def test_sq1_matrix_entries():
    g, c = build("sq1")
    L = build_laplacian(g, c)
    assert L.size == 1
    assert L.entry(0, 0) == LaurentPoly2(UNIT_CHARPOLY["sq1"])


def test_hex1_matrix_entries():
    g, _ = build("hex1")
    c = {0: Fraction(2), 1: Fraction(3), 2: Fraction(5)}
    L = build_laplacian(g, c)
    assert L.entry(0, 0) == LaurentPoly2({(0, 0): 10})
    assert L.entry(0, 1) == LaurentPoly2({(0, 0): -2, (1, 0): -3, (0, 1): -5})
    assert L.entry(1, 0) == LaurentPoly2({(0, 0): -2, (-1, 0): -3, (0, -1): -5})


def test_transpose_involution_random(any_network, rng):
    g, _ = any_network
    for _ in range(5):
        c = random_rational_conductances(g, rng, positive=False)
        assert build_laplacian(g, c).transposed_involution_holds()


def test_row_sums_vanish_at_unit_point(any_network, rng):
    # constant functions are harmonic: rows of the untwisted matrix sum to 0
    g, _ = any_network
    c = random_rational_conductances(g, rng)
    L = build_laplacian(g, c)
    for u in range(L.size):
        total = sum((L.entry(u, v).eval(1, 1) for v in range(L.size)), Fraction(0))
        assert total == 0


def test_sigma_symmetry(any_network, rng):
    g, _ = any_network
    c = random_rational_conductances(g, rng, positive=False)
    p = charpoly(build_laplacian(g, c))
    assert p == p.involution()


def test_node_report_sq1():
    g, c = build("sq1")
    rep = node_check(charpoly(build_laplacian(g, c)))
    assert rep.value == 0
    assert rep.gradient == (0, 0)
    assert rep.hessian == ((-2, 0), (0, -2))
    assert rep.hessian_det == 4
    assert rep.is_node


def test_node_report_hex1():
    g, c = build("hex1")
    rep = node_check(charpoly(build_laplacian(g, c)))
    assert rep.value == 0 and rep.gradient == (0, 0) and rep.hessian_det != 0


def test_node_report_non_curve_point():
    rep = node_check(LaurentPoly2.monomial(1, 0))
    assert rep.value == 1
    assert not rep.on_curve and not rep.is_node


def test_principal_minor_hex1():
    g, _ = build("hex1")
    c = {0: Fraction(2), 1: Fraction(3), 2: Fraction(5)}
    L = build_laplacian(g, c)
    q = principal_minor(L, 0)
    assert q == LaurentPoly2.constant(10)  # a + b + c
    g, cu = build("hex1")
    qu = principal_minor(build_laplacian(g, cu), 0)
    assert qu.eval(1, 1) == 3  # the spanning tree count of hex1


def test_minor_polygon_strictly_inside():
    g, c = build("hex1")
    L = build_laplacian(g, c)
    p_hull = charpoly(L).newton_polygon()
    q_hull = principal_minor(L, 0).newton_polygon()
    for pt in q_hull.vertices:
        assert p_hull.contains(pt, strict=True)


def test_minor_polygon_contained_tri2():
    g, c = build("tri2")
    L = build_laplacian(g, c)
    p_hull = charpoly(L).newton_polygon()
    for v0 in (0, 1):
        q = principal_minor(L, v0)
        for pt in q.support():
            assert p_hull.contains(pt, strict=True)


def test_single_vertex_minor_raises():
    g, c = build("sq1")
    with pytest.raises(SingleVertexGraph):
        principal_minor(build_laplacian(g, c), 0)


def test_matrix_too_large():
    g, c = build("hex1")
    with pytest.raises(TooLarge):
        charpoly(build_laplacian(g, c), max_vertices=1)


def test_polygon_matches_zigzag(any_network, rng):
    g, _ = any_network
    c = random_rational_conductances(g, rng)
    assert charpoly(build_laplacian(g, c)).newton_polygon() == zigzag_polygon(g)

