import logging
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from network_spectra.errors import NetworkSpectraError, TooLarge
from network_spectra.fixtures import build
from network_spectra.graph_core import random_rational_conductances
from network_spectra.laplacian import (
    _det_dp,
    _det_grid,
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
    with pytest.raises(NetworkSpectraError, match=r"^the principal minor needs at least two vertices$"):
        principal_minor(build_laplacian(g, c), 0)


def test_matrix_too_large():
    g, c = build("hex1")
    with pytest.raises(TooLarge):
        charpoly(build_laplacian(g, c), max_vertices=1)


def test_polygon_matches_zigzag(any_network, rng):
    g, _ = any_network
    c = random_rational_conductances(g, rng)
    assert charpoly(build_laplacian(g, c)).newton_polygon() == zigzag_polygon(g)



# -- the two determinant engines ----------------------------------------------------

def _minor_rows(L, v0=0):
    keep = [v for v in range(L.size) if v != v0]
    return [[L.entry(u, v) for v in keep] for u in keep]


_coeff = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
_entry = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), _coeff, max_size=3)


@st.composite
def _laurent_matrices(draw):
    n = draw(st.integers(1, 6))
    rows = [[LaurentPoly2(draw(_entry)) for _ in range(n)] for _ in range(n)]
    zero_row = draw(st.none() | st.integers(0, n - 1))
    if zero_row is not None:
        rows[zero_row] = [LaurentPoly2.zero()] * n
    return rows


@settings(derandomize=True, deadline=None, max_examples=25)
@given(_laurent_matrices())
@example([[LaurentPoly2({(-3, 2): Fraction(7, 999983), (1, -1): -2})]])
@example([[LaurentPoly2.monomial(1, 0), LaurentPoly2.one()], [LaurentPoly2.zero()] * 2])
@example([[LaurentPoly2.zero(), LaurentPoly2.one()], [LaurentPoly2.monomial(0, -1), LaurentPoly2.zero()]])
def test_grid_engine_matches_dp(rows):
    assert _det_grid(rows) == _det_dp(rows)


@pytest.mark.parametrize("kind,m,n", [("sq", 3, 3), ("tri", 3, 3), ("sq", 4, 3)])
def test_grid_engine_matches_dp_on_lattices(lattice, kind, m, n):
    g = lattice(kind, m, n)
    L = build_laplacian(g, random_rational_conductances(g, random.Random(1), positive=False))
    assert L.size > 8  # charpoly takes the grid engine
    assert charpoly(L) == _det_dp(L.entries)
    assert principal_minor(L, 0) == _det_dp(_minor_rows(L))


def _fraction_det(m):
    """Gaussian elimination over Fraction: the oracle that uses neither engine."""
    m, det = [list(row) for row in m], Fraction(1)
    for k in range(len(m)):
        r = next((r for r in range(k, len(m)) if m[r][k]), None)
        if r is None:
            return Fraction(0)
        if r != k:
            m[k], m[r], det = m[r], m[k], -det
        det *= m[k][k]
        for row in m[k + 1:]:
            f = row[k] / m[k][k]
            for j in range(k, len(m)):
                row[j] -= f * m[k][j]
    return det


@pytest.mark.parametrize("m", [4, 6])
def test_grid_engine_large_lattices(lattice, m):
    g = lattice("sq", m, m)
    L = build_laplacian(g, random_rational_conductances(g, random.Random(m)))
    p = charpoly(L, max_vertices=L.size)
    for z, w in [(Fraction(2), Fraction(3)), (Fraction(-1, 2), Fraction(5, 3)), (Fraction(3, 7), Fraction(-2))]:
        assert p.eval(z, w) == _fraction_det([[e.eval(z, w) for e in row] for row in L.entries])
    assert p.newton_polygon() == zigzag_polygon(g)
    assert p == p.involution()
    assert node_check(p).is_node


def test_det_logs_engine(caplog, lattice):
    g = lattice("sq", 3, 3)
    L = build_laplacian(g, random_rational_conductances(g, random.Random(1)))
    with caplog.at_level(logging.DEBUG, logger="network_spectra.laplacian"):
        charpoly(L)
        principal_minor(L, 0)
    assert [r.getMessage() for r in caplog.records] == ["det: grid, V=9, grid 7x7", "det: subset DP, V=8"]
