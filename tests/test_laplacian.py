import itertools
import logging
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from network_spectra import laplacian
from network_spectra.errors import InputError, NetworkSpectraError
from network_spectra.fixtures import FIXTURE_NAMES, build, fixture_path
from network_spectra.graph_core import random_rational_conductances
from network_spectra.laplacian import (
    _det,
    _integer_row,
    build_laplacian,
    charpoly,
    minor_rows,
    node_check,
    poly_div,
    poly_gcd,
    principal_minor,
    resultant_w,
    squarefree_parts,
)
from network_spectra.laurent import LaurentPoly2
from network_spectra.ydelta import MoveProgram, conserved_vector, run_program
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
    assert L.entries[0][0] == LaurentPoly2(UNIT_CHARPOLY["sq1"])


def test_hex1_matrix_entries():
    g, _ = build("hex1")
    c = {0: Fraction(2), 1: Fraction(3), 2: Fraction(5)}
    L = build_laplacian(g, c)
    assert L.entries[0][0] == LaurentPoly2({(0, 0): 10})
    assert L.entries[0][1] == LaurentPoly2({(0, 0): -2, (1, 0): -3, (0, 1): -5})
    assert L.entries[1][0] == LaurentPoly2({(0, 0): -2, (-1, 0): -3, (0, -1): -5})


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
        total = sum((L.entries[u][v].eval(1, 1) for v in range(L.size)), Fraction(0))
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
        for pt, _ in q.terms():
            assert p_hull.contains(pt, strict=True)


def test_single_vertex_minor_raises():
    g, c = build("sq1")
    with pytest.raises(NetworkSpectraError, match=r"^the principal minor needs at least two vertices$"):
        principal_minor(build_laplacian(g, c), 0)


def test_polygon_matches_zigzag(any_network, rng):
    g, _ = any_network
    c = random_rational_conductances(g, rng)
    assert charpoly(build_laplacian(g, c)).newton_polygon() == zigzag_polygon(g)


# -- the integer rows against the Fraction build they replace -----------------------


def _reference_entries(g, c):
    """Each dart's c added to its tail's diagonal entry and -c z^d1 w^d2 to its
    (tail, head) entry, summed in Fractions."""
    n = g.n_vertices
    entries = [[LaurentPoly2.zero() for _ in range(n)] for _ in range(n)]
    for d in range(g.n_darts):
        u, v = g.tail_of(d), g.head_of(d)
        x = Fraction(c[g.edge_of(d)])
        entries[u][u] = entries[u][u] + LaurentPoly2.constant(x)
        entries[u][v] = entries[u][v] - LaurentPoly2.monomial(*g.disp(d), x)
    return entries


def _assert_matches_reference(g, c):
    L, ref = build_laplacian(g, c), _reference_entries(g, c)
    assert list(L.rows) == _int_rows(ref)  # ints, shift and scale
    assert L.entries == tuple(map(tuple, ref))
    return L, ref


def _signed(g):
    return random_rational_conductances(g, random.Random(1), positive=False)


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_rows_match_fraction_build_on_fixtures(name):
    g, c = build(name)
    for cond in (c, _signed(g)):
        _assert_matches_reference(g, cond)


@pytest.mark.parametrize("kind,m,n", [("sq", 2, 2), ("tri", 3, 2), ("sq", 3, 3)])
def test_rows_match_fraction_build_on_lattices(lattice, kind, m, n):
    g = lattice(kind, m, n)
    _assert_matches_reference(g, _signed(g))


def test_rows_match_fraction_build_with_a_cancelled_diagonal():
    # vertex 0 of tri2 meets edges 0, 1, 4, 5 once and the loop 2 twice
    g, _ = build("tri2")
    c = _signed(g)
    c[0] = -(c[1] + 2 * c[2] + c[4] + c[5])
    assert c[0]
    L, _ = _assert_matches_reference(g, c)
    assert L.entries[0][0].coeff(0, 0) == 0


def test_rows_match_fraction_build_with_long_conductances(lattice, long_conductances):
    g = lattice("sq", 2, 2)
    L, _ = _assert_matches_reference(g, long_conductances(g))
    assert max(s for *_, s in L.rows).bit_length() > 2000


def _minor_cases(lattice):
    g = build("hex1")[0]
    yield g, _signed(g)
    # hex1's diagonal entries are c0 + c1 + c2: 1/2 + 1/2 + 1 shares the factor 2
    # with the row scale, and 2 + 3 - 5 leaves a zero row once the other column goes
    yield g, {0: Fraction(1, 2), 1: Fraction(1, 2), 2: Fraction(1)}
    yield g, {0: Fraction(2), 1: Fraction(3), 2: Fraction(-5)}
    g = lattice("sq", 2, 2)
    yield g, _signed(g)


def test_minor_rows_match_fraction_build(lattice):
    for g, c in _minor_cases(lattice):
        L, ref = _assert_matches_reference(g, c)
        for i, j in itertools.product(range(L.size), repeat=2):
            rows = [[e for v, e in enumerate(row) if v != j] for u, row in enumerate(ref) if u != i]
            assert minor_rows(L, i, j) == _int_rows(rows), (i, j)


def test_conserved_vector_matches_fraction_build_along_an_orbit():
    g, _ = build("tri2")
    prog = MoveProgram.load(fixture_path("tri2_cube_program"))
    rep = run_program(g, random_rational_conductances(g, random.Random(1)), prog, 25)
    for step in rep.steps:
        p = _det(_int_rows(_reference_entries(g, step.conductances)))
        anchor = max(k for k, _ in p.terms())
        assert conserved_vector(g, step.conductances) == (step.conserved, anchor)
        assert step.conserved == tuple((k, x / p.coeff(*anchor)) for k, x in p.terms())
    assert max(x.denominator.bit_length() for x in rep.steps[-1].conductances.values()) > 1000


def test_zero_conductance_raises():
    g, c = build("tri2")
    with pytest.raises(InputError, match=r"^conductance of edge 3 is zero$"):
        build_laplacian(g, {**c, 3: Fraction(0)})


# -- the two determinant engines ----------------------------------------------------

_coeff = st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6))
_entry = st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), _coeff, max_size=3)


@st.composite
def _laurent_matrices(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    rows = [[LaurentPoly2(draw(_entry)) for _ in range(n)] for _ in range(n)]
    zero_row = draw(st.none() | st.integers(0, n - 1))
    if zero_row is not None:
        rows[zero_row] = [LaurentPoly2.zero()] * n
    return rows


def _int_rows(rows):
    return [_integer_row(row) for row in rows]


def _det_by(engine, rows):
    """``_det`` of integer ``rows`` (shared front end, one division) with ``engine``
    at every size."""
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_det_dp", "_det_grid"):
            mp.setattr(laplacian, name, getattr(laplacian, engine))
        return _det(rows)


@settings(derandomize=True, deadline=None, max_examples=25)
@given(_laurent_matrices())
@example([[LaurentPoly2({(-3, 2): Fraction(7, 999983), (1, -1): -2})]])
@example([[LaurentPoly2.monomial(1, 0), LaurentPoly2.one()], [LaurentPoly2.zero()] * 2])
@example([[LaurentPoly2.zero(), LaurentPoly2.one()], [LaurentPoly2.monomial(0, -1), LaurentPoly2.zero()]])
def test_grid_engine_matches_dp(rows):
    rows = _int_rows(rows)
    assert _det_by("_det_grid", rows) == _det_by("_det_dp", rows)


@pytest.mark.parametrize("kind,m,n", [("sq", 3, 3), ("tri", 3, 3), ("sq", 4, 3)])
def test_grid_engine_matches_dp_on_lattices(lattice, kind, m, n):
    g = lattice(kind, m, n)
    L = build_laplacian(g, random_rational_conductances(g, random.Random(1), positive=False))
    assert L.size > 8  # above the size switch
    for rows in (L.rows, minor_rows(L, 0, 0)):
        assert _det_by("_det_grid", rows) == _det_by("_det_dp", rows)


# -- both engines against an oracle that shares neither their front end nor their exit

def _leibniz(rows):
    """Sum over permutations in LaurentPoly2 (Fraction) arithmetic."""
    total = LaurentPoly2.zero()
    for perm in itertools.permutations(range(len(rows))):
        term = LaurentPoly2.one()
        for u, v in enumerate(perm):
            term = term * rows[u][v]
        odd = sum(a > b for a, b in itertools.combinations(perm, 2)) & 1
        total = total - term if odd else total + term
    return total


_ENGINES = ["_det_dp", "_det_grid"]


@pytest.mark.parametrize("engine", _ENGINES)
@settings(derandomize=True, deadline=None, max_examples=20)
@given(_laurent_matrices(max_n=4))
@example([[LaurentPoly2({(-3, 2): Fraction(7, 999983), (1, -1): -2})]])
@example([[LaurentPoly2.monomial(1, 0), LaurentPoly2.one()], [LaurentPoly2.zero()] * 2])
def test_engines_match_leibniz(engine, rows):
    assert _det_by(engine, _int_rows(rows)) == _leibniz(rows)


@pytest.mark.parametrize("engine", _ENGINES)
def test_engines_match_leibniz_long_denominators(engine):
    rng, n = random.Random(3), 3

    def entry():
        return LaurentPoly2({(rng.randint(-1, 1), rng.randint(-1, 1)):
                             Fraction(rng.randrange(-2**2000, 2**2000), rng.randrange(2**1999, 2**2000))
                             for _ in range(2)})

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    assert _det_by(engine, _int_rows(rows)) == _leibniz(rows)


@pytest.mark.parametrize("engine", _ENGINES)
def test_engines_match_leibniz_on_laplacian(lattice, long_conductances, engine):
    g = lattice("sq", 2, 2)
    L = build_laplacian(g, long_conductances(g))
    assert L.size == 4
    assert _det_by(engine, L.rows) == _leibniz(L.entries)


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
    p = charpoly(L)
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


# -- the exact identities and helpers the divisor rests on


def _jacobi_cases(lattice):
    yield build("hex1")[0]
    yield lattice("sq", 2, 2)
    yield lattice("tri", 2, 2)


def test_desnanot_jacobi(lattice):
    # C_ij C_kl - C_il C_kj = P * M_{ik,jl} for i < k and j < l, C_ij the minor
    # without row i and column j, M_{ik,jl} the one without rows i, k and columns j, l
    for g in _jacobi_cases(lattice):
        L = build_laplacian(g, random_rational_conductances(g, random.Random(5)))
        n, p = L.size, charpoly(L)
        C = [[_det(minor_rows(L, i, j)) for j in range(n)] for i in range(n)]
        for (i, k), (j, l) in itertools.product(itertools.combinations(range(n), 2), repeat=2):
            rows = [[e for v, e in enumerate(row) if v not in (j, l)] for u, row in enumerate(L.entries) if u not in (i, k)]
            assert C[i][j] * C[k][l] - C[i][l] * C[k][j] == p * _det(_int_rows(rows)), (i, k, j, l)


def test_resultant_w():
    # Res_w(w - z, w^2 - 2) = +-(z^2 - 2) and Res_w(z w - 1, w - z) = +-(z^2 - 1); the
    # Laurent 3/z + 1/w + w is shifted to z w^2 + 3 w + z first, which is z^3 + 4z at w = z
    w_minus_z = LaurentPoly2({(0, 1): 1, (1, 0): -1})
    assert resultant_w(w_minus_z, LaurentPoly2({(0, 2): 1, (0, 0): -2})) in ([-2, 0, 1], [2, 0, -1])
    assert resultant_w(LaurentPoly2({(1, 1): 1, (0, 0): -1}), w_minus_z) in ([-1, 0, 1], [1, 0, -1])
    assert resultant_w(LaurentPoly2({(0, 1): 1, (0, -1): 1, (-1, 0): 3}), w_minus_z) in ([0, 4, 0, 1], [0, -4, 0, -1])


def test_poly_gcd_and_division():
    a = [-2, 1, 1]  # (z - 1)(z + 2)
    b = [3, -2, -1]  # -(z - 1)(z + 3)
    assert poly_gcd([6 * x for x in a], b) == [-1, 1]
    assert poly_gcd(a, [7]) == [1]
    # at the first point x = 4, gcd(21, 6) = 3 reads back as z - 1, which divides
    # neither, so the heuristic gcd retries at x = 9
    assert poly_gcd([-2, -2, -2], [-2, -2, 1]) == [1]
    assert poly_div([-2, 1, 1], [-1, 1]) == [2, 1]
    with pytest.raises(ArithmeticError):
        poly_div([1, 0, 1], [-1, 1])


def test_poly_gcd_of_the_discriminant(lattice):
    # the node (1, 1) makes z = 1 a double root of the degree-36 Res_w(P, P_w), the
    # only repeated one
    g = lattice("tri", 3, 2)
    p = charpoly(build_laplacian(g, random_rational_conductances(g, random.Random(1))))
    d = resultant_w(p, p.derivative("w"))
    d = d[next(i for i, x in enumerate(d) if x):]  # without its z-power factor
    assert len(d) == 37
    assert poly_gcd(d, [i * c for i, c in enumerate(d)][1:]) == [-1, 1]


def test_squarefree_parts():
    # 3 (z - 1)^2 (z + 2) (2z + 1)^3
    f = [3]
    for factor in [[-1, 1]] * 2 + [[2, 1]] + [[1, 2]] * 3:
        f = [sum(f[i] * factor[k - i] for i in range(len(f)) if 0 <= k - i < 2) for k in range(len(f) + 1)]
    assert sorted(squarefree_parts(f), key=lambda pk: pk[1]) == [([2, 1], 1), ([-1, 1], 2), ([1, 2], 3)]
    assert squarefree_parts([5]) == []
