import itertools
import logging
import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from network_spectra import laplacian
from network_spectra.errors import InputError, NetworkSpectraError
from network_spectra.fixtures import FIXTURE_NAMES, build, fixture_path
from network_spectra.graph_core import Edge, TorusGraph, random_rational_conductances
from network_spectra.laplacian import (
    NodeReport,
    _det,
    _integer_row,
    build_laplacian,
    charpoly,
    charpoly_minors,
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


def _node_by_derivatives(p):
    """The node's jet from derivative polynomials evaluated at (1, 1): the reference
    that node_check's weighted coefficient sums must reproduce."""
    value = p.eval(1, 1)
    pz = p.derivative("z")
    pw = p.derivative("w")
    grad = (pz.eval(1, 1), pw.eval(1, 1))
    h11 = pz.derivative("z").eval(1, 1)
    h12 = pz.derivative("w").eval(1, 1)
    h22 = pw.derivative("w").eval(1, 1)
    det = h11 * h22 - h12 * h12
    return NodeReport(value, grad, ((h11, h12), (h12, h22)), det)


def _node_by_fraction_sums(p):
    """The weighted coefficient sums taken term by term in Fraction: the reference
    for node_check's integer sums."""
    value = gz = gw = h11 = h12 = h22 = Fraction(0)
    for (i, j), c in p.terms():
        value += c
        gz += i * c
        gw += j * c
        h11 += i * (i - 1) * c
        h12 += i * j * c
        h22 += j * (j - 1) * c
    return NodeReport(value, (gz, gw), ((h11, h12), (h12, h22)), h11 * h22 - h12 * h12)


def _assert_node_matches_reference(p):
    rep = node_check(p)
    for ref in (_node_by_derivatives(p), _node_by_fraction_sums(p)):
        assert rep == ref and rep.to_json() == ref.to_json()


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_node_check_matches_derivatives_on_fixtures(name):
    g, c = build(name)
    _assert_node_matches_reference(charpoly(build_laplacian(g, c)))


@pytest.mark.parametrize("positive", [True, False], ids=["positive", "signed"])
@pytest.mark.parametrize("kind,m,n", [("sq", 2, 2), ("tri", 2, 2), ("sq", 3, 2), ("tri", 3, 2), ("sq", 3, 3),
                                      ("tri", 3, 3), ("sq", 4, 3), ("tri", 4, 3)])
def test_node_check_matches_derivatives_on_lattices(lattice, kind, m, n, positive):
    g = lattice(kind, m, n)
    p = charpoly(build_laplacian(g, random_rational_conductances(g, random.Random(1), positive=positive)))
    _assert_node_matches_reference(p)


_node_polys = st.builds(LaurentPoly2, st.dictionaries(
    st.tuples(st.integers(-4, 4), st.integers(-4, 4)),
    st.builds(Fraction, st.integers(-10**6, 10**6), st.integers(1, 10**6)), max_size=8))


@settings(derandomize=True, deadline=None, max_examples=50)
@given(_node_polys)
@example(LaurentPoly2.zero())
@example(LaurentPoly2({(-3, 2): Fraction(7, 999983), (1, -1): -2, (0, 0): Fraction(1, 3)}))
def test_node_check_matches_derivatives_on_draws(p):
    _assert_node_matches_reference(p)


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


@pytest.fixture(scope="module")
def evolved():
    """tri2's conductances after 12 steps of its cube program, spread over a
    graph's edges: numerators and denominators sharing long factors, as in ``evolve``."""
    g, _ = build("tri2")
    prog = MoveProgram.load(fixture_path("tri2_cube_program"))
    vals = list(run_program(g, random_rational_conductances(g, random.Random(1)), prog, 12).steps[-1].conductances.values())
    return lambda graph: {e.id: vals[e.id % len(vals)] for e in graph.edges}


def _zero_diagonal(g, c):
    """``c`` with the edge of vertex 0's first dart set so that vertex 0's diagonal
    cell, the sum over its darts (a loop's two darts both count), is 0."""
    darts = [g.edge_of(d) for d in g.rotation[0]]
    e = darts[0]
    return {**c, e: -sum(c[x] for x in darts if x != e) / darts.count(e)}


# build_laplacian skips the row gcd when a row has len(darts) + 1 nonzero cells;
# these draws give rows on both sides of that test, on every fixture
@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_rows_match_fraction_build_on_fixtures(name, long_conductances, evolved):
    g, c = build(name)
    for cond in (c, _signed(g), long_conductances(g), evolved(g), _zero_diagonal(g, evolved(g))):
        _assert_matches_reference(g, cond)


def test_rows_match_fraction_build_with_merged_cells(evolved):
    # hex1 with edge 0 doubled: the two parallel edges' darts share one cell of each
    # row, whose sum can share a factor with the row scale (1/2 + 1/2 here), so that
    # row's gcd must be taken
    g, _ = build("hex1")
    g = TorusGraph(2, [*g.edges, Edge(3, 0, 1, (0, 0))], {0: (0, 6, 2, 4), 1: (7, 1, 3, 5)})
    halves = {0: Fraction(1, 2), 1: Fraction(1), 2: Fraction(1), 3: Fraction(1, 2)}
    L, _ = _assert_matches_reference(g, halves)
    assert [s for *_, s in L.rows] == [1, 1]  # the lcm 2 divided out
    for cond in (_signed(g), evolved(g), _zero_diagonal(g, evolved(g))):
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


@st.composite
def _denominators(draw):
    """Positive ints sharing factors: each a product of up to three draws from one
    pool of small and up-to-2000-bit factors, the empty product giving 1s."""
    pool = draw(st.lists(st.one_of(st.integers(1, 12), st.integers(1, 2**2000)), min_size=1, max_size=4))
    picks = st.lists(st.sampled_from(pool), max_size=3)
    return [math.prod(draw(picks)) for _ in range(draw(st.integers(0, 8)))]


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_denominators())
@example([])
@example([1, 1, 1])
@example([6, 10, 15, 6, 1])
@example([2**2000 + 1, 3 * (2**2000 + 1), 2**1999, 1])
def test_lcm_cofactors_match_lcm_and_division(qs):
    s, cof = laplacian._lcm_cofactors(iter(qs))
    assert s == math.lcm(*qs)
    assert cof == {q: s // q for q in qs}


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


_PLANTED = 2**61 - 1


@pytest.mark.parametrize("engine", _ENGINES)
@pytest.mark.parametrize("n", [3, 4, 5])
def test_det_divides_planted_contents(engine, n):
    # column 1 carries the factor 2^61 - 1, which row 0's scale shares, and row 2
    # the factor 3^40: from 4 rows up the engine gets rows with both divided out,
    # below it gets the rows as they are, and either way the scale puts them back
    rng = random.Random(n)
    ints = [[{(rng.randint(0, 1), rng.randint(0, 1)): rng.choice((-1, 1)) * rng.randint(1, 9) * (_PLANTED if j == 1 else 1)
              * (3**40 if i == 2 else 1) for _ in range(2)} for j in range(n)] for i in range(n)]
    rows = [(row, i - 1, 1 - i, 5 * _PLANTED if i == 0 else 7 + 2 * i) for i, row in enumerate(ints)]
    entries = [[LaurentPoly2({(i + a, j + b): Fraction(c, s) for (i, j), c in cell.items()}) for cell in row]
               for row, a, b, s in rows]
    seen, real = [], getattr(laplacian, engine)
    with pytest.MonkeyPatch.context() as mp:
        for name in ("_det_dp", "_det_grid"):
            mp.setattr(laplacian, name, lambda m: seen.append(m) or real(m))
        assert _det(rows) == _leibniz(entries) != 0
    (m,) = seen
    if n < 4:
        assert m == ints
    else:
        assert [math.gcd(*(c for row in m for c in row[j].values())) for j in range(n)] == [1] * n
        assert [math.gcd(*(c for cell in row for c in cell.values())) for row in m] == [1] * n


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
    # the principal minor comes from the elimination of all V rows, so it takes their engine
    with caplog.at_level(logging.DEBUG, logger="network_spectra.laplacian"):
        for g in (lattice("sq", 3, 3), lattice("sq", 4, 2)):
            L = build_laplacian(g, random_rational_conductances(g, random.Random(1)))
            charpoly(L)
            principal_minor(L, 0)
    assert [r.getMessage() for r in caplog.records] == [
        "det: grid, V=9, grid 7x7", "det: grid, V=9, grid 7x7, 2 minors, 0 of 49 points re-eliminated",
        "det: subset DP, V=8", "det: subset DP, V=8, 2 minors"]


# -- one elimination for P and the minors M_{v,v}, M_{k,v} ----------------------------


def _minor_refs(L, v, k):
    return charpoly(L), _det(minor_rows(L, v, v)), _det(minor_rows(L, k, v))


def _small_minor_cases(lattice):
    yield from (build(name) for name in FIXTURE_NAMES)
    yield from _minor_cases(lattice)
    for kind, m in itertools.product(("sq", "tri"), (2, 3)):
        g = lattice(kind, m, 2)
        yield g, random_rational_conductances(g, random.Random(1), positive=False)


def test_charpoly_minors_every_pair_dp(lattice):
    # V <= 6: the subset DP, every v and k
    for g, c in _small_minor_cases(lattice):
        L = build_laplacian(g, c)
        for v, k in itertools.permutations(range(L.size), 2):
            assert charpoly_minors(L, v, k) == _minor_refs(L, v, k), (v, k)


def test_charpoly_minors_grid_at_every_size(lattice):
    # the grid's block reading from 2 rows (no step before the block) up, every v and k
    for g, c in _small_minor_cases(lattice):
        L = build_laplacian(g, c)
        for v, k in itertools.permutations(range(L.size), 2):
            ref = _minor_refs(L, v, k)
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(laplacian, "_det_dp", laplacian._det_grid)
                assert charpoly_minors(L, v, k) == ref, (v, k)


@pytest.mark.parametrize("seed,positive", [(1, False), (2, True)], ids=["signed1", "positive2"])
@pytest.mark.parametrize("kind,m,n", [("sq", 3, 3), ("tri", 3, 3), ("sq", 4, 3), ("tri", 4, 3)])
def test_charpoly_minors_grid(lattice, kind, m, n, seed, positive):
    g = lattice(kind, m, n)
    L = build_laplacian(g, random_rational_conductances(g, random.Random(seed), positive=positive))
    assert L.size > 8  # above the size switch
    for v in (0, L.size - 1):
        k = (v + 1) % L.size
        assert charpoly_minors(L, v, k) == _minor_refs(L, v, k), v


@pytest.mark.parametrize("kind,m,n,redone", [("sq", 3, 3, 12), ("sq", 4, 3, 14)])
def test_charpoly_minors_grid_re_eliminates(lattice, caplog, kind, m, n, redone):
    # with v = V - 1 on the square lattices a pivot swap moves a row of the trailing
    # block at some grid points, and the minors there come from the first V - 1 rows
    g = lattice(kind, m, n)
    L = build_laplacian(g, random_rational_conductances(g, random.Random(1), positive=False))
    v = L.size - 1
    with caplog.at_level(logging.DEBUG, logger="network_spectra.laplacian"):
        got = charpoly_minors(L, v, 0)
    (msg,) = [r.getMessage() for r in caplog.records]
    assert f", 2 minors, {redone} of " in msg
    assert got == _minor_refs(L, v, 0)


def test_charpoly_minors_rejects_bad_vertices():
    g, c = build("tri2")
    L = build_laplacian(g, c)
    for v, k in ((0, 0), (2, 0), (0, -1)):
        with pytest.raises(InputError):
            charpoly_minors(L, v, k)


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
    # the Sylvester determinant with coefficients lowest first is (-1)^(mn) times the
    # classic resultant: Res_w(w - z, w^2 - 2) = z^2 - 2, and Res_w(z w - 1, w - z) =
    # 1 - z^2 gives z^2 - 1; the Laurent 3/z + 1/w + w is shifted to z w^2 + 3 w + z
    # first, which is z^3 + 4z at w = z
    w_minus_z = LaurentPoly2({(0, 1): 1, (1, 0): -1})
    assert resultant_w(w_minus_z, LaurentPoly2({(0, 2): 1, (0, 0): -2})) == [-2, 0, 1]
    assert resultant_w(LaurentPoly2({(1, 1): 1, (0, 0): -1}), w_minus_z) == [-1, 0, 1]
    assert resultant_w(LaurentPoly2({(0, 1): 1, (0, -1): 1, (-1, 0): 3}), w_minus_z) == [0, 4, 0, 1]


def _sylvester_resultant(f, g):
    """Res_w(f, g) the long way: Bareiss on the whole Sylvester matrix at each point."""
    if not (f and g):
        return []
    fi, gi = (_integer_row([h])[0][0] for h in (f, g))
    (m, fz), (n, gz) = ((max(j for _, j in t), max(i for i, _ in t)) for t in (fi, gi))
    deg = m * gz + n * fz
    zs = range(-(deg // 2), deg - deg // 2 + 1)
    vals = []
    for z in zs:
        cf, cg = [0] * (m + 1), [0] * (n + 1)
        for t, col in ((fi, cf), (gi, cg)):
            for (i, j), c in t.items():
                col[j] += c * z**i
        rows = [[0] * r + cf + [0] * (n - 1 - r) for r in range(n)]
        rows += [[0] * r + cg + [0] * (m - 1 - r) for r in range(m)]
        vals.append(laplacian._bareiss(rows) if rows else 1)  # a 0 x 0 determinant is 1
    return laplacian._trim(laplacian._interpolate(zs, vals))


@st.composite
def _w_polys(draw, m, root):
    """An integer polynomial of formal w-degree m and z-degree <= 2 with coefficients
    up to 10^30; with an integer ``root``, its w^m coefficient is a multiple of
    z - root, so it vanishes at that evaluation point."""
    coeff = st.one_of(st.just(0), st.integers(-(10**30), 10**30))
    terms = {(i, j): draw(coeff) for i in range(3) for j in range(m)}
    lead = draw(st.integers(-(10**30), 10**30).filter(bool))
    if root is None:
        terms[0, m], terms[1, m] = lead, draw(coeff)
    else:
        terms[1, m], terms[0, m] = lead, -lead * root
    return LaurentPoly2(terms)


@st.composite
def _resultant_pairs(draw):
    """(f, g): generic, a vanishing leading coefficient in f or in g, in both at once
    at the same z, or a shared factor w - 2z - 1 (a zero resultant)."""
    case = draw(st.sampled_from(["generic", "f lead vanishes", "g lead vanishes", "both leads vanish",
                                 "shared factor"]))
    shared = case == "shared factor"
    m, n = (draw(st.integers(0, 7 if shared else 8)) for _ in range(2))
    root = draw(st.integers(-2, 2))
    f = draw(_w_polys(m, root if case in ("f lead vanishes", "both leads vanish") else None))
    g = draw(_w_polys(n, root if case in ("g lead vanishes", "both leads vanish") else None))
    if shared:
        h = LaurentPoly2({(0, 1): 1, (1, 0): -2, (0, 0): -1})
        f, g = f * h, g * h
    return f, g


@settings(derandomize=True, deadline=None, max_examples=100)
@given(_resultant_pairs())
def test_resultant_w_matches_sylvester_bareiss(fg):
    f, g = fg
    assert resultant_w(f, g) == _sylvester_resultant(f, g)


def test_resultant_w_edge_cases():
    z_plus_3, w_free = LaurentPoly2({(1, 0): 1, (0, 0): 3}), LaurentPoly2({(2, 0): 5})
    vanishes_at_1 = LaurentPoly2({(1, 2): 1, (0, 2): -1, (1, 0): 1, (0, 0): -1})  # (z - 1)(w^2 + 1)
    assert resultant_w(z_plus_3, w_free) == [1]  # a 0 x 0 Sylvester matrix
    assert resultant_w(LaurentPoly2.zero(), vanishes_at_1) == resultant_w(z_plus_3, LaurentPoly2.zero()) == []
    # formal degree 0 against a g that is 0 at z = 1: the determinant is f0^2 there too
    assert resultant_w(z_plus_3, vanishes_at_1) == [9, 6, 1]
    assert resultant_w(vanishes_at_1, z_plus_3) == [9, 6, 1]
    for f, g in [(z_plus_3, w_free), (z_plus_3, vanishes_at_1), (vanishes_at_1, z_plus_3)]:
        assert resultant_w(f, g) == _sylvester_resultant(f, g)


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
