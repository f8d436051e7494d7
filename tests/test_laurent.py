from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from network_spectra.errors import NetworkSpectraError
from network_spectra.laurent import LaurentPoly2, NewtonPolygon

Z = LaurentPoly2.monomial(1, 0)
W = LaurentPoly2.monomial(0, 1)
ONE = LaurentPoly2.one()
ZI = LaurentPoly2.monomial(-1, 0)
WI = LaurentPoly2.monomial(0, -1)


def _exact(p, z, w):
    """p at rational z, w != 0, term by term."""
    return sum((v * Fraction(z) ** i * Fraction(w) ** j for (i, j), v in p.terms()), Fraction(0))


def random_poly(rng, terms=6, span=4):
    return LaurentPoly2(
        {
            (rng.randint(-span, span), rng.randint(-span, span)): Fraction(
                rng.randint(-9, 9), rng.randint(1, 9)
            )
            for _ in range(terms)
        }
    )


def test_add_cancellation():
    assert (Z + ZI) + (-1 * ZI) == Z


def test_mul_expansion():
    assert (ONE - Z) * (ONE - ZI) == LaurentPoly2({(0, 0): 2, (1, 0): -1, (-1, 0): -1})


def test_ring_laws_randomized(rng):
    for _ in range(25):
        a, b, c = (random_poly(rng) for _ in range(3))
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + b == b + a
        assert not a - a


def test_canonical_form_drops_zeros():
    p = LaurentPoly2({(0, 0): 1, (2, 3): 0})
    assert len(p) == 1
    assert p.coeff(2, 3) == 0


_exponents = st.tuples(st.integers(-3, 3), st.integers(-3, 3))
_coeffs = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 20))
_polys = st.builds(LaurentPoly2, st.dictionaries(_exponents, _coeffs, max_size=6))


@settings(derandomize=True, deadline=None, max_examples=60)
@given(_polys, _polys, _exponents, _coeffs)
@example(ONE, Z, (1, 0), Fraction(1))  # (1 + z) * (1 - z) cancels z inside one product
@example(LaurentPoly2.zero(), ONE, (1, -1), Fraction(-3))
def test_operations_keep_only_nonzero_fractions(p, q, k, x):
    m = LaurentPoly2.monomial(*k, x)
    partner = -p + m  # cancels every term of p except where m sits
    results = [
        p + q, p + partner, partner + p, p - q, p - p, p - partner, -p, -partner,
        p * q, p * partner, (p + m) * (p - m), (p + m) * (p + m) - m * m,
        p * 0, 0 * p, p * Fraction(0), p * x, x * p,
        p.involution(), partner.involution(),
        p.derivative("z"), p.derivative("w"), partner.derivative("z"), partner.derivative("w"),
    ]
    for r in results:
        assert all(type(v) is Fraction and v != 0 for _, v in r.terms())
    assert p + partner == m
    assert len(p + (-p)) == 0 and p + (-p) == 0
    assert len(p * 0) == 0 and p * 0 == 0


def test_floats_rejected():
    with pytest.raises(TypeError):
        LaurentPoly2({(0, 0): 0.5})


def test_involution_fixes_sq1_charpoly():
    p = LaurentPoly2({(0, 0): 4, (1, 0): -1, (-1, 0): -1, (0, 1): -1, (0, -1): -1})
    assert p.involution() == p


def test_involution_on_monomial_and_involutivity(rng):
    assert Z.involution() == ZI
    for _ in range(20):
        p = random_poly(rng)
        assert p.involution().involution() == p


def test_eval_exact():
    p = LaurentPoly2({(0, 0): 4, (1, 0): -1, (-1, 0): -1, (0, 1): -1, (0, -1): -1})
    assert _exact(p, 1, 1) == 0
    assert _exact(Z * W, 2, 3) == 6
    assert _exact(p, Fraction(1, 2), 2) == 4 - Fraction(1, 2) - 2 - 2 - Fraction(1, 2)


def test_eval_complex_matches_exact(rng):
    for _ in range(10):
        p = random_poly(rng)
        z, w = Fraction(3, 2), Fraction(-5, 7)
        exact = _exact(p, z, w)
        approx = p.floats().at(complex(z), complex(w))[0]
        assert abs(approx - complex(float(exact))) <= 1e-9 * (1 + abs(complex(float(exact))))


def test_derivative_examples():
    assert (Z + ZI).derivative("z") == ONE - LaurentPoly2.monomial(-2, 0)
    p = LaurentPoly2({(0, 0): 4, (1, 0): -1, (-1, 0): -1, (0, 1): -1, (0, -1): -1})
    assert _exact(p.derivative("z"), 1, 1) == 0
    assert (Z * W).derivative("z").derivative("w") == ONE


def test_newton_polygon_sq1():
    p = LaurentPoly2({(0, 0): 4, (1, 0): -1, (-1, 0): -1, (0, 1): -1, (0, -1): -1})
    poly = p.newton_polygon()
    assert set(poly.vertices) == {(1, 0), (0, 1), (-1, 0), (0, -1)}
    assert poly.interior_lattice_count() == 1
    assert poly.boundary_lattice_count() == 4


def test_newton_polygon_hex1():
    p = LaurentPoly2(
        {
            (0, 0): 6,
            (1, 0): -1,
            (-1, 0): -1,
            (0, 1): -1,
            (0, -1): -1,
            (1, -1): -1,
            (-1, 1): -1,
        }
    )
    poly = p.newton_polygon()
    assert set(poly.vertices) == {(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)}
    assert poly.interior_lattice_count() == 1


def test_newton_polygon_monomial():
    poly = LaurentPoly2.monomial(2, 1).newton_polygon()
    assert poly.vertices == ((2, 1),)
    assert poly.interior_lattice_count() == 0
    assert poly.boundary_lattice_count() == 1


def test_zero_polynomial_raises():
    with pytest.raises(NetworkSpectraError, match=r"^the zero polynomial has no Newton polygon$"):
        LaurentPoly2.zero().newton_polygon()


def lattice_points(poly: NewtonPolygon) -> list:
    xs, ys = [v[0] for v in poly.vertices], [v[1] for v in poly.vertices]
    return [(x, y) for x in range(min(xs), max(xs) + 1) for y in range(min(ys), max(ys) + 1)
            if poly.contains((x, y))]


def test_pick_vs_enumeration(rng):
    # interior_lattice_count cross-checks Pick against enumeration internally
    for _ in range(30):
        pts = {(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(1, 8))}
        poly = NewtonPolygon.from_points(pts)
        assert poly.interior_lattice_count() >= 0
        total = poly.interior_lattice_count() + poly.boundary_lattice_count()
        assert total == len(lattice_points(poly))


def test_polygon_reflection_matches_involution(rng):
    for _ in range(10):
        p = random_poly(rng)
        if not p:
            continue
        reflected = NewtonPolygon.from_points([(-x, -y) for x, y in p.newton_polygon().vertices])
        assert p.involution().newton_polygon() == reflected


def test_segment_hull():
    poly = NewtonPolygon.from_points([(0, 0), (2, 4), (1, 2)])
    assert poly.vertices == ((0, 0), (2, 4))
    assert poly.boundary_lattice_count() == 3
    assert poly.interior_lattice_count() == 0


def from_json_terms(terms) -> LaurentPoly2:
    return LaurentPoly2({(int(i), int(j)): Fraction(str(v)) for i, j, v in terms})


def test_serialization_round_trip(rng):
    for _ in range(10):
        p = random_poly(rng)
        assert from_json_terms(p.to_json_terms()) == p
