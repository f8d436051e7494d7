import random
from fractions import Fraction

import pytest

from network_spectra.errors import NetworkSpectraError
from network_spectra.laurent import ONE, LaurentPoly2, NewtonPolygon, W, Z

ZI = LaurentPoly2.monomial(-1, 0)
WI = LaurentPoly2.monomial(0, -1)


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
        assert (a - a).is_zero


def test_canonical_form_drops_zeros():
    p = LaurentPoly2({(0, 0): 1, (2, 3): 0})
    assert len(p) == 1
    assert p.coeff(2, 3) == 0


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
    assert p.eval(1, 1) == 0
    assert (Z * W).eval(2, 3) == 6
    assert p.eval(Fraction(1, 2), 2) == 4 - Fraction(1, 2) - 2 - 2 - Fraction(1, 2)


def test_eval_at_zero_raises():
    with pytest.raises(NetworkSpectraError, match=r"^Laurent polynomials have poles at z=0 or w=0$"):
        Z.eval(0, 1)
    with pytest.raises(NetworkSpectraError, match=r"^Laurent polynomials have poles at z=0 or w=0$"):
        Z.eval(1, 0)


def test_eval_complex_matches_exact(rng):
    for _ in range(10):
        p = random_poly(rng)
        z, w = Fraction(3, 2), Fraction(-5, 7)
        exact = p.eval(z, w)
        approx = p.eval(complex(z), complex(w))
        assert abs(approx - complex(float(exact))) <= 1e-9 * (1 + abs(complex(float(exact))))


def test_derivative_examples():
    assert (Z + ZI).derivative("z") == ONE - LaurentPoly2.monomial(-2, 0)
    p = LaurentPoly2({(0, 0): 4, (1, 0): -1, (-1, 0): -1, (0, 1): -1, (0, -1): -1})
    assert p.derivative("z").eval(1, 1) == 0
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


def test_pick_vs_enumeration(rng):
    # interior_lattice_count cross-checks Pick against enumeration internally
    for _ in range(30):
        pts = {(rng.randint(-5, 5), rng.randint(-5, 5)) for _ in range(rng.randint(1, 8))}
        poly = NewtonPolygon.from_points(pts)
        assert poly.interior_lattice_count() >= 0
        total = poly.interior_lattice_count() + poly.boundary_lattice_count()
        assert total == len(poly.lattice_points())


def test_polygon_reflection_matches_involution(rng):
    for _ in range(10):
        p = random_poly(rng)
        if p.is_zero:
            continue
        assert p.involution().newton_polygon() == p.newton_polygon().point_reflection()


def test_segment_hull():
    poly = NewtonPolygon.from_points([(0, 0), (2, 4), (1, 2)])
    assert poly.vertices == ((0, 0), (2, 4))
    assert poly.boundary_lattice_count() == 3
    assert poly.interior_lattice_count() == 0


def test_serialization_round_trip(rng):
    for _ in range(10):
        p = random_poly(rng)
        assert LaurentPoly2.from_json_terms(p.to_json_terms()) == p
