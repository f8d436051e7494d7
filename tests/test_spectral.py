import cmath
import logging
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from network_spectra.errors import CorankTwo, DegenerateFiber, NetworkSpectraError
from network_spectra.fixtures import build, tri2_generic
from network_spectra import spectral
from network_spectra.laplacian import build_laplacian, charpoly, laplacian_matrix_at
from network_spectra.laurent import LaurentPoly2
from network_spectra.spectral import (
    amoeba,
    fiber_roots,
    fiber_roots_in_z,
    infinity_coordinates,
    null_vectors,
    real_ovals,
    spectral_divisor,
    write_amoeba_csv,
    write_amoeba_svg,
)
from network_spectra.zigzag import trace_strands


@pytest.fixture(scope="module")
def sq1_poly():
    g, c = build("sq1")
    return charpoly(build_laplacian(g, c))


def test_fiber_roots_at_node(sq1_poly):
    roots = fiber_roots(sq1_poly, 1.0)
    assert len(roots) == 2
    for w in roots:
        assert abs(w - 1) < 1e-6  # double root at the node


def test_fiber_roots_quadratic(sq1_poly):
    roots = sorted(fiber_roots(sq1_poly, -1.0), key=lambda w: w.real)
    assert abs(roots[0] - (3 - 2 * math.sqrt(2))) < 1e-10
    assert abs(roots[1] - (3 + 2 * math.sqrt(2))) < 1e-10


def test_root_count_is_w_span(rng):
    g, c = build("tri2")
    p = charpoly(build_laplacian(g, c))
    js = [j for _, j in p.support()]
    span = max(js) - min(js)
    for _ in range(5):
        z = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        assert len(fiber_roots(p, z)) == span


def test_residuals_at_polished_roots(sq1_poly, rng):
    for _ in range(10):
        z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        if abs(z) < 0.1:
            continue
        for w in fiber_roots(sq1_poly, z):
            assert abs(sq1_poly.eval(z, w)) <= 1e-9 * sq1_poly.scale_at(z, w)


def test_degenerate_fiber():
    # p = z*w + 1: at z = anything the w-poly is linear; kill the lead instead
    p = LaurentPoly2({(1, 1): 1, (0, 0): 1})
    with pytest.raises(DegenerateFiber):
        fiber_roots(p, 0.0)


def test_degenerate_fiber_at_asymptote():
    # the top w-coefficient (z - 2) and the bottom one (z - 3) vanish at z = 2, 3
    p = LaurentPoly2({(1, 1): 1, (0, 1): -2, (1, -1): 1, (0, -1): -3, (0, 0): 1})
    for z in (2.0, 3.0):
        with pytest.raises(DegenerateFiber):
            fiber_roots(p, z)
    with pytest.raises(DegenerateFiber):
        fiber_roots_in_z(LaurentPoly2({(1, 1): 1, (1, 0): -2, (0, 0): 1}), 2.0)
    assert len(fiber_roots(p, 2.5)) == 2


def _tri2_poly():
    g, c = tri2_generic()
    return charpoly(build_laplacian(g, c))


@pytest.mark.parametrize("z", [Fraction(3, 5), Fraction(-7, 4), Fraction(2)])
def test_fiber_roots_match_exact_fiber_coefficients(z):
    # fiber coefficients from exact evaluation of each w-row at the Fraction z
    p = _tri2_poly()
    js = sorted({j for _, j in p.support()})
    rows = [LaurentPoly2({(i, 0): v for (i, jj), v in p.terms() if jj == j}) for j in js]
    assert js == list(range(js[0], js[-1] + 1))
    expected = np.roots([float(row.eval(z, 1)) for row in reversed(rows)])
    got = fiber_roots(p, float(z))
    assert len(got) == len(expected)
    for w in got:
        assert min(abs(w - r) for r in expected) <= 1e-10 * max(1.0, abs(w))


def test_fiber_roots_in_z_match_explicit_transpose(rng):
    p = _tri2_poly()
    swapped = LaurentPoly2({(j, i): v for (i, j), v in p.terms()})
    for _ in range(4):
        w = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
        got = sorted(fiber_roots_in_z(p, w), key=lambda z: (z.real, z.imag))
        ref = sorted(fiber_roots(swapped, w), key=lambda z: (z.real, z.imag))
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_newton_polish_repairs_perturbed_roots(monkeypatch, rng):
    p = _tri2_poly()
    companion_roots = np.roots
    monkeypatch.setattr(np, "roots", lambda c: companion_roots(c) * (1 + 1e-6))
    for _ in range(5):
        z = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        for w in fiber_roots(p, z):
            assert abs(p.eval(z, w)) <= 1e-11 * p.scale_at(z, w)


def test_float_view_not_inherited():
    p = LaurentPoly2({(2, 1): 3, (0, -1): 1, (1, 0): -2})
    view = p.floats()
    assert p.floats() is view
    for derived in (p.derivative("w"), p.involution(), p + 1):
        other = derived.floats()
        assert other is not view
        assert (other.imin, other.jmin) != (view.imin, view.jmin) or not np.array_equal(
            other.C, view.C
        )


def test_polish_cap_logged(sq1_poly, caplog):
    # a zero tolerance is never met, so every root runs to the step cap
    with caplog.at_level(logging.DEBUG, logger="network_spectra.spectral"):
        roots = fiber_roots(sq1_poly, complex(0.7, 0.2), tol=0.0)
    assert len(roots) == 2
    capped = [r for r in caplog.records if "polish cap" in r.getMessage()]
    assert len(capped) == 1


def test_amoeba_sq1_symmetric_no_holes(sq1_poly):
    cloud = amoeba(sq1_poly, grid=40, radius=3.0, phases=16)
    assert cloud.symmetric_defect() < 0.05
    assert real_ovals(sq1_poly) == []  # genus 0: no compact ovals


def test_amoeba_writers(tmp_path, sq1_poly):
    cloud = amoeba(sq1_poly, grid=20, radius=2.0, phases=8)
    write_amoeba_csv(tmp_path / "a.csv", cloud)
    write_amoeba_svg(tmp_path / "a.svg", cloud)
    lines = (tmp_path / "a.csv").read_text().splitlines()
    assert lines[0] == "log_abs_z,log_abs_w"
    assert len(lines) == len(cloud.points) + 1
    assert (tmp_path / "a.svg").read_text().startswith("<svg")


def test_tri2_two_ovals():
    g, c = tri2_generic()
    p = charpoly(build_laplacian(g, c))
    ovals = real_ovals(p)
    assert len(ovals) == 2
    # sigma symmetry: centroids come in an opposite pair
    c0, c1 = (o.centroid_log for o in ovals)
    assert abs(c0[0] + c1[0]) < 0.2 and abs(c0[1] + c1[1]) < 0.2


def test_null_vectors_constant_at_node():
    g, c = build("hex1")
    L = build_laplacian(g, c)
    _, V, smin = null_vectors(L, 1.0, 1.0)
    assert smin < 1e-12
    assert abs(abs(V[0]) - abs(V[1])) < 1e-9  # harmonic = constant


def test_null_vectors_smooth_sample():
    g, c = build("sq2")
    L = build_laplacian(g, c)
    p = charpoly(L)
    z = -1.5
    w = fiber_roots(p, z)[0]
    U, V, smin = null_vectors(L, z, w)
    m = np.array(
        [[complex(L.entries[i][j].eval(z, w)) for j in range(L.size)] for i in range(L.size)]
    )
    assert smin <= 1e-10
    assert np.linalg.norm(U @ m) < 1e-8
    assert np.linalg.norm(m @ V) < 1e-8
    s = np.linalg.svd(m, compute_uv=False)
    assert s[-2] > 1e-3  # numerical corank exactly 1


@pytest.mark.parametrize("name", ["hex1", "sq2", "tri2"])
def test_numeric_laplacian_matches_exact_entries(name, rng):
    # the matrix null_vectors decomposes, against the exact entries at rational
    # points and their complex evaluation elsewhere
    g, c = build(name)
    L = build_laplacian(g, c)
    points = [(Fraction(3, 4), Fraction(-5, 3)), (Fraction(-2), Fraction(7, 5))]
    points += [(complex(rng.uniform(-2, 2), rng.uniform(-2, 2)), complex(rng.uniform(-2, 2), 1.0))]
    for z, w in points:
        m = np.array(
            [[complex(L.entries[i][j].eval(z, w)) for j in range(L.size)] for i in range(L.size)]
        )
        assert np.allclose(laplacian_matrix_at(L, complex(z), complex(w)), m, rtol=1e-13, atol=1e-13)


def test_null_vector_sigma_relation():
    # U^T Delta(z, w) = 0 forces Delta(1/z, 1/w) U = 0, so the kernel vector
    # at the involuted point is collinear with U (no conjugation)
    g, c = build("hex1")
    L = build_laplacian(g, c)
    p = charpoly(L)
    z = complex(0.7, 0.4)
    w = fiber_roots(p, z)[0]
    U, _, _ = null_vectors(L, z, w)
    _, V2, _ = null_vectors(L, 1 / z, 1 / w)
    cosine = abs(np.vdot(V2, U)) / (np.linalg.norm(V2) * np.linalg.norm(U))
    assert cosine > 1 - 1e-8


def test_corank_two_detected():
    g, _ = build("hex1")
    c = {0: Fraction(1), 1: Fraction(1), 2: Fraction(-2)}  # a + b + c = 0
    L = build_laplacian(g, c)
    with pytest.raises(CorankTwo):
        null_vectors(L, 1.0, 1.0)


def test_adjugate_rank_one_on_samples():
    g, c = build("hex1")
    L = build_laplacian(g, c)
    p = charpoly(L)
    rng = random.Random(3)
    for _ in range(6):  # two roots per fiber: 12 samples
        z = cmath.exp(rng.uniform(-1, 1) + 1j * rng.uniform(0, 2 * math.pi))
        for w in fiber_roots(p, z):
            m = np.array(
                [[complex(L.entries[i][j].eval(z, w)) for j in range(2)] for i in range(2)]
            )
            adj = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]])
            sv = np.linalg.svd(adj, compute_uv=False)
            assert abs(p.eval(z, w)) <= 1e-9 * p.scale_at(z, w)
            assert sv[0] >= 1e3 * sv[1]


def test_divisor_tri2():
    g, c = tri2_generic()
    res = spectral_divisor(g, c, v0=0, check_count=True)
    assert res.genus == 2
    assert res.hole_count == 2
    assert len(res.points) == 2
    assert {p.hole_index for p in res.points} == {0, 1}
    for p in res.points:
        assert p.section_residual <= 1e-9
        assert p.q_residual <= 1e-6
        assert p.q_residual_sigma <= 1e-6


def test_divisor_reports_skips_and_widenings():
    g, c = tri2_generic()
    data = spectral_divisor(g, c, v0=0).to_json()
    assert data["corank2_skipped"] == 0
    assert data["sweep_widenings"] == 0
    # a window too small for the ovals is widened (up to twice)
    narrow = spectral_divisor(g, c, v0=0, radius=0.5, grid=60)
    assert 1 <= narrow.sweep_widenings <= 2


def test_divisor_skips_corank_two_samples(monkeypatch):
    g, c = tri2_generic()
    calls = 0
    real = spectral.null_vectors

    def flaky(*args, **kwargs):
        nonlocal calls
        calls += 1
        if calls % 7 == 0:
            raise CorankTwo("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(spectral, "null_vectors", flaky)
    res = spectral_divisor(g, c, v0=0)
    assert len(res.points) == res.genus == 2
    assert res.corank2_skipped > 0


def test_divisor_survives_degenerate_fiber_in_bisection(monkeypatch):
    def degenerate(*args):
        raise DegenerateFiber("injected")

    monkeypatch.setattr(spectral, "_track_root", degenerate)
    g, c = tri2_generic()
    res = spectral_divisor(g, c, v0=0)  # each bisection keeps its bracket start
    assert res.genus == res.hole_count == 2


def test_divisor_needs_two_vertices():
    g, c = build("sq1")
    with pytest.raises(NetworkSpectraError, match=r"^the kernel section needs at least two vertices$"):
        spectral_divisor(g, c)


def test_divisor_needs_positive_conductances():
    g, _ = build("tri2")
    c = {e.id: Fraction(-1) for e in g.edges}
    with pytest.raises(NetworkSpectraError, match=r"^positive real conductances required$"):
        spectral_divisor(g, c)


def test_divisor_wrong_count_at_degenerate_point():
    # unit conductances sit at the degenerate point with contracted ovals
    g, c = build("tri2")
    with pytest.raises(NetworkSpectraError, match=r"^found \d+ divisor points, expected g = 2; ovals = \d+$"):
        spectral_divisor(g, c, check_count=True)


def test_infinity_sq1_directions():
    g, c = build("sq1")
    ests = infinity_coordinates(g, c)
    prims = sorted(e.primitive for e in ests)
    strands = sorted(s.homology for s in trace_strands(g))
    assert prims == strands  # one tentacle family per strand class
    for e in ests:
        assert len(e.tentacle_limits) == e.family_size
        for v, r in zip(sorted(e.tentacle_limits, key=abs), sorted(e.edge_poly_roots, key=abs)):
            assert abs(v - r) < 5e-2 * (1 + abs(r))


def test_infinity_hex1_values():
    g, _ = build("hex1")
    c = {0: Fraction(2), 1: Fraction(3), 2: Fraction(5)}
    ests = {e.primitive: e for e in infinity_coordinates(g, c)}
    # the (1,0) tentacle limit is the root of the boundary-edge polynomial -a/b
    assert abs(ests[(1, 0)].tentacle_limits[0] - (-2 / 3)) < 1e-2


def test_infinity_sigma_pairing():
    # opposite families report equal limits; equivalently the limit of one
    # fixed monomial along opposite tentacles is reciprocal
    g, _ = build("hex1")
    c = {0: Fraction(2), 1: Fraction(3), 2: Fraction(5)}
    ests = {e.primitive: e for e in infinity_coordinates(g, c)}
    for prim, est in ests.items():
        opp = ests[(-prim[0], -prim[1])]
        a = sorted(est.tentacle_limits, key=lambda v: (v.real, v.imag))
        b = sorted(opp.tentacle_limits, key=lambda v: (v.real, v.imag))
        for x, y in zip(a, b):
            assert abs(x - y) < 1e-2 * (1 + abs(x))
            assert abs(x * (1 / y) - 1) < 2e-2


def test_tentacle_count_matches_polygon(any_network):
    g, c = any_network
    p = charpoly(build_laplacian(g, c))
    ests = infinity_coordinates(g, c)
    prim_edges = p.newton_polygon().primitive_edges()
    assert len(ests) == len(prim_edges)
    for est, (prim, mult) in zip(ests, prim_edges):
        assert est.family_size == mult
