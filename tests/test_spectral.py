import cmath
import logging
import math
import random
import warnings
from fractions import Fraction

import numpy as np
import pytest

from network_spectra import laplacian, spectral
from network_spectra.errors import CorankTwo, DegenerateFiber, NetworkSpectraError
from network_spectra.fixtures import FIXTURE_NAMES, build, tri2_generic
from network_spectra.graph_core import random_rational_conductances, unit_conductances
from network_spectra.laplacian import build_laplacian, charpoly, laplacian_matrix_at, node_check
from network_spectra.laurent import LaurentPoly2
from network_spectra.spectral import (
    AMOEBA_PHASES,
    DEFECT_BINS,
    POLISH_ITERS,
    REAL_TOL,
    ROOT_TOL,
    AmoebaCloud,
    amoeba,
    fiber_roots,
    fibers,
    null_vectors,
    real_ovals,
    spectral_divisor,
    write_amoeba_csv,
    write_amoeba_svg,
)
from network_spectra.zigzag import StrandSystem, infinity_splits, points_at_infinity, trace_strands


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
    js = [j for (_, j), _ in p.terms()]
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
            assert abs(sq1_poly.eval(z, w)) <= 1e-9 * sq1_poly.floats().at(z, w)[1]


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
        fiber_roots(LaurentPoly2({(1, 1): 1, (1, 0): -2, (0, 0): 1}).floats().transposed(), 2.0)
    assert len(fiber_roots(p, 2.5)) == 2


def test_far_fiber_is_not_degenerate():
    # w + z^2 + 1/w at z = 1e7: the extreme w-coefficients are 1 against a middle
    # one of 1e14, but each is exact against its own yardstick
    p = LaurentPoly2({(0, 1): 1, (2, 0): 1, (0, -1): 1})
    roots = sorted(fiber_roots(p, 1e7), key=abs)
    assert roots == pytest.approx([-1e-14, -1e14], rel=1e-12)
    for w in roots:
        assert abs(p.eval(1e7, w)) <= 1e-12 * p.floats().at(1e7, w)[1]


def _tri2_poly():
    g, c = tri2_generic()
    return charpoly(build_laplacian(g, c))


@pytest.mark.parametrize("z", [Fraction(3, 5), Fraction(-7, 4), Fraction(2)])
def test_fiber_roots_match_exact_fiber_coefficients(z):
    # fiber coefficients from exact evaluation of each w-row at the Fraction z
    p = _tri2_poly()
    js = sorted({j for (_, j), _ in p.terms()})
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
        got = sorted(fiber_roots(p.floats().transposed(), w), key=lambda z: (z.real, z.imag))
        ref = sorted(fiber_roots(swapped, w), key=lambda z: (z.real, z.imag))
        assert len(got) == len(ref)
        for a, b in zip(got, ref):
            assert abs(a - b) <= 1e-10 * max(1.0, abs(b))


def test_newton_polish_repairs_perturbed_roots(monkeypatch, rng):
    p = _tri2_poly()
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: eigvals(m) * (1 + 1e-6))
    for _ in range(5):
        z = complex(rng.uniform(0.5, 2.0), rng.uniform(-1.0, 1.0))
        for w in fiber_roots(p, z):
            assert abs(p.eval(z, w)) <= 1e-11 * p.floats().at(z, w)[1]


def _reference_fiber_roots(p, z, tol=ROOT_TOL):
    """One fiber at a time: np.roots of the coefficients at z, then Newton on its
    roots with the same stop rule and cap as ``fibers``."""
    f = p.floats()
    if z == 0:
        raise DegenerateFiber("z = 0")
    z = complex(z)
    ez = np.arange(f.imin, f.imin + f.C.shape[1])
    a, s = f.C @ z**ez, f.A @ abs(z) ** ez
    if abs(a[-1]) <= 1e-13 * s[-1] or abs(a[0]) <= 1e-13 * s[0]:
        raise DegenerateFiber(f"asymptote at z = {z}")
    w = np.roots(a[::-1]).astype(complex)
    e = np.arange(f.jmin, f.jmin + len(a))
    todo = np.arange(len(w))
    for _ in range(POLISH_ITERS):
        wt = w[todo, None]
        below = wt ** (e - 1)
        powers = below * wt
        val, dv = powers @ a, below @ (a * e)
        go = (np.abs(val) > tol * (np.abs(powers) @ s)) & (dv != 0)
        todo = todo[go]
        if not len(todo):
            break
        w[todo] -= val[go] / dv[go]
    return w.tolist()


def _reference_amoeba(p, grid, radius=3.0):
    """``amoeba``'s sweep, one reference fiber per z and per w."""
    swapped = LaurentPoly2({(j, i): v for (i, j), v in p.terms()})
    samples, skipped = [], 0
    for val in _amoeba_values(grid, radius):
        for q, pair in ((p, lambda r: (val, r)), (swapped, lambda r: (r, val))):
            try:
                samples.extend(pair(r) for r in _reference_fiber_roots(q, val) if r != 0)
            except DegenerateFiber:
                skipped += 1
    return AmoebaCloud(_logs(samples), radius, skipped)


def _logs(samples):
    """(log|z|, log|w|) of (z, w) pairs, point by point, as an (N, 2) array."""
    return np.array([(math.log(abs(z)), math.log(abs(w))) for z, w in samples], float).reshape(-1, 2)


def _amoeba_values(grid, radius=3.0):
    return [cmath.exp(t + 2j * math.pi * (k + 0.316) / AMOEBA_PHASES)
            for t in np.linspace(-radius, radius, grid) for k in range(AMOEBA_PHASES)]


# tri2_generic and the positive lattice draws the amoeba is checked on, at seed 1
AMOEBA_RUNGS = ["tri2", ("sq", 2, 2), ("tri", 2, 2), ("sq", 3, 2), ("tri", 3, 2)]


def _rung_poly(lattice, rung):
    if rung == "tri2":
        return _tri2_poly()
    g = lattice(*rung)
    return charpoly(build_laplacian(g, random_rational_conductances(g, random.Random(1))))


@pytest.mark.parametrize("rung", AMOEBA_RUNGS, ids=str)
def test_fibers_match_reference_per_root(lattice, rung):
    p = _rung_poly(lattice, rung)
    zs = _amoeba_values(30)
    for q in (p, LaurentPoly2({(j, i): v for (i, j), v in p.terms()})):  # both sweep directions
        got, ok = fibers(q, zs)
        assert ok.all() and got.shape == (len(zs), q.floats().C.shape[0] - 1)
        for z, row in zip(zs, got):
            ref = np.sort(np.array(_reference_fiber_roots(q, z)))
            for w, r in zip(np.sort(row), ref):
                assert abs(w - r) <= 1e-8 * max(1.0, abs(r))


def test_fibers_mask_degenerate_inside_batch():
    # the top w-coefficient (z - 2) and the bottom one (z - 3) vanish at z = 2, 3
    p = LaurentPoly2({(1, 1): 1, (0, 1): -2, (1, -1): 1, (0, -1): -3, (0, 0): 1})
    zs = [2.5, 2.0, 0.0, complex(1, 1), 3.0, -0.5]
    w, ok = fibers(p, zs)
    for z, row, good in zip(zs, w, ok):
        try:
            ref = _reference_fiber_roots(p, z)
        except DegenerateFiber:
            assert not good and not row.any()
        else:
            assert good and len(row) == len(ref)
            for w in row:
                assert min(abs(w - r) for r in ref) <= 1e-12 * abs(w)
    assert ok.tolist() == [True, False, False, True, False, True]


def test_fibers_polish_cap_logged_per_fiber(sq1_poly, caplog):
    with caplog.at_level(logging.DEBUG, logger="network_spectra.spectral"):
        w, ok = fibers(sq1_poly, [complex(0.7, 0.2), complex(-1.3, 0.4), 2.0], tol=0.0)
    assert ok.all() and w.shape == (3, 2)
    assert len([r for r in caplog.records if "polish cap" in r.getMessage()]) == 3


@pytest.mark.parametrize("rung", AMOEBA_RUNGS, ids=str)
def test_amoeba_matches_reference_sweep(lattice, rung):
    p = _rung_poly(lattice, rung)
    cloud, ref = amoeba(p, grid=30), _reference_amoeba(p, 30)
    assert len(cloud.samples) == len(ref.samples)
    assert cloud.skipped_fibers == ref.skipped_fibers
    assert cloud.symmetric_defect() == ref.symmetric_defect()


@pytest.mark.parametrize("rung", AMOEBA_RUNGS, ids=str)
def test_amoeba_rows_match_per_point_reference(lattice, rung, monkeypatch):
    # the rows of the array, point by point from the same fibers: per sweep value its
    # nonzero w-roots, then its nonzero z-roots
    p = _rung_poly(lattice, rung)
    solved, solve = [], spectral.fibers
    monkeypatch.setattr(spectral, "fibers", lambda q, zs, *a: solved.append((zs, solve(q, zs, *a))) or solved[-1][1])
    cloud = amoeba(p, grid=30)
    (vals, (ws, _)), (_, (zs, _)) = solved
    pairs = []
    for val, w_row, z_row in zip(vals.tolist(), ws.tolist(), zs.tolist()):
        pairs += [(val, w) for w in w_row if w != 0] + [(z, val) for z in z_row if z != 0]
    assert cloud.samples.dtype == float and cloud.samples.shape == (len(pairs), 2)
    np.testing.assert_allclose(cloud.samples, _logs(pairs), rtol=1e-12, atol=0)
    assert cloud.dropped_roots == 0


def test_far_sweep_counts_dropped_roots_both_ways():
    # at radius 200 the fibers are unmasked but 576 roots come back 0: w-roots of p,
    # z-roots of its transpose
    p = _tri2_poly()
    swapped = LaurentPoly2({(j, i): v for (i, j), v in p.terms()})
    for q in (p, swapped):
        cloud = amoeba(q, grid=30, radius=200.0)
        assert (len(cloud.samples), cloud.skipped_fibers, cloud.dropped_roots) == (3744, 0, 576)


def test_fibers_past_float_range_warn_nothing():
    # far fibers overflow in the evaluation and the polish without a numpy warning,
    # and the fiber solved beside them is unchanged
    p = _tri2_poly()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        w, ok = fibers(p, [1e300, 1e-300, complex(1e200, -1e200), 1.5])
    assert ok[-1] and w[-1].tolist() == fiber_roots(p, 1.5)


def test_symmetric_defect_bins_by_floor():
    # a sigma pair just outside the window at x = -+(radius + step / 2): both points
    # fall outside it, off the cell boundaries, so the cloud reads symmetric
    r, step = 3.0, 6.0 / DEFECT_BINS
    pts = np.array([(0.37, 0.52), (r + step / 2, 0.37)])
    assert AmoebaCloud(np.vstack([pts, -pts]), r, 0).symmetric_defect() == 0.0
    assert AmoebaCloud(pts, r, 0).symmetric_defect() == 1.0
    assert AmoebaCloud(np.zeros((0, 2)), r, 0).symmetric_defect() == 0.0


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
    cloud = amoeba(sq1_poly, grid=40, radius=3.0)
    assert cloud.symmetric_defect() < 0.05
    assert real_ovals(sq1_poly) == []  # genus 0: no compact ovals


def test_amoeba_writers(tmp_path, sq1_poly):
    cloud = amoeba(sq1_poly, grid=20, radius=2.0)
    write_amoeba_csv(tmp_path / "a.csv", cloud)
    write_amoeba_svg(tmp_path / "a.svg", cloud)
    lines = (tmp_path / "a.csv").read_text().splitlines()
    assert lines[0] == "log_abs_z,log_abs_w"
    assert np.array([line.split(",") for line in lines[1:]], float) == pytest.approx(cloud.samples, rel=1e-11)
    svg = (tmp_path / "a.svg").read_text()
    assert svg.startswith("<svg")
    assert svg.count("<circle") == int((np.abs(cloud.samples) <= 2.0).all(axis=1).sum()) > 0


def test_tri2_two_ovals():
    g, c = tri2_generic()
    # sigma symmetry: the two holes have opposite orders
    assert real_ovals(charpoly(build_laplacian(g, c))) == [(0, -1), (0, 1)]


def _holes_and_orders(g, c):
    p = charpoly(build_laplacian(g, c))
    return real_ovals(p), sorted(set(p.newton_polygon().interior_lattice_points()) - {(0, 0)})


@pytest.mark.parametrize("rung", [("sq", 2, 2), ("tri", 2, 2), ("sq", 3, 2), ("tri", 3, 2)], ids=str)
def test_real_ovals_name_every_hole(lattice, rung):
    # positive conductances: one hole per interior point other than the node's, and
    # the divisor puts one point on each, labelled by the same order
    g = lattice(*rung)
    c = random_rational_conductances(g, random.Random(1))
    holes, orders = _holes_and_orders(g, c)
    assert holes == orders
    assert sorted({orders[pt.hole_index] for pt in spectral_divisor(g, c).points}) == holes


def test_divisor_labels_each_point_from_three_fibers(monkeypatch):
    # three fibers per point, in two calls for all points: one solves every slice's
    # z = +-e^x and one every w = e^y of their gaps, here one bounded gap a slice; the
    # order reuses the e^x roots
    solved, solve = [], spectral.fibers
    monkeypatch.setattr(spectral, "fibers", lambda p, zs, *a: solved.append(len(zs)) or solve(p, zs, *a))
    g, _ = build("tri2")
    res = spectral_divisor(g, random_rational_conductances(g, random.Random(1)))
    assert res.hole_count == len(res.points) == 2
    assert solved == [2 * len(res.points), len(res.points)]


def _reference_gaps(p, x):
    """The slice's gaps (lo, hi) and the roots w over z = e^x, one fiber per call."""
    ws, ok = fibers(p, [math.exp(x), -math.exp(x)])
    if not ok.all():
        raise DegenerateFiber(f"a fiber over |z| = e^{x} is degenerate")
    ys = sorted(math.log(abs(r.real)) for r in ws.ravel().tolist() if abs(r.imag) <= REAL_TOL * abs(r))
    return list(zip([-math.inf, *ys[1::2]], [*ys[::2], math.inf])), ws[0].tolist()


def _reference_order(p, x, y, ws):
    """The order at (x, y) from one transposed fiber, counted in Python."""
    f = p.floats()
    return (f.imin + sum(abs(r) < math.exp(x) for r in fiber_roots(f.transposed(), math.exp(y))),
            f.jmin + sum(abs(r) < math.exp(y) for r in ws))


def _reference_slice(p, x):
    try:
        gaps, ws = _reference_gaps(p, x)
        return [(lo, hi, _reference_order(p, x, (lo + hi) / 2, ws) if math.isfinite(lo + hi) else None)
                for lo, hi in gaps]
    except DegenerateFiber:
        return DegenerateFiber


@pytest.mark.parametrize("unit, name", [*((True, n) for n in FIXTURE_NAMES), *((False, r) for r in AMOEBA_RUNGS)],
                         ids=[*(f"{n}-unit" for n in FIXTURE_NAMES), *map(str, AMOEBA_RUNGS)])
def test_slice_matches_gaps_and_orders(lattice, monkeypatch, unit, name):
    # at every slice real_ovals takes, the two stacked solves over all slices give the
    # gaps and orders that one fiber per gap gives, and None where those raise
    p = charpoly(build_laplacian(*build(name))) if unit else _rung_poly(lattice, name)
    calls, slices = [], spectral._slices
    monkeypatch.setattr(spectral, "_slices", lambda q, xs: calls.append((xs, slices(q, xs))) or calls[-1][1])
    real_ovals(p)
    assert any(xs for xs, _ in calls) or not set(p.newton_polygon().interior_lattice_points()) - {(0, 0)}
    for xs, got in calls:
        assert len(got) == len(xs)
        for x, gaps in zip(xs, got):
            assert (DegenerateFiber if gaps is None else gaps) == _reference_slice(p, x)


@pytest.mark.parametrize("rung", [("sq", 2, 2), ("tri", 2, 2)], ids=str)
def test_real_ovals_signed_sigma_closed(lattice, rung):
    # signed conductances: still all g orders, which the polygon's central symmetry
    # closes under sigma
    g = lattice(*rung)
    holes, orders = _holes_and_orders(g, random_rational_conductances(g, random.Random(1), positive=False))
    assert holes == orders


@pytest.mark.parametrize("seed, positive", [(5, False), (7, True)])
def test_real_ovals_tri2_draws(seed, positive):
    # draws on which the oval clustering found no hole
    g, _ = build("tri2")
    c = random_rational_conductances(g, random.Random(seed), positive=positive)
    assert real_ovals(charpoly(build_laplacian(g, c))) == [(0, -1), (0, 1)]


@pytest.mark.parametrize("name", ["sq2", "tri2", ("sq", 2, 2), ("sq", 3, 2), ("sq", 3, 3)], ids=str)
def test_real_ovals_unit_ovals_are_nodes(lattice, name):
    # at unit conductances the ovals shrink to real nodes: no hole, although on the
    # lattices the discriminant's roots z = 1 and z = -1 give one critical value twice
    g = build(name)[0] if isinstance(name, str) else lattice(*name)
    assert real_ovals(charpoly(build_laplacian(g, unit_conductances(g)))) == []


@pytest.mark.xfail(strict=True, reason="scaled by 10^400, the leading coefficient of x^2 - 10^400 underflows "
                                       "to 0.0 and np.roots sees a constant (ROADMAP item 5)")
def test_real_roots_past_float_range():
    assert sorted(r for r, _ in spectral._real_roots([-(10**400), 0, 1])) == pytest.approx([-1e200, 1e200])


def test_real_roots_log_a_lossy_part(caplog):
    with caplog.at_level(logging.DEBUG, logger="network_spectra.spectral"):
        found = spectral._real_roots([-(10**400), 0, 1])
    assert len(found) == 2 or any("degree-2 part" in r.getMessage() for r in caplog.records)


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
            assert abs(p.eval(z, w)) <= 1e-9 * p.floats().at(z, w)[1]
            assert sv[0] >= 1e3 * sv[1]


def test_divisor_tri2():
    g, c = tri2_generic()
    res = spectral_divisor(g, c, v0=0)
    assert res.count_matches_genus
    assert res.genus == 2
    assert res.hole_count == 2
    assert len(res.points) == 2
    assert {p.hole_index for p in res.points} == {0, 1}
    for p in res.points:
        assert p.section_residual <= 1e-9
        assert p.q_residual <= 1e-6
        assert p.q_residual_sigma <= 1e-6


# (kind, m, n, seed): positive draws where the divisor has all g points, g = 4 to 12
DIVISOR_RUNGS = [("sq", 2, 2, 1), ("tri", 2, 2, 1), ("sq", 3, 2, 1), ("sq", 3, 2, 2), ("tri", 3, 2, 1), ("sq", 3, 3, 7)]


@pytest.mark.parametrize("kind, m, n, seed", DIVISOR_RUNGS)
def test_divisor_on_lattices(lattice, kind, m, n, seed):
    g = lattice(kind, m, n)
    res = spectral_divisor(g, random_rational_conductances(g, random.Random(seed)))
    assert len(res.z_polynomial) - 1 == len(res.w_polynomial) - 1 == res.genus
    assert res.count_matches_genus and not res.nodes
    assert sorted(p.hole_index for p in res.points) == list(range(res.genus))
    for p in res.points:
        assert max(p.section_residual, p.q_residual, p.q_residual_sigma) <= 1e-6, p


def test_divisor_double_z_root():
    # sq2 at this draw: Gz = (8z + 9)^2, so both points sit over z = -9/8
    g, _ = build("sq2")
    res = spectral_divisor(g, random_rational_conductances(g, random.Random(3)))
    assert res.z_polynomial == [81, 144, 64]
    assert res.w_polynomial == [9, -86, 9]
    assert [p.z for p in res.points] == [-9 / 8, -9 / 8]
    assert sorted(p.w for p in res.points) == pytest.approx([(43 - math.sqrt(1768)) / 9, (43 + math.sqrt(1768)) / 9])
    assert res.count_matches_genus and res.hole_count == 2


def test_null_vectors_balance_far_points(lattice):
    # the points of tri3x2 @1 at |z| ~ 5e5 and 1e-6: unbalanced, the second-smallest
    # singular value is below CORANK_TOL of the largest there
    g = lattice("tri", 3, 2)
    c = random_rational_conductances(g, random.Random(1))
    L = build_laplacian(g, c)
    far = [p for p in spectral_divisor(g, c).points if not 1e-5 < abs(p.z) < 1e5]
    assert len(far) == 2
    for p in far:
        m = laplacian_matrix_at(L, p.z, p.w)
        s = np.linalg.svd(m, compute_uv=False)
        assert s[-2] < 1e-6 * s[0]
        U, V, _ = null_vectors(L, p.z, p.w)
        assert np.linalg.norm(m @ V) <= 1e-8 * np.abs(m).max()
        assert np.linalg.norm(U @ m) <= 1e-8 * np.abs(m).max()
        assert abs(V[0]) <= 1e-9


def _loop_null_vectors(L, z, w):
    """One balanced SVD at one point, the Osborne sweeps vertex by vertex: the
    reference for the stacked ``kernels``."""
    m = laplacian_matrix_at(L, z, w)
    a, d = np.abs(m), np.ones(len(m))
    np.fill_diagonal(a, 0)
    for _ in range(spectral.BALANCE_SWEEPS):
        for i, (row, col) in enumerate(zip(a, a.T)):
            if row @ d > 0 and col @ (1 / d) > 0:
                d[i] = math.sqrt((row @ d) / (col @ (1 / d)))
    u, s, vh = np.linalg.svd(m * d / d[:, None])
    scale = s[0] if s[0] > 0 else 1.0
    if len(s) >= 2 and s[-2] <= spectral.CORANK_TOL * scale:
        raise CorankTwo("corank two")
    V = vh[-1, :].conj() * d
    return V / np.linalg.norm(V)


def _loop_divisor(g, c, v0=0):
    """The divisor point by point: P, Q and the cofactor each from its own
    determinant, the candidates w of each z sorted by ``FloatView.at`` residuals,
    and one ``_loop_null_vectors`` per candidate.  Returns (Gz, Gw, points, nodes)
    with points as (z, w, section residual, hole, q residual, q residual at sigma)."""
    L = build_laplacian(g, c)
    p, q = charpoly(L), laplacian._det(laplacian.minor_rows(L, v0, v0))
    cof = LaurentPoly2(laplacian.integer_det(laplacian.minor_rows(L, (v0 + 1) % L.size, v0))[0])
    gz = spectral._divisor_polynomial(p, q, cof)
    gw = spectral._divisor_polynomial(*(LaurentPoly2({(j, i): x for (i, j), x in f.terms()}) for f in (p, q, cof)))
    ws = [w for w, k in spectral._real_roots(gw) for _ in range(k)]
    pf, qf, cf = p.floats(), q.floats(), cof.floats()
    points, nodes = [], []
    for z, k in spectral._real_roots(gz):
        for w in sorted(ws, key=lambda w: sum(abs(v) / s for v, s in (pf.at(z, w), cf.at(z, w))))[:k]:
            try:
                V = _loop_null_vectors(L, z, w)
            except CorankTwo:
                nodes.append({"z": z, "w": w})
                continue
            qres = [abs(v) / max(s, 1e-300) for v, s in (qf.at(z, w), qf.at(1 / z, 1 / w))]
            points.append([z, w, float(abs(V[v0])), -1, *qres])
    orders = [o for o in p.newton_polygon().interior_lattice_points() if o != (0, 0)]
    for pt, gaps in zip(points, spectral._slices(p, [math.log(abs(pt[0])) for pt in points])):
        y = math.log(abs(pt[1]))
        nu = gaps and min(gaps, key=lambda gap: min(abs(e - y) for e in gap[:2]))[2]
        pt[3] = orders.index(nu) if nu in orders else -1
    return gz, gw, points, nodes


def _stacked_cases():
    yield "tri2 generic", tri2_generic()
    yield "tri2 unit", build("tri2")
    for kind, m, n in [("sq", 2, 2), ("tri", 2, 2), ("sq", 3, 2), ("tri", 3, 2), ("sq", 3, 3), ("tri", 4, 2)]:
        for seed in (1, 2, 3):
            yield f"{kind}{m}x{n} @{seed}", (kind, m, n, seed)


@pytest.mark.parametrize("case", [name for name, _ in _stacked_cases()])
def test_divisor_matches_point_loop(lattice, case):
    spec = dict(_stacked_cases())[case]
    if len(spec) == 4:
        g = lattice(*spec[:3])
        spec = g, random_rational_conductances(g, random.Random(spec[3]))
    g, c = spec
    res = spectral_divisor(g, c)
    gz, gw, points, nodes = _loop_divisor(g, c)
    assert (res.z_polynomial, res.w_polynomial, res.nodes) == (gz, gw, nodes)
    assert [(p.z, p.w, p.hole_index) for p in res.points] == [(z, w, hole) for z, w, _, hole, _, _ in points]
    got = [(p.section_residual, p.q_residual, p.q_residual_sigma) for p in res.points]
    assert np.allclose(got, [pt[2:3] + pt[4:] for pt in points], rtol=0, atol=1e-12)
    assert res.node == node_check(charpoly(build_laplacian(g, c))).to_json()


def test_divisor_one_elimination_and_one_svd(lattice, monkeypatch):
    engines, svds, svd = [], [], np.linalg.svd
    for name in ("_det_dp", "_det_grid"):
        real = getattr(laplacian, name)
        monkeypatch.setattr(laplacian, name, lambda *a, real=real, name=name: engines.append(name) or real(*a))
    monkeypatch.setattr(np.linalg, "svd", lambda m, *a, **k: svds.append(m.shape) or svd(m, *a, **k))
    stacks = []
    for kind, m, n, seed in [("tri", 2, 2, 1), ("sq", 3, 3, 7)]:
        g = lattice(kind, m, n)
        res = spectral_divisor(g, random_rational_conductances(g, random.Random(seed)))
        assert len(res.points) == res.genus
        stacks.append((res.genus, g.n_vertices, g.n_vertices))
    assert engines == ["_det_dp", "_det_grid"]
    assert svds == stacks


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
    # unit conductances sit at the degenerate point with contracted ovals: Gz has
    # degree 4 for g = 2, and two of its four candidates are nodes of the curve
    g, c = build("tri2")
    res = spectral_divisor(g, c)
    assert res.genus == 2 and len(res.z_polynomial) == 5
    assert not res.count_matches_genus
    assert len(res.nodes) == 2 and len(res.points) == 2
    assert res.to_json()["nodes"] == res.nodes


def test_infinity_sq1_directions():
    # by hand, P = 2a + 2b - a(z + 1/z) - b(w + 1/w): the boundary edge from
    # (-1, 0) to (0, -1) has E(t) = -a - b t, so its strand sits at -a/b
    g, _ = build("sq1")
    a, b = Fraction(2), Fraction(3)
    points = dict(points_at_infinity(g, {0: a, 1: b}))
    assert sorted(points) == sorted(s.homology for s in trace_strands(g))
    assert points == {(1, -1): -a / b, (-1, 1): -a / b, (1, 1): -b / a, (-1, -1): -b / a}


def test_infinity_hex1_values():
    # by hand, the edge from (0, -1) to (1, -1) has E(t) = -c0 c2 - c1 c2 t
    g, _ = build("hex1")
    c = {0: Fraction(2), 1: Fraction(3), 2: Fraction(5)}
    assert dict(points_at_infinity(g, c)) == {
        (1, 0): Fraction(-2, 3), (-1, 0): Fraction(-2, 3),
        (0, 1): Fraction(-5, 2), (0, -1): Fraction(-5, 2),
        (1, -1): Fraction(-3, 5), (-1, 1): Fraction(-3, 5),
    }


def test_infinity_sigma_pairing(rng):
    # a strand and its reversal (classes h and -h) sit at the same point
    for name in FIXTURE_NAMES:
        g, _ = build(name)
        sys = StrandSystem(g)
        for positive in (True, False):
            points = points_at_infinity(g, random_rational_conductances(g, rng, positive=positive))
            for s in sys.strands:
                r = sys.reversal_of(s.id)
                assert points[r] == ((-s.homology[0], -s.homology[1]), points[s.id][1])


def test_tentacle_count_matches_polygon(any_network, rng):
    # each boundary edge (h, n) of Newton(P) has n strands of class h, and its
    # edge polynomial splits into their linear factors
    g, _ = any_network
    for positive in (True, False):
        c = random_rational_conductances(g, rng, positive=positive)
        p = charpoly(build_laplacian(g, c))
        points = points_at_infinity(g, c)
        for h, n in p.newton_polygon().primitive_edges():
            assert sum(cls == h for cls, _ in points) == n
        assert infinity_splits(p, points)
