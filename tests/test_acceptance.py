"""Acceptance criteria, one test per criterion, each printing a verdict line.

Every tolerance is pinned here: exact (zero-tolerance) equality for the
algebraic identities, 1e-9 for the divisor's section residuals, 1e-6 relative for
the minor's vanishing at divisor points.  Randomized criteria use fixed seeds
and print them.
"""

import random
import time
from fractions import Fraction

import pytest

from network_spectra.fixtures import FIXTURE_NAMES, build, fixture_path, tri2_generic
from network_spectra.forests import (
    boundary_point_counts,
    dual_pair_hull,
    enumerate_dual_pairs,
    enumerate_ocrsfs,
    external_ocrsf,
    extremal_table,
    pfnlap_sum,
    polygon_edge_families,
)
from network_spectra.graph_core import random_rational_conductances
from network_spectra.laplacian import build_laplacian, charpoly, node_check
from network_spectra.temperley import (
    dimer_class,
    enumerate_dimers,
    reference_pair,
    temperley_map,
)
from network_spectra.ydelta import (
    MoveProgram,
    delta_to_y,
    discrete_abel,
    invariance_check,
    run_program,
    y_to_delta,
)
from network_spectra.zigzag import zigzag_polygon

pytestmark = pytest.mark.acceptance

SEED = 20260810
DRAWS = 20


def _verdict(n: int, ok: bool, detail: str) -> None:
    print(f"[acceptance {n}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_determinant_forest_oracle():
    rng = random.Random(SEED)
    checked = 0
    for name in FIXTURE_NAMES:
        g, c = build(name)
        forests = enumerate_ocrsfs(g)
        assert pfnlap_sum(forests, c) == charpoly(build_laplacian(g, c)), name
        for _ in range(DRAWS):
            cr = random_rational_conductances(g, rng, positive=False)
            assert pfnlap_sum(forests, cr) == charpoly(build_laplacian(g, cr)), (name, cr)
            checked += 1
    _verdict(
        1,
        True,
        f"charpoly == forest sum exactly on {len(FIXTURE_NAMES)} fixtures x "
        f"{DRAWS} random draws ({checked} draws, seed {SEED})",
    )


def test_criterion_2_sigma_symmetry_and_node():
    rng = random.Random(SEED + 1)
    for name in FIXTURE_NAMES:
        g, _ = build(name)
        nondegenerate = 0
        for _ in range(DRAWS):
            c = random_rational_conductances(g, rng, positive=True)
            p = charpoly(build_laplacian(g, c))
            assert not p - p.involution(), name
            rep = node_check(p)
            assert rep.value == 0 and rep.gradient == (0, 0), name
            if rep.hessian_det != 0:
                nondegenerate += 1
        assert nondegenerate >= 19, (name, nondegenerate)
    _verdict(
        2,
        True,
        f"P = P(1/z,1/w), P(1,1) = 0, grad P(1,1) = 0 exactly; Hessian det != 0 "
        f"on >= 19/{DRAWS} positive draws per fixture (seed {SEED + 1})",
    )


def test_criterion_3_polygon_triple_equality():
    for name in FIXTURE_NAMES:
        g, c = build(name)
        n1 = charpoly(build_laplacian(g, c)).newton_polygon()
        n2 = zigzag_polygon(g)
        n3 = dual_pair_hull(g)
        assert n1 == n2 == n3, (name, n1, n2, n3)
    _verdict(3, True, "charpoly polygon == strand polygon == dual-pair hull on all fixtures")


def test_criterion_4_ydelta_exact_invariance():
    rng = random.Random(SEED + 2)
    moves = 0
    # hex1: both vertices are degree-3 stars
    g, _ = build("hex1")
    for v in (0, 1):
        for _ in range(DRAWS):
            c = random_rational_conductances(g, rng)
            rep = invariance_check(g, c, "y2d", v)
            assert rep.exact and rep.polygon_equal, (v, c)
            moves += 1
    # tri2 has no degree-3 vertex; its moves are the triangle contractions,
    # checked with the same exact determinant-factor identity
    g, _ = build("tri2")
    for f in range(g.n_faces):
        for _ in range(DRAWS):
            c = random_rational_conductances(g, rng)
            rep = invariance_check(g, c, "d2y", f)
            assert rep.exact and rep.polygon_equal, (f, c)
            moves += 1
    # round trip is the exact identity on conductances
    for _ in range(DRAWS):
        a, b, c3 = (Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(3))
        s = a + b + c3
        A, B, C = b * c3 / s, a * c3 / s, a * b / s
        t = A * B + B * C + C * A
        assert (t / A, t / B, t / C) == (a, b, c3)
    g, _ = build("hex1")
    for _ in range(5):
        c = random_rational_conductances(g, rng)
        g2, c2, info = y_to_delta(g, c, 0)
        tri = next(
            f
            for f in range(g2.n_faces)
            if len(g2.faces[f]) == 3
            and {g2.edge_of(d) for d in g2.faces[f]} == set(info.new_edges)
        )
        g3, c3_, info3 = delta_to_y(g2, c2, tri)
        legs = sorted(c3_[e] for e in info3.new_edges)
        assert legs == sorted(c.values()), "round trip must restore the star exactly"
    _verdict(
        4,
        True,
        f"P_before = (a+b+c) * P_after exactly for {moves} moves; "
        f"star-triangle-star round trips are exact identities (seed {SEED + 2})",
    )


def test_criterion_5_external_ocrsf_structure():
    for name in FIXTURE_NAMES:
        g, _ = build(name)
        forests = enumerate_ocrsfs(g)
        class_counts = {}
        for f in forests:
            class_counts[f.homology()] = class_counts.get(f.homology(), 0) + 1
        table = extremal_table(g)
        for v, forest in table.items():
            assert forest.is_union_of_cycles(), (name, v)
            assert class_counts[v] == 1, (name, v, class_counts[v])
        for fam in polygon_edge_families(g):
            edge = (fam["v1"], fam["v2"])
            for k in range(len(fam["strands"]) + 1):
                forest = external_ocrsf(g, edge, fam["strands"][:k])
                assert forest.is_union_of_cycles(), (name, edge, k)
                out = forest.out_darts()
                assert sorted(out) == list(range(g.n_vertices))
                indeg = {}
                for d in out.values():
                    indeg[g.head_of(d)] = indeg.get(g.head_of(d), 0) + 1
                assert all(indeg.get(v, 0) == 1 for v in range(g.n_vertices))
        counts, expected = boundary_point_counts(g, forests)
        assert counts == expected, (name, counts, expected)
    _verdict(
        5,
        True,
        "every fan OCRSF is a union of cycles with in/out degree 1; boundary "
        "lattice point counts are binomial; extremal classes are unique",
    )


def test_criterion_6_temperley():
    rng = random.Random(SEED + 3)
    for name in FIXTURE_NAMES:
        g, _ = build(name)
        sup = g.superpose()
        pairs = enumerate_dual_pairs(g)
        covers = enumerate_dimers(sup)
        images = [temperley_map(sup, p) for p in pairs]
        assert len(set(images)) == len(pairs), name
        assert set(images) == set(covers), name
        ref = reference_pair(g)
        m0 = temperley_map(sup, ref)
        for _ in range(3):
            c = random_rational_conductances(g, rng)
            for p, m in zip(pairs, images):
                assert p.weight(c) == m.weight(sup, c), name
        for p, m in zip(pairs, images):
            assert dimer_class(sup, m, m0, ref.cls) == p.cls, name
    _verdict(
        6,
        True,
        "dual pairs -> dimer covers is a bijection, exactly weight- and "
        f"homology-preserving, on all fixtures (seed {SEED + 3})",
    )


def test_criterion_7_integrable_run():
    rng = random.Random(SEED + 4)
    g, _ = build("tri2")
    program = MoveProgram.load(fixture_path("tri2_cube_program"))
    c = random_rational_conductances(g, rng)
    t0 = time.time()
    rep = run_program(g, c, program, 10)
    elapsed = time.time() - t0
    assert rep.conserved_constant
    assert rep.strand_classes_preserved
    assert len(rep.steps) == 11
    assert rep.steps[1].conductances != rep.steps[0].conductances, "orbit must move"
    assert elapsed < 120.0
    _verdict(
        7,
        True,
        f"alternating-triangle program on tri2: 10 steps in {elapsed:.2f}s, "
        f"normalized coefficient vector exactly constant (seed {SEED + 4})",
    )


def test_criterion_8_spectral_divisor():
    from network_spectra.spectral import spectral_divisor

    g, c = tri2_generic()
    res = spectral_divisor(g, c, v0=0)
    assert res.genus == 2
    assert res.hole_count == res.genus, "one amoeba hole per divisor point"
    assert len(res.points) == res.genus
    assert {p.hole_index for p in res.points} == set(range(res.genus))
    for p in res.points:
        assert p.section_residual <= 1e-9, p
        assert p.q_residual <= 1e-6, p
        assert p.q_residual_sigma <= 1e-6, p
    assert res.node["is_node"]
    _verdict(
        8,
        True,
        f"tri2 (generic positive): g = {res.genus} divisor points, one per hole "
        f"boundary; |Q| <= 1e-6 * scale at each point and its (1/z,1/w) image",
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "a boundary polygon of a network is symmetric about the origin, so its "
        "interior lattice count is odd and g = interior - 1 is even; tri2 has "
        "3 interior points and g = 2, never g = 1"
    ),
)
def test_criterion_8_literal_single_point():
    from network_spectra.spectral import spectral_divisor

    g, c = tri2_generic()
    res = spectral_divisor(g, c, v0=0)
    assert len(res.points) == 1 and res.hole_count == 1


def test_criterion_9_discrete_abel():
    for name in ("sq1", "hex1"):
        g, _ = build(name)
        # construction re-checks every adjacency in the window: any failed
        # face loop or path dependence raises
        chart = discrete_abel(g, ("vertex", 0), ((-1, 1), (-1, 1)))
        for h in ((1, 0), (0, 1), (1, 1), (2, 1)):
            assert chart.check_equivariance(h), (name, h)
    _verdict(
        9,
        True,
        "strand-coordinate transport is path independent and Z^2-equivariant "
        "on the 3x3 window for sq1 and hex1 (exact integers)",
    )


def test_criterion_10_exclusions():
    _verdict(
        10,
        True,
        "theta functions, the analytic inverse map, and quadrisecant checks "
        "are out of scope; no criterion references them",
    )
