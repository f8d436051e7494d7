import random
from collections import Counter

import pytest

from network_spectra.errors import NetworkSpectraError
from network_spectra.fixtures import FIXTURE_NAMES, build, fixture_path
from network_spectra.graph_core import Edge, TorusGraph, random_rational_conductances, vadd
from network_spectra.laplacian import build_laplacian, charpoly
from network_spectra.ydelta import Move, MoveProgram, apply_move
from network_spectra.zigzag import (
    LEFT,
    LocalFan,
    StrandSystem,
    fans,
    infinity_splits,
    minimality_check,
    points_at_infinity,
    trace_strands,
    zigzag_polygon,
)

# hand-traced strand classes (state-transition oracle, frozen)
EXPECTED_CLASSES = {
    "sq1": [(-1, -1), (-1, 1), (1, -1), (1, 1)],
    "hex1": [(-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0)],
    "tri1": [(-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0)],
    "sq2": [(-1, -2), (-1, 2), (1, -2), (1, 2)],
    "tri2": [(-1, -2), (-1, 0), (0, -1), (0, -1), (0, 1), (0, 1), (1, 0), (1, 2)],
}


@pytest.mark.parametrize("name", sorted(EXPECTED_CLASSES))
def test_strand_classes(name):
    g, _ = build(name)
    strands = trace_strands(g)
    assert sorted(s.homology for s in strands) == EXPECTED_CLASSES[name]


def test_every_state_on_exactly_one_strand(any_network):
    g, _ = any_network
    strands = trace_strands(g)
    states = [st for s in strands for st in s.states]
    assert len(states) == 2 * g.n_darts
    assert len(set(states)) == len(states)


def test_reversal_closure(any_network):
    g, _ = any_network
    sys = StrandSystem(g)
    for s in sys.strands:
        rev = sys.strands[sys.reversal_of(s.id)]
        assert rev.homology == (-s.homology[0], -s.homology[1])
        assert sys.reversal_of(rev.id) == s.id
        assert sorted(rev.darts) == sorted(g.alpha(d) for d in s.darts)


def test_fixtures_minimal(any_network):
    g, _ = any_network
    rep = minimality_check(g)
    assert rep.minimal
    for pair in rep.pairs:
        assert pair["crossings"] == pair["det_bound"]


def test_total_crossings_equal_edge_count(any_network):
    # one transversal crossing lives at each edge midpoint
    g, _ = any_network
    rep = minimality_check(g)
    total = sum(p["crossings"] for p in rep.pairs) + sum(
        s["self_crossings"] for s in rep.strands
    )
    assert total == g.n_edges


def test_subdivided_sq1_not_minimal():
    # subdividing a loop of sq1 merges all strands into one self-crossing curve
    edges = [
        Edge(0, 0, 1, (1, 0)),  # half of the old (1,0) loop
        Edge(1, 1, 0, (0, 0)),  # the other half
        Edge(2, 0, 0, (0, 1)),
    ]
    g = TorusGraph(2, edges, {0: (0, 4, 3, 5), 1: (2, 1)})
    assert g.validate().ok
    rep = minimality_check(g)
    assert not rep.minimal
    assert any(s["self_crossings"] > 0 for s in rep.strands)


EXPECTED_POLYGONS = {
    "sq1": {(1, 0), (0, 1), (-1, 0), (0, -1)},
    "hex1": {(1, 0), (0, 1), (-1, 1), (-1, 0), (0, -1), (1, -1)},
    "sq2": {(1, 0), (0, 2), (-1, 0), (0, -2)},
    "tri2": {(1, 0), (1, 2), (0, 2), (-1, 0), (-1, -2), (0, -2)},
}


@pytest.mark.parametrize("name", sorted(EXPECTED_POLYGONS))
def test_zigzag_polygon(name):
    g, _ = build(name)
    assert set(zigzag_polygon(g).vertices) == EXPECTED_POLYGONS[name]


def test_polygon_centrally_symmetric(any_network):
    g, _ = any_network
    assert zigzag_polygon(g).is_centrally_symmetric()


def test_strand_classes_sum_to_zero(any_network):
    g, _ = any_network
    total = [0, 0]
    for s in trace_strands(g):
        total[0] += s.homology[0]
        total[1] += s.homology[1]
    assert total == [0, 0]


def test_fans_sq1_cone_selection():
    # under the rot_prev turn convention, the cone spanned by (1,1), (-1,1)
    # selects the loop dart with displacement (-1, 0) at the single vertex
    g, _ = build("sq1")
    F = fans(g)
    assert set(F.global_rays) == {(1, 1), (-1, 1), (-1, -1), (1, -1)}
    sel = F.selections(((1, 1), (-1, 1)))
    assert g.disp(sel[0]) == (-1, 0)


def test_fans_global_cone_count_matches_polygon(any_network):
    g, _ = any_network
    F = fans(g)
    assert len(F.cones()) == len(zigzag_polygon(g).vertices)


def _reverse_fans(g):
    """The reverse local fan at each vertex: corner k's ray is the class of the
    strand turning L at the reversal of slot k, and its cone selects that
    incoming dart."""
    sys = StrandSystem(g)
    return {
        v: LocalFan(
            v,
            tuple(sys.strands[sys.strand_of(g.alpha(d), LEFT)].homology for d in slots),
            tuple(g.alpha(d) for d in slots),
        )
        for v, slots in g.rotation.items()
    }


def test_local_fan_rays_per_corner(any_network):
    g, _ = any_network
    F = fans(g)
    reverse = _reverse_fans(g)
    for v, fan in F.local.items():
        assert len(fan.rays) == g.degree(v)
        # reverse fan rays are the negated forward rays, corner by corner
        assert tuple((-a, -b) for a, b in fan.rays) == reverse[v].rays


def test_forward_reverse_selection_agreement(any_network):
    # the out-dart chosen at a tail equals the in-dart chosen at the head
    g, _ = any_network
    F = fans(g)
    reverse = _reverse_fans(g)
    for a, b in F.cones():
        fwd = sorted(F.selections((a, b)).values())
        rev = sorted(fan.locate(vadd(a, b)) for fan in reverse.values())
        assert fwd == rev


# -- points at infinity -----------------------------------------------------------


@pytest.mark.parametrize("kind, m, n", [("sq", 2, 2), ("tri", 2, 2), ("sq", 3, 2), ("tri", 3, 2),
                                        ("sq", 3, 3), ("tri", 3, 3), ("sq", 4, 3), ("tri", 4, 3)])
def test_infinity_splits_on_lattices(lattice, kind, m, n):
    g = lattice(kind, m, n)
    for seed in (1, 5):
        c = random_rational_conductances(g, random.Random(seed), positive=False)
        assert infinity_splits(charpoly(build_laplacian(g, c)), points_at_infinity(g, c))


def test_infinity_splits_rejects_a_wrong_conductance(any_network, rng):
    g, _ = any_network
    c = random_rational_conductances(g, rng, positive=False)
    p = charpoly(build_laplacian(g, c))
    for e in c:
        assert not infinity_splits(p, points_at_infinity(g, {**c, e: 2 * c[e]}))


def _moves(g, c):
    """Every y2d and d2y that applies, as (graph, conductances) after the move."""
    for op, n in (("y2d", g.n_vertices), ("d2y", g.n_faces)):
        for target in range(n):
            try:
                g2, c2, _ = apply_move(g, c, Move(op, target))
            except NetworkSpectraError:
                continue
            yield g2, c2


def test_points_at_infinity_survive_moves(rng):
    moved = 0
    for name in FIXTURE_NAMES:
        g, _ = build(name)
        for positive in (True, True, False, False):
            c = random_rational_conductances(g, rng, positive=positive)
            before = Counter(points_at_infinity(g, c))
            for g2, c2 in _moves(g, c):
                assert Counter(points_at_infinity(g2, c2)) == before, name
                moved += 1
    # per draw, 8 moves apply (tri1 2, hex1 2, tri2 4; sq1 and sq2 none), save
    # where a signed draw makes a star sum vanish
    assert moved >= 30


def test_points_at_infinity_along_cube_orbit(rng):
    g, _ = build("tri2")
    program = MoveProgram.load(fixture_path("tri2_cube_program"))
    c = random_rational_conductances(g, rng)
    before = Counter(points_at_infinity(g, c))
    for _ in range(4):
        g2 = g
        for move in program.moves:
            g2, c, _ = apply_move(g2, c, move)
            assert Counter(points_at_infinity(g2, c)) == before
        c = {e: c[fe] for fe, e in program.iso_edges.items()}
        assert Counter(points_at_infinity(g, c)) == before
