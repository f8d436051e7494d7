import pytest

from network_spectra.fixtures import build
from network_spectra.graph_core import Edge, TorusGraph
from network_spectra.laurent import NewtonPolygon
from network_spectra.zigzag import (
    StrandSystem,
    fans,
    minimality_check,
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


def test_local_fan_rays_per_corner(any_network):
    g, _ = any_network
    F = fans(g)
    for v, fan in F.local.items():
        assert len(fan.rays) == g.degree(v)
        # reverse fan rays are the negated forward rays, corner by corner
        rev = F.local_reverse[v]
        assert tuple((-a, -b) for a, b in fan.rays) == rev.rays


def test_forward_reverse_selection_agreement(any_network):
    # the out-dart chosen at a tail equals the in-dart chosen at the head
    g, _ = any_network
    F = fans(g)
    for cone in F.cones():
        fwd = sorted(F.selections(cone).values())
        rev = sorted(F.reverse_selections(cone).values())
        assert fwd == rev
