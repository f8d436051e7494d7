import json
from fractions import Fraction

import pytest

from network_spectra.errors import GraphValidationError
from network_spectra.fixtures import build
from network_spectra.graph_core import (
    Edge,
    TorusGraph,
    find_isomorphism,
    unit_conductances,
)


def isomorphic(g1: TorusGraph, g2: TorusGraph) -> bool:
    """Isomorphic as torus graphs, orientation-reversing maps included."""
    return any(find_isomorphism(g1, g2, rev) is not None for rev in (False, True))


def test_sq1_validates_with_one_face():
    g, _ = build("sq1")
    rep = g.validate()
    assert rep.ok
    assert (rep.n_vertices, rep.n_edges, rep.n_faces) == (1, 2, 1)


def test_hex1_validates_single_hexagonal_face():
    g, _ = build("hex1")
    rep = g.validate()
    assert rep.ok
    assert rep.n_faces == 1
    assert len(g.faces[0]) == 6
    assert g.face_displacement_sum(0) == (0, 0)


def test_all_fixtures_euler_and_face_sums(any_network):
    g, _ = any_network
    rep = g.validate()
    assert rep.ok
    assert g.n_vertices - g.n_edges + g.n_faces == 0
    for f in range(g.n_faces):
        assert g.face_displacement_sum(f) == (0, 0)


def test_null_homotopic_loop_rejected():
    # a single loop with displacement (0, 0) cannot give a CW torus
    with pytest.raises(GraphValidationError, match=r"^euler: V - E \+ F = 1 - 1 \+ 2 = 2 != 0$"):
        TorusGraph(1, [Edge(0, 0, 0, (0, 0))], {0: (0, 1)})


def test_bad_face_sum_rejected():
    # a single loop with displacement (1, 0) and separating rotation:
    # two faces whose displacement sums are nonzero
    with pytest.raises(GraphValidationError, match=r"^euler: V - E \+ F = 1 - 1 \+ 2 = 2 != 0$"):
        TorusGraph(1, [Edge(0, 0, 0, (1, 0))], {0: (0, 1)})


def test_rotation_must_cover_all_darts():
    with pytest.raises(GraphValidationError, match=r"^rotation: dart 3 missing \(vertex 0\)$"):
        TorusGraph(1, [Edge(0, 0, 0, (1, 0)), Edge(1, 0, 0, (0, 1))], {0: (0, 2, 1)})


def test_dual_sq1_is_self_dual():
    g, _ = build("sq1")
    d = g.dual()
    assert d.validate().ok
    assert isomorphic(d, g)


def test_dual_hex1_is_tri1():
    g, _ = build("hex1")
    t, _ = build("tri1")
    d = g.dual()
    assert d.validate().ok
    assert (d.n_vertices, d.n_edges) == (1, 3)
    assert isomorphic(d, t)


def test_double_dual_identity(any_network):
    g, _ = any_network
    dd = g.dual().dual()
    assert dd.validate().ok
    assert isomorphic(dd, g)


def test_superpose_counts():
    g, _ = build("sq1")
    s = g.superpose()
    blacks, whites = s.color_classes()
    assert len(blacks) == 2 and len(whites) == 2
    g, _ = build("hex1")
    s = g.superpose()
    blacks, whites = s.color_classes()
    assert len(blacks) == 3 and len(whites) == 3


def test_superpose_balanced_bipartite_and_valid(any_network):
    g, _ = any_network
    s = g.superpose()
    assert s.graph.validate().ok
    blacks, whites = s.color_classes()
    assert len(blacks) == len(whites)
    # bipartite: every edge joins a black to a white
    for e in s.graph.edges:
        assert e.head >= s.n_black > e.tail  # whites are numbered after the blacks


def test_json_round_trip_byte_stable(tmp_path, any_network):
    g, c = any_network
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    g.save(p1, conductances=c)
    g2, c2 = TorusGraph.load(p1)
    assert c2 == c
    g2.save(p2, conductances=c2)
    assert p1.read_bytes() == p2.read_bytes()
    assert isomorphic(g, g2)


def test_json_format_fields(tmp_path):
    g, c = build("hex1")
    g.save(tmp_path / "h.json", conductances=c)
    data = json.loads((tmp_path / "h.json").read_text())
    assert {v["id"] for v in data["vertices"]} == {0, 1}
    e0 = data["edges"][0]
    assert set(e0) == {"id", "tail", "head", "disp", "conductance"}
    assert data["rotation"]["0"] == [0, 2, 4]


def conductances_proportional(c1, c2) -> bool:
    """Equal as conductance functions, i.e. up to one global nonzero scalar."""
    if set(c1) != set(c2):
        return False
    keys = sorted(c1)
    if not keys:
        return True
    k0 = keys[0]
    if c2[k0] == 0:
        return False
    r = Fraction(c1[k0]) / Fraction(c2[k0])
    return all(Fraction(c1[k]) == r * Fraction(c2[k]) for k in keys)


def test_conductance_proportionality():
    c1 = {0: Fraction(2), 1: Fraction(4)}
    c2 = {0: Fraction(1), 1: Fraction(2)}
    c3 = {0: Fraction(1), 1: Fraction(3)}
    assert conductances_proportional(c1, c2)
    assert not conductances_proportional(c1, c3)


def test_isomorphism_respects_displacement_up_to_coboundary():
    # same square lattice, but one vertex's fundamental-domain copy shifted:
    # displacements differ by a coboundary, so the graphs are isomorphic
    g1, _ = build("sq2")
    edges = [
        Edge(0, 0, 1, (1, 0)),   # shifted copy of the (0,0) edge
        Edge(1, 1, 0, (0, 0)),
        Edge(2, 0, 0, (0, 1)),
        Edge(3, 1, 1, (0, 1)),
    ]
    g2 = TorusGraph(2, edges, {0: (0, 4, 3, 5), 1: (2, 6, 1, 7)})
    assert find_isomorphism(g1, g2) is not None


def test_non_isomorphic_graphs_rejected():
    g1, _ = build("sq1")
    g2, _ = build("tri1")
    assert find_isomorphism(g1, g2) is None
    assert not isomorphic(g1, g2)
