import json
import random
import re
from fractions import Fraction

import pytest

from network_spectra import ydelta
from network_spectra.errors import InputError, NetworkSpectraError, SingularDenominator
from network_spectra.fixtures import FIXTURE_NAMES, build, fixture_path
from network_spectra.graph_core import (
    Edge,
    TorusGraph,
    _try_extend,
    is_isomorphism,
    random_rational_conductances,
    unit_conductances,
)
from network_spectra.laplacian import build_laplacian, charpoly
from network_spectra.ydelta import (
    Move,
    MoveProgram,
    TrajectoryReport,
    TrajectoryStep,
    apply_move,
    conserved_vector,
    cube_recurrence_program,
    discrete_abel,
    invariance_check,
    run_program,
)
from network_spectra.zigzag import LEFT, RIGHT, StrandSystem

from test_graph_core import isomorphic


def star_triangle(a, b, c):
    s = a + b + c
    return (b * c / s, a * c / s, a * b / s)


def triangle_star(A, B, C):
    s = A * B + B * C + C * A
    return (s / A, s / B, s / C)


def textbook_move(info, conductances):
    """``move_conductances`` by the textbook formulas above, with its messages."""
    x = [Fraction(conductances[e]) for e in info.inputs]
    if info.op == "y2d":
        if sum(x) == 0:
            raise SingularDenominator("a + b + c = 0; the move is undefined here")
        new = star_triangle(*x)
    else:
        if not all(x) or x[0] * x[1] + x[1] * x[2] + x[2] * x[0] == 0:
            raise SingularDenominator("AB + BC + CA = 0; the move is undefined here")
        s_a, s_b, s_c = triangle_star(*x)
        new = (s_b, s_c, s_a)  # leg k sits at corner k, opposite side k + 1
    c = {k: conductances[e] for e, k in info.edge_map.items()}
    c.update(zip(info.new_edges, new))
    return c


# The largest numerator or denominator bit length h(t) of the conductances after
# t program steps grows about quadratically: (h(t) - h(0)) / t^2 stays within
# 5-21 on the tri2, tri2x2, tri3x2 and tri3x3 cube programs (t = 1..5, seeds 1-8,
# positive and signed).  A wrong star-triangle formula breaks the cancellations
# and h grows geometrically (with the d2y legs permuted, 28-204 t^2 at t = 4),
# so a long run of determinants on it takes minutes.  Each long run below first
# evolves GROWTH_STEPS steps of bare move arithmetic under the envelope
# h(0) + GROWTH_SLOPE t^2, so such a formula fails in milliseconds.
GROWTH_STEPS, GROWTH_SLOPE = 5, 24


def _height(c):
    return max(max(abs(x.numerator).bit_length(), x.denominator.bit_length()) for x in c.values())


def assert_quadratic_growth(graph, conductances, program):
    plans = []
    for move in program.moves:
        graph, info = ydelta.surgery(graph, move)
        plans.append(info)
    c = {k: Fraction(v) for k, v in conductances.items()}
    h0 = _height(c)
    for t in range(1, GROWTH_STEPS + 1):
        for info in plans:
            c = ydelta.move_conductances(info, c)
        c = {e: c[fe] for fe, e in program.iso_edges.items()}
        assert _height(c) <= h0 + GROWTH_SLOPE * t * t, f"step {t}: {_height(c)} bits"


@pytest.mark.parametrize("size", [None, (3, 3)], ids=["tri2", "tri3x3"])
def test_growth_envelope_catches_permuted_legs(lattice, monkeypatch, size):
    # a wrong star-triangle formula: the first two d2y legs swapped
    move = ydelta.move_conductances

    def permuted(info, c):
        out = move(info, c)
        if info.op == "d2y":
            a, b, _ = info.new_edges
            out[a], out[b] = out[b], out[a]
        return out

    g, prog = _cube_program(lattice, size)
    c = random_rational_conductances(g, random.Random(1))
    assert_quadratic_growth(g, c, prog)
    monkeypatch.setattr(ydelta, "move_conductances", permuted)
    with pytest.raises(AssertionError, match=r"^step [345]: "):
        assert_quadratic_growth(g, c, prog)


def test_formula_1_2_3():
    assert star_triangle(Fraction(1), Fraction(2), Fraction(3)) == (
        Fraction(1),
        Fraction(1, 2),
        Fraction(1, 3),
    )


def test_formula_symmetric():
    third = Fraction(1, 3)
    assert star_triangle(Fraction(1), Fraction(1), Fraction(1)) == (third, third, third)
    assert triangle_star(third, third, third) == (1, 1, 1)


def test_formula_inverse():
    assert triangle_star(Fraction(1), Fraction(1, 2), Fraction(1, 3)) == (1, 2, 3)


def test_round_trip_random_exact(rng):
    for _ in range(20):
        a, b, c = (Fraction(rng.randint(1, 30), rng.randint(1, 30)) for _ in range(3))
        assert triangle_star(*star_triangle(a, b, c)) == (a, b, c)


def test_hex1_y2d_structure():
    g, _ = build("hex1")
    c = {0: Fraction(1), 1: Fraction(2), 2: Fraction(3)}
    g2, c2, info = apply_move(g, c, Move("y2d", 0))
    assert (g2.n_vertices, g2.n_edges) == (1, 3)
    assert g2.validate().ok
    # loop displacements are the leg displacement differences
    assert sorted(g2.edges[e].disp for e in info.new_edges) == [(-1, 1), (0, -1), (1, 0)]
    # the edge opposite leg k gets the product of the other two legs over the sum
    assert c2[info.new_edges[0]] == Fraction(1)      # bc/(a+b+c) = 6/6
    assert c2[info.new_edges[1]] == Fraction(1, 2)   # ac/(a+b+c)
    assert c2[info.new_edges[2]] == Fraction(1, 3)   # ab/(a+b+c)
    t1, _ = build("tri1")
    assert isomorphic(g2, t1)


def test_y2d_bad_degree():
    g, c = build("tri2")
    with pytest.raises(NetworkSpectraError, match=r"^vertex 0 has degree 6, need 3$"):
        apply_move(g, c, Move("y2d", 0))


def test_y2d_loop_at_vertex():
    # degree-3 vertex whose star contains a loop (structural check only)
    edges = [
        Edge(0, 0, 0, (1, 0)),  # loop at v0
        Edge(1, 0, 1, (0, 1)),
        Edge(2, 1, 1, (1, 0)),
    ]
    g = TorusGraph(2, edges, {0: (0, 1, 2), 1: (3, 4, 5)}, check=False)
    c = {e.id: Fraction(1) for e in edges}
    with pytest.raises(NetworkSpectraError, match=r"^vertex 0 carries a loop$"):
        apply_move(g, c, Move("y2d", 0))


def test_y2d_singular_denominator():
    g, _ = build("hex1")
    c = {0: Fraction(1), 1: Fraction(1), 2: Fraction(-2)}
    with pytest.raises(SingularDenominator):
        apply_move(g, c, Move("y2d", 0))


def test_d2y_not_a_triangle():
    g, c = build("sq2")  # square faces
    with pytest.raises(NetworkSpectraError, match=r"^face 0 has 4 sides$"):
        apply_move(g, c, Move("d2y", 0))


def test_d2y_round_trip_tri1():
    g, c = build("tri1")
    g2, c2, info = apply_move(g, c, Move("d2y", 0))
    assert g2.validate().ok
    h, _ = build("hex1")
    assert isomorphic(g2, h)
    g3, c3, _ = apply_move(g2, c2, Move("y2d", info.new_vertex))
    assert isomorphic(g3, g)
    assert sorted(c3.values()) == sorted(c.values())


def test_invariance_hex1_unit():
    g, c = build("hex1")
    rep = invariance_check(g, c, "y2d", 0)
    assert rep.factor == 3
    assert rep.exact
    assert rep.polygon_equal
    # P2 = P1 / 3 exactly
    third = Fraction(1, 3)
    assert rep.p_after == third * rep.p_before


def test_invariance_random_draws(rng):
    g, _ = build("hex1")
    for v in (0, 1):
        for _ in range(20):
            c = random_rational_conductances(g, rng)
            rep = invariance_check(g, c, "y2d", v)
            assert rep.exact and rep.polygon_equal


def test_invariance_d2y_tri2(rng):
    g, _ = build("tri2")
    for f in range(g.n_faces):
        for _ in range(5):
            c = random_rational_conductances(g, rng)
            rep = invariance_check(g, c, "d2y", f)
            assert rep.exact and rep.polygon_equal


@pytest.mark.parametrize("size", [(2, 2), (3, 2)], ids=["tri2x2", "tri3x2"])
@pytest.mark.parametrize("positive", [True, False], ids=["positive", "signed"])
def test_invariance_star_triangle_star_on_lattices(lattice, size, positive):
    # unlike hex1 and tri2, each inserted star has three distinct neighbours
    g = lattice("tri", *size)
    c = random_rational_conductances(g, random.Random(1), positive=positive)
    for f in range(g.n_faces):
        rep = invariance_check(g, c, "d2y", f)
        assert rep.exact and rep.polygon_equal, f
        g2, c2, info = apply_move(g, c, Move("d2y", f))
        rep = invariance_check(g2, c2, "y2d", info.new_vertex)
        assert rep.exact and rep.polygon_equal, f
        g3, c3, back = apply_move(g2, c2, Move("y2d", info.new_vertex))
        assert g2.validate().ok and g3.validate().ok
        assert back.vertex_map == {v: v for v in range(g.n_vertices)}
        tri = [g.edge_of(d) for d in g.faces[f]]
        # triangle edge k of the y2d joins corners k+1 and k+2, as the face's side k+1 does
        restored = {tri[(k + 1) % 3]: c3[e] for k, e in enumerate(back.new_edges)}
        restored.update({e: c3[back.edge_map[x]] for e, x in info.edge_map.items()})
        assert restored == c, f


def test_trivial_program_conserves():
    g, c = build("hex1")
    prog = MoveProgram([], {v: v for v in range(g.n_vertices)}, {e.id: e.id for e in g.edges})
    rep = run_program(g, c, prog, 5)
    assert rep.conserved_constant
    assert all(step.conductances == rep.steps[0].conductances for step in rep.steps)


def test_hex1_star_triangle_star_program(rng):
    # y2d at a vertex, then d2y at the created triangle face, relabeled back
    g, _ = build("hex1")
    c = random_rational_conductances(g, rng)
    g2, c2, info = apply_move(g, c, Move("y2d", 0))
    tri_face = next(
        f
        for f in range(g2.n_faces)
        if {g2.edge_of(d) for d in g2.faces[f]} == set(info.new_edges)
        and len(g2.faces[f]) == 3
    )
    g3, c3, info3 = apply_move(g2, c2, Move("d2y", tri_face))
    from network_spectra.graph_core import find_isomorphism

    res = find_isomorphism(g3, g)
    assert res is not None
    vmap, dart_map, _ = res
    emap = {e.id: g.edge_of(dart_map[2 * e.id]) for e in g3.edges}
    prog = MoveProgram([Move("y2d", 0), Move("d2y", tri_face)], vmap, emap)
    assert_quadratic_growth(g, c, prog)
    rep = run_program(g, c, prog, 6)
    assert rep.conserved_constant
    assert rep.strand_classes_preserved


def test_program_json_round_trip():
    prog = MoveProgram.load(fixture_path("tri2_cube_program"))
    assert MoveProgram.from_json(prog.to_json()).to_json() == prog.to_json()


def test_bundled_program_is_the_cube_recurrence_program():
    bundled = json.loads(fixture_path("tri2_cube_program").read_text())
    assert bundled == cube_recurrence_program(build("tri2")[0]).to_json()


def test_cube_recurrence_program_runs(rng):
    g, _ = build("tri2")
    prog = cube_recurrence_program(g)
    assert [m.op for m in prog.moves] == ["d2y", "d2y", "y2d", "y2d"]
    c = random_rational_conductances(g, rng)
    assert_quadratic_growth(g, c, prog)
    rep = run_program(g, c, prog, 3)
    assert rep.conserved_constant
    assert rep.strand_classes_preserved
    # the orbit genuinely moves
    assert rep.steps[1].conductances != rep.steps[0].conductances


def test_conserved_vector_is_charpoly_over_anchor(rng):
    # the integer shortcut against the Fraction path, along a cube-recurrence orbit
    g, _ = build("tri2")
    prog = MoveProgram.load(fixture_path("tri2_cube_program"))
    c = random_rational_conductances(g, rng)
    assert_quadratic_growth(g, c, prog)
    rep = run_program(g, c, prog, 10)
    assert rep.conserved_constant
    for step in rep.steps:
        p = charpoly(build_laplacian(g, step.conductances))
        anchor = max(p.newton_polygon().vertices)
        a = p.coeff(*anchor)
        vec = tuple((ij, v / a) for ij, v in p.terms())
        assert conserved_vector(g, step.conductances) == (vec, anchor) == (step.conserved, rep.anchor)


def test_bad_iso_rejected():
    g, c = build("hex1")
    prog = MoveProgram([], {0: 0, 1: 1}, {0: 1, 1: 0, 2: 2})  # swaps parallel edges
    # swapping edges 0 and 1 changes displacements by a non-coboundary
    with pytest.raises(NetworkSpectraError, match=r"^the program's relabeling is not an isomorphism onto the initial graph$"):
        run_program(g, c, prog, 1)


def _cube_program(lattice, size):
    """The bundled tri2 program, or the generated one on the tri m x n lattice."""
    if size is None:
        return build("tri2")[0], MoveProgram.load(fixture_path("tri2_cube_program"))
    g = lattice("tri", *size)
    return g, cube_recurrence_program(g)


@pytest.mark.parametrize("size", [None, (2, 2), (3, 2), (3, 3)], ids=["tri2", "tri2x2", "tri3x2", "tri3x3"])
def test_closing_relabeling_check(lattice, size):
    g, prog = _cube_program(lattice, size)
    final, c = g, unit_conductances(g)
    for move in prog.moves:
        final, c, _ = apply_move(final, c, move)
    vm, em = prog.iso_vertices, prog.iso_edges
    assert is_isomorphism(final, g, vm, em)
    # composed with any automorphism of g (the deck translations) it is still one
    autos = [r for w0 in range(g.n_vertices) for k in range(g.degree(0))
             if (r := _try_extend(g, g, 0, w0, k, False)) is not None]
    assert len(autos) == g.n_vertices
    for av, ad, _ in autos:
        assert is_isomorphism(final, g, {v: av[w] for v, w in vm.items()},
                              {e: g.edge_of(ad[2 * x]) for e, x in em.items()})
    # no automorphism moves exactly two edges, so swapping two edge images breaks it
    for a in em:
        for b in range(a):
            assert not is_isomorphism(final, g, vm, {**em, a: em[b], b: em[a]})
    a, b = g.n_vertices - 2, g.n_vertices - 1  # leaves vertex 0's image alone when V >= 3
    assert not is_isomorphism(final, g, {**vm, a: vm[b], b: vm[a]}, em)
    assert not is_isomorphism(final, g, {}, em)


def _reference_run(graph, conductances, program, steps):
    """``run_program`` as a per-step loop of surgery and textbook formulas: every
    step redoes the surgery, and no step calls ``move_conductances``."""
    c = {k: Fraction(v) for k, v in conductances.items()}
    g = graph
    for move in program.moves:
        g, info = ydelta.surgery(g, move)
        c = textbook_move(info, c)
    classes = [sorted(s.homology for s in StrandSystem(h).strands) for h in (g, graph)]
    c = {k: Fraction(v) for k, v in conductances.items()}
    vec0, anchor = conserved_vector(graph, c)
    out = [TrajectoryStep(0, dict(c), vec0)]
    for n in range(1, steps + 1):
        g = graph
        for move in program.moves:
            g, info = ydelta.surgery(g, move)
            try:
                c = textbook_move(info, c)
            except SingularDenominator as exc:
                raise SingularDenominator(f"step {n}: {exc}") from exc
        c = {e: c[fe] for fe, e in program.iso_edges.items()}
        out.append(TrajectoryStep(n, dict(c), conserved_vector(graph, c)[0]))
    return TrajectoryReport(out, all(s.conserved == vec0 for s in out), anchor, classes[0] == classes[1])


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("positive", [True, False], ids=["positive", "signed"])
@pytest.mark.parametrize("size,steps", [(None, 10), ((2, 2), 6), ((3, 2), 4)], ids=["tri2", "tri2x2", "tri3x2"])
def test_run_program_matches_per_step_moves(lattice, size, steps, positive, seed):
    g, prog = _cube_program(lattice, size)
    c = random_rational_conductances(g, random.Random(seed), positive=positive)
    assert_quadratic_growth(g, c, prog)
    rep = run_program(g, c, prog, steps)
    assert rep == _reference_run(g, c, prog, steps)
    assert rep.conserved_constant and rep.strand_classes_preserved
    assert len({frozenset(s.conductances.items()) for s in rep.steps}) == steps + 1


@pytest.mark.parametrize("cond,message", [
    ((1, -1, -1, -2, 1, 2), "step 2: AB + BC + CA = 0; the move is undefined here"),
    ((1, 2, -3, -2, 3, 4), "step 3: a + b + c = 0; the move is undefined here"),
])
def test_singular_later_step_reported(cond, message):
    # step 1 goes through; a later step's d2y or y2d divides by 0
    g, _ = build("tri2")
    prog = MoveProgram.load(fixture_path("tri2_cube_program"))
    c = {e: Fraction(x) for e, x in enumerate(cond)}
    assert len(run_program(g, c, prog, 1).steps) == 2
    for run in (run_program, _reference_run):
        with pytest.raises(SingularDenominator, match=rf"^{re.escape(message)}$"):
            run(g, c, prog, 5)


@pytest.mark.parametrize("seed", [1, 2])
@pytest.mark.parametrize("positive", [True, False], ids=["positive", "signed"])
@pytest.mark.parametrize("size", [None, (2, 2), (3, 2), (3, 3)], ids=["tri2", "tri2x2", "tri3x2", "tri3x3"])
def test_move_conductances_match_textbook_formulas(lattice, size, positive, seed):
    # every move of two steps of the program, the second on long conductances
    g, prog = _cube_program(lattice, size)
    c = random_rational_conductances(g, random.Random(seed), positive=positive)
    plans = []
    for move in prog.moves:
        g, info = ydelta.surgery(g, move)
        plans.append(info)
    for _ in range(2):
        for info in plans:
            got = ydelta.move_conductances(info, c)
            assert got == textbook_move(info, c)
            c = got
        c = {e: c[fe] for fe, e in prog.iso_edges.items()}


def _d2y_plan(sides):
    """A d2y plan on tri2 and conductances giving its triangle the sides ``sides``."""
    g, _ = build("tri2")
    _, info = ydelta.surgery(g, Move("d2y", 0))
    c = {e: 1 for e in range(g.n_edges)}
    c.update(zip(info.inputs, sides))
    return info, c


def test_move_conductances_of_ints_are_fractions():
    # int sides 1, 4, 5 once gave the floats 7.25, 5.8 and 29.0, equal to these Fractions
    info, c = _d2y_plan((1, 4, 5))
    legs = [ydelta.move_conductances(info, c)[e] for e in info.new_edges]
    assert legs == [Fraction(29, 4), Fraction(29, 5), Fraction(29)]
    _, info = ydelta.surgery(build("hex1")[0], Move("y2d", 0))
    c = ydelta.move_conductances(info, {0: 1, 1: 2, 2: 3})
    sides = [c[e] for e in info.new_edges]
    assert sides == [1, Fraction(1, 2), Fraction(1, 3)]
    assert all(type(x) is Fraction for x in legs + sides)


@pytest.mark.parametrize("sides", [(1, 1, Fraction(-1, 2)), (Fraction(-2, 3), 2, 1), (3, 0, 2)],
                         ids=["R=0", "R=0 permuted", "zero side"])
def test_d2y_singular_with_nonzero_signed_sides(sides):
    # 1/A + 1/B + 1/C = 0 with every side nonzero, and a zero side, give one message
    info, c = _d2y_plan(sides)
    for move in (ydelta.move_conductances, textbook_move):
        with pytest.raises(SingularDenominator, match=r"^AB \+ BC \+ CA = 0; the move is undefined here$"):
            move(info, c)


def test_singular_step_reported():
    g, _ = build("hex1")
    c = {0: Fraction(1), 1: Fraction(1), 2: Fraction(-2)}
    prog_data = {
        "moves": [{"op": "y2d", "vertex": 0}],
        "iso": {"vertices": {}, "edges": {}},
    }
    # structural pass fails before any step because a+b+c = 0 at build time
    with pytest.raises(SingularDenominator):
        run_program(g, c, MoveProgram.from_json(prog_data), 1)


# -- discrete Abel map -------------------------------------------------------


def test_abel_base_is_zero(any_network):
    g, _ = any_network
    chart = discrete_abel(g, ("vertex", 0), ((-1, 1), (-1, 1)))
    assert chart.value("vertex", 0, (0, 0)) == tuple([0] * len(chart.strand_classes))


def test_abel_path_independent_and_equivariant(any_network):
    g, _ = any_network
    chart = discrete_abel(g, ("vertex", 0), ((-1, 1), (-1, 1)))  # raises on defects
    for h in ((1, 0), (0, 1), (1, 1), (-1, 1)):
        assert chart.check_equivariance(h)


def test_abel_equivariance_explicit_sq1():
    g, _ = build("sq1")
    chart = discrete_abel(g, ("vertex", 0), ((-1, 1), (-1, 1)))
    v0 = chart.value("vertex", 0, (0, 0))
    v1 = chart.value("vertex", 0, (1, 0))
    emb = chart.embedding((1, 0))
    assert tuple(a + b for a, b in zip(v0, emb)) == v1


ABEL_GRAPHS = [*FIXTURE_NAMES, "sq3x2"]


def _abel_graph(name, lattice):
    return lattice("sq", 3, 2) if name == "sq3x2" else build(name)[0]


@pytest.mark.parametrize("name", ABEL_GRAPHS)
def test_abel_window_zero_is_the_fundamental_domain(name, lattice):
    # one call gives d at translate (0, 0) for every vertex and face, the values
    # a wider window gives those lifts
    g = _abel_graph(name, lattice)
    home = discrete_abel(g, ("vertex", 0), ((0, 0), (0, 0)))
    wide = discrete_abel(g, ("vertex", 0), ((-1, 1), (-1, 1)))
    lifts = [("vertex", v, (0, 0)) for v in range(g.n_vertices)]
    lifts += [("face", f, (0, 0)) for f in range(g.n_faces)]
    assert sorted(home.entries) == sorted(lifts)
    assert all(home.entries[key] == wide.entries[key] for key in lifts)


@pytest.mark.parametrize("k", [0, 1, 2])
@pytest.mark.parametrize("name", ABEL_GRAPHS)
def test_abel_window_holds_every_lift(name, k, lattice):
    g = _abel_graph(name, lattice)
    chart = discrete_abel(g, ("vertex", 0), ((-k, k), (-k, k)))
    assert len(chart.entries) == (2 * k + 1) ** 2 * (g.n_vertices + g.n_faces)


def test_abel_raises_on_path_dependence(monkeypatch):
    # state (0, R) answers the L strand, so the crossings of some loop no longer cancel
    strand_of = StrandSystem.strand_of

    def swapped(self, dart, turn):
        return strand_of(self, dart, LEFT if (dart, turn) == (0, RIGHT) else turn)

    monkeypatch.setattr(StrandSystem, "strand_of", swapped)
    with pytest.raises(NetworkSpectraError, match="path dependent"):
        discrete_abel(build("hex1")[0])


def test_abel_names_an_unknown_base_kind():
    g, _ = build("hex1")
    with pytest.raises(InputError, match="unknown base kind 'edge': expected 'vertex' or 'face'"):
        discrete_abel(g, ("edge", 0))


def test_abel_window_must_hold_the_base():
    g, _ = build("hex1")
    with pytest.raises(InputError, match="does not contain the translate"):
        discrete_abel(g, ("vertex", 0), ((1, 2), (-1, 1)))


@pytest.mark.parametrize("steps", [0, 1, 5])
def test_strand_classes_compared_once(monkeypatch, rng, steps):
    # the start graph against the graph the moves produce, whatever the step count
    built = []

    class Spy(ydelta.StrandSystem):
        def __init__(self, graph):
            built.append(graph)
            super().__init__(graph)

    monkeypatch.setattr(ydelta, "StrandSystem", Spy)
    g, _ = build("tri2")
    prog = MoveProgram.load(fixture_path("tri2_cube_program"))
    c = random_rational_conductances(g, rng)
    assert_quadratic_growth(g, c, prog)
    rep = run_program(g, c, prog, steps)
    assert rep.strand_classes_preserved
    assert len(built) == 2 and built[1] is g and built[0] is not g


def test_strand_classes_changed_reported(monkeypatch, rng):
    g, _ = build("tri2")
    prog = MoveProgram.load(fixture_path("tri2_cube_program"))
    other = build("sq1")[0]  # four strands, not tri2's six
    real_apply = ydelta.apply_move

    def apply_move(graph, c, move):
        g2, c2, info = real_apply(graph, c, move)
        return (other if move is prog.moves[-1] else g2), c2, info

    monkeypatch.setattr(ydelta, "apply_move", apply_move)
    monkeypatch.setattr(ydelta, "is_isomorphism", lambda *args: True)
    rep = run_program(g, random_rational_conductances(g, rng), prog, 2)
    assert rep.conserved_constant
    assert rep.strand_classes_preserved is False
    assert rep.to_json()["strand_classes_preserved"] is False
