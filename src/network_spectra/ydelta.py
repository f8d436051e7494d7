"""Y-Delta surgery, move programs with conserved quantities, and the
integer-lattice discrete Abel map.

A Y -> Delta move at a degree-3 vertex with legs (a, b, c) replaces the star
by a triangle whose edge opposite the leg with conductance a carries
A = bc / (a + b + c); the new edge from neighbor i to neighbor j inherits the
displacement difference of the legs.  Delta -> Y gives the leg opposite side A
the conductance (AB + BC + CA) / A.  ``move_conductances`` computes both in
resistance form, which shares its quotients between the three new conductances.
Eliminating the star vertex by a Schur complement shows det before =
(a + b + c) * det after, exactly, which is the invariance check used throughout.

Each move removes three edges, adds three and rewrites the rotation slots the
removed darts held (``_rewire``): Y -> Delta turns a neighbor's leg slot into two
triangle darts, Delta -> Y turns a corner's two triangle slots into its leg.

A move has two parts: its surgery (``surgery``: the new graph and a ``MoveInfo``
plan of edge maps and input edges) and its arithmetic (``move_conductances``:
conductances through that plan, with the ``SingularDenominator`` checks);
``apply_move`` runs one after the other.  A move program passes through the same
graphs at every step, so ``run_program`` runs the surgery once per program and
only the arithmetic at each step.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import index
from typing import Mapping, Sequence

from .errors import InputError, NetworkSpectraError, SingularDenominator
from .graph_core import Edge, TorusGraph, Vec, find_isomorphism, is_isomorphism, read_json, vadd, vneg, vsub
from .laplacian import build_laplacian, charpoly, integer_det
from .laurent import LaurentPoly2
from .zigzag import LEFT, RIGHT, StrandSystem, zigzag_polygon


@dataclass
class MoveInfo:
    """The plan of one move: its surgery, for the arithmetic to replay.

    vertex_map/edge_map send surviving old ids to new ids; new_edges lists the
    created edge ids (opposite leg 0, 1, 2 for y2d; legs at corner 0, 1, 2 for
    d2y).  ``inputs`` are the old edge ids the new conductances are made of: the
    legs for y2d, the triangle's sides in face order for d2y.  For d2y,
    new_vertex is the id of the inserted star.
    """

    op: str
    inputs: tuple[int, ...]
    vertex_map: dict[int, int]
    edge_map: dict[int, int]
    new_edges: tuple[int, ...]
    new_vertex: int | None = None


def _rewire(graph: TorusGraph, removed, added, slots, vmap, rows):
    """Delete the edges ``removed``, append ``added`` as (tail, head, disp) and
    renumber vertex u to ``vmap[u]``, dropping the rows of vertices not in it.
    Old dart d gives way to ``slots[d]``, darts of removed edges drop out, and ``rows``
    are new vertices' rows; there dart 2k / 2k + 1 is added edge k forward / back.
    Returns (graph, edge_map, new edge ids)."""
    keep = [e for e in graph.edges if e.id not in removed]
    emap = {e.id: k for k, e in enumerate(keep)}
    base = len(keep)
    spec = [(vmap[e.tail], vmap[e.head], e.disp) for e in keep] + list(added)
    edges = [Edge(k, *x) for k, x in enumerate(spec)]
    moved = {2 * e + b: (2 * k + b,) for e, k in emap.items() for b in (0, 1)}
    moved.update({d: [2 * base + x for x in xs] for d, xs in slots.items()})
    rotation = {vmap[u]: [x for d in row for x in moved.get(d, ())]
                for u, row in graph.rotation.items() if u in vmap}
    rotation.update({u: [2 * base + x for x in row] for u, row in rows.items()})
    g2 = TorusGraph(len(vmap) + len(rows), edges, rotation)
    return g2, emap, tuple(range(base, len(spec)))


def _y2d_surgery(graph: TorusGraph, v: int) -> tuple[TorusGraph, MoveInfo]:
    """The graph with the degree-3 star at v replaced by a triangle."""
    if not 0 <= v < graph.n_vertices:
        raise InputError(f"vertex {v} is out of range 0..{graph.n_vertices - 1}")
    legs = graph.rotation.get(v, ())
    if len(legs) != 3:
        raise NetworkSpectraError(f"vertex {v} has degree {len(legs)}, need 3")
    if any(graph.head_of(d) == v for d in legs):
        raise NetworkSpectraError(f"vertex {v} carries a loop")
    vmap = {u: u - (u > v) for u in range(graph.n_vertices) if u != v}
    nbr = [vmap[graph.head_of(d)] for d in legs]
    # triangle edge k, opposite leg k, runs from neighbor k+1 to neighbor k+2
    added = [(nbr[i], nbr[j], vsub(graph.disp(legs[j]), graph.disp(legs[i]))) for i, j in ((1, 2), (2, 0), (0, 1))]
    # at neighbor i, the slot of the leg back to v becomes (edge i+2 forward, edge i+1 back)
    slots = {graph.alpha(d): (2 * ((i + 2) % 3), 2 * ((i + 1) % 3) + 1) for i, d in enumerate(legs)}
    leg_ids = tuple(graph.edge_of(d) for d in legs)
    g2, emap, tri_ids = _rewire(graph, set(leg_ids), added, slots, vmap, {})
    return g2, MoveInfo("y2d", leg_ids, vmap, emap, tri_ids)


def _d2y_surgery(graph: TorusGraph, face: int) -> tuple[TorusGraph, MoveInfo]:
    """The graph with a star vertex inserted into the triangular face."""
    if not 0 <= face < graph.n_faces:
        raise InputError(f"face {face} is out of range 0..{graph.n_faces - 1}")
    orbit = graph.faces[face]
    if len(orbit) != 3:
        raise NetworkSpectraError(f"face {face} has {len(orbit)} sides")
    tri_edges = tuple(graph.edge_of(d) for d in orbit)
    if len(set(tri_edges)) != 3:
        raise NetworkSpectraError(f"face {face} repeats an edge")
    # leg i runs from corner i to the star, opposite the triangle edge of orbit[i+1]
    star = graph.n_vertices
    eta1 = vneg(graph.disp(orbit[0]))
    eta = [(0, 0), eta1, vsub(eta1, graph.disp(orbit[1]))]
    added = [(graph.tail_of(d), star, eta[i]) for i, d in enumerate(orbit)]
    # at corner i, the ccw pair (orbit[i], reversed orbit[i-1]) collapses to leg i
    slots = {d: (2 * i,) for i, d in enumerate(orbit)}
    vmap = {u: u for u in range(graph.n_vertices)}
    g2, emap, leg_ids = _rewire(graph, set(tri_edges), added, slots, vmap, {star: (1, 3, 5)})
    return g2, MoveInfo("d2y", tri_edges, vmap, emap, leg_ids, new_vertex=star)


def surgery(graph: TorusGraph, move: Move) -> tuple[TorusGraph, MoveInfo]:
    """The graph after ``move`` and the move's plan; no conductance is read."""
    if move.op == "y2d":
        return _y2d_surgery(graph, move.target)
    if move.op == "d2y":
        return _d2y_surgery(graph, move.target)
    raise ValueError(f"unknown move op {move.op!r}")


def move_conductances(info: MoveInfo, conductances: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """The conductances after the move that ``info`` plans: surviving edges keep
    theirs, a y2d triangle edge opposite leg a gets bc / (a + b + c), and a d2y leg
    opposite side A gets (AB + BC + CA) / A.  The three inputs are taken as
    Fractions, so the new conductances are Fractions for int inputs too.

    Both formulas are computed in resistance form, which shares the reductions
    between the three outputs: y2d takes t1 = b / sigma and t2 = c / sigma once and
    gives [b t2, a t2, a t1]; d2y takes R = 1/A + 1/B + 1/C (a reciprocal needs no
    gcd), u0 = A R and u1 = B R, and gives [u0 C, u0 B, u1 C] = [S/B, S/C, S/A] for
    S = AB + BC + CA = ABC R.  On a 2-core x86 host, 40 tri2 cube-program steps
    (seeds 1-3, positive and signed draws) took 1.45 s of arithmetic against 2.20 s
    for the textbook products and quotients."""
    x = [Fraction(conductances[e]) for e in info.inputs]
    if info.op == "y2d":
        sigma = sum(x)
        if sigma == 0:
            raise SingularDenominator("a + b + c = 0; the move is undefined here")
        t1, t2 = x[1] / sigma, x[2] / sigma
        new = [x[1] * t2, x[0] * t2, x[0] * t1]
    else:
        if not all(x) or (R := 1 / x[0] + 1 / x[1] + 1 / x[2]) == 0:
            raise SingularDenominator("AB + BC + CA = 0; the move is undefined here")
        u0, u1 = x[0] * R, x[1] * R
        new = [u0 * x[2], u0 * x[1], u1 * x[2]]
    c = {k: conductances[e] for e, k in info.edge_map.items()}
    c.update(zip(info.new_edges, new))
    return c


# -- invariance ------------------------------------------------------------------


@dataclass
class InvarianceReport:
    kind: str
    target: int
    factor: Fraction
    exact: bool
    polygon_equal: bool
    p_before: LaurentPoly2
    p_after: LaurentPoly2

    def to_json(self) -> dict:
        return {
            "move": {"op": self.kind, "target": self.target},
            "factor": str(self.factor),
            "exact_identity": self.exact,
            "polygon_equal": self.polygon_equal,
        }


def invariance_check(
    graph: TorusGraph, conductances: Mapping[int, Fraction], op: str, target: int
) -> InvarianceReport:
    """Exact spectral-curve invariance: det picks up exactly the star sum.

    For y2d at a vertex with legs (a, b, c): P_before = (a+b+c) * P_after.
    For d2y at a face creating legs (a, b, c): P_after = (a+b+c) * P_before.
    """
    p1 = charpoly(build_laplacian(graph, conductances))
    g2, c2, info = apply_move(graph, conductances, Move(op, target))
    p2 = charpoly(build_laplacian(g2, c2))
    if op == "y2d":
        factor, big, small = sum(Fraction(conductances[e]) for e in info.inputs), p1, p2
    else:
        factor, big, small = sum(c2[e] for e in info.new_edges), p2, p1
    exact = big == LaurentPoly2.constant(factor) * small
    polygon_equal = zigzag_polygon(graph) == zigzag_polygon(g2)
    return InvarianceReport(op, target, factor, exact, polygon_equal, p1, p2)


# -- move programs -----------------------------------------------------------------


@dataclass
class Move:
    op: str          # "y2d" | "d2y"
    target: int      # vertex id | face id (in the graph at application time)

    def to_json(self) -> dict:
        key = "vertex" if self.op == "y2d" else "face"
        return {"op": self.op, key: self.target}


@dataclass
class MoveProgram:
    moves: list[Move]
    iso_vertices: dict[int, int]   # final-graph vertex -> initial-graph vertex
    iso_edges: dict[int, int]      # final-graph edge -> initial-graph edge
    steps: int = 10                # how often ``evolve`` runs it unless told otherwise

    def to_json(self) -> dict:
        return {
            "moves": [m.to_json() for m in self.moves],
            "iso": {
                "vertices": {str(k): v for k, v in sorted(self.iso_vertices.items())},
                "edges": {str(k): v for k, v in sorted(self.iso_edges.items())},
            },
            "steps": self.steps,
        }

    @classmethod
    def from_json(cls, data: dict) -> "MoveProgram":
        try:
            moves = []
            for m in data["moves"]:
                if m["op"] == "y2d":
                    moves.append(Move("y2d", index(m["vertex"])))
                elif m["op"] == "d2y":
                    moves.append(Move("d2y", index(m["face"])))
                else:
                    raise InputError(f"unknown move op {m['op']!r}")
            return cls(
                moves,
                {int(k): index(v) for k, v in data["iso"]["vertices"].items()},
                {int(k): index(v) for k, v in data["iso"]["edges"].items()},
                index(data.get("steps", cls.steps)),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InputError(f"malformed move program: {type(exc).__name__}: {exc}") from None

    @classmethod
    def load(cls, path) -> "MoveProgram":
        return cls.from_json(read_json(path))


def apply_move(graph: TorusGraph, conductances, move: Move):
    """The move's surgery, then its arithmetic; returns (graph, c, info)."""
    g2, info = surgery(graph, move)
    return g2, move_conductances(info, {e: Fraction(x) for e, x in conductances.items()}), info


@dataclass
class TrajectoryStep:
    step: int
    conductances: dict[int, Fraction]
    conserved: tuple

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "conductances": {str(k): str(v) for k, v in sorted(self.conductances.items())},
            "conserved": [[list(ij), str(v)] for ij, v in self.conserved],
        }


@dataclass
class TrajectoryReport:
    steps: list[TrajectoryStep]
    conserved_constant: bool
    anchor: Vec
    strand_classes_preserved: bool

    def to_json(self) -> dict:
        return {
            "anchor": list(self.anchor),
            "conserved_constant": self.conserved_constant,
            "strand_classes_preserved": self.strand_classes_preserved,
            "steps": [s.to_json() for s in self.steps],
        }


def conserved_vector(graph: TorusGraph, conductances) -> tuple[tuple, Vec]:
    """Charpoly coefficients normalized at an extremal anchor.

    The anchor is the lexicographically largest exponent of P, a vertex of its
    Newton polygon.  P = D / s with integer D (``integer_det`` of the integer
    rows ``build_laplacian`` sums from the darts), and the row scale s cancels
    from every ratio D_ij / D_anchor, so neither P nor a Fraction entry is formed.
    """
    d, _ = integer_det(build_laplacian(graph, conductances).rows)
    if not d:
        raise NetworkSpectraError("the zero polynomial has no Newton polygon")
    anchor = max(d)
    return tuple((ij, Fraction(d[ij], d[anchor])) for ij in sorted(d)), anchor


def _strand_classes(graph: TorusGraph) -> list[Vec]:
    return sorted(s.homology for s in StrandSystem(graph).strands)


def run_program(
    graph: TorusGraph,
    conductances: Mapping[int, Fraction],
    program: MoveProgram,
    steps: int,
) -> TrajectoryReport:
    """Iterate the program, recording conductances and the conserved vector.

    The graphs a program passes through are the same at every step, so the
    surgery runs once, in the pass that checks the closing isomorphism; that pass
    also makes step 1.  Steps 2 onwards replay only the arithmetic of the moves'
    plans (``move_conductances``).  Rebuilding and validating the graphs at every
    step took 15 ms of a 14-step tri2x2 ``evolve`` of 77 ms, 12 of a 10-step
    tri3x2 one of 130 and 8 of a 40-step tri2 one of 350 (2-core x86 host).
    """
    if steps < 0:
        raise InputError(f"the step count {steps} is negative")
    c0 = {k: Fraction(v) for k, v in conductances.items()}
    g, c, plans = graph, c0, []
    for move in program.moves:
        g, c, info = apply_move(g, c, move)
        plans.append(info)
    if not is_isomorphism(g, graph, program.iso_vertices, program.iso_edges):
        raise NetworkSpectraError("the program's relabeling is not an isomorphism onto the initial graph")
    # strand classes depend on the graph alone, and every step moves the start graph the same way
    classes_ok = _strand_classes(g) == _strand_classes(graph)

    vec0, anchor = conserved_vector(graph, c0)
    steps_out = [TrajectoryStep(0, c0, vec0)]
    constant = True
    for n in range(1, steps + 1):
        if n > 1:
            try:
                for info in plans:
                    c = move_conductances(info, c)
            except SingularDenominator as exc:
                raise SingularDenominator(f"step {n}: {exc}") from exc
        c = {e: c[fe] for fe, e in program.iso_edges.items()}
        vec, _ = conserved_vector(graph, c)
        constant &= vec == vec0
        steps_out.append(TrajectoryStep(n, c, vec))
    return TrajectoryReport(steps_out, constant, anchor, classes_ok)


# -- program construction -----------------------------------------------------------


def _face_key(graph: TorusGraph, face: int) -> frozenset[int]:
    return frozenset(graph.edge_of(d) for d in graph.faces[face])


def cube_recurrence_program(graph: TorusGraph) -> MoveProgram:
    """The alternating-triangle step on a triangular-lattice torus.

    Picks a set of triangular faces covering every edge exactly once ("the
    downward triangles"), stars each of them, then contracts every original
    vertex back; the closing isomorphism is found by brute force.
    """
    tri_faces = [f for f in range(graph.n_faces) if len(graph.faces[f]) == 3]
    cover = _edge_disjoint_face_cover(graph, tri_faces)
    if cover is None:
        raise NetworkSpectraError("no edge-disjoint triangle cover exists")
    moves: list[Move] = []
    g = graph
    edge_track = {e.id: e.id for e in graph.edges}       # original -> current
    vertex_track = {v: v for v in range(graph.n_vertices)}

    def apply(move: Move) -> None:
        nonlocal g, edge_track, vertex_track
        moves.append(move)
        g, info = surgery(g, move)
        edge_track = {o: info.edge_map[e] for o, e in edge_track.items() if e in info.edge_map}
        vertex_track = {o: info.vertex_map[v] for o, v in vertex_track.items() if v in info.vertex_map}

    for f in cover:
        current = frozenset(edge_track[e] for e in _face_key(graph, f) if e in edge_track)
        apply(Move("d2y", _find_face(g, current)))
    for v0 in sorted(vertex_track):
        apply(Move("y2d", vertex_track[v0]))
    res = find_isomorphism(g, graph)
    if res is None:
        raise NetworkSpectraError("the recurrence step did not return to the graph")
    vmap, dart_map, _shift = res
    emap = {e.id: graph.edge_of(dart_map[2 * e.id]) for e in g.edges}
    return MoveProgram(moves, vmap, emap)


def _edge_disjoint_face_cover(graph: TorusGraph, faces: Sequence[int]):
    """Backtracking search for triangle faces covering each edge exactly once."""
    need = set(range(graph.n_edges))

    def rec(chosen: list[int], remaining: set[int], candidates: list[int]):
        if not remaining:
            return list(chosen)
        for k, f in enumerate(candidates):
            edges = _face_key(graph, f)
            if edges <= remaining:
                out = rec(chosen + [f], remaining - edges, candidates[k + 1 :])
                if out is not None:
                    return out
        return None

    return rec([], need, sorted(faces))


def _find_face(graph: TorusGraph, key: frozenset[int]):
    """Locate the triangular face with exactly this edge set."""
    for f in range(graph.n_faces):
        if len(graph.faces[f]) == 3 and _face_key(graph, f) == key:
            return f
    raise NetworkSpectraError(f"face with edges {sorted(key)} not found")


# -- discrete Abel map -----------------------------------------------------------


@dataclass
class AbelChart:
    """Integer strand-coordinate chart over a window of the universal cover.

    Entries are keyed by ("vertex" | "face", id, translate); values live in
    Z^strands where the strand order is the trace order of StrandSystem.
    """

    graph: TorusGraph
    base: tuple[str, int]
    window: tuple[tuple[int, int], tuple[int, int]]
    strand_classes: tuple[Vec, ...]
    entries: dict[tuple[str, int, Vec], tuple[int, ...]]

    def value(self, kind: str, obj: int, translate: Vec) -> tuple[int, ...]:
        return self.entries[(kind, obj, tuple(translate))]

    def embedding(self, h: Vec) -> tuple[int, ...]:
        """Image of a homology class under h -> (det(h, [strand]))_strands."""
        return tuple(h[0] * a[1] - h[1] * a[0] for a in self.strand_classes)

    def check_equivariance(self, h: Vec) -> bool:
        emb = self.embedding(h)
        ok = True
        for (kind, obj, t), val in self.entries.items():
            t2 = vadd(t, h)
            key = (kind, obj, t2)
            if key in self.entries:
                ok &= tuple(a + b for a, b in zip(val, emb)) == self.entries[key]
        return ok

    def to_json(self) -> dict:
        return {
            "base": list(self.base),
            "window": [list(self.window[0]), list(self.window[1])],
            "strand_classes": [list(c) for c in self.strand_classes],
            "entries": [
                {"kind": k, "id": o, "translate": list(t), "value": list(v)}
                for (k, o, t), v in sorted(self.entries.items())
            ],
        }


def _vertex_edge_increment(sys: StrandSystem, d: int):
    """Strand-coordinate increment for transport along dart d (tail to head)."""
    g = sys.graph
    ad = g.alpha(d)
    inc = {}
    for sid, delta in (
        (sys.strand_of(d, RIGHT), +1),
        (sys.strand_of(d, LEFT), -1),
        (sys.strand_of(ad, RIGHT), -1),
        (sys.strand_of(ad, LEFT), +1),
    ):
        inc[sid] = inc.get(sid, 0) + delta
    return inc


def _corner_increment(sys: StrandSystem, v: int, corner: int):
    """Increment for stepping from vertex v out across corner k into its face."""
    g = sys.graph
    slots = g.rotation[v]
    x_i = slots[corner]
    x_next = slots[(corner + 1) % len(slots)]
    inc = {}
    for sid, delta in (
        (sys.strand_of(g.alpha(x_next), RIGHT), -1),
        (sys.strand_of(g.alpha(x_i), LEFT), +1),
    ):
        inc[sid] = inc.get(sid, 0) + delta
    return inc


def discrete_abel(
    graph: TorusGraph,
    base: tuple[str, int] = ("vertex", 0),
    window: tuple[tuple[int, int], tuple[int, int]] = ((-1, 1), (-1, 1)),
) -> AbelChart:
    """Breadth-first strand-coordinate transport over a universal-cover window.

    Moves along edges (vertex to vertex) and across corners (vertex to face),
    counting signed strand crossings: a strand crossing the transported path
    from its right to its left counts +1.  The window must hold the base's own
    lift, translate (0, 0); then the search compares every adjacency inside it,
    and a mismatch raises NetworkSpectraError.
    """
    count = {"vertex": graph.n_vertices, "face": graph.n_faces}.get(base[0], 0)
    if not 0 <= base[1] < count:
        raise InputError(f"{base[0]} {base[1]} is out of range 0..{count - 1}")
    sys = StrandSystem(graph)
    n_str = len(sys.strands)
    (tx0, tx1), (ty0, ty1) = window

    def in_window(t: Vec) -> bool:
        return tx0 <= t[0] <= tx1 and ty0 <= t[1] <= ty1

    if not in_window((0, 0)):
        raise InputError(f"the window {window} does not contain the translate (0, 0)")

    def neighbors(kind: str, obj: int, t: Vec):
        """Yield (key, increment) for each adjacent lifted object."""
        if kind == "vertex":
            for d in graph.rotation.get(obj, ()):
                t2 = vadd(t, graph.disp(d))
                yield ("vertex", graph.head_of(d), t2), _vertex_edge_increment(sys, d)
            for corner in range(len(graph.rotation.get(obj, ()))):
                x_i = graph.rotation[obj][corner]
                f = graph.left_face(x_i)
                t2 = vadd(t, graph.face_offset(x_i))
                yield ("face", f, t2), _corner_increment(sys, obj, corner)
        else:
            # face -> vertex steps are the reversals of vertex -> face steps
            for d in graph.faces[obj]:
                v = graph.tail_of(d)
                slots = graph.rotation[v]
                corner = slots.index(d)
                t2 = vsub(t, graph.face_offset(d))
                inc = {s: -x for s, x in _corner_increment(sys, v, corner).items()}
                yield ("vertex", v, t2), inc

    start = (base[0], base[1], (0, 0))
    entries: dict[tuple[str, int, Vec], tuple[int, ...]] = {
        start: tuple([0] * n_str)
    }
    queue = [start]
    while queue:
        kind, obj, t = queue.pop(0)
        val = entries[(kind, obj, t)]
        for (k2, o2, t2), inc in neighbors(kind, obj, t):
            if not in_window(t2):
                continue
            new_val = list(val)
            for sid, delta in inc.items():
                new_val[sid] += delta
            new_val = tuple(new_val)
            key = (k2, o2, t2)
            if key in entries:
                if entries[key] != new_val:
                    raise NetworkSpectraError(
                        f"transport to {key} is path dependent: {entries[key]} vs {new_val}"
                    )
            else:
                entries[key] = new_val
                queue.append(key)
    return AbelChart(
        graph,
        base,
        window,
        tuple(s.homology for s in sys.strands),
        entries,
    )
