"""Y-Delta surgery, move programs with conserved quantities, and the
integer-lattice discrete Abel map.

A Y -> Delta move at a degree-3 vertex with legs (a, b, c) replaces the star
by a triangle whose edge opposite the leg with conductance a carries
A = bc / (a + b + c); the new edge from neighbor i to neighbor j inherits the
displacement difference of the legs.  Eliminating the star vertex by a Schur
complement shows det before = (a + b + c) * det after, exactly, which is the
invariance check used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence

from .errors import InputError, NetworkSpectraError, SingularDenominator
from .graph_core import Edge, TorusGraph, Vec, find_isomorphism, is_isomorphism, read_json, vadd, vneg, vsub
from .laplacian import build_laplacian, charpoly, integer_det
from .laurent import LaurentPoly2
from .zigzag import LEFT, RIGHT, StrandSystem, zigzag_polygon


@dataclass
class MoveInfo:
    """Bookkeeping for one surgery step.

    vertex_map/edge_map send surviving old ids to new ids; new_edges lists the
    created edge ids (opposite leg 0, 1, 2 for y2d; legs at corner 0, 1, 2 for
    d2y).  For d2y, new_vertex is the id of the inserted star.
    """

    vertex_map: dict[int, int]
    edge_map: dict[int, int]
    new_edges: tuple[int, ...]
    new_vertex: int | None = None
    denominator: Fraction | None = None


def _renumber_after_vertex_removal(v: int, n: int) -> dict[int, int]:
    return {u: (u if u < v else u - 1) for u in range(n) if u != v}


def y_to_delta(graph: TorusGraph, conductances: Mapping[int, Fraction], v: int):
    """Replace the degree-3 star at v by a triangle; returns (graph, c, info)."""
    if not 0 <= v < graph.n_vertices:
        raise InputError(f"vertex {v} is out of range 0..{graph.n_vertices - 1}")
    legs = graph.rotation.get(v, ())
    if len(legs) != 3:
        raise NetworkSpectraError(f"vertex {v} has degree {len(legs)}, need 3")
    if any(graph.head_of(d) == v for d in legs):
        raise NetworkSpectraError(f"vertex {v} carries a loop")
    leg_edges = [graph.edge_of(d) for d in legs]
    leg_c = [Fraction(conductances[e]) for e in leg_edges]
    sigma = sum(leg_c)
    if sigma == 0:
        raise SingularDenominator("a + b + c = 0; the move is undefined here")
    neighbors = [graph.head_of(d) for d in legs]
    delta = [graph.disp(d) for d in legs]

    vmap = _renumber_after_vertex_removal(v, graph.n_vertices)
    keep = [e for e in graph.edges if e.id not in leg_edges]
    emap = {e.id: k for k, e in enumerate(keep)}
    new_edges: list[Edge] = []
    for e in keep:
        new_edges.append(Edge(emap[e.id], vmap[e.tail], vmap[e.head], e.disp))
    tri_ids = []
    new_c: dict[int, Fraction] = {emap[e.id]: Fraction(conductances[e.id]) for e in keep}
    for k in range(3):
        i, j = (k + 1) % 3, (k + 2) % 3
        eid = len(new_edges)
        tri_ids.append(eid)
        new_edges.append(
            Edge(eid, vmap[neighbors[i]], vmap[neighbors[j]], vsub(delta[j], delta[i]))
        )
        new_c[eid] = leg_c[i] * leg_c[j] / sigma

    def new_dart(old_dart: int) -> int:
        return 2 * emap[graph.edge_of(old_dart)] + (old_dart & 1)

    rotation: dict[int, list[int]] = {}
    for u, slots in graph.rotation.items():
        if u == v:
            continue
        row: list[int] = []
        for d in slots:
            if graph.edge_of(d) in leg_edges:
                # this is the slot pointing at v along leg i
                i = leg_edges.index(graph.edge_of(d))
                fwd = 2 * tri_ids[(i + 2) % 3]        # n_i -> n_{i+1}
                rev = 2 * tri_ids[(i + 1) % 3] + 1    # n_i -> n_{i-1}
                row.extend((fwd, rev))
            else:
                row.append(new_dart(d))
        rotation[vmap[u]] = tuple(row)
    g2 = TorusGraph(graph.n_vertices - 1, new_edges, rotation)
    return g2, new_c, MoveInfo(vmap, emap, tuple(tri_ids), denominator=sigma)


def delta_to_y(graph: TorusGraph, conductances: Mapping[int, Fraction], face: int):
    """Insert a star vertex into a triangular face; returns (graph, c, info)."""
    if not 0 <= face < graph.n_faces:
        raise InputError(f"face {face} is out of range 0..{graph.n_faces - 1}")
    orbit = graph.faces[face]
    if len(orbit) != 3:
        raise NetworkSpectraError(f"face {face} has {len(orbit)} sides")
    tri_edges = [graph.edge_of(d) for d in orbit]
    if len(set(tri_edges)) != 3:
        raise NetworkSpectraError(f"face {face} repeats an edge")
    corners = [graph.tail_of(d) for d in orbit]
    A = [Fraction(conductances[e]) for e in tri_edges]
    S = A[0] * A[1] + A[1] * A[2] + A[2] * A[0]
    if S == 0 or any(a == 0 for a in A):
        raise SingularDenominator("AB + BC + CA = 0; the move is undefined here")
    # leg at corner i is opposite the triangle edge not touching it: edge of orbit[i+1]
    leg_c = [S / A[(i + 1) % 3] for i in range(3)]
    eta = [(0, 0), (0, 0), (0, 0)]
    eta[1] = vneg(graph.disp(orbit[0]))
    eta[2] = vsub(eta[1], graph.disp(orbit[1]))

    star = graph.n_vertices
    keep = [e for e in graph.edges if e.id not in tri_edges]
    emap = {e.id: k for k, e in enumerate(keep)}
    new_edges = [Edge(emap[e.id], e.tail, e.head, e.disp) for e in keep]
    new_c: dict[int, Fraction] = {emap[e.id]: Fraction(conductances[e.id]) for e in keep}
    leg_ids = []
    for i in range(3):
        eid = len(new_edges)
        leg_ids.append(eid)
        new_edges.append(Edge(eid, corners[i], star, eta[i]))
        new_c[eid] = leg_c[i]

    def new_dart(old_dart: int) -> int:
        return 2 * emap[graph.edge_of(old_dart)] + (old_dart & 1)

    rotation: dict[int, list[int]] = {}
    replaced = {
        # at corner i, the ccw-consecutive pair (orbit[i], alpha(orbit[i-1]))
        # collapses to the leg dart corner -> star
        (corners[i], orbit[i]): 2 * leg_ids[i]
        for i in range(3)
    }
    skip = {graph.alpha(orbit[(i - 1) % 3]) for i in range(3)}
    for u, slots in graph.rotation.items():
        row: list[int] = []
        for d in slots:
            if (u, d) in replaced:
                row.append(replaced[(u, d)])
            elif d in skip:
                continue
            else:
                row.append(new_dart(d))
        rotation[u] = tuple(row)
    rotation[star] = tuple(2 * leg_ids[i] + 1 for i in range(3))
    g2 = TorusGraph(graph.n_vertices + 1, new_edges, rotation)
    vmap = {u: u for u in range(graph.n_vertices)}
    return g2, new_c, MoveInfo(vmap, emap, tuple(leg_ids), new_vertex=star, denominator=S)


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
    if op == "y2d":
        g2, c2, info = y_to_delta(graph, conductances, target)
        factor = info.denominator
        p2 = charpoly(build_laplacian(g2, c2))
        exact = p1 == LaurentPoly2.constant(factor) * p2
    elif op == "d2y":
        g2, c2, info = delta_to_y(graph, conductances, target)
        factor = sum(c2[e] for e in info.new_edges)
        p2 = charpoly(build_laplacian(g2, c2))
        exact = p2 == LaurentPoly2.constant(factor) * p1
    else:
        raise ValueError(f"unknown move {op!r}")
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
                    moves.append(Move("y2d", int(m["vertex"])))
                elif m["op"] == "d2y":
                    moves.append(Move("d2y", int(m["face"])))
                else:
                    raise InputError(f"unknown move op {m['op']!r}")
            return cls(
                moves,
                {int(k): int(v) for k, v in data["iso"]["vertices"].items()},
                {int(k): int(v) for k, v in data["iso"]["edges"].items()},
                int(data.get("steps", cls.steps)),
            )
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise InputError(f"malformed move program: {type(exc).__name__}: {exc}") from None

    @classmethod
    def load(cls, path) -> "MoveProgram":
        return cls.from_json(read_json(path))


def apply_move(graph: TorusGraph, conductances, move: Move):
    if move.op == "y2d":
        return y_to_delta(graph, conductances, move.target)
    if move.op == "d2y":
        return delta_to_y(graph, conductances, move.target)
    raise ValueError(f"unknown move op {move.op!r}")


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
    Newton polygon.  P = D / s with integer D (``integer_det``), and the row
    scale s cancels from every ratio D_ij / D_anchor, so P is never formed.
    """
    d, _ = integer_det(build_laplacian(graph, conductances).entries)
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
    """Iterate the program, recording conductances and the conserved vector."""
    if steps < 0:
        raise InputError(f"the step count {steps} is negative")
    c = {k: Fraction(v) for k, v in conductances.items()}
    g = graph
    for move in program.moves:
        g, c, _ = apply_move(g, c, move)
    if not is_isomorphism(g, graph, program.iso_vertices, program.iso_edges):
        raise NetworkSpectraError("the program's relabeling is not an isomorphism onto the initial graph")
    # strand classes depend on the graph alone, and every step moves the start graph the same way
    classes_ok = _strand_classes(g) == _strand_classes(graph)

    c = {k: Fraction(v) for k, v in conductances.items()}
    vec0, anchor = conserved_vector(graph, c)
    steps_out = [TrajectoryStep(0, dict(c), vec0)]
    constant = True
    for n in range(1, steps + 1):
        g = graph
        for move in program.moves:
            try:
                g, c, _ = apply_move(g, c, move)
            except SingularDenominator as exc:
                raise SingularDenominator(f"step {n}: {exc}") from exc
        c = {e: c[fe] for fe, e in program.iso_edges.items()}
        vec, _ = conserved_vector(graph, c)
        constant &= vec == vec0
        steps_out.append(TrajectoryStep(n, dict(c), vec))
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
    c = {e.id: Fraction(1) for e in graph.edges}
    keys = [_face_key(graph, f) for f in cover]
    edge_track = {e.id: e.id for e in graph.edges}       # original -> current
    vertex_track = {v: v for v in range(graph.n_vertices)}
    for key in keys:
        current = frozenset(edge_track[e] for e in key if e in edge_track)
        face = _find_face(g, current)
        moves.append(Move("d2y", face))
        g, c, info = apply_move(g, c, moves[-1])
        edge_track = {
            o: info.edge_map[cur] for o, cur in edge_track.items() if cur in info.edge_map
        }
        vertex_track = {o: info.vertex_map[v] for o, v in vertex_track.items()}
    for v0 in sorted(vertex_track):
        moves.append(Move("y2d", vertex_track[v0]))
        g, c, info = apply_move(g, c, moves[-1])
        edge_track = {
            o: info.edge_map[cur] for o, cur in edge_track.items() if cur in info.edge_map
        }
        vertex_track = {
            o: info.vertex_map[v]
            for o, v in vertex_track.items()
            if v in info.vertex_map
        }
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
    base: tuple[str, int] | int = ("vertex", 0),
    window: tuple[tuple[int, int], tuple[int, int]] = ((-1, 1), (-1, 1)),
) -> AbelChart:
    """Breadth-first strand-coordinate transport over a universal-cover window.

    Moves along edges (vertex to vertex) and across corners (vertex to face),
    counting signed strand crossings: a strand crossing the transported path
    from its right to its left counts +1.  Every adjacency inside the window
    is re-checked after the sweep; a mismatch raises NetworkSpectraError.
    """
    if isinstance(base, int):
        base = ("vertex", base)
    count = {"vertex": graph.n_vertices, "face": graph.n_faces}.get(base[0], 0)
    if not 0 <= base[1] < count:
        raise InputError(f"{base[0]} {base[1]} is out of range 0..{count - 1}")
    sys = StrandSystem(graph)
    n_str = len(sys.strands)
    (tx0, tx1), (ty0, ty1) = window

    def in_window(t: Vec) -> bool:
        return tx0 <= t[0] <= tx1 and ty0 <= t[1] <= ty1

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
    # final sweep: every adjacency must agree (certifies path independence)
    for (kind, obj, t), val in list(entries.items()):
        for (k2, o2, t2), inc in neighbors(kind, obj, t):
            key = (k2, o2, t2)
            if key in entries:
                want = tuple(v + inc.get(s, 0) for s, v in enumerate(val))
                if entries[key] != want:
                    raise NetworkSpectraError(f"closed-loop defect at {key}")
    return AbelChart(
        graph,
        base,
        window,
        tuple(s.homology for s in sys.strands),
        entries,
    )
