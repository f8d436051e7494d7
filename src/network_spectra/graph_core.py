"""Combinatorial maps on the torus with homology-displacement data.

A graph is stored as a list of edges plus a rotation system.  Edge ``e``
contributes two darts: ``2*e`` (tail -> head, carrying the edge displacement)
and ``2*e + 1`` (the reversal, carrying the negated displacement).  Rotations
list outgoing darts counterclockwise around each vertex; loops appear twice.

Faces are orbits of ``d -> rot_prev(reversal(d))``, which traverses each face
counterclockwise with the interior on the left.  A valid torus graph has
V - E + F = 0 and displacement sum (0, 0) around every face; these two checks
are the computable proxy for "every face is an embedded disk".
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from operator import index
from typing import Mapping, Sequence

from .errors import GraphValidationError, InputError

Vec = tuple[int, int]


def read_json(path):
    """Load a JSON file; a file that does not parse is an InputError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise InputError(f"{path}: not valid JSON: {exc}") from None


def vadd(a: Vec, b: Vec) -> Vec:
    return (a[0] + b[0], a[1] + b[1])


def vsub(a: Vec, b: Vec) -> Vec:
    return (a[0] - b[0], a[1] - b[1])


def vneg(a: Vec) -> Vec:
    return (-a[0], -a[1])


@dataclass(frozen=True)
class Edge:
    id: int
    tail: int
    head: int
    disp: Vec


@dataclass
class ValidationReport:
    n_vertices: int
    n_edges: int
    n_faces: int
    euler_ok: bool
    face_sums_ok: bool
    rotation_ok: bool
    connected: bool
    problems: list[str]

    @property
    def ok(self) -> bool:
        return not self.problems

    def raise_if_failed(self) -> None:
        if self.problems:
            raise GraphValidationError(self.problems[0])

    def to_json(self) -> dict:
        return {
            "vertices": self.n_vertices,
            "edges": self.n_edges,
            "faces": self.n_faces,
            "euler_ok": self.euler_ok,
            "face_sums_ok": self.face_sums_ok,
            "rotation_ok": self.rotation_ok,
            "connected": self.connected,
            "problems": list(self.problems),
            "ok": self.ok,
        }


class TorusGraph:
    """An embedded graph on the torus; immutable after construction."""

    def __init__(
        self,
        n_vertices: int,
        edges: Sequence[Edge],
        rotation: Mapping[int, Sequence[int]],
        positions: Mapping[int, tuple[float, float]] | None = None,
        check: bool = True,
    ):
        self.n_vertices = int(n_vertices)
        self.edges: tuple[Edge, ...] = tuple(edges)
        self.rotation: dict[int, tuple[int, ...]] = {
            int(v): tuple(int(d) for d in ds) for v, ds in rotation.items()
        }
        self.positions = dict(positions) if positions else {}
        for k, e in enumerate(self.edges):
            if e.id != k:
                raise GraphValidationError(f"edge ids must be dense; got {e.id} at slot {k}")
        self._rot_pos: dict[int, tuple[int, int]] = {}
        for v, ds in self.rotation.items():
            for k, d in enumerate(ds):
                self._rot_pos[d] = (v, k)
        if check:
            self.validate().raise_if_failed()

    # -- darts ---------------------------------------------------------------

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_darts(self) -> int:
        return 2 * len(self.edges)

    @staticmethod
    def alpha(d: int) -> int:
        """Reversal involution on darts."""
        return d ^ 1

    @staticmethod
    def edge_of(d: int) -> int:
        return d >> 1

    @staticmethod
    def is_forward(d: int) -> bool:
        return not d & 1

    def tail_of(self, d: int) -> int:
        e = self.edges[d >> 1]
        return e.tail if not d & 1 else e.head

    def head_of(self, d: int) -> int:
        e = self.edges[d >> 1]
        return e.head if not d & 1 else e.tail

    def disp(self, d: int) -> Vec:
        e = self.edges[d >> 1]
        return e.disp if not d & 1 else vneg(e.disp)

    def rot_next(self, d: int) -> int:
        v, k = self._rot_pos[d]
        ds = self.rotation[v]
        return ds[(k + 1) % len(ds)]

    def rot_prev(self, d: int) -> int:
        v, k = self._rot_pos[d]
        ds = self.rotation[v]
        return ds[(k - 1) % len(ds)]

    def next_in_face(self, d: int) -> int:
        """Next dart along the face on the left of ``d`` (ccw traversal)."""
        return self.rot_prev(self.alpha(d))

    def degree(self, v: int) -> int:
        return len(self.rotation.get(v, ()))

    # -- faces -----------------------------------------------------------------

    @cached_property
    def faces(self) -> tuple[tuple[int, ...], ...]:
        """Face orbits; each orbit lists its darts in ccw traversal order."""
        seen = set()
        out = []
        for d0 in range(self.n_darts):
            if d0 in seen:
                continue
            orbit = []
            d = d0
            while d not in seen:
                seen.add(d)
                orbit.append(d)
                d = self.next_in_face(d)
            out.append(tuple(orbit))
        return tuple(out)

    @property
    def n_faces(self) -> int:
        return len(self.faces)

    @cached_property
    def _face_of(self) -> dict[int, int]:
        return {d: f for f, orbit in enumerate(self.faces) for d in orbit}

    def left_face(self, d: int) -> int:
        """Face on the left of dart ``d``."""
        return self._face_of[d]

    def right_face(self, d: int) -> int:
        return self._face_of[self.alpha(d)]

    @cached_property
    def _face_partial_sum(self) -> dict[int, Vec]:
        """For each dart, the displacement sum along its face orbit up to it."""
        out: dict[int, Vec] = {}
        for orbit in self.faces:
            s = (0, 0)
            for d in orbit:
                out[d] = s
                s = vadd(s, self.disp(d))
        return out

    def face_offset(self, d: int) -> Vec:
        """Translate of the left-face lift adjacent to the canonical lift of d."""
        s = self._face_partial_sum[d]
        return vneg(s)

    def face_displacement_sum(self, f: int) -> Vec:
        s = (0, 0)
        for d in self.faces[f]:
            s = vadd(s, self.disp(d))
        return s

    # -- validation --------------------------------------------------------------

    def validate(self) -> ValidationReport:
        problems: list[str] = []
        # rotation structure: one orbit per vertex covering out-darts exactly once
        rotation_ok = True
        seen: dict[int, int] = {}
        for v, ds in self.rotation.items():
            for d in ds:
                if d in seen:
                    rotation_ok = False
                    problems.append(f"rotation: dart {d} listed twice (vertex {v})")
                seen[d] = v
                if d >= self.n_darts or self.tail_of(d) != v:
                    rotation_ok = False
                    problems.append(f"rotation: dart {d} at vertex {v} does not start there")
        for d in range(self.n_darts):
            if d not in seen:
                rotation_ok = False
                problems.append(f"rotation: dart {d} missing (vertex {self.tail_of(d)})")
        for v in range(self.n_vertices):
            if v not in self.rotation and any(
                e.tail == v or e.head == v for e in self.edges
            ):
                rotation_ok = False
                problems.append(f"rotation: vertex {v} has incident darts but no rotation")
        if not rotation_ok:
            return ValidationReport(
                self.n_vertices, self.n_edges, -1, False, False, False, False, problems
            )
        euler = self.n_vertices - self.n_edges + self.n_faces
        euler_ok = euler == 0
        if not euler_ok:
            problems.append(
                f"euler: V - E + F = {self.n_vertices} - {self.n_edges} + {self.n_faces} = {euler} != 0"
            )
        face_sums_ok = True
        for f in range(self.n_faces):
            s = self.face_displacement_sum(f)
            if s != (0, 0):
                face_sums_ok = False
                problems.append(f"face {f}: displacement sum {s} != (0, 0)")
        connected = self._is_connected()
        if not connected:
            problems.append("graph is not connected")
        return ValidationReport(
            self.n_vertices,
            self.n_edges,
            self.n_faces,
            euler_ok,
            face_sums_ok,
            rotation_ok,
            connected,
            problems,
        )

    def _is_connected(self) -> bool:
        if self.n_vertices == 0:
            return False
        seen = {0}
        stack = [0]
        while stack:
            v = stack.pop()
            for d in self.rotation.get(v, ()):
                u = self.head_of(d)
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == self.n_vertices

    # -- dual and superposition ----------------------------------------------

    def _half_disp(self, d: int) -> Vec:
        """Displacement of the half-edge from tail(d) to the edge's white vertex.

        The white vertex of edge e sits at the head end of the forward dart, so
        the tail-side half carries the full edge displacement and the head-side
        half carries zero.
        """
        return self.edges[d >> 1].disp if self.is_forward(d) else (0, 0)

    def _dual_half_disp(self, d: int) -> Vec:
        """Displacement of the half-edge from the face left of d to its white.

        The face's canonical lift touches the lift of d translated by the
        partial displacement sum along the face orbit, and the white sits at
        the head end of the forward dart of the edge.
        """
        return vadd(self._face_partial_sum[d], self._half_disp(d))

    def dual_dart_disp(self, d: int) -> Vec:
        """Displacement of the dual dart crossing d from left face to right face."""
        return vsub(self._dual_half_disp(d), self._dual_half_disp(self.alpha(d)))

    def dual(self) -> "TorusGraph":
        """The dual torus graph.

        Dual vertices are faces; the dual edge of ``e`` runs from the face left
        of the forward dart to the face on its right, and the dual dart labeled
        ``d`` crosses ``d`` from left to right.  Rotations are the face orbits.
        """
        edges = []
        for e in self.edges:
            d = 2 * e.id
            edges.append(
                Edge(e.id, self.left_face(d), self.right_face(d), self.dual_dart_disp(d))
            )
        rotation = {f: tuple(orbit) for f, orbit in enumerate(self.faces)}
        return TorusGraph(self.n_faces, edges, rotation)

    def superpose(self) -> "SuperposedGraph":
        """Bipartite superposition of the graph and its dual.

        Black vertices are the vertices and faces; white vertices are the
        edges.  Each primal edge contributes four half-edges (tail, head,
        left-face, right-face side).
        """
        n_v, n_f = self.n_vertices, self.n_faces
        black_face = [n_v + f for f in range(n_f)]
        white = [n_v + n_f + e.id for e in self.edges]
        edges: list[Edge] = []
        for e in self.edges:
            d = 2 * e.id
            w = white[e.id]
            base = 4 * e.id
            edges.append(Edge(base + 0, e.tail, w, self._half_disp(d)))
            edges.append(Edge(base + 1, e.head, w, self._half_disp(self.alpha(d))))
            edges.append(Edge(base + 2, black_face[self.left_face(d)], w, self._dual_half_disp(d)))
            edges.append(Edge(base + 3, black_face[self.right_face(d)], w, self._dual_half_disp(self.alpha(d))))
        rotation: dict[int, tuple[int, ...]] = {}
        for v in range(n_v):
            rotation[v] = tuple(
                2 * (4 * (d >> 1) + (0 if self.is_forward(d) else 1))
                for d in self.rotation.get(v, ())
            )
        for f, orbit in enumerate(self.faces):
            rotation[black_face[f]] = tuple(
                2 * (4 * (d >> 1) + (2 if self.is_forward(d) else 3)) for d in orbit
            )
        for e in self.edges:
            base = 4 * e.id
            # ccw around the white: tail side, right face, head side, left face
            rotation[white[e.id]] = (
                2 * (base + 0) + 1,
                2 * (base + 3) + 1,
                2 * (base + 1) + 1,
                2 * (base + 2) + 1,
            )
        graph = TorusGraph(n_v + n_f + self.n_edges, edges, rotation)
        return SuperposedGraph(self, graph)

    # -- JSON -----------------------------------------------------------------

    @classmethod
    def from_json_dict(cls, data: dict):
        """Parse the interchange format; returns (graph, conductances or None).  Ids,
        tails, heads, darts and the two disp components must be JSON integers."""
        try:
            vertices = data["vertices"]
            n = len(vertices)
            ids = sorted(index(v["id"]) for v in vertices)
            if ids != list(range(n)):
                raise GraphValidationError("vertex ids must be 0..n-1")
            positions = {
                v["id"]: tuple(v["pos"]) for v in vertices if "pos" in v and v["pos"] is not None
            }
            edges = []
            conductances: dict[int, Fraction] = {}
            has_c = False
            for e in sorted(data["edges"], key=lambda e: e["id"]):
                disp = tuple(map(index, e["disp"]))
                if len(disp) != 2:
                    raise ValueError(f"edge {e['id']} has disp {e['disp']}; it needs two components")
                edges.append(Edge(index(e["id"]), index(e["tail"]), index(e["head"]), disp))
                if "conductance" in e:
                    has_c = True
                    conductances[e["id"]] = Fraction(str(e["conductance"]))
            rotation = {int(v): tuple(map(index, ds)) for v, ds in data["rotation"].items()}
        except (KeyError, TypeError, ValueError, AttributeError, ZeroDivisionError) as exc:
            raise InputError(f"malformed network: {type(exc).__name__}: {exc}") from None
        graph = cls(n, edges, rotation, positions=positions)
        return graph, (conductances if has_c else None)

    def to_json_dict(self, conductances: Mapping[int, object] | None = None) -> dict:
        verts = []
        for v in range(self.n_vertices):
            entry: dict = {"id": v}
            if v in self.positions:
                entry["pos"] = list(self.positions[v])
            verts.append(entry)
        edges = []
        for e in self.edges:
            entry = {"id": e.id, "tail": e.tail, "head": e.head, "disp": list(e.disp)}
            if conductances is not None:
                entry["conductance"] = str(conductances[e.id])
            edges.append(entry)
        return {
            "vertices": verts,
            "edges": edges,
            "rotation": {str(v): list(ds) for v, ds in sorted(self.rotation.items())},
        }

    @classmethod
    def load(cls, path):
        return cls.from_json_dict(read_json(path))

    def save(self, path, conductances=None) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(conductances), fh, indent=2, sort_keys=True)
            fh.write("\n")


class SuperposedGraph:
    """The bipartite superposition graph together with its labeling maps."""

    def __init__(self, base: TorusGraph, graph: TorusGraph):
        self.base = base
        self.graph = graph
        self.n_black = base.n_vertices + base.n_faces
        self.n_white = base.n_edges

    def half_edge(self, e: int, side: str) -> int:
        """Superposition edge id for a side in {tail, head, left, right}."""
        k = {"tail": 0, "head": 1, "left": 2, "right": 3}[side]
        return 4 * e + k

    def edge_weight(self, gamma_edge: int, conductances: Mapping[int, object]):
        """Dimer weight: conductance on vertex-side halves, 1 on face sides."""
        e, k = divmod(gamma_edge, 4)
        return conductances[e] if k < 2 else Fraction(1)

    def color_classes(self) -> tuple[list[int], list[int]]:
        blacks = list(range(self.n_black))
        whites = [self.n_black + k for k in range(self.n_white)]
        return blacks, whites


# -- conductances ----------------------------------------------------------------


def unit_conductances(graph: TorusGraph) -> dict[int, Fraction]:
    return {e.id: Fraction(1) for e in graph.edges}


def random_rational_conductances(graph: TorusGraph, rng, positive: bool = True) -> dict[int, Fraction]:
    """Small random nonzero rationals, positive unless told otherwise."""
    out = {}
    for e in graph.edges:
        q = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        if not positive and rng.random() < 0.5:
            q = -q
        out[e.id] = q
    return out


# -- isomorphism ------------------------------------------------------------------


def find_isomorphism(g1: TorusGraph, g2: TorusGraph, orientation_reversing: bool = False):
    """Brute-force isomorphism of torus graphs.

    Searches for a dart bijection respecting reversal and rotation (cyclic,
    reversed cyclic if ``orientation_reversing``) whose displacement defect is
    a coboundary, i.e. disp2(phi(d)) = disp1(d) + shift(head) - shift(tail)
    for some shift: V1 -> Z^2 (the deck-translation freedom).

    Returns ``(vertex_map, dart_map, shift)`` or ``None``.
    """
    if (
        g1.n_vertices != g2.n_vertices
        or g1.n_edges != g2.n_edges
        or sorted(map(len, g1.rotation.values())) != sorted(map(len, g2.rotation.values()))
    ):
        return None
    if g1.n_vertices == 0:
        return {}, {}, {}
    v0 = 0
    deg0 = g1.degree(v0)
    for w0 in range(g2.n_vertices):
        if g2.degree(w0) != deg0:
            continue
        for k in range(deg0):
            res = _try_extend(g1, g2, v0, w0, k, orientation_reversing)
            if res is not None:
                return res
    return None


def _try_extend(g1, g2, v0, w0, align, reverse):
    rot2 = {
        v: (ds if not reverse else tuple(reversed(ds))) for v, ds in g2.rotation.items()
    }
    dart_map: dict[int, int] = {}
    vmap: dict[int, int] = {v0: w0}
    shift: dict[int, Vec] = {v0: (0, 0)}

    def assign_vertex(v, w, rot_align) -> bool:
        ds1 = g1.rotation.get(v, ())
        ds2 = rot2.get(w, ())
        if len(ds1) != len(ds2):
            return False
        for k, d in enumerate(ds1):
            img = ds2[(k + rot_align) % len(ds2)]
            for a, b in ((d, img), (g1.alpha(d), g2.alpha(img))):
                if a in dart_map:
                    if dart_map[a] != b:
                        return False
                else:
                    dart_map[a] = b
        return True

    if not assign_vertex(v0, w0, align):
        return None
    queue = [v0]
    while queue:
        v = queue.pop()
        for d in g1.rotation.get(v, ()):
            u, x = g1.head_of(d), g2.head_of(dart_map[d])
            req_shift = vadd(shift[v], vsub(g2.disp(dart_map[d]), g1.disp(d)))
            if u in vmap:
                if vmap[u] != x or shift[u] != req_shift:
                    return None
            else:
                vmap[u] = x
                shift[u] = req_shift
                # align rotations via this dart: alpha(d) at u maps to alpha(img) at x
                ds1 = g1.rotation[u]
                ds2 = rot2[x]
                try:
                    k1 = ds1.index(g1.alpha(d))
                    k2 = ds2.index(g2.alpha(dart_map[d]))
                except ValueError:
                    return None
                if not assign_vertex(u, x, k2 - k1):
                    return None
                queue.append(u)
    if len(vmap) != g1.n_vertices or len(set(vmap.values())) != g1.n_vertices:
        return None
    # final displacement check over every dart
    for d, img in dart_map.items():
        want = vadd(g1.disp(d), vsub(shift[g1.head_of(d)], shift[g1.tail_of(d)]))
        if g2.disp(img) != want:
            return None
    return vmap, dart_map, shift


def is_isomorphism(
    g1: TorusGraph, g2: TorusGraph, vertex_map: Mapping[int, int], edge_map: Mapping[int, int]
) -> bool:
    """Whether the maps of g1's vertices and edges onto g2's are an isomorphism:
    rotations in the same cyclic order, displacements up to a deck coboundary.

    An isomorphism is fixed by the image of one dart, so it is enough to extend
    each rotation alignment at vertex 0 and compare the extension with the maps.
    """
    for k in range(g1.degree(0)):
        res = _try_extend(g1, g2, 0, vertex_map.get(0), k, False)
        if res is None:
            continue
        vmap, dart_map, _ = res
        emap = {g1.edge_of(d): g2.edge_of(img) for d, img in dart_map.items()}
        if vmap == vertex_map and emap == edge_map:
            return True
    return False
