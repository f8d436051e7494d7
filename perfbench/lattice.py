"""Square and triangular m x n fundamental domains on the torus.

Vertex (i, j) of the m x n domain has id ``i + m*j``.  Every vertex owns its
east (E) and north (N) edges, and on the triangular lattice also its
north-west (NW) edge, so edge ids are dense: vertex v owns edges
``k*v .. k*v + k-1`` with k = 2 (sq) or 3 (tri).  An edge that leaves the
domain carries the unit displacement of the wrap.  Rotations list outgoing
darts counterclockwise: E, N, (NW), W, S, (SE).
"""

from __future__ import annotations

from network_spectra.graph_core import Edge, TorusGraph

KINDS = ("sq", "tri")


def lattice(kind: str, m: int, n: int) -> TorusGraph:
    """The validated ``kind`` lattice on an m x n domain (m, n >= 2)."""
    if kind not in KINDS:
        raise ValueError(f"unknown lattice kind {kind!r}; have {KINDS}")
    if m < 2 or n < 2:
        raise ValueError("m and n must be at least 2")
    k = 2 if kind == "sq" else 3

    def vid(i: int, j: int) -> int:
        return i % m + m * (j % n)

    edges = []
    for j in range(n):
        for i in range(m):
            v = vid(i, j)
            edges.append(Edge(k * v, v, vid(i + 1, j), ((i + 1) // m, 0)))
            edges.append(Edge(k * v + 1, v, vid(i, j + 1), (0, (j + 1) // n)))
            if k == 3:
                edges.append(Edge(k * v + 2, v, vid(i - 1, j + 1), ((i - 1) // m, (j + 1) // n)))
    rotation = {}
    for j in range(n):
        for i in range(m):
            v = vid(i, j)
            east, north = 2 * (k * v), 2 * (k * v + 1)
            west = 2 * (k * vid(i - 1, j)) + 1
            south = 2 * (k * vid(i, j - 1) + 1) + 1
            if k == 2:
                rotation[v] = (east, north, west, south)
            else:
                northwest = 2 * (k * v + 2)
                southeast = 2 * (k * vid(i + 1, j - 1) + 2) + 1
                rotation[v] = (east, north, northwest, west, south, southeast)
    positions = {vid(i, j): ((i + 0.5) / m, (j + 0.5) / n) for j in range(n) for i in range(m)}
    return TorusGraph(m * n, sorted(edges, key=lambda e: e.id), rotation, positions=positions)
