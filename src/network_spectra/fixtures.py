"""Bundled example networks.

The JSON files under ``network_spectra/fixtures`` are the only definition of
these networks; the CLI, the benchmark and ``build`` all read them.  ``build``
returns the graph with unit conductances, while CLI ``tri2`` runs the generic
conductances stored in ``tri2.json`` (``tri2_generic`` here).

  sq1   square lattice, 1x1 fundamental domain (1 vertex, 2 loops)
  tri1  triangular lattice, 1x1 (1 vertex, 3 loops)
  hex1  honeycomb lattice, 1x1 (2 vertices, 3 parallel edges)
  sq2   square lattice, 2x1 (2 vertices)
  tri2  triangular lattice, 2x1 (2 vertices)
"""

from __future__ import annotations

import importlib.resources

from .graph_core import TorusGraph, unit_conductances

FIXTURE_NAMES = ("sq1", "tri1", "hex1", "sq2", "tri2")


def build(name: str) -> tuple[TorusGraph, dict]:
    """The bundled network ``name`` with unit conductances."""
    if name not in FIXTURE_NAMES:
        raise KeyError(f"unknown fixture {name!r}; have {sorted(FIXTURE_NAMES)}")
    graph, _ = TorusGraph.load(fixture_path(name))
    return graph, unit_conductances(graph)


def tri2_generic() -> tuple[TorusGraph, dict]:
    """tri2 with the fixed generic positive conductances of ``tri2.json``.

    Unit conductances sit at the degenerate (isoradial-like) point where the
    compact ovals contract; this draw keeps them open, which the divisor
    machinery needs.
    """
    return TorusGraph.load(fixture_path("tri2"))


def fixture_path(name: str):
    """Path to a bundled JSON file (graph fixtures and move programs)."""
    res = importlib.resources.files("network_spectra") / "fixtures" / f"{name}.json"
    if not res.is_file():
        raise FileNotFoundError(f"no bundled fixture {name!r}")
    return res
