"""The three workloads: seeded inputs, written as JSON, and fixed job lists.

A job is one ``network_spectra.cli.main(argv)`` call plus the check of its
report.  Inputs come only from the benchmark seed: ``exact`` lattices draw
signed conductances from a fresh ``random.Random(seed)``, ``spectral``
lattices scale the default seed's draw by factors from it, and ``evolve``
passes the seed to the CLI's ``--random-conductances``.

Why each workload exists:

- ``exact``: the 2^V determinant does most of the work (tri4x3 and sq4x3
  ``charpoly`` alone are about half a pass) and the float layer does none, so
  this is where a faster exact determinant must win.
- ``spectral``: ``fiber_roots``, ``null_vectors`` and ``real_ovals`` do the
  work and ``charpoly`` is under 1% because V <= 4; a faster float path must
  win here, and a faster determinant should move nothing.
- ``evolve``: the same determinant as ``exact`` in the opposite regime: tiny
  matrices whose coefficients grow to thousands of digits.  A modular or
  interpolating determinant that wins on ``exact`` can lose here.
"""

from __future__ import annotations

import functools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

from network_spectra import fixtures
from network_spectra.graph_core import TorusGraph, random_rational_conductances
from network_spectra.ydelta import MoveProgram, cube_recurrence_program, run_program

import checks
from lattice import lattice

# V = 4...12.  sq4x4 (V = 16) is left out: its one charpoly job takes 4-7 s and
# holds a 2^16-entry table, and on a shared host its time swung 1.5x between
# back-to-back repeats, more than any bound could absorb.
EXACT_RUNGS = [("sq", 2, 2), ("tri", 2, 2), ("sq", 3, 2), ("tri", 3, 2), ("sq", 3, 3),
               ("tri", 3, 3), ("sq", 4, 3), ("tri", 4, 3)]
# the forest, dimer and move checks enumerate 2^E subsets; keep E small
ENUMERATION_MAX_EDGES = 12
OCRSF_DRAWS = 2
# sq3x2 is left out: its divisor raises CorankTwo on every seed, so it timed a
# failure, and its amoeba job alone took a third of a pass.
SPECTRAL_RUNGS = [("sq", 2, 2), ("tri", 2, 2)]
# Whether real_ovals must widen its sweep, or a CorankTwo cuts the divisor
# short, depends on the oval geometry, and it moved one job's time 2-3x
# between independent draws.  So the spectral rungs take the default seed's
# draw and scale each conductance by (1000 + k) / 1000, k uniform in
# [-SPECTRAL_SCALE, SPECTRAL_SCALE] from Random(seed): every seed gets other
# inputs, and the geometry, and with it a pass's work, stays close.
SPECTRAL_SCALE = 20
# Sweep sizes below the CLI defaults (360 and 60), so a spectral run holds a
# dozen passes.  ``amoeba`` also runs the divisor at its default sweep, so most
# of its time stays, and it runs only on tri2: on sq2x2 and tri2x2 it took
# 1.5 and 3 s, and with fewer passes a run's median pass time spread more.
# Over seeds 1-10 the verdicts match those at the defaults.
DIVISOR_GRID = 180
AMOEBA_GRID = 30
AMOEBA_INPUTS = ("tri2",)
# (graph, steps at the default seed): tri2 runs the bundled cube-recurrence
# program, the generated graphs run programs that ydelta.cube_recurrence_program
# builds at set-up.  At 40 steps tri2's conductances reach about 3400 digits,
# below Python's 4300-digit int -> str limit, so every report is written and
# checked; at 45 the report could not be written on most seeds.
EVOLVE_GRAPHS = [("tri2", 40), (("tri", 2, 2), 14), (("tri", 3, 2), 10)]
DEFAULT_SEED = 1
# Conductance bits grow as about K * n^2 over n steps, and K depends on the
# draw (2x between seeds, so one draw's time varied 3.5x).  A run of n steps
# costs about K^2 n^5, so each seed runs steps * (K_default / K_seed) ** 0.4
# steps, with K measured by a probe over the first half of the default steps;
# this keeps the work near the default's.  (A 4-step probe misjudged K by up
# to 15%: bits / n^2 still rises with n that early.)
EVOLVE_PROBE_SHARE = 0.5


@dataclass
class Input:
    key: str          # report stem, e.g. "sq4x3" or "tri2"
    arg: str          # what the CLI is given: a path or a bundled fixture name
    net: checks.Network
    graph: TorusGraph


@dataclass
class Job:
    name: str                                   # "<subcommand>:<input>"
    argv: list[str]                             # CLI arguments before --out
    report: str                                 # JSON report the CLI writes
    check: Callable[..., list[str]]
    input: Input
    files: list[str] = field(default_factory=list)   # other outputs (CSV/SVG)


def _generated(kind: str, m: int, n: int, conductances: Callable, workdir: Path) -> Input:
    """The lattice with ``conductances(graph)``, written as JSON."""
    graph = lattice(kind, m, n)
    c = conductances(graph)
    key = f"{kind}{m}x{n}"
    path = workdir / f"{key}.json"
    graph.save(path, c)
    return Input(key, str(path), checks.Network(graph.to_json_dict(c)), graph)


def _drawn(seed: int, positive: bool) -> Callable:
    return lambda graph: random_rational_conductances(graph, random.Random(seed), positive=positive)


def _scaled_default_draw(seed: int) -> Callable:
    def conductances(graph):
        rng = random.Random(seed)
        base = random_rational_conductances(graph, random.Random(DEFAULT_SEED), positive=True)
        return {e: c * Fraction(1000 + rng.randint(-SPECTRAL_SCALE, SPECTRAL_SCALE), 1000)
                for e, c in base.items()}
    return conductances


def _fixture(name: str) -> Input:
    path = fixtures.fixture_path(name)
    with open(path) as fh:
        data = json.load(fh)
    return Input(name, name, checks.Network(data), TorusGraph.from_json_dict(data)[0])


def _job(sub: str, inp: Input, check, *extra: str, files: tuple[str, ...] = ()) -> Job:
    return Job(
        f"{sub}:{inp.key}",
        [sub, inp.arg, *extra],
        f"{sub.replace('-', '_')}_{inp.key}.json",
        functools.partial(check, key=inp.key),
        inp,
        list(files),
    )


def _ydelta_job(inp: Input) -> Job | None:
    """A d2y on a triangular face, else a y2d at a loop-free degree-3 vertex."""
    g, cs = inp.graph, inp.net.conductances
    for f, orbit in enumerate(g.faces):
        if len(orbit) == 3 and len({g.edge_of(d) for d in orbit}) == 3:
            a, b, c = (cs[g.edge_of(d)] for d in orbit)
            s = a * b + b * c + c * a
            return _job("ydelta", inp, functools.partial(checks.check_ydelta, factor=s * s / (a * b * c)),
                        "--d2y", str(f))
    for v, darts in sorted(g.rotation.items()):
        if len(darts) == 3 and all(g.head_of(d) != v for d in darts):
            factor = sum(cs[g.edge_of(d)] for d in darts)
            return _job("ydelta", inp, functools.partial(checks.check_ydelta, factor=factor),
                        "--y2d", str(v))
    return None


def _enumeration_jobs(inp: Input, seed: int) -> list[Job]:
    jobs = [
        _job("ocrsf-check", inp, functools.partial(checks.check_ocrsf, draws=OCRSF_DRAWS, seed=seed),
             "--draws", str(OCRSF_DRAWS), "--seed", str(seed)),
        _job("newton", inp, checks.check_newton),
        _job("temperley-check", inp, checks.check_temperley),
        _ydelta_job(inp),
        _job("abel", inp, checks.check_abel),
    ]
    return [j for j in jobs if j is not None]


def exact(seed: int, workdir: Path) -> list[Job]:
    jobs = []
    small = []
    for kind, m, n in EXACT_RUNGS:
        inp = _generated(kind, m, n, _drawn(seed, False), workdir)
        jobs += [_job("validate", inp, checks.check_validate),
                 _job("zigzag", inp, checks.check_zigzag),
                 _job("charpoly", inp, checks.check_charpoly)]
        if len(inp.net.edges) <= ENUMERATION_MAX_EDGES:
            small.append(inp)
    for inp in small + [_fixture(name) for name in fixtures.FIXTURE_NAMES]:
        jobs += _enumeration_jobs(inp, seed)
    return jobs


def spectral(seed: int, workdir: Path) -> list[Job]:
    inputs = [_fixture("tri2")] + [_generated(k, m, n, _scaled_default_draw(seed), workdir)
                                   for k, m, n in SPECTRAL_RUNGS]
    jobs = []
    for inp in inputs:
        jobs.append(_job("divisor", inp, checks.check_divisor, "--grid", str(DIVISOR_GRID)))
        if inp.key in AMOEBA_INPUTS:
            jobs.append(_job("amoeba", inp, checks.check_amoeba, "--grid", str(AMOEBA_GRID),
                             files=(f"amoeba_{inp.key}.csv", f"amoeba_{inp.key}.svg")))
    return jobs


def _growth(graph: TorusGraph, program: MoveProgram, seed: int, steps: int) -> float:
    """K in bits ~ K * n^2 after ``steps`` steps, for the draw that
    ``--random-conductances --seed`` makes."""
    c = random_rational_conductances(graph, random.Random(seed))
    last = run_program(graph, c, program, steps).steps[-1].conductances
    return max(max(abs(q.numerator).bit_length(), q.denominator.bit_length()) for q in last.values()) \
        / steps**2


def evolve(seed: int, workdir: Path) -> list[Job]:
    jobs = []
    for graph_spec, default_steps in EVOLVE_GRAPHS:
        if isinstance(graph_spec, str):
            inp = _fixture(graph_spec)
            prog_path = str(fixtures.fixture_path("tri2_cube_program"))
            program = MoveProgram.load(prog_path)
        else:
            inp = _generated(*graph_spec, _drawn(seed, True), workdir)
            program = cube_recurrence_program(inp.graph)
            prog_path = str(workdir / f"{inp.key}_program.json")
            with open(prog_path, "w") as fh:
                json.dump(program.to_json(), fh, indent=2, sort_keys=True)
        probe = max(1, round(default_steps * EVOLVE_PROBE_SHARE))
        ratio = _growth(inp.graph, program, DEFAULT_SEED, probe) / _growth(inp.graph, program, seed, probe)
        steps = max(1, round(default_steps * ratio**0.4))
        jobs.append(_job("evolve", inp, functools.partial(checks.check_evolve, steps=steps),
                         "--program", prog_path, "--steps", str(steps),
                         "--random-conductances", "--seed", str(seed)))
    return jobs


BUILDERS = {"exact": exact, "spectral": spectral, "evolve": evolve}
