"""Command-line interface.

Every subcommand loads a network from a JSON file (or a bundled fixture name
such as ``sq1``), runs its checks, writes a JSON report into the output
directory, and exits 0 only if all asserted checks passed.  Exit codes:
0 success, 1 failed checks, 2 usage errors, malformed network or
move-program files (invalid JSON, missing keys, zero conductances, unknown
move ops, a step count that is negative or not an integer), a negative draw
count or window, and out-of-range vertex or face ids, 3 I/O errors.

``main`` is re-entrant: a notebook, the test suite or a benchmark may call it
many times in one process.  The parser is built once, on the first call (never
at import, which stays cheap), and reused; ``parse_args`` returns a fresh
namespace each time, so no value or exclusive-group choice carries over.  The
subcommand's function is looked up by name, ``cmd_<command>``, at each call
rather than pinned in the parser, so a ``cmd_*`` attribute that is replaced
after the first call (a monkeypatch, a tracing wrapper) is the one that runs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys
import time
from pathlib import Path

from . import fixtures as fixture_lib
from .errors import InputError, NetworkSpectraError
from .graph_core import TorusGraph, random_rational_conductances, unit_conductances
from .laplacian import build_laplacian, charpoly, charpoly_minors, node_check
from .laurent import NewtonPolygon
from .forests import (
    boundary_point_counts,
    dual_pair_hull,
    enumerate_dual_pairs,
    enumerate_ocrsfs,
    pfnlap_sum,
)
from .temperley import (
    dimer_class,
    enumerate_dimers,
    reference_pair,
    temperley_map,
)
from .ydelta import MoveProgram, discrete_abel, invariance_check, run_program
from .zigzag import infinity_splits, minimality_check, points_at_infinity, trace_strands, zigzag_polygon


def _load_network(path_or_name: str):
    p = Path(path_or_name)
    if not p.exists():
        try:
            p = Path(str(fixture_lib.fixture_path(path_or_name)))
        except FileNotFoundError:
            raise FileNotFoundError(
                f"no such file or bundled fixture: {path_or_name}"
            ) from None
    graph, conductances = TorusGraph.load(p)
    if conductances is None:
        conductances = unit_conductances(graph)
    return graph, conductances, p.stem


def _write_report(outdir: Path, name: str, data: dict) -> Path:
    outdir.mkdir(parents=True, exist_ok=True)
    path = outdir / f"{name}.json"
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cmd_validate(args) -> tuple[int, dict]:
    graph, _, _ = _load_network(args.input)
    report = graph.validate()
    return (0 if report.ok else 1), {"validate": report.to_json()}


def cmd_charpoly(args) -> tuple[int, dict]:
    graph, c, _ = _load_network(args.input)
    L = build_laplacian(graph, c)
    p, q, _ = charpoly_minors(L, 0, 1) if graph.n_vertices >= 2 else (charpoly(L), None, None)
    node = node_check(p)
    data = {
        "charpoly": p.to_json_terms(),
        "node": node.to_json(),
        "sigma_symmetric": p == p.involution(),
        "newton_polygon": p.newton_polygon().to_json(),
    }
    ok = node.is_node and data["sigma_symmetric"]
    if q is not None:
        data["principal_minor_v0"] = q.to_json_terms()
    return (0 if ok else 1), data


def cmd_zigzag(args) -> tuple[int, dict]:
    graph, _, _ = _load_network(args.input)
    strands = trace_strands(graph)
    rep = minimality_check(graph)
    data = {
        "strands": [
            {"id": s.id, "length": len(s), "homology": list(s.homology)} for s in strands
        ],
        "minimality": rep.to_json(),
    }
    if rep.minimal:
        data["polygon"] = zigzag_polygon(graph).to_json()
    return (0 if rep.minimal else 1), data


def cmd_newton(args) -> tuple[int, dict]:
    graph, c, _ = _load_network(args.input)
    p = charpoly(build_laplacian(graph, c))
    n_char = p.newton_polygon()
    n_zz = zigzag_polygon(graph)
    n_pairs = dual_pair_hull(graph)
    points = points_at_infinity(graph, c)
    all_equal = n_char == n_zz == n_pairs
    data = {
        "charpoly_polygon": n_char.to_json(),
        "zigzag_polygon": n_zz.to_json(),
        "dual_pair_polygon": n_pairs.to_json(),
        "all_equal": all_equal,
        "interior_lattice_points": n_char.interior_lattice_count(),
        "boundary_lattice_points": n_char.boundary_lattice_count(),
        "genus": n_char.interior_lattice_count() - 1,
        "centrally_symmetric": n_char.is_centrally_symmetric(),
        "points_at_infinity": [[*h, str(nu)] for h, nu in points],
        "boundary_edges_split": infinity_splits(p, points),
    }
    ok = all_equal and data["centrally_symmetric"] and data["boundary_edges_split"]
    return (0 if ok else 1), data


def cmd_ocrsf_check(args) -> tuple[int, dict]:
    if args.draws < 0:
        raise InputError(f"the draw count {args.draws} is negative")
    graph, c, _ = _load_network(args.input)
    rng = random.Random(args.seed)
    det = charpoly(build_laplacian(graph, c))
    forests = enumerate_ocrsfs(graph)
    oracle = pfnlap_sum(forests, c)
    draws_ok = True
    for _ in range(args.draws):
        cr = random_rational_conductances(graph, rng, positive=False)
        draws_ok &= pfnlap_sum(forests, cr) == charpoly(build_laplacian(graph, cr))
    counts, expected = boundary_point_counts(graph, forests)
    data = {
        "oracle_equality": det == oracle,
        "random_draws": args.draws,
        "random_draws_equal": draws_ok,
        "ocrsf_count": len(forests),
        "boundary_counts": {str(k): v for k, v in sorted(counts.items())},
        "binomial_expected": {str(k): v for k, v in sorted(expected.items())},
        "binomial_match": counts == expected,
        "seed": args.seed,
    }
    ok = data["oracle_equality"] and draws_ok and data["binomial_match"]
    return (0 if ok else 1), data


def cmd_temperley_check(args) -> tuple[int, dict]:
    graph, c, _ = _load_network(args.input)
    sup = graph.superpose()
    pairs = enumerate_dual_pairs(graph)
    covers = enumerate_dimers(sup)
    images = [temperley_map(sup, p) for p in pairs]
    bijection = len(set(images)) == len(pairs) and set(images) == set(covers)
    ref = reference_pair(graph)
    m0 = temperley_map(sup, ref)
    weights_ok = all(p.weight(c) == m.weight(sup, c) for p, m in zip(pairs, images))
    homology_ok = all(
        dimer_class(sup, m, m0, ref.cls) == p.cls for p, m in zip(pairs, images)
    )
    dimer_polygon = NewtonPolygon.from_points(dimer_class(sup, m, m0, ref.cls) for m in covers)
    polygon_ok = dimer_polygon == zigzag_polygon(graph)
    data = {
        "pairs": len(pairs),
        "dimer_covers": len(covers),
        "bijection": bijection,
        "weight_preserving": weights_ok,
        "homology_preserving": homology_ok,
        "polygon_equal": polygon_ok,
    }
    ok = bijection and weights_ok and homology_ok and polygon_ok
    return (0 if ok else 1), data


def cmd_ydelta(args) -> tuple[int, dict]:
    graph, c, _ = _load_network(args.input)
    op = "y2d" if args.y2d is not None else "d2y"
    rep = invariance_check(graph, c, op, getattr(args, op))
    data = rep.to_json()
    ok = rep.exact and rep.polygon_equal
    return (0 if ok else 1), data


def cmd_evolve(args) -> tuple[int, dict]:
    graph, c, _ = _load_network(args.input)
    program = MoveProgram.load(args.program)
    steps = args.steps if args.steps is not None else program.steps
    if args.random_conductances:
        c = random_rational_conductances(graph, random.Random(args.seed))
    t0 = time.perf_counter()
    rep = run_program(graph, c, program, steps)
    # past ~45 tri2 steps the conductances pass the int-to-str limit of 4300 digits
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        data = rep.to_json()
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    data["elapsed_seconds"] = round(time.perf_counter() - t0, 3)
    data["seed"] = args.seed
    return (0 if rep.conserved_constant and rep.strand_classes_preserved else 1), data


def cmd_amoeba(args) -> tuple[int, dict]:
    from . import spectral

    graph, c, stem = _load_network(args.input)
    if not 0 <= args.v0 < graph.n_vertices:
        raise InputError(f"vertex {args.v0} is out of range 0..{graph.n_vertices - 1}")
    if args.grid < 1:
        raise InputError(f"the grid {args.grid} is not positive")
    if not 0 < args.radius < math.inf:
        raise InputError(f"the radius {args.radius} is not positive and finite")
    p = charpoly(build_laplacian(graph, c))
    cloud = spectral.amoeba(p, grid=args.grid, radius=args.radius)
    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    csv_path = outdir / f"amoeba_{stem}.csv"
    svg_path = outdir / f"amoeba_{stem}.svg"
    spectral.write_amoeba_csv(csv_path, cloud)
    divisor, divisor_error = None, None
    if graph.n_vertices >= 2 and all(float(x) > 0 for x in c.values()):
        try:
            divisor = spectral.spectral_divisor(graph, c, v0=args.v0)
        except NetworkSpectraError as exc:
            divisor_error = f"{type(exc).__name__}: {exc}"
    # the divisor labels its points by amoeba hole; order the real curve's gaps only without it
    holes = divisor.hole_count if divisor else len(spectral.real_ovals(p))
    spectral.write_amoeba_svg(svg_path, cloud, divisor.points if divisor else [])
    data = {
        "points": len(cloud.samples),
        "skipped_fibers": cloud.skipped_fibers,
        "dropped_roots": cloud.dropped_roots,
        "holes": holes,
        "divisor_error": divisor_error,
        "symmetry_defect": cloud.symmetric_defect(),
        "csv": str(csv_path),
        "svg": str(svg_path),
        "genus": p.newton_polygon().interior_lattice_count() - 1,
    }
    # every fiber skipped (a radius past float range) leaves nothing to check
    ok = data["points"] > 0 and data["symmetry_defect"] < 0.05
    return (0 if ok else 1), data


def cmd_divisor(args) -> tuple[int, dict]:
    from .spectral import spectral_divisor

    graph, c, _ = _load_network(args.input)
    res = spectral_divisor(graph, c, v0=args.v0)
    data = res.to_json()
    q_ok = all(max(pt.q_residual, pt.q_residual_sigma) <= args.qtol for pt in res.points)
    s_ok = all(pt.section_residual <= args.tol for pt in res.points)
    data["q_check"] = q_ok
    data["section_check"] = s_ok
    ok = res.count_matches_genus and q_ok and s_ok
    return (0 if ok else 1), data


def cmd_abel(args) -> tuple[int, dict]:
    k = args.window
    if k < 0:
        raise InputError(f"the window {k} is negative")
    graph, _, _ = _load_network(args.input)
    chart = discrete_abel(graph, ("vertex", args.base), ((-k, k), (-k, k)))
    eq = {
        "(1,0)": chart.check_equivariance((1, 0)),
        "(0,1)": chart.check_equivariance((0, 1)),
        "(1,1)": chart.check_equivariance((1, 1)),
    }
    data = chart.to_json()
    data["equivariance"] = eq
    data["path_independent"] = True  # construction verifies all window loops
    return (0 if all(eq.values()) else 1), data


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on the first call and then shared."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default="reports", help="output directory for reports")
    ap = argparse.ArgumentParser(
        prog="network-spectra",
        description="Spectral data of biperiodic resistor networks on the torus.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, help_text, seed=False):
        p = sub.add_parser(name, help=help_text, parents=[common])
        p.add_argument("input", help="network JSON file or bundled fixture name")
        if seed:  # only the random draws read one
            p.add_argument("--seed", type=int, default=0, help="seed for the random conductance draws")
        return p

    add("validate", "structural torus-graph checks")
    add("charpoly", "exact characteristic polynomial and node report")
    add("zigzag", "strand table and minimality verdict")
    add("newton", "three-way boundary polygon comparison and points at infinity")
    add("ocrsf-check", "forest oracle vs determinant; boundary counts", seed=True).add_argument(
        "--draws", type=int, default=20
    )
    add("temperley-check", "dual pairs vs dimer covers bijection")
    yd = add("ydelta", "single move with exact invariance check")
    move = yd.add_mutually_exclusive_group(required=True)
    move.add_argument("--y2d", type=int, metavar="VERTEX")
    move.add_argument("--d2y", type=int, metavar="FACE")
    ev = add("evolve", "run a move program; conserved quantities", seed=True)
    ev.add_argument("--program", required=True, help="move program JSON")
    ev.add_argument("--steps", type=int, default=None)
    ev.add_argument("--random-conductances", action="store_true")
    am = add("amoeba", "amoeba point cloud, CSV + SVG")
    am.add_argument("--grid", type=int, default=60)
    am.add_argument("--radius", type=float, default=3.0)
    am.add_argument("--v0", type=int, default=0)
    dv = add("divisor", "spectral divisor from exact resultants")
    dv.add_argument("--v0", type=int, default=0)
    dv.add_argument("--grid", type=int, default=360,
                    help="ignored: the divisor takes no sweep; accepted so that existing command lines run")
    dv.add_argument("--tol", type=float, default=1e-9,
                    help="bound on the section residual |V_v0| of each point's unit kernel vector")
    dv.add_argument("--qtol", type=float, default=1e-6)
    ab = add("abel", "discrete Abel chart over a window")
    ab.add_argument("--base", type=int, default=0)
    ab.add_argument("--window", type=int, default=1)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    name = args.command.replace("-", "_")
    try:
        code, data = globals()[f"cmd_{name}"](args)
    except (FileNotFoundError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NetworkSpectraError as exc:
        print(f"check failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    stem = Path(args.input).stem
    path = _write_report(Path(args.out), f"{name}_{stem}", data)
    status = "PASS" if code == 0 else "FAIL"
    print(f"{args.command} {stem}: {status} ({path})")
    return code


if __name__ == "__main__":
    sys.exit(main())
