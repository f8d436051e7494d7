import json
import math
import sys
import warnings
from fractions import Fraction

import pytest

from network_spectra import cli
from network_spectra import forests as forests_mod
from network_spectra.cli import main
from network_spectra.laurent import LaurentPoly2
from network_spectra.ydelta import run_program
from network_spectra.zigzag import LEFT, RIGHT, StrandSystem
from network_spectra.fixtures import FIXTURE_NAMES, build, fixture_path


def run(tmp_path, *argv):
    return main([*argv, "--out", str(tmp_path)])


@pytest.mark.parametrize("name", FIXTURE_NAMES)
def test_validate_fixtures(tmp_path, name):
    assert run(tmp_path, "validate", name) == 0
    data = json.loads((tmp_path / f"validate_{name}.json").read_text())
    assert data["validate"]["ok"]


def test_charpoly_sq1(tmp_path):
    assert run(tmp_path, "charpoly", "sq1") == 0
    data = json.loads((tmp_path / "charpoly_sq1.json").read_text())
    assert data["charpoly"] == [
        [-1, 0, "-1"],
        [0, -1, "-1"],
        [0, 0, "4"],
        [0, 1, "-1"],
        [1, 0, "-1"],
    ]
    assert data["node"]["is_node"]
    assert data["sigma_symmetric"]


def test_zigzag_and_newton(tmp_path):
    assert run(tmp_path, "zigzag", "tri2") == 0
    assert run(tmp_path, "newton", "tri2") == 0
    data = json.loads((tmp_path / "newton_tri2.json").read_text())
    assert data["all_equal"]
    assert data["interior_lattice_points"] == 3
    assert data["genus"] == 2
    assert data["boundary_edges_split"]
    assert data["points_at_infinity"][:2] == [[1, 2, "10/3"], [0, -1, "-6"]]
    assert data["centrally_symmetric"]


def test_ocrsf_check(tmp_path):
    assert run(tmp_path, "ocrsf-check", "hex1", "--draws", "5") == 0
    data = json.loads((tmp_path / "ocrsf_check_hex1.json").read_text())
    assert data["oracle_equality"] and data["random_draws_equal"] and data["binomial_match"]


def test_temperley_check(tmp_path):
    assert run(tmp_path, "temperley-check", "sq2") == 0
    data = json.loads((tmp_path / "temperley_check_sq2.json").read_text())
    assert data["bijection"] and data["weight_preserving"] and data["homology_preserving"]


def test_ydelta_move(tmp_path):
    assert run(tmp_path, "ydelta", "hex1", "--y2d", "0") == 0
    data = json.loads((tmp_path / "ydelta_hex1.json").read_text())
    assert data["exact_identity"] and data["polygon_equal"]
    assert data["factor"] == "3"


def test_evolve_program(tmp_path):
    prog = str(fixture_path("tri2_cube_program"))
    assert (
        run(
            tmp_path,
            "evolve",
            "tri2",
            "--program",
            prog,
            "--steps",
            "4",
            "--random-conductances",
            "--seed",
            "9",
        )
        == 0
    )
    data = json.loads((tmp_path / "evolve_tri2.json").read_text())
    assert data["conserved_constant"]
    assert len(data["steps"]) == 5


def test_evolve_past_the_int_str_digit_limit(tmp_path, monkeypatch):
    # at 50 steps tri2's conductances pass the int-to-str limit of 4300 digits; the
    # report is still written, and the interpreter's limit is left as it was
    runs = []
    monkeypatch.setattr(cli, "run_program", lambda *a: runs.append(run_program(*a)) or runs[-1])
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)  # 0: no limit
    before = limit()
    prog = str(fixture_path("tri2_cube_program"))
    argv = ["evolve", "tri2", "--program", prog, "--steps", "50", "--random-conductances", "--seed", "1"]
    assert run(tmp_path, *argv) == 0
    assert limit() == before
    data = json.loads((tmp_path / "evolve_tri2.json").read_text())
    assert data["conserved_constant"] is True
    last, step = runs[0].steps[-1], data["steps"][-1]
    assert last.step == step["step"] == 50
    assert max(max(v.numerator, v.denominator).bit_length() for v in last.conductances.values()) > 4300 / math.log10(2)
    if before:  # reading the long numbers back needs the limit lifted too
        sys.set_int_max_str_digits(0)
    try:
        assert {int(k): Fraction(v) for k, v in step["conductances"].items()} == last.conductances
    finally:
        if before:
            sys.set_int_max_str_digits(before)


def test_amoeba_outputs(tmp_path):
    assert run(tmp_path, "amoeba", "sq1", "--grid", "24") == 0
    data = json.loads((tmp_path / "amoeba_sq1.json").read_text())
    assert (tmp_path / "amoeba_sq1.csv").exists()
    assert (tmp_path / "amoeba_sq1.svg").exists()
    assert data["holes"] == 0


def test_divisor_tri2(tmp_path):
    assert run(tmp_path, "divisor", "tri2") == 0
    data = json.loads((tmp_path / "divisor_tri2.json").read_text())
    assert data["count_matches_genus"]
    assert data["genus"] == 2
    assert data["q_check"] and data["section_check"]


def test_abel(tmp_path):
    assert run(tmp_path, "abel", "hex1", "--window", "1") == 0
    data = json.loads((tmp_path / "abel_hex1.json").read_text())
    assert all(data["equivariance"].values())
    assert "path_independent" not in data


def test_abel_path_dependence_exits_1_without_a_report(tmp_path, monkeypatch):
    # as in test_ydelta's path-dependence test: state (0, R) answers the L strand
    strand_of = StrandSystem.strand_of

    def swapped(self, dart, turn):
        return strand_of(self, dart, LEFT if (dart, turn) == (0, RIGHT) else turn)

    monkeypatch.setattr(StrandSystem, "strand_of", swapped)
    assert run(tmp_path, "abel", "hex1") == 1
    assert not (tmp_path / "abel_hex1.json").exists()


def test_reports_byte_stable(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["ocrsf-check", "hex1", "--out", str(out), "--seed", "5"]) == 0
    assert (a / "ocrsf_check_hex1.json").read_bytes() == (b / "ocrsf_check_hex1.json").read_bytes()


def test_usage_error_exit_2():
    # --seed lives on two subcommands only, and none takes --bound
    for argv in (["no-such-command", "x"], ["charpoly", "sq1", "--seed", "1"], ["newton", "tri2", "--bound", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2


def test_io_error_exit_3(tmp_path):
    assert run(tmp_path, "validate", "/no/such/file.json") == 3


def test_check_failure_exit_1(tmp_path):
    # a non-minimal network: subdivided sq1 (written to disk first)
    from network_spectra.graph_core import Edge, TorusGraph

    g = TorusGraph(
        2,
        [Edge(0, 0, 1, (1, 0)), Edge(1, 1, 0, (0, 0)), Edge(2, 0, 0, (0, 1))],
        {0: (0, 4, 3, 5), 1: (2, 1)},
    )
    path = tmp_path / "subdivided.json"
    g.save(path)
    assert run(tmp_path, "zigzag", str(path)) == 1
    # the points at infinity belong to minimal networks
    assert run(tmp_path, "newton", str(path)) == 1
    assert not json.loads((tmp_path / "newton_subdivided.json").read_text())["boundary_edges_split"]


def test_ocrsf_check_enumerates_once(tmp_path, monkeypatch):
    calls = []
    search = forests_mod.distinct_choices
    monkeypatch.setattr(forests_mod, "distinct_choices", lambda options: calls.append(options) or search(options))
    assert run(tmp_path, "ocrsf-check", "tri2", "--draws", "2") == 0
    assert len(calls) == 1


def test_file_input_equivalent_to_fixture(tmp_path):
    g, c = build("hex1")
    path = tmp_path / "hexcopy.json"
    g.save(path, conductances=c)
    assert run(tmp_path, "charpoly", str(path)) == 0
    a = json.loads((tmp_path / "charpoly_hexcopy.json").read_text())
    assert run(tmp_path, "charpoly", "hex1") == 0
    b = json.loads((tmp_path / "charpoly_hex1.json").read_text())
    assert a == b


@pytest.mark.parametrize("flags", [[], ["--y2d", "0", "--d2y", "0"]])
def test_ydelta_needs_exactly_one_move(tmp_path, capsys, flags):
    with pytest.raises(SystemExit) as exc:
        run(tmp_path, "ydelta", "hex1", *flags)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


def _malformed(tmp_path, case):
    """argv for a run on one kind of malformed input file."""
    g, c = build("sq1")
    data = g.to_json_dict(c)
    net = tmp_path / "net.json"
    if case == "invalid-json":
        net.write_text('{"vertices": [')
    elif case == "missing-rotation":
        del data["rotation"]
        net.write_text(json.dumps(data))
    elif case == "zero-conductance":
        data["edges"][0]["conductance"] = "0"
        net.write_text(json.dumps(data))
    elif case in _BAD_FIELDS:
        where, key, value = _BAD_FIELDS[case]
        (data["rotation"]["0"] if where == "rotation" else data["edges"][0])[key] = value
        net.write_text(json.dumps(data))
    elif case == "unknown-op":
        prog = tmp_path / "prog.json"
        prog.write_text(json.dumps({"moves": [{"op": "flip", "vertex": 0}],
                                    "iso": {"vertices": {}, "edges": {}}}))
        return ["evolve", "tri2", "--program", str(prog)]
    elif case in _BAD_PROGRAMS:
        prog = tmp_path / "prog.json"
        prog.write_text(json.dumps(_BAD_PROGRAMS[case](_program())))
        return ["evolve", "tri2", "--program", str(prog)]
    elif case == "negative-steps-flag":
        return ["evolve", "tri2", "--program", str(fixture_path("tri2_cube_program")), "--steps", "-2"]
    return ["charpoly", str(net)]


# case -> (where, key, value): one field of sq1's edge 0, or dart 0 of vertex 0's rotation
_BAD_FIELDS = {
    "short-disp": ("edge", "disp", [1]),
    "long-disp": ("edge", "disp", [1, 0, 5]),
    "string-disp": ("edge", "disp", "ab"),
    "float-disp": ("edge", "disp", [0.5, 0]),
    "string-tail": ("edge", "tail", "0"),
    "string-dart": ("rotation", 0, "x"),
}


# case -> the bundled tri2 cube program with one bad field
_BAD_PROGRAMS = {
    "bad-steps": lambda prog: {**prog, "steps": "x"},
    "negative-steps": lambda prog: {**prog, "steps": -3},
    "float-steps": lambda prog: {**prog, "steps": 2.5},
    "float-target": lambda prog: {**prog, "moves": [{**prog["moves"][0], "face": 0.5}, *prog["moves"][1:]]},
    "float-iso": lambda prog: {**prog, "iso": {**prog["iso"], "vertices": {"0": 0, "1": 1.0}}},
}


def _program() -> dict:
    return json.loads(fixture_path("tri2_cube_program").read_text())


@pytest.mark.parametrize("case", ["invalid-json", "missing-rotation", "zero-conductance", "unknown-op",
                                  *_BAD_PROGRAMS, "negative-steps-flag", *_BAD_FIELDS])
def test_malformed_input_exit_2(tmp_path, capsys, case):
    assert run(tmp_path, *_malformed(tmp_path, case)) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_well_typed_invalid_graph_exit_1(tmp_path, capsys):
    # integer fields that break a face's displacement sum: a validation failure, not bad input
    data = build("tri2")[0].to_json_dict()
    data["edges"][0]["disp"][0] += 2
    net = tmp_path / "net.json"
    net.write_text(json.dumps(data))
    assert run(tmp_path, "validate", str(net)) == 1
    assert capsys.readouterr().err.startswith("check failed: GraphValidationError: face 0: displacement sum")


def test_evolve_steps_from_program(tmp_path):
    prog = tmp_path / "prog.json"
    prog.write_text(json.dumps({**_program(), "steps": 2}))
    assert run(tmp_path, "evolve", "tri2", "--program", str(prog)) == 0
    assert len(json.loads((tmp_path / "evolve_tri2.json").read_text())["steps"]) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["divisor", "tri2", "--v0", "5"],
        ["divisor", "tri2", "--v0", "-1"],
        ["amoeba", "tri2", "--v0", "5", "--grid", "12"],
        ["amoeba", "tri2", "--v0", "-1", "--grid", "12"],
        ["amoeba", "sq1", "--v0", "99", "--grid", "12"],
        ["abel", "tri2", "--base", "7"],
        ["abel", "tri2", "--base", "-1"],
        ["ydelta", "tri2", "--y2d", "9"],
        ["ydelta", "tri2", "--d2y", "99"],
        ["ydelta", "tri2", "--d2y", "-1"],
        ["abel", "tri2", "--window", "-1"],
        ["ocrsf-check", "hex1", "--draws", "-3"],
        ["amoeba", "tri2", "--grid", "0"],
        ["amoeba", "tri2", "--grid", "-1"],
        ["amoeba", "tri2", "--radius", "0"],
        ["amoeba", "tri2", "--radius", "-1"],
        ["amoeba", "tri2", "--radius", "inf"],
    ],
    ids=" ".join,
)
def test_out_of_range_id_exit_2(tmp_path, capsys, argv):
    assert run(tmp_path, *argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert list(tmp_path.iterdir()) == []  # checked before anything is written


@pytest.mark.parametrize("command", ["newton", "ocrsf-check", "temperley-check"])
def test_size_bound(tmp_path, capsys, lattice, command):
    # the bound counts edges; the determinant has none, so charpoly runs first
    path = tmp_path / "sq4x4.json"
    lattice("sq", 4, 4).save(path)
    assert run(tmp_path, command, str(path)) == 1
    assert "check failed: TooLarge: 32 edges exceeds the size bound 24" in capsys.readouterr().err


def test_amoeba_empty_cloud_fails(tmp_path):
    # every fiber of a radius-5000 sweep overflows, so nothing is left to check; the
    # overflows are counted, not printed as numpy warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(tmp_path, "amoeba", "tri2", "--grid", "8", "--radius", "5000") == 1
    data = json.loads((tmp_path / "amoeba_tri2.json").read_text())
    assert data["points"] == 0
    assert data["skipped_fibers"] > 0
    assert data["sigma_symmetric"] is True  # the empty cloud alone fails it


def test_amoeba_counts_dropped_roots(tmp_path):
    # at radius 200 the far fibers are not masked, but some of their roots come back 0;
    # the cloud they leave is lopsided, yet the curve is sigma-symmetric, which the
    # verdict reads off P exactly
    assert run(tmp_path, "amoeba", "tri2", "--grid", "30", "--radius", "200") == 0
    data = json.loads((tmp_path / "amoeba_tri2.json").read_text())
    assert (data["points"], data["skipped_fibers"], data["dropped_roots"]) == (3744, 0, 576)
    assert data["sigma_symmetric"] is True


def test_amoeba_fails_a_p_that_is_not_sigma_symmetric(tmp_path, monkeypatch):
    # P z vanishes on the same curve in (C*)^2, so the cloud is the same, but it is not sigma-symmetric
    charpoly = cli.charpoly
    monkeypatch.setattr(cli, "charpoly", lambda L: charpoly(L) * LaurentPoly2.monomial(1, 0))
    assert run(tmp_path, "amoeba", "tri2", "--grid", "12") == 1
    data = json.loads((tmp_path / "amoeba_tri2.json").read_text())
    assert data["points"] > 0
    assert data["sigma_symmetric"] is False


def test_amoeba_hole_count_from_divisor(tmp_path):
    assert run(tmp_path, "amoeba", "tri2", "--grid", "30") == 0
    assert run(tmp_path, "divisor", "tri2") == 0
    data = json.loads((tmp_path / "amoeba_tri2.json").read_text())
    divisor = json.loads((tmp_path / "divisor_tri2.json").read_text())
    assert data["divisor_error"] is None
    assert data["holes"] == divisor["hole_count"] == 2


def test_amoeba_records_divisor_error(tmp_path, monkeypatch):
    from network_spectra import spectral
    from network_spectra.errors import CorankTwo

    def fail(*args, **kwargs):
        raise CorankTwo("two small singular values")

    monkeypatch.setattr(spectral, "spectral_divisor", fail)
    assert run(tmp_path, "amoeba", "tri2", "--grid", "30") == 0
    data = json.loads((tmp_path / "amoeba_tri2.json").read_text())
    assert data["divisor_error"] == "CorankTwo: two small singular values"
    assert data["holes"] == 2
    assert '<g stroke="#d62728"' not in (tmp_path / "amoeba_tri2.svg").read_text()


def test_parser_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_main_looks_up_the_subcommand_at_call_time(tmp_path, monkeypatch):
    # a cmd_* attribute replaced after the parser exists is the one that runs
    assert run(tmp_path, "charpoly", "sq1") == 0
    calls = []
    charpoly = cli.cmd_charpoly
    monkeypatch.setattr(cli, "cmd_charpoly", lambda args: calls.append(args.input) or charpoly(args))
    assert run(tmp_path, "charpoly", "sq1") == 0
    assert calls == ["sq1"]


PROGRAM = str(fixture_path("tri2_cube_program"))


def _report(path):
    data = json.loads(path.read_text())
    data.pop("elapsed_seconds", None)  # evolve's wall time
    return data


@pytest.mark.parametrize(
    "first, second",
    [
        (["ydelta", "hex1", "--y2d", "0"], ["ydelta", "tri2", "--d2y", "0"]),
        (["evolve", "tri2", "--program", PROGRAM, "--steps", "2"], ["evolve", "tri2", "--program", PROGRAM]),
        (["amoeba", "tri2", "--v0", "1", "--grid", "30"], ["divisor", "tri2"]),
    ],
    ids=["ydelta", "evolve", "amoeba-divisor"],
)
def test_main_is_reentrant(tmp_path, monkeypatch, first, second):
    # no default or exclusive-group choice of one call leaks into the next
    report = f"{second[0]}_{second[1]}.json"
    shared, fresh = tmp_path / "shared", tmp_path / "fresh"
    assert run(shared, *first) == 0
    code = run(shared, *second)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    assert run(fresh, *second) == code
    assert _report(shared / report) == _report(fresh / report)
