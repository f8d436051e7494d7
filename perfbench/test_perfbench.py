"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from network_spectra.laplacian import build_laplacian, charpoly  # noqa: E402
from network_spectra.graph_core import unit_conductances  # noqa: E402
from network_spectra.zigzag import zigzag_polygon  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from lattice import lattice  # noqa: E402

RUNGS = sorted(set(workloads.EXACT_RUNGS + workloads.SPECTRAL_RUNGS
                   + [spec for spec, _ in workloads.EVOLVE_GRAPHS if isinstance(spec, tuple)]))


@pytest.mark.parametrize("kind,m,n", RUNGS)
def test_rung_validates(kind, m, n):
    g = lattice(kind, m, n)
    assert g.validate().ok
    assert (g.n_vertices, g.n_edges) == (m * n, (2 if kind == "sq" else 3) * m * n)


@pytest.mark.parametrize("kind,m,n", [r for r in RUNGS if r[1] * r[2] <= 9])
def test_rung_polygons_agree(kind, m, n):
    g = lattice(kind, m, n)
    p = charpoly(build_laplacian(g, unit_conductances(g)))
    assert p.newton_polygon() == zigzag_polygon(g)
    net = checks.Network(g.to_json_dict(unit_conductances(g)))
    assert checks.hull(net.charpoly_support()) == set(map(tuple, p.newton_polygon().to_json()))


SLICES = {"exact": 9, "spectral": 2, "evolve": 1}


def _run(workload: str, trace: int, monkeypatch, capsys):
    """One in-process run over the first SLICES[workload] jobs of the workload."""
    fresh_import = run.import_program

    def import_sliced():
        seconds = fresh_import()
        build = run.workloads.BUILDERS[workload]
        run.workloads.BUILDERS[workload] = lambda seed, d: build(seed, d)[: SLICES[workload]]
        return seconds

    monkeypatch.setattr(run, "import_program", import_sliced)
    assert run.main(["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", list(workloads.BUILDERS))
def test_smoke_slice_and_traced_verdicts(workload, monkeypatch, capsys):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    details, result = _run(workload, 0, monkeypatch, capsys)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] == SLICES[workload] * details["passes"]
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["unit"] == result["metrics"][m["name"]]["unit"] for m in spec["end_to_end"])

    traced_details, traced = _run(workload, 1, monkeypatch, capsys)
    assert set(traced["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert all(m["unit"] == traced["metrics"][m["name"]]["unit"] for m in spec["per_layer"])
    assert traced_details["traced_passes"] >= 1
    for verdicts in traced_details["verdicts"]:
        assert verdicts == details["verdicts"][0]


def test_stripped_checkout_fails():
    """With only BENCHMARK.json and perfbench/, the run fails without a result."""
    tmp_path = ROOT / ".perfbench-work" / "stripped"
    shutil.rmtree(tmp_path, ignore_errors=True)
    (tmp_path / "perfbench").mkdir(parents=True)
    for f in HERE.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "exact", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0 and out.stdout == ""


def test_known_failures_are_per_job():
    """A known problem counts as known only on the job it was recorded for."""
    assert run.is_known(run.Outcome("newton:sq2x2", "error", 0.0, (run.DUAL_PAIRS,)))
    assert not run.is_known(run.Outcome("newton:tri2", "error", 0.0, (run.DUAL_PAIRS,)))
    assert not run.is_known(run.Outcome("divisor:tri2x2", "error", 0.0, ("CorankTwo: two singular values",)))
    assert not run.is_known(run.Outcome("divisor:sq3x2", "check_fail", 0.0, (run.VERDICT_FAIL,)))


def test_job_seconds_are_medians_at_reference_speed():
    """Each pass's times are scaled by its own reference time, then the
    median over the passes is taken job by job."""
    def outcomes(*seconds):
        return [run.Outcome(f"job{i}", "ok", t) for i, t in enumerate(seconds)]
    ref = run.REFERENCE_S
    runs = [run.Pass(outcomes(1.0, 4.0), None, ref),
            run.Pass(outcomes(4.0, 2.0), None, 2 * ref),    # a pass on a host half as fast
            run.Pass(outcomes(9.0, 0.5), None, ref)]
    assert run.job_seconds(runs) == [2.0, 1.0]
