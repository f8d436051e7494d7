import random
import types
from fractions import Fraction
from pathlib import Path

import pytest

from network_spectra import fixtures

ALL_FIXTURES = list(fixtures.FIXTURE_NAMES)


@pytest.fixture
def rng():
    return random.Random(20240811)


@pytest.fixture(params=ALL_FIXTURES)
def any_network(request):
    return fixtures.build(request.param)


@pytest.fixture(scope="session")
def lattice():
    """perfbench's m x n lattice generator, executed from its file (it imports only
    graph_core), so the benchmark directory is read and never imported or written."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "lattice.py"
    mod = types.ModuleType("perfbench_lattice")
    exec(compile(path.read_text(), str(path), "exec"), mod.__dict__)
    return mod.lattice


def _long_conductances(g):
    """2000-bit signed conductances, one per edge."""
    rng = random.Random(3)
    return {e.id: Fraction(rng.choice((-1, 1)) * (rng.getrandbits(2000) + 1), rng.getrandbits(2000) + 1) for e in g.edges}


@pytest.fixture(scope="session")
def long_conductances():
    """The 2000-bit draw as a function of the graph."""
    return _long_conductances


def pytest_configure(config):
    config.addinivalue_line("markers", "acceptance: spec acceptance criteria")
