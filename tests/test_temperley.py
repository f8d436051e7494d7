import pytest

from network_spectra.errors import TooLarge
from network_spectra.fixtures import FIXTURE_NAMES, build
from network_spectra.forests import enumerate_dual_pairs
from network_spectra.graph_core import random_rational_conductances
from network_spectra.temperley import (
    DimerCover,
    dimer_class,
    dimer_homology,
    dimer_newton_polygon,
    enumerate_dimers,
    reference_pair,
    temperley_map,
)
from network_spectra.zigzag import zigzag_polygon


def test_sq1_dimer_count_matches_pairs():
    g, _ = build("sq1")
    assert len(enumerate_dimers(g.superpose())) == len(enumerate_dual_pairs(g)) == 8


def test_hex1_dimer_count_matches_pairs():
    g, _ = build("hex1")
    assert len(enumerate_dimers(g.superpose())) == len(enumerate_dual_pairs(g)) == 12


def test_unbalanced_graph_has_no_matchings():
    # a path graph on the torus-like wrapper is not needed; lie about the
    # color classes of a real superposition so that one white is missing
    g, _ = build("sq1")
    sup = g.superpose()
    # fake unbalance by lying about the color classes
    class Unbalanced:
        graph = sup.graph
        n_black = sup.n_black
        n_white = sup.n_white

        def color_classes(self):
            blacks, whites = sup.color_classes()
            return blacks + whites[:1], whites[1:]

    assert enumerate_dimers(Unbalanced()) == []


def test_matching_bound(lattice):
    sup = lattice("sq", 4, 4).superpose()
    with pytest.raises(TooLarge, match=r"^32 edges exceeds the size bound 24$"):
        enumerate_dimers(sup)


def reference_dimers(sup):
    """The backtracker over white vertices that ``distinct_choices`` replaced,
    kept as the reference for its output and order."""
    g = sup.graph
    blacks, whites = sup.color_classes()
    if len(blacks) != len(whites):
        return []
    out = []
    chosen = []
    used_black = set()

    def backtrack(k):
        if k == len(whites):
            out.append(DimerCover(frozenset(chosen)))
            return
        for d in g.rotation[whites[k]]:
            b = g.head_of(d)
            if b in used_black:
                continue
            used_black.add(b)
            chosen.append(g.edge_of(d))
            backtrack(k + 1)
            chosen.pop()
            used_black.remove(b)

    backtrack(0)
    return out


@pytest.mark.parametrize("name", [*FIXTURE_NAMES, "sq2x2", "tri2x2", "sq3x2"])
def test_dimers_match_reference_backtracker(lattice, name):
    if name in FIXTURE_NAMES:
        g, _ = build(name)
    else:
        g = lattice(name[:-3], int(name[-3]), int(name[-1]))
    sup = g.superpose()
    covers = enumerate_dimers(sup)
    assert covers == reference_dimers(sup)
    assert len(covers) > 0


def test_bijection(any_network):
    g, _ = any_network
    sup = g.superpose()
    pairs = enumerate_dual_pairs(g)
    covers = enumerate_dimers(sup)
    images = [temperley_map(sup, p) for p in pairs]
    assert len(set(images)) == len(pairs)          # injective
    assert set(images) == set(covers)              # surjective


def test_weight_preserving(any_network, rng):
    g, _ = any_network
    sup = g.superpose()
    pairs = enumerate_dual_pairs(g)
    for _ in range(10):
        c = random_rational_conductances(g, rng)
        for p in pairs:
            assert p.weight(c) == temperley_map(sup, p).weight(sup, c)


def test_homology_preserving_relative(any_network):
    g, _ = any_network
    sup = g.superpose()
    ref = reference_pair(g)
    m0 = temperley_map(sup, ref)
    for p in enumerate_dual_pairs(g):
        m = temperley_map(sup, p)
        assert dimer_homology(sup, m, m0) == (
            p.cls[0] - ref.cls[0],
            p.cls[1] - ref.cls[1],
        )
        assert dimer_class(sup, m, m0, ref.cls) == p.cls


def test_identical_covers_have_zero_class():
    g, _ = build("hex1")
    sup = g.superpose()
    m0 = temperley_map(sup, reference_pair(g))
    assert dimer_homology(sup, m0, m0) == (0, 0)


def test_reference_change_translates_hull():
    g, _ = build("sq1")
    sup = g.superpose()
    covers = enumerate_dimers(sup)
    m0, m1 = covers[0], covers[1]
    hull0 = sorted(dimer_homology(sup, m, m0) for m in covers)
    hull1 = sorted(dimer_homology(sup, m, m1) for m in covers)
    shift = dimer_homology(sup, m0, m1)
    assert [(x + shift[0], y + shift[1]) for x, y in hull0] == hull1


def test_dimer_polygon_equals_network_polygon(any_network):
    g, _ = any_network
    assert dimer_newton_polygon(g) == zigzag_polygon(g)


def test_temperley_check_enumerates_once(tmp_path, monkeypatch):
    from network_spectra import cli, forests, graph_core, temperley

    calls = {"enumerate_dual_pairs": 0, "enumerate_dimers": 0, "dual": 0}

    def spy(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for module in (cli, forests, temperley):
        for name in ("enumerate_dual_pairs", "enumerate_dimers"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    monkeypatch.setattr(graph_core.TorusGraph, "dual", spy("dual", graph_core.TorusGraph.dual))
    assert cli.main(["temperley-check", "tri2", "--out", str(tmp_path)]) == 0
    assert calls["enumerate_dual_pairs"] == calls["enumerate_dimers"] == 1
    assert calls["dual"] <= 2
