from __future__ import annotations

import hashlib
import itertools
import random
import time

import pytest
from hypothesis import given, settings

from conftest import graphs
from reference import independence_number, matching_number_bruteforce
from reesreg import (
    Graph,
    InstanceTooLargeError,
    bipartite_check,
    complete,
    complete_bipartite,
    cycle,
    gallai_edmonds,
    has_perfect_matching,
    independent_sets,
    is_factor_critical,
    is_konig,
    matching_number,
    max_matching,
    neighbor_set,
    paper_example,
    path,
    random_graph,
    rees,
    tutte_berge_witness,
)
from reesreg.corpus import all_graphs


@pytest.mark.parametrize(
    "g,expected",
    [
        (path(1), 0),
        (path(2), 1),
        (path(5), 2),
        (path(6), 3),
        (cycle(4), 2),
        (cycle(5), 2),
        (cycle(9), 4),
        (complete(4), 2),
        (complete(7), 3),
        (complete_bipartite(2, 5), 2),
        (paper_example(), 3),
        (Graph.from_edges(3, []), 0),
    ],
)
def test_family_matching_numbers(g, expected):
    assert matching_number(g) == expected


def test_matching_object_invariants():
    g = random_graph(10, 0.5, seed=4)
    m = max_matching(g)
    assert m.size == len(m.edges)
    covered = set()
    for u, v in m.edges:
        assert g.has_edge(u, v)
        assert u not in covered and v not in covered
        covered.update((u, v))
    assert m.covered == tuple(sorted(covered))
    assert max_matching(g) == m


def test_blossom_matches_bruteforce_exhaustively():
    for g in all_graphs(5):
        assert matching_number(g) == matching_number_bruteforce(g)


@settings(max_examples=100)
@given(graphs(max_n=7))
def test_blossom_matches_bruteforce_random(g):
    assert matching_number(g) == matching_number_bruteforce(g)


def test_bruteforce_guard_on_large_instances():
    g = complete(8)
    assert g.m == 28
    with pytest.raises(InstanceTooLargeError):
        matching_number_bruteforce(g)


def test_perfect_matching():
    assert has_perfect_matching(cycle(4))
    assert has_perfect_matching(complete(6))
    assert has_perfect_matching(Graph.from_edges(0, []))
    assert not has_perfect_matching(cycle(5))
    assert not has_perfect_matching(paper_example())


def test_factor_critical():
    bowtie = Graph.from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    for g in (cycle(3), cycle(5), cycle(7), complete(5), bowtie, path(1)):
        assert is_factor_critical(g)
    for g in (cycle(4), path(3), path(5), complete(4), Graph.from_edges(0, [])):
        assert not is_factor_critical(g)
    assert not is_factor_critical(Graph.from_edges(3, [(1, 2)]))


def test_long_path_and_cycle_match_in_linear_time():
    # A blossom search must cost its own tree, not O(n): at this size a
    # search that touches every vertex takes seconds of CPU.  The path
    # needs no search at all; the cycle's one failed search, which gives
    # both the matching and D, contracts a blossom spanning it.
    p, c = path(20_000), cycle(20_001)
    start = time.process_time()
    assert max_matching(p).size == 10_000
    assert time.process_time() - start < 2.0
    start = time.process_time()
    ge = gallai_edmonds(c)
    assert time.process_time() - start < 2.0
    assert max_matching(c).size == 10_000
    assert ge.d_set == tuple(c.vertices)


def test_sparse_random_graph_matches_in_time_of_its_blossoms():
    # A contraction must relabel only the vertices it merges: one that
    # walked its whole search tree took about 9 s of CPU on a 2-core x86-64
    # VM.  The edges are drawn in linear time (`random_graph` is quadratic
    # in n).
    rng = random.Random(11)
    edges = set()
    while len(edges) < 15_000:
        u, v = sorted(rng.sample(range(1, 10_001), 2))
        edges.add((u, v))
    g = Graph(10_000, tuple(sorted(edges)))
    start = time.process_time()
    ge = gallai_edmonds(g)
    m = max_matching(g)
    assert time.process_time() - start < 3.0
    covered = set(m.covered)
    assert len(covered) == 2 * m.size and set(m.edges) <= set(g.edges)
    assert set(g.vertices) - covered <= set(ge.d_set)


def test_konig_property():
    for g in (path(4), cycle(6), complete_bipartite(3, 4)):
        assert is_konig(g)
    for g in (cycle(5), complete(3), paper_example()):
        assert not is_konig(g)


def test_konig_matches_bruteforce_seeded():
    rng = random.Random(716)
    verdicts = set()
    for _ in range(400):
        n = rng.randint(7, 16)
        g = random_graph(n, rng.uniform(0.05, 0.5), seed=rng.randrange(1 << 30))
        konig = independence_number(g) + matching_number(g) == g.n
        assert is_konig(g) == konig, g
        verdicts.add(konig)
    assert verdicts == {True, False}


def test_factor_critical_neighbor_bound_spot_checks():
    bowtie = Graph.from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    for g in (cycle(5), cycle(7), complete(5), bowtie):
        assert is_factor_critical(g)
        for t in independent_sets(g):
            assert len(t) <= len(neighbor_set(g, t))


# sha256 of the outputs below over `_pinned_graphs`, one repr per line.  The
# witness and the report read this exact matching and walk, so a change of
# scan order must fail here and not only in the benchmark digests.  The odd
# cycle condition has two digests over `_grown_path_graphs` too: one of its
# answer alone, and one of its answer with the induced paths its search
# grew, which the step budget replays.  A new search order changes only the
# second.
PINNED_DIGESTS = {
    "max_matching": "404edda32e9d4d80c9e4abbcd123331ecf2d174770b56df64cf7fbb714429f24",
    "gallai_edmonds": "ed0bdb02676fe3bea8361d3b7d2bc14cda4d91a3016d78c57766e1d0c98d7f1e",
    "bipartite_check": "deb6427c4534d18117a781b4adfd0f6c8021b498a17ccf6ffc88bdaf9401c802",
    "odd_cycle_condition": "c9991c1fa97db700548739e9c8e940059ab7318e7822b6f22efd4e818fd6ff38",
    "odd_cycle_condition_answer": "1bd96a95c0e3c30c11f76b589ac59201726e66c96693f19240c81b48149c9cd0",
    "tutte_berge_witness": "d50d5730a1daa2962177690cc11c31055fe004d7ab769d3fab588971192e3610",
}


def _pinned_graphs():
    for n in range(7):
        yield from all_graphs(n)
    for n in (20, 40, 80, 160, 320):
        for c in (1, 2, 3):
            for seed in range(4):
                yield random_graph(n, c / n, seed)


def _grown_path_graphs():
    # The search grows induced paths on 25 of these graphs and on only 1 of
    # `_pinned_graphs`.
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(16, 31)
        yield random_graph(n, rng.uniform(0.1, 0.4), seed=rng.randrange(1 << 30))


def _pinned_view(name, g):
    if name == "odd_cycle_condition":
        return rees._odd_cycle_condition(g)
    if name == "odd_cycle_condition_answer":
        return rees._odd_cycle_condition(g)[0]
    if name == "max_matching":
        return max_matching(g).edges
    if name == "gallai_edmonds":
        ge = gallai_edmonds(g)
        return ge.d_set, ge.a_set, ge.c_set, ge.d_components
    if name == "tutte_berge_witness":
        w = tutte_berge_witness(g)
        return None if w is None else w.t_set
    check = bipartite_check(g)
    return check.sides, check.odd_closed_walk


@pytest.mark.parametrize("name", sorted(PINNED_DIGESTS))
def test_blossom_and_odd_walk_outputs_are_pinned(name):
    h = hashlib.sha256()
    grown = _grown_path_graphs() if name.startswith("odd_cycle_condition") else ()
    for g in itertools.chain(_pinned_graphs(), grown):
        h.update(repr(_pinned_view(name, g)).encode() + b"\n")
    assert h.hexdigest() == PINNED_DIGESTS[name]
