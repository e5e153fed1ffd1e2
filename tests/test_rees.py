from __future__ import annotations

import random

import pytest

from reesreg import (
    Graph,
    RegularityStatus,
    complete,
    cycle,
    disjoint_union,
    is_rees_normal,
    is_tutte_berge,
    matching_number,
    paper_example,
    path,
    random_graph,
    regularity,
    satisfies_odd_cycle_condition,
)
from reesreg.corpus import all_graphs
from reesreg.graphs import is_bipartite
from reference import satisfies_odd_cycle_condition_pairwise


def two_triangles() -> Graph:
    return disjoint_union(cycle(3), cycle(3))


def bowtie() -> Graph:
    return Graph.from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])


def test_odd_cycle_condition_examples():
    assert satisfies_odd_cycle_condition(cycle(5))
    assert satisfies_odd_cycle_condition(complete(5))
    assert satisfies_odd_cycle_condition(bowtie())
    assert satisfies_odd_cycle_condition(path(6))
    assert not satisfies_odd_cycle_condition(two_triangles())
    bridged = Graph.from_edges(
        6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (1, 4)]
    )
    assert satisfies_odd_cycle_condition(bridged)
    assert not satisfies_odd_cycle_condition(disjoint_union(cycle(5), cycle(5)))


def test_normality_families():
    assert is_rees_normal(cycle(7))
    assert is_rees_normal(complete(7))
    assert is_rees_normal(bowtie())
    assert is_rees_normal(paper_example())
    assert is_rees_normal(path(1))
    assert not is_rees_normal(two_triangles())
    bridged = Graph.from_edges(
        6, [(1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6), (1, 4)]
    )
    assert is_rees_normal(bridged)


def test_regularity_too_few_edges():
    for g in (Graph.from_edges(0, []), Graph.from_edges(3, []), path(2), Graph.from_edges(4, [(2, 3)])):
        res = regularity(g)
        assert res.status is RegularityStatus.TOO_FEW_EDGES
        assert res.reg is None
        assert res.mat == matching_number(g)


def test_regularity_not_normal():
    res = regularity(two_triangles())
    assert res.status is RegularityStatus.NOT_NORMAL
    assert res.reg is None
    assert res.mat == 2
    assert res.tutte_berge is False


def test_regularity_frozen_values():
    for k, expected in ((3, 2), (5, 3), (7, 4), (9, 5), (11, 6)):
        res = regularity(cycle(k))
        assert res.status is RegularityStatus.COMPUTED
        assert res.tutte_berge is False
        assert res.reg == expected
    for k, expected in ((3, 2), (5, 3), (7, 4)):
        res = regularity(complete(k))
        assert res.status is RegularityStatus.COMPUTED
        assert res.tutte_berge is False
        assert res.reg == expected
    res = regularity(paper_example())
    assert res.status is RegularityStatus.COMPUTED
    assert res.tutte_berge is True
    assert res.mat == 3
    assert res.reg == 3
    res = regularity(cycle(4))
    assert res.tutte_berge is True
    assert res.reg == 2


def test_regularity_formula_shape_exhaustive_small():
    for g in all_graphs(5):
        res = regularity(g)
        assert res.mat == matching_number(g)
        assert res.tutte_berge == is_tutte_berge(g)
        if res.status is RegularityStatus.COMPUTED:
            assert g.m >= 2 and is_rees_normal(g)
            assert res.reg == (res.mat if res.tutte_berge else res.mat + 1)
        else:
            assert res.reg is None


def test_bipartite_graphs_are_normal_and_tutte_berge():
    for g in all_graphs(5):
        if is_bipartite(g):
            assert is_rees_normal(g)
            assert is_tutte_berge(g)


def test_odd_cycle_condition_matches_pairwise_reference_seeded():
    rng = random.Random(1818)
    verdicts = set()
    for _ in range(400):
        n = rng.randint(1, 18)
        g = random_graph(n, rng.uniform(0.05, 0.5), seed=rng.randrange(1 << 30))
        occ = satisfies_odd_cycle_condition(g)
        assert occ == satisfies_odd_cycle_condition_pairwise(g), g
        verdicts.add(occ)
    assert verdicts == {True, False}
