from __future__ import annotations

import random
from functools import partial

import pytest

from reesreg import (
    Graph,
    InstanceTooLargeError,
    RegularityStatus,
    complete,
    complete_bipartite,
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
    write_graph,
)
from reesreg import rees
from reesreg.cli import main
from reesreg.corpus import all_graphs
from reesreg.graphs import is_bipartite, labels_of, mask_is_bipartite, mask_of
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


# Structured graphs for the pruned search.  Each builder returns (n, edges)
# on labels 1..n; the test permutes the labels so that the least vertex of
# a cycle, where the search starts, falls anywhere in the graph.


def _odd_cycle(edges: list, first: int, k: int, at: int | None = None) -> list[int]:
    # Adds a k-cycle through the existing vertex `at` (which becomes a cut
    # vertex) or, without it, through new vertices only.  New vertices are
    # numbered from `first`.  Returns the cycle's vertices.
    vs = ([] if at is None else [at]) + list(range(first, first + k - (at is not None)))
    edges.extend(zip(vs, vs[1:] + vs[:1]))
    return vs


def _cycles_at_cut_vertices(rng: random.Random) -> tuple[int, list]:
    edges: list = []
    vs = _odd_cycle(edges, 1, rng.choice((3, 5, 7)))
    n = len(vs)
    for _ in range(rng.randint(1, 3)):
        new = _odd_cycle(edges, n + 1, rng.choice((3, 5, 7)), at=rng.randint(1, n))
        n += len(new) - 1
    return n, edges


def _cycles_on_a_tree(rng: random.Random) -> tuple[int, list]:
    t = rng.randint(2, 12)
    edges = [(v, rng.randint(1, v - 1)) for v in range(2, t + 1)]
    n = t
    for _ in range(rng.randint(1, 3)):
        k = rng.choice((3, 5, 7))
        if rng.random() < 0.5:
            _odd_cycle(edges, n + 1, k, at=rng.randint(1, t))
            n += k - 1
        else:
            _odd_cycle(edges, n + 1, k)
            edges.append((rng.randint(1, t), n + 1))
            n += k
    return n, edges


def _linked_cycles(rng: random.Random, length: int) -> tuple[int, list]:
    edges: list = []
    a = _odd_cycle(edges, 1, rng.choice((3, 5, 7)))
    b = _odd_cycle(edges, len(a) + 1, rng.choice((3, 5, 7)))
    n = len(a) + len(b)
    inner = list(range(n + 1, n + length))
    chain = [rng.choice(a)] + inner + [rng.choice(b)]
    edges.extend(zip(chain, chain[1:]))
    return n + length - 1, edges


def _triangles_on_even_cycle(rng: random.Random) -> tuple[int, list]:
    k = 2 * rng.randint(2, 6)
    edges = list(zip(range(1, k + 1), list(range(2, k + 1)) + [1]))
    n = k
    for _ in range(rng.randint(1, 3)):
        n += 1
        u = rng.randint(1, k)
        if rng.random() < 0.5:
            edges += [(u, n), (u % k + 1, n)]
        else:
            edges += [(u, n), (u, n + 1), (n, n + 1)]
            n += 1
    return n, edges


@pytest.mark.parametrize(
    "build, verdicts",
    [
        (_cycles_at_cut_vertices, {True, False}),
        (_cycles_on_a_tree, {True, False}),
        # Two odd cycles joined by an edge pass; linked by a longer path,
        # they are disjoint and unjoined.
        (partial(_linked_cycles, length=1), {True}),
        (partial(_linked_cycles, length=2), {False}),
        (partial(_linked_cycles, length=3), {False}),
        (_triangles_on_even_cycle, {True, False}),
    ],
    ids=["cut-vertices", "tree", "linked-1", "linked-2", "linked-3", "even-cycle"],
)
def test_odd_cycle_condition_on_permuted_structured_graphs(build, verdicts):
    rng = random.Random(88)
    seen = set()
    for _ in range(60):
        n, edges = build(rng)
        perm = list(range(1, n + 1))
        rng.shuffle(perm)
        g = Graph.from_edges(n, [(perm[u - 1], perm[v - 1]) for u, v in edges])
        occ = satisfies_odd_cycle_condition(g)
        assert occ == satisfies_odd_cycle_condition_pairwise(g), g
        seen.add(occ)
    assert seen == verdicts


def _bipartite_parts(rng: random.Random, count: int) -> tuple[int, list]:
    # Disjoint random trees and even cycles on 1..n.
    edges: list = []
    n = 0
    for _ in range(count):
        if rng.random() < 0.5:
            k = rng.randint(1, 6)
            edges += [(n + v, n + rng.randint(1, v - 1)) for v in range(2, k + 1)]
        else:
            k = 2 * rng.randint(2, 4)
            edges += [(n + v, n + v % k + 1) for v in range(1, k + 1)]
        n += k
    return n, edges


@pytest.mark.parametrize(
    "odd_parts, verdicts", [(1, {True, False}), (2, {False})], ids=["one", "two"]
)
def test_odd_cycle_condition_with_bipartite_components_around(odd_parts, verdicts):
    # The exact search runs inside the one non-bipartite component.  The
    # bipartite components take labels below, between and above its labels,
    # so they sit among its starts and inside every `above` mask.
    builders = (
        _cycles_at_cut_vertices,
        partial(_linked_cycles, length=1),
        partial(_linked_cycles, length=2),
    )
    rng = random.Random(1010)
    seen = set()
    for _ in range(60):
        edges: list = []
        k = 0
        for _ in range(odd_parts):
            n_odd, odd_edges = rng.choice(builders)(rng)
            edges += [(u + k, v + k) for u, v in odd_edges]
            k += n_odd
        b, bip_edges = _bipartite_parts(rng, rng.randint(3, 4))
        n = k + b
        while True:
            odd_labels = rng.sample(range(2, n), k)
            if max(odd_labels) - min(odd_labels) >= k:
                break
        taken = set(odd_labels)
        bip_labels = [v for v in range(1, n + 1) if v not in taken]
        assert bip_labels[0] < min(odd_labels) and bip_labels[-1] > max(odd_labels)
        assert any(min(odd_labels) < v < max(odd_labels) for v in bip_labels)
        rng.shuffle(bip_labels)
        label = [0] + odd_labels + bip_labels
        edges += [(u + k, v + k) for u, v in bip_edges]
        g = Graph.from_edges(n, [(label[u], label[v]) for u, v in edges])
        occ = satisfies_odd_cycle_condition(g)
        assert occ == satisfies_odd_cycle_condition_pairwise(g), g
        seen.add(occ)
    assert seen == verdicts


def test_nonbipartite_blocks_match_networkx():
    nx = pytest.importorskip("networkx")
    rng = random.Random(9)
    odd_blocks = 0
    for _ in range(40):
        n = rng.randint(20, 200)
        g = random_graph(n, rng.uniform(0.8, 3.0) / n, seed=rng.randrange(1 << 30))
        ref = nx.Graph()
        ref.add_nodes_from(g.vertices)
        ref.add_edges_from(g.edges)
        blocks = [mask_of(b) for b in nx.biconnected_components(ref)]
        assert sorted(rees._blocks(g, g.full_mask)) == sorted(blocks), g
        odd = sorted(
            b for b in blocks if not nx.is_bipartite(ref.subgraph(labels_of(b)))
        )
        odd_lib = (b for b in rees._blocks(g, g.full_mask) if not mask_is_bipartite(g, b))
        assert sorted(odd_lib) == odd
        odd_blocks += len(odd)
    assert odd_blocks > 0


def _bipartite_plus_triangle() -> Graph:
    # The graph of the CI step: a sparse random bipartite graph on 1..300
    # and a disjoint triangle on 301..303.
    rng = random.Random(1)
    edges = [
        (u, v) for u in range(1, 151) for v in range(151, 301) if rng.random() < 1.75 / 150
    ]
    return Graph.from_edges(303, edges + [(301, 302), (301, 303), (302, 303)])


def test_odd_cycle_condition_hard_inputs_within_a_small_budget(monkeypatch):
    # Inputs on which enumerating every chordless odd cycle takes from a
    # tenth of a second to minutes; the pruned search needs few paths.
    monkeypatch.setattr(rees, "OCC_STEP_LIMIT", 10_000)
    k50 = complete_bipartite(50, 50)
    plus_edge = Graph.from_edges(100, list(k50.edges) + [(1, 2)])
    for g, expected in (
        (cycle(321), True),
        (complete(24), True),
        (plus_edge, True),
        (_bipartite_plus_triangle(), True),
        (random_graph(320, 1.5 / 320, seed=1), False),
    ):
        assert satisfies_odd_cycle_condition(g) is expected, g.n


def test_odd_cycle_condition_step_budget(monkeypatch, tmp_path, capsys):
    # Passes the first two stages and grows 10 induced paths in the third.
    g = random_graph(14, 0.2, seed=138)
    assert regularity(g).status is RegularityStatus.COMPUTED
    monkeypatch.setattr(rees, "OCC_STEP_LIMIT", 3)
    with pytest.raises(InstanceTooLargeError, match="OCC_STEP_LIMIT = 3"):
        regularity(g)
    f = tmp_path / "g.txt"
    f.write_text(write_graph(g), encoding="utf-8")
    assert main(["classify", str(f)]) == 2
    assert "OCC_STEP_LIMIT" in capsys.readouterr().err


def test_odd_cycle_condition_budget_replays_on_a_stored_answer(monkeypatch):
    # The answer is computed once per graph and stored with the paths its
    # search grew.  A search that raised stores nothing, so restoring the
    # limit gives the answer; a stored answer raises again under a limit
    # that its search would have passed.
    runs = []

    def counted(g):
        runs.append(g)
        return decide(g)

    decide = rees._odd_cycle_condition
    monkeypatch.setattr(rees, "_odd_cycle_condition", counted)
    limit = rees.OCC_STEP_LIMIT
    g = random_graph(14, 0.2, seed=138)
    monkeypatch.setattr(rees, "OCC_STEP_LIMIT", 3)
    with pytest.raises(InstanceTooLargeError, match="OCC_STEP_LIMIT = 3"):
        satisfies_odd_cycle_condition(g)
    assert "occ" not in g._facts
    monkeypatch.setattr(rees, "OCC_STEP_LIMIT", limit)
    assert satisfies_odd_cycle_condition(g)
    assert len(runs) == 2
    monkeypatch.setattr(rees, "OCC_STEP_LIMIT", 3)
    with pytest.raises(InstanceTooLargeError, match="OCC_STEP_LIMIT = 3"):
        satisfies_odd_cycle_condition(g)
    monkeypatch.setattr(rees, "OCC_STEP_LIMIT", 10)
    assert is_rees_normal(g)
    assert len(runs) == 2
