from __future__ import annotations

import hashlib
import random
from functools import partial
from itertools import islice

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
from reesreg.graphs import (
    components_within,
    is_bipartite,
    labels_of,
    mask_is_bipartite,
    mask_of,
    neighbor_mask,
)
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
# on labels 1..n; the test permutes the labels so that the start of a cycle
# (its first vertex by degree, ties by label) falls anywhere in the graph.


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


def _peeled(g: Graph, mask: int) -> int:
    # The 2-core of g[mask], one round of removals at a time.
    while True:
        drop = [v for v in labels_of(mask) if (g.adj_bits[v] & mask).bit_count() < 2]
        if not drop:
            return mask
        mask &= ~mask_of(drop)


def test_odd_cycle_condition_with_pendant_trees():
    # An odd cycle, a bowtie, or two triangles joined by an edge (these
    # pass) or by a path of two edges (this fails), with trees hung off
    # them up to n = 12.  The first tree starts with a path of two, so
    # that the degree filter of stages 1 and 2 drops its leaves and the
    # 2-core peel before stage 3 drops the vertex next to the cycle.
    triangles = [(1, 2), (2, 3), (1, 3), (4, 5), (5, 6), (4, 6)]
    shapes = [
        (3, [(1, 2), (2, 3), (1, 3)]),
        (5, [(v, v % 5 + 1) for v in range(1, 6)]),
        (7, [(v, v % 7 + 1) for v in range(1, 8)]),
        (5, [(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)]),
        (6, triangles + [(3, 4)]),
        (7, triangles + [(3, 7), (7, 4)]),
    ]
    rng = random.Random(1965)
    seen = set()
    for _ in range(150):
        n, edges = rng.choice(shapes)
        edges = edges + [(rng.randint(1, n), n + 1), (n + 1, n + 2)]
        size = rng.randint(n + 2, 12)
        edges += [(rng.randint(1, v - 1), v) for v in range(n + 3, size + 1)]
        perm = list(range(1, size + 1))
        rng.shuffle(perm)
        g = Graph.from_edges(size, [(perm[u - 1], perm[v - 1]) for u, v in edges])
        cyclic = mask_of(v for v in g.vertices if g.degree(v) >= 2)
        assert cyclic != g.full_mask
        comp = next(c for c in components_within(g, cyclic) if not mask_is_bipartite(g, c))
        loose = comp & neighbor_mask(g, g.full_mask & ~cyclic)
        core = rees._two_core(g, comp, loose)
        assert core == rees._two_core(g, comp, comp) == _peeled(g, comp), g
        assert core == mask_of(perm[:n]) != comp, g
        occ = rees._odd_cycle_condition(g)[0]
        assert occ == satisfies_odd_cycle_condition_pairwise(g), g
        seen.add(occ)
    assert seen == {True, False}


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


def _one_cycle(k: int, hang: str, rng: random.Random) -> Graph:
    # C_k on 1..k.  "leaves" hangs single leaves off some of its vertices,
    # so that the first non-bipartite component of G[deg >= 2] stays the
    # cycle (stage 1b decides).  "trees" hangs a pendant path of two and
    # then a random tree, so that the component is more than the cycle and
    # only its 2-core is (the core check decides).
    edges = [(v, v % k + 1) for v in range(1, k + 1)]
    n = k
    if hang == "leaves":
        for v in rng.sample(range(1, k + 1), rng.randint(1, k)):
            n += 1
            edges.append((v, n))
    elif hang == "trees":
        edges += [(rng.randint(1, k), n + 1), (n + 1, n + 2)]
        n += 2
        for v in range(n + 1, n + rng.randint(1, 8) + 1):
            edges.append((rng.randint(1, v - 1), v))
            n = v
    return Graph.from_edges(n, edges)


def _relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(1, g.n + 1))
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


@pytest.mark.parametrize("hang", ["none", "leaves", "trees"])
def test_odd_cycle_condition_on_one_cycle_beside_another_component(hang):
    # One odd cycle, beside K_3, C_4, C_5 or P_4 placed before or after it,
    # so that label order decides which component is the first
    # non-bipartite one.  One cycle decides at once: no path grows.
    rng = random.Random(30)
    seen = set()
    for k in range(3, 22, 2):
        for other in (complete(3), cycle(4), cycle(5), path(4)):
            one = _one_cycle(k, hang, rng)
            for g in (disjoint_union(one, other), disjoint_union(other, one)):
                for h in (g, _relabeled(g, rng), _relabeled(g, rng)):
                    answer = satisfies_odd_cycle_condition_pairwise(h)
                    assert rees._odd_cycle_condition(h) == (answer, 0), h
                    seen.add(answer)
    assert seen == {True, False}


def _raises(*args):
    raise AssertionError("stage reached")


def test_one_cycle_is_decided_before_stages_2_and_3(monkeypatch):
    # A 2-regular first non-bipartite component is answered in stage 1b,
    # from the components after it; a 2-core that is one cycle before
    # stage 3 starts.
    monkeypatch.setattr(rees, "_chordless_search", _raises)
    walks = []
    monkeypatch.setattr(rees, "_walk_refutes", lambda *args: walks.append(args))
    trees = _one_cycle(9, "trees", random.Random(3))
    assert rees._odd_cycle_condition(disjoint_union(trees, path(4))) == (True, 0)
    assert len(walks) == 1
    monkeypatch.setattr(rees, "_walk_refutes", _raises)
    assert rees._odd_cycle_condition(disjoint_union(cycle(7), path(5))) == (True, 0)
    assert rees._odd_cycle_condition(disjoint_union(path(5), cycle(7))) == (True, 0)
    assert rees._odd_cycle_condition(disjoint_union(cycle(7), complete(3))) == (False, 0)
    leaves = _one_cycle(7, "leaves", random.Random(3))
    assert rees._odd_cycle_condition(disjoint_union(leaves, cycle(4))) == (True, 0)


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


def _grid_with_hub() -> Graph:
    # The graph of the CI step: the 9 x 9 grid on 1..81, row by row, and a
    # hub 82 joined to the grid vertices v with (v - 1) % 7 == 0.  Every odd
    # cycle passes through the hub.
    edges = [(v, v + 1) for v in range(1, 82) if v % 9]
    edges += [(v, v + 9) for v in range(1, 73)]
    edges += [(v, 82) for v in range(1, 82, 7)]
    return Graph.from_edges(82, edges)


def test_odd_cycle_condition_hard_inputs_within_a_small_budget(monkeypatch):
    # Inputs on which enumerating every chordless odd cycle takes from a
    # tenth of a second to minutes; the pruned search needs few paths.
    monkeypatch.setattr(rees, "OCC_STEP_LIMIT", 10_000)
    k50 = complete_bipartite(50, 50)
    plus_edge = Graph.from_edges(100, list(k50.edges) + [(1, 2)])
    hub = _grid_with_hub()
    for g, expected in (
        (cycle(321), True),
        (complete(24), True),
        (plus_edge, True),
        (_bipartite_plus_triangle(), True),
        (random_graph(320, 1.5 / 320, seed=1), False),
        (hub, True),
    ):
        assert satisfies_odd_cycle_condition(g) is expected, g.n
    # The hub has the highest degree, so stage 3 starts there, and the grid
    # after it is bipartite: no path grows.  A search that started in label
    # order would grow more than OCC_STEP_LIMIT = 1,000,000 paths.
    assert hub._facts["occ"] == (True, 0)


def test_odd_cycle_condition_refutes_a_late_violation_before_a_path_grows(monkeypatch):
    # Stage 3 alone grows 4,050 induced paths here before it closes a
    # violating cycle; stage 2b refutes the graph at its first start.
    monkeypatch.setattr(rees, "OCC_STEP_LIMIT", 1_000)
    g = random_graph(125, 2.276953395757811 / 125, seed=304711988)
    assert not satisfies_odd_cycle_condition(g)
    assert g._facts["occ"] == (False, 0)


def test_far_side_refutation_keeps_every_passing_search(monkeypatch):
    # Stage 2b only refutes.  Without it every graph keeps its answer, and
    # a passing graph keeps the induced paths its search grew, which the
    # step budget replays.
    rng = random.Random(19)
    graphs = [g for n in range(7) for g in all_graphs(n)]
    for i in range(800):
        n = rng.randint(7, 40)
        c = rng.uniform(2.2, 2.4) if i % 2 else rng.uniform(1.0, 4.0)
        graphs.append(random_graph(n, min(1.0, c / n), seed=rng.randrange(1 << 30)))
    found = [rees._odd_cycle_condition(g) for g in graphs]
    monkeypatch.setattr(rees, "_far_side_refutes", lambda g, comp, live: False)
    refuted = 0
    for g, (answer, steps) in zip(graphs, found):
        without = rees._odd_cycle_condition(g)
        if answer:
            assert without == (True, steps), g
        else:
            assert without[0] is False, g
            refuted += without[1] != steps
    # The stream holds violations that stage 2b refutes before stage 3
    # finds them.
    assert refuted > 0


def _stage_3_pool() -> list[Graph]:
    # Every graph with n <= 6 (33,868 of them), then seeded dense G(n, p)
    # in the classify range and seeded sparse G(n, c/n).
    graphs = [g for n in range(7) for g in all_graphs(n)]
    rng = random.Random(31)
    for _ in range(600):
        n = rng.randint(7, 31)
        graphs.append(random_graph(n, rng.uniform(0.1, 0.5), seed=rng.randrange(1 << 30)))
    for _ in range(600):
        n = rng.randint(7, 60)
        c = rng.uniform(1.0, 4.0)
        graphs.append(random_graph(n, min(1.0, c / n), seed=rng.randrange(1 << 30)))
    return graphs


# What `_odd_cycle_condition` returned on the pool above, before stage 2b's
# first try moved ahead of the block pass: the sha256 of the repr of the
# list of (answer, steps if answer else None), and the paths grown on each
# failing graph that grew any, by index past the n <= 6 graphs.
_STAGE_3_POOL_DIGEST = "e76265e5421bd3c97667a6e9f83bf76acf9e045896dd3fc93b891b9ab1fe1a17"
_STAGE_3_POOL_FAILING_STEPS = {
    5: 3, 11: 12, 20: 3, 41: 3, 51: 3, 69: 4, 76: 1, 77: 6, 92: 2, 93: 5, 97: 2,
    104: 1, 107: 2, 112: 6, 114: 2, 119: 7, 125: 3, 128: 6, 130: 3, 134: 2, 145: 1,
    146: 5, 149: 2, 160: 8, 175: 6, 190: 2, 207: 5, 209: 11, 218: 1, 220: 5,
    223: 29, 227: 8, 234: 1, 237: 7, 243: 1, 262: 1, 272: 4, 294: 2, 308: 3, 320: 7,
    329: 3, 332: 4, 336: 4, 339: 4, 350: 3, 373: 1, 381: 35, 383: 11, 400: 2,
    406: 11, 414: 7, 424: 1, 435: 1, 446: 2, 454: 1, 455: 5, 464: 4, 475: 4, 480: 8,
    481: 1, 482: 1, 500: 1, 503: 12, 505: 15, 517: 16, 524: 4, 525: 2, 572: 1,
    573: 9, 589: 4, 598: 2, 607: 40, 656: 57, 672: 3, 675: 1, 676: 1, 697: 1,
    700: 115, 711: 14, 713: 5, 718: 12, 730: 92, 753: 1, 836: 29, 890: 8, 915: 96,
    928: 5, 929: 6, 938: 27, 972: 23, 978: 15, 979: 71, 990: 40, 993: 88, 995: 27,
    1018: 5, 1124: 8, 1153: 30, 1172: 9,
}


def test_stage_3_order_keeps_answers_and_passing_searches(monkeypatch):
    # Within a start, stage 3 finds the odd part beyond N[s] before it
    # tests the later vertices for bipartiteness, and tries stage 2b at the
    # first start with an odd part, before the block pass.  Every answer
    # and every passing search stays as it was, and no failing graph grows
    # more paths.
    graphs = _stage_3_pool()
    found = [rees._odd_cycle_condition(g) for g in graphs]
    shown = repr([(answer, steps if answer else None) for answer, steps in found])
    assert hashlib.sha256(shown.encode()).hexdigest() == _STAGE_3_POOL_DIGEST
    small = len(graphs) - 1200
    for i, (answer, steps) in enumerate(found):
        if not answer:
            assert steps <= _STAGE_3_POOL_FAILING_STEPS.get(i - small, 0), graphs[i]
    # A graph that the first try refutes never reaches the block pass.
    tries = []
    far = rees._far_side_refutes

    def recorded(*args):
        tries.append(far(*args))
        return tries[-1]

    monkeypatch.setattr(rees, "_far_side_refutes", recorded)
    monkeypatch.setattr(rees, "_blocks", _raises)
    refuted = 0
    for g, (answer, steps) in zip(graphs, found):
        del tries[:]
        try:
            assert rees._odd_cycle_condition(g) == (answer, steps)
        except AssertionError as err:
            assert str(err) == "stage reached" and tries == [False], g
            continue
        refuted += tries == [True]
        assert tries in ([], [True]), g
    assert refuted > 20


def _sparse_pool() -> list[Graph]:
    # 3,000 seeded sparse G(n, c/n) with n = 7..200 and c in [1, 4].
    rng = random.Random(28)
    graphs = []
    for _ in range(3000):
        n = rng.randint(7, 200)
        c = rng.uniform(1.0, 4.0)
        graphs.append(random_graph(n, min(1.0, c / n), seed=rng.randrange(1 << 30)))
    return graphs


# The sha256 of the repr of the list of (answer, steps) that
# `_odd_cycle_condition` returned on the pool above while stage 2b could
# still be tried a second time, at the first start that grew paths.  Only
# graphs 412 and 1976 were seen to reach that try, and both pass.
_SPARSE_POOL_DIGEST = "8ed5de539d5801b9a5afc81dfc9dfe452f5622755540222035f00151a7957e67"


def test_stage_2b_is_tried_at_most_once_and_keeps_every_answer(monkeypatch):
    tries = []
    far = rees._far_side_refutes

    def recorded(*args):
        tries.append(far(*args))
        return tries[-1]

    monkeypatch.setattr(rees, "_far_side_refutes", recorded)
    sparse = _sparse_pool()
    found = []
    for g in _stage_3_pool() + sparse:
        del tries[:]
        found.append(rees._odd_cycle_condition(g))
        assert len(tries) <= 1, g
    found = found[-len(sparse):]
    assert hashlib.sha256(repr(found).encode()).hexdigest() == _SPARSE_POOL_DIGEST
    assert (found[412], found[1976]) == ((True, 3), (True, 8))


def test_odd_cycle_condition_step_budget(monkeypatch, tmp_path, capsys):
    # Passes the first two stages and grows 6 induced paths in the third.
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


def test_odd_cycle_condition_matches_networkx_chordless_cycles():
    # Two vertex-disjoint odd cycles with no edge between them contain two
    # chordless odd cycles with the same property, so the condition fails
    # exactly when two of networkx's chordless odd cycles C, C' have C'
    # outside N[C].  A graph with more than `cap` of them is skipped.
    nx = pytest.importorskip("networkx")
    cap = 400
    rng = random.Random(20)
    answers = []
    for _ in range(300):
        n = rng.randint(12, 40)
        c = rng.choice([1.5, 2.3, 2.3, 3.0, 4.0])
        g = random_graph(n, c / n, seed=rng.randrange(1 << 30))
        ref = nx.Graph()
        ref.add_nodes_from(g.vertices)
        ref.add_edges_from(g.edges)
        odd = list(islice((set(cyc) for cyc in nx.chordless_cycles(ref) if len(cyc) % 2), cap + 1))
        if len(odd) > cap:
            continue
        closed = [cyc.union(*(ref[v] for v in cyc)) for cyc in odd]
        violated = any(
            closed[i].isdisjoint(odd[j]) for i in range(len(odd)) for j in range(i + 1, len(odd))
        )
        assert satisfies_odd_cycle_condition(g) == (not violated), g
        answers.append(not violated)
    assert len(answers) >= 250
    assert set(answers) == {True, False}
