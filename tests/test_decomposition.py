from __future__ import annotations

import random

import pytest

from reesreg import (
    Graph,
    InstanceTooLargeError,
    complete,
    complete_bipartite,
    connected_components,
    cycle,
    deficiency,
    disjoint_union,
    gallai_edmonds,
    independent_sets,
    induced_subgraph,
    is_factor_critical,
    is_konig,
    is_tutte_berge,
    matching_number,
    max_independent_set,
    neighbor_set,
    paper_example,
    path,
    random_graph,
    tutte_berge_bruteforce,
    tutte_berge_witness,
)
import reesreg.matching
from reesreg.corpus import all_graphs, exhaustive_graphs
from reesreg.graphs import is_bipartite, neighbor_mask
from reesreg.matching import Matching
from reference import (
    gallai_edmonds_by_deletion,
    is_factor_critical_by_deletion,
    tutte_berge_witness_by_subsets,
)


def test_example_graph_decomposition():
    ge = gallai_edmonds(paper_example())
    assert ge.d_set == (1, 2)
    assert ge.a_set == (3,)
    assert ge.c_set == (4, 5, 6, 7)
    assert ge.d_components == ((1,), (2,))


def test_cycle_decompositions():
    ge = gallai_edmonds(cycle(5))
    assert ge.d_set == (1, 2, 3, 4, 5)
    assert ge.a_set == ()
    assert ge.c_set == ()
    assert ge.d_components == ((1, 2, 3, 4, 5),)
    ge4 = gallai_edmonds(cycle(4))
    assert ge4.d_set == ()
    assert ge4.c_set == (1, 2, 3, 4)


def test_isolated_vertex_lands_in_d():
    g = Graph.from_edges(5, [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (1, 4)])
    ge = gallai_edmonds(g)
    assert ge.d_set == (5,)
    assert ge.a_set == ()
    assert ge.c_set == (1, 2, 3, 4)


def test_deficiency():
    assert deficiency(cycle(4)) == 0
    assert deficiency(cycle(5)) == 1
    assert deficiency(path(3)) == 1
    assert deficiency(Graph.from_edges(4, [])) == 4
    assert deficiency(paper_example()) == 1


def test_tutte_berge_families():
    for g in (path(2), path(5), cycle(4), cycle(6), complete_bipartite(2, 3)):
        assert is_tutte_berge(g)
    for g in (cycle(3), cycle(5), complete(5), complete(7)):
        assert not is_tutte_berge(g)
    assert is_tutte_berge(paper_example())
    assert is_tutte_berge(Graph.from_edges(3, []))


def test_bruteforce_returns_first_witness_in_stream_order():
    w = tutte_berge_bruteforce(cycle(4))
    assert w is not None
    assert w.t_set == ()
    assert w.deficiency == 0
    w3 = tutte_berge_bruteforce(path(3))
    assert w3 is not None
    assert w3.t_set == (1, 3)
    assert w3.deficiency == 1
    assert tutte_berge_bruteforce(cycle(5)) is None


def test_bruteforce_guard():
    with pytest.raises(InstanceTooLargeError):
        tutte_berge_bruteforce(Graph.from_edges(21, []))


def test_witness_agrees_with_bruteforce_exhaustively():
    for g in all_graphs(5):
        brute = tutte_berge_bruteforce(g)
        constructed = tutte_berge_witness(g)
        assert (brute is None) == (constructed is None)
        assert (brute is None) == (not is_tutte_berge(g))
        for w in (brute, constructed):
            if w is None:
                continue
            t = w.t_set
            assert w.deficiency == deficiency(g)
            assert all(not g.has_edge(u, v) for i, u in enumerate(t) for v in t[i + 1 :])
            assert len(t) == len(neighbor_set(g, t)) + w.deficiency


def _bruteforce_t_set(g: Graph):
    w = tutte_berge_bruteforce(g)
    if w is None:
        return None
    assert w.deficiency == deficiency(g)
    return w.t_set


def test_bruteforce_matches_subset_reference_exhaustively():
    for g in exhaustive_graphs(6):
        assert _bruteforce_t_set(g) == tutte_berge_witness_by_subsets(g), g


def test_bruteforce_matches_subset_reference_sparse_seeded():
    # Sparse G(n, c/n) up to n = 14 leaves many vertices unmatched, so the
    # search starts at deficiencies well above 1.  47 of these 300 graphs
    # are not Tutte-Berge, so the walk's |N(T)| cut must find nothing on
    # them, and on the rest the same first witness as the subset walk.
    rng = random.Random(1411)
    seen = set()
    for _ in range(300):
        n = rng.randint(7, 14)
        g = random_graph(n, rng.uniform(0.5, 3.0) / n, seed=rng.randrange(1 << 30))
        t_set = _bruteforce_t_set(g)
        assert t_set == tutte_berge_witness_by_subsets(g), g
        seen.add((min(deficiency(g), 2), t_set is None))
    assert {(2, False), (2, True)} <= seen
    # One more stratum: 20 graphs with n = 15..17 that are not Tutte-Berge
    # and have deficiency >= 2.  The search must walk every size up to its
    # stop at (n + deficiency) // 2 and still find nothing.
    rng = random.Random(1416)
    stratum = 0
    while stratum < 20:
        n = rng.randint(15, 17)
        g = random_graph(n, rng.uniform(0.5, 3.0) / n, seed=rng.randrange(1 << 30))
        if deficiency(g) < 2 or is_tutte_berge(g):
            continue
        stratum += 1
        assert _bruteforce_t_set(g) is None
        assert tutte_berge_witness_by_subsets(g) is None, g


def test_bruteforce_meets_a_wrong_deficiency_exactly():
    # A stored matching one edge too large makes the deficiency read 2 too
    # small.  The search must still return the first T that meets the
    # deficiency it read, as the subset reference does (both read the
    # stored matching), and its stop at (n + deficiency) // 2 still holds.
    wrong = 0
    for g in exhaustive_graphs(6):
        matching, d_mask, flat = reesreg.matching._matching(g)
        if not matching.edges or g.n - 2 * matching.size < 2:
            continue
        g._facts["matching"] = (Matching(matching.edges + matching.edges[:1]), d_mask, flat)
        t_set = _bruteforce_t_set(g)
        assert t_set == tutte_berge_witness_by_subsets(g), g
        wrong += t_set is not None
    assert wrong


def test_witness_for_disjoint_union():
    g = disjoint_union(paper_example(), cycle(4))
    w = tutte_berge_witness(g)
    assert w is not None
    assert w.t_set == (1, 2, 8, 10)
    assert w.deficiency == 1


def _random_bipartite(rng: random.Random, a: int, b: int, p: float) -> Graph:
    """G(a, b, p) with its vertices shuffled, so the sides interleave."""
    perm = list(range(1, a + b + 1))
    rng.shuffle(perm)
    edges = [
        (perm[u - 1], perm[a + w - 1])
        for u in range(1, a + 1)
        for w in range(1, b + 1)
        if rng.random() < p
    ]
    return Graph.from_edges(a + b, edges)


def test_witness_of_bipartite_graph_is_first_max_independent_set():
    for g in exhaustive_graphs(6):
        if is_bipartite(g):
            assert tutte_berge_witness(g).t_set == max_independent_set(g), g
    rng = random.Random(1616)
    for _ in range(300):
        a = rng.randint(1, 10)
        g = _random_bipartite(rng, a, rng.randint(1, 16 - a), rng.uniform(0.05, 0.6))
        assert tutte_berge_witness(g).t_set == max_independent_set(g), g


def _parts_witness(g: Graph) -> tuple[int, ...]:
    """The witness assembled part by part from brute force: D of each
    non-bipartite component that meets D, and `max_independent_set` of each
    bipartite component of G and of G[C] within those components."""
    ge = gallai_edmonds(g)
    picked: list[int] = []

    def first_max_independent(labels) -> None:
        sub, back = induced_subgraph(g, labels)
        picked.extend(back[v] for v in max_independent_set(sub))

    for comp in connected_components(g):
        sub, _ = induced_subgraph(g, comp)
        d = [v for v in comp if v in ge.d_set]
        if is_bipartite(sub):
            first_max_independent(comp)
        elif d:
            picked.extend(d)
            c_sub, c_back = induced_subgraph(g, [v for v in comp if v in ge.c_set])
            for part in connected_components(c_sub):
                if is_bipartite(induced_subgraph(c_sub, part)[0]):
                    first_max_independent([c_back[v] for v in part])
    return tuple(sorted(picked))


def test_witness_of_every_small_tutte_berge_graph_is_assembled_from_parts():
    # Non-bipartite graphs whose witness takes some vertex of C(G).
    c_parts = 0
    for g in exhaustive_graphs(6):
        w = tutte_berge_witness(g)
        if w is None:
            continue
        assert w.t_set == _parts_witness(g), g
        c_parts += not is_bipartite(g) and bool(set(w.t_set) & set(gallai_edmonds(g).c_set))
    assert c_parts > 100


def test_decomposition_contract_small():
    for g in all_graphs(5):
        ge = gallai_edmonds(g)
        d, a, c = set(ge.d_set), set(ge.a_set), set(ge.c_set)
        assert d | a | c == set(g.vertices)
        assert not (d & a or d & c or a & c)
        assert set(neighbor_set(g, ge.d_set)) - d == a
        assert 2 * matching_number(g) == g.n - len(ge.d_components) + len(a)
        for comp in ge.d_components:
            assert set(comp) <= d


def test_tutte_berge_means_singleton_d_components():
    for g in all_graphs(5):
        ge = gallai_edmonds(g)
        assert is_tutte_berge(g) == all(len(comp) == 1 for comp in ge.d_components)


def test_bruteforce_empty_witness_iff_perfect_matching():
    for g in all_graphs(4):
        w = tutte_berge_bruteforce(g)
        if deficiency(g) == 0:
            assert w is not None
            assert w.t_set == ()
        elif w is not None:
            assert len(w.t_set) > 0


def test_witness_sets_are_independent_in_stream():
    g = cycle(6)
    stream = list(independent_sets(g))
    assert stream[0] == ()
    w = tutte_berge_bruteforce(g)
    assert w is not None and w.t_set == stream[0]


def test_decomposition_matches_deletion_reference_seeded():
    rng = random.Random(16)
    for _ in range(400):
        n = rng.randint(1, 16)
        g = random_graph(n, rng.uniform(0.05, 0.6), seed=rng.randrange(1 << 30))
        assert gallai_edmonds(g) == gallai_edmonds_by_deletion(g), g
        assert is_factor_critical(g) == is_factor_critical_by_deletion(g), g


def _relabel(g: Graph, rng: random.Random) -> Graph:
    perm = list(g.vertices)
    rng.shuffle(perm)
    return Graph.from_edges(g.n, [(perm[u - 1], perm[v - 1]) for u, v in g.edges])


def _hung(k: int, stems: list[tuple[int, int]]) -> Graph:
    """The cycle 1..k with a path of `length` new vertices hung at `at`,
    for each (at, length) in `stems`."""
    edges = [(i, i % k + 1) for i in range(1, k + 1)]
    n = k
    for at, length in stems:
        for _ in range(length):
            n += 1
            edges.append((at, n))
            at = n
    return Graph.from_edges(n, edges)


def _blossom_shapes() -> list[Graph]:
    bowtie = Graph.from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    dumbbell = Graph.from_edges(
        7, [(1, 2), (1, 3), (2, 3), (3, 4), (4, 5), (5, 6), (5, 7), (6, 7)]
    )
    return [
        cycle(5),
        bowtie,
        dumbbell,
        _hung(3, [(1, 1)]),
        _hung(3, [(1, 2)]),
        _hung(3, [(1, 3)]),
        _hung(3, [(1, 2), (2, 2)]),
        _hung(5, [(1, 1)]),
        _hung(5, [(1, 2)]),
        _hung(5, [(1, 1), (3, 2)]),
        _hung(7, [(2, 2)]),
    ]


def test_decomposition_of_blossoms_hung_off_paths_under_relabeling(monkeypatch):
    # D is read off the failed searches of the one blossom run.  Under these
    # labels a low root's search often fails (its blossom's base is matched
    # into a stem) before a higher root augments along a path beside its
    # tree; that later flip must leave the failed tree and its root alone.
    outcomes = []
    search = reesreg.matching._try_augment

    def recorded(g, mate, root, parent, base):
        used = search(g, mate, root, parent, base)
        outcomes.append(used is not None)
        return used

    monkeypatch.setattr(reesreg.matching, "_try_augment", recorded)
    rng = random.Random(41)
    fail_then_augment = 0
    for shape in _blossom_shapes():
        for _ in range(40):
            g = _relabel(shape, rng)
            outcomes.clear()
            ge = gallai_edmonds(g)
            if False in outcomes and True in outcomes[outcomes.index(False):]:
                fail_then_augment += 1
            assert ge == gallai_edmonds_by_deletion(g), g
            assert is_factor_critical(g) == is_factor_critical_by_deletion(g), g
    assert fail_then_augment >= 20


def _flag_is_edge_free_d(g: Graph) -> bool:
    _, d_mask, flat = reesreg.matching._matching(g)
    assert flat == (not neighbor_mask(g, d_mask) & d_mask), g
    return flat


def test_blossom_flag_says_whether_d_holds_an_edge():
    # The blossom run's flag (no failed search contracted a blossom) must
    # say exactly whether no edge has both ends in D: on every graph with
    # n <= 6, on the blossoms hung off paths under relabeling, and on
    # sparse graphs up to n = 200.
    for n in range(7):
        for g in all_graphs(n):
            _flag_is_edge_free_d(g)
    rng = random.Random(43)
    for shape in _blossom_shapes():
        for _ in range(40):
            _flag_is_edge_free_d(_relabel(shape, rng))
    rng = random.Random(2003)
    flags = set()
    for _ in range(500):
        n = rng.randint(7, 200)
        g = random_graph(n, rng.uniform(0.5, 4.0) / n, seed=rng.randrange(1 << 30))
        flags.add(_flag_is_edge_free_d(g))
    assert flags == {True, False}


def test_singleton_d_components_merge_in_label_order():
    # D's singletons skip the component search and are merged with the
    # searched components by smallest member.  The labels put the one
    # non-singleton component of D first, between singletons and last.
    # Vertex 7 of the first shape is isolated: its search has no tree.
    paw_star = Graph.from_edges(  # leaves 2, 3 and the triangle 4-5-6 on 1
        7, [(1, 2), (1, 3), (1, 4), (4, 5), (4, 6), (5, 6)]
    )
    star_c5 = Graph.from_edges(  # leaves 2, 3, 4 and the 5-cycle 5..9 on 1
        9, [(1, 2), (1, 3), (1, 4), (1, 5), (5, 6), (6, 7), (7, 8), (8, 9), (9, 5)]
    )
    rng = random.Random(43)
    places = set()
    for shape in (paw_star, star_c5):
        for _ in range(150):
            g = _relabel(shape, rng)
            ge = gallai_edmonds(g)
            assert ge == gallai_edmonds_by_deletion(g), g
            assert ge.d_components == tuple(sorted(ge.d_components)), g
            sizes = [len(c) for c in ge.d_components]
            assert sorted(sizes)[:-1] == [1] * (len(sizes) - 1) and max(sizes) > 1, g
            big = sizes.index(max(sizes))
            places.add("first" if big == 0 else "last" if big == len(sizes) - 1 else "between")
    assert places == {"first", "between", "last"}


def test_networkx_cross_check_large():
    nx = pytest.importorskip("networkx")
    rng = random.Random(200)
    for i in range(80):
        n = rng.randint(20, 40) if i % 2 else rng.randint(41, 200)
        g = random_graph(n, rng.uniform(0.5, 4.0) / n, seed=rng.randrange(1 << 30))
        ref = nx.Graph()
        ref.add_nodes_from(g.vertices)
        ref.add_edges_from(g.edges)
        mat = matching_number(g)
        assert mat == len(nx.max_weight_matching(ref, maxcardinality=True)), g
        ge = gallai_edmonds(g)
        assert 2 * mat == g.n - len(ge.d_components) + len(ge.a_set), g
        if n <= 40:
            assert ge == gallai_edmonds_by_deletion(g), g
    # Konig's theorem: every bipartite graph has the Konig property.
    for i in range(40):
        n = rng.randint(20, 40) if i % 2 else rng.randint(41, 200)
        a = rng.randint(n // 4, n - n // 4)
        g = _random_bipartite(rng, a, n - a, rng.uniform(1.0, 8.0) / n)
        assert is_konig(g), g
