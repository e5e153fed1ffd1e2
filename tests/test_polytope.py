from __future__ import annotations

import hashlib
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reesreg import (
    Graph,
    InstanceTooLargeError,
    InternalInvariantError,
    NoOddCycleError,
    canonical_point,
    complete,
    complete_bipartite,
    compute_q0,
    cone_graph,
    cycle,
    disjoint_union,
    fundamental_independent_sets,
    halfspace_system,
    interior_lattice_points,
    is_bipartite,
    is_fundamental_independent_set,
    is_regular_vertex,
    is_rees_normal,
    is_tutte_berge,
    lattice_points,
    matching_number,
    neighbor_set,
    paper_example,
    path,
    point_membership,
    random_graph,
    reduction_move,
    regularity,
    verify_normality_small,
)
from reference import lattice_points_by_composition, strict_at_some_edge
from reesreg import polytope
from reesreg.corpus import all_graphs, exhaustive_graphs, random_graphs
from reesreg.decomposition import INDEPENDENT_ENUM_LIMIT
from reesreg.graphs import (
    _independent_of_size,
    components_within,
    labels_of,
    mask_is_bipartite,
    mask_of,
)
from reesreg.matching import Matching
from reesreg.polytope import (
    UNIT_COORDINATE_SUM,
    HalfSpaceSystem,
    OracleResult,
    _SearchIndex,
    _cone_constraints,
    _cone_system,
    _index_masks,
    _strict_somewhere,
)
from reesreg.rees import RegularityStatus


def test_cone_graph_shape():
    star = cone_graph(cycle(3))
    assert star == complete(4)
    star5 = cone_graph(path(2))
    assert star5.n == 3
    assert star5.edges == ((1, 2), (1, 3), (2, 3))
    lonely = cone_graph(Graph.from_edges(2, []))
    assert lonely.edges == ((1, 3), (2, 3))


def test_regular_vertices_examples():
    k4 = complete(4)
    assert all(is_regular_vertex(k4, v) for v in k4.vertices)
    k3 = complete(3)
    assert not any(is_regular_vertex(k3, v) for v in k3.vertices)
    wheel = cone_graph(cycle(4))
    assert not is_regular_vertex(wheel, 5)
    assert all(is_regular_vertex(wheel, v) for v in (1, 2, 3, 4))


def test_apex_regular_iff_every_component_has_odd_cycle():
    for g in all_graphs(4):
        star = cone_graph(g)
        all_odd = all(
            not mask_is_bipartite(g, comp)
            for comp in components_within(g, g.full_mask)
        )
        assert is_regular_vertex(star, g.n + 1) == all_odd


def test_fundamental_sets_frozen_examples():
    assert fundamental_independent_sets(cycle(4)) == ((1, 3), (2, 4))
    assert fundamental_independent_sets(complete(4)) == ((1,), (2,), (3,), (4,))
    assert fundamental_independent_sets(complete(3)) == ((1,), (2,), (3,))
    assert is_fundamental_independent_set(cycle(4), (1, 3))
    assert not is_fundamental_independent_set(cycle(4), (1,))
    # B_H(T) is the single vertex 4, which is connected; K_3 is left over.
    assert is_fundamental_independent_set(
        disjoint_union(complete(3), Graph.from_edges(1, [])), (4,)
    )
    assert not is_fundamental_independent_set(cycle(4), ())
    assert not is_fundamental_independent_set(cycle(4), (1, 2))


@pytest.mark.parametrize("v", [0, 4, -1])
def test_fundamental_set_test_rejects_labels_outside_the_graph(v):
    # As in is_regular_vertex, a label outside 1..n is an error, not an
    # answer: 0 would read as a set with no neighbors, 4 as an index past
    # the adjacency and -1 as a negative shift.
    with pytest.raises(ValueError, match=f"vertex {v} not in 1..3"):
        is_fundamental_independent_set(cycle(3), (v,))


def test_fundamental_sets_stop_at_the_first_empty_size():
    # The general build walks independent sets up to the first empty size;
    # it keeps what a walk over every size 1..n keeps, in the same order.
    for g in exhaustive_graphs(6):
        every_size = tuple(
            t
            for k in range(1, g.n + 1)
            for t in (labels_of(m) for m, _ in _independent_of_size(g, k))
            if is_fundamental_independent_set(g, t)
        )
        assert fundamental_independent_sets(g) == every_size, g


def test_apex_is_always_fundamental():
    for g in all_graphs(4):
        star = cone_graph(g)
        assert is_fundamental_independent_set(star, (g.n + 1,))
        assert (g.n + 1,) in fundamental_independent_sets(star)


def test_witness_is_fundamental_in_cone_for_example():
    g = paper_example()
    assert is_fundamental_independent_set(cone_graph(g), (1, 2))


@pytest.mark.parametrize(
    ("left", "right"),
    [
        (cycle(3), cycle(3)),
        (cycle(3), path(1)),
        (path(1), path(1)),
        (cycle(3), path(2)),
    ],
)
def test_fundamental_sets_of_union_cone_contain_part_unions(left, right):
    star = cone_graph(disjoint_union(left, right))
    fund = set(fundamental_independent_sets(star))
    for t1 in fundamental_independent_sets(left):
        for t2 in fundamental_independent_sets(right):
            combined = tuple(sorted(t1 + tuple(v + left.n for v in t2)))
            assert combined in fund


def test_halfspace_rejects_bipartite():
    with pytest.raises(NoOddCycleError):
        halfspace_system(cycle(4))
    with pytest.raises(NoOddCycleError):
        halfspace_system(cone_graph(Graph.from_edges(3, [])))


def test_halfspace_triangle_has_no_coordinate_constraints():
    system = halfspace_system(complete(3))
    assert system.ambient_n == 3
    assert system.coord_constraints == ()
    assert system.set_constraints == (
        ((1,), (2, 3)),
        ((2,), (1, 3)),
        ((3,), (1, 2)),
    )


def test_halfspace_cone_of_triangle():
    system = halfspace_system(complete(4))
    assert system.coord_constraints == (1, 2, 3, 4)
    assert [t for t, _ in system.set_constraints] == [(1,), (2,), (3,), (4,)]


def test_implicit_equality_guard_fires():
    # A path component next to a triangle: T = {2} (and T = {1, 3}) hold
    # with equality on every edge, which halfspace_system must refuse,
    # naming the first in system order.
    g = Graph.from_edges(6, [(1, 2), (2, 3), (4, 5), (4, 6), (5, 6)])
    with pytest.raises(InternalInvariantError, match=r"T = \(2,\) is an implicit"):
        halfspace_system(g)


def test_implicit_equality_guard_matches_edge_scan():
    # The guard's mask test against the edge scan, on (T, N) pairs that
    # need not come from a system: T may have an edge inside, and T and N
    # may meet.
    rng = random.Random(77)
    kinds = set()
    for _ in range(3000):
        n = rng.randint(1, 9)
        g = random_graph(n, rng.random(), seed=rng.randrange(1 << 30))
        t = tuple(v for v in g.vertices if rng.random() < 0.4)
        if rng.random() < 0.5:
            nb = neighbor_set(g, t)
        else:
            nb = tuple(v for v in g.vertices if rng.random() < 0.5)
        strict = strict_at_some_edge(g, t, nb)
        assert _strict_somewhere(g.adj_bits, mask_of(t), mask_of(nb)) == strict, (g, t, nb)
        kinds.add((bool(set(t) & set(nb)), strict))
    assert kinds == {(False, False), (False, True), (True, False), (True, True)}


def test_edge_points_contained_at_unit_dilation():
    for g in exhaustive_graphs(4):
        if g.m == 0:
            continue
        star = cone_graph(g)
        system = halfspace_system(star)
        for u, v in star.edges:
            p = [0] * star.n
            p[u - 1] += 1
            p[v - 1] += 1
            assert point_membership(system, 1, tuple(p))


def test_point_membership_validation():
    system = halfspace_system(complete(4))
    assert not point_membership(system, 1, (1, 1, 1, 0))
    with pytest.raises(ValueError):
        point_membership(system, 0, (0, 0, 0, 0))
    with pytest.raises(ValueError):
        point_membership(system, 1, (1, 1))


@pytest.mark.parametrize(
    "coords, sets, label",
    [
        ((0,), (), 0),
        ((3,), (), 3),
        ((1,), (((5,), (1,)),), 5),
        ((), (((1,), (2, -1)),), -1),
        ((1, 3), (((5,), ()),), 3),
    ],
)
def test_halfspace_system_rejects_labels_outside_the_ambient(coords, sets, label):
    # A label outside 1..ambient_n would be read as another coordinate,
    # ignored, or fail with a bare IndexError; the first one is named.
    with pytest.raises(ValueError, match=rf"^label {label} not in 1\.\.2$"):
        HalfSpaceSystem(2, coords, sets)
    assert HalfSpaceSystem(2, (1, 2), (((1,), (2,)),)).ambient_n == 2


@pytest.mark.parametrize("q", [0, -1, 1.5, 2.0, True, "2", None])
def test_dilation_must_be_an_integer_at_least_one(q):
    # A float or a bool is not rounded or taken as q = 1.
    system = halfspace_system(complete(4))
    for call in (lattice_points, interior_lattice_points):
        with pytest.raises(ValueError, match="dilation q must be an integer >= 1"):
            call(system, q)
    with pytest.raises(ValueError, match="dilation q must be an integer >= 1"):
        point_membership(system, q, (1, 1, 1, 1))


def test_strictness_matches_interior_filter():
    # The strict points, filtered out of a brute-force walk of every point.
    system = halfspace_system(complete(4))
    for q in (1, 2, 3):
        alls = lattice_points_by_composition(system, q, strict=False)
        assert list(alls) == sorted(alls)
        strict = [p for p in alls if point_membership(system, q, p, strict=True)]
        assert list(interior_lattice_points(system, q)) == strict


@st.composite
def _hand_built_systems(draw):
    # A system on 1..n, n <= 5, with any listed coordinates and zero to four
    # set constraints (T, N) on any subsets: N may be empty, T and N may
    # meet, and the last N coordinate, which floors the search there, may
    # be any coordinate, so the search backs up into levels it skipped.
    n = draw(st.integers(min_value=1, max_value=5))
    subsets = st.sets(st.integers(min_value=1, max_value=n)).map(lambda s: tuple(sorted(s)))
    coords = draw(subsets)
    sets = draw(st.lists(st.tuples(subsets, subsets), max_size=4))
    return HalfSpaceSystem(ambient_n=n, coord_constraints=coords, set_constraints=tuple(sets))


@settings(max_examples=400, deadline=None)
@given(_hand_built_systems())
def test_search_matches_composition_walk_on_hand_built_systems(system):
    for q in (1, 2, 3):
        assert lattice_points(system, q) == lattice_points_by_composition(system, q, strict=False)
        assert interior_lattice_points(system, q) == lattice_points_by_composition(system, q, strict=True)


def test_oracle_builds_the_lists_of_two_coordinates(monkeypatch):
    # On a cone every set constraint but {apex}'s ends its N at the apex,
    # and {apex}'s at vertex n, so the search starts at vertex n with every
    # coordinate before it at 0.  On these graphs it never backs up past
    # vertex n, and only vertex n and the apex get their lists built.
    indexes = []
    index_masks = polytope._index_masks

    def keep(*args):
        indexes.append(index_masks(*args))
        return indexes[-1]

    monkeypatch.setattr(polytope, "_index_masks", keep)
    for g in (paper_example(), cycle(5)):
        compute_q0(g)
        built = [i + 1 for i, lists in enumerate(indexes[-1].plus) if lists is not None]
        assert built == [g.n, g.n + 1], g


def _sparse_systems():
    # The cones of seeded sparse G(n, c/n) with n = 5..7 (ambient 6..8),
    # and the general systems of non-bipartite G(n, c/n) with n = 5..7,
    # which are no cones.  A general system with an implicit equality is
    # refused at its build and skipped.
    rng = random.Random(17)
    cones, general = [], []
    while len(cones) < 16 or len(general) < 16:
        n = rng.randint(5, 7)
        g = random_graph(n, rng.uniform(1.0, 4.0) / n, seed=rng.randrange(1 << 30))
        if len(cones) < 16 and g.m:
            cones.append(halfspace_system(cone_graph(g)))
        elif len(general) < 16 and not is_bipartite(g):
            try:
                general.append(halfspace_system(g))
            except InternalInvariantError:
                continue
    assert {s.ambient_n for s in cones} == {6, 7, 8}
    assert {s.ambient_n for s in general} == {5, 6, 7}
    return cones + general


def test_search_matches_composition_walk_small():
    # Every point and every interior point of the first dilations, against
    # the walk that tests each composition of 2q: at q <= 3 on the cone of
    # every graph up to 4 vertices and on the triangle's own system (not a
    # cone, with no coordinate constraints), and at q <= 4 on seeded sparse
    # systems, where the search backtracks through wide intervals.
    systems = [(halfspace_system(cone_graph(g)), 3) for g in exhaustive_graphs(4) if g.m]
    systems.append((halfspace_system(complete(3)), 3))
    systems += [(system, 4) for system in _sparse_systems()]
    found = [0, 0]
    for system, q_max in systems:
        for q in range(1, q_max + 1):
            points = lattice_points(system, q)
            interior = interior_lattice_points(system, q)
            assert points == lattice_points_by_composition(system, q, strict=False), (system, q)
            assert interior == lattice_points_by_composition(system, q, strict=True), (system, q)
            found[0] += len(points)
            found[1] += len(interior)
    assert min(found) > 1000, found


def test_cone_system_matches_general_build_small():
    for g in exhaustive_graphs(4):
        if g.m == 0:
            with pytest.raises(NoOddCycleError):
                _cone_system(g)
            continue
        assert _cone_system(g) == halfspace_system(cone_graph(g)), g


def test_cone_system_matches_general_build_sparse_seeded():
    # Sparse G(n, c/n) past the exhaustive range, a third of them at
    # c = 2.3, where most graphs are normal and q0 is near n.  The general
    # build tests every independent set of the cone graph, where the cone
    # build walks options per component of g.
    rng = random.Random(5)
    for i in range(900):
        n = rng.randint(7, 12)
        c = 2.3 if i % 3 == 0 else rng.uniform(1.0, 4.0)
        g = random_graph(n, c / n, seed=rng.randrange(1 << 30))
        if g.m:
            assert _cone_system(g) == halfspace_system(cone_graph(g)), g


def _built(index: _SearchIndex) -> _SearchIndex:
    # The index with every coordinate's lists built, as a search that
    # entered every level would leave it.
    for i in range(len(index.listed)):
        index.level(i)
    return index


def _renumbered(index: _SearchIndex) -> tuple:
    # The index up to the numbering of its set constraints: the listed
    # coordinates, and per constraint its balance, its last N coordinate
    # and the coordinates at which each list holds it, in sorted order.
    sig = [[b, last] for b, last in zip(index.balance, index.last_n)]
    _built(index)
    per_coordinate = (index.floor_at, index.plus, index.minus, index.spend, index.spend2, index.cap)
    for per_i in per_coordinate:
        for s in sig:
            s.append([])
        for i, cs in enumerate(per_i):
            for c in cs:
                sig[c][-1].append(i)
    return index.listed, sorted(map(repr, sig))


def _oracle_inputs():
    # Every graph with n <= 6, then seeded sparse G(n, c/n) with
    # n = 7..11, a third of them at c = 2.3, where q0 is near n.
    yield from exhaustive_graphs(6)
    rng = random.Random(15)
    for i in range(1500):
        n = rng.randint(7, 11)
        c = 2.3 if i % 3 == 0 else rng.uniform(1.0, 4.0)
        yield random_graph(n, c / n, seed=rng.randrange(1 << 30))


# sha256 of (n, edges, q0, interior witness) over the oracle's graphs among
# `_oracle_inputs`, one repr per line, so that a changed witness fails here
# and not only in the benchmark digests.
ORACLE_DIGEST = "4877fb604f1fbe4a43e8ce727805784038cda701fa5938de21e2a8c01126420f"


def test_mask_native_oracle_matches_the_dilation_loop():
    # The oracle searches an index built from the cone's masks, in their
    # own order, and starts at the first dilation its precheck admits.  It
    # must find what the public search finds dilation by dilation on the
    # listed system, and its index must be the system's up to the
    # numbering of the set constraints (exactly the system's, numbered in
    # the system's order), once every level of both is built.  Its outputs
    # are pinned by ORACLE_DIGEST.
    cells = set()
    digest = hashlib.sha256()
    for g in _oracle_inputs():
        if g.m < 2 or not is_rees_normal(g):
            continue
        system = _cone_system(g)
        for q in range(1, g.n + 2):
            points = interior_lattice_points(system, q)
            if points:
                break
        assert compute_q0(g) == OracleResult(q0=q, interior_witness=points[0], reg=g.n + 1 - q), g
        digest.update(repr((g.n, g.edges, q, points[0])).encode() + b"\n")
        coords, pairs = _cone_constraints(g)
        index = _index_masks(g.n + 1, mask_of(coords), pairs)
        assert _renumbered(index) == _renumbered(system._search_index), g
        in_order = sorted(pairs, key=lambda tn: (tn[0].bit_count(), labels_of(tn[0])))
        assert _built(_index_masks(g.n + 1, mask_of(coords), in_order)) == system._search_index, g
        cells.add((g.n, q))
    # q0 takes at least four values at each n past the exhaustive range.
    for n in range(7, 12):
        assert len({q for m, q in cells if m == n}) >= 4, sorted(cells)
    assert digest.hexdigest() == ORACLE_DIGEST


def test_interior_frozen_for_cone_of_triangle():
    system = halfspace_system(complete(4))
    assert interior_lattice_points(system, 1) == ()
    assert interior_lattice_points(system, 2) == ((1, 1, 1, 1),)


def test_enumeration_guard():
    system = halfspace_system(complete(3))
    with pytest.raises(InstanceTooLargeError):
        lattice_points(system, 13)
    big = halfspace_system(complete(13))
    with pytest.raises(InstanceTooLargeError):
        lattice_points(big, 1)
    with pytest.raises(ValueError):
        lattice_points(system, 0)


def test_point_budget(monkeypatch):
    # Every enumeration counts its points and raises on the first one past
    # ENUM_POINT_LIMIT.  The oracle stops at its first interior point, so
    # it never meets the budget.
    system = halfspace_system(complete(4))
    points = lattice_points(system, 2)
    interior = interior_lattice_points(system, 3)
    assert len(points) > 1 and interior
    monkeypatch.setattr(polytope, "ENUM_POINT_LIMIT", len(points))
    assert lattice_points(system, 2) == points
    monkeypatch.setattr(polytope, "ENUM_POINT_LIMIT", len(points) - 1)
    with pytest.raises(InstanceTooLargeError, match="ENUM_POINT_LIMIT"):
        lattice_points(system, 2)
    monkeypatch.setattr(polytope, "ENUM_POINT_LIMIT", len(interior) - 1)
    with pytest.raises(InstanceTooLargeError, match="ENUM_POINT_LIMIT"):
        interior_lattice_points(system, 3)
    monkeypatch.setattr(polytope, "ENUM_POINT_LIMIT", 0)
    assert compute_q0(cycle(5)) == OracleResult(
        q0=3, interior_witness=(1, 1, 1, 1, 1, 1), reg=3
    )


def test_independent_set_walks_are_guarded():
    # The fundamental sets come from a walk over every independent set, so
    # the general builds refuse a graph past INDEPENDENT_ENUM_LIMIT, after
    # the bipartite check.
    big = complete(INDEPENDENT_ENUM_LIMIT + 1)
    with pytest.raises(InstanceTooLargeError, match="enumeration limit"):
        halfspace_system(big)
    with pytest.raises(InstanceTooLargeError, match="enumeration limit"):
        fundamental_independent_sets(big)
    with pytest.raises(NoOddCycleError):
        halfspace_system(path(INDEPENDENT_ENUM_LIMIT + 1))
    at = complete(INDEPENDENT_ENUM_LIMIT)
    assert fundamental_independent_sets(at) == tuple((v,) for v in at.vertices)
    assert halfspace_system(at).coord_constraints == tuple(at.vertices)


def test_oracle_guard_runs_before_the_halfspace_build():
    # The build enumerates every independent set of the cone graph, which
    # would not finish on these inputs.
    for g in (cycle(40), complete_bipartite(50, 50)):
        start = time.perf_counter()
        with pytest.raises(InstanceTooLargeError, match="ambient <= 12"):
            compute_q0(g)
        assert time.perf_counter() - start < 1.0
    # The preconditions keep their errors on large inputs.
    with pytest.raises(ValueError, match="at least two edges") as exc:
        compute_q0(Graph.from_edges(30, [(1, 2)]))
    assert type(exc.value) is ValueError
    two_triangles = disjoint_union(complete(3), disjoint_union(complete(3), path(10)))
    with pytest.raises(ValueError, match="normal Rees algebra") as exc:
        compute_q0(two_triangles)
    assert type(exc.value) is ValueError


def test_sums_of_edge_vectors_are_members():
    rng = random.Random(5)
    for g in (cycle(5), paper_example(), complete(5)):
        star = cone_graph(g)
        system = halfspace_system(star)
        for q in (1, 2, 3, 4):
            for _ in range(5):
                p = [0] * star.n
                for u, v in rng.choices(star.edges, k=q):
                    p[u - 1] += 1
                    p[v - 1] += 1
                assert sum(p) == UNIT_COORDINATE_SUM * q
                assert point_membership(system, q, tuple(p))


@pytest.mark.parametrize(
    "g,q0,reg",
    [
        (complete(3), 2, 2),
        (cycle(5), 3, 3),
        (cycle(7), 4, 4),
        (paper_example(), 5, 3),
    ],
)
def test_oracle_frozen_values(g, q0, reg):
    res = compute_q0(g)
    assert res.q0 == q0
    assert res.reg == reg
    system = halfspace_system(cone_graph(g))
    assert point_membership(system, res.q0, res.interior_witness, strict=True)
    if res.q0 > 1:
        assert interior_lattice_points(system, res.q0 - 1) == ()


def test_oracle_preconditions():
    with pytest.raises(ValueError):
        compute_q0(path(2))
    with pytest.raises(ValueError):
        compute_q0(disjoint_union(cycle(3), cycle(3)))


def test_oracle_matches_formula_small():
    # The pruned search must return what a brute-force scan of each dilation
    # finds: no interior point below q0, and the lexicographically first one
    # at q0.
    for g in exhaustive_graphs(5):
        res = regularity(g)
        if res.status is not RegularityStatus.COMPUTED:
            continue
        oracle = compute_q0(g)
        assert oracle.reg == res.reg
        assert oracle.q0 <= g.n + 1 - matching_number(g)
        system = halfspace_system(cone_graph(g))
        at_q0 = lattice_points_by_composition(system, oracle.q0, strict=True)
        assert oracle.interior_witness == at_q0[0]
        if oracle.q0 > 1:
            below = lattice_points_by_composition(system, oracle.q0 - 1, strict=True)
            assert below == ()


def test_a_wrong_stored_matching_cannot_make_the_oracle_agree_wrongly():
    # The oracle reads mat(G) from the graph's stored blossom run, for its
    # bound q <= n + 1 - mat.  A smaller stored matching raises the bound
    # and leaves q0 as it is.  A larger one lowers the bound by one: a
    # Tutte-Berge graph has q0 at the bound, so its search raises, and any
    # other graph has q0 one below and keeps it.
    for g in exhaustive_graphs(5):
        res = regularity(g)
        if res.status is not RegularityStatus.COMPUTED:
            continue
        oracle = compute_q0(g)
        matching, d_mask = g._facts["matching"]
        smaller = Graph(g.n, g.edges)
        smaller._facts["matching"] = (Matching(matching.edges[:-1]), d_mask)
        assert compute_q0(smaller) == oracle, g
        larger = Graph(g.n, g.edges)
        larger._facts["matching"] = (Matching(matching.edges + matching.edges[:1]), d_mask)
        if res.tutte_berge:
            with pytest.raises(InternalInvariantError, match="bound"):
                compute_q0(larger)
        else:
            assert compute_q0(larger) == oracle, g


def test_oracle_matches_formula_seeded_up_to_ambient_limit():
    # n = 9..11 reaches the ambient guard (the cone graph has n + 1 <= 12
    # vertices), past the exhaustive and brute-force checks.
    big = [g for g in random_graphs(11, 1100, seed=1) if g.n >= 9]
    assert len(big) >= 250
    computed = 0
    for g in big:
        res = regularity(g)
        if res.status is not RegularityStatus.COMPUTED:
            continue
        oracle = compute_q0(g)
        assert oracle.reg == res.reg, (g.n, g.edges)
        computed += 1
    assert computed >= 200


def _q0_by_milp(system) -> int:
    """The least k with an integer point x of coordinate sum 2k that is >= 1
    at the listed coordinates and meets every set constraint strictly, by
    scipy's mixed-integer solver."""
    import numpy as np
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = system.ambient_n
    # Variables x_1..x_n, then k.
    rows = [[1] * n + [-UNIT_COORDINATE_SUM]]
    lower, upper = [0], [0]
    for t, nb in system.set_constraints:
        row = [0] * (n + 1)
        for v in nb:
            row[v - 1] = 1
        for v in t:
            row[v - 1] = -1
        rows.append(row)
        lower.append(1)
        upper.append(np.inf)
    lb = [-np.inf] * n + [1]
    for v in system.coord_constraints:
        lb[v - 1] = 1
    res = milp(
        c=[0] * n + [1],
        constraints=LinearConstraint(np.array(rows), lower, upper),
        integrality=np.ones(n + 1),
        bounds=Bounds(lb, np.inf),
    )
    assert res.success, res.message
    return round(res.x[-1])


def test_oracle_matches_milp_seeded_up_to_ambient_limit():
    # An independent q0 reference past brute-force scale, on the graphs of
    # the seeded test above.  Coordinates without a listed constraint are
    # left unbounded, so the system alone keeps them nonnegative.
    pytest.importorskip("scipy", exc_type=ImportError)
    checked = 0
    for g in random_graphs(11, 1100, seed=1):
        if g.n < 9 or regularity(g).status is not RegularityStatus.COMPUTED:
            continue
        system = halfspace_system(cone_graph(g))
        assert compute_q0(g).q0 == _q0_by_milp(system), (g.n, g.edges)
        checked += 1
    assert checked >= 200


def test_reduction_move():
    assert reduction_move((1, 1, 1, 1), 2) == (1, 0, 1, 2)
    assert reduction_move((2, 0, 0, 3), 1) == (1, 0, 0, 4)
    with pytest.raises(ValueError):
        reduction_move((1, 0, 1, 1), 2)
    with pytest.raises(ValueError):
        reduction_move((1, 1, 1, 1), 4)
    with pytest.raises(ValueError):
        reduction_move((1, 1, 1, 1), 0)


def test_canonical_point_examples():
    q, p = canonical_point(paper_example())
    assert (q, p) == (4, (1, 1, 1, 1, 1, 1, 1, 1))
    system = halfspace_system(cone_graph(paper_example()))
    assert point_membership(system, q, p)
    assert not point_membership(system, q, p, strict=True)
    q5, p5 = canonical_point(cycle(5))
    assert (q5, p5) == (3, (1, 1, 1, 1, 1, 1))
    system5 = halfspace_system(cone_graph(cycle(5)))
    assert point_membership(system5, q5, p5, strict=True)


def test_canonical_point_strict_iff_not_tutte_berge_small():
    for g in all_graphs(4):
        if g.m < 2 or not is_rees_normal(g):
            continue
        q, p = canonical_point(g)
        system = halfspace_system(cone_graph(g))
        assert point_membership(system, q, p)
        if g.n > 2 * matching_number(g):
            assert point_membership(system, q, p, strict=True) == (
                not is_tutte_berge(g)
            )


def test_verify_normality_guards():
    with pytest.raises(ValueError):
        verify_normality_small(cycle(3), q_max=0)
    with pytest.raises(ValueError):
        verify_normality_small(cycle(3), q_max=5)
    with pytest.raises(InstanceTooLargeError):
        verify_normality_small(Graph.from_edges(9, [(1, 2)]))


def test_verify_normality_examples():
    assert verify_normality_small(Graph.from_edges(4, []))
    assert verify_normality_small(cycle(5))
    assert verify_normality_small(paper_example())
    assert not verify_normality_small(disjoint_union(cycle(3), cycle(3)))


def test_verify_normality_agrees_small():
    for g in exhaustive_graphs(4):
        assert verify_normality_small(g, q_max=3) == is_rees_normal(g)
