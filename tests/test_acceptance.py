"""Full-scale verification runs.

Each numbered test sweeps one agreed check at its full scale and registers a
single pass/fail summary line (see conftest).  Module test files keep quick
reduced-scale variants; the heavy exhaustive loops all live here, so this
file takes several minutes while the rest of the suite stays fast.
"""

from __future__ import annotations

import random

import pytest

from conftest import record_acceptance
from reference import (
    gallai_edmonds_by_deletion,
    is_factor_critical_by_deletion,
    matching_number_bruteforce,
    satisfies_odd_cycle_condition_pairwise,
)
from reesreg import (
    Graph,
    RegularityStatus,
    build_report,
    canonical_point,
    complete,
    compute_q0,
    cone_graph,
    corpus_run,
    cycle,
    disjoint_union,
    gallai_edmonds,
    halfspace_system,
    interior_lattice_points,
    is_factor_critical,
    is_fundamental_independent_set,
    is_konig,
    is_rees_normal,
    is_tutte_berge,
    matching_number,
    max_independent_set,
    max_matching,
    paper_example,
    point_membership,
    reduction_move,
    regularity,
    satisfies_odd_cycle_condition,
    tutte_berge_witness,
    verify_normality_small,
)
from reesreg.corpus import exhaustive_graphs, random_graphs
from reesreg.polytope import _cone_system
from reesreg.graphs import (
    components_within,
    induced_subgraph,
    is_bipartite,
    iter_chordless_odd_cycles,
    labels_of,
    mask_of,
)


def _gap_and_alpha(g: Graph) -> tuple[int, int]:
    """Max of |T| - |N(T)| over independent sets T, and the independence
    number, in one DFS over the independent-set tree."""
    adj = g.adj_bits
    n = g.n
    best_gap = 0
    alpha = 0

    def rec(start: int, size: int, nb: int) -> None:
        nonlocal best_gap, alpha
        gap = size - nb.bit_count()
        if gap > best_gap:
            best_gap = gap
        if size > alpha:
            alpha = size
        for v in range(start, n + 1):
            if not (nb >> v & 1):
                rec(v + 1, size + 1, nb | adj[v])

    rec(1, 0, 0)
    return best_gap, alpha


def _ge_violations(g: Graph, ge, matching, mat: int) -> list[str]:
    """Names of the decomposition contract items violated by one graph."""
    bad = []
    d_set = set(ge.d_set)
    a_set = set(ge.a_set)
    c_set = set(ge.c_set)
    comp_of = {}
    for comp in ge.d_components:
        sub, _ = induced_subgraph(g, comp)
        if len(comp) % 2 == 0 or not is_factor_critical_by_deletion(sub):
            bad.append("ge_item1")
        for v in comp:
            comp_of[v] = comp
    c_sub, _ = induced_subgraph(g, ge.c_set)
    if 2 * matching_number(c_sub) != c_sub.n:
        bad.append("ge_item2")
    if 2 * mat != g.n - len(ge.d_components) + len(a_set):
        bad.append("ge_item4")
    mate = {}
    for u, v in matching.edges:
        mate[u] = v
        mate[v] = u
    used_components = set()
    for x in ge.a_set:
        w = mate.get(x)
        if w is None or w not in d_set or comp_of[w] in used_components:
            bad.append("ge_item3")
            continue
        used_components.add(comp_of[w])
    if any(mate.get(x) not in c_set for x in ge.c_set):
        bad.append("ge_item3")
    for comp in ge.d_components:
        intra = sum(1 for u, v in matching.edges if u in comp and v in comp)
        matched_out = [v for v in comp if v in mate and mate[v] not in comp]
        if intra != (len(comp) - 1) // 2:
            bad.append("ge_item3")
        if len(matched_out) > 1 or any(mate[v] not in a_set for v in matched_out):
            bad.append("ge_item3")
    return bad


def _bucket_problems(buckets: dict[str, list], keys: tuple[str, ...]) -> list[str]:
    out = []
    for k in keys:
        if buckets[k]:
            out.append(f"{k}: {len(buckets[k])} violations, first: {buckets[k][0]!r}")
    return out


@pytest.fixture(scope="module")
def corpus_six():
    return corpus_run(max_n=6)


@pytest.fixture(scope="module")
def sweep_seven():
    """One pass over every labeled graph with n <= 7.

    Collects, per graph: the independent-set bound gap, the independence
    number against max_independent_set, bipartiteness against chordless odd
    cycles, Tutte-Berge status of bipartite graphs, and the factor-critical
    neighborhood bound.
    """
    buckets: dict[str, list] = {
        "ind_set_bound": [],
        "fc_bound": [],
        "alpha": [],
        "bipartite_chordless": [],
        "bipartite_tb": [],
    }
    graphs = 0
    fc_count = 0
    for g in exhaustive_graphs(7):
        graphs += 1
        mat = matching_number(g)
        gap, alpha = _gap_and_alpha(g)
        if gap > g.n - 2 * mat:
            buckets["ind_set_bound"].append(g)
        if alpha != len(max_independent_set(g)):
            buckets["alpha"].append(g)
        bip = is_bipartite(g)
        if bip == (next(iter_chordless_odd_cycles(g), None) is not None):
            buckets["bipartite_chordless"].append(g)
        if bip and not is_tutte_berge(g):
            buckets["bipartite_tb"].append(g)
        if g.n > 1 and g.n % 2 == 1 and 2 * mat == g.n - 1 and is_factor_critical(g):
            fc_count += 1
            if gap != 0:
                buckets["fc_bound"].append(g)
    return {"buckets": buckets, "graphs": graphs, "fc_count": fc_count}


@pytest.fixture(scope="module")
def sweep_six():
    """One pass over every labeled graph with n <= 6: the decomposition
    contract on the matching actually returned, the decomposition and the
    factor-critical test against their vertex-deletion references, the
    Konig test against the brute-force independence number, the odd cycle
    condition against the pairwise scan, the perfect-matching and Konig
    specializations, and the matching additivity, component and
    inheritance lemmas over every vertex split."""
    mat_memo: dict[Graph, int] = {}
    tb_memo: dict[Graph, bool] = {}

    def mat_of(g: Graph) -> int:
        r = mat_memo.get(g)
        if r is None:
            r = matching_number(g)
            mat_memo[g] = r
        return r

    def tb_of(g: Graph) -> bool:
        r = tb_memo.get(g)
        if r is None:
            r = is_tutte_berge(g)
            tb_memo[g] = r
        return r

    buckets: dict[str, list] = {
        name: []
        for name in (
            "ge_item1",
            "ge_item2",
            "ge_item3",
            "ge_item4",
            "ge_reference",
            "fc_reference",
            "konig_reference",
            "occ_reference",
            "pm_lemma",
            "pm_konig_tb",
            "component_lemma",
            "subadditivity",
            "split_matching",
            "inheritance",
        )
    }
    graphs = 0
    for g in exhaustive_graphs(6):
        graphs += 1
        mat = mat_of(g)
        ge = gallai_edmonds(g)
        matching = max_matching(g)
        for name in set(_ge_violations(g, ge, matching, mat)):
            buckets[name].append(g)
        if ge != gallai_edmonds_by_deletion(g):
            buckets["ge_reference"].append(g)
        if is_factor_critical(g) != is_factor_critical_by_deletion(g):
            buckets["fc_reference"].append(g)
        tb = all(len(c) == 1 for c in ge.d_components)
        tb_memo[g] = tb

        # Tutte-Berge with no isolated vertex inside D forces D to be empty.
        d_mask = mask_of(ge.d_set)
        if tb and ge.d_set and all(g.adj_bits[v] & d_mask for v in ge.d_set):
            buckets["pm_lemma"].append(g)

        konig = len(max_independent_set(g)) + mat == g.n
        if is_konig(g) != konig:
            buckets["konig_reference"].append(g)
        if g.m >= 2:
            pm = 2 * mat == g.n
            if (pm or konig) and not tb:
                buckets["pm_konig_tb"].append(g)
        if satisfies_odd_cycle_condition(g) != satisfies_odd_cycle_condition_pairwise(g):
            buckets["occ_reference"].append(g)

        full = g.full_mask
        comps = components_within(g, full)
        parts_tb = all(
            tb_of(induced_subgraph(g, labels_of(c))[0]) for c in comps
        )
        if tb != parts_tb:
            buckets["component_lemma"].append(g)

        for raw in range(1 << g.n):
            u_mask = raw << 1
            if not (u_mask & 2):
                continue
            g1, back1 = induced_subgraph(g, labels_of(u_mask))
            g2, back2 = induced_subgraph(g, labels_of(full & ~u_mask))
            m1, m2 = mat_of(g1), mat_of(g2)
            if m1 + m2 > mat:
                buckets["subadditivity"].append((g, u_mask))
                continue
            if m1 + m2 != mat:
                continue
            edges = [(back1[u], back1[v]) for u, v in max_matching(g1).edges]
            edges += [(back2[u], back2[v]) for u, v in max_matching(g2).edges]
            covered: set[int] = set()
            ok = len(edges) == mat
            for u, v in edges:
                if not g.has_edge(u, v) or u in covered or v in covered:
                    ok = False
                    break
                covered.update((u, v))
            if not ok:
                buckets["split_matching"].append((g, u_mask))
            if tb and not (tb_of(g1) and tb_of(g2)):
                buckets["inheritance"].append((g, u_mask))
    return {"buckets": buckets, "graphs": graphs}


@pytest.fixture(scope="module")
def polytope_six():
    """One pass over every labeled graph with n <= 6 and at least one edge,
    building the cone-graph half-space system and checking: edge-point
    containment at q = 1, sampled sums of edge vectors, the canonical point
    (membership always, strictness exactly off the Tutte-Berge class), the
    reduction move on every strict-interior point, fundamentality of the
    constructed witness, and that the oracle's system read off g equals
    the general build on the cone graph."""
    rng = random.Random(12)
    buckets: dict[str, list] = {
        name: []
        for name in (
            "vertex_containment",
            "sum_edges",
            "reduction",
            "canonical_member",
            "canonical_strict",
            "witness_fundamental",
            "cone_system",
        )
    }
    graphs = 0
    moves = 0
    for g in exhaustive_graphs(6):
        res = regularity(g)
        normal = res.status is not RegularityStatus.NOT_NORMAL
        mat = res.mat
        deficient = g.n > 2 * mat

        if normal and res.tutte_berge and deficient:
            w = tutte_berge_witness(g)
            if (
                w is None
                or not w.t_set
                or not is_fundamental_independent_set(cone_graph(g), w.t_set)
            ):
                buckets["witness_fundamental"].append(g)

        if g.m == 0:
            continue
        graphs += 1
        star = cone_graph(g)
        system = halfspace_system(star)
        if _cone_system(g) != system:
            buckets["cone_system"].append(g)

        for u, v in star.edges:
            p = [0] * star.n
            p[u - 1] += 1
            p[v - 1] += 1
            if not point_membership(system, 1, tuple(p)):
                buckets["vertex_containment"].append((g, (u, v)))

        for q in (2, 3):
            p = [0] * star.n
            for u, v in rng.choices(star.edges, k=q):
                p[u - 1] += 1
                p[v - 1] += 1
            if not point_membership(system, q, tuple(p)):
                buckets["sum_edges"].append((g, tuple(p)))

        q, p = canonical_point(g)
        if not point_membership(system, q, p):
            buckets["canonical_member"].append(g)
        if res.status is RegularityStatus.COMPUTED:
            if deficient and point_membership(system, q, p, strict=True) == (
                res.tutte_berge
            ):
                buckets["canonical_strict"].append(g)
            for qq in range(1, g.n):
                for a in interior_lattice_points(system, qq):
                    for i in range(1, g.n + 1):
                        if a[i - 1] >= 2:
                            moves += 1
                            b = reduction_move(a, i)
                            if not point_membership(system, qq, b, strict=True):
                                buckets["reduction"].append((g, qq, a, i))
    return {"buckets": buckets, "graphs": graphs, "moves": moves}


def test_criterion_1_formula_matches_lattice_oracle(corpus_six):
    name = "1. closed form == lattice oracle, exhaustive n <= 6"
    problems: list[str] = []
    detail = ""
    try:
        bad = [f for f in corpus_six.failures if f.check == "regularity"]
        if bad:
            problems.append(f"{len(bad)} disagreements, first: {bad[0]}")
        if corpus_six.graphs_tested != 33867:
            problems.append(f"expected 33867 graphs, saw {corpus_six.graphs_tested}")
        if corpus_six.normal_count != 33857:
            problems.append(f"expected 33857 normal, saw {corpus_six.normal_count}")
        detail = f"{corpus_six.graphs_tested} graphs, {len(bad)} disagreements"
    except Exception as exc:
        problems.append(f"unexpected error: {exc!r}")
        raise
    finally:
        record_acceptance(name, not problems, detail)
    assert not problems, "; ".join(problems)


def test_criterion_2_tutte_berge_matches_bruteforce(corpus_six):
    name = "2. fast Tutte-Berge test == witness search, n <= 6 + random n <= 8"
    problems: list[str] = []
    detail = ""
    try:
        bad = [f for f in corpus_six.failures if f.check == "tutte_berge"]
        if bad:
            problems.append(f"exhaustive: {len(bad)} disagreements, first: {bad[0]}")
        if corpus_six.tutte_berge_count != 30661:
            problems.append(
                f"expected 30661 tutte-berge, saw {corpus_six.tutte_berge_count}"
            )
        sampled = corpus_run(max_n=8, random_samples=10_000, seed=1)
        if sampled.graphs_tested != 10_000:
            problems.append(f"expected 10000 random graphs, saw {sampled.graphs_tested}")
        if sampled.failures:
            problems.append(
                f"random: {len(sampled.failures)} failures, first: {sampled.failures[0]}"
            )
        detail = (
            f"{corpus_six.graphs_tested} exhaustive + {sampled.graphs_tested} random"
        )
    except Exception as exc:
        problems.append(f"unexpected error: {exc!r}")
        raise
    finally:
        record_acceptance(name, not problems, detail)
    assert not problems, "; ".join(problems)


def test_criterion_3_odd_cycles():
    name = "3. odd cycles C3..C11: reg = mat + 1, oracle confirms C3, C5, C7"
    problems: list[str] = []
    try:
        for k, expected in ((3, 2), (5, 3), (7, 4), (9, 5), (11, 6)):
            res = regularity(cycle(k))
            if res.status is not RegularityStatus.COMPUTED:
                problems.append(f"C{k}: status {res.status}")
                continue
            if res.tutte_berge or res.reg != expected or res.reg != res.mat + 1:
                problems.append(f"C{k}: got {res}")
        for k in (3, 5, 7):
            oracle = compute_q0(cycle(k))
            if oracle.reg != (k + 1) // 2:
                problems.append(f"C{k} oracle: got {oracle}")
    except Exception as exc:
        problems.append(f"unexpected error: {exc!r}")
        raise
    finally:
        record_acceptance(name, not problems, "reg = 2, 3, 4, 5, 6")
    assert not problems, "; ".join(problems)


def test_criterion_4_complete_graphs():
    name = "4. complete graphs K3, K5, K7: not Tutte-Berge, reg = mat + 1"
    problems: list[str] = []
    try:
        for k, expected in ((3, 2), (5, 3), (7, 4)):
            res = regularity(complete(k))
            if res.status is not RegularityStatus.COMPUTED:
                problems.append(f"K{k}: status {res.status}")
                continue
            if res.tutte_berge or res.reg != expected or res.reg != res.mat + 1:
                problems.append(f"K{k}: got {res}")
    except Exception as exc:
        problems.append(f"unexpected error: {exc!r}")
        raise
    finally:
        record_acceptance(name, not problems, "reg = 2, 3, 4")
    assert not problems, "; ".join(problems)


def test_criterion_5_reference_example():
    name = "5. built-in 7-vertex example: full classification regression"
    problems: list[str] = []
    try:
        r = build_report(paper_example(), with_oracle=True, with_witness=True)
        expected = {
            "tutte_berge": True,
            "konig": False,
            "perfect_matching": False,
            "mat": 3,
            "ge_d": (1, 2),
            "ge_a": (3,),
            "ge_c": (4, 5, 6, 7),
        }
        for field_name, want in expected.items():
            got = getattr(r, field_name)
            if got != want:
                problems.append(f"{field_name}: expected {want}, got {got}")
        if r.regularity.reg != 3:
            problems.append(f"reg: expected 3, got {r.regularity.reg}")
        if r.oracle is None or r.oracle.q0 != 5 or r.oracle.reg != 3:
            problems.append(f"oracle: expected q0=5 reg=3, got {r.oracle}")
        if r.tb_witness != (1, 2):
            problems.append(f"witness: expected (1, 2), got {r.tb_witness}")
    except Exception as exc:
        problems.append(f"unexpected error: {exc!r}")
        raise
    finally:
        record_acceptance(name, not problems, "mat 3, reg 3, q0 5")
    assert not problems, "; ".join(problems)


def test_criterion_6_gallai_edmonds_contract(sweep_six):
    name = "6. Gallai-Edmonds contract, exhaustive n <= 6 + random n <= 10"
    problems: list[str] = []
    detail = ""
    try:
        problems.extend(
            _bucket_problems(
                sweep_six["buckets"],
                (
                    "ge_item1",
                    "ge_item2",
                    "ge_item3",
                    "ge_item4",
                    "ge_reference",
                    "fc_reference",
                ),
            )
        )
        sampled = 0
        for g in random_graphs(10, 10_000, seed=6):
            sampled += 1
            mat = matching_number(g)
            bad = _ge_violations(g, gallai_edmonds(g), max_matching(g), mat)
            if bad:
                problems.append(f"random graph {g!r}: {sorted(set(bad))}")
        detail = f"{sweep_six['graphs']} exhaustive + {sampled} random"
    except Exception as exc:
        problems.append(f"unexpected error: {exc!r}")
        raise
    finally:
        record_acceptance(name, not problems, detail)
    assert not problems, "; ".join(problems[:10])


def test_criterion_7_lemma_suite(sweep_seven, sweep_six, polytope_six):
    name = "7. lemma suite (bounds, additivity, reduction, canonical point)"
    problems: list[str] = []
    detail = ""
    try:
        problems.extend(
            _bucket_problems(sweep_seven["buckets"], ("ind_set_bound", "fc_bound"))
        )
        problems.extend(
            _bucket_problems(
                sweep_six["buckets"],
                ("subadditivity", "split_matching", "component_lemma", "inheritance"),
            )
        )
        problems.extend(
            _bucket_problems(
                polytope_six["buckets"],
                ("reduction", "canonical_member", "canonical_strict", "cone_system"),
            )
        )

        # The factor-critical bound degrades to a seeded n = 9 sample: the
        # exhaustive n = 9 space (2^36 graphs) is out of reach, so a fixed
        # random stream exercises larger instances on top of the n <= 7
        # exhaustive sweep above.
        rng = random.Random(97)
        fc_found = 0
        for _ in range(3000):
            p = rng.uniform(0.15, 0.6)
            edges = []
            for u in range(1, 10):
                for v in range(u + 1, 10):
                    if rng.random() < p:
                        edges.append((u, v))
            g = Graph(n=9, edges=tuple(edges))
            if 2 * matching_number(g) == 8 and is_factor_critical(g):
                fc_found += 1
                gap, _ = _gap_and_alpha(g)
                if gap != 0:
                    problems.append(f"fc bound at n=9: {g!r}")
        if fc_found != 1089:
            problems.append(f"expected 1089 factor-critical samples, saw {fc_found}")
        detail = (
            f"bounds over {sweep_seven['graphs']} graphs n <= 7"
            f" ({sweep_seven['fc_count']} factor-critical) + {fc_found} sampled n = 9;"
            f" splits over {sweep_six['graphs']} graphs n <= 6;"
            f" {polytope_six['moves']} reduction moves"
        )
    except Exception as exc:
        problems.append(f"unexpected error: {exc!r}")
        raise
    finally:
        record_acceptance(name, not problems, detail)
    assert not problems, "; ".join(problems[:10])


def test_criterion_8_blossom_matches_bruteforce():
    name = "8. blossom matching == branch and bound, n <= 6 + random n <= 12"
    problems: list[str] = []
    detail = ""
    try:
        exhaustive = 0
        for g in exhaustive_graphs(6):
            exhaustive += 1
            if matching_number(g) != matching_number_bruteforce(g):
                problems.append(f"exhaustive: {g!r}")
        rng = random.Random(8)
        sampled = 0
        while sampled < 10_000:
            n = rng.randint(1, 12)
            p = rng.uniform(0.08, 0.30)
            edges = []
            for u in range(1, n + 1):
                for v in range(u + 1, n + 1):
                    if rng.random() < p:
                        edges.append((u, v))
            if len(edges) > 26:
                continue
            g = Graph(n=n, edges=tuple(edges))
            sampled += 1
            if matching_number(g) != matching_number_bruteforce(g):
                problems.append(f"random: {g!r}")
        detail = f"{exhaustive} exhaustive + {sampled} random"
    except Exception as exc:
        problems.append(f"unexpected error: {exc!r}")
        raise
    finally:
        record_acceptance(name, not problems, detail)
    assert not problems, "; ".join(problems[:10])


def test_criterion_9_normality_cross_check():
    name = "9. normality criterion == lattice decomposition check, n <= 5"
    problems: list[str] = []
    detail = ""
    try:
        tested = 1
        if not verify_normality_small(Graph.from_edges(0, []), q_max=3):
            problems.append("empty graph should verify")
        for g in exhaustive_graphs(5):
            tested += 1
            if verify_normality_small(g, q_max=3) != is_rees_normal(g):
                problems.append(f"disagreement: {g!r}")
        two_triangles = disjoint_union(cycle(3), cycle(3))
        if verify_normality_small(two_triangles, q_max=3) or is_rees_normal(
            two_triangles
        ):
            problems.append("two disjoint triangles should fail both checks")
        detail = f"{tested} graphs at q_max = 3"
    except Exception as exc:
        problems.append(f"unexpected error: {exc!r}")
        raise
    finally:
        record_acceptance(name, not problems, detail)
    assert not problems, "; ".join(problems[:10])


# Full-scale module invariants that share the sweeps above.  These are not
# part of the numbered summary; they fail the suite like any other test.


def test_independence_and_bipartite_helpers_full_scale(sweep_seven):
    problems = _bucket_problems(
        sweep_seven["buckets"], ("alpha", "bipartite_chordless", "bipartite_tb")
    )
    assert not problems, "; ".join(problems)


def test_matching_specializations_full_scale(sweep_six):
    problems = _bucket_problems(
        sweep_six["buckets"], ("pm_lemma", "pm_konig_tb", "konig_reference")
    )
    assert not problems, "; ".join(problems)


def test_odd_cycle_condition_reference_full_scale(sweep_six):
    problems = _bucket_problems(sweep_six["buckets"], ("occ_reference",))
    assert not problems, "; ".join(problems)


def test_polytope_soundness_full_scale(polytope_six):
    problems = _bucket_problems(
        polytope_six["buckets"],
        ("vertex_containment", "sum_edges", "witness_fundamental"),
    )
    assert not problems, "; ".join(problems)
