from __future__ import annotations

import collections
import dataclasses
import itertools
import random
import re
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import graphs
from reference import (
    chordless_odd_cycles,
    independence_number,
    independent_of_size_recursive,
    parse_graph_lines,
)
from reesreg import (
    Graph,
    GraphFormatError,
    InstanceTooLargeError,
    bipartite_check,
    complete,
    complete_bipartite,
    connected_components,
    cycle,
    disjoint_union,
    generate,
    independent_sets,
    induced_subgraph,
    is_bipartite,
    max_independent_set,
    neighbor_set,
    paper_example,
    parse_graph,
    path,
    random_graph,
    regularity,
    write_graph,
)
from reesreg import graphs as graphs_module
from reesreg.corpus import all_graphs, exhaustive_graphs, random_graphs
from reesreg.decomposition import INDEPENDENT_ENUM_LIMIT
from reesreg.graphs import (
    VERTEX_LIMIT,
    _bfs,
    _every_component,
    _independent_of_size,
    components_within,
    labels_of,
    mask_is_bipartite,
    mask_of,
)


def test_mask_round_trip():
    assert mask_of(()) == 0
    assert labels_of(0) == ()
    assert labels_of(mask_of((3, 1, 5))) == (1, 3, 5)
    # Labels start at 1: bit 0 is never a vertex.
    assert labels_of(0b1011) == (1, 3)


@settings(max_examples=200)
@given(st.sets(st.integers(min_value=1, max_value=5000), max_size=40))
def test_mask_round_trip_on_large_labels(labels):
    assert labels_of(mask_of(labels)) == tuple(sorted(labels))
    assert labels_of(mask_of(labels | {1001})) == tuple(sorted(labels | {1001}))


def test_long_path_parses_in_linear_time():
    # Building a graph must not cost O(n) per vertex, which at this size
    # is minutes of CPU.
    text = write_graph(path(20_000))
    start = time.process_time()
    g = parse_graph(text)
    assert time.process_time() - start < 2.0
    assert (g.n, g.m) == (20_000, 19_999)
    assert g.neighbors(1) == (2,)
    assert g.neighbors(10_000) == (9_999, 10_001)
    assert g.neighbors(20_000) == (19_999,)


def test_graph_normalization_and_accessors():
    g = Graph.from_edges(4, [(2, 1), (3, 4), (1, 3)])
    assert g.edges == ((1, 2), (1, 3), (3, 4))
    assert g.m == 3
    assert tuple(g.vertices) == (1, 2, 3, 4)
    assert g.neighbors(1) == (2, 3)
    assert g.degree(3) == 2
    assert g.has_edge(2, 1)
    assert not g.has_edge(2, 4)
    flipped = ((v, u) for u, v in reversed(g.edges))
    assert Graph.from_edges(4, flipped) == g
    # A tuple of lists is stored as a tuple of tuples, as a list of lists is.
    for edges in (([1, 2], [2, 3]), ((1, 2), [2, 3])):
        h = Graph(3, edges)
        assert h.edges == ((1, 2), (2, 3))
        assert all(type(e) is tuple for e in h.edges)
        assert h == Graph(3, ((1, 2), (2, 3)))
    with pytest.raises(ValueError, match="not sorted"):
        Graph(3, ([2, 3], [1, 2]))


def test_stored_facts_are_invisible():
    # What the package stores on a graph changes none of its value
    # semantics, and a copy starts with nothing stored.
    g = paper_example()
    assert not g._facts
    regularity(g)
    assert g._facts
    fresh = paper_example()
    assert g == fresh
    assert hash(g) == hash(fresh)
    assert repr(g) == repr(fresh)
    assert {g: 1}[fresh] == 1
    copy = dataclasses.replace(g)
    assert copy == g and not copy._facts
    assert not dataclasses.replace(g, n=8)._facts


def test_graph_from_a_list_is_frozen_and_hashable():
    g = Graph(3, ((1, 2), (2, 3)))
    for edges in ([(1, 2), (2, 3)], [[1, 2], [2, 3]]):
        h = Graph(3, edges)
        assert h == g
        assert hash(h) == hash(g)
        assert h.edges == ((1, 2), (2, 3))
    assert Graph(3, g.edges).edges is g.edges


@pytest.mark.parametrize(
    "n,edges",
    [
        (3, [(1, 1)]),
        (3, [(1, 2), (2, 1)]),
        (3, [(1, 4)]),
        (3, [(0, 2)]),
        (-1, []),
        # Graphs that would not write out and parse back: `True 2` is no
        # edge line, and a bool or float vertex count is no header.
        (3, [(True, 2)]),
        (True, []),
        (2.0, []),
        (2, [(1, 2.0)]),
        (3, [(1, 2, 3)]),
        # Edges that hold no pairs: one edge in place of a tuple of edges,
        # a number, and None.
        (3, (1, 2)),
        (3, 5),
        (3, None),
        # Labels that do not compare with an int, in one edge or across
        # two: `from_edges` must not fail in its orientation or its sort.
        (3, [(None, 1)]),
        (3, [(1, "a")]),
        (3, [(1, 2), ("a", "b")]),
    ],
)
def test_graph_rejects_bad_input(n, edges):
    # The constructor and `Graph.from_edges` name the value they refuse: the
    # last edge, or n when there is none, or the edges themselves when they
    # hold no pairs.
    if isinstance(edges, list):
        named = repr(tuple(edges[-1])) if edges else repr(n)
    else:
        named = repr(edges)
    for build in (Graph.from_edges, Graph):
        with pytest.raises(ValueError, match=re.escape(named)):
            build(n, edges)


# Vertex counts past VERTEX_LIMIT: one past it, one whose adjacency list
# would raise MemoryError, and one past sys.maxsize, where it would raise
# OverflowError.
TOO_MANY_VERTICES = (VERTEX_LIMIT + 1, 10_000_000_000_000, 99_999_999_999_999_999_999)


@pytest.mark.parametrize("n", TOO_MANY_VERTICES)
def test_graph_refuses_a_vertex_count_past_the_limit(n):
    # The constructor names n in a ValueError before it builds the
    # adjacency list, so a huge count fails at once; both parse paths, the
    # column read and the line walk (a '#' line sends a text there), pass
    # the refusal on.
    named = re.escape(f"vertex count {n} exceeds VERTEX_LIMIT")
    for build in (Graph, Graph.from_edges):
        for edges in ((), ((1, 2),)):
            start = time.process_time()
            with pytest.raises(ValueError, match=named):
                build(n, edges)
            assert time.process_time() - start < 0.1
    columns = (f"{n} 0\n", f"{n} 1\n1 2\n")
    lines = (f"# big\n{n} 0\n", f"# big\n{n} 1\n2 1\n")
    for text in columns + lines:
        for parse in (parse_graph, parse_graph_lines):
            with pytest.raises(ValueError, match=named):
                parse(text)
    for text in columns:
        with pytest.raises(ValueError, match=named):
            graphs_module._parse_bulk(text)
    for text in lines:
        assert graphs_module._parse_bulk(text) is None


def test_parse_basic_with_comments_and_blanks():
    text = """
    # sample graph
    4 3

    1 2
    # the next line names the chord endpoint first
    3 1
    4 3
    """
    g = parse_graph(text)
    assert g.n == 4
    assert g.edges == ((1, 2), (1, 3), (3, 4))


def test_parse_preserves_isolated_vertices():
    g = parse_graph("5 1\n2 4\n")
    assert g.n == 5
    assert g.edges == ((2, 4),)


def test_parse_drops_one_leading_byte_order_mark():
    # An editor may save the file with a UTF-8 byte-order mark, which reads
    # as U+FEFF.  Only one, at the very start, is dropped (the parse errors
    # below include a second one and one on a later line).
    text = write_graph(path(3))
    assert parse_graph("\ufeff" + text) == path(3)
    assert parse_graph("\ufeff# comment\n" + text) == path(3)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "header"),
        ("3\n", "header"),
        ("a b\n", "header"),
        ("2 1\n", "expected 1 edge"),
        ("2 1\n1 2\n2 1\n", "expected 1 edge"),
        ("3 1\n1 1\n", "loop"),
        ("3 2\n1 2\n2 1\n", "duplicate"),
        ("3 1\n1 4\n", "out of range"),
        ("3 1\n1 x\n", "edge"),
        ("\ufeff\ufeff3 1\n1 2\n", "line 1: header must be two integers"),
        ("\n\ufeff3 1\n1 2\n", "line 2: header must be two integers"),
    ],
)
def test_parse_errors_mention_problem(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "text,message",
    [
        # A repeat on an earlier line does not pre-empt a loop or a range
        # error on a later one.
        ("3 3\n1 2\n2 1\n1 1\n", "line 4: loop at vertex 1"),
        ("4 3\n1 2\n3 4\n2 1\n", "line 4: duplicate edge 1 2"),
        ("3 3\n1 2\n2 1\n1 9\n", "line 4: edge 1 9 out of range 1..3"),
        # The edge-line count is checked before any edge line is read, and
        # the first faulty edge line wins over a later one.
        ("3 2\n1 x\n", "expected 2 edge lines, found 1"),
        ("3 2\n1 1\n1 x\n", "line 2: loop at vertex 1"),
    ],
)
def test_parse_reports_the_first_fault_in_file_order(text, message):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert str(err.value) == message


@pytest.mark.parametrize(
    "text,message",
    [
        ("9" * 5000 + " 0\n", "line 1: header must be two integers"),
        ("3 1\n1 " + "9" * 5000 + "\n", "line 2: edge line must be two integers"),
    ],
)
def test_parse_names_a_number_past_the_int_digit_limit(text, message):
    # int() refuses a decimal past 4,300 digits, Python's default limit.  The
    # column read returns None on it, and the line walk names the line.
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert graphs_module._parse_bulk(text) is None
        with pytest.raises(GraphFormatError) as err:
            parse_graph(text)
    finally:
        sys.set_int_max_str_digits(limit)
    assert str(err.value) == message


def test_write_graph_canonical_form():
    g = Graph.from_edges(4, [(3, 4), (2, 1)])
    assert write_graph(g) == "4 2\n1 2\n3 4\n"


@settings(max_examples=100)
@given(graphs(max_n=8))
def test_parse_write_round_trip(g):
    assert parse_graph(write_graph(g)) == g


@settings(max_examples=100)
@given(graphs(max_n=8), st.randoms(use_true_random=False))
def test_parse_round_trip_in_any_line_order(g, rng):
    lines = [f"{v} {u}" if rng.random() < 0.5 else f"{u} {v}" for u, v in g.edges]
    rng.shuffle(lines)
    lines.insert(0, f"{g.n} {g.m}")
    for _ in range(rng.randrange(4)):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(["", "  ", "# note", "  # 1 2"]))
    text = "\n".join(lines) + "\n"
    assert parse_graph(text) == g


# Every line break `str.splitlines` knows, and tokens that `int` reads in
# ways a digit check would not ("1_0" is 10, U+0663 is 3) or refuses.
_BREAKS = ("\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x85", "\u2028")
_ODD_TOKENS = ("+2", "01", "1_0", "\u0663", "0", "-1", "x")
# Whitespace around and between the tokens of a line, not all of it ASCII.
_PADDING = ("", "", " ", "\t", "\x1f")
_SEPARATORS = (" ", " ", " ", "  ", "\t", " \x1f", "\u3000 ")


def _fuzzed_edge_list(rng: random.Random) -> str:
    # An edge-list text that is well formed about half the time.  Each
    # fault is drawn on its own, so a text may hold several at once.
    n = rng.randint(0, 9)
    pairs = [(u, v) for u, v in itertools.combinations(range(1, n + 1), 2) if rng.random() < 0.4]
    if rng.random() < 0.5:
        rng.shuffle(pairs)
    rows = [[str(v), str(u)] if rng.random() < 0.5 else [str(u), str(v)] for u, v in pairs]

    def insert(row: list[str]) -> None:
        rows.insert(rng.randrange(len(rows) + 1), row)

    if rows and rng.random() < 0.12:
        insert(rng.choice(rows)[::rng.choice((1, -1))])
    if rng.random() < 0.08:
        k = str(rng.randint(1, n + 1))
        insert([k, k])
    if rng.random() < 0.08:
        insert([str(n + rng.randint(1, 3)), str(rng.randint(1, n + 1))])
    if rows and rng.random() < 0.15:
        row = rng.choice(rows)
        row[rng.randrange(2)] = rng.choice(_ODD_TOKENS)
    if rows and rng.random() < 0.06:
        row = rng.choice(rows)
        row[:] = row[:1] if rng.random() < 0.5 else row + [rng.choice(row)]
    # The header's edge count is one off now and then.
    header = [str(n), str(len(rows) + rng.choice((-1, 1)) * (rng.random() < 0.08))]
    if rng.random() < 0.06:
        header = header[:1] if rng.random() < 0.5 else header + ["1"]
    if rng.random() < 0.06:
        header[rng.randrange(len(header))] = rng.choice(_ODD_TOKENS)
    # Half the texts are laid out as `write_graph` lays them out.
    plain = rng.random() < 0.5
    if plain:
        lines = [" ".join(r) for r in [header] + rows]
    else:
        lines = [
            rng.choice(_PADDING) + rng.choice(_SEPARATORS).join(r) + rng.choice(_PADDING)
            for r in [header] + rows
        ]
    if rng.random() < 0.02:
        lines = []
    for _ in range(rng.choice((0, 0, 0, 1, 3))):
        lines.insert(rng.randrange(len(lines) + 1), rng.choice(("", "  ", "# 1 2", " #x")))
    if not lines:
        return ""
    breaks = ("\n",) if plain else rng.choice((("\n",), ("\r\n",), ("\r",), _BREAKS))
    text = "".join(line + rng.choice(breaks) for line in lines[:-1])
    text += lines[-1] + (breaks[0] if plain else rng.choice(breaks + ("",)))
    return "\ufeff" * rng.choice((0, 0, 0, 0, 1, 1, 2)) + text


# A fragment of each message of `parse_graph_lines`.
_FAULTS = (
    "no header",
    "header must be 'n m'",
    "header must be two integers",
    "must be >= 0",
    "expected",
    "edge line must be 'u v'",
    "edge line must be two integers",
    "loop",
    "out of range",
    "duplicate",
)


def _parse_outcome(parse, text: str):
    try:
        return parse(text)
    except Exception as err:
        return type(err), str(err)


def test_parse_matches_the_line_by_line_reference_on_fuzzed_texts(monkeypatch):
    # The bulk path must return the reference's graph, and every text it
    # declines must get the reference's exception and message.
    walked = []
    walk = graphs_module._parse_lines
    monkeypatch.setattr(
        graphs_module, "_parse_lines", lambda *args: walked.append(1) or walk(*args)
    )
    rng = random.Random(2031)
    kinds = collections.Counter()
    for _ in range(10_000):
        text = _fuzzed_edge_list(rng)
        del walked[:]
        got = _parse_outcome(parse_graph, text)
        assert got == _parse_outcome(parse_graph_lines, text), repr(text)
        if isinstance(got, Graph):
            kinds["walked" if walked else "bulk"] += 1
        else:
            kinds[next(f for f in _FAULTS if f in got[1])] += 1
    # Both paths accept texts, and every kind of fault is met.
    assert kinds["bulk"] > 1000 and kinds["walked"] > 1000, kinds
    assert all(kinds[fault] > 50 for fault in _FAULTS), kinds


def test_generator_families():
    assert cycle(5).edges == ((1, 2), (1, 5), (2, 3), (3, 4), (4, 5))
    assert path(1).edges == ()
    assert path(4).edges == ((1, 2), (2, 3), (3, 4))
    assert complete(4).m == 6
    kb = complete_bipartite(2, 3)
    assert kb.n == 5
    assert kb.m == 6
    assert all(u <= 2 < v for u, v in kb.edges)
    with pytest.raises(ValueError):
        cycle(2)


def test_random_graph_is_deterministic():
    a = random_graph(9, 0.4, seed=11)
    b = random_graph(9, 0.4, seed=11)
    c = random_graph(9, 0.4, seed=12)
    assert a == b
    assert a.n == 9
    assert a != c


def test_random_streams_are_frozen():
    # A change to the order of the draws changes every seeded corpus and
    # test input drawn from these streams.
    assert random_graph(9, 0.4, seed=11).edges == (
        (1, 8), (2, 5), (2, 6), (2, 7), (3, 4), (3, 9),
        (4, 5), (4, 7), (4, 8), (4, 9), (5, 6), (8, 9),
    )
    assert [(g.n, g.edges) for g in random_graphs(8, 5, seed=1)] == [
        (3, ((1, 3), (2, 3))),
        (8, ((1, 2), (1, 3), (1, 6), (2, 4), (2, 7), (2, 8), (3, 4), (3, 6), (5, 8))),
        (1, ()),
        (2, ()),
        (5, ()),
    ]


def test_disjoint_union_relabels_second_block():
    g = disjoint_union(path(3), cycle(3))
    assert g.n == 6
    assert g.edges == ((1, 2), (2, 3), (4, 5), (4, 6), (5, 6))


def test_example_graph_shape():
    g = paper_example()
    assert g.n == 7
    assert g.edges == (
        (1, 3),
        (2, 3),
        (3, 4),
        (4, 5),
        (4, 6),
        (4, 7),
        (5, 6),
        (5, 7),
        (6, 7),
    )


def test_generate_dispatch():
    assert generate("cycle", 5) == cycle(5)
    assert generate("complete-bipartite", 2, 2) == complete_bipartite(2, 2)
    assert generate("complete_bipartite", 2, 2) == complete_bipartite(2, 2)
    assert generate("random", 6, 0.5, 3) == random_graph(6, 0.5, seed=3)
    assert generate("paper-example") == paper_example()
    with pytest.raises(ValueError):
        generate("torus", 3)
    with pytest.raises(ValueError):
        generate("cycle")
    assert generate("disjoint-union", cycle(3), path(2)) == disjoint_union(cycle(3), path(2))
    with pytest.raises(ValueError, match="disjoint-union parameter g1 must be a Graph"):
        generate("disjoint-union", "a.g", "b.g")
    # The CLI passes literals, which convert exactly; an int serves as p.
    assert generate("random", "6", "0.5", "3") == random_graph(6, 0.5, seed=3)
    assert generate("random", 6, 1, 3) == random_graph(6, 1.0, seed=3)
    # A parameter that is not exactly of its type is refused, not rounded,
    # by a message that names the family and the parameter.
    for args, message in [
        (("cycle", 3.9), "cycle parameter k must be an integer, got 3.9"),
        (("cycle", "x"), "cycle parameter k must be an integer, got 'x'"),
        (("cycle", True), "cycle parameter k must be an integer, got True"),
        (("random", 5, 0.5, 1.7), "random parameter seed must be an integer, got 1.7"),
        (("random", 5, "half", 1), "random parameter p must be a number, got 'half'"),
    ]:
        with pytest.raises(ValueError) as exc:
            generate(*args)
        assert str(exc.value) == message


@pytest.mark.parametrize(
    "make, family, args, message",
    [
        (cycle, "cycle", (5.0,), "cycle parameter k must be an integer, got 5.0"),
        (complete, "complete", (3.0,), "complete parameter k must be an integer, got 3.0"),
        (path, "path", (2.5,), "path parameter k must be an integer, got 2.5"),
        (path, "path", (True,), "path parameter k must be an integer, got True"),
        (
            complete_bipartite, "complete-bipartite", (True, 2),
            "complete-bipartite parameter a must be an integer, got True",
        ),
        (random_graph, "random", (5.0, 0.5, 1), "random parameter n must be an integer, got 5.0"),
        (random_graph, "random", (5, 0.5, 1.5), "random parameter seed must be an integer, got 1.5"),
        (random_graph, "random", (5, True, 1), "random parameter p must be a number, got True"),
        (
            disjoint_union, "disjoint-union", (cycle(3), 2),
            "disjoint-union parameter g2 must be a Graph, got 2",
        ),
    ],
)
def test_generators_check_their_own_parameters(make, family, args, message):
    # Called directly or through generate, a generator refuses a parameter
    # that is not exactly of its type by the same message.
    for call in (lambda: make(*args), lambda: generate(family, *args)):
        with pytest.raises(ValueError) as exc:
            call()
        assert str(exc.value) == message


def test_induced_subgraph_mapping():
    g = paper_example()
    sub, back = induced_subgraph(g, (3, 4, 5))
    assert sub.n == 3
    assert sub.edges == ((1, 2), (2, 3))
    assert back == {1: 3, 2: 4, 3: 5}
    with pytest.raises(ValueError):
        induced_subgraph(g, (1, 8))
    dedup, _ = induced_subgraph(g, (1, 1, 3))
    assert dedup.n == 2
    assert dedup.edges == ((1, 2),)


@pytest.mark.parametrize(
    "call, value",
    [
        (lambda g: g.degree(True), True),
        (lambda g: g.degree(1.0), 1.0),
        (lambda g: g.neighbors(2.0), 2.0),
        (lambda g: g.has_edge(1.5, 2), 1.5),
        (lambda g: neighbor_set(g, [2.0]), 2.0),
        (lambda g: induced_subgraph(g, [1.0, 2]), 1.0),
        (lambda g: induced_subgraph(g, [1, True]), True),
    ],
)
def test_vertex_arguments_take_only_int_labels(call, value):
    # The constructor's rule for labels: a bool is not vertex 1, and a
    # float is refused by a ValueError that names it, not a bare TypeError
    # or a mapping onto a float label.
    with pytest.raises(ValueError, match=rf"^vertex {value!r} not in 1\.\.5$"):
        call(cycle(5))


def test_induced_subgraph_on_all_vertices_is_identity():
    g = paper_example()
    sub, back = induced_subgraph(g, g.vertices)
    assert sub == g
    assert back == {v: v for v in g.vertices}


def test_connected_components_ordering():
    g = Graph.from_edges(6, [(5, 6), (1, 4)])
    comps = connected_components(g)
    assert comps == [(1, 4), (2,), (3,), (5, 6)]
    assert connected_components(Graph.from_edges(0, [])) == []


def test_bipartite_families():
    for g in (path(5), cycle(6), complete_bipartite(3, 3)):
        assert is_bipartite(g)
    for g in (cycle(5), complete(3), paper_example()):
        assert not is_bipartite(g)


def _components_by_union_find(g, mask):
    # Reference components of the subgraph induced on `mask`, ordered by
    # smallest label, from union-find over its edges.
    parent = {v: v for v in labels_of(mask)}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in g.edges:
        if mask >> u & 1 and mask >> v & 1:
            parent[find(u)] = find(v)
    comps = {}
    for v in labels_of(mask):
        comps.setdefault(find(v), []).append(v)
    return [mask_of(c) for c in sorted(comps.values())]


def _assert_valid_certificate(g, check):
    if check.bipartite:
        left, right = check.sides
        left_set, right_set = set(left), set(right)
        assert left_set | right_set == set(g.vertices)
        assert not left_set & right_set
        for u, v in g.edges:
            assert (u in left_set and v in right_set) or (
                u in right_set and v in left_set
            )
        for comp in connected_components(g):
            assert comp[0] in left_set
        assert check.odd_closed_walk is None
    else:
        walk = check.odd_closed_walk
        assert check.sides is None
        assert walk is not None
        assert walk[0] == walk[-1]
        assert len(walk) % 2 == 0
        for a, b in zip(walk, walk[1:]):
            assert g.has_edge(a, b)


def test_bipartite_witnesses_exhaustive_small():
    # Every graph with n <= 5 and every vertex mask: the certificate of the
    # induced subgraph is valid, and the mask-level traversals agree with it
    # and with union-find components.
    for n in range(6):
        for g in all_graphs(n):
            for mask in range(0, g.full_mask + 1, 2):
                sub, back = induced_subgraph(g, labels_of(mask))
                check = bipartite_check(sub)
                _assert_valid_certificate(sub, check)
                assert mask_is_bipartite(g, mask) == check.bipartite
                comps = components_within(g, mask)
                assert comps == _components_by_union_find(g, mask)
                assert [labels_of(c) for c in comps] == [
                    tuple(back[v] for v in c) for c in connected_components(sub)
                ]


def test_traversal_matches_networkx_large():
    nx = pytest.importorskip("networkx")
    rng = random.Random(5)
    seen = set()
    for i in range(60):
        n = rng.randint(20, 200)
        g = random_graph(n, rng.uniform(0.3, 2.5) / n, seed=rng.randrange(1 << 30))
        ref = nx.Graph()
        ref.add_nodes_from(g.vertices)
        ref.add_edges_from(g.edges)
        comps = sorted(tuple(sorted(c)) for c in nx.connected_components(ref))
        assert connected_components(g) == comps, g
        check = bipartite_check(g)
        assert check.bipartite == is_bipartite(g) == nx.is_bipartite(ref), g
        _assert_valid_certificate(g, check)
        seen.add(check.bipartite)
        for _ in range(3):
            keep = [v for v in g.vertices if rng.random() < 0.7]
            sub = ref.subgraph(keep)
            mask = mask_of(keep)
            assert components_within(g, mask) == [
                mask_of(c) for c in sorted(sorted(c) for c in nx.connected_components(sub))
            ], g
            assert mask_is_bipartite(g, mask) == nx.is_bipartite(sub), g
    assert seen == {True, False}


def test_every_component_matches_the_component_walk():
    # The early-exit walk answers as `all` and `not any` over the bipartite
    # flags of `_bfs`: on every graph with n <= 5 and every mask, and on
    # seeded G(n, c/n) up to n = 60 with random masks.
    seen = set()

    def agrees(g, mask):
        flags = [bipartite for _, _, bipartite in _bfs(g, mask)]
        assert _every_component(g, mask, True) == all(flags), (g, mask)
        assert _every_component(g, mask, False) == (not any(flags)), (g, mask)
        seen.add((all(flags), not any(flags)))

    for n in range(6):
        for g in all_graphs(n):
            for mask in range(0, g.full_mask + 1, 2):
                agrees(g, mask)
    rng = random.Random(28)
    for _ in range(500):
        n = rng.randint(1, 60)
        g = random_graph(n, min(1.0, rng.uniform(0.5, 4.0) / n), seed=rng.randrange(1 << 30))
        agrees(g, rng.getrandbits(n + 1) & g.full_mask)
    # Both answers of both questions occur, and the empty mask answers yes
    # to both.
    assert seen == {(True, True), (True, False), (False, True), (False, False)}


def test_neighbor_set():
    g = cycle(5)
    assert neighbor_set(g, (1,)) == (2, 5)
    assert neighbor_set(g, (1, 2)) == (1, 2, 3, 5)
    assert neighbor_set(g, ()) == ()
    with pytest.raises(ValueError):
        neighbor_set(g, (0,))


def test_independent_sets_of_five_cycle():
    sets = list(independent_sets(cycle(5)))
    assert len(sets) == 11
    assert sets[0] == ()
    assert sets[1:6] == [(1,), (2,), (3,), (4,), (5,)]
    assert sets[6:] == [(1, 3), (1, 4), (2, 4), (2, 5), (3, 5)]


def test_independent_sets_order_and_completeness_exhaustive():
    for g in all_graphs(4):
        seen = list(independent_sets(g))
        keys = [(len(s), s) for s in seen]
        assert keys == sorted(keys)
        expected = set()
        for r in range(g.n + 1):
            for combo in itertools.combinations(g.vertices, r):
                if all(not g.has_edge(u, v) for u, v in itertools.combinations(combo, 2)):
                    expected.add(combo)
        assert set(seen) == expected


def test_independent_sets_stop_at_the_first_empty_size():
    # The walk ends at the first size with no independent set; it yields
    # what a walk over every size 0..n yields, in the same order.
    for g in exhaustive_graphs(6):
        every_size = [
            labels_of(t) for k in range(g.n + 1) for t, _ in _independent_of_size(g, k)
        ]
        assert list(independent_sets(g)) == every_size, g
    # path(20) has F(22) = 17,711 independent sets; distinct ones in
    # (size, lexicographic) order are all of them, in stream order.
    sets = list(independent_sets(path(20)))
    assert len(sets) == len(set(sets)) == 17_711
    assert all(all(b - a > 1 for a, b in zip(s, s[1:])) for s in sets)
    keys = [(len(s), s) for s in sets]
    assert keys == sorted(keys)


@settings(max_examples=300, deadline=None)
@given(graphs(max_n=12), st.data())
def test_single_frame_walk_matches_the_generator_recursion(g, data):
    # The walk in one frame yields the (T, N(T)) stream of a chain of
    # generator frames, item for item, at every size, with no cap and
    # with a cap drawn from 0 to n.
    caps = [None, data.draw(st.integers(min_value=0, max_value=g.n))]
    for k in range(g.n + 2):
        for cap in caps:
            walk = list(_independent_of_size(g, k, cap))
            assert walk == list(independent_of_size_recursive(g, k, cap)), (g, k, cap)


def test_single_frame_walk_matches_the_generator_recursion_exhaustively():
    # Every graph with n <= 5, at every size and every cap.
    for g in exhaustive_graphs(5):
        for k in range(g.n + 2):
            for cap in (None, *range(g.n + 1)):
                walk = list(_independent_of_size(g, k, cap))
                assert walk == list(independent_of_size_recursive(g, k, cap)), (g, k, cap)


def test_max_independent_set_tiebreak_and_size():
    assert max_independent_set(cycle(4)) == (1, 3)
    assert max_independent_set(complete(5)) == (1,)
    assert max_independent_set(Graph.from_edges(3, [])) == (1, 2, 3)
    assert max_independent_set(Graph.from_edges(0, [])) == ()
    assert independence_number(paper_example()) == 3


def test_independent_set_walks_are_guarded():
    # Each of these walks every independent set, so past
    # INDEPENDENT_ENUM_LIMIT vertices it raises at once; the generators
    # raise on their first item, the bare walk's empty set included.  At
    # the limit they still run.
    big = path(INDEPENDENT_ENUM_LIMIT + 1)
    stream = independent_sets(big)
    for first in (
        lambda: max_independent_set(big),
        lambda: independence_number(big),
        lambda: next(stream),
        lambda: next(_independent_of_size(big, 0)),
    ):
        start = time.process_time()
        with pytest.raises(InstanceTooLargeError, match="n = 21 exceeds"):
            first()
        assert time.process_time() - start < 0.1
    at = path(INDEPENDENT_ENUM_LIMIT)
    assert max_independent_set(at) == tuple(range(1, INDEPENDENT_ENUM_LIMIT, 2))
    assert independence_number(at) == INDEPENDENT_ENUM_LIMIT // 2


def test_chordless_odd_cycles_examples():
    assert chordless_odd_cycles(cycle(4)) == ()
    assert chordless_odd_cycles(cycle(5)) == ((1, 2, 3, 4, 5),)
    assert chordless_odd_cycles(cycle(7)) == ((1, 2, 3, 4, 5, 6, 7),)
    assert chordless_odd_cycles(complete(4)) == (
        (1, 2, 3),
        (1, 2, 4),
        (1, 3, 4),
        (2, 3, 4),
    )
    bowtie = Graph.from_edges(5, [(1, 2), (1, 3), (2, 3), (3, 4), (3, 5), (4, 5)])
    assert chordless_odd_cycles(bowtie) == ((1, 2, 3), (3, 4, 5))
    chorded = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (1, 3)])
    assert chordless_odd_cycles(chorded) == ((1, 2, 3),)


def test_chordless_cycles_are_valid_and_detect_bipartite():
    for g in all_graphs(5):
        found = chordless_odd_cycles(g)
        assert (len(found) == 0) == is_bipartite(g)
        for cyc in found:
            assert len(cyc) % 2 == 1
            assert cyc[0] == min(cyc)
            k = len(cyc)
            for i, u in enumerate(cyc):
                assert g.has_edge(u, cyc[(i + 1) % k])
            chords = [
                (u, v)
                for u, v in itertools.combinations(sorted(cyc), 2)
                if g.has_edge(u, v)
            ]
            assert len(chords) == k
