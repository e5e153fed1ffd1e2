"""Small simple graphs with 1-based labels, plus the enumerations the rest of
the package is built on.

Graphs are immutable and hashable.  Vertices are labelled 1..n and an edge is
an unordered pair stored as (u, v) with u < v.  Internally a set of vertices
is only ever an integer bitmask (bit v stands for vertex v, bit 0 is unused),
adjacency included, which is what makes the exhaustive corpus sweeps
affordable in pure Python.  Sorted label tuples appear only in public return
values.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from operator import lt
from typing import Iterable, Iterator, Sequence

from .errors import GraphFormatError, InstanceTooLargeError

# A set of vertex labels is passed around as a sorted tuple.
VertexSet = tuple[int, ...]

# Most vertices a walk over every independent set takes: path(20) has
# 17,711 of them, and each 6 vertices more cost 8 to 9 times as much.
INDEPENDENT_ENUM_LIMIT = 20

# Most vertices a graph may have.  Its adjacency list holds a slot per
# vertex before any edge is read, 80 MB at this count; a count far past it
# would fail in the allocation itself, with a MemoryError or OverflowError.
VERTEX_LIMIT = 10_000_000


def mask_of(labels: Iterable[int]) -> int:
    """Bitmask with bit v set for each label v."""
    m = 0
    for v in labels:
        m |= 1 << v
    return m


def labels_of(mask: int) -> VertexSet:
    """Ascending labels of a bitmask, one step per set bit; bit 0 is ignored."""
    out = []
    m = mask & ~1
    while m:
        low = m & -m
        out.append(low.bit_length() - 1)
        m ^= low
    return tuple(out)


def _edge_tuples(edges: Iterable[Iterable[int]]) -> tuple[tuple[int, ...], ...]:
    try:
        return tuple(map(tuple, edges))
    except TypeError:
        raise ValueError(f"edges must be an iterable of pairs, got {edges!r}") from None


@dataclass(frozen=True)
class Graph:
    """Simple undirected graph on vertices 1..n.

    The constructor is the one check of a graph's edges: they must be sorted
    (u, v) pairs with 1 <= u < v <= n and no repeats, else ValueError.  n and
    every label must be of type int: a bool, a float or any other type is
    refused by a ValueError that names it, so every graph that is accepted
    writes out and parses back.  An n past VERTEX_LIMIT is refused by a
    ValueError that names it, before the adjacency list is built.  Edges
    given as a list, or as pairs that are not tuples, are stored as a tuple
    of tuples; edges that are not an iterable of iterables are refused by a
    ValueError that names them.
    `Graph.from_edges` orients and sorts arbitrary input.

    `_facts` keeps what the package has computed about this graph, so that
    each fact is computed once however many callers ask: the blossom run
    (`matching._matching`) and the odd cycle condition
    (`rees.satisfies_odd_cycle_condition`).  It takes no part in equality,
    hashing or repr, and a copy made by `dataclasses.replace` starts empty.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adj_bits: tuple[int, ...] = field(init=False, compare=False, repr=False)
    _facts: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        n = self.n
        if type(n) is not int or n < 0:
            raise ValueError(f"vertex count must be an int >= 0, got {n!r}")
        if n > VERTEX_LIMIT:
            raise ValueError(f"vertex count {n} exceeds VERTEX_LIMIT = {VERTEX_LIMIT}")
        if type(self.edges) is not tuple:
            object.__setattr__(self, "edges", _edge_tuples(self.edges))
        bits = [0] * (n + 1)
        prev = (0, 0)
        for e in self.edges:
            if type(e) is not tuple:
                # A tuple of other pairs: store tuples, then check those.
                object.__setattr__(self, "edges", _edge_tuples(self.edges))
                self.__post_init__()
                return
            try:
                u, v = e
            except ValueError:
                raise ValueError(f"edge {e!r} is not a pair") from None
            if type(u) is not int or type(v) is not int or not 1 <= u < v <= n:
                raise ValueError(f"edge {e!r} is not a pair of ints 1 <= u < v <= {n}")
            if e <= prev:
                raise ValueError(f"edges not sorted/unique at {e}")
            prev = e
            bits[u] |= 1 << v
            bits[v] |= 1 << u
        object.__setattr__(self, "adj_bits", tuple(bits))

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Sequence[int]]) -> "Graph":
        """Build a graph from edges in any order, either endpoint first.  A
        pair given twice is refused by a ValueError that names it, and the
        rest as the constructor refuses it (edge by edge, when labels do
        not compare)."""
        edges = _edge_tuples(edges)
        oriented = {}
        try:
            for e in edges:
                key = e[::-1] if len(e) == 2 and e[1] < e[0] else e
                if key in oriented:
                    raise ValueError(f"edge {e!r} repeats {oriented[key]!r}")
                oriented[key] = e
            ordered = tuple(sorted(oriented))
        except TypeError:
            for e in edges:
                cls(n, (e,))
            raise
        return cls(n, ordered)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def vertices(self) -> range:
        return range(1, self.n + 1)

    @property
    def full_mask(self) -> int:
        return (1 << (self.n + 1)) - 2

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adj_bits[v].bit_count()

    def neighbors(self, v: int) -> VertexSet:
        self._check_vertex(v)
        return labels_of(self.adj_bits[v])

    def has_edge(self, u: int, v: int) -> bool:
        self._check_vertex(u)
        self._check_vertex(v)
        return bool(self.adj_bits[u] >> v & 1)

    def _check_vertex(self, v: int) -> None:
        # A vertex is an int label, as in the constructor: not a bool, not a float.
        if type(v) is not int or not 1 <= v <= self.n:
            raise ValueError(f"vertex {v!r} not in 1..{self.n}")


# ---------------------------------------------------------------------------
# file format


def parse_graph(text: str) -> Graph:
    """Parse the edge-list format.

    One leading byte-order mark (U+FEFF) is dropped.  Lines starting with
    '#' and blank lines are ignored.  The first data line is "n m"; exactly
    m edge lines "u v" follow, in any order, either endpoint first.  The
    Graph constructor checks the result.

    A text in the form `write_graph` gives, in any line order and either
    endpoint first, is read in whole columns by `_parse_bulk`.  Every other
    text, and every text with a fault, is walked line by line by
    `_parse_lines`, which names the fault: a bad header at once; then a
    wrong edge-line count; then the first bad line, loop or out-of-range
    label; and a repeat only if every line passes those checks.  The bulk
    path returns only the graph that walk would return, so every graph,
    every message and their precedence are the walk's.
    """
    body = text.removeprefix("\ufeff")
    g = _parse_bulk(body)
    return _parse_lines(body) if g is None else g


def _parse_bulk(body: str) -> Graph | None:
    """The graph of `body` when it is ASCII digits in lines of two numbers
    joined by one space, each line ended by a newline, the first line
    "n m" and the m lines after it edges in 1..n with no loop or repeat;
    else None.  One pass over the text checks its form and one split reads
    its numbers, so nothing is built per line; each distinct label is
    converted once; the checks run over whole columns; and edges given with
    the smaller endpoint first and in order are not sorted."""
    line_count = body.count("\n")
    # With the digits taken out, the text must be " \n" once per line.
    gaps = body.translate(str.maketrans("", "", "0123456789"))
    if not line_count or gaps != " \n" * line_count:
        return None
    tokens = body.split()
    # Two numbers on each line, none of them empty.
    if len(tokens) != 2 * line_count:
        return None
    heads, tails = tokens[2::2], tokens[3::2]
    try:
        n, m = int(tokens[0]), int(tokens[1])
        distinct = {*heads, *tails}
        label = dict(zip(distinct, map(int, distinct)))
    except ValueError:
        return None
    if m != len(heads):
        return None
    if m and (min(label.values()) < 1 or max(label.values()) > n):
        return None
    us = list(map(label.__getitem__, heads))
    vs = list(map(label.__getitem__, tails))
    if not all(map(lt, us, vs)):
        us, vs = list(map(min, us, vs)), list(map(max, us, vs))
        if not all(map(lt, us, vs)):
            return None
    edges = list(zip(us, vs))
    if not all(map(lt, edges, itertools.islice(edges, 1, None))):
        edges.sort()
        if not all(map(lt, edges, itertools.islice(edges, 1, None))):
            return None
    return Graph(n, tuple(edges))


def _parse_lines(body: str) -> Graph:
    # The line walk of `parse_graph`.
    n = m = -1
    found = 0
    fault = None
    # An insertion-ordered dict, not a set: a file written in canonical
    # order then sorts in linear time.
    edges: dict[tuple[int, int], None] = {}
    repeat = None
    for lineno, line in enumerate(body.splitlines(), start=1):
        parts = line.split()
        if not parts or parts[0][0] == "#":
            continue
        if n < 0:
            if len(parts) != 2:
                raise GraphFormatError(
                    f"line {lineno}: header must be 'n m', got {line.strip()!r}"
                )
            try:
                n, m = int(parts[0]), int(parts[1])
            except ValueError:
                raise GraphFormatError(f"line {lineno}: header must be two integers") from None
            if n < 0 or m < 0:
                raise GraphFormatError(f"line {lineno}: n and m must be >= 0")
            continue
        found += 1
        if fault is not None:
            continue
        if len(parts) != 2:
            fault = f"line {lineno}: edge line must be 'u v', got {line.strip()!r}"
            continue
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            fault = f"line {lineno}: edge line must be two integers"
            continue
        if u == v:
            fault = f"line {lineno}: loop at vertex {u}"
        elif not (1 <= u <= n and 1 <= v <= n):
            fault = f"line {lineno}: edge {u} {v} out of range 1..{n}"
        else:
            e = (u, v) if u < v else (v, u)
            if repeat is None and e in edges:
                repeat = f"line {lineno}: duplicate edge {e[0]} {e[1]}"
            edges[e] = None
    if n < 0:
        raise GraphFormatError("no header line 'n m' found")
    if found != m:
        raise GraphFormatError(f"expected {m} edge lines, found {found}")
    if fault is not None or repeat is not None:
        raise GraphFormatError(fault or repeat)
    return Graph(n, tuple(sorted(edges)))


def write_graph(g: Graph) -> str:
    """Serialize in the edge-list format (u < v, lexicographic, LF lines)."""
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# generators


def cycle(k: int) -> Graph:
    """Cycle C_k, k >= 3."""
    if k < 3:
        raise ValueError(f"cycle needs k >= 3, got {k}")
    edges = [(i, i + 1) for i in range(1, k)] + [(1, k)]
    return Graph.from_edges(k, edges)


def path(k: int) -> Graph:
    """Path on k vertices (k - 1 edges), k >= 1."""
    if k < 1:
        raise ValueError(f"path needs k >= 1, got {k}")
    return Graph.from_edges(k, [(i, i + 1) for i in range(1, k)])


def complete(k: int) -> Graph:
    """Complete graph K_k, k >= 1."""
    if k < 1:
        raise ValueError(f"complete needs k >= 1, got {k}")
    return Graph.from_edges(k, [(u, v) for u in range(1, k + 1) for v in range(u + 1, k + 1)])


def complete_bipartite(a: int, b: int) -> Graph:
    """Complete bipartite graph K_{a,b}; sides are 1..a and a+1..a+b."""
    if a < 0 or b < 0:
        raise ValueError("sides must be >= 0")
    edges = [(u, a + w) for u in range(1, a + 1) for w in range(1, b + 1)]
    return Graph.from_edges(a + b, edges)


def random_graph(n: int, p: float, seed: int) -> Graph:
    """Erdos-Renyi G(n, p) with a fixed seed.

    Uses the Mersenne Twister (`random.Random(seed)`); candidate pairs are
    scanned in lexicographic order and pair {u, v} is kept when the next
    draw is < p, so the graph is reproducible across runs and platforms.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if not (0.0 <= p <= 1.0):
        raise ValueError("p must be in [0, 1]")
    return _gnp(n, p, random.Random(seed))


def _gnp(n: int, p: float, rng: random.Random) -> Graph:
    # G(n, p) on the draws of `rng`: each pair (u, v), in lexicographic
    # order, is kept when the next draw is < p.
    pairs = itertools.combinations(range(1, n + 1), 2)
    return Graph(n, tuple(e for e in pairs if rng.random() < p))


def disjoint_union(g1: Graph, g2: Graph) -> Graph:
    """Disjoint union; the second graph's labels are shifted by g1.n."""
    shift = g1.n
    edges = list(g1.edges) + [(u + shift, v + shift) for u, v in g2.edges]
    return Graph.from_edges(g1.n + g2.n, edges)


def paper_example() -> Graph:
    """Built-in 7-vertex example: two pendant vertices on a cut vertex that
    guards a K_4.  It is Tutte-Berge but neither Konig nor perfectly
    matchable, which is why it earns a place as a regression fixture."""
    return Graph.from_edges(
        7,
        [(1, 3), (2, 3), (3, 4), (4, 5), (4, 6), (4, 7), (5, 6), (5, 7), (6, 7)],
    )


# Family name -> (generator, its parameters as (name, type) pairs).
_GENERATORS = {
    "cycle": (cycle, (("k", int),)),
    "path": (path, (("k", int),)),
    "complete": (complete, (("k", int),)),
    "complete-bipartite": (complete_bipartite, (("a", int), ("b", int))),
    "random": (random_graph, (("n", int), ("p", float), ("seed", int))),
    "disjoint-union": (disjoint_union, (("g1", Graph), ("g2", Graph))),
    "paper-example": (paper_example, ()),
}

_KIND_NAMES = {int: "an integer", float: "a number", Graph: "a Graph"}


def _parameter(family: str, name: str, kind: type, x: object) -> object:
    # One parameter of `family` as its type: a value of that type (an int
    # also serves as a float, a bool as neither), or a number's literal as
    # the CLI passes it.  Anything else, such as 3.9 for an int, is refused,
    # not rounded.  A Graph comes only as itself; the CLI reads it from a
    # file.
    exact = (int, float) if kind is float else kind
    if isinstance(x, exact) and not isinstance(x, bool):
        return float(x) if kind is float else x
    if isinstance(x, str) and kind is not Graph:
        try:
            return kind(x)
        except ValueError:
            pass
    raise ValueError(f"{family} parameter {name} must be {_KIND_NAMES[kind]}, got {x!r}")


GENERATOR_FAMILIES = tuple(_GENERATORS)


def generate(family: str, *params) -> Graph:
    """Dispatch a generator family by name (the CLI `gen` vocabulary)."""
    name = family.replace("_", "-")
    if name not in _GENERATORS:
        raise ValueError(f"unknown family {family!r}; known: {', '.join(GENERATOR_FAMILIES)}")
    make, spec = _GENERATORS[name]
    if len(params) != len(spec):
        names = " ".join(p for p, _ in spec) or "no parameters"
        raise ValueError(f"{name} takes {names}")
    return make(*(_parameter(name, p, kind, x) for (p, kind), x in zip(spec, params)))


# ---------------------------------------------------------------------------
# subgraphs and components


def induced_subgraph(g: Graph, labels: Iterable[int]) -> tuple[Graph, dict[int, int]]:
    """Induced subgraph on `labels`, relabelled 1..|S| in ascending order.

    Returns (subgraph, mapping) where mapping sends new labels to the
    original ones.
    """
    keep = set()
    for v in labels:
        g._check_vertex(v)
        keep.add(v)
    sel = sorted(keep)
    new_of = {old: i + 1 for i, old in enumerate(sel)}
    edges = [
        (new_of[u], new_of[v]) for u, v in g.edges if u in keep and v in keep
    ]
    return Graph.from_edges(len(sel), edges), {i + 1: old for i, old in enumerate(sel)}


def _bfs(g: Graph, mask: int) -> Iterator[tuple[int, list[int], bool]]:
    """Breadth-first search of the subgraph induced on `mask`.

    Yields one (component, layers, bipartite) triple per component, ordered
    by smallest member; `layers` are the BFS layers from that member, as
    masks.  Every edge joins a layer to itself or to the next one, so a
    component is bipartite exactly when no edge lies inside a layer.  A
    vertex with no neighbor in `mask` is its own component, found without
    a layer walk.
    """
    adj = g.adj_bits
    left = mask
    while left:
        frontier = left & -left
        if not adj[frontier.bit_length() - 1] & mask:
            yield frontier, [frontier], True
            left ^= frontier
            continue
        comp = 0
        layers = []
        bipartite = True
        while frontier:
            comp |= frontier
            layers.append(frontier)
            reach = neighbor_mask(g, frontier)
            if reach & frontier:
                bipartite = False
            frontier = reach & mask & ~comp
        yield comp, layers, bipartite
        left &= ~comp


def components_within(g: Graph, mask: int) -> list[int]:
    """Connected components of the subgraph induced on `mask`, as masks.

    Ordered by smallest member label.
    """
    return [comp for comp, _, _ in _bfs(g, mask)]


def connected_components(g: Graph) -> list[VertexSet]:
    """Vertex sets of the connected components, ordered by smallest label."""
    return [labels_of(m) for m in components_within(g, g.full_mask)]


def mask_is_bipartite(g: Graph, mask: int) -> bool:
    """Is the subgraph induced on `mask` bipartite?"""
    return _every_component(g, mask, True)


def _every_component(g: Graph, mask: int, bipartite: bool) -> bool:
    """Is every component of g[mask] bipartite, or, with `bipartite` False,
    is none?  `_bfs`'s layer walk without layers: it stops at the answer,
    the first edge inside a layer or the first bipartite component."""
    adj = g.adj_bits
    left = mask
    while left:
        frontier = left & -left
        if not adj[frontier.bit_length() - 1] & mask:
            if not bipartite:
                return False
            left ^= frontier
            continue
        comp = 0
        odd = False
        while frontier:
            comp |= frontier
            reach = neighbor_mask(g, frontier)
            if reach & frontier:
                if bipartite:
                    return False
                odd = True
            frontier = reach & mask & ~comp
        if not odd and not bipartite:
            return False
        left &= ~comp
    return True


@dataclass(frozen=True)
class BipartiteCheck:
    """Outcome of a bipartiteness test with a witness either way.

    If bipartite, `sides` is the 2-coloring (two sorted label tuples, the
    first containing the smallest vertex of each component).  Otherwise
    `odd_closed_walk` is a closed walk of odd edge count, given as a vertex
    sequence whose first and last entries coincide.
    """

    bipartite: bool
    sides: tuple[VertexSet, VertexSet] | None
    odd_closed_walk: tuple[int, ...] | None


def bipartite_check(g: Graph) -> BipartiteCheck:
    """The sides are the even and odd BFS layers; the odd walk is
    `_odd_walk` of the first non-bipartite component."""
    sides = [0, 0]
    for _, layers, bipartite in _bfs(g, g.full_mask):
        if not bipartite:
            walk = _odd_walk(g, layers)
            return BipartiteCheck(False, None, tuple(x.bit_length() - 1 for x in walk))
        for k, layer in enumerate(layers):
            sides[k & 1] |= layer
    return BipartiteCheck(True, (labels_of(sides[0]), labels_of(sides[1])), None)


def _odd_walk(g: Graph, layers: list[int]) -> list[int]:
    """An odd closed walk of the non-bipartite component with BFS `layers`
    (as `_bfs` yields them), first vertex repeated last, each vertex as its
    one-bit mask.  It takes the lowest vertex u of the first layer k that
    holds an edge, its lowest neighbor w in that layer, and from each of u
    and w the path down through layers k - 1, ..., 0 by lowest neighbors:
    2k + 1 edges."""
    adj = g.adj_bits
    for k, layer in enumerate(layers):
        rest = layer
        while rest and not adj[(rest & -rest).bit_length() - 1] & layer:
            rest &= rest - 1
        if rest:
            break
    u = rest & -rest
    w = adj[u.bit_length() - 1] & layer
    up, down = [u], [w & -w]
    for prev in reversed(layers[:k]):
        a = adj[up[-1].bit_length() - 1] & prev
        b = adj[down[-1].bit_length() - 1] & prev
        up.append(a & -a)
        down.append(b & -b)
    return up + down[-2::-1] + up[:1]


def is_bipartite(g: Graph) -> bool:
    return mask_is_bipartite(g, g.full_mask)


# ---------------------------------------------------------------------------
# neighborhoods and independent sets


def neighbor_set(g: Graph, labels: Iterable[int]) -> VertexSet:
    """Union of the neighborhoods of `labels` (may intersect the input)."""
    m = 0
    for v in labels:
        g._check_vertex(v)
        m |= g.adj_bits[v]
    return labels_of(m)


def neighbor_mask(g: Graph, mask: int) -> int:
    adj = g.adj_bits
    out = 0
    m = mask
    while m:
        low = m & -m
        out |= adj[low.bit_length() - 1]
        m ^= low
    return out


def _independent_of_size(
    g: Graph, k: int, cap: int | None = None
) -> Iterator[tuple[int, int]]:
    """All independent k-subsets T as (T, N(T)) mask pairs, lexicographic
    by member list.  N(T) is also the set of vertices T rules out, so it
    is built up along the way, one union per member.  It only grows as T
    does, so given a `cap`, a partial T whose N(T) has more than cap
    members is dropped with everything below it.

    The walk runs in this one frame.  Depth d chooses member d + 1 among
    its candidates: the vertices above member d, outside N(T), and low
    enough to leave room for the members after it.  Going down, depth d
    keeps in per-depth arrays the candidates it has not tried yet and the
    T and N(T) of the members above it; backing up restores them.

    Every walk over independent sets comes through here, so this is the
    guard: past INDEPENDENT_ENUM_LIMIT vertices it raises
    InstanceTooLargeError before its first item."""
    n = g.n
    if n > INDEPENDENT_ENUM_LIMIT:
        raise InstanceTooLargeError(f"n = {n} exceeds the independent-set enumeration limit")
    adj = g.adj_bits
    if cap is None:
        cap = n
    if k == 0:
        yield 0, 0
        return
    last = k - 1
    # Member d + 1 is at most top + d, so that k - 1 - d vertices fit above.
    top = n - last
    todo_at = [0] * k
    t_at = [0] * k
    nb_at = [0] * k
    d = t = nb = 0
    todo = (2 << top) - 2 if top > 0 else 0
    while True:
        while todo:
            bit = todo & -todo
            todo ^= bit
            nb_v = nb | adj[bit.bit_length() - 1]
            if nb_v.bit_count() > cap:
                continue
            if d == last:
                yield t | bit, nb_v
                continue
            todo_at[d] = todo
            t_at[d] = t
            nb_at[d] = nb
            d += 1
            t |= bit
            nb = nb_v
            todo = ((2 << top + d) - (bit << 1)) & ~nb_v
        if not d:
            return
        d -= 1
        todo = todo_at[d]
        t = t_at[d]
        nb = nb_at[d]


def _independent_from(g: Graph, k: int) -> Iterator[tuple[int, int]]:
    """The (T, N(T)) pairs of `_independent_of_size` for sizes k, k + 1, ...
    up to the first size with no independent set: every larger one holds
    an independent set of that size."""
    while True:
        found = False
        for pair in _independent_of_size(g, k):
            found = True
            yield pair
        if not found:
            return
        k += 1


def independent_sets(g: Graph) -> Iterator[VertexSet]:
    """All independent sets, smallest first, lexicographic within a size.

    Includes the empty set.  Raises InstanceTooLargeError on the first
    item past INDEPENDENT_ENUM_LIMIT vertices.
    """
    for t, _ in _independent_from(g, 0):
        yield labels_of(t)


def max_independent_set(g: Graph) -> VertexSet:
    """A maximum independent set; ties break to the lexicographically
    smallest member list.  Brute force, so it raises InstanceTooLargeError
    past INDEPENDENT_ENUM_LIMIT vertices."""
    for k in range(g.n, 0, -1):
        for t, _ in _independent_of_size(g, k):
            return labels_of(t)
    return ()


# ---------------------------------------------------------------------------
# chordless cycles

Cycle = tuple[int, ...]


def iter_chordless_odd_cycles(g: Graph) -> Iterator[Cycle]:
    """Chordless odd cycles, one representative per rotation/reflection class.

    A cycle is emitted as its vertex tuple starting at its smallest vertex,
    oriented so the second vertex is smaller than the last.  The enumeration
    grows induced paths from the smallest cycle vertex, so a cycle is seen
    exactly once.  It has no work budget and can run for a long time on a
    sparse graph of a few hundred vertices; the package does not call it
    (`rees.satisfies_odd_cycle_condition` has its own budgeted search), and
    it is kept as the reference the tests compare that search against.
    """
    adj = g.adj_bits
    for s in g.vertices:
        s_bit = 1 << s
        above = g.full_mask & ~((2 << s) - 1)
        for v1 in labels_of(adj[s] & above):
            stack = [([s, v1], s_bit | (1 << v1))]
            while stack:
                path_, mask = stack.pop()
                last = path_[-1]
                mid = mask & ~(1 << last) & ~s_bit
                for w in labels_of(adj[last] & above & ~mask):
                    if adj[w] & mid:
                        continue
                    if adj[w] & s_bit:
                        if len(path_) >= 2 and (len(path_) + 1) % 2 == 1 and path_[1] < w:
                            yield tuple(path_) + (w,)
                    else:
                        stack.append((path_ + [w], mask | (1 << w)))
