"""Reference implementations that the tests compare the library against.

The Gallai-Edmonds and factor-critical references use the vertex-deletion
characterization: they rerun the blossom matching on every single-vertex
deletion instead of reading D(G) off one maximum matching, so they share
only the blossom matching with the library.  The odd cycle condition
reference lists every chordless odd cycle and scans all pairs, where the
library decides it in three stages: a bipartite graph passes, one short
odd walk may refute, and a budgeted search of induced paths inside the one
non-bipartite component settles the rest.
The lattice-point reference tests every composition of 2q against the
membership test, where the library prunes a depth-first search on partial
sums.  The Tutte-Berge witness reference tests every vertex subset from
`itertools.combinations`, where the library searches independent sets on
bitmasks from the deficiency up and cuts a partial T by the size of N(T);
the implicit-equality reference scans
every edge, where the library reads the answer off neighborhood masks.
The matching number reference is a branch and bound over the edge list,
where the library runs the blossom search.  The independent-set walk
reference recurses through one generator frame per member, where the
library walks in one frame with per-depth arrays.  The independence number
is the size of the library's brute-force `max_independent_set`, under its
guard, and the chordless odd cycles are the library's unbudgeted
enumeration, sorted; the library decides the Konig property and the odd
cycle condition without either.  The edge-list reference walks every text line
by line, where the library reads a text in `write_graph`'s form in whole
columns and walks only the rest.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from reesreg import (
    GallaiEdmonds,
    Graph,
    GraphFormatError,
    HalfSpaceSystem,
    InstanceTooLargeError,
    induced_subgraph,
    matching_number,
    max_independent_set,
    point_membership,
)
from reesreg.graphs import (
    Cycle,
    VertexSet,
    components_within,
    iter_chordless_odd_cycles,
    labels_of,
    mask_of,
    neighbor_mask,
)
from reesreg.polytope import UNIT_COORDINATE_SUM, LatticePoint

BRUTEFORCE_EDGE_LIMIT = 26


def matching_number_bruteforce(g: Graph) -> int:
    """Maximum matching size by branch and bound over the edge list.

    The bound is size + min(edges left, floor(free vertices / 2)).  Guarded
    to at most 26 edges.
    """
    if g.m > BRUTEFORCE_EDGE_LIMIT:
        raise InstanceTooLargeError(
            f"{g.m} edges exceeds the brute-force limit of {BRUTEFORCE_EDGE_LIMIT}"
        )
    edges = [(1 << u | 1 << v) for u, v in g.edges]
    total = len(edges)
    n = g.n
    best = 0

    def grow(i: int, used_mask: int, size: int) -> None:
        nonlocal best
        if size > best:
            best = size
        free = n - used_mask.bit_count()
        if size + min(total - i, free // 2) <= best:
            return
        for j in range(i, total):
            ej = edges[j]
            if not used_mask & ej:
                grow(j + 1, used_mask | ej, size + 1)

    grow(0, 0, 0)
    return best


def independence_number(g: Graph) -> int:
    """The size of `max_independent_set`, under its guard."""
    return len(max_independent_set(g))


def independent_of_size_recursive(
    g: Graph, k: int, cap: int | None = None
) -> Iterator[tuple[int, int]]:
    """The (T, N(T)) mask pairs of `graphs._independent_of_size`, by a
    chain of generator frames, one per member: each tries the vertices
    from the one after the last member up, skips those in N(T) and those
    that take N(T) past `cap`, and recurses for the next member.  No
    guard."""
    n = g.n
    adj = g.adj_bits
    if cap is None:
        cap = n
    if k == 0:
        yield 0, 0
        return

    def rec(start: int, chosen: int, nb: int, need: int) -> Iterator[tuple[int, int]]:
        for v in range(start, n - need + 2):
            if nb >> v & 1:
                continue
            nb_v = nb | adj[v]
            if nb_v.bit_count() > cap:
                continue
            if need == 1:
                yield chosen | 1 << v, nb_v
            else:
                yield from rec(v + 1, chosen | 1 << v, nb_v, need - 1)

    yield from rec(1, 0, 0, k)


def chordless_odd_cycles(g: Graph) -> tuple[Cycle, ...]:
    """All chordless odd cycles, shortest first, then lexicographic.  No
    work budget, like `iter_chordless_odd_cycles`."""
    return tuple(sorted(iter_chordless_odd_cycles(g), key=lambda c: (len(c), c)))


def gallai_edmonds_by_deletion(g: Graph) -> GallaiEdmonds:
    """D/A/C by n + 1 matching runs: v is in D(G) iff deleting v does not
    drop the matching number."""
    mat = matching_number(g)
    d_mask = 0
    all_mask = g.full_mask
    for v in g.vertices:
        rest, _ = induced_subgraph(g, labels_of(all_mask & ~(1 << v)))
        if matching_number(rest) == mat:
            d_mask |= 1 << v
    a_mask = neighbor_mask(g, d_mask) & ~d_mask
    c_mask = all_mask & ~d_mask & ~a_mask
    return GallaiEdmonds(
        d_set=labels_of(d_mask),
        a_set=labels_of(a_mask),
        c_set=labels_of(c_mask),
        d_components=tuple(labels_of(m) for m in components_within(g, d_mask)),
    )


def is_factor_critical_by_deletion(g: Graph) -> bool:
    """Does every single-vertex deletion leave a perfect matching?  False
    for even |V| (including n = 0); a single vertex counts."""
    if g.n % 2 == 0:
        return False
    target = (g.n - 1) // 2
    if matching_number(g) < target:
        return False
    all_mask = g.full_mask
    for v in g.vertices:
        rest, _ = induced_subgraph(g, labels_of(all_mask & ~(1 << v)))
        if matching_number(rest) < target:
            return False
    return True


def satisfies_odd_cycle_condition_pairwise(g: Graph) -> bool:
    """Every two vertex-disjoint odd cycles are joined by an edge.

    Checked over chordless odd cycles only: a violating pair of odd cycles
    always contains a violating chordless pair (shrink each cycle to a
    chordless odd cycle inside its vertex set), and every chordless odd
    cycle is an odd cycle.
    """
    cycles = [mask_of(c) for c in iter_chordless_odd_cycles(g)]
    adj = g.adj_bits
    for i, ci in enumerate(cycles):
        for cj in cycles[i + 1:]:
            if ci & cj:
                continue
            joined = False
            m = ci
            while m:
                low = m & -m
                if adj[low.bit_length() - 1] & cj:
                    joined = True
                    break
                m ^= low
            if not joined:
                return False
    return True


def lattice_points_by_composition(
    system: HalfSpaceSystem, q: int, strict: bool
) -> tuple[LatticePoint, ...]:
    """The lattice points of the q-th dilation (strict: of its relative
    interior), ascending lexicographic, by testing every integer vector of
    coordinate sum 2q that is >= 1 (strict) or >= 0 at the listed
    coordinates and >= 0 elsewhere against `point_membership`."""
    low = 1 if strict else 0
    listed = set(system.coord_constraints)
    mins = [low if v in listed else 0 for v in range(1, system.ambient_n + 1)]
    k = len(mins)
    points = []

    def rec(i: int, left: int, acc: list[int]) -> None:
        if i == k:
            p = tuple(acc)
            if not left and point_membership(system, q, p, strict=strict):
                points.append(p)
            return
        rest = sum(mins[i + 1:])
        for c in range(mins[i], left - rest + 1):
            rec(i + 1, left - c, acc + [c])

    rec(0, UNIT_COORDINATE_SUM * q, [])
    return tuple(points)


def tutte_berge_witness_by_subsets(g: Graph) -> VertexSet | None:
    """The first independent T, smallest first and then lexicographic, with
    |T| = |N(T)| + |V| - 2 mat(G), or None: every subset of each size, in
    `itertools.combinations` order, with N(T) read from `g.neighbors`."""
    defect = g.n - 2 * matching_number(g)
    for k in range(g.n + 1):
        for t in itertools.combinations(g.vertices, k):
            if any(g.has_edge(u, v) for u, v in itertools.combinations(t, 2)):
                continue
            if k == len(set().union(*map(g.neighbors, t))) + defect:
                return t
    return None


def strict_at_some_edge(g: Graph, t: VertexSet, nb: VertexSet) -> bool:
    """Does some edge of g have more ends in nb than in t, so that
    sum_t x <= sum_nb x is not an implicit equality?  One set intersection
    per edge and side."""
    t_set = set(t)
    n_set = set(nb)
    return any(len(t_set & {u, v}) < len(n_set & {u, v}) for u, v in g.edges)


def parse_graph_lines(text: str) -> Graph:
    """Parse the edge-list format.

    One leading byte-order mark (U+FEFF) is dropped.  Lines starting with
    '#' and blank lines are ignored.  The first data line is "n m"; exactly
    m edge lines "u v" follow, in any order, either endpoint first.  One
    pass splits each line once.  A bad header is reported at once; then a
    wrong edge-line count; then the first bad line, loop or out-of-range
    label; and a repeat only if every line passes those checks.  The Graph
    constructor checks the result.
    """
    n = m = -1
    found = 0
    fault = None
    # An insertion-ordered dict, not a set: a file written in canonical
    # order then sorts in linear time.
    edges: dict[tuple[int, int], None] = {}
    repeat = None
    for lineno, line in enumerate(text.removeprefix("\ufeff").splitlines(), start=1):
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
