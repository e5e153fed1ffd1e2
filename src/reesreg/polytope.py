"""Edge-polytope half-space systems and the dilation search.

The edge polytope of a graph H on vertices 1..N is the convex hull of the
0/1 vectors e_u + e_v over the edges of H.  When H contains an odd cycle,
the polytope is exactly the set of points on the hyperplane sum(x) = 2 that
satisfy x_i >= 0 for every regular vertex i (a vertex whose deletion leaves
only components containing odd cycles) and, for every fundamental
independent set T, sum over T <= sum over N(T).

Everything here runs on the cone graph G* of an input graph G: G plus an
apex vertex n + 1 adjacent to all of G.  The q-th dilation of its edge
polytope carries the regularity cross-check: with q0 the least dilation
whose relative interior contains a lattice point, the regularity of the
(normal) Rees algebra is n + 1 - q0.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, product
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import InstanceTooLargeError, InternalInvariantError, NoOddCycleError
from .graphs import (
    Graph,
    VertexSet,
    _bfs,
    _every_component,
    _independent_from,
    is_bipartite,
    labels_of,
    mask_of,
    neighbor_mask,
)
from .matching import matching_number
from .rees import is_rees_normal

LatticePoint = tuple[int, ...]

# Each unit dilation contributes 2 to the coordinate sum: polytope vertices
# are sums of two standard basis vectors.
UNIT_COORDINATE_SUM = 2

ENUM_AMBIENT_LIMIT = 12
ENUM_DILATION_LIMIT = 12
# Points one lattice enumeration may produce: K_11's cone has 71,214 at
# q = 4 and 336,336 at q = 5, and each q costs four to five times the last.
ENUM_POINT_LIMIT = 100_000
NORMALITY_QMAX_LIMIT = 4


def cone_graph(g: Graph) -> Graph:
    """G plus an apex vertex n + 1 adjacent to every vertex of G."""
    apex = g.n + 1
    edges = list(g.edges) + [(v, apex) for v in g.vertices]
    return Graph.from_edges(apex, edges)


def _all_components_odd(h: Graph, mask: int) -> bool:
    # Does every component of h restricted to `mask` contain an odd cycle?
    # Fewer than three vertices hold none.
    if mask.bit_count() < 3:
        return not mask
    return _every_component(h, mask, False)


def is_regular_vertex(h: Graph, v: int) -> bool:
    """Does every component of h minus v contain an odd cycle?"""
    h._check_vertex(v)
    return _all_components_odd(h, h.full_mask & ~(1 << v))


def _b_graph_connected(h: Graph, t_mask: int) -> bool:
    # Connectivity of B_H(T) for an independent T: vertex set T u N(T), but
    # only the edges between the two sides count.  Every vertex of N(T) has
    # a neighbor in T, so B_H(T) is connected when two steps at a time reach
    # all of T from one of its vertices.
    reach = frontier = t_mask & -t_mask
    while frontier:
        frontier = neighbor_mask(h, neighbor_mask(h, frontier)) & t_mask & ~reach
        reach |= frontier
    return reach == t_mask


def is_fundamental_independent_set(h: Graph, t: VertexSet) -> bool:
    """Nonempty independent T with B_H(T) connected and every component of
    H minus (T u N(T)) containing an odd cycle."""
    for v in t:
        h._check_vertex(v)
    if not t:
        return False
    t_mask = mask_of(t)
    n_mask = neighbor_mask(h, t_mask)
    return not n_mask & t_mask and _is_fundamental(h, t_mask, n_mask)


def _is_fundamental(h: Graph, t_mask: int, n_mask: int) -> bool:
    # The test above for a nonempty independent T with N(T) = n_mask.
    return _b_graph_connected(h, t_mask) and _all_components_odd(
        h, h.full_mask & ~t_mask & ~n_mask
    )


def _fundamental_pairs(h: Graph) -> list[tuple[int, int]]:
    # The fundamental independent sets T of h with N(T), as mask pairs, in
    # independent-set stream order (smallest first, lexicographic within a
    # size).  The walk visits every independent set of h, so its guard
    # refuses h past INDEPENDENT_ENUM_LIMIT vertices.
    return [(t, nb) for t, nb in _independent_from(h, 1) if _is_fundamental(h, t, nb)]


def fundamental_independent_sets(h: Graph) -> tuple[VertexSet, ...]:
    """All fundamental independent sets, in independent-set stream order
    (smallest first, lexicographic within a size).  Walks every independent
    set, so raises InstanceTooLargeError past INDEPENDENT_ENUM_LIMIT
    vertices."""
    return tuple(labels_of(t) for t, _ in _fundamental_pairs(h))


@dataclass(frozen=True)
class HalfSpaceSystem:
    """Half-space description of an edge polytope on the sum hyperplane.

    `coord_constraints` lists the regular vertices i (inequality x_i >= 0);
    `set_constraints` holds pairs (T, N(T)) for the fundamental independent
    sets (inequality sum_T x <= sum_N x).  The hyperplane itself is
    sum(x) = UNIT_COORDINATE_SUM * q at dilation q.  `ambient_n` must be
    an int >= 0 and every label an int in 1..ambient_n, else ValueError
    names the first value that is not; a bool or a float is not taken as
    an int.
    """

    ambient_n: int
    coord_constraints: tuple[int, ...]
    set_constraints: tuple[tuple[VertexSet, VertexSet], ...]

    def __post_init__(self) -> None:
        n = self.ambient_n
        if not _is_int(n) or n < 0:
            raise ValueError(f"ambient_n must be an integer >= 0, got {n!r}")
        for side in (self.coord_constraints, *chain(*self.set_constraints)):
            for v in side:
                if not _is_int(v) or not 1 <= v <= n:
                    raise ValueError(f"label {v!r} not in 1..{n}")

    @cached_property
    def _search_index(self) -> _SearchIndex:
        # Made on the first lattice search and kept for the next dilation,
        # which reuses the lists the first one built.  A coordinate in T
        # and N alike, which only a system built by hand lists, adds as
        # much to each side, so it is dropped from both.
        pairs = []
        for t, nb in self.set_constraints:
            t_mask, n_mask = mask_of(t), mask_of(nb)
            pairs.append((t_mask & ~n_mask, n_mask & ~t_mask))
        return _index_masks(self.ambient_n, mask_of(self.coord_constraints), pairs)


def halfspace_system(h: Graph) -> HalfSpaceSystem:
    """Build the half-space description for a graph with an odd cycle.

    Raises NoOddCycleError for bipartite input (the description is only
    exact in the presence of an odd cycle), then InstanceTooLargeError past
    INDEPENDENT_ENUM_LIMIT vertices (the fundamental sets come from a walk
    over every independent set), and InternalInvariantError if a listed
    inequality turns out to be an implicit equality, i.e. tight at every
    polytope vertex e_u + e_v.
    """
    if is_bipartite(h):
        raise NoOddCycleError("half-space description needs an odd cycle")
    pairs = _fundamental_pairs(h)
    coords = tuple(v for v in h.vertices if is_regular_vertex(h, v))
    _guard(h.adj_bits, coords, pairs)
    return _listed_system(h.n, coords, pairs)


def _strict_somewhere(adj: Sequence[int], t: int, nb: int) -> bool:
    # Does some edge have more ends in nb than in t, so that sum_t x <=
    # sum_nb x is strict at its polytope vertex e_u + e_v?  Exactly when an
    # end u lies in nb - t and the other end is in nb or outside t.  The
    # ends are tried from the top bit down: on a cone graph the apex comes
    # first and settles it.
    outside = ~(t & ~nb)
    m = nb & ~t
    while m:
        u = m.bit_length() - 1
        if adj[u] & outside:
            return True
        m ^= 1 << u
    return False


def _guard(
    adj: Sequence[int], coords: tuple[int, ...], pairs: Sequence[tuple[int, int]]
) -> None:
    # The implicit-equality guard on a system of the graph with adjacency
    # masks `adj`: its regular vertices and its (T, N(T)) mask pairs.  Every
    # constraint is checked; a failing set constraint is reported by the
    # first failing T in system order (smallest first, then lexicographic).
    for i in coords:
        if not adj[i]:
            raise InternalInvariantError(
                f"x_{i} >= 0 is an implicit equality (isolated regular vertex)"
            )
    flat = [t for t, nb in pairs if not _strict_somewhere(adj, t, nb)]
    if flat:
        t = min(flat, key=lambda t: (t.bit_count(), labels_of(t)))
        raise InternalInvariantError(
            f"set constraint for T = {labels_of(t)} is an implicit equality"
        )


def _listed_system(
    n: int, coords: tuple[int, ...], pairs: Sequence[tuple[int, int]]
) -> HalfSpaceSystem:
    # The system on 1..n of the regular vertices and the (T, N(T)) mask
    # pairs, the sets listed smallest first, then lexicographically.
    sets = sorted((t.bit_count(), labels_of(t), labels_of(nb)) for t, nb in pairs)
    return HalfSpaceSystem(
        ambient_n=n,
        coord_constraints=coords,
        set_constraints=tuple((t, nb) for _, t, nb in sets),
    )


def _cone_options(g: Graph, comp: int, bipartite: bool) -> list[tuple[int, int]]:
    # The independent subsets I of one component of g that leave no
    # bipartite component in comp - N[I], as (I, N(I)) mask pairs, the
    # empty set included.  On a bipartite component these are its maximal
    # independent sets, the I with N[I] = comp.
    #
    # The walk decides the vertices in order and leaves a vertex outside
    # N[I] out of I only while that can still pay off.  Only a later
    # neighbor outside N[I] can still dominate it, and on a bipartite
    # component one must.  On any component, it needs some neighbor
    # outside N[I], or it ends as an isolated vertex of comp - N[I].
    #
    # Each state is (todo, chosen, closed): the vertices still to decide,
    # all above the decided ones and outside N[chosen] = closed.  The walk
    # follows the "out" branch at once and stacks the "in" branch, so it
    # meets the leaves in the order of a recursion that tries "out" first.
    adj = g.adj_bits
    options = []
    stack = [(comp, 0, 0)]
    while stack:
        todo, chosen, closed = stack.pop()
        while todo:
            bit = todo & -todo
            todo ^= bit
            nb = adj[bit.bit_length() - 1]
            if nb & (todo if bipartite else ~closed):
                stack.append((todo & ~nb, chosen | bit, closed | bit | nb))
            else:
                todo &= ~nb
                chosen |= bit
                closed |= bit | nb
        if bipartite:
            if closed != comp:
                continue
        else:
            # Fewer than three vertices left hold no odd cycle.
            rest = comp & ~closed
            if rest and (rest.bit_count() < 3 or not _every_component(g, rest, False)):
                continue
        options.append((chosen, closed & ~chosen))
    return options


def _cone_constraints(g: Graph) -> tuple[tuple[int, ...], list[tuple[int, int]]]:
    # The cone graph's regular vertices and its fundamental sets T with
    # N(T), as mask pairs in no particular order, read off g.  The apex is
    # adjacent to every vertex of g, so in the cone graph: B(T) is
    # connected for every nonempty independent T, and what is left after
    # deleting T u N(T) is g - N_g[T] (or nothing, for T = {apex}).  So the
    # fundamental sets are {apex} and the nonempty independent T of g with
    # no bipartite component in g - N_g[T]; that test splits over the
    # components of g, and N(T) is N_g(T) plus the apex.  A vertex v of g is
    # regular when g - v keeps an edge (the cone minus v is connected, and
    # an edge plus the apex is a triangle); the apex is regular when no
    # component of g is bipartite.
    #
    # The implicit-equality guard of halfspace_system would find nothing:
    # every cone vertex has a neighbor.  A row T inside V(g) has the apex
    # in N, and as T is independent and g has an edge, some vertex of g is
    # outside T: its edge to the apex is strict.  The row {apex} has
    # N = V(g), which holds both ends of an edge of g.
    m = g.m
    if not m:
        raise NoOddCycleError("half-space description needs an odd cycle")
    apex = g.n + 1
    apex_bit = 1 << apex
    adj_g = g.adj_bits
    components = list(_bfs(g, g.full_mask))
    coords = tuple(v for v in g.vertices if m > adj_g[v].bit_count())
    if not any(bipartite for _, _, bipartite in components):
        coords += (apex,)
    # One option per component; their masks are disjoint, so a choice's
    # T and N(T) are the unions of its parts'.  A component with a single
    # option, such as an isolated vertex, adds it to every choice, so it
    # is folded into the fixed part before the product.
    fixed_t, fixed_nb = 0, apex_bit
    options = []
    for comp, _, bipartite in components:
        found = _cone_options(g, comp, bipartite)
        if len(found) == 1:
            fixed_t |= found[0][0]
            fixed_nb |= found[0][1]
        else:
            options.append(found)
    pairs = [(apex_bit, g.full_mask)]
    for choice in product(*options):
        t, nb = fixed_t, fixed_nb
        for part, part_nb in choice:
            t |= part
            nb |= part_nb
        if t:
            pairs.append((t, nb))
    return coords, pairs


def _cone_system(g: Graph) -> HalfSpaceSystem:
    # halfspace_system(cone_graph(g)), read off g.
    return _listed_system(g.n + 1, *_cone_constraints(g))


def point_membership(
    system: HalfSpaceSystem, q: int, point: LatticePoint, strict: bool = False
) -> bool:
    """Is `point` in the q-th dilation (strict: in its relative interior)?

    Non-strict: coordinate sum 2q and every listed inequality holds.
    Strict: every listed inequality holds strictly.  The construction guard
    rules out implicit equalities, so strictness on the listed inequalities
    is exactly relative interiority.
    """
    _check_dilation(q)
    if len(point) != system.ambient_n:
        raise ValueError(
            f"point has {len(point)} coordinates, ambient is {system.ambient_n}"
        )
    if sum(point) != UNIT_COORDINATE_SUM * q:
        return False
    low = 1 if strict else 0
    if any(point[i - 1] < low for i in system.coord_constraints):
        return False
    for t, nb in system.set_constraints:
        lhs = sum(point[v - 1] for v in t)
        rhs = sum(point[v - 1] for v in nb)
        if lhs > rhs or (strict and lhs == rhs):
            return False
    return True


def _is_int(x: object) -> bool:
    # An int that is not a bool.
    return isinstance(x, int) and not isinstance(x, bool)


def _check_dilation(q: int) -> None:
    # A dilation is an int >= 1; a bool is not taken as one.
    if not _is_int(q) or q < 1:
        raise ValueError(f"dilation q must be an integer >= 1, got {q!r}")


def _check_enum_guard(ambient_n: int, q: int) -> None:
    # The one limit on lattice enumeration.
    _check_dilation(q)
    if ambient_n > ENUM_AMBIENT_LIMIT or q > ENUM_DILATION_LIMIT:
        raise InstanceTooLargeError(
            f"lattice enumeration limited to ambient <= {ENUM_AMBIENT_LIMIT}"
            f" and q <= {ENUM_DILATION_LIMIT}"
        )


def _enumerable_cone_system(g: Graph, q: int) -> HalfSpaceSystem:
    # The cone graph's half-space system, to enumerate its q-th dilation.
    # The guard comes first so that a large input fails at once; an
    # edgeless g keeps NoOddCycleError first, since its cone is a star.
    if g.m:
        _check_enum_guard(g.n + 1, q)
    return _cone_system(g)


class _SearchIndex(NamedTuple):
    # What the lattice search needs of a system beyond q and strictness, by
    # 0-based coordinate i and constraint number c, for set constraints
    # whose T and N are disjoint.  The first seven fields come from one pass
    # over the constraints; the five lists per coordinate after them are
    # None until `level` builds them, when a search first enters i.
    listed: tuple[int, ...]  # 1 if x_i >= 0 is listed, else 0
    balance: list[int]  # |N & listed| - |T & listed|
    rows: list[tuple[int, int, int]]  # (T, N, the last bit of N), as masks
    # Three values the search reads instead of walking the constraints;
    # the least balance is n + 1, above every balance, when no N is empty.
    least_2q: int  # the least 2q the precheck of _search can pass
    start: int  # the first coordinate that ends an N, or n - 1 if none
    least_balance_no_n: int  # the least balance of a row with an empty N
    # The bound each c puts on the next value e_i (see _search).
    floor_at: list[list[int]]  # e_i >= -slack: i is the last of N
    plus: list[list[int] | None]  # the c with i in N
    minus: list[list[int] | None]  # the c with i in T
    spend: list[list[int] | None]  # e_i <= slack + left: i outside T u N
    spend2: list[list[int] | None]  # 2 e_i <= slack + left: i in T before N ends
    cap: list[list[int] | None]  # e_i <= slack: i in T after all of N

    def level(self, i: int) -> None:
        # Build coordinate i's five lists, filing each constraint by its
        # bit tests; a later search on the same index reuses them.
        v = i + 1
        bit = 1 << v
        p, m, s, s2, cp = [], [], [], [], []
        for c, (t, nb, last) in enumerate(self.rows):
            if t & bit:
                m.append(c)
                (s2 if v < last else cp).append(c)
            elif nb & bit:
                p.append(c)
            elif v < last:
                s.append(c)
        self.plus[i], self.minus[i], self.spend[i] = p, m, s
        self.spend2[i], self.cap[i] = s2, cp


def _index_masks(n: int, listed: int, pairs: Iterable[tuple[int, int]]) -> _SearchIndex:
    # The index of the system on 1..n with the listed coordinates `listed`
    # and the set constraints (T, N) given as disjoint mask pairs, numbered
    # in order, with no coordinate's lists built yet.
    balance = []
    floor_at: list[list[int]] = [[] for _ in range(n)]
    rows = []
    start = n - 1
    least_n = least_no_n = n + 1
    for c, (t, nb) in enumerate(pairs):
        b = (nb & listed).bit_count() - (t & listed).bit_count()
        balance.append(b)
        last = nb.bit_length() - 1
        if nb:
            floor_at[last - 1].append(c)
            if last <= start:
                start = last - 1
            if b < least_n:
                least_n = b
        elif b < least_no_n:
            least_no_n = b
        rows.append((t, nb, last))
    is_listed = tuple(listed >> v & 1 for v in range(1, n + 1))
    # With every listed coordinate at 1, 2q covers them all and leaves
    # each constraint with an N one more on its N side than on its T side.
    count = listed.bit_count()
    unbuilt = [None] * n
    return _SearchIndex(
        is_listed, balance, rows,
        max(count, count - least_n + 1), start, least_no_n,
        floor_at, unbuilt, unbuilt[:], unbuilt[:], unbuilt[:], unbuilt[:],
    )


def _least_dilation(index: _SearchIndex) -> int:
    # The least q whose relative interior can pass the precheck of
    # _search: with every listed coordinate at its minimum 1, 2q covers
    # them all, and each constraint with an N coordinate can still be made
    # strict, 2q >= listed - balance + 1.  A constraint with no N
    # coordinate fails every q alike.
    return max(1, (index.least_2q + 1) // 2)


def _points(system: HalfSpaceSystem, q: int, strict: bool) -> Iterator[LatticePoint]:
    # _search on a system, after the enumeration guard.  The points are
    # counted, and one past ENUM_POINT_LIMIT raises InstanceTooLargeError.
    _check_enum_guard(system.ambient_n, q)
    return _within_budget(_search(system._search_index, system.ambient_n, q, strict))


def _within_budget(points: Iterator[LatticePoint]) -> Iterator[LatticePoint]:
    for count, point in enumerate(points, 1):
        if count > ENUM_POINT_LIMIT:
            raise InstanceTooLargeError(
                f"lattice enumeration limited to ENUM_POINT_LIMIT ="
                f" {ENUM_POINT_LIMIT} points"
            )
        yield point


def _search(index: _SearchIndex, n: int, q: int, strict: bool) -> Iterator[LatticePoint]:
    # The lattice points of the q-th dilation of the system on 1..n behind
    # `index` (strict: of its relative interior), ascending lexicographic,
    # produced one at a time by a depth-first search over the coordinates
    # in order.
    #
    # Every point is x = low + e at the listed coordinates (low = 1 under
    # `strict`, else 0) and x = e elsewhere, with e >= 0 summing to the
    # excess 2q - sum(low); e and x share their lexicographic order, and
    # e >= 0 leaves no budget short of the remaining minimums.  In terms of
    # e each set constraint reads sum_N e - sum_T e >= need, and slack[c]
    # holds the left side over the coordinates assigned so far minus need.
    # With budget `left` still to place, the best completion puts all of it
    # on an unassigned N coordinate if one is left, so a prefix can be
    # completed only if slack + left >= 0 while c has an N coordinate to
    # come, and slack >= 0 after that.  The value of the next coordinate
    # moves each bound one way, so the values that keep every bound form an
    # interval, and only those children are visited.
    #
    # The search runs in this one frame: level i keeps its value value[i],
    # the top of its interval upper[i] and the budget left[i] it started
    # with, and slack always includes the values of the levels above i.
    #
    # It enters first the level `start` of the first coordinate that is the
    # last of some N (on a cone, vertex n), with every level before it at
    # 0.  That is the value the search would give them: no such level has
    # a floor, and with no value placed yet the precheck's slack + excess
    # >= 0 (slack >= 0 for an empty N) keeps each of its tops at 0 or
    # more.  A back-up past `start` makes the level before it `start` and
    # enters it again from 1, the step up from 0: it has no floor, left[i]
    # is still the excess and every later level is undone, so the entry
    # computes the top it would have had.  Each level's lists are built at
    # its first entry.
    mins = list(index.listed) if strict else [0] * n
    excess = UNIT_COORDINATE_SUM * q - sum(mins)
    if not n:
        return
    # The precheck: no completion exists when some slack + excess, or the
    # slack alone for an empty N, is negative.  Each slack starts at
    # low * (balance - 1), so the least balance of each kind decides it.
    # Under `strict` the excess is 2q - |listed|, so an excess >= 0 that
    # every row with an N passes is exactly 2q >= least_2q.  Without
    # `strict` every slack starts at 0 and the excess 2q is positive.
    if strict:
        if UNIT_COORDINATE_SUM * q < index.least_2q or index.least_balance_no_n < 1:
            return
        slack = [b - 1 for b in index.balance]
    else:
        slack = [0] * len(index.balance)
    plus, minus = index.plus, index.minus
    floor_at, spend, spend2, cap = index.floor_at, index.spend, index.spend2, index.cap
    get = slack.__getitem__
    prefix = mins[:]
    value = [0] * n
    upper = [0] * n
    left = [excess] * n
    last = n - 1
    i = start = index.start
    lo = 0
    while True:
        # Enter level i: the interval of values its bounds allow, from lo
        # up (lo is 1 on a level entered again past `start`, else 0).
        if plus[i] is None:
            index.level(i)
        budget = left[i]
        bound = floor_at[i]
        if bound:
            lo = max(lo, -min(map(get, bound)))
        hi = budget
        bound = spend[i]
        if bound:
            hi = min(hi, budget + min(map(get, bound)))
        bound = spend2[i]
        if bound:
            hi = min(hi, (budget + min(map(get, bound))) // 2)
        bound = cap[i]
        if bound:
            hi = min(hi, min(map(get, bound)))
        if i == last:
            if lo <= budget <= hi:
                prefix[i] = mins[i] + budget
                yield tuple(prefix)
        elif lo <= hi:
            if lo:
                for c in plus[i]:
                    slack[c] += lo
                for c in minus[i]:
                    slack[c] -= lo
            value[i] = lo
            upper[i] = hi
            prefix[i] = mins[i] + lo
            left[i + 1] = budget - lo
            i += 1
            lo = 0
            continue
        # Back up to the deepest level with a value left in its interval,
        # undoing the slack of each level it leaves, and step that level up
        # by 1; past `start`, enter the level before it again at 1.
        while True:
            i -= 1
            if i < start:
                if i < 0:
                    return
                start = i
                lo = 1
                break
            e = value[i]
            if e < upper[i]:
                for c in plus[i]:
                    slack[c] += 1
                for c in minus[i]:
                    slack[c] -= 1
                value[i] = e + 1
                prefix[i] += 1
                left[i + 1] -= 1
                i += 1
                lo = 0
                break
            if e:
                for c in plus[i]:
                    slack[c] -= e
                for c in minus[i]:
                    slack[c] += e


def lattice_points(system: HalfSpaceSystem, q: int) -> tuple[LatticePoint, ...]:
    """All lattice points of the q-th dilation, ascending lexicographic.
    Raises InstanceTooLargeError past ENUM_POINT_LIMIT points."""
    return tuple(_points(system, q, strict=False))


def interior_lattice_points(system: HalfSpaceSystem, q: int) -> tuple[LatticePoint, ...]:
    """Lattice points strictly inside the q-th dilation, ascending
    lexicographic.  Candidates are restricted to >= 1 at coordinates with a
    listed constraint and >= 0 elsewhere.  Raises InstanceTooLargeError
    past ENUM_POINT_LIMIT points."""
    return tuple(_points(system, q, strict=True))


@dataclass(frozen=True)
class OracleResult:
    """Outcome of the dilation search on the cone graph.

    q0 is the least dilation whose relative interior contains a lattice
    point, `interior_witness` the lexicographically smallest such point,
    and reg = n + 1 - q0 the regularity it certifies.
    """

    q0: int
    interior_witness: LatticePoint
    reg: int


def compute_q0(g: Graph) -> OracleResult:
    """Search dilations q = 1, 2, ... of the cone-graph polytope.

    Each dilation's candidates are scanned in ascending lexicographic order
    and the scan stops at the first interior point.  The search runs on the
    cone's constraints as masks, read off G, and starts at the least q
    that can hold an interior point: 2q must reach the number of listed
    coordinates, and each set constraint must be strict with every listed
    coordinate at 1 and the rest of 2q on its N side.  Every smaller
    dilation's interior is empty.  Requires at least two edges and a
    normal Rees algebra; the normality test and mat(G) are the graph's
    stored facts when the closed form has run on it.  The search is
    bounded by q <= n + 1 - mat(G); running past the bound would
    contradict reg >= mat and raises InternalInvariantError.
    """
    if g.m < 2:
        raise ValueError("oracle needs a graph with at least two edges")
    if not is_rees_normal(g):
        raise ValueError("oracle needs a normal Rees algebra")
    n = g.n + 1
    # q <= bound <= n keeps every dilation within the enumeration guard.
    _check_enum_guard(n, 1)
    coords, pairs = _cone_constraints(g)
    index = _index_masks(n, mask_of(coords), pairs)
    bound = n - matching_number(g)
    for q in range(_least_dilation(index), bound + 1):
        first = next(_search(index, n, q, strict=True), None)
        if first is not None:
            return OracleResult(q0=q, interior_witness=first, reg=n - q)
    raise InternalInvariantError(
        f"no interior lattice point up to the bound q = {bound}"
    )


def reduction_move(a: LatticePoint, i: int) -> LatticePoint:
    """Shift one unit from coordinate i (a vertex of G) to the apex.

    `a` is a point in the cone ambient (length n + 1); requires
    1 <= i <= n and a_i >= 1.
    """
    n = len(a) - 1
    if not (1 <= i <= n):
        raise ValueError(f"index {i} not in 1..{n}")
    if a[i - 1] < 1:
        raise ValueError(f"coordinate {i} is {a[i - 1]}, cannot go below 0")
    b = list(a)
    b[i - 1] -= 1
    b[n] += 1
    return tuple(b)


def canonical_point(g: Graph) -> tuple[int, LatticePoint]:
    """The distinguished pair (q, p) = (n - mat, (1, ..., 1, n - 2 mat)).

    p always lies in the q-th dilation of the cone polytope; it is interior
    exactly when the graph fails to be Tutte-Berge (given a normal Rees
    algebra, at least two edges and positive deficiency).
    """
    mat = matching_number(g)
    return g.n - mat, (1,) * g.n + (g.n - 2 * mat,)


def verify_normality_small(g: Graph, q_max: int = 3) -> bool:
    """Directly test normality in low dilations.

    For q = 1..q_max, every lattice point of the q-th dilation of the
    cone-graph polytope must be a sum of q edge vectors of the cone graph.
    Desk scale only (n <= 8, q_max <= 4).  An edgeless graph passes
    trivially: its cone polytope is the apex simplex and every dilation
    point splits into apex edges.
    """
    if not _is_int(q_max) or not 1 <= q_max <= NORMALITY_QMAX_LIMIT:
        raise ValueError(f"q_max must be an integer in 1..{NORMALITY_QMAX_LIMIT}, got {q_max!r}")
    if g.n > 8:
        raise InstanceTooLargeError("normality check limited to n <= 8")
    if g.m == 0:
        return True
    star = cone_graph(g)
    system = halfspace_system(star)
    edge_idx = [(u - 1, v - 1) for u, v in star.edges]
    memo: dict[LatticePoint, bool] = {}

    def decomposable(p: LatticePoint) -> bool:
        if sum(p) == 0:
            return True
        cached = memo.get(p)
        if cached is not None:
            return cached
        ok = False
        for u, v in edge_idx:
            if p[u] >= 1 and p[v] >= 1:
                step = list(p)
                step[u] -= 1
                step[v] -= 1
                if decomposable(tuple(step)):
                    ok = True
                    break
        memo[p] = ok
        return ok

    return all(
        decomposable(p)
        for q in range(1, q_max + 1)
        for p in _points(system, q, strict=False)
    )


__all__ = [
    "LatticePoint",
    "HalfSpaceSystem",
    "OracleResult",
    "cone_graph",
    "is_regular_vertex",
    "is_fundamental_independent_set",
    "fundamental_independent_sets",
    "halfspace_system",
    "point_membership",
    "lattice_points",
    "interior_lattice_points",
    "compute_q0",
    "reduction_move",
    "canonical_point",
    "verify_normality_small",
    "UNIT_COORDINATE_SUM",
]
