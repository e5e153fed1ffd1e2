"""Normality and regularity of the Rees algebra of an edge ideal.

The Rees algebra of the edge ideal of a simple graph G is normal exactly
when G satisfies the odd cycle condition (every two vertex-disjoint odd
cycles are joined by an edge) and at most one component of G is
non-bipartite.  For a normal Rees algebra over a graph with at least two
edges, the Castelnuovo-Mumford regularity is mat(G) when G is Tutte-Berge
and mat(G) + 1 otherwise.

No polynomial test of the odd cycle condition is known to us.
`satisfies_odd_cycle_condition` decides it in three stages, with an answer
for one cycle (1b) after the first and a second refutation (2b) inside the
third, before its first path grows, each sound on its own.  Stages 1, 1b
and 2 see only the vertices of degree >= 2: one of degree <= 1 is a leaf or
isolated in every induced subgraph, on no cycle and cutting no component,
so dropping them keeps the components, their bipartiteness and every odd
cycle.

1. A bipartite graph has no odd cycle, so it passes.
1b. One cycle.  The 2-core of K, the first non-bipartite component, is
   built here, and stage 3 runs on it.  When that core is one cycle, it is
   the only cycle of K, odd as K is not bipartite.  The components before
   K were found bipartite, and a vertex of degree <= 1 joins no two
   components, so G passes exactly when the components after K are
   bipartite.  Stage 2's walk contains the cycle, so it refutes exactly
   those graphs; stage 3 would leave a path, which is bipartite, after its
   first start and grow none.
2. Refute first.  The BFS layers of the first non-bipartite component close
   a short odd closed walk W (2k + 1 edges; `graphs._odd_walk`, which also
   gives `bipartite_check` its walk, and gives this stage its vertices as
   one-bit masks).  W contains an odd cycle C, and N[C] lies in N[W], so
   an odd cycle of G - N[W] is disjoint from C and not joined to it: the
   graph fails.  The test leaves out the components that stage 1 already
   found bipartite: they lie outside N[W] and hold no odd cycle.
3. Exact search, inside the first non-bipartite component K only: W lies
   in K, so G - N[W] holds every other component, and stage 2 found it
   bipartite, so every odd cycle lies in K.  It runs on the 2-core of K
   (Batagelj-Zaversnik 2003), which holds every cycle of K, is connected
   and has K's non-bipartite blocks, so all below holds in it as in K.
   A violating pair of odd cycles shrinks to a violating pair of chordless
   odd cycles (each to one inside its own vertex set).  The starts are tried
   in descending degree order, ties by label.  Call C1 the cycle whose
   first vertex s in that order comes first, and C2 the other: C2, and C1
   apart from s, lie after s in the order ("later").  The search grows
   the induced paths from each start s and fails the graph when one
   closes into a chordless odd cycle C such that G[later - N[C]] has an
   odd cycle.  It prunes without losing C1:
   - C1 lies inside one biconnected block, which holds s and an odd cycle.
     So a start s is tried only in a non-bipartite block (one
     Hopcroft-Tarjan pass finds the blocks), and its paths grow only
     inside the non-bipartite blocks that hold s, through later vertices.
   - C2 lies in later - N[s], so a start with fewer than three vertices
     there is skipped before any other test (on K_n, every start is).
   - C2 lies among the later vertices, which shrink with each start, so
     the starts stop once they induce a bipartite graph: soon, when the
     first starts, of high degree, meet every odd cycle.
   - C2 lies in later - N[P] for every prefix P of C1, and that set
     shrinks as P grows, so a path is dropped once the set is bipartite.
     The search carries the union of the set's non-bipartite components:
     an odd cycle left after an extension lies inside it.
   Within a start s the tests run cheapest and most telling first: the
   count of later vertices beyond N[s], then the odd part of
   G[later - N[s]] (the union of its non-bipartite components).  Only when
   that part is empty is G[later] tested, to stop the starts if it is
   bipartite; a non-empty part already shows that it is not.  At the first
   start with a non-empty part come stage 2b and then the block pass, and
   paths grow from s only inside its blocks.
   The search is still exponential in the worst case, so it raises
   InstanceTooLargeError after OCC_STEP_LIMIT induced paths.

2b. Refute from the far side, once, before stage 3 grows its first path.
   At the first start s where G[later - N[s]] has an odd cycle, the BFS of
   the odd part of G[later - N[s]] closes an odd walk W' in its first
   component, and the graph fails when G[K - N[W']] is not bipartite.
   This is stage 2's argument again: W' lies in K and holds an odd cycle
   C', N[C'] lies in N[W'], and every odd cycle lies in K.  So the test is
   sound at any start.  It is tried before the block pass, which a refuted
   graph then never pays for.  A violation that stage 3 would find only
   after many paths often shows here at once.  The try only refutes, and
   a passing graph is never refuted, so a passing graph keeps its answer
   and the paths its search grew.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from .decomposition import is_tutte_berge
from .errors import InstanceTooLargeError
from .graphs import (
    Graph,
    _bfs,
    _odd_walk,
    labels_of,
    mask_is_bipartite,
    neighbor_mask,
)
from .matching import matching_number

# Induced paths the exact odd cycle condition search may grow.
OCC_STEP_LIMIT = 1_000_000


class RegularityStatus(enum.Enum):
    COMPUTED = "computed"
    NOT_NORMAL = "not_normal"
    TOO_FEW_EDGES = "too_few_edges"


@dataclass(frozen=True)
class RegularityResult:
    """Outcome of the closed-form regularity computation.

    `reg` is present only when status is COMPUTED, and then equals `mat`
    when `tutte_berge` holds and `mat + 1` otherwise.
    """

    status: RegularityStatus
    mat: int
    tutte_berge: bool
    reg: int | None


def satisfies_odd_cycle_condition(g: Graph) -> bool:
    """Every two vertex-disjoint odd cycles are joined by an edge.

    Decided in the stages of the module docstring.  Raises
    InstanceTooLargeError when the exact search grows more than
    OCC_STEP_LIMIT induced paths.

    The answer is computed once per graph and stored in `g._facts` with the
    number of induced paths its search grew; a search that raised stores
    nothing.  A stored answer replays the budget against the current
    OCC_STEP_LIMIT, so it raises exactly when a new search would.
    """
    facts = g._facts
    found = facts.get("occ")
    if found is None:
        found = facts["occ"] = _odd_cycle_condition(g)
    answer, steps = found
    if steps > OCC_STEP_LIMIT:
        raise _over_budget()
    return answer


def _over_budget() -> InstanceTooLargeError:
    return InstanceTooLargeError(
        f"the odd cycle condition search grew more than"
        f" OCC_STEP_LIMIT = {OCC_STEP_LIMIT} induced paths"
    )


def _odd_cycle_condition(g: Graph) -> tuple[bool, int]:
    # The stages: the answer and the induced paths stage 3 grew.  `cyclic`,
    # the vertices of degree >= 2, is read off one string of bits, highest
    # label first; only a vertex of `comp` next to one of degree <= 1 can
    # have fewer than two neighbors in `comp`.  `seen` holds the components
    # stage 1 found bipartite, which stage 2 leaves out of its test.
    cyclic = int("".join(["1" if a & (a - 1) else "0" for a in reversed(g.adj_bits)]), 2)
    seen = 0
    for comp, layers, bipartite in _bfs(g, cyclic):
        if not bipartite:
            break
        seen |= comp
    else:
        return True, 0
    loose = comp & neighbor_mask(g, g.full_mask & ~cyclic)
    core = _two_core(g, comp, loose)
    if _is_cycle(g, core):
        # Stage 1b: comp has one cycle, odd; a later component may hold another.
        return mask_is_bipartite(g, cyclic & ~seen & ~comp), 0
    if _walk_refutes(g, layers, cyclic & ~seen):
        return False, 0
    return _chordless_search(g, core)


def _is_cycle(g: Graph, mask: int) -> bool:
    """Has every vertex of `mask` exactly two neighbors in it?  A connected
    such mask induces one cycle.  Stops at the first vertex that has not."""
    adj = g.adj_bits
    rest = mask
    while rest:
        low = rest & -rest
        if (adj[low.bit_length() - 1] & mask).bit_count() != 2:
            return False
        rest ^= low
    return True


def _two_core(g: Graph, comp: int, loose: int) -> int:
    """The 2-core of g[comp]: what is left once no vertex has at most one
    neighbor left.  `loose` must hold every vertex of comp with fewer than
    two neighbors in it.  Each is tested, and a removal tests again the one
    neighbor its vertex has left."""
    adj = g.adj_bits
    left = comp
    test = list(labels_of(loose))
    for v in test:
        a = adj[v] & left
        if left >> v & 1 and not a & (a - 1):
            left ^= 1 << v
            if a:
                test.append(a.bit_length() - 1)
    return left


def _walk_refutes(g: Graph, layers: list[int], rest: int) -> bool:
    """Stage 2's test: is g[rest - N[W]] non-bipartite, where W is the odd
    walk that the BFS `layers` of a non-bipartite component close?"""
    adj = g.adj_bits
    near = 0
    for bit in _odd_walk(g, layers):
        near |= bit | adj[bit.bit_length() - 1]
    return not mask_is_bipartite(g, rest & ~near)


def _odd_part(g: Graph, mask: int) -> int:
    """Union of the non-bipartite components of g[mask]."""
    out = 0
    for comp, _, bipartite in _bfs(g, mask):
        if not bipartite:
            out |= comp
    return out


def _blocks(g: Graph, mask: int) -> Iterator[int]:
    """Vertex masks of the biconnected blocks of g[mask] that have an edge,
    by one iterative depth-first search (Hopcroft-Tarjan 1973).  A vertex's
    `low` is the least discovery time reachable from its subtree by one
    back edge; a child v with low[v] >= disc[p] closes a block at p."""
    adj = g.adj_bits
    disc = [0] * (g.n + 1)
    low = [0] * (g.n + 1)
    t = 0
    for root in labels_of(mask):
        if disc[root]:
            continue
        t += 1
        disc[root] = low[root] = t
        # Visited vertices not yet in a closed block, in discovery order.
        pending = [root]
        # Each frame: vertex, its parent, the neighbors not yet scanned.
        walk = [[root, 0, adj[root] & mask]]
        while walk:
            frame = walk[-1]
            v, p, rest = frame
            if rest:
                w = (rest & -rest).bit_length() - 1
                frame[2] = rest & (rest - 1)
                if not disc[w]:
                    t += 1
                    disc[w] = low[w] = t
                    pending.append(w)
                    walk.append([w, v, adj[w] & mask & ~(1 << v)])
                elif disc[w] < low[v]:
                    low[v] = disc[w]
                continue
            walk.pop()
            if not p:
                continue
            if low[v] < low[p]:
                low[p] = low[v]
            if low[v] >= disc[p]:
                block = 1 << p
                while True:
                    x = pending.pop()
                    block |= 1 << x
                    if x == v:
                        break
                yield block


def _far_side_refutes(g: Graph, comp: int, live: int) -> bool:
    """Stage 2b: does the first component of g[live] close an odd walk W
    with g[comp - N[W]] non-bipartite?  `live` must be a union of
    non-bipartite components inside `comp`, the connected vertex set that
    holds every odd cycle of g."""
    return _walk_refutes(g, next(_bfs(g, live))[1], comp)


def _chordless_search(g: Graph, comp: int) -> tuple[bool, int]:
    """Stage 3: is there no chordless odd cycle C, with s its first vertex
    in the start order, such that g[later - N[C]] has an odd cycle?  Every
    odd cycle of g must lie in `comp`, a connected vertex set (the 2-core of
    a component), so the search stays inside it.  Returns the answer and
    the number of induced paths grown."""
    adj = g.adj_bits
    # in_block[s]: the union of the non-bipartite blocks that hold s.  It
    # is built at the first start with an odd part beyond N[s], which on a
    # dense graph is often none.
    in_block = None

    def shrink(live: int, w: int) -> int:
        # The odd part of g[far - N[w]], where `live` is that of g[far].
        gone = adj[w] | 1 << w
        return _odd_part(g, live & ~gone) if live & gone else live

    steps = 0
    degree = [a.bit_count() for a in adj]
    # `above`: the vertices of comp after s in the start order.
    done = 0
    for s in sorted(labels_of(comp), key=degree.__getitem__, reverse=True):
        done |= 1 << s
        above = comp & ~done
        s_adj = adj[s]
        # An odd cycle beyond N[s] needs three vertices there.
        if (above & ~s_adj).bit_count() < 3:
            continue
        live = _odd_part(g, above & ~s_adj)
        if not live:
            # Only now can g[above] be bipartite.
            if mask_is_bipartite(g, above):
                break
            continue
        if in_block is None:
            # Stage 2b, before the block pass.
            if _far_side_refutes(g, comp, live):
                return False, 0
            in_block = [0] * (g.n + 1)
            for block in _blocks(g, comp):
                if not mask_is_bipartite(g, block):
                    rest = block
                    while rest:
                        in_block[(rest & -rest).bit_length() - 1] |= block
                        rest &= rest - 1
        inside = in_block[s] & above
        # Induced paths s, v1, ..., last, each as (last, v1, path mask,
        # closed neighborhood of the vertices strictly between s and last,
        # vertex count, odd part of g[above - N[path]]).
        stack = []
        rest = s_adj & inside
        while rest:
            v1 = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            lv = shrink(live, v1)
            if lv:
                stack.append((v1, v1, 1 << s | 1 << v1, 0, 2, lv))
        while stack:
            last, v1, path, inner, length, live = stack.pop()
            cand = adj[last] & inside & ~path & ~inner
            if not length & 1:
                # Closing at w makes an odd cycle; test each once, in the
                # orientation where its second label is the smaller.
                close = cand & s_adj & ~((2 << v1) - 1)
                while close:
                    w = (close & -close).bit_length() - 1
                    close &= close - 1
                    if shrink(live, w):
                        return False, steps
            grow = cand & ~s_adj
            if not grow:
                continue
            inner_w = inner | adj[last] | 1 << last
            while grow:
                w = (grow & -grow).bit_length() - 1
                grow &= grow - 1
                lw = shrink(live, w)
                if not lw:
                    continue
                steps += 1
                if steps > OCC_STEP_LIMIT:
                    raise _over_budget()
                stack.append((w, v1, path | 1 << w, inner_w, length + 1, lw))
    return True, steps


def is_rees_normal(g: Graph) -> bool:
    """Odd cycle condition plus at most one non-bipartite component.  The
    condition implies the second conjunct: odd cycles in two different
    components are vertex-disjoint and no edge joins them."""
    return satisfies_odd_cycle_condition(g)


def regularity(g: Graph) -> RegularityResult:
    """Closed-form regularity of the Rees algebra of the edge ideal of g.

    mat(G) and the Tutte-Berge test read the graph's one stored blossom
    run; normality is asked only of a graph with two edges or more.
    """
    mat = matching_number(g)
    tb = is_tutte_berge(g)
    if g.m < 2:
        return RegularityResult(RegularityStatus.TOO_FEW_EDGES, mat, tb, None)
    if not is_rees_normal(g):
        return RegularityResult(RegularityStatus.NOT_NORMAL, mat, tb, None)
    return RegularityResult(
        RegularityStatus.COMPUTED, mat, tb, mat if tb else mat + 1
    )


__all__ = [
    "RegularityStatus",
    "RegularityResult",
    "satisfies_odd_cycle_condition",
    "is_rees_normal",
    "regularity",
    "OCC_STEP_LIMIT",
]
