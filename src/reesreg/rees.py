"""Normality and regularity of the Rees algebra of an edge ideal.

The Rees algebra of the edge ideal of a simple graph G is normal exactly
when G satisfies the odd cycle condition (every two vertex-disjoint odd
cycles are joined by an edge) and at most one component of G is
non-bipartite.  For a normal Rees algebra over a graph with at least two
edges, the Castelnuovo-Mumford regularity is mat(G) when G is Tutte-Berge
and mat(G) + 1 otherwise.

No polynomial test of the odd cycle condition is known to us.
`satisfies_odd_cycle_condition` decides it in three stages, each sound on
its own:

1. A bipartite graph has no odd cycle, so it passes.
2. Refute first.  The BFS layers of the first non-bipartite component close
   a short odd closed walk W (2k + 1 edges; `graphs._odd_walk`, which also
   gives `bipartite_check` its walk).  W contains an odd cycle C, and N[C]
   lies in N[W], so an odd cycle of G - N[W] is disjoint from C and not
   joined to it: the graph fails.
3. Exact search, inside the first non-bipartite component K only: W lies
   in K, so G - N[W] holds every other component, and stage 2 found it
   bipartite, so every odd cycle lies in K.  A violating pair of odd
   cycles shrinks to a violating pair of chordless odd cycles (each to a
   chordless odd cycle inside its own vertex set).  Call C1 the one whose
   least vertex s is the smaller, and C2 the other.  The search grows the
   induced paths from each start s and fails the graph when one closes
   into a chordless odd cycle C such that G[{v > s} - N[C]] has an odd
   cycle.  It prunes without losing C1:
   - C1 lies inside one biconnected block, which holds s and an odd cycle.
     So a start s is tried only in a non-bipartite block (one
     Hopcroft-Tarjan pass finds the blocks), and its paths grow only
     inside the non-bipartite blocks that hold s, through vertices above s.
   - C2 lies in {v > s}, and that set shrinks as s grows, so the starts
     stop once G[{v > s}] is bipartite.
   - C2 lies in {v > s} - N[P] for every prefix P of C1, and that set
     shrinks as P grows, so a path is dropped once the set is bipartite.
     The search carries the union of the set's non-bipartite components:
     an odd cycle left after an extension lies inside it.
   The search is still exponential in the worst case, so it raises
   InstanceTooLargeError after OCC_STEP_LIMIT induced paths.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator

from .decomposition import GallaiEdmonds, gallai_edmonds
from .errors import InstanceTooLargeError
from .graphs import (
    Graph,
    _bfs,
    _odd_walk,
    labels_of,
    mask_is_bipartite,
    mask_of,
    neighbor_mask,
)

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

    Decided in the three stages of the module docstring.  Raises
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
    # The three stages: the answer and the induced paths stage 3 grew.
    full = g.full_mask
    odd = next(((c, lay) for c, lay, bipartite in _bfs(g, full) if not bipartite), None)
    if odd is None:
        return True, 0
    comp, layers = odd
    walk = mask_of(_odd_walk(g, layers))
    if not mask_is_bipartite(g, full & ~walk & ~neighbor_mask(g, walk)):
        return False, 0
    return _chordless_search(g, comp)


def _odd_part(g: Graph, mask: int) -> int:
    """Union of the non-bipartite components of g[mask]."""
    out = 0
    for comp, _, bipartite in _bfs(g, mask):
        if not bipartite:
            out |= comp
    return out


def _blocks(g: Graph, mask: int) -> Iterator[int]:
    """Vertex masks of the biconnected blocks that have an edge, within
    `mask`, a union of components, by one iterative depth-first search
    (Hopcroft-Tarjan 1973).  A vertex's `low` is the least discovery time
    reachable from its subtree by one back edge; a child v with
    low[v] >= disc[p] closes a block at p."""
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
        walk = [[root, 0, adj[root]]]
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
                    walk.append([w, v, adj[w] & ~(1 << v)])
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


def _chordless_search(g: Graph, comp: int) -> tuple[bool, int]:
    """Stage 3: is there no chordless odd cycle C with least vertex s such
    that g[{v > s} - N[C]] has an odd cycle?  Every odd cycle of g must lie
    in the component `comp`, so the search stays inside it.  Returns the
    answer and the number of induced paths grown."""
    adj = g.adj_bits
    # in_block[s]: the union of the non-bipartite blocks that hold s.  It
    # is built at the first start that survives the cheaper tests, which on
    # a dense graph is often none.
    in_block = None

    def shrink(live: int, w: int) -> int:
        # The odd part of g[far - N[w]], where `live` is that of g[far].
        gone = adj[w] | 1 << w
        return _odd_part(g, live & ~gone) if live & gone else live

    steps = 0
    for s in labels_of(comp):
        above = comp & ~((2 << s) - 1)
        if in_block is not None and not in_block[s] & above:
            continue
        if mask_is_bipartite(g, above):
            break
        s_adj = adj[s]
        live = _odd_part(g, above & ~s_adj)
        if not live:
            continue
        if in_block is None:
            in_block = [0] * (g.n + 1)
            for block in _blocks(g, comp):
                if not mask_is_bipartite(g, block):
                    rest = block
                    while rest:
                        in_block[(rest & -rest).bit_length() - 1] |= block
                        rest &= rest - 1
        inside = in_block[s] & above
        if not inside:
            continue
        # Induced paths s, v1, ..., last, each as (last, v1, path mask,
        # closed neighborhood of the vertices strictly between s and last,
        # vertex count, odd part of g[{v > s} - N[path]]).
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
                # orientation where its second vertex is the smaller.
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
    """Closed-form regularity of the Rees algebra of the edge ideal of g."""
    return _closed_form(g, gallai_edmonds(g), g.m >= 2 and is_rees_normal(g))


def _closed_form(g: Graph, ge: GallaiEdmonds, normal: bool) -> RegularityResult:
    # The status rule.  `normal` is read only when g has two edges or more.
    mat = (g.n - ge.deficiency) // 2
    tb = ge.tutte_berge
    if g.m < 2:
        return RegularityResult(RegularityStatus.TOO_FEW_EDGES, mat, tb, None)
    if not normal:
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
