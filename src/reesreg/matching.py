"""Maximum matchings.

`max_matching` is an unweighted blossom search (alternating BFS with cycle
contraction).  Roots are tried in ascending label order and adjacency is
scanned in ascending label order, so the returned matching itself is
deterministic, not just its size.  A search costs its own tree, not the
graph: the `parent` and `base` arrays are allocated once per call and
shared by its searches, each of which resets only the entries of its tree.
The same run yields D(G), the vertices missed by some maximum matching: a
search that fails is never touched again, because no later augmenting path
enters its tree (Edmonds 1965), so its tree and root are those of the final
matching, and D(G) is the union of the failed searches' outer sets.  The
run is made once per graph: the matching and D(G) are stored in the
graph's `_facts`, where every later caller reads them.
`matching_number_bruteforce` is the independent oracle: plain branch and
bound over the edge list.  The Konig test and the first maximum independent
set of a Konig graph are one 2-SAT walk on one maximum matching.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InstanceTooLargeError
from .graphs import Graph, VertexSet, labels_of

BRUTEFORCE_EDGE_LIMIT = 26


@dataclass(frozen=True)
class Matching:
    """A set of pairwise disjoint edges, sorted, each pair (u, v) with u < v."""

    edges: tuple[tuple[int, int], ...]

    @property
    def size(self) -> int:
        return len(self.edges)

    @property
    def covered(self) -> VertexSet:
        return tuple(sorted(v for e in self.edges for v in e))


def max_matching(g: Graph) -> Matching:
    """A maximum matching of g, deterministic for a fixed graph."""
    return _matching(g)[0]


def _matching(g: Graph) -> tuple[Matching, int]:
    """A maximum matching of g and the mask of D(G), from the one blossom
    run of g: the first call stores it in `g._facts`, later calls read it."""
    facts = g._facts
    found = facts.get("matching")
    if found is None:
        found = facts["matching"] = _blossom(g)
    return found


def _blossom(g: Graph) -> tuple[Matching, int]:
    # One run of the blossom loop: the maximum matching and D(G), the union
    # of its failed searches' outer masks (see the module docstring).  An
    # isolated root's mask is its own bit.
    n = g.n
    adj = g.adj_bits
    mate = [0] * (n + 1)
    parent = [0] * (n + 1)
    base = list(range(n + 1))
    d = 0
    for root in range(1, n + 1):
        if mate[root]:
            continue
        # The search scans the root's neighbors first, in ascending order,
        # and the first exposed one augments: match it without the search.
        rest = adj[root]
        while rest and mate[(rest & -rest).bit_length() - 1]:
            rest &= rest - 1
        if rest:
            near = (rest & -rest).bit_length() - 1
            mate[root], mate[near] = near, root
        else:
            # A failed search's mask holds its root, so it is never 0.
            d |= _try_augment(g, mate, root, parent, base) or 0
    edges = tuple(
        (v, mate[v]) for v in range(1, n + 1) if mate[v] > v
    )
    return Matching(edges=edges), d


def matching_number(g: Graph) -> int:
    return max_matching(g).size


def _try_augment(
    g: Graph, mate: list[int], root: int, parent: list[int], base: list[int]
) -> int | None:
    # One phase of the blossom search: grow an alternating BFS tree from
    # `root`, contracting odd cycles via the `base` array, and flip the first
    # augmenting path found (None), or else return the outer (`used`) mask.
    # `parent` and `base` are the caller's, shared by all its searches: they
    # read 0 and the identity outside the tree, and the search resets the
    # entries of its tree (`tree`, inner and outer vertices) before it
    # returns, so it costs what its tree costs.
    adj = g.adj_bits
    if not adj[root]:
        return 1 << root
    used = tree = 1 << root
    queue = deque([root])

    def find_base(a: int, b: int) -> int:
        seen = 0
        while True:
            a = base[a]
            seen |= 1 << a
            if mate[a] == 0:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if seen >> b & 1:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, b: int, child: int) -> int:
        # The mask of the bases on the tree path from v down to base b.
        blossom = 0
        while base[v] != b:
            blossom |= 1 << base[v] | 1 << base[mate[v]]
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]
        return blossom

    try:
        while queue:
            v = queue.popleft()
            rest = adj[v]
            while rest:
                low = rest & -rest
                rest ^= low
                to = low.bit_length() - 1
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != 0 and parent[mate[to]] != 0):
                    # Odd cycle: contract the blossom through the common
                    # base.  Only tree vertices can have their base in it,
                    # and the tree is walked in ascending label order.
                    cur_base = find_base(v, to)
                    blossom = mark_path(v, cur_base, to)
                    blossom |= mark_path(to, cur_base, v)
                    walk = tree
                    while walk:
                        bit = walk & -walk
                        walk ^= bit
                        i = bit.bit_length() - 1
                        if blossom >> base[i] & 1:
                            base[i] = cur_base
                            if not used & bit:
                                used |= bit
                                queue.append(i)
                elif parent[to] == 0:
                    parent[to] = v
                    tree |= low
                    if mate[to] == 0:
                        # Augmenting path: flip it back to the root.
                        while to != 0:
                            pv = parent[to]
                            next_exposed = mate[pv]
                            mate[pv] = to
                            mate[to] = pv
                            to = next_exposed
                        return None
                    outer = 1 << mate[to]
                    used |= outer
                    tree |= outer
                    queue.append(mate[to])
        return used
    finally:
        rest = tree
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            parent[i] = 0
            base[i] = i


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


def has_perfect_matching(g: Graph) -> bool:
    return 2 * matching_number(g) == g.n


def is_factor_critical(g: Graph) -> bool:
    """Does every single-vertex deletion leave a perfect matching?  That is,
    a maximum matching misses one vertex and D(G) = V.  False for even |V|
    (including n = 0); a single vertex counts as factor-critical."""
    m, d_mask = _matching(g)
    return 2 * m.size == g.n - 1 and d_mask == g.full_mask


def is_konig(g: Graph) -> bool:
    """Konig property: independence number + matching number = |V|."""
    return _first_max_independent(g, max_matching(g), g.full_mask) is not None


def _first_max_independent(g: Graph, matching: Matching, mask: int) -> int | None:
    """The mask of the lexicographically smallest maximum independent set
    of g[mask], or None when g[mask] is not Konig.  The edges of `matching`
    inside `mask` must form a maximum matching M of g[mask].

    g[mask] is Konig when some vertex cover has |M| vertices.  Such a
    cover holds exactly one end of each M-edge and no exposed vertex, so
    it is a 2-SAT assignment (Deming 1979; Sterboul 1979), and its
    complement is a maximum independent set.  Walking the vertices in
    ascending label order, each is kept out of the cover when unit
    propagation allows it and put in otherwise; a choice that propagates
    without conflict leaves a subset of the clauses, so when both choices
    conflict there is no such cover (Even-Itai-Shamir 1976).  A choice
    that conflicts closes an odd cycle, so on a bipartite g[mask] each
    vertex is propagated once; otherwise each choice can cost O(m).
    """
    mate = [0] * (g.n + 1)
    matched = 0
    for u, v in matching.edges:
        if mask >> u & 1 and mask >> v & 1:
            mate[u], mate[v] = v, u
            matched |= 1 << u | 1 << v

    def close(out: int, cover: int, new: int) -> tuple[int, int] | None:
        # Propagate from the vertices `new` just kept out: their neighbors
        # must cover, so the mates of those neighbors are out.  `out` and
        # `cover` take both ends of a decided M-edge, one each; a neighbor
        # whose mate is forced too lands in both, and the conflict shows
        # when it is taken from `new`.
        while new:
            v = (new & -new).bit_length() - 1
            new &= new - 1
            forced = g.adj_bits[v] & mask & ~cover
            if forced & out:
                return None
            freed = 0
            rest = forced
            while rest:
                freed |= 1 << mate[(rest & -rest).bit_length() - 1]
                rest &= rest - 1
            cover |= forced
            out |= freed
            new |= freed
        return out, cover

    exposed = mask & ~matched
    state = close(exposed, 0, exposed)
    for v in labels_of(matched):
        if state is None:
            return None
        out, cover = state
        if (out | cover) >> v & 1:
            continue
        keep, other = 1 << v, 1 << mate[v]
        state = close(out | keep, cover | other, keep) or close(
            out | other, cover | keep, other
        )
    return None if state is None else state[0]


__all__ = [
    "Matching",
    "max_matching",
    "matching_number",
    "matching_number_bruteforce",
    "has_perfect_matching",
    "is_factor_critical",
    "is_konig",
    "BRUTEFORCE_EDGE_LIMIT",
]
