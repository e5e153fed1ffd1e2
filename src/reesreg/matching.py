"""Maximum matchings.

`max_matching` is an unweighted blossom search (alternating BFS with cycle
contraction).  Roots are tried in ascending label order and adjacency is
scanned in ascending label order, so the returned matching itself is
deterministic, not just its size.  A search costs its own tree and its
blossoms, not the graph: the `parent` and `base` arrays are allocated once
per call and shared by its searches, each of which resets only the entries
of its tree, kept as a list.  A contraction relabels only the vertices it
merges, read from the member masks of the blossoms' bases, not from a walk
of the tree, and a vertex's scan skips the members of its own blossom.
The same run yields D(G), the vertices missed by some maximum matching: a
search that fails is never touched again, because no later augmenting path
enters its tree (Edmonds 1965), so its tree and root are those of the final
matching, and D(G) is the union of the failed searches' outer sets, with
each isolated vertex, which needs no search.  The run's flag is True when no
failed search contracted a blossom, that is, when no edge lies inside
D(G).  A failed search that contracts puts a whole blossom, an odd cycle,
into its outer set.  One that does not has emptied its queue, so it scanned
every outer vertex, and of two adjacent outer vertices of its tree the
later scanned would find the other outer and contract.  Outer vertices of
two failed trees are never adjacent: the later search would take the
earlier tree's vertex as inner, closing an augmenting path between the two
roots, and the final matching is maximum.  The run is made once per graph
and stored in the graph's `_facts`, where every later caller reads it.  The
Konig test and the first maximum independent set of a Konig graph are one
2-SAT walk on one maximum matching.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import Graph, VertexSet, labels_of


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


def _matching(g: Graph) -> tuple[Matching, int, bool]:
    """A maximum matching of g, the mask of D(G) and whether no edge lies
    inside D(G), from the one blossom run of g: the first call stores them
    in `g._facts`, later calls read them."""
    facts = g._facts
    found = facts.get("matching")
    if found is None:
        found = facts["matching"] = _blossom(g)
    return found


def _blossom(g: Graph) -> tuple[Matching, int, bool]:
    # One run of the blossom loop: the maximum matching, D(G), the union
    # of its failed searches' outer masks, and the flag, all as the module
    # docstring says.  An isolated root's mask is its own bit.
    n = g.n
    adj = g.adj_bits
    mate = [0] * (n + 1)
    parent = [0] * (n + 1)
    base = list(range(n + 1))
    d = 0
    flat = True
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
        elif not adj[root]:
            d |= 1 << root
        else:
            failed = _try_augment(g, mate, root, parent, base)
            if failed:
                d |= failed[0]
                flat = flat and not failed[1]
    edges = tuple([(v, w) for v, w in enumerate(mate) if w > v])
    return Matching(edges=edges), d, flat


def matching_number(g: Graph) -> int:
    return max_matching(g).size


def _find_base(a: int, b: int, base: list, mate: list, parent: list) -> int:
    # The base of the blossom that the edge a-b closes.
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


def _mark_path(
    v: int, b: int, child: int, base: list, mate: list, parent: list, members: dict
) -> int:
    # The members of the bases on the tree path from v down to base b,
    # which leave `members`.
    moved = 0
    while base[v] != b:
        x, y = base[v], base[mate[v]]
        moved |= members.pop(x, 1 << x) | members.pop(y, 1 << y)
        parent[v] = child
        child = mate[v]
        v = parent[mate[v]]
    return moved


def _try_augment(
    g: Graph, mate: list[int], root: int, parent: list[int], base: list[int]
) -> tuple[int, bool] | None:
    # One phase of the blossom search: grow an alternating BFS tree from
    # `root`, contracting odd cycles via the `base` array, and flip the first
    # augmenting path found (None), or else return the outer (`used`) mask
    # and whether the search contracted a blossom.
    # `parent` and `base` are the caller's, shared by all its searches: they
    # read 0 and the identity outside the tree, and the search resets the
    # entries of its tree (`tree`, inner and outer vertices) before it
    # returns.  `members` maps the base of each contracted blossom to the
    # mask of the tree vertices with that base; a base that is missing has
    # only itself.  So a contraction relabels only what it merges, and a
    # search costs its tree and its blossoms.  `queue` grows as it is walked.
    adj = g.adj_bits
    used = 1 << root
    tree = [root]
    members: dict[int, int] = {}
    queue = [root]
    try:
        for v in queue:
            # A neighbor in v's own blossom stays there: blossoms only merge.
            own = members.get(base[v])
            rest = adj[v] & ~own if own else adj[v]
            while rest:
                low = rest & -rest
                rest ^= low
                to = low.bit_length() - 1
                if base[v] == base[to] or mate[v] == to:
                    continue
                if to == root or (mate[to] != 0 and parent[mate[to]] != 0):
                    # Odd cycle: contract the blossom through the common
                    # base, relabelling its members in ascending order.  The
                    # base keeps the members it had: a later contraction
                    # through it must relabel them too.
                    cur_base = _find_base(v, to, base, mate, parent)
                    moved = _mark_path(v, cur_base, to, base, mate, parent, members)
                    moved |= _mark_path(to, cur_base, v, base, mate, parent, members)
                    members[cur_base] = members.get(cur_base, 1 << cur_base) | moved
                    while moved:
                        bit = moved & -moved
                        moved ^= bit
                        i = bit.bit_length() - 1
                        base[i] = cur_base
                        if not used & bit:
                            used |= bit
                            queue.append(i)
                elif parent[to] == 0:
                    parent[to] = v
                    tree.append(to)
                    if mate[to] == 0:
                        # Augmenting path: flip it back to the root.
                        while to != 0:
                            pv = parent[to]
                            next_exposed = mate[pv]
                            mate[pv] = to
                            mate[to] = pv
                            to = next_exposed
                        return None
                    outer = mate[to]
                    used |= 1 << outer
                    tree.append(outer)
                    queue.append(outer)
        return used, bool(members)
    finally:
        for i in tree:
            parent[i] = 0
            base[i] = i


def has_perfect_matching(g: Graph) -> bool:
    return 2 * matching_number(g) == g.n


def is_factor_critical(g: Graph) -> bool:
    """Does every single-vertex deletion leave a perfect matching?  That is,
    a maximum matching misses one vertex and D(G) = V.  False for even |V|
    (including n = 0); a single vertex counts as factor-critical."""
    m, d_mask, _ = _matching(g)
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
    "has_perfect_matching",
    "is_factor_critical",
    "is_konig",
]
