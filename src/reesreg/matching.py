"""Maximum matchings.

`max_matching` is an unweighted blossom search (alternating BFS with cycle
contraction).  Roots are tried in ascending label order and adjacency is
scanned in ascending label order, so the returned matching itself is
deterministic, not just its size.  `matching_number_bruteforce` is the
independent oracle: plain branch and bound over the edge list.  The Konig
test is a 2-SAT problem on one maximum matching.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .errors import InstanceTooLargeError
from .graphs import Graph, VertexSet, mask_of

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
    n = g.n
    mate = [0] * (n + 1)
    for root in range(1, n + 1):
        if mate[root] == 0:
            _try_augment(g, mate, root)
    edges = tuple(
        (v, mate[v]) for v in range(1, n + 1) if mate[v] > v
    )
    return Matching(edges=edges)


def matching_number(g: Graph) -> int:
    return max_matching(g).size


def _d_mask(g: Graph, matching: Matching) -> int:
    """Mask of D(G), the vertices missed by some maximum matching: the
    outer vertices of the failed searches from the exposed vertices of
    `matching`, which must be maximum (Edmonds 1965)."""
    mate = [0] * (g.n + 1)
    for u, v in matching.edges:
        mate[u], mate[v] = v, u
    d = 0
    for root in g.vertices:
        if mate[root] == 0:
            d |= _try_augment(g, mate, root)
    return d


def _try_augment(g: Graph, mate: list[int], root: int) -> int | None:
    # One phase of the blossom search: grow an alternating BFS forest from
    # `root`, contracting odd cycles via the `base` array, and flip the first
    # augmenting path found (None), or else return the outer (`used`) mask.
    n = g.n
    parent = [0] * (n + 1)
    base = list(range(n + 1))
    used = [False] * (n + 1)
    used[root] = True
    queue = deque([root])

    def find_base(a: int, b: int) -> int:
        seen = [False] * (n + 1)
        while True:
            a = base[a]
            seen[a] = True
            if mate[a] == 0:
                break
            a = parent[mate[a]]
        while True:
            b = base[b]
            if seen[b]:
                return b
            b = parent[mate[b]]

    def mark_path(v: int, b: int, child: int, in_blossom: list[bool]) -> None:
        while base[v] != b:
            in_blossom[base[v]] = True
            in_blossom[base[mate[v]]] = True
            parent[v] = child
            child = mate[v]
            v = parent[mate[v]]

    while queue:
        v = queue.popleft()
        for to in g.adj_lists[v]:
            if base[v] == base[to] or mate[v] == to:
                continue
            if to == root or (mate[to] != 0 and parent[mate[to]] != 0):
                # Odd cycle: contract the blossom through the common base.
                cur_base = find_base(v, to)
                in_blossom = [False] * (n + 1)
                mark_path(v, cur_base, to, in_blossom)
                mark_path(to, cur_base, v, in_blossom)
                for i in range(1, n + 1):
                    if in_blossom[base[i]]:
                        base[i] = cur_base
                        if not used[i]:
                            used[i] = True
                            queue.append(i)
            elif parent[to] == 0:
                parent[to] = v
                if mate[to] == 0:
                    # Augmenting path: flip matched/unmatched back to root.
                    while to != 0:
                        pv = parent[to]
                        next_exposed = mate[pv]
                        mate[pv] = to
                        mate[to] = pv
                        to = next_exposed
                    return None
                used[mate[to]] = True
                queue.append(mate[to])
    return mask_of(v for v in g.vertices if used[v])


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
    m = max_matching(g)
    return 2 * m.size == g.n - 1 and _d_mask(g, m) == g.full_mask


def is_konig(g: Graph) -> bool:
    """Konig property: independence number + matching number = |V|.

    That is, some vertex cover has |M| vertices for a maximum matching M.
    Such a cover holds exactly one endpoint of each M-edge and no exposed
    vertex, so it is a 2-SAT assignment: variable i says the smaller end
    of M-edge i is in the cover, and every edge of g must have an end in
    it (Deming 1979; Sterboul 1979; Aspvall-Plass-Tarjan 1979).
    """
    # Literal 2i: the smaller end of M-edge i is in the cover; 2i + 1: the
    # larger end.  A literal's negation flips its last bit.
    matching = max_matching(g)
    lit = [-1] * (g.n + 1)
    for i, (u, v) in enumerate(matching.edges):
        lit[u], lit[v] = 2 * i, 2 * i + 1
    implies: list[list[int]] = [[] for _ in range(2 * matching.size)]
    for u, v in g.edges:
        a, b = lit[u], lit[v]
        if a < 0:
            # u is exposed, so v is matched (M is maximum) and must cover.
            implies[b ^ 1].append(b)
        elif b < 0:
            implies[a ^ 1].append(a)
        elif a ^ 1 != b:
            implies[a ^ 1].append(b)
            implies[b ^ 1].append(a)
    comp = _strong_components(implies)
    return all(comp[x] != comp[x + 1] for x in range(0, len(implies), 2))


def _strong_components(succ: list[list[int]]) -> list[int]:
    """Strong component index of each node of a digraph (iterative Tarjan)."""
    n = len(succ)
    index = [-1] * n
    low = [0] * n
    comp = [-1] * n
    stack: list[int] = []
    counter = 0
    found = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if index[w] < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if comp[w] < 0 and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if low[v] < low[parent]:
                        low[parent] = low[v]
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        comp[w] = found
                        if w == v:
                            break
                    found += 1
    return comp


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
