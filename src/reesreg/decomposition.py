"""Gallai-Edmonds decomposition and the Tutte-Berge witness equation.

D(G) is the set of vertices missed by at least one maximum matching: the
outer vertices of the failed alternating searches from the exposed vertices
of one maximum matching (Edmonds 1965; Lovasz-Plummer, Matching Theory,
ch. 3).  The blossom run that finds the matching has run those searches
already: no later augmenting path enters a failed search's tree, so the
tree and its exposed root survive to the final matching, and D is the
union of the outer sets its failed searches return.  A(G) collects the
outside neighbors of D; C(G) is everything else.  A vertex of D with no
neighbor in D is a component of D by itself, and only the rest of D is
searched for its components.

A graph is called Tutte-Berge when some independent set T attains
|T| = |N(T)| + |V| - 2 mat(G), the maximum possible value.  That holds
exactly when every component of the subgraph induced on D(G) is a single
vertex, that is, when no edge has both ends in D(G).
"""

from __future__ import annotations

from dataclasses import dataclass

from .graphs import (
    INDEPENDENT_ENUM_LIMIT,
    Graph,
    VertexSet,
    _bfs,
    _independent_of_size,
    components_within,
    labels_of,
    neighbor_mask,
)
from .matching import _first_max_independent, _matching, matching_number


@dataclass(frozen=True)
class GallaiEdmonds:
    """The three-part decomposition, plus the components of D.

    All label tuples are sorted; `d_components` is ordered by smallest
    member.
    """

    d_set: VertexSet
    a_set: VertexSet
    c_set: VertexSet
    d_components: tuple[VertexSet, ...]

    @property
    def deficiency(self) -> int:
        """|V| - 2 mat(G), which equals c(D) - |A|."""
        return len(self.d_components) - len(self.a_set)


@dataclass(frozen=True)
class TutteBergeWitness:
    """An independent set attaining |T| = |N(T)| + deficiency."""

    t_set: VertexSet
    deficiency: int


def deficiency(g: Graph) -> int:
    """Number of vertices missed by a maximum matching: |V| - 2 mat(G)."""
    return g.n - 2 * matching_number(g)


def gallai_edmonds(g: Graph) -> GallaiEdmonds:
    """D/A/C from the failed searches of one blossom run."""
    d_mask = _matching(g)[1]
    a_mask = neighbor_mask(g, d_mask) & ~d_mask
    c_mask = g.full_mask & ~d_mask & ~a_mask
    # A vertex of D with no neighbor in D is a component by itself; only
    # the rest of D needs a search.  Both lists are ordered by smallest
    # member and disjoint, so sorting the two runs merges them.
    adj = g.adj_bits
    d_set = labels_of(d_mask)
    lone = []
    joined = 0
    for v in d_set:
        if adj[v] & d_mask:
            joined |= 1 << v
        else:
            lone.append((v,))
    comps = lone + [labels_of(m) for m in components_within(g, joined)]
    return GallaiEdmonds(
        d_set=d_set,
        a_set=labels_of(a_mask),
        c_set=labels_of(c_mask),
        d_components=tuple(sorted(comps)),
    )


def is_tutte_berge(g: Graph) -> bool:
    """True when every component of D(G) is a single vertex.

    Equivalent to the existence of an independent witness for the
    deficiency equation; the empty graph and perfect-matching graphs pass
    with the empty witness.
    """
    d_mask = _matching(g)[1]
    return not neighbor_mask(g, d_mask) & d_mask


def tutte_berge_bruteforce(g: Graph) -> TutteBergeWitness | None:
    """First independent set (smallest, then lexicographic) attaining the
    deficiency equation, or None.  Searches independent sets, so guarded
    to n <= 20."""
    # T and N(T) are disjoint, so |N(T)| >= 0 rules out every T smaller
    # than the deficiency and |T| + |N(T)| <= n every T larger than
    # (n + deficiency) // 2.  Within size k the walk cuts every T with
    # |N(T)| > k - deficiency, and a full T must meet it exactly.
    defect = deficiency(g)
    for k in range(defect, (g.n + defect) // 2 + 1):
        cap = k - defect
        for t, nb in _independent_of_size(g, k, cap):
            if nb.bit_count() == cap:
                return TutteBergeWitness(t_set=labels_of(t), deficiency=defect)
    return None


def tutte_berge_witness(g: Graph) -> TutteBergeWitness | None:
    """Constructive witness for Tutte-Berge graphs; None otherwise.

    Built per component: a maximum independent set for a bipartite
    component, the empty set for a non-bipartite component with a perfect
    matching, and otherwise D of the component together with maximum
    independent sets of the bipartite components of its C part.
    """
    # The decomposition restricts to each component, so D and C of a
    # component are D(G) and C(G) intersected with it.  Every maximum
    # matching matches C(G) perfectly within itself, so the stored matching
    # is maximum on the union of the bipartite parts, and no edge joins two
    # parts: one walk finds all their first maximum independent sets.
    if not is_tutte_berge(g):
        return None
    matching, d_mask = _matching(g)
    c_mask = g.full_mask & ~d_mask & ~neighbor_mask(g, d_mask)
    picked = 0
    parts = 0
    for comp, _, bipartite in _bfs(g, g.full_mask):
        if bipartite:
            parts |= comp
        elif comp & d_mask:
            picked |= comp & d_mask
            parts |= sum(part for part, _, b in _bfs(g, comp & c_mask) if b)
    t_set = _first_max_independent(g, matching, parts) | picked
    return TutteBergeWitness(t_set=labels_of(t_set), deficiency=deficiency(g))


__all__ = [
    "GallaiEdmonds",
    "TutteBergeWitness",
    "deficiency",
    "gallai_edmonds",
    "is_tutte_berge",
    "tutte_berge_bruteforce",
    "tutte_berge_witness",
    "INDEPENDENT_ENUM_LIMIT",
]
