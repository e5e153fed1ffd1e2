"""Normality and regularity of the Rees algebra of an edge ideal.

The Rees algebra of the edge ideal of a simple graph G is normal exactly
when G satisfies the odd cycle condition (every two vertex-disjoint odd
cycles are joined by an edge) and at most one component of G is
non-bipartite.  For a normal Rees algebra over a graph with at least two
edges, the Castelnuovo-Mumford regularity is mat(G) when G is Tutte-Berge
and mat(G) + 1 otherwise.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .decomposition import GallaiEdmonds, gallai_edmonds
from .graphs import (
    Graph,
    iter_chordless_odd_cycles,
    mask_is_bipartite,
    mask_of,
    neighbor_mask,
)


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

    Fails exactly when, for some chordless odd cycle C, the graph left
    after deleting C and its neighbors still has an odd cycle: an odd
    cycle there is disjoint from C and not joined to it, and a violating
    pair of odd cycles always contains a chordless one (shrink a cycle to
    a chordless odd cycle inside its vertex set).  The cycles are
    streamed, and the first such C ends the search.  A bipartite graph has
    no odd cycle, so it passes without the enumeration.
    """
    full = g.full_mask
    if mask_is_bipartite(g, full):
        return True
    for c in iter_chordless_odd_cycles(g):
        c_mask = mask_of(c)
        far = full & ~c_mask & ~neighbor_mask(g, c_mask)
        # On a dense graph most far sides are empty; skip the search there.
        if far and not mask_is_bipartite(g, far):
            return False
    return True


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
]
