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
from .graphs import Graph, iter_chordless_odd_cycles, mask_of


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
