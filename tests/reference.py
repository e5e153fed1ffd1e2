"""Reference implementations that the tests compare the library against.

The Gallai-Edmonds and factor-critical references use the vertex-deletion
characterization: they rerun the blossom matching on every single-vertex
deletion instead of reading D(G) off one maximum matching, so they share
only `matching_number` with the library.  The odd cycle condition
reference lists every chordless odd cycle and scans all pairs, where the
library streams the cycles and tests each one's far side for an odd cycle.
"""

from __future__ import annotations

from reesreg import GallaiEdmonds, Graph, induced_subgraph, matching_number
from reesreg.graphs import (
    components_within,
    iter_chordless_odd_cycles,
    labels_of,
    mask_of,
    neighbor_mask,
)


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
