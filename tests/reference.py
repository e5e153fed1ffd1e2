"""Reference implementations that the tests compare the library against.

Both use the vertex-deletion characterization: they rerun the blossom
matching on every single-vertex deletion instead of reading D(G) off one
maximum matching, so they share only `matching_number` with the library.
"""

from __future__ import annotations

from reesreg import GallaiEdmonds, Graph, induced_subgraph, matching_number
from reesreg.graphs import components_within, labels_of, neighbor_mask


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
