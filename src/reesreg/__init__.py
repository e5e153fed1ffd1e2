"""Graph classification around matchings, the Tutte-Berge deficiency
equation, and the regularity of normal Rees algebras of edge ideals.

Two independent routes to the same number: a closed form (matching number,
plus one exactly when the graph is not Tutte-Berge) and a lattice-point
search on dilations of the cone graph's edge polytope.
"""

from .corpus import CorpusSummary, corpus_run
from .decomposition import (
    GallaiEdmonds,
    TutteBergeWitness,
    deficiency,
    gallai_edmonds,
    is_tutte_berge,
    tutte_berge_bruteforce,
    tutte_berge_witness,
)
from .errors import (
    GraphFormatError,
    InstanceTooLargeError,
    InternalInvariantError,
    NoOddCycleError,
)
from .graphs import (
    Graph,
    bipartite_check,
    complete,
    complete_bipartite,
    connected_components,
    cycle,
    disjoint_union,
    generate,
    independent_sets,
    induced_subgraph,
    is_bipartite,
    max_independent_set,
    neighbor_set,
    paper_example,
    parse_graph,
    path,
    random_graph,
    write_graph,
)
from .matching import (
    Matching,
    has_perfect_matching,
    is_factor_critical,
    is_konig,
    matching_number,
    max_matching,
)
from .polytope import (
    HalfSpaceSystem,
    OracleResult,
    canonical_point,
    compute_q0,
    cone_graph,
    fundamental_independent_sets,
    halfspace_system,
    interior_lattice_points,
    is_fundamental_independent_set,
    is_regular_vertex,
    lattice_points,
    point_membership,
    reduction_move,
    verify_normality_small,
)
from .rees import (
    RegularityResult,
    RegularityStatus,
    is_rees_normal,
    regularity,
    satisfies_odd_cycle_condition,
)
from .report import ClassificationReport, build_report

__version__ = "0.1.0"
