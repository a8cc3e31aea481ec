"""Exact defective graph coloring.

An exact (k, d)-coloring colors the vertices of a graph with k colors so
that every vertex has exactly d neighbors of its own color; the exact
d-defective chromatic number is the least such k (infinite when no k
works).  The package provides a brute-force oracle for small graphs,
closed-form solvers for cycles, wheels, trees and complete graphs,
polynomial solvers for cactus and block graphs, executable hardness-gadget
generators with solution lifting, and a command-line front end.
"""

from .blockgraph import blockgraph_chi, clique_factor
from .cactus import (
    CactusAux,
    LabelResult,
    NoReason,
    cactus_chi1,
    cactus_chi2,
    cactus_extract_coloring,
    cactus_label,
    cactus_preprocess,
)
from .chromatic import (
    chromatic_number,
    clique_lower_bound,
    clique_number,
    greedy_coloring,
    max_clique,
)
from .closedform import chi_complete, chi_cycle, chi_regular_trivial, chi_tree, chi_wheel
from .coloring import (
    Coloring,
    INFEASIBLE,
    SolveOutcome,
    defects,
    feasibility_precheck,
    is_exact_coloring,
    is_proper,
    monochromatic,
)
from .errors import (
    BadParameterError,
    BudgetExceededError,
    DisconnectedClassError,
    ExactColoringError,
    InconsistentHeaderError,
    IncompleteLabelingError,
    InvalidWitnessError,
    LengthMismatchError,
    LiftContractViolatedError,
    MalformedFormulaError,
    NotABlockGraphError,
    NotACactusError,
    NotAPartitionError,
    NotATreeError,
    NotFourRegularError,
    OutOfRangeError,
    ParseError,
    SelfLoopError,
)
from .families import (
    cartesian_k2_complete,
    categorical_k2_complete,
    complete,
    cycle,
    family_names,
    gen_family,
    icosahedron,
    octahedron,
    path,
    petersen,
    random_block_graph,
    random_cactus,
    random_graph,
    star,
    tightness_gadget,
    wheel,
)
from .graph_io import (
    DIMACS,
    EDGELIST,
    load_graph,
    read_coloring,
    read_graph,
    sniff_format,
    write_coloring,
    write_graph,
)
from .graphs import (
    BlockCutTree,
    Graph,
    GraphClasses,
    Matching,
    block_cut_tree,
    build_graph,
    connected_components,
    contract_partition,
    induced_subgraph,
    is_bipartite,
    is_chordal,
    is_d_regular,
    perfect_matchings,
    recognize,
)
from .oracle import (
    RegularPartition,
    brute_chi,
    brute_solve,
    chi_via_quotients,
    enumerate_regular_partitions,
)
from .reductions import (
    NaeFormula,
    ReductionMap,
    format_nae_formula,
    lift_solution,
    nae_satisfiable,
    parse_nae_formula,
    reduce_coloring_to_exact,
    reduce_increment_defect,
    reduce_nae3sat,
    reduce_planar_variant,
)
from .solver import Report, solve

__version__ = "0.1.0"
