"""Signed graphs, switching and balance, and exact double domination."""

from .constructions import (
    ConstructionResult,
    construct_family,
    construct_pn1_tight,
)
from .domination import (
    Budget,
    DdsVerdict,
    HalfDdsReport,
    InfeasibleError,
    NotCubicError,
    SizeLimitExceededError,
    SolveResult,
    WrongCardinalityError,
    analyze_half_dds,
    cubic_lower_bound,
    is_k_tuple_dominating,
    is_signed_dds,
    min_k_tuple_dominating,
    min_signed_dds,
    min_signed_dds_many,
)
from .fileio import (
    EdgeListFormatError,
    format_vertex_set,
    parse_vertex_spec,
    read_edge_list,
    read_signed_edge_list,
    write_edge_list,
    write_signed_edge_list,
)
from .families import (
    FamilyInfo,
    InvalidParametersError,
    igraph,
    index_to_label,
    inner_blocks,
    label_to_index,
    petersen,
)
from .graph import (
    Graph,
    NotEvenGraphError,
    canonical_cycle,
    cut_subgraph,
    cycle_decomposition,
    is_even,
    is_forest,
    vertex_subset,
)
from .signed import (
    BalanceCertificate,
    NotACycleError,
    SignedGraph,
    UnderlyingGraphMismatchError,
    all_positive,
    cycle_sign,
    is_balanced,
    random_signature,
    switch,
    switching_equivalent,
)

__version__ = "0.1.0"
