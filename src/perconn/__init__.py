"""Persistence diagrams of weighted graphs and group-equivariant quivers
under pluggable connectivity notions, with bottleneck distance, natural
pseudodistance, and the poset constructions behind stability and
universality."""

from .connectivity import (
    PROPERTY_KINDS,
    PropertySpec,
    contains_property_subgraph,
    is_property_connected,
    property_components,
)
from .graphs import (
    CapExceeded,
    Filtration,
    FormatError,
    GraphError,
    SimpleGraph,
    WeightedGraph,
    build_filtration,
    critical_values,
    parse_indexed_graph,
    parse_weighted_graph,
    serialize_weighted_graph,
    simple_graph,
    weighted_graph,
)
from .metrics import bottleneck_distance, natural_pseudodistance, optimal_matching, perturb
from .persistence import (
    Cornerpoint,
    Diagram,
    PersistenceAxiomError,
    PersistenceFunction,
    check_axioms,
    check_reconstruction,
    diagram,
    elder_rule,
    extract_diagram,
    graph_diagram,
    index_diagram,
    parse_diagram,
    persistence_function,
    serialize_diagram,
)
from .posets import (
    Poset,
    PosetError,
    PosetFiltration,
    build_universal_pair,
    core,
    free_poset,
    is_weakly_directed,
    maximal_elements,
    parse_poset,
    poset_isomorphic,
    poset_persistence,
    serialize_poset,
    subobject_poset,
    t_n,
    t_n_filtration,
)
from .quivers import (
    EQUIVARIANT_KINDS,
    EquivariantClass,
    GQuiver,
    GroupAction,
    Quiver,
    QuiverError,
    gq_components,
    gq_persistence,
    gq_persistence_function,
    gquiver,
    is_equivariantly_connected,
    is_gq_connected,
    orbits,
    parse_gquiver,
    parse_orbit_graph,
    quiver,
    quotient,
    restrict_gquiver,
    serialize_gquiver,
    underlying_weighted_graph,
)

__version__ = "0.1.0"
