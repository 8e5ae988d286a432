"""Exact enumeration of maximal dissociation sets in small graphs, with
named extremal families, isomorphism-free generators, and verification
suites for the lower bounds those families attain."""

from ._version import __version__
from .graphs import (
    MAX_ORDER,
    Graph,
    bit_list,
    closed_neighborhood,
    cycle,
    delete_vertices,
    disjoint_union,
    from_edges,
    graph6_decode,
    graph6_encode,
    is_caterpillar,
    iter_bits,
    leaves,
    path,
    support_vertices,
    vset,
)
from .mds import (
    Constraint,
    MdsProfile,
    Status,
    enumerate_mds,
    mds_profile,
    phi,
    phi_refined,
)
from .families import (
    U_pq,
    U_rt,
    enumerate_U_rt_class,
    extremal_caterpillars,
    extremal_trees,
    extremal_unicyclic,
    parse_family,
    spider_T,
)
from .canon import (
    CanonicalCode,
    generate_caterpillars,
    generate_trees,
    generate_unicyclic,
    tree_code,
    unicyclic_code,
)
