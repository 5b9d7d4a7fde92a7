"""Exact torsion and root counts on dual graphs of twisted nodal curves."""

from .graphs import (
    DualGraph,
    Edge,
    MultiIndex,
    NodeType,
    Vertex,
    canonical_form,
    classify_node,
    dual_graph,
    enumerate_stable_graphs,
    genus,
    is_l_stable,
    is_stable,
)
from .exactalg import (
    CyclicHom,
    hom_image_contains,
    smith_normal_form,
    solve_congruence,
)
from .picard import (
    LineBundleData,
    combine_coprime,
    construct_root,
    count_roots,
    delta_embed,
    delta_image_lift,
    delta_image_member,
    enumerate_discrete_roots,
    line_bundle,
    omega_bundle,
    root_count_criterion,
    rth_power,
    split_coprime,
    tensor,
    torsion_count,
    total_degree,
    trivial_bundle,
    vertex_degree,
)
from .orbits import (
    NrReport,
    aut_order_ratio,
    cond_check,
    elliptic_torsion_orbits,
    ghost_group_order,
    nr_report,
    orbit_count,
    riemann_hurwitz_chi,
    verify_cond,
)

__version__ = "0.1.0"
