"""Contraction-order optimization for tensor networks.

Provably optimal linear contraction orders for tree tensor networks in
polynomial time, exact exponential DP baselines, a cubic interval DP that
upgrades linear orders to contraction trees, a spanning-tree reduction
for general networks, and a reproducible generator plus benchmark
harness. All cost arithmetic is exact arbitrary-precision integer
arithmetic; identical inputs always produce identical outputs.
"""

from .bench import (
    BenchRecord,
    SizeSummary,
    format_summary,
    read_csv,
    render_chart,
    run_benchmark,
    summarize,
    write_csv,
)
from .cost import (
    LinearCostReport,
    check_outer_product_free,
    evaluate_linear,
    evaluate_tree,
    pair_contraction_cost,
    subset_size,
)
from .generate import generate_random_tree_network
from .heuristics import max_spanning_tree, order_arbitrary
from .iks import (
    SequenceEntry,
    fuse,
    iks_order,
    linearize_root,
    linearized_chain,
    merge_children,
    normalize_chain,
    rank_leq,
    single_entry,
)
from .network import NodeId, TensorNetwork, ValidationError, id_key, parse_network
from .oracles import (
    DP_GENERAL_MAX_NODES,
    DP_LINEAR_MAX_NODES,
    SizeBoundError,
    dp_general_optimal,
    dp_linear_optimal,
    linearized_dp,
)
from .plans import (
    ContractionPlan,
    LinearPlan,
    TreeNode,
    TreePlan,
    left_deep_tree,
    parse_plan,
    tree_leaves,
    validate_plan,
)
from .precedence import (
    NodeQuantities,
    PrecedenceGraph,
    build_precedence_graph,
    format_precedence,
    node_quantities,
)

__version__ = "0.1.0"

__all__ = [
    "BenchRecord",
    "ContractionPlan",
    "DP_GENERAL_MAX_NODES",
    "DP_LINEAR_MAX_NODES",
    "LinearCostReport",
    "LinearPlan",
    "NodeId",
    "NodeQuantities",
    "PrecedenceGraph",
    "SequenceEntry",
    "SizeBoundError",
    "SizeSummary",
    "TensorNetwork",
    "TreeNode",
    "TreePlan",
    "ValidationError",
    "build_precedence_graph",
    "check_outer_product_free",
    "dp_general_optimal",
    "dp_linear_optimal",
    "evaluate_linear",
    "evaluate_tree",
    "format_precedence",
    "format_summary",
    "fuse",
    "generate_random_tree_network",
    "id_key",
    "iks_order",
    "left_deep_tree",
    "linearize_root",
    "linearized_chain",
    "linearized_dp",
    "max_spanning_tree",
    "merge_children",
    "node_quantities",
    "normalize_chain",
    "order_arbitrary",
    "pair_contraction_cost",
    "parse_network",
    "parse_plan",
    "rank_leq",
    "read_csv",
    "render_chart",
    "run_benchmark",
    "single_entry",
    "subset_size",
    "summarize",
    "tree_leaves",
    "validate_plan",
    "write_csv",
]
