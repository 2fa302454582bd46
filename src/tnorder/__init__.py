"""Contraction-order optimization for tensor networks.

Provably optimal linear contraction orders for tree tensor networks in
polynomial time, exact exponential DP baselines, a cubic interval DP that
upgrades linear orders to contraction trees, a spanning-tree reduction
for general networks, and a reproducible generator plus benchmark
harness. All cost arithmetic is exact arbitrary-precision integer
arithmetic; identical inputs always produce identical outputs.
"""

from .bench import read_csv, render_chart, run_benchmark, summarize, write_csv
from .cost import evaluate_linear, evaluate_tree
from .generate import generate_random_tree_network
from .heuristics import max_spanning_tree, order_arbitrary
from .iks import SequenceEntry, fuse, iks_order, rank_leq, single_entry
from .network import TensorNetwork, ValidationError, parse_network
from .oracles import (
    SizeBoundError,
    dp_general_optimal,
    dp_linear_optimal,
    linearized_dp,
)
from .plans import LinearPlan, TreePlan, parse_plan
from .precedence import build_precedence_graph, format_precedence

__version__ = "0.1.0"

__all__ = [
    # network and plans
    "TensorNetwork",
    "ValidationError",
    "SizeBoundError",
    "parse_network",
    "LinearPlan",
    "TreePlan",
    "parse_plan",
    "generate_random_tree_network",
    # solvers
    "iks_order",
    "dp_linear_optimal",
    "dp_general_optimal",
    "linearized_dp",
    "order_arbitrary",
    "max_spanning_tree",
    # pricing
    "evaluate_linear",
    "evaluate_tree",
    # rank calculus
    "build_precedence_graph",
    "format_precedence",
    "SequenceEntry",
    "single_entry",
    "fuse",
    "rank_leq",
    # benchmark harness
    "run_benchmark",
    "write_csv",
    "read_csv",
    "summarize",
    "render_chart",
]
