"""Contraction-order optimization for tensor networks.

Provably optimal linear contraction orders for tree tensor networks in
polynomial time, exact exponential DP baselines, a cubic interval DP that
upgrades linear orders to contraction trees, a spanning-tree reduction
for general networks, and a reproducible generator plus benchmark
harness. All cost arithmetic is exact arbitrary-precision integer
arithmetic; identical inputs always produce identical outputs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the module defining it; each module is imported on first
# use of one of its names, so ``import tnorder`` loads none of them
_EXPORTS = {
    # network and plans
    "TensorNetwork": "network",
    "ValidationError": "network",
    "SizeBoundError": "network",
    "parse_network": "network",
    "LinearPlan": "plans",
    "TreePlan": "plans",
    "parse_plan": "plans",
    "generate_random_tree_network": "generate",
    # solvers
    "iks_order": "iks",
    "dp_linear_optimal": "oracles",
    "dp_general_optimal": "oracles",
    "linearized_dp": "oracles",
    "order_arbitrary": "heuristics",
    "max_spanning_tree": "heuristics",
    # pricing
    "evaluate_linear": "cost",
    "evaluate_tree": "cost",
    # rank calculus
    "build_precedence_graph": "precedence",
    "SequenceEntry": "iks",
    "single_entry": "iks",
    "fuse": "iks",
    "rank_leq": "iks",
    # benchmark harness
    "run_benchmark": "bench",
    "write_csv": "bench",
    "summarize": "bench",
    "render_chart": "bench",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
