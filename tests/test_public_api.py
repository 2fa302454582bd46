import tnorder

# what the README, the CLI and tests/test_acceptance.py use
PUBLIC_API = [
    "LinearPlan",
    "SequenceEntry",
    "SizeBoundError",
    "TensorNetwork",
    "TreePlan",
    "ValidationError",
    "build_precedence_graph",
    "dp_general_optimal",
    "dp_linear_optimal",
    "evaluate_linear",
    "evaluate_tree",
    "fuse",
    "generate_random_tree_network",
    "iks_order",
    "linearized_dp",
    "max_spanning_tree",
    "order_arbitrary",
    "parse_network",
    "parse_plan",
    "rank_leq",
    "render_chart",
    "run_benchmark",
    "single_entry",
    "summarize",
    "write_csv",
]


def test_all_is_the_documented_api():
    assert sorted(tnorder.__all__) == PUBLIC_API


def test_star_import_resolves_every_name():
    namespace = {}
    exec("from tnorder import *", namespace)
    for name in PUBLIC_API:
        assert namespace[name] is getattr(tnorder, name)
