"""Exact evidence for ``iks`` at sizes the subset DPs cannot reach.

Three guards: ``dp_linear_optimal`` on a 19-node star (2^18 connected
subsets, the most a tree of 19 nodes has), the O(n^2) path oracle in
``helpers``, which gives the optimum of paths with up to a thousand
nodes, and ``plan_ledger.json``, which pins the plan bytes (as sha256)
and the exact cost of ``iks`` on six tree families up to 2048 nodes, of
``mst-iks`` on loopy networks, of ``lin-dp`` on the iks order of those
families and on a shuffled order of a dims {1, 2} tree up to 256 nodes,
and of ``dp-general`` on loopy networks of 10 and 12 nodes. A change to
the solvers that moves any plan byte or cost fails here.

Regenerate the ledger, only for a change that means to move a plan and
explains why, with ``PYTHONPATH=src:tests python tests/test_exact_at_scale.py``.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

from tnorder import (
    LinearPlan,
    TensorNetwork,
    TreePlan,
    dp_general_optimal,
    dp_linear_optimal,
    evaluate_linear,
    iks_order,
    linearized_dp,
    order_arbitrary,
)
from helpers import (
    binary_ttn_data,
    min_linear_cost,
    mps_path_data,
    path_linear_optimum,
    random_connected_data,
    random_tree_data,
    shaped_tree,
)

# ------------------------------------------------------- subset DP, n = 19


def test_iks_matches_the_subset_dp_on_a_19_node_star():
    # size-1 edges and open legs: ranks tie; about 3 s of the DP
    nodes, edges = shaped_tree(random.Random("star/19"), "star", 19, dim_hi=10, open_hi=5)
    net = TensorNetwork(nodes, edges)
    order, cost = iks_order(net)
    dp_order, dp_cost = dp_linear_optimal(net)
    assert cost == dp_cost
    assert evaluate_linear(net, order) == evaluate_linear(net, dp_order) == (cost, True)


# ------------------------------------------------------------ path oracle

# MPS paths; size-1 edges and open legs; dims {1, 2}, where ranks tie often
PATH_FAMILIES = {
    "mps": dict(bond_lo=2, bond_hi=10, open_lo=2, open_hi=4),
    "size-1 edges": dict(bond_lo=1, bond_hi=6, open_lo=1, open_hi=3),
    "ties": dict(bond_lo=1, bond_hi=2, open_lo=1, open_hi=2),
}


@pytest.mark.parametrize("family", PATH_FAMILIES)
def test_path_oracle_matches_the_subset_dp(family):
    rng = random.Random(family)
    for n in range(1, 15):
        for _ in range(4 if n < 12 else 1):
            nodes, edges = mps_path_data(rng, n, **PATH_FAMILIES[family])
            want = dp_linear_optimal(TensorNetwork(nodes, edges))[1]
            assert path_linear_optimum(nodes, edges) == want
            if n <= 6:
                assert min_linear_cost(nodes, edges, op_free_only=True)[0] == want


def test_path_oracle_walks_shuffled_edges():
    # the walk starts at an end, whatever the id and edge order
    nodes = {"c": 2, "a": 3, "d": 1, "b": 4}
    edges = [("d", "b", 5), ("a", "c", 2), ("b", "a", 3)]
    want = dp_linear_optimal(TensorNetwork(nodes, edges))[1]
    assert path_linear_optimum(nodes, edges) == want


@pytest.mark.parametrize("n", [2, 50, 300, 1000])
@pytest.mark.parametrize("family", PATH_FAMILIES)
def test_iks_matches_the_path_oracle(family, n):
    rng = random.Random(f"{family}/{n}")
    for _ in range(5 if n <= 50 else 1):
        nodes, edges = mps_path_data(rng, n, **PATH_FAMILIES[family])
        net = TensorNetwork(nodes, edges)
        order, cost = iks_order(net)
        assert cost == path_linear_optimum(nodes, edges)
        assert evaluate_linear(net, order) == (cost, True)


# ------------------------------------------------------------ plan ledger

LEDGER = Path(__file__).with_name("plan_ledger.json")

TREE_FAMILIES = ("random", "path", "star", "caterpillar", "binary-ttn", "spider")
TREE_SIZES = (64, 256, 512, 1024, 2048)
LOOPY_SIZES = (32, 64, 128, 256)
LIN_DP_SIZES = (64, 128, 256)
DP_GENERAL_SIZES = (10, 12)


def _seeds(n: int) -> tuple[int, ...]:
    return (1, 2) if n <= 256 else (1,)


def _tree_data(family: str, rng: random.Random, n: int):
    if family == "path":
        return mps_path_data(rng, n)
    if family == "binary-ttn":
        return binary_ttn_data(rng, n)
    # size-1 edges and open legs 1-5: ranks tie, chains barely fuse
    return shaped_tree(rng, family, n, dim_hi=10, open_hi=5)


def ledger_cases():
    """(key, algorithm, nodes, edges, base) for every ledger entry; base is
    lin-dp's base order, or None for the iks order."""
    for family in TREE_FAMILIES:
        for n in TREE_SIZES:
            for seed in _seeds(n):
                key = f"iks/{family}/{n}/{seed}"
                yield key, "iks", *_tree_data(family, random.Random(key), n), None
    for n in LOOPY_SIZES:
        for seed in _seeds(n):
            key = f"mst-iks/loopy/{n}/{seed}"
            yield key, "mst-iks", *random_connected_data(
                random.Random(key), n, n // 8, open_hi=3
            ), None
    # one seed each: the interval DP is cubic, 0.4 to 2 s per family at
    # n = 256
    for family in TREE_FAMILIES:
        for n in LIN_DP_SIZES:
            key = f"lin-dp/{family}/{n}/1"
            yield key, "lin-dp", *_tree_data(family, random.Random(key), n), None
    for n in LIN_DP_SIZES:
        # dims {1, 2}: splits tie often; a shuffled order: many intervals
        # are disconnected and priced as outer products
        key = f"lin-dp/shuffled/{n}/1"
        rng = random.Random(key)
        nodes, edges = random_tree_data(rng, n, dim_lo=1, dim_hi=2, open_hi=2)
        base = list(nodes)
        rng.shuffle(base)
        yield key, "lin-dp", nodes, edges, base
    for n in DP_GENERAL_SIZES:
        for seed in (1, 2):
            key = f"dp-general/loopy/{n}/{seed}"
            yield key, "dp-general", *random_connected_data(
                random.Random(key), n, n // 4, open_hi=3
            ), None


def ledger_entry(algorithm: str, nodes, edges, base=None) -> dict[str, str]:
    net = TensorNetwork(nodes, edges)
    plan: LinearPlan | TreePlan
    if algorithm == "lin-dp":
        tree, cost = linearized_dp(net, iks_order(net)[0] if base is None else base)
        plan = TreePlan(tree)
    elif algorithm == "dp-general":
        tree, cost = dp_general_optimal(net)
        plan = TreePlan(tree)
    else:
        order, cost = (iks_order if algorithm == "iks" else order_arbitrary)(net)
        plan = LinearPlan(order)
    digest = hashlib.sha256(plan.to_json().encode()).hexdigest()
    # a decimal string: JSON readers may cap the digits of an integer
    return {"sha256": digest, "cost": str(cost)}


def build_ledger() -> dict[str, dict[str, str]]:
    return {
        key: ledger_entry(algorithm, nodes, edges, base)
        for key, algorithm, nodes, edges, base in ledger_cases()
    }


def test_plans_and_costs_match_the_ledger():
    assert build_ledger() == json.loads(LEDGER.read_text())


if __name__ == "__main__":
    LEDGER.write_text(json.dumps(build_ledger(), indent=1, sort_keys=True) + "\n")
