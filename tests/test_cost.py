import functools
import random

import pytest
from hypothesis import given, settings, strategies as st

from tnorder import (
    LinearPlan,
    TensorNetwork,
    TreePlan,
    ValidationError,
    evaluate_linear,
    evaluate_tree,
)
from tnorder.plans import validate_plan
from helpers import (
    naive_linear,
    naive_tree,
    random_connected_data,
    random_tree_data,
    to_network,
)


@st.composite
def tree_instances(draw, max_n=8, open_hi=3):
    n = draw(st.integers(2, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    nodes, edges = random_tree_data(rng, n, dim_lo=1, dim_hi=6, open_hi=open_hi)
    return nodes, edges, draw(st.randoms(use_true_random=False))


@st.composite
def loopy_instances(draw, max_n=40):
    n = draw(st.integers(2, max_n))
    extra = draw(st.integers(0, min(n // 2, (n - 1) * (n - 2) // 2)))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    nodes, edges = random_connected_data(rng, n, extra, open_hi=3)
    return nodes, edges, rng


def _random_full_tree(rng, leaves):
    items = list(leaves)
    while len(items) > 1:
        i = rng.randrange(len(items))
        a = items.pop(i)
        j = rng.randrange(len(items))
        b = items.pop(j)
        items.append((a, b))
    return items[0]


# ------------------------------------------------------------ fixed cases


def test_evaluate_linear_matrix_chain(matrix_net):
    assert evaluate_linear(matrix_net, ("A", "B", "C")) == (16000, True)
    assert evaluate_linear(matrix_net, ("B", "C", "A")) == (45000, True)
    report = evaluate_linear(matrix_net, ("A", "C", "B"))
    assert report.cost == 600000
    assert not report.outer_product_free


def test_evaluate_tree_matrix_chain(matrix_net):
    assert evaluate_tree(matrix_net, (("A", "B"), "C")) == 16000
    assert evaluate_tree(matrix_net, ("A", ("B", "C"))) == 45000
    assert evaluate_tree(matrix_net, (("A", "C"), "B")) == 600000


def test_evaluate_linear_accepts_plan_and_sequence(matrix_net):
    plan = LinearPlan(("A", "B", "C"))
    assert evaluate_linear(matrix_net, plan) == evaluate_linear(
        matrix_net, ["A", "B", "C"]
    )


def test_single_node_costs_nothing():
    net = TensorNetwork({"x": 5}, [])
    assert evaluate_linear(net, ("x",)) == (0, True)
    assert evaluate_tree(net, "x") == 0


def test_evaluate_linear_validates_cover(five_tensor_net):
    with pytest.raises(ValidationError):
        evaluate_linear(five_tensor_net, ("T1", "T2", "T3", "T4"))
    with pytest.raises(ValidationError):
        evaluate_linear(five_tensor_net, ("T1", "T2", "T3", "T4", "T4"))
    with pytest.raises(ValidationError):
        evaluate_linear(five_tensor_net, ("T1", "T2", "T3", "T4", "T9"))


def test_size_one_edge_still_connects(five_tensor_net):
    # T1-T2 has size 1; starting there must not read as an outer product
    report = evaluate_linear(five_tensor_net, ("T1", "T2", "T5", "T4", "T3"))
    assert report.outer_product_free


def test_outer_step_detected(five_tensor_net):
    report = evaluate_linear(five_tensor_net, ("T1", "T3", "T2", "T4", "T5"))
    assert not report.outer_product_free


# ------------------------------------------------- dual-route verification


@settings(max_examples=150, deadline=None)
@given(tree_instances())
def test_linear_cost_matches_leg_oracle(instance):
    nodes, edges, rng = instance
    net = to_network(nodes, edges)
    order = list(nodes)
    rng.shuffle(order)
    expect_cost, expect_free = naive_linear(nodes, edges, order)
    got = evaluate_linear(net, order)
    assert got.cost == expect_cost
    assert got.outer_product_free == expect_free


@settings(max_examples=150, deadline=None)
@given(tree_instances())
def test_tree_cost_matches_leg_oracle(instance):
    nodes, edges, rng = instance
    net = to_network(nodes, edges)
    tree = _random_full_tree(rng, nodes)
    expect_cost, _ = naive_tree(nodes, edges, tree)
    assert evaluate_tree(net, tree) == expect_cost


@settings(max_examples=150, deadline=None)
@given(tree_instances())
def test_left_deep_tree_costs_like_linear(instance):
    nodes, edges, rng = instance
    net = to_network(nodes, edges)
    order = list(nodes)
    rng.shuffle(order)
    tree = functools.reduce(lambda acc, v: (acc, v), order)
    assert evaluate_tree(net, tree) == evaluate_linear(net, order).cost


@settings(max_examples=100, deadline=None)
@given(loopy_instances())
def test_tree_cost_matches_leg_oracle_on_loopy_networks(instance):
    # chords give a step several shared legs, charged at different depths
    nodes, edges, rng = instance
    tree = _random_full_tree(rng, nodes)
    expect_cost, _ = naive_tree(nodes, edges, tree)
    assert evaluate_tree(to_network(nodes, edges), tree) == expect_cost


def _balanced(leaves):
    level = list(leaves)
    while len(level) > 1:
        paired = [(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        level = paired + level[len(level) - len(level) % 2 :]
    return level[0]


def test_deep_trees_price_without_recursion():
    # a path with a chord every 7 nodes; left- and right-deep trees are
    # 3000 levels deep, past the interpreter's recursion limit
    n = 3000
    rng = random.Random(3)
    edges = [(i, i + 1, rng.randint(2, 5)) for i in range(n - 1)]
    edges += [(i, i + 7, rng.randint(2, 5)) for i in range(0, n - 7, 7)]
    nodes = {i: rng.randint(1, 3) for i in range(n)}
    net = TensorNetwork(nodes, edges)
    order = list(range(n))
    left_deep = functools.reduce(lambda acc, v: (acc, v), order)
    right_deep = functools.reduce(lambda acc, v: (v, acc), reversed(order))
    assert evaluate_tree(net, left_deep) == evaluate_linear(net, order).cost
    assert evaluate_tree(net, right_deep) == evaluate_linear(net, order[::-1]).cost
    balanced = _balanced(order)
    assert evaluate_tree(net, TreePlan(balanced)) == naive_tree(nodes, edges, balanced)[0]


# Each plan breaks the cover of the five-tensor network T1..T5, and each
# evaluator must raise exactly what validate_plan raises for it.
BAD_TREES = {
    "unknown id": (((("T1", "T2"), ("T3", "T4")), "T9"),
                   "plan references unknown node id 'T9'"),
    "duplicate": ((("T1", "T2"), (("T3", "T4"), ("T5", "T2"))),
                  "plan lists node 'T2' more than once"),
    "missing": ((("T1", "T2"), ("T3", "T4")), "plan is missing node 'T5'"),
    "non-pair": ((("T1", "T2", "T3"), ("T4", "T5")),
                 "tree node must be a pair, got 3 children"),
    "non-id leaf": ((("T1", "T2"), (("T3", "T4"), ("T5", True))),
                    "tree leaf must be a node id, got True"),
    # the walk meets the duplicate T1 first; validate_plan checks the
    # shape of the whole tree before any id
    "two faults": ((("T1", "T1"), (("T3", "T4"), ("T5",))),
                   "tree node must be a pair, got 1 children"),
}
BAD_ORDERS = {
    "unknown id": (("T1", "T2", "T3", "T4", "T9"),
                   "plan references unknown node id 'T9'"),
    "duplicate": (("T1", "T2", "T3", "T4", "T5", "T4"),
                  "plan lists node 'T4' more than once"),
    "missing": (("T1", "T2", "T3", "T4"), "plan is missing node 'T5'"),
    "non-pair": (("T1", "T2", "T3", ("T4", "T5")),
                 "plan references unknown node id ('T4', 'T5')"),
    "non-id leaf": (("T1", "T2", "T3", "T4", 2.5), "plan references unknown node id 2.5"),
    "unhashable id": (("T1", "T2", "T3", "T4", ["T5"]),
                      "plan references unknown node id ['T5']"),
    "two faults": (("T1", "T1", "T9", "T3", "T4"), "plan lists node 'T1' more than once"),
}


@pytest.mark.parametrize("case", BAD_TREES)
def test_evaluate_tree_raises_validate_plans_message(five_tensor_net, case):
    root, message = BAD_TREES[case]
    for check in (
        lambda: validate_plan(five_tensor_net, TreePlan(root)),
        lambda: evaluate_tree(five_tensor_net, root),
    ):
        with pytest.raises(ValidationError) as exc:
            check()
        assert str(exc.value) == message


@pytest.mark.parametrize("case", BAD_ORDERS)
def test_evaluate_linear_raises_validate_plans_message(five_tensor_net, case):
    order, message = BAD_ORDERS[case]
    for check in (
        lambda: validate_plan(five_tensor_net, LinearPlan(order)),
        lambda: evaluate_linear(five_tensor_net, order),
    ):
        with pytest.raises(ValidationError) as exc:
            check()
        assert str(exc.value) == message


@pytest.mark.parametrize("alias", [True, 1.0, [1]])
def test_an_id_equal_to_a_node_but_of_another_type_is_unknown(alias):
    # True == 1 and 1.0 == 1, yet neither is node 1; [1] is unhashable
    net = TensorNetwork({1: 1, "b": 1}, [(1, "b", 2)])
    order = (alias, "b")
    for check in (
        lambda: validate_plan(net, LinearPlan(order)),
        lambda: evaluate_linear(net, order),
    ):
        with pytest.raises(ValidationError) as exc:
            check()
        assert str(exc.value) == f"plan references unknown node id {alias!r}"
