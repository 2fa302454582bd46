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
from helpers import naive_linear, naive_tree, random_tree_data, to_network


@st.composite
def tree_instances(draw, max_n=8, open_hi=3):
    n = draw(st.integers(2, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    nodes, edges = random_tree_data(rng, n, dim_lo=1, dim_hi=6, open_hi=open_hi)
    return nodes, edges, draw(st.randoms(use_true_random=False))


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


def test_deep_trees_price_without_recursion():
    # 5000 levels, far past the interpreter's recursion limit
    n = 5000
    net = TensorNetwork(range(n), [(i, i + 1, 2 + i % 3) for i in range(n - 1)])
    order = list(range(n))
    left_deep = functools.reduce(lambda acc, v: (acc, v), order)
    right_deep = functools.reduce(lambda acc, v: (v, acc), reversed(order))
    assert evaluate_tree(net, left_deep) == evaluate_linear(net, order).cost
    assert evaluate_tree(net, TreePlan(right_deep)) == evaluate_linear(
        net, order[::-1]
    ).cost
