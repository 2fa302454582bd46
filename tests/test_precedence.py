import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from tnorder import (
    TensorNetwork,
    ValidationError,
    build_precedence_graph,
    single_entry,
)
from helpers import (
    naive_subset_size,
    random_precedence_order,
    random_tree_data,
    to_network,
)

F = Fraction


def test_five_tensor_quantities_rooted_at_t4(five_tensor_net):
    pg = build_precedence_graph(five_tensor_net, "T4")
    # (w, F, t, c) and the optimizer's integer form (P, Q, Cn) = (F, w^2, F*w)
    expected = {
        "T4": ((1, 30, F(30), F(30)), (30, 1, 30)),
        "T3": ((5, 5, F(1, 5), F(1)), (5, 25, 25)),
        "T2": ((6, 12, F(1, 3), F(2)), (12, 36, 72)),
        "T1": ((1, 1, F(1), F(1)), (1, 1, 1)),
        "T5": ((2, 2, F(1, 2), F(1)), (2, 4, 4)),
    }
    for v, (quantities, integer_form) in expected.items():
        assert (pg.w[v], pg.F[v]) == quantities[:2]
        e = single_entry(pg, v)
        assert (e.P, e.Q, e.Cn) == integer_form
        assert F(e.P, e.Q) == quantities[2]  # t = P / Q
        assert F(e.Cn, e.Q) == quantities[3]  # c = Cn / Q


def test_five_tensor_shape_rooted_at_t4(five_tensor_net):
    pg = build_precedence_graph(five_tensor_net, "T4")
    assert pg.root == "T4"
    assert pg.parent["T3"] == "T4"
    assert pg.parent["T2"] == "T4"
    assert pg.parent["T1"] == "T2"
    assert pg.parent["T5"] == "T2"
    assert "T4" not in pg.parent
    assert set(pg.children["T4"]) == {"T2", "T3"}
    assert pg.children["T1"] == []


def test_children_follow_edge_order(five_tensor_net):
    pg = build_precedence_graph(five_tensor_net, "T2")
    # T2's adjacency lists T1, T5, T4 in file order
    assert pg.children["T2"] == ["T1", "T5", "T4"]


def test_preorder_parents_first(five_tensor_net):
    pg = build_precedence_graph(five_tensor_net, "T4")
    seen = set()
    for v in pg.preorder:
        if v != pg.root:
            assert pg.parent[v] in seen
        seen.add(v)
    assert seen == set(five_tensor_net.nodes)
    assert pg.preorder[0] == "T4"
    assert len(pg) == 5


def test_quantities_are_exact_types(five_tensor_net):
    pg = build_precedence_graph(five_tensor_net, "T1")
    for v in pg.preorder:
        w, F = pg.w[v], pg.F[v]
        e = single_entry(pg, v)
        assert type(w) is int and type(F) is int
        assert all(type(x) is int for x in (e.P, e.Q, e.Cn))
        assert (e.P, e.Q, e.Cn) == (F, w * w, F * w)
        t, c = Fraction(e.P, e.Q), Fraction(e.Cn, e.Q)
        assert c == t * w
        assert F == t * w * w


def test_root_has_unit_parent_edge(five_tensor_net):
    pg = build_precedence_graph(five_tensor_net, "T3")
    assert pg.w["T3"] == 1
    assert pg.F["T3"] == 5
    assert single_entry(pg, "T3")[1:] == (5, 1, 5)


def test_unknown_root_rejected(five_tensor_net):
    with pytest.raises(ValidationError, match="unknown"):
        build_precedence_graph(five_tensor_net, "T7")


@pytest.mark.parametrize("root", [True, 1.0, [1]])
def test_root_of_another_type_is_unknown(root):
    # equal to node 1 (or unhashable), but not a node id
    net = TensorNetwork({1: 2, "b": 3}, [(1, "b", 4)])
    with pytest.raises(ValidationError, match="unknown root node id"):
        build_precedence_graph(net, root)


def test_non_tree_rejected():
    cyc = TensorNetwork("abc", [("a", "b", 2), ("b", "c", 2), ("a", "c", 2)])
    with pytest.raises(ValidationError, match="tree"):
        build_precedence_graph(cyc, "a")


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 9))
def test_prefix_size_is_product_of_t(seed, n):
    # For any order respecting the rooting, the size of each contracted
    # prefix equals the product of t = P / Q over the prefix. This is the
    # whole reason t exists.
    rng = random.Random(seed)
    nodes, edges = random_tree_data(rng, n, dim_lo=1, dim_hi=7, open_hi=3)
    net = to_network(nodes, edges)
    root = rng.choice(list(nodes))
    pg = build_precedence_graph(net, root)
    order = random_precedence_order(rng, nodes, edges, root)
    P = Q = 1
    for i, v in enumerate(order):
        e = single_entry(pg, v)
        P *= e.P
        Q *= e.Q
        assert P == naive_subset_size(nodes, edges, order[: i + 1]) * Q
