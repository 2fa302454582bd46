import random

from hypothesis import given, settings, strategies as st

from tnorder import (
    TensorNetwork,
    dp_linear_optimal,
    evaluate_linear,
    iks_order,
    max_spanning_tree,
    order_arbitrary,
    LinearPlan,
)
from tnorder.network import id_key
from tnorder.plans import validate_plan
from helpers import random_connected_data, to_network


def triangle():
    return TensorNetwork(
        "abc", [("a", "b", 2), ("b", "c", 3), ("a", "c", 4)]
    )


def test_mst_keeps_biggest_edges():
    tree = max_spanning_tree(triangle())
    assert tree.is_tree
    assert tree.edges == (("b", "c", 3), ("a", "c", 4))


def test_mst_folds_dropped_edge_into_both_endpoints():
    tree = max_spanning_tree(triangle())
    # the dropped a-b edge (size 2) becomes open legs on a and b
    assert tree.open_mult == {"a": 2, "b": 2, "c": 1}
    assert tree.sizes["a"] == 8
    assert tree.sizes["b"] == 6


def test_mst_leaves_input_alone():
    net = triangle()
    max_spanning_tree(net)
    assert net.open_mult == {"a": 1, "b": 1, "c": 1}
    assert len(net.edges) == 3


def test_mst_tie_break_is_lexicographic():
    net = TensorNetwork(
        "abc", [("a", "b", 5), ("b", "c", 5), ("a", "c", 2)]
    )
    tree = max_spanning_tree(net)
    assert tree.edges == (("a", "b", 5), ("b", "c", 5))


def test_mst_returns_trees_unchanged(five_tensor_net):
    assert max_spanning_tree(five_tensor_net) is five_tensor_net


def test_mst_preserves_edge_file_order():
    net = TensorNetwork(
        "abcd",
        [("a", "b", 9), ("b", "c", 2), ("c", "d", 9), ("d", "a", 9), ("a", "c", 2)],
    )
    tree = max_spanning_tree(net)
    kept = [e[:2] for e in tree.edges]
    # kept edges appear in the same relative order as in the input
    order = [e[:2] for e in net.edges]
    assert kept == [p for p in order if p in kept]


def _ref_max_spanning_tree(net):
    # the earlier form, which built each edge's canonical pair three times
    # and marked kept edges by pair; max_spanning_tree must match it
    if net.is_tree:
        return net

    def canonical(u, v):
        ku, kv = id_key(u), id_key(v)
        return (ku, kv) if ku <= kv else (kv, ku)

    ranked = sorted(net.edges, key=lambda e: (-e[2], canonical(e[0], e[1])))
    parent = {v: v for v in net.nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    kept = set()
    for u, v, _size in ranked:
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            kept.add(canonical(u, v))
            if len(kept) == len(net.nodes) - 1:
                break
    open_mult = dict(net.open_mult)
    tree_edges = []
    for u, v, size in net.edges:
        if canonical(u, v) in kept:
            tree_edges.append((u, v, size))
        else:
            open_mult[u] *= size
            open_mult[v] *= size
    return TensorNetwork(open_mult, tree_edges)


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 14), st.integers(0, 12))
def test_mst_matches_the_pairwise_reference(seed, n, extra):
    # loopy networks, sizes {1, 2, 3} so ranks tie, ids mixing ints and
    # strings ("10" and 10 both present, shuffled edge order)
    rng = random.Random(seed)
    pool = [*range(n), *map(str, range(n))]
    ids = rng.sample(pool, n)
    edges, pairs = [], set()
    for i in range(1, n):
        j = rng.randrange(i)
        edges.append((ids[i], ids[j], rng.randint(1, 3)))
        pairs.add(frozenset((ids[i], ids[j])))
    for _ in range(extra):
        u, v = rng.sample(ids, 2)
        if frozenset((u, v)) not in pairs:
            pairs.add(frozenset((u, v)))
            edges.append((u, v, rng.randint(1, 3)))
    rng.shuffle(edges)
    net = TensorNetwork({v: rng.randint(1, 3) for v in ids}, edges)
    tree, ref = max_spanning_tree(net), _ref_max_spanning_tree(net)
    assert tree.nodes == ref.nodes
    assert tree.edges == ref.edges
    assert tree.open_mult == ref.open_mult


def test_order_arbitrary_triangle():
    order, cost = order_arbitrary(triangle())
    assert order == ("a", "c", "b")
    assert cost == 30
    # 30 is the exhaustive optimum here, so the heuristic happens to win
    assert dp_linear_optimal(triangle())[1] == 30


def test_order_arbitrary_reduces_to_iks_on_trees(five_tensor_net):
    assert order_arbitrary(five_tensor_net) == iks_order(five_tensor_net)


def test_order_arbitrary_four_cycle():
    net = TensorNetwork(
        "abcd",
        [("a", "b", 2), ("b", "c", 2), ("c", "d", 2), ("d", "a", 2)],
    )
    order, cost = order_arbitrary(net)
    assert evaluate_linear(net, order).cost == cost
    assert evaluate_linear(net, order).outer_product_free


def test_order_arbitrary_prices_on_original_network():
    rng = random.Random(13)
    for _ in range(20):
        nodes, edges = random_connected_data(rng, rng.randint(4, 9), 2)
        net = to_network(nodes, edges)
        order, cost = order_arbitrary(net)
        validate_plan(net, LinearPlan(order))
        report = evaluate_linear(net, order)
        assert report.cost == cost
        assert report.outer_product_free
        # extra edges only shrink steps, so the tree's own estimate is
        # an upper bound
        tree = max_spanning_tree(net)
        assert cost <= iks_order(tree)[1]


def test_order_arbitrary_never_beats_exact_dp():
    rng = random.Random(29)
    for _ in range(15):
        nodes, edges = random_connected_data(rng, rng.randint(4, 8), 2)
        net = to_network(nodes, edges)
        _, cost = order_arbitrary(net)
        assert cost >= dp_linear_optimal(net)[1]
