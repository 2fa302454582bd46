import itertools
import random
import time
import tracemalloc
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import tnorder.iks
from tnorder import (
    SequenceEntry,
    TensorNetwork,
    ValidationError,
    build_precedence_graph,
    dp_linear_optimal,
    evaluate_linear,
    fuse,
    iks_order,
    rank_leq,
    single_entry,
)
from tnorder.iks import linearize_root, linearized_chain, merge_children
from tnorder.network import id_key
from helpers import (
    linearize_reference,
    min_linear_cost,
    mps_path_data,
    random_precedence_order,
    random_tree_data,
    shaped_tree,
    small_trees,
    to_network,
)

F = Fraction


def entry(P, Q, Cn, *members):
    return SequenceEntry(members or ("x",), P, Q, Cn)


def T(e):
    return F(e.P, e.Q)


def C(e):
    return F(e.Cn, e.Q)


def rank(e):
    # (T - 1) / C
    return F(e.P - e.Q, e.Cn)


# ------------------------------------------------------------------ ranks


def test_rank_compares_by_cross_multiplication():
    def equal(a, b):
        return rank_leq(a, b) and rank_leq(b, a)

    def less(a, b):
        return rank_leq(a, b) and not rank_leq(b, a)

    # rank (P - Q) / Cn is scale-free: unreduced forms compare equal
    assert equal(entry(2, 1, 2), entry(6, 2, 8))  # 1/2 == 2/4
    assert less(entry(1, 2, 2), entry(3, 3, 21))  # -1/2 < 0/7
    assert equal(entry(4, 3, 6), entry(2, 1, 6))  # (1/3)/2 == 1/6
    assert less(entry(1, 4, 1), entry(2, 1, 2))  # -3 < 1/2
    # T = 1/6, C = 7/3: rank (T - 1) / C = -5/14
    assert rank(entry(1, 6, 14)) == F(-5, 14)


def test_five_tensor_single_ranks(five_tensor_net):
    pg = build_precedence_graph(five_tensor_net, "T4")
    ranks = {v: rank(single_entry(pg, v)) for v in pg.preorder}
    assert ranks["T3"] == F(-4, 5)
    assert ranks["T2"] == F(-1, 3)
    assert ranks["T5"] == F(-1, 2)
    assert ranks["T1"] == 0


def test_rank_leq_agrees_with_rank_ordering():
    a = entry(1, 3, 6)  # T = 1/3, C = 2
    b = entry(1, 2, 2)  # T = 1/2, C = 1
    assert rank_leq(a, b) == (rank(a) <= rank(b))
    assert rank_leq(b, a) == (rank(b) <= rank(a))


def test_swap_decision_on_branch_network(branch_net):
    # T2 and T4 both hang off T1; their ranks decide who goes first
    pg = build_precedence_graph(branch_net, "T1")
    u, v = single_entry(pg, "T2"), single_entry(pg, "T4")
    assert rank(u) == F(1, 4)
    assert rank(v) == F(-2, 3)
    assert not rank_leq(u, v)
    assert rank_leq(v, u)
    assert evaluate_linear(branch_net, ("T1", "T2", "T4", "T3")).cost == 40
    assert evaluate_linear(branch_net, ("T1", "T4", "T2", "T3")).cost == 18


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(4, 9))
def test_asi_swap_biconditional(seed, n):
    # cost(A U V B) <= cost(A V U B) exactly when rank(U) <= rank(V),
    # for any precedence-respecting placement of the adjacent pair
    rng = random.Random(seed)
    nodes, edges = random_tree_data(rng, n, dim_lo=1, dim_hi=9, open_hi=3)
    net = to_network(nodes, edges)
    root = rng.choice(list(nodes))
    pg = build_precedence_graph(net, root)
    order = random_precedence_order(rng, nodes, edges, root)
    swaps = [
        i
        for i in range(1, n - 1)
        if pg.parent[order[i + 1]] != order[i]
    ]
    if not swaps:
        return
    i = rng.choice(swaps)
    swapped = list(order)
    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
    cost_uv = evaluate_linear(net, order).cost
    cost_vu = evaluate_linear(net, swapped).cost
    u = single_entry(pg, order[i])
    v = single_entry(pg, order[i + 1])
    assert (cost_uv <= cost_vu) == rank_leq(u, v)
    assert (cost_vu <= cost_uv) == rank_leq(v, u)


# -------------------------------------------------------- sequence algebra


def test_single_entry_five_tensor(five_tensor_net):
    pg = build_precedence_graph(five_tensor_net, "T4")
    e = single_entry(pg, "T2")
    # (F, w^2, F * w) with F = 12, w = 6
    assert e == SequenceEntry(("T2",), 12, 36, 72)
    assert T(e) == F(1, 3)
    assert C(e) == 2


def test_fuse_compound_t2_t5(five_tensor_net):
    pg = build_precedence_graph(five_tensor_net, "T4")
    c = fuse(single_entry(pg, "T2"), single_entry(pg, "T5"))
    assert c.members == ("T2", "T5")
    assert (c.P, c.Q, c.Cn) == (12 * 2, 36 * 4, 72 * 4 + 12 * 4)
    assert T(c) == F(1, 6)
    assert C(c) == F(7, 3)
    assert rank(c) == F(-5, 14)


ints_pos = st.integers(min_value=1, max_value=10**12)


@settings(max_examples=200)
@given(*([ints_pos] * 9))
def test_fuse_is_associative(p1, q1, n1, p2, q2, n2, p3, q3, n3):
    a, b, c = entry(p1, q1, n1, "a"), entry(p2, q2, n2, "b"), entry(p3, q3, n3, "c")
    left = fuse(fuse(a, b), c)
    right = fuse(a, fuse(b, c))
    # exactly equal, unreduced integers included
    assert left == right
    assert left.members == ("a", "b", "c")


def test_fuse_matches_cost_composition(five_tensor_net):
    # C of a fused pair prices the second part at the prefix size reached
    # after the first
    pg = build_precedence_graph(five_tensor_net, "T4")
    a, b = single_entry(pg, "T3"), single_entry(pg, "T2")
    assert C(fuse(a, b)) == C(a) + T(a) * C(b)
    assert T(fuse(a, b)) == T(a) * T(b)


# ------------------------------------------------------------ linearization


def test_merge_breaks_rank_ties_by_leading_id():
    # the solver's entries: (P, Q, Cn, id key of the leading node, that
    # node, the entries it absorbed)
    z = (1, 1, 1, id_key("Z"), "Z", ())
    a = [(1, 2, 4, id_key("B"), "B", (z,))]  # T = 1/2, C = 2
    b = [(2, 4, 8, id_key("A"), "A", ())]  # the same rank, unreduced
    c = [(3, 6, 12, id_key(10), 10, ()), (2, 1, 1, id_key(1), 1, ())]
    d = [(4, 8, 16, id_key(9), 9, ())]
    merged = merge_children([a, b, c, d])
    # integer ids first, in numeric order, then strings
    assert [e[4] for e in merged] == [9, 10, "A", "B", 1]
    assert merge_children([d, c, b, a]) == merged
    # the rooting walk's two-run merge gives the same order
    two_run = tnorder.iks._merge_two
    assert two_run(merge_children([a, c]), merge_children([b, d])) == merged
    assert two_run(merge_children([d, b]), merge_children([c, a])) == merged


def test_linearized_chain_five_tensor_t4(five_tensor_net):
    pg = build_precedence_graph(five_tensor_net, "T4")
    chain = linearized_chain(pg)
    assert len(chain) == 1
    assert chain[0].members == ("T4", "T3", "T2", "T5", "T1")
    assert T(chain[0]) == 1
    assert C(chain[0]) == 75
    # kept over the root's Q = w^2 = 1: P is the size of the contracted
    # tensor, Cn = F(T4) + cost
    assert chain[0][1:] == (1, 1, 30 + 45)


def test_chain_entries_agree_with_fusing_their_members():
    rng = random.Random(17)
    for _ in range(60):
        nodes, edges = random_tree_data(rng, rng.randint(2, 12), dim_lo=1, open_hi=3)
        net = to_network(nodes, edges)
        pg = build_precedence_graph(net, rng.choice(list(nodes)))
        for e in linearized_chain(pg):
            whole = single_entry(pg, e.members[0])
            for v in e.members[1:]:
                whole = fuse(whole, single_entry(pg, v))
            assert (T(e), C(e)) == (T(whole), C(whole))
            assert e.Q == pg.w[e.members[0]] ** 2


def test_linearized_chain_ranks_nondecreasing():
    rng = random.Random(7)
    for _ in range(50):
        nodes, edges = random_tree_data(rng, rng.randint(3, 10), open_hi=2)
        net = to_network(nodes, edges)
        root = rng.choice(list(nodes))
        pg = build_precedence_graph(net, root)
        chain = linearized_chain(pg)
        for a, b in itertools.pairwise(chain):
            assert rank(a) < rank(b) or (
                rank(a) == rank(b) and a.members[0] < b.members[0]
            )


def test_linearize_root_five_tensor_t4(five_tensor_net):
    pg = build_precedence_graph(five_tensor_net, "T4")
    order, cost = linearize_root(pg)
    assert order == ("T4", "T3", "T2", "T5", "T1")
    assert cost == 45
    assert evaluate_linear(five_tensor_net, order).cost == 45


def test_linearize_root_exhaustive_small_trees():
    # against brute force over every precedence-respecting permutation
    rng = random.Random(123)
    for _ in range(25):
        n = rng.randint(2, 7)
        nodes, edges = random_tree_data(rng, n, dim_lo=1, dim_hi=8, open_hi=3)
        net = to_network(nodes, edges)
        for root in nodes:
            pg = build_precedence_graph(net, root)
            order, cost = linearize_root(pg)
            assert evaluate_linear(net, order).cost == cost
            best = min(
                evaluate_linear(net, (root, *rest)).cost
                for rest in itertools.permutations([v for v in nodes if v != root])
                if _respects(pg, (root, *rest))
            )
            assert cost == best


def _respects(pg, order):
    seen = set()
    for v in order:
        if v != pg.root and pg.parent[v] not in seen:
            return False
        seen.add(v)
    return True


def test_gamma_identity():
    # evaluate_linear of a precedence-respecting order equals
    # F(root) * C(rest) = F(root) * Cn / Q from the sequence calculus
    rng = random.Random(99)
    for _ in range(40):
        nodes, edges = random_tree_data(rng, rng.randint(2, 9), open_hi=3)
        net = to_network(nodes, edges)
        root = rng.choice(list(nodes))
        pg = build_precedence_graph(net, root)
        order = random_precedence_order(rng, nodes, edges, root)
        rest = single_entry(pg, order[1])
        for v in order[2:]:
            rest = fuse(rest, single_entry(pg, v))
        cost, rem = divmod(pg.F[root] * rest.Cn, rest.Q)
        assert rem == 0
        assert cost == evaluate_linear(net, order).cost


# --------------------------------------------------------------- iks_order


def test_iks_order_five_tensor(five_tensor_net):
    order, cost = iks_order(five_tensor_net)
    assert cost == 45
    assert evaluate_linear(five_tensor_net, order) == (45, True)
    # T3 and T4 tie as roots at 45; the smaller id wins
    assert order == ("T3", "T4", "T2", "T5", "T1")


def test_iks_order_branch(branch_net):
    # optimum verified by enumerating all 24 orders: (T2, T3, T1, T4)
    order, cost = iks_order(branch_net)
    assert cost == 17
    assert evaluate_linear(branch_net, order).cost == 17


def test_iks_order_single_node():
    net = TensorNetwork({"only": 4}, [])
    assert iks_order(net) == (("only",), 0)


def test_iks_order_matches_exhaustive_op_free_minimum():
    rng = random.Random(2024)
    for _ in range(30):
        n = rng.randint(2, 7)
        nodes, edges = random_tree_data(rng, n, dim_lo=1, dim_hi=8, open_hi=3)
        net = to_network(nodes, edges)
        order, cost = iks_order(net)
        best_cost, _ = min_linear_cost(nodes, edges, op_free_only=True)
        assert cost == best_cost
        assert evaluate_linear(net, order).cost == cost
        assert evaluate_linear(net, order).outer_product_free


def test_iks_order_deterministic():
    rng = random.Random(5)
    nodes, edges = random_tree_data(rng, 12)
    net1 = to_network(nodes, edges)
    net2 = to_network(nodes, edges)
    assert iks_order(net1) == iks_order(net2)


def test_iks_order_rejects_non_tree():
    cyc = TensorNetwork("abc", [("a", "b", 2), ("b", "c", 2), ("a", "c", 2)])
    with pytest.raises(ValidationError, match="tree"):
        iks_order(cyc)


def test_iks_order_deadline():
    rng = random.Random(1)
    nodes, edges = random_tree_data(rng, 20)
    net = to_network(nodes, edges)
    with pytest.raises(TimeoutError):
        iks_order(net, deadline=time.monotonic() - 1.0)


def test_iks_order_deadline_fires_while_chains_are_built(monkeypatch):
    # a clock that passes the deadline on its fourth reading, while the
    # first pass still builds the 49 edge chains of the path
    ticks = iter(range(100))
    clock = types.SimpleNamespace(monotonic=lambda: next(ticks))
    monkeypatch.setattr(tnorder.iks, "time", clock)
    net = to_network(*shaped_tree(random.Random(0), "path", 50))
    with pytest.raises(TimeoutError, match="deadline"):
        iks_order(net, deadline=2)
    assert next(ticks) == 4


# ------------------------------------------- shared subtree chains (memo)


def per_root_minimum(net):
    # the reference: linearize every rooting afresh, keep the first
    # strictly cheaper one in id order
    best = None
    for root in sorted(net.nodes):
        order, cost = linearize_reference(build_precedence_graph(net, root))
        if best is None or cost < best[1]:
            best = order, cost
    return best


def test_linearize_root_matches_the_reference():
    # every rooting of every small tree, ties in rank and cost included
    for nodes, edges in small_trees():
        net = to_network(nodes, edges)
        for root in nodes:
            pg = build_precedence_graph(net, root)
            assert linearize_root(pg) == linearize_reference(pg)


SHAPES = ("random", "star", "path", "caterpillar")


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 11),
    st.sampled_from(SHAPES),
    st.sampled_from([2, 4, 9]),
    st.sampled_from([1, 3]),
)
def test_shared_chains_match_per_root_linearization(seed, n, shape, dim_hi, open_hi):
    rng = random.Random(seed)
    nodes, edges = shaped_tree(rng, shape, n, dim_hi=dim_hi, open_hi=open_hi)
    net = to_network(nodes, edges)
    order, cost = iks_order(net)
    assert (order, cost) == per_root_minimum(net)
    assert cost == dp_linear_optimal(net)[1]
    assert evaluate_linear(net, order) == (cost, True)


@pytest.mark.parametrize("shape", SHAPES)
def test_each_directed_edge_linearized_at_most_once(shape, monkeypatch):
    calls = []
    absorb = tnorder.iks._absorb

    def counting(*args):
        calls.append(args[0])
        return absorb(*args)

    monkeypatch.setattr(tnorder.iks, "_absorb", counting)
    for n in (1, 2, 3, 10, 40):
        calls.clear()
        net = to_network(*shaped_tree(random.Random(n), shape, n))
        iks_order(net)
        assert len(calls) <= 2 * (n - 1)
        # linearize_root reads the walk's first record: one _absorb per
        # non-root node with children; a leaf's chain is built without
        # _absorb, and the root's own rooting needs none
        calls.clear()
        internal = 0
        for root in net.nodes:
            pg = build_precedence_graph(net, root)
            linearize_root(pg)
            internal += sum(1 for v in pg.preorder[1:] if pg.children[v])
        assert len(calls) == internal


@pytest.mark.parametrize("shape", ["path", "star"])
def test_1500_nodes_without_recursion(shape):
    nodes, edges = shaped_tree(random.Random(1500), shape, 1500, dim_lo=2, dim_hi=10)
    order, cost = iks_order(to_network(nodes, edges))
    fresh = to_network(nodes, edges)
    assert iks_order(fresh) == (order, cost)
    assert linearize_root(build_precedence_graph(fresh, order[0])) == (order, cost)
    assert evaluate_linear(fresh, order) == (cost, True)


def test_memory_on_a_5000_node_path_is_linear():
    # compounds keep the entries they absorbed, not member tuples, and the
    # walk frees each subtree chain once it is read: about 6 MB traced
    # here, where copying members into every compound peaked at 55 MB
    nodes, edges = mps_path_data(random.Random("mps/5000"), 5000)
    net = TensorNetwork(nodes, edges)
    tracemalloc.start()
    try:
        order, cost = iks_order(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 10 * 2**20
    assert evaluate_linear(net, order) == (cost, True)
