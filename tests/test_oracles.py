import math
import random
import time
import tracemalloc
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st

from tnorder import (
    SizeBoundError,
    TensorNetwork,
    dp_general_optimal,
    dp_linear_optimal,
    evaluate_linear,
    evaluate_tree,
    generate_random_tree_network,
    iks_order,
    linearized_dp,
    order_arbitrary,
)
from tnorder import oracles
from tnorder.oracles import DP_GENERAL_MAX_NODES, DP_LINEAR_MAX_NODES, LIN_DP_MAX_NODES
from tnorder.plans import tree_leaves
from helpers import (
    five_tensor_data,
    ladder_data,
    min_linear_cost,
    min_tree_cost,
    naive_tree,
    random_connected_data,
    random_precedence_order,
    random_tree_data,
    shaped_tree,
    to_network,
)
import instances


def big_path(n):
    # connected subsets of a path are its intervals, so even the
    # 30-node bound is cheap to hit exactly
    nodes = [f"N{i:02d}" for i in range(n)]
    return TensorNetwork(
        nodes, [(nodes[i], nodes[i + 1], 2) for i in range(n - 1)]
    )


# ---------------------------------------------------------------- dp_linear


def test_dp_linear_five_tensor(five_tensor_net):
    order, cost = dp_linear_optimal(five_tensor_net)
    assert cost == 45
    assert evaluate_linear(five_tensor_net, order) == (45, True)


def test_dp_linear_matrix_chain(matrix_net):
    order, cost = dp_linear_optimal(matrix_net)
    assert cost == 16000
    assert order == ("A", "B", "C")


def test_dp_linear_single_node():
    net = TensorNetwork({"x": 3}, [])
    assert dp_linear_optimal(net) == (("x",), 0)


def test_dp_linear_star_and_triangle():
    star = TensorNetwork(
        "Sabc", [("S", "a", 2), ("S", "b", 3), ("S", "c", 4)]
    )
    assert dp_linear_optimal(star)[1] == 32
    tri = TensorNetwork(
        "abc", [("a", "b", 2), ("b", "c", 3), ("a", "c", 4)]
    )
    assert dp_linear_optimal(tri)[1] == 30


def test_dp_linear_matches_exhaustive_op_free():
    rng = random.Random(42)
    for _ in range(40):
        n = rng.randint(2, 8)
        nodes, edges = random_tree_data(rng, n, dim_lo=1, dim_hi=7, open_hi=3)
        net = to_network(nodes, edges)
        order, cost = dp_linear_optimal(net)
        assert cost == min_linear_cost(nodes, edges, op_free_only=True)[0]
        report = evaluate_linear(net, order)
        assert report == (cost, True)


def test_dp_linear_agrees_with_iks_on_trees():
    rng = random.Random(77)
    for _ in range(30):
        nodes, edges = random_tree_data(rng, rng.randint(2, 14))
        net = to_network(nodes, edges)
        assert dp_linear_optimal(net)[1] == iks_order(net)[1]


def test_dp_linear_size_bound():
    assert dp_linear_optimal(big_path(DP_LINEAR_MAX_NODES))[1] > 0
    with pytest.raises(SizeBoundError, match="31"):
        dp_linear_optimal(big_path(DP_LINEAR_MAX_NODES + 1))


def star(n):
    return TensorNetwork([f"S{i:02d}" for i in range(n)],
                         [("S00", f"S{i:02d}", 2) for i in range(1, n)])


def test_dp_linear_subset_bound():
    # a 19-node star has the most connected subsets of any 19-node tree
    # and stays within the bound; a 21-node star is refused before any work
    assert oracles._tree_subset_count(star(19)) == 2**18 + 18
    assert oracles.DP_LINEAR_MAX_SUBSETS >= 2**18 + 18
    assert oracles._tree_subset_count(star(21)) > oracles.DP_LINEAR_MAX_SUBSETS
    with pytest.raises(SizeBoundError, match=f"at least {2**20 + 20} connected subsets"):
        dp_linear_optimal(star(21))
    # loopy: counted on a spanning tree, a lower bound; a leaf-leaf edge
    # does not lift a 22-node star under the bound
    loopy = star(22)
    loopy = TensorNetwork(loopy.nodes, [*loopy.edges, ("S01", "S02", 3)])
    with pytest.raises(SizeBoundError, match="connected subsets"):
        dp_linear_optimal(loopy)


def test_tree_subset_count_is_exact_on_trees():
    # a path's connected subsets are its intervals
    assert oracles._tree_subset_count(big_path(30)) == 30 * 31 // 2
    assert oracles._tree_subset_count(TensorNetwork(["x"], [])) == 1
    # a triangle has 7; its breadth-first spanning tree, a 3-node path, 6
    tri = TensorNetwork("abc", [("a", "b", 2), ("b", "c", 2), ("a", "c", 2)])
    assert oracles._tree_subset_count(tri) == 6
    rng = random.Random(41)
    for _ in range(40):
        nodes, edges = random_tree_data(rng, rng.randint(1, 9))
        net = to_network(nodes, edges)
        connected = sum(
            1
            for mask in range(1, 1 << len(net.nodes))
            if _is_connected(net, [v for i, v in enumerate(net.nodes) if mask >> i & 1])
        )
        assert oracles._tree_subset_count(net) == connected


def _is_connected(net, members):
    inside, seen, stack = set(members), {members[0]}, [members[0]]
    while stack:
        for u in net.adjacency[stack.pop()]:
            if u in inside and u not in seen:
                seen.add(u)
                stack.append(u)
    return seen == inside


def test_dp_linear_counts_the_subsets_it_builds(monkeypatch):
    # off trees the spanning-tree count is a lower bound: a 16-node ladder
    # counts 1,139 there but has 14,748 connected subsets, so the DP also
    # counts the subsets it builds and stops once they pass the bound
    net = to_network(*ladder_data(8))
    assert oracles._tree_subset_count(net) == 1139
    nodes = net.nodes
    assert sum(
        1
        for mask in range(1, 1 << len(nodes))
        if _is_connected(net, [v for i, v in enumerate(nodes) if mask >> i & 1])
    ) == 14748
    result = dp_linear_optimal(net)
    monkeypatch.setattr(oracles, "DP_LINEAR_MAX_SUBSETS", 14748)
    assert dp_linear_optimal(net) == result
    monkeypatch.setattr(oracles, "DP_LINEAR_MAX_SUBSETS", 5000)
    with pytest.raises(SizeBoundError, match="^network has more than 5000 connected "
                       "subsets; the linear DP is bounded at 5000$"):
        dp_linear_optimal(net)


def test_dp_linear_deadline(five_tensor_net):
    with pytest.raises(TimeoutError):
        dp_linear_optimal(five_tensor_net, deadline=time.monotonic() - 1.0)


def test_dp_linear_deterministic(five_tensor_net):
    assert dp_linear_optimal(five_tensor_net) == dp_linear_optimal(five_tensor_net)


# --------------------------------------------------------------- dp_general


def test_dp_general_five_tensor(five_tensor_net):
    tree, cost = dp_general_optimal(five_tensor_net)
    assert cost == 45
    assert evaluate_tree(five_tensor_net, tree) == 45
    assert naive_tree(*five_tensor_data(), tree) == (45, True)


def test_dp_general_matrix_chain(matrix_net):
    tree, cost = dp_general_optimal(matrix_net)
    assert cost == 16000
    assert tree == (("A", "B"), "C")


def test_dp_general_single_node():
    net = TensorNetwork({"x": 3}, [])
    assert dp_general_optimal(net) == ("x", 0)


def test_dp_general_matches_exhaustive_all_trees():
    rng = random.Random(4242)
    for _ in range(25):
        n = rng.randint(2, 6)
        nodes, edges = random_tree_data(rng, n, dim_lo=1, dim_hi=7, open_hi=3)
        net = to_network(nodes, edges)
        tree, cost = dp_general_optimal(net)
        assert cost == min_tree_cost(nodes, edges, connected_only=False)[0]
        assert evaluate_tree(net, tree) == cost


def test_dp_general_takes_outer_product_when_cheaper():
    # a star whose two smallest arms pay off when joined first, even
    # though they share no edge at that point
    net = generate_random_tree_network(5, seed=5000025)
    nodes = dict(net.open_mult)
    edges = list(net.edges)
    best_any = min_tree_cost(nodes, edges, connected_only=False)[0]
    best_connected = min_tree_cost(nodes, edges, connected_only=True)[0]
    assert best_any < best_connected
    tree, cost = dp_general_optimal(net)
    assert cost == best_any
    assert evaluate_tree(net, tree) == cost
    assert naive_tree(nodes, edges, tree) == (cost, False)


def test_dp_general_never_above_dp_linear():
    # every linear order is a left-deep tree, so trees can only do better
    rng = random.Random(11)
    for _ in range(20):
        nodes, edges = random_tree_data(rng, rng.randint(2, 9), open_hi=2)
        net = to_network(nodes, edges)
        assert dp_general_optimal(net)[1] <= dp_linear_optimal(net)[1]


def test_dp_general_size_bound():
    with pytest.raises(SizeBoundError, match="17"):
        dp_general_optimal(big_path(DP_GENERAL_MAX_NODES + 1))


def test_dp_general_deadline(five_tensor_net):
    with pytest.raises(TimeoutError):
        dp_general_optimal(five_tensor_net, deadline=time.monotonic() - 1.0)


def _net_at(n, extra=0):
    """A random network of ``n`` nodes with ``extra`` loop edges."""
    return to_network(*random_connected_data(random.Random(n), n, extra, open_hi=3))


def _lin_dp_at(n):
    net = _net_at(n)
    return partial(linearized_dp, net, iks_order(net)[0])


# solver -> its call on a network at its bound, still to be given a deadline
DEADLINE_CASES = {
    "iks": lambda: partial(iks_order, _net_at(4096)),
    "mst-iks": lambda: partial(order_arbitrary, _net_at(4096, 512)),
    "dp-linear": lambda: partial(
        dp_linear_optimal, to_network(*shaped_tree(random.Random(19), "star", 19))
    ),
    "dp-general": lambda: partial(dp_general_optimal, _net_at(DP_GENERAL_MAX_NODES, 4)),
    "lin-dp": lambda: _lin_dp_at(LIN_DP_MAX_NODES),
}


@pytest.mark.parametrize("solver", DEADLINE_CASES)
def test_a_passed_deadline_stops_each_solver_soon(solver):
    # a full run takes 0.3 to 5 s; only set-up that is linear or quadratic in
    # the node count may come before the first check
    run = DEADLINE_CASES[solver]()
    start = time.monotonic()
    with pytest.raises(TimeoutError):
        run(deadline=start - 1.0)
    assert time.monotonic() - start < 0.25


# ------------------------------------------------------------ linearized_dp


def test_linearized_dp_two_nodes():
    net = TensorNetwork(["a", "b"], [("a", "b", 5)])
    tree, cost = linearized_dp(net, ("a", "b"))
    assert tree == ("a", "b")
    assert cost == 5


def test_linearized_dp_single_node():
    net = TensorNetwork({"x": 2}, [])
    assert linearized_dp(net, ("x",)) == ("x", 0)


def test_linearized_dp_matrix_chain(matrix_net):
    tree, cost = linearized_dp(matrix_net, ("A", "B", "C"))
    assert tree == (("A", "B"), "C")
    assert cost == 16000


def test_linearized_dp_keeps_leaf_order(matrix_net):
    for order in (("A", "B", "C"), ("C", "B", "A"), ("B", "A", "C")):
        tree, _ = linearized_dp(matrix_net, order)
        assert tree_leaves(tree) == order


def test_linearized_dp_prices_disconnected_intervals(matrix_net):
    # (A, C, B) contracted linearly hits an outer product and costs
    # 600000; regrouping as A * (C * B) avoids it entirely
    tree, cost = linearized_dp(matrix_net, ("A", "C", "B"))
    assert cost == 45000
    assert tree == ("A", ("C", "B"))
    assert evaluate_tree(matrix_net, tree) == 45000


def test_linearized_dp_never_above_linear():
    rng = random.Random(31)
    for _ in range(40):
        nodes, edges = random_tree_data(rng, rng.randint(2, 10), open_hi=3)
        net = to_network(nodes, edges)
        order = list(nodes)
        rng.shuffle(order)
        tree, cost = linearized_dp(net, order)
        assert cost <= evaluate_linear(net, order).cost
        assert evaluate_tree(net, tree) == cost
        assert tree_leaves(tree) == tuple(order)


def test_linearized_dp_size_bound():
    net = big_path(LIN_DP_MAX_NODES)
    assert linearized_dp(net, net.nodes)[1] > 0
    net = big_path(LIN_DP_MAX_NODES + 1)
    with pytest.raises(SizeBoundError, match=str(LIN_DP_MAX_NODES + 1)):
        linearized_dp(net, net.nodes)


def test_linearized_dp_validates_order(five_tensor_net):
    from tnorder import ValidationError

    with pytest.raises(ValidationError):
        linearized_dp(five_tensor_net, ("T1", "T2"))


# ----------------------------------------------------------------- sandwich


def test_tree_linear_sandwich():
    # best tree <= best order-preserving tree of the best linear order
    # <= best linear order
    rng = random.Random(555)
    for _ in range(15):
        nodes, edges = random_tree_data(rng, rng.randint(3, 10), open_hi=2)
        net = to_network(nodes, edges)
        order, linear_cost = iks_order(net)
        _, lifted_cost = linearized_dp(net, order)
        _, tree_cost = dp_general_optimal(net)
        assert tree_cost <= lifted_cost <= linear_cost


# ------------------------------------------------- pruned split loops


def _ref_size(net, members):
    size = math.prod(net.open_mult[v] for v in members)
    for u, v, s in net.edges:
        if (u in members) != (v in members):
            size *= s
    return size


def _ref_pair_cost(left, right, whole):
    product = left * right
    return product // math.isqrt(product // whole)


def _ref_linearized_dp(net, seq):
    """Unpruned interval recurrence: every split priced, first minimum kept."""
    n = len(seq)
    if n == 1:
        return seq[0], 0
    sz = [[_ref_size(net, set(seq[i:j + 1])) if i <= j else 0
           for j in range(n)] for i in range(n)]
    best = [[0] * n for _ in range(n)]
    split = [[0] * n for _ in range(n)]
    for length in range(2, n + 1):
        for i in range(n - length + 1):
            j = i + length - 1
            cur = None
            for k in range(i, j):
                cost = best[i][k] + best[k + 1][j] + _ref_pair_cost(
                    sz[i][k], sz[k + 1][j], sz[i][j]
                )
                if cur is None or cost < cur:
                    cur, split[i][j] = cost, k
            best[i][j] = cur

    def build(i, j):
        if i == j:
            return seq[i]
        k = split[i][j]
        return (build(i, k), build(k + 1, j))

    return build(0, n - 1), best[0][n - 1]


def _ref_dp_general(net):
    """Unpruned subset recurrence: every submask walked, the half holding
    the lowest bit kept, every partition priced, first minimum kept."""
    nodes = net.nodes
    n = len(nodes)
    if n == 1:
        return nodes[0], 0
    full = (1 << n) - 1
    size = [_ref_size(net, {nodes[i] for i in range(n) if m >> i & 1})
            for m in range(full + 1)]
    best = [0] * (full + 1)
    split = [0] * (full + 1)
    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        low = mask & -mask
        cur = None
        sub = (mask - 1) & mask
        while sub:
            if sub & low:
                rest = mask ^ sub
                cost = best[sub] + best[rest] + _ref_pair_cost(
                    size[sub], size[rest], size[mask]
                )
                if cur is None or cost < cur:
                    cur, split[mask] = cost, sub
            sub = (sub - 1) & mask
        best[mask] = cur

    def build(mask):
        if mask & (mask - 1) == 0:
            return nodes[mask.bit_length() - 1]
        return (build(split[mask]), build(mask ^ split[mask]))

    return build(full), best[full]


def _tie_heavy_network(rng, n, dim_hi, extra_edges, pow2=False):
    """Random tree plus loop edges; ids mixed int/str in shuffled order,
    many size-1 edges and open legs so that split costs tie often. With
    ``pow2`` every dim is 1, 2 or 4, so every size is a power of two and
    sizes equal the lower bound 2^(bits - 1) that lin-dp's bit-length test
    takes for them."""
    ids = [i if rng.random() < 0.5 else f"t{i}" for i in range(n)]
    rng.shuffle(ids)

    def dim():
        if pow2:
            return rng.choice((1, 2, 4))
        return rng.choice((1, 1, 2, rng.randint(1, dim_hi)))

    nodes = {v: dim() for v in ids}
    edges = {}
    for i in range(1, n):
        edges[ids[i], ids[rng.randrange(i)]] = dim()
    for _ in range(extra_edges if n > 2 else 0):
        u, v = rng.sample(ids, 2)
        if (u, v) not in edges and (v, u) not in edges:
            edges[u, v] = dim()
    return TensorNetwork(nodes, [(u, v, s) for (u, v), s in edges.items()])


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 9),
    st.sampled_from([2, 3, 10, 10**20]),
    st.integers(0, 6),
    st.booleans(),
)
# a pruned-vs-unpruned case: a split test that takes sizes one bit larger
# than 2^(bits - 1) skips dp-general's winner on this network
@example(2141, 6, 3, 6, False)
def test_pruned_dps_match_unpruned_recurrences(seed, n, dim_hi, extra, pow2):
    # trees, costs and tie-breaks are exactly those of pricing every split
    rng = random.Random(seed)
    net = _tie_heavy_network(rng, n, dim_hi, extra, pow2)
    order = list(net.nodes)
    rng.shuffle(order)  # any permutation, connected prefixes or not
    assert linearized_dp(net, order) == _ref_linearized_dp(net, tuple(order))
    assert dp_general_optimal(net) == _ref_dp_general(net)


@pytest.mark.parametrize(
    "seed, dim_hi, extra, pow2",
    [
        (1, 10**20, 0, False),
        (2, 10**20, 6, False),
        (3, 10, 3, True),
        (4, 2, 6, False),
        (5, 3, 2, True),
        (6, 10**20, 4, True),
        (7, 10, 5, False),
        (8, 2, 1, True),
    ],
)
def test_dp_general_matches_the_unpruned_recurrence_at_12_nodes(
    seed, dim_hi, extra, pow2
):
    # past the hypothesis test's 9 nodes: the lowest node's list of live
    # masks is shorter than a large mask's partitions, so those masks take
    # the live-list walk (11 to 136 masks per case here)
    net = _tie_heavy_network(random.Random(seed), 12, dim_hi, extra, pow2)
    assert dp_general_optimal(net) == _ref_dp_general(net)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(10, 48),
    st.sampled_from([2, 10**20]),
    st.integers(0, 6),
    st.booleans(),
    st.booleans(),
)
def test_lin_dp_matches_the_unpruned_recurrence_at_larger_n(
    seed, n, dim_hi, extra, shuffled, pow2
):
    # lin-dp alone, past dp-general's reach: intervals with many splits read
    # the row and column tables far from the diagonal; dims {1, 2} tie often
    rng = random.Random(seed)
    net = _tie_heavy_network(rng, n, dim_hi, extra, pow2)
    if shuffled:
        order = list(net.nodes)
        rng.shuffle(order)
    else:  # every prefix connected
        order = random_precedence_order(rng, net.nodes, net.edges, rng.choice(net.nodes))
    assert linearized_dp(net, order) == _ref_linearized_dp(net, tuple(order))


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.sampled_from(["star", "spider"]),
    st.integers(2, 40),
    st.booleans(),
)
def test_lin_dp_matches_the_unpruned_recurrence_on_stars_and_spiders(
    seed, shape, n, shuffled
):
    # each interval's scan starts from the winner of the interval one node
    # shorter; on a star or a two-leg spider with dims {1, 2} that seed often
    # ties with splits left of it, and the leftmost of them must win
    rng = random.Random(seed)
    net = to_network(*shaped_tree(rng, shape, n, dim_lo=1, dim_hi=2, open_hi=2))
    if shuffled:
        order = list(net.nodes)
        rng.shuffle(order)
    else:
        order = list(iks_order(net)[0])
    assert linearized_dp(net, order) == _ref_linearized_dp(net, tuple(order))


@pytest.mark.parametrize("loops", [False, True])
@pytest.mark.parametrize("seed", [1, 2, 3, 4])
def test_lin_dp_matches_the_unpruned_recurrence_at_the_workload_shape(seed, loops):
    # random trees and loopy networks of dims 2-10 with a connected random
    # base order, as the exact-baselines workload draws them: ties are rare,
    # so the left-to-right bound is loose and many values are held past it
    rng = random.Random(seed)
    n = rng.randint(32, 64)
    if loops:
        nodes, edges = random_connected_data(rng, n, n // 4, dim_hi=10)
    else:
        nodes, edges = random_tree_data(rng, n)
    net = to_network(nodes, edges)
    order = random_precedence_order(rng, net.nodes, net.edges, rng.choice(net.nodes))
    assert linearized_dp(net, order) == _ref_linearized_dp(net, tuple(order))


def _count_split_costs(monkeypatch):
    calls = [0]
    priced = oracles._split_cost

    def counting(left, right, whole):
        calls[0] += 1
        return priced(left, right, whole)

    monkeypatch.setattr(oracles, "_split_cost", counting)
    return calls


def test_lin_dp_prices_few_splits(monkeypatch):
    n = 64
    net = generate_random_tree_network(n, seed=64)
    order, _ = iks_order(net)
    calls = _count_split_costs(monkeypatch)
    linearized_dp(net, order)
    splits = n * (n * n - 1) // 6
    assert calls[0] <= splits // 4
    # exactly the n - 1 steps of the left-to-right bound, then each interval's
    # seed split, priced only when its halves leave room under the bound,
    # and the strict winners within the live range: any change to the split
    # tests keeps this count
    assert calls[0] == 2391


def test_lin_dp_prices_few_splits_past_its_bound(monkeypatch):
    # a path of 10^6 bonds and no open legs: most intervals' values lie past
    # the left-to-right bound, so they are held at UB + 1, few seeds are
    # priced and few splits are live; this count, not a wall clock, holds
    # that skip
    data = instances.INSTANCES["bonds-256"]()
    net = TensorNetwork([v["id"] for v in data["nodes"]],
                        [(e["u"], e["v"], e["size"]) for e in data["edges"]])
    order, _ = order_arbitrary(net)
    calls = _count_split_costs(monkeypatch)
    assert linearized_dp(net, order)[1] == 254 * 10**12 + 10**6
    assert calls[0] == 1018


def _loopy_twelve(seed):
    """A random 12-node tree with loops on top, its edges, and the rng
    that drew the loops."""
    n = 12
    rng = random.Random(seed)
    tree = generate_random_tree_network(n, seed=seed)
    edges = list(tree.edges)
    while len(edges) < n + 5:  # five loops on top of the tree
        u, v = rng.sample(tree.nodes, 2)
        if v not in tree.adjacency[u] and all({u, v} != {a, b} for a, b, _ in edges):
            edges.append((u, v, rng.randint(2, 10)))
    return tree, edges, rng


def test_dp_general_prices_few_partitions(monkeypatch):
    n = 12
    tree, edges, _ = _loopy_twelve(12)
    net = TensorNetwork(dict(tree.open_mult), edges)
    calls = _count_split_costs(monkeypatch)
    dp_general_optimal(net)
    partitions = (3**n - 2 ** (n + 1) + 1) // 2
    assert calls[0] <= partitions // 4
    # the bound's lin-dp pricing, then the strict winners below UB + 1 in
    # the masks some plan within the bound can pass through; each scan
    # starts from UB + 1, so no mask's first split is priced unconditionally
    assert calls[0] == 1802

    # open legs of 20-60 and one bond of size 1, so the last step can cost
    # just |full|: UB - |full| < UB // 2 is the binding term of the cap on
    # the proper subsets scanned. With |full| taken as 1 the count is 10871
    tree, edges, rng = _loopy_twelve(1)
    u, v, _ = edges[n // 2]
    edges[n // 2] = (u, v, 1)
    net = TensorNetwork({v: rng.randint(20, 60) for v in tree.nodes}, edges)
    ub = linearized_dp(net, order_arbitrary(net)[0])[1]
    assert ub - math.prod(net.open_mult.values()) < ub // 2
    calls[0] = 0
    dp_general_optimal(net)
    assert calls[0] == 10332


# ------------------------------------------------- two-layer dp_linear


def _ref_dp_linear(net):
    """The all-layers subset DP: ``(cost, size, last)`` kept for every
    connected subset until the end, each extension visited once per
    adjacent member, the order rebuilt from the full table."""
    nodes = net.nodes
    n = len(nodes)
    if n == 1:
        return (nodes[0],), 0
    pos = {v: i for i, v in enumerate(nodes)}
    tsize = [net.sizes[v] for v in nodes]
    adj = [[(pos[u], s) for u, s in net.adjacency[v].items()] for v in nodes]
    best = {1 << i: (0, tsize[i], -1) for i in range(n)}
    frontier = sorted(best)
    for _ in range(n - 1):
        grown = {}
        for mask in frontier:
            cost, size, _ = best[mask]
            m = mask
            while m:
                i = (m & -m).bit_length() - 1
                m &= m - 1
                for j, _s in adj[i]:
                    bit = 1 << j
                    if mask & bit:
                        continue
                    shared = 1
                    for k, s in adj[j]:
                        if mask >> k & 1:
                            shared *= s
                    step = size * tsize[j] // shared
                    cand = (cost + step, step // shared, j)
                    old = grown.get(mask | bit)
                    if old is None or cand[0] < old[0]:
                        grown[mask | bit] = cand
        best.update(grown)
        frontier = sorted(grown)
    mask = (1 << n) - 1
    total = best[mask][0]
    order_rev = []
    while True:
        _, _, last = best[mask]
        if last == -1:
            order_rev.append(nodes[mask.bit_length() - 1])
            break
        order_rev.append(nodes[last])
        mask ^= 1 << last
    return tuple(reversed(order_rev)), total


@settings(max_examples=200, deadline=None)
@given(
    st.integers(0, 2**32 - 1),
    st.integers(1, 12),
    st.sampled_from([2, 3, 10, 10**20]),
    st.integers(0, 6),
)
def test_dp_linear_matches_the_all_layers_reference(seed, n, dim_hi, extra):
    # trees (extra = 0) and loopy networks; dims {1, 2} tie often, so the
    # first-cheapest-predecessor rule decides many orders
    net = _tie_heavy_network(random.Random(seed), n, dim_hi, extra)
    assert dp_linear_optimal(net) == _ref_dp_linear(net)


def test_dp_linear_peak_memory_is_two_layers():
    # a 13-node star has 2^12 + 12 connected subsets, at most C(12, 6)
    # of them in one layer
    net = to_network(*shaped_tree(random.Random(13), "star", 13))
    results, peaks = [], []
    for solve in (_ref_dp_linear, dp_linear_optimal):
        tracemalloc.start()
        try:
            results.append(solve(net))
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert results[0] == results[1]
    assert 2 * peaks[1] <= peaks[0]


def test_dp_linear_peak_memory_per_subset():
    # a 16-node star has 2^15 + 15 connected subsets; each state is one
    # int and a finished layer a mask array and a state list, so the peak
    # stays under 48 bytes a subset (73 when a state was a dict entry
    # holding a (cost, size, last) tuple)
    net = to_network(*shaped_tree(random.Random(16), "star", 16))
    tracemalloc.start()
    try:
        dp_linear_optimal(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * (2**15 + 15)


def test_dp_linear_peak_memory_per_subset_on_a_ladder():
    # on a 16-node ladder the bound from the mst-iks order keeps 14,284 of
    # the 14,748 connected subsets, so the per-state layout, not the bound,
    # holds the peak under 48 bytes a kept subset
    net = to_network(*ladder_data(8))
    tracemalloc.start()
    try:
        dp_linear_optimal(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 48 * 14284
