"""Heuristic ordering for arbitrary (non-tree) networks.

The optimal linear orderer only handles trees, so general networks are
reduced to one: keep a spanning tree maximizing the product of kept edge
sizes (the largest shared legs are the most valuable to contract over),
run the tree optimizer, and price the resulting order on the original
network. Off trees this is a heuristic with no optimality claim.
"""

from __future__ import annotations

from .cost import evaluate_linear
from .iks import iks_order
from .network import NodeId, TensorNetwork, id_key

__all__ = ["max_spanning_tree", "order_arbitrary"]


def max_spanning_tree(net: TensorNetwork) -> TensorNetwork:
    """Spanning tree maximizing the product of selected edge sizes.

    Maximizing the product equals maximizing the sum of logarithms, so
    greedy selection by descending integer size is exact; no logarithms
    are ever taken. Ties break on the lexicographically smallest
    canonical endpoint pair. Each dropped edge is folded into both of its
    endpoints' ``open_mult``, keeping every tensor's size truthful on the
    reduced network; costs should still be evaluated on the original.
    Tree inputs are returned unchanged.
    """
    if net.is_tree:
        return net

    edges = net.edges
    rank_keys = []
    for u, v, size in edges:
        ku, kv = id_key(u), id_key(v)
        rank_keys.append((-size, (ku, kv) if ku <= kv else (kv, ku)))
    ranked = sorted(range(len(edges)), key=rank_keys.__getitem__)

    parent: dict[NodeId, NodeId] = {v: v for v in net.nodes}

    def find(v: NodeId) -> NodeId:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    kept = [False] * len(edges)
    for i in ranked:
        u, v, _size = edges[i]
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            kept[i] = True

    open_mult = dict(net.open_mult)
    tree_edges = []
    for (u, v, size), keep in zip(edges, kept):
        if keep:
            tree_edges.append((u, v, size))
        else:
            open_mult[u] *= size
            open_mult[v] *= size
    return TensorNetwork(open_mult, tree_edges)


def order_arbitrary(
    net: TensorNetwork, *, deadline: float | None = None
) -> tuple[tuple[NodeId, ...], int]:
    """Linear order for any connected network, priced on that network.

    Optimal on trees (where it reduces to the tree optimizer); elsewhere
    the order is optimal for the extracted spanning tree and the reported
    cost is its exact cost on the original network, which is never larger
    than the tree's estimate since extra edges only shrink contractions.
    """
    tree = max_spanning_tree(net)
    order, _tree_cost = iks_order(tree, deadline=deadline)
    report = evaluate_linear(net, order)
    return order, report.cost
