"""Exact contraction-cost evaluation for linear orders and contraction trees.

Cost model: contracting compound tensors X and Y costs
``size(X) * size(Y) / shared`` scalar multiplications, where ``shared`` is
the product of the sizes of all edges running between X and Y, and the
size of a compound tensor S is the product of its members' open legs times
the product of all edge sizes crossing the cut (S, rest). When X and Y
share no edge the contraction is an outer product, priced with
``shared = 1``. Only ``evaluate_linear`` reports whether a plan is
outer-product-free.

All arithmetic is arbitrary-precision integer arithmetic. The divisions
are exact by construction: every shared leg is a factor of both operand
sizes.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .network import NodeId, TensorNetwork
from .plans import LinearPlan, TreeNode, TreePlan, validate_plan

__all__ = ["LinearCostReport", "evaluate_linear", "evaluate_tree"]


class LinearCostReport(NamedTuple):
    """Total cost of a linear order plus its outer-product-freeness."""

    cost: int
    outer_product_free: bool


def evaluate_linear(
    net: TensorNetwork, order: LinearPlan | Sequence[NodeId]
) -> LinearCostReport:
    """Total cost of contracting the nodes one by one in ``order``.

    The order must be a permutation of all node ids. Also reports whether
    every step joined edge-connected operands (outer-product-free).
    """
    if isinstance(order, LinearPlan):
        order = order.order
    else:
        order = tuple(order)
    validate_plan(net, LinearPlan(order))

    members = {order[0]}
    prefix_size = net.tensor_size(order[0])
    total = 0
    op_free = True
    for v in order[1:]:
        shared = 1
        crossing = False
        for nbr, edge in net.adjacency[v].items():
            if nbr in members:
                shared *= edge
                crossing = True
        step = prefix_size * net.tensor_size(v) // shared
        total += step
        prefix_size = step // shared
        op_free = op_free and crossing
        members.add(v)
    return LinearCostReport(total, op_free)


def evaluate_tree(net: TensorNetwork, tree: TreePlan | TreeNode) -> int:
    """Total cost of a contraction tree: one pairwise contraction per
    internal node, summed over the whole tree.

    The walk is iterative, so a tree of any depth is priced, and each
    contraction merges the smaller member set into the larger one.
    """
    root = tree.root if isinstance(tree, TreePlan) else tree
    validate_plan(net, TreePlan(root))

    total = 0
    # post-order: (members, size) of every finished subtree, left first
    done: list[tuple[set[NodeId], int]] = []
    stack: list[tuple[TreeNode, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if not isinstance(node, tuple):
            done.append(({node}, net.tensor_size(node)))
        elif not expanded:
            stack += ((node, True), (node[1], False), (node[0], False))
        else:
            rmem, rsize = done.pop()
            lmem, lsize = done.pop()
            small, large = (lmem, rmem) if len(lmem) <= len(rmem) else (rmem, lmem)
            shared = 1
            for v in small:
                for nbr, edge in net.adjacency[v].items():
                    if nbr in large:
                        shared *= edge
            step = lsize * rsize // shared
            total += step
            large |= small
            done.append((large, step // shared))
    return total
