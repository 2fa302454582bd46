"""Exact contraction-cost evaluation for linear orders and contraction trees.

Cost model: contracting compound tensors X and Y costs
``size(X) * size(Y) / shared`` scalar multiplications, where ``shared`` is
the product of the sizes of all edges running between X and Y, and the
size of a compound tensor S is the product of its members' open legs times
the product of all edge sizes crossing the cut (S, rest). When X and Y
share no edge the contraction is an outer product, priced with
``shared = 1``. Only ``evaluate_linear`` reports whether a plan is
outer-product-free.

A single tensor's size is read from the network's ``sizes`` table; only
compound sizes are computed here. All arithmetic is arbitrary-precision
integer arithmetic. The divisions are exact by construction: every
shared leg is a factor of both operand sizes.

``evaluate_tree`` checks the plan inside its pricing walk, and
``evaluate_linear`` with bulk checks of the ids' exact types and set. A
plan either rejects goes to ``validate_plan`` only to raise that
function's exact message.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import NamedTuple, NoReturn, Sequence

from .network import _ID_TYPES, NodeId, TensorNetwork
from .plans import ContractionPlan, LinearPlan, TreeNode, TreePlan, validate_plan

__all__ = ["LinearCostReport", "evaluate_linear", "evaluate_tree"]


class LinearCostReport(NamedTuple):
    """Total cost of a linear order plus its outer-product-freeness."""

    cost: int
    outer_product_free: bool


def _invalid(net: TensorNetwork, plan: ContractionPlan) -> NoReturn:
    validate_plan(net, plan)
    raise AssertionError("validate_plan accepted a plan the pricing pass rejected")


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
    tsize, adjacency = net.sizes, net.adjacency
    # exact types first: True == 1, and a list is unhashable
    if not (
        len(order) == len(tsize)
        and set(map(type, order)) <= _ID_TYPES
        and tsize.keys() == set(order)
    ):
        _invalid(net, LinearPlan(order))

    first = order[0]
    members = {first}
    prefix_size = tsize[first]
    total = 0
    op_free = True
    for v in order[1:]:
        adj = adjacency[v]
        shared = 1
        crossing = False
        for nbr, edge in adj.items():
            if nbr in members:
                shared *= edge
                crossing = True
        step = prefix_size * tsize[v] // shared
        total += step
        prefix_size = step // shared
        op_free = op_free and crossing
        members.add(v)
    return LinearCostReport(total, op_free)


_CLOSE = object()  # walk marker: both children of the innermost open pair are done


def evaluate_tree(net: TensorNetwork, tree: TreePlan | TreeNode) -> int:
    """Total cost of a contraction tree: one pairwise contraction per
    internal node, summed over the whole tree.

    One iterative walk, left to right, so a tree of any depth is priced.
    It keeps the open pairs (the current leaf's ancestors, root first)
    with each one's first leaf position and running shared product. An
    edge is charged once, when its second endpoint u is reached: its
    first endpoint sits at position p, and the edge is shared exactly at
    the lowest common ancestor, the deepest open pair whose first leaf is
    at or before p. No member sets are built: O(n + E log depth).
    """
    root = tree.root if isinstance(tree, TreePlan) else tree
    tsize, adjacency = net.sizes, net.adjacency

    total = 0
    position: dict[NodeId, int] = {}  # leaves seen so far, left to right
    path_lo: list[int] = []  # open pairs, root first: first leaf position
    path_shared: list[int] = []  # open pairs: product of edges charged so far
    sizes: list[int] = []  # finished subtrees still waiting for a sibling
    stack: list = [root]
    while stack:
        item = stack.pop()
        if item is _CLOSE:
            right = sizes.pop()
            shared = path_shared.pop()
            path_lo.pop()
            step = sizes[-1] * right // shared
            total += step
            sizes[-1] = step // shared
        elif type(item) is int or type(item) is str:
            adj = adjacency.get(item)
            if adj is None or item in position:
                _invalid(net, TreePlan(root))
            for nbr, edge in adj.items():
                p = position.get(nbr)
                if p is not None:
                    path_shared[bisect_right(path_lo, p) - 1] *= edge
            position[item] = len(position)
            sizes.append(tsize[item])
        elif isinstance(item, tuple) and len(item) == 2:
            path_lo.append(len(position))
            path_shared.append(1)
            stack += (_CLOSE, item[1], item[0])
        else:
            _invalid(net, TreePlan(root))
    if len(position) != len(adjacency):
        _invalid(net, TreePlan(root))
    return total
