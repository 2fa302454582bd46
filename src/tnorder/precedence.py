"""Precedence graphs: a tree tensor network rooted at a chosen tensor.

Rooting orients every edge away from the root and thereby fixes a partial
contraction order (a node may only be contracted once its parent has
been). Each node carries two integers from which the rank-based
optimizer derives everything:

    w(v)  size of the edge to the parent (1 for the root)
    F(v)  full tensor size: open_mult(v) times all incident edge sizes

The rank ingredients are the rationals

    t(v)  F(v) / w(v)^2, the factor by which contracting v multiplies the
          size of the already-contracted prefix
    c(v)  F(v) / w(v), the cost of contracting v into a prefix of size 1

which the optimizer keeps as the unreduced integers (F, w^2, F * w) of
its sequence entries (see ``iks``). t(v) < 1 is common and float
comparisons could misorder near-ties, so nothing is ever rounded or
reduced: t and c exist only as those integers.

A precedence graph is built by one iterative walk from the root, which
records each node's parent, children and w as it reaches the node. F
does not depend on the root: it is the network's size table
(``TensorNetwork.sizes``), shared and not copied. The ``iks`` solver
roots the tree once this way and derives every other rooting from it,
for ``iks_order`` and ``order --trace`` alike.

This is the one place that rejects a non-tree network: ``iks_order``,
its trace and its per-root views all start from a precedence graph, and
the message names the spanning-tree heuristic for general networks.
"""

from __future__ import annotations

from .network import _ID_TYPES, NodeId, TensorNetwork, ValidationError, _echo

__all__ = ["PrecedenceGraph", "build_precedence_graph"]


class PrecedenceGraph:
    """Arborescence over a tree network, plus per-node rank ingredients.

    Not to be changed after construction; ``F`` is the network's own
    ``sizes`` table, read-only like the rest. ``preorder`` lists every node
    with each parent before its children, in a deterministic order
    derived from the network's edge order; ``children[v]`` is the list of
    v's children in adjacency order.
    """

    __slots__ = ("root", "parent", "children", "w", "F", "preorder")

    def __init__(self, net: TensorNetwork, root: NodeId) -> None:
        # type first: True and 1.0 hash as 1, and [1] cannot be hashed
        if type(root) not in _ID_TYPES or root not in net.open_mult:
            raise ValidationError(f"unknown root node id {_echo(root)}")
        if not net.is_tree:
            raise ValidationError(
                "optimal linear ordering requires a tree network; use "
                "order_arbitrary (order --algorithm mst-iks) for general networks"
            )

        adjacency = net.adjacency
        parent: dict[NodeId, NodeId] = {}
        children: dict[NodeId, list[NodeId]] = {}
        w: dict[NodeId, int] = {root: 1}
        preorder: list[NodeId] = []
        stack = [root]
        while stack:
            u = stack.pop()
            preorder.append(u)
            adj = adjacency[u]
            up = parent.get(u)
            kids = [v for v in adj if v != up]
            children[u] = kids
            for v in kids:
                parent[v] = u
                w[v] = adj[v]
            stack += kids

        self.root = root
        self.parent = parent
        self.children = children
        self.preorder = tuple(preorder)
        self.w = w
        self.F = net.sizes

    def __len__(self) -> int:
        return len(self.preorder)

    def __repr__(self) -> str:
        return f"PrecedenceGraph(root={self.root!r}, {len(self.preorder)} nodes)"


def build_precedence_graph(net: TensorNetwork, root: NodeId) -> PrecedenceGraph:
    """Root the tree network at ``root``: parents, children, w, and F."""
    return PrecedenceGraph(net, root)
