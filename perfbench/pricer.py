"""Independent exact pricing and canonical output digests.

Shares no code with tnorder: sizes follow the definition directly (a
compound's size is its open legs times every edge leaving it), and tree
plans are walked with an explicit stack, so plans of any depth price.
"""

from __future__ import annotations

import hashlib
import math

from families import Net, tree_leaves


class Mismatch(Exception):
    """The program returned an output that is not what it should be."""


def tensor_sizes(net: Net, adj: list[dict[int, int]]) -> list[int]:
    return [net.open[v] * math.prod(adj[v].values()) for v in range(net.n)]


def linear_cost(net: Net, order: list[int]) -> int:
    """Exact cost of contracting ``order`` left to right, outer products
    priced with a shared product of 1."""
    adj = net.adjacency()
    sizes = tensor_sizes(net, adj)
    inside = [False] * net.n
    inside[order[0]] = True
    size = sizes[order[0]]
    total = 0
    for v in order[1:]:
        shared = math.prod(s for w, s in adj[v].items() if inside[w])
        total += size * sizes[v] // shared
        size = size * sizes[v] // (shared * shared)
        inside[v] = True
    return total


def tree_cost(net: Net, tree) -> int:
    """Exact cost of a contraction tree over node indices. Member sets
    merge small into large, so a left-deep tree prices in linear time."""
    adj = net.adjacency()
    sizes = tensor_sizes(net, adj)
    total = 0
    done: list[tuple[set[int], int]] = []
    stack: list = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if not isinstance(node, tuple):
            done.append(({node}, sizes[node]))
        elif not expanded:
            stack.extend(((node, True), (node[1], False), (node[0], False)))
        else:
            right, rsize = done.pop()
            left, lsize = done.pop()
            small, big = (left, right) if len(left) <= len(right) else (right, left)
            shared = 1
            for v in small:
                for w, s in adj[v].items():
                    if w in big:
                        shared *= s
            total += lsize * rsize // shared
            big |= small
            done.append((big, lsize * rsize // (shared * shared)))
    return total


def plan_cost(net: Net, plan) -> int:
    """Cost of a plan in index form: a list is linear, anything else a tree."""
    return linear_cost(net, plan) if isinstance(plan, list) else tree_cost(net, plan)


# --------------------------------------------- reading the program's output


def as_order(net: Net, order) -> list[int]:
    """Node indices of a returned linear order; it must list every node once."""
    index = {name: i for i, name in enumerate(net.ids())}
    try:
        out = [index[v] for v in order]
    except (KeyError, TypeError):
        raise Mismatch(f"order names an unknown node: {order!r:.200}") from None
    if sorted(out) != list(range(net.n)):
        raise Mismatch("order is not a permutation of the network's nodes")
    return out


def as_tree(net: Net, tree):
    """Index form of a returned nested-pair tree; every node once."""
    index = {name: i for i, name in enumerate(net.ids())}
    built: list = []
    stack: list = [(tree, False)]
    while stack:
        node, expanded = stack.pop()
        if isinstance(node, tuple) and len(node) == 2:
            if expanded:
                right = built.pop()
                built.append((built.pop(), right))
            else:
                stack.extend(((node, True), (node[1], False), (node[0], False)))
        elif isinstance(node, (int, str)) and node in index:
            built.append(index[node])
        else:
            raise Mismatch(f"tree holds neither a pair nor a node id: {node!r:.200}")
    leaves = tree_leaves(built[0])
    if sorted(leaves) != list(range(net.n)):
        raise Mismatch("tree leaves are not a permutation of the network's nodes")
    return built[0]


def prefix_connected(net: Net, order: list[int]) -> bool:
    """True iff every step joins a node to an edge-adjacent prefix."""
    adj = net.adjacency()
    inside = {order[0]}
    for v in order[1:]:
        if not any(w in inside for w in adj[v]):
            return False
        inside.add(v)
    return True


def canonical(structure) -> str:
    """Canonical text of an output structure: a linear order as its index
    list, a tree in postfix with ``*`` for each pair. Built from the parsed
    structure, so a new file encoding of the same plan digests the same."""
    if isinstance(structure, list):
        return "L" + ",".join(map(str, structure))
    tokens = []
    stack = [(structure, False)]
    while stack:
        node, expanded = stack.pop()
        if not isinstance(node, tuple):
            tokens.append(str(node))
        elif expanded:
            tokens.append("*")
        else:
            stack.extend(((node, True), (node[1], False), (node[0], False)))
    return "T" + ",".join(tokens)


def digest(op_id: str, structure, cost: int) -> str:
    text = f"{op_id}|{cost}|{canonical(structure) if structure is not None else '-'}"
    return hashlib.sha256(text.encode()).hexdigest()[:16]
