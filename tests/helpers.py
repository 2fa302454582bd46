"""Shared test utilities: an independent brute-force cost oracle.

The oracle models tensors as lists of labeled legs and contracts by
merging leg lists, so it shares no code path with src/. Every frozen
constant in the test suite was computed through it.

Network data passes around as ``(nodes, edges)`` where nodes maps id to
open_mult and edges is a list of ``(u, v, size)``.
"""

from __future__ import annotations

import itertools
import math
import random

from tnorder import TensorNetwork

# ---------------------------------------------------------------- fixtures


def five_tensor_data():
    """Five-tensor tree used as the golden example throughout."""
    nodes = {"T1": 1, "T2": 1, "T3": 1, "T4": 1, "T5": 1}
    edges = [("T1", "T2", 1), ("T5", "T2", 2), ("T2", "T4", 6), ("T4", "T3", 5)]
    return nodes, edges


def matrix_chain_data():
    """A(20x30) * B(30x10) * C(10x50) as a 3-node path network."""
    nodes = {"A": 20, "B": 1, "C": 50}
    edges = [("A", "B", 30), ("B", "C", 10)]
    return nodes, edges


def to_network(nodes, edges) -> TensorNetwork:
    return TensorNetwork(nodes, edges)


# ------------------------------------------------------------- leg oracle


def leg_lists(nodes, edges):
    """Each tensor as a list of (label, dim) legs; open legs get a label
    unique to their node so they never appear shared."""
    legs = {v: [] for v in nodes}
    for i, (u, v, size) in enumerate(edges):
        legs[u].append((i, size))
        legs[v].append((i, size))
    for v, open_mult in nodes.items():
        if open_mult != 1:
            legs[v].append((("open", v), open_mult))
    return legs


def _size(legs) -> int:
    return math.prod(dim for _label, dim in legs)


def contract_legs(lx, ly):
    """Cost and merged legs of contracting two tensors given as legs.

    Cost is the product of every participating dimension: all of lx, all
    of ly, with shared legs counted once. No shared leg means an outer
    product (the shared product is empty).
    """
    labels_y = {label for label, _dim in ly}
    shared = [label for label, _dim in lx if label in labels_y]
    shared_prod = math.prod(dim for label, dim in lx if label in shared)
    cost = _size(lx) * _size(ly) // shared_prod
    merged = [(l, d) for l, d in lx if l not in shared]
    merged += [(l, d) for l, d in ly if l not in shared]
    return cost, merged, bool(shared)


def naive_subset_size(nodes, edges, subset) -> int:
    """Size of the compound tensor over ``subset``: fold contractions in
    an arbitrary order and measure what remains."""
    legs = leg_lists(nodes, edges)
    subset = list(subset)
    acc = legs[subset[0]]
    for v in subset[1:]:
        _cost, acc, _joined = contract_legs(acc, legs[v])
    return _size(acc)


def naive_linear(nodes, edges, order):
    """Total cost of a linear order plus outer-product-freeness."""
    legs = leg_lists(nodes, edges)
    acc = legs[order[0]]
    total = 0
    op_free = True
    for v in order[1:]:
        cost, acc, joined = contract_legs(acc, legs[v])
        total += cost
        op_free = op_free and joined
    return total, op_free


def naive_tree(nodes, edges, tree):
    """Total cost of a contraction tree (nested pairs of node ids)."""
    legs = leg_lists(nodes, edges)

    def walk(node):
        if not isinstance(node, tuple):
            return 0, legs[node], True
        lcost, llegs, lok = walk(node[0])
        rcost, rlegs, rok = walk(node[1])
        cost, merged, joined = contract_legs(llegs, rlegs)
        return lcost + rcost + cost, merged, lok and rok and joined

    total, _legs, op_free = walk(tree)
    return total, op_free


# ----------------------------------------------------------- enumerations


def all_full_trees(leaves):
    """Every full binary tree over the leaf set, each unordered shape
    once (the first leaf is pinned to the left subtree)."""
    if len(leaves) == 1:
        yield leaves[0]
        return
    first, rest = leaves[0], list(leaves[1:])
    for k in range(len(rest)):
        for extra in itertools.combinations(rest, k):
            left_leaves = [first, *extra]
            right_leaves = [x for x in rest if x not in extra]
            for left in all_full_trees(left_leaves):
                for right in all_full_trees(right_leaves):
                    yield (left, right)


def min_linear_cost(nodes, edges, op_free_only=False):
    """Exhaustive minimum over permutations (optionally only connected-
    prefix ones); returns (cost, order)."""
    best = None
    for perm in itertools.permutations(nodes):
        cost, op_free = naive_linear(nodes, edges, perm)
        if op_free_only and not op_free:
            continue
        if best is None or cost < best[0]:
            best = (cost, perm)
    assert best is not None
    return best


def min_tree_cost(nodes, edges, connected_only=False):
    """Exhaustive minimum over full binary trees; returns (cost, tree)."""
    best = None
    for tree in all_full_trees(list(nodes)):
        cost, op_free = naive_tree(nodes, edges, tree)
        if connected_only and not op_free:
            continue
        if best is None or cost < best[0]:
            best = (cost, tree)
    assert best is not None
    return best


# -------------------------------------------------------------- builders


def random_tree_data(rng: random.Random, n: int, dim_lo=2, dim_hi=10,
                     open_hi=1):
    """Random attachment tree (a distribution of its own, independent of
    the package generator). open_hi > 1 draws open multipliers too."""
    nodes = {}
    edges = []
    for i in range(n):
        v = f"T{i + 1}"
        nodes[v] = rng.randint(1, open_hi) if open_hi > 1 else 1
        if i > 0:
            parent = f"T{rng.randrange(i) + 1}"
            edges.append((parent, v, rng.randint(dim_lo, dim_hi)))
    return nodes, edges


def random_connected_data(rng: random.Random, n: int, extra: int, open_hi=1):
    """A random tree plus ``extra`` chords between distinct unjoined pairs."""
    nodes, edges = random_tree_data(rng, n, dim_lo=2, dim_hi=6, open_hi=open_hi)
    present = {frozenset((u, v)) for u, v, _ in edges}
    ids = list(nodes)
    added = 0
    while added < extra:
        u, v = rng.sample(ids, 2)
        if frozenset((u, v)) in present:
            continue
        present.add(frozenset((u, v)))
        edges.append((u, v, rng.randint(2, 6)))
        added += 1
    return nodes, edges


def random_precedence_order(rng: random.Random, nodes, edges, root):
    """Uniformly-ish random order consistent with rooting the tree at
    ``root``: repeatedly emit a random node all of whose tree ancestors
    were emitted."""
    children = {v: [] for v in nodes}
    parent = {root: None}
    adj = {v: [] for v in nodes}
    for u, v, _s in edges:
        adj[u].append(v)
        adj[v].append(u)
    stack = [root]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in parent:
                parent[v] = u
                children[u].append(v)
                stack.append(v)
    order = []
    available = [root]
    while available:
        v = available.pop(rng.randrange(len(available)))
        order.append(v)
        available.extend(children[v])
    return order
