"""Shared test utilities: an independent brute-force cost oracle, an
O(n^2) optimum for path networks, and seeded network builders.

The oracle models tensors as lists of labeled legs and contracts by
merging leg lists, so it shares no code path with src/. Every frozen
constant in the test suite was computed through it. The path optimum
(``path_linear_optimum``) is an interval DP that shares no code with
src/ either. The per-root reference (``linearize_reference``) rebuilds
the rank rule from the public calculus alone, without the solver's
rooting walk.

Network data passes around as ``(nodes, edges)`` where nodes maps id to
open_mult and edges is a list of ``(u, v, size)``.
"""

from __future__ import annotations

import itertools
import math
import random
from functools import cmp_to_key, reduce

from tnorder import TensorNetwork, fuse, rank_leq, single_entry
from tnorder.network import id_key

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


def ladder_data(layers: int):
    """Layers {L2l, L2l+1}: each pair joined, and each node joined to both
    nodes of the next layer; every edge has size 2. A loopy network whose
    connected subsets far outnumber those of any of its spanning trees."""
    ids = [f"L{i}" for i in range(2 * layers)]
    edges = []
    for a in range(0, 2 * layers, 2):
        edges.append((ids[a], ids[a + 1], 2))
        if a + 2 < 2 * layers:
            edges += [(ids[x], ids[y], 2) for x in (a, a + 1) for y in (a + 2, a + 3)]
    return dict.fromkeys(ids, 1), edges


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


# ------------------------------------------------------ per-root reference


def _rank_cmp(a, b) -> int:
    """Order of two sequence entries by (rank, leading id)."""
    if rank_leq(a, b) and rank_leq(b, a):
        ka, kb = id_key(a.members[0]), id_key(b.members[0])
        return (ka > kb) - (ka < kb)
    return -1 if rank_leq(a, b) else 1


def linearize_reference(pg):
    """Cheapest order from ``pg.root`` respecting it, with its exact cost.

    At each node, bottom-up, the entries of its children's chains are
    sorted by (rank, leading id), and the node's single entry fuses each
    next entry whose rank is no greater than its own. The root's chain,
    fused whole, has C = F(root) + cost, since w(root) = 1.
    """
    chains = {}
    for v in reversed(pg.preorder):
        merged = sorted((e for u in pg.children[v] for e in chains.pop(u)),
                        key=cmp_to_key(_rank_cmp))
        head = single_entry(pg, v)
        while merged and rank_leq(merged[0], head):
            head = fuse(head, merged.pop(0))
        chains[v] = [head, *merged]
    whole = reduce(fuse, chains[pg.root])
    cost, rem = divmod(whole.Cn, whole.Q)
    assert rem == 0
    return whole.members, cost - pg.F[pg.root]


# ------------------------------------------------------------ path oracle


def path_linear_optimum(nodes, edges) -> int:
    """Cheapest outer-product-free linear cost of a path network.

    On a path every connected prefix is an interval [i, j] of the path,
    and an outer-product-free order grows it by one node at its left or
    right end. So ``best[i][j]``, the cheapest way to contract the
    interval, is the smaller of extending [i + 1, j] by i and [i, j - 1]
    by j: O(n^2) states. Joining node i to [i + 1, j] costs
    size([i + 1, j]) * size(i) / e(i, i + 1), which is the open product
    of i + 1..j times the outer bond of [i + 1, j] times size(i).
    Rows run from the right end leftwards, so only one row is kept.
    """
    adj = {v: {} for v in nodes}
    for u, v, size in edges:
        adj[u][v] = size
        adj[v][u] = size
    assert len(edges) == len(nodes) - 1 and all(len(a) <= 2 for a in adj.values())
    # walk the path from one end; `bond[i]` joins path[i] and path[i + 1]
    path = [next(v for v in nodes if len(adj[v]) <= 1)]
    bond = []
    while len(path) < len(nodes):
        prev = path[-2] if len(path) > 1 else None
        nxt = next(v for v in adj[path[-1]] if v != prev)
        bond.append(adj[path[-1]][nxt])
        path.append(nxt)
    n = len(path)
    open_ = [nodes[v] for v in path]
    left = [1] + bond  # bond to the left of position i, 1 at the end
    right = bond + [1]
    size = [open_[i] * left[i] * right[i] for i in range(n)]

    # row i + 1: best[j] and opens[j] = open product over i + 1..j
    best: list[int] = []
    opens: list[int] = []
    for i in range(n - 1, -1, -1):
        row_best = [0]
        row_opens = [open_[i]]
        for j in range(i + 1, n):
            k = j - i - 1  # index of j in row i + 1, which starts at i + 1
            # i joins [i + 1, j]; j joins [i, j - 1]
            via_left = best[k] + opens[k] * right[j] * size[i]
            via_right = row_best[-1] + row_opens[-1] * left[i] * size[j]
            row_best.append(min(via_left, via_right))
            row_opens.append(row_opens[-1] * open_[j])
        best, opens = row_best, row_opens
    return best[-1]


# ------------------------------------------------------ shaped tree data
# Each builder draws every value from ``rng`` and returns (nodes, edges).
# Integer ids (paths, TTNs) and string ids (the rest) both occur, so the
# id tie-break is exercised on both kinds.


def mps_path_data(rng: random.Random, n: int, bond_lo=2, bond_hi=10,
                  open_lo=2, open_hi=4):
    """A path 0 - 1 - ... - n-1 with a physical (open) leg on every node,
    like a matrix product state."""
    nodes = {i: rng.randint(open_lo, open_hi) for i in range(n)}
    edges = [(i, i + 1, rng.randint(bond_lo, bond_hi)) for i in range(n - 1)]
    return nodes, edges


def binary_ttn_data(rng: random.Random, n: int, bond_lo=2, bond_hi=10,
                    phys_lo=2, phys_hi=4):
    """A balanced binary tree tensor network: node i hangs below
    (i - 1) // 2, and each leaf carries a physical leg."""
    nodes = {i: 1 for i in range(n)}
    for i in range(n):
        if 2 * i + 1 >= n:
            nodes[i] = rng.randint(phys_lo, phys_hi)
    edges = [((i - 1) // 2, i, rng.randint(bond_lo, bond_hi)) for i in range(1, n)]
    return nodes, edges


def shaped_tree(rng, shape, n, dim_lo=1, dim_hi=9, open_hi=3):
    """Tree data of a given shape; dim_lo=1 allows size-1 edges and
    open_hi > 1 open legs. A spider is a hub with legs of two nodes.
    Edges come shuffled, so adjacency order is arbitrary."""
    nodes = {f"T{i + 1}": rng.randint(1, open_hi) for i in range(n)}
    spine = max(1, n // 2)
    edges = []
    for i in range(1, n):
        if shape == "path":
            p = i - 1
        elif shape == "star":
            p = 0
        elif shape == "caterpillar":
            p = i - 1 if i < spine else rng.randrange(spine)
        elif shape == "spider":
            p = 0 if i % 2 else i - 1
        else:
            p = rng.randrange(i)
        edges.append((f"T{p + 1}", f"T{i + 1}", rng.randint(dim_lo, dim_hi)))
    rng.shuffle(edges)
    return nodes, edges


def prufer_tree(seq, n):
    """The labelled tree on 0..n-1 with Prufer sequence ``seq``."""
    degree = [1] * n
    for v in seq:
        degree[v] += 1
    edges = []
    for v in seq:
        leaf = degree.index(1)
        edges.append((leaf, v))
        degree[leaf] -= 1
        degree[v] -= 1
    edges.append(tuple(i for i in range(n) if degree[i] == 1))
    return edges


def small_trees():
    """Tree data: every shape up to 7 nodes, then 60 random and shaped
    trees of 8 to 40 nodes.

    The sorted Prufer sequences give every tree shape up to 7 nodes (all
    11 at n = 7), some in several labellings; dims 1-3 and open legs make
    equal ranks and equal rooting costs common.
    """
    rng = random.Random(16)
    for n in range(2, 8):
        for seq in itertools.combinations_with_replacement(range(n), n - 2):
            nodes = {f"T{i}": rng.randint(1, 3) for i in range(n)}
            edges = [(f"T{a}", f"T{b}", rng.randint(1, 3))
                     for a, b in prufer_tree(seq, n)]
            yield nodes, edges
    for k in range(60):
        n = rng.randint(8, 40)
        if k % 2:
            yield random_tree_data(rng, n, dim_lo=1, dim_hi=6, open_hi=3)
        else:
            shape = ("star", "path", "caterpillar", "random")[k // 2 % 4]
            yield shaped_tree(rng, shape, n, dim_lo=1, dim_hi=4)
