"""Seeded instance generators for the benchmark, independent of tnorder.

Every network and plan the benchmark feeds to the program is built here,
never with ``tnorder.generate``, so no change to the program can alter its
own inputs. Each instance draws from its own ``random.Random`` keyed by a
string naming the workload, the seed, the family and the size,
so adding an instance never shifts another one's draws.

Networks are ``Net`` records over node indices 0..n-1 with ids
``T1..Tn``; edge lists are shuffled and labels permuted so that the
file order carries no structure.
"""

from __future__ import annotations

import heapq
import json
import random
from dataclasses import dataclass

# A tree plan is a node index (leaf) or a 2-tuple of tree plans.


@dataclass(frozen=True)
class Net:
    open: tuple[int, ...]
    edges: tuple[tuple[int, int, int], ...]

    @property
    def n(self) -> int:
        return len(self.open)

    def ids(self) -> list[str]:
        return [f"T{i + 1}" for i in range(self.n)]

    def adjacency(self) -> list[dict[int, int]]:
        adj: list[dict[int, int]] = [{} for _ in range(self.n)]
        for u, v, size in self.edges:
            adj[u][v] = size
            adj[v][u] = size
        return adj

    def is_tree(self) -> bool:
        return len(self.edges) == self.n - 1


def rng_for(*key) -> random.Random:
    return random.Random("perfbench/" + "/".join(str(k) for k in key))


# ------------------------------------------------------------ tree shapes
# Each returns the edges of a tree over 0..n-1 as (u, v) pairs.


def uniform_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """Uniformly random labeled tree: decode a random Pruefer sequence."""
    seq = [rng.randrange(n) for _ in range(n - 2)]
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    pairs = []
    for x in seq:
        pairs.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    pairs.append((heapq.heappop(leaves), heapq.heappop(leaves)))
    return pairs


def path_tree(n: int) -> list[tuple[int, int]]:
    return [(i, i + 1) for i in range(n - 1)]


def star_tree(n: int) -> list[tuple[int, int]]:
    return [(0, i) for i in range(1, n)]


def caterpillar_tree(rng: random.Random, n: int) -> list[tuple[int, int]]:
    """A spine of n // 2 nodes, every other node hung on a random spine node."""
    spine = n // 2
    return path_tree(spine) + [(rng.randrange(spine), i) for i in range(spine, n)]


def binary_tree(n: int) -> list[tuple[int, int]]:
    """Complete binary tree in heap order: node i hangs under (i - 1) // 2."""
    return [((i - 1) // 2, i) for i in range(1, n)]


def extra_edges(
    rng: random.Random, n: int, pairs: list[tuple[int, int]], count: int
) -> list[tuple[int, int]]:
    """``count`` random edges not already present, turning a tree loopy."""
    have = {frozenset(p) for p in pairs}
    out = []
    while len(out) < count:
        u, v = rng.sample(range(n), 2)
        if frozenset((u, v)) not in have:
            have.add(frozenset((u, v)))
            out.append((u, v))
    return out


def make_net(
    rng: random.Random,
    n: int,
    pairs: list[tuple[int, int]],
    dims: tuple[int, int],
    opens: list[int] | None = None,
) -> Net:
    """Draw edge sizes, then permute labels and shuffle the edge order."""
    sized = [(u, v, rng.randint(*dims)) for u, v in pairs]
    open_mult = opens if opens is not None else [1] * n
    perm = list(range(n))
    rng.shuffle(perm)
    rng.shuffle(sized)
    relabeled_open = [0] * n
    for i in range(n):
        relabeled_open[perm[i]] = open_mult[i]
    edges = tuple(
        (perm[u], perm[v], s) if rng.random() < 0.5 else (perm[v], perm[u], s)
        for u, v, s in sized
    )
    return Net(tuple(relabeled_open), edges)


# ---------------------------------------------------------------- families
# name -> make(rng, n) -> Net. Why each family is in the iks workload:
#   random    uniform random trees, the typical case
#   mps       paths with open physical legs (matrix product states): long
#             chains grow the largest exact integers per node
#   caterpillar  a spine with leaves, between path and star
#   ttn       balanced binary tree tensor networks with physical legs on
#             the leaves
#   bigdim    uniform trees with edge sizes up to 10**30: big-integer cost
#   star      one hub: the hub root gives n - 1 children to merge, the
#             slowest shape per node at the seed
# The iks workload deals its size ladder to the families in this order,
# so stars get the largest size.


def _mps(rng: random.Random, n: int) -> Net:
    opens = [rng.randint(2, 4) for _ in range(n)]
    return make_net(rng, n, path_tree(n), (2, 16), opens)


def _ttn(rng: random.Random, n: int) -> Net:
    opens = [1 if 2 * i + 1 < n else rng.randint(2, 4) for i in range(n)]
    return make_net(rng, n, binary_tree(n), (2, 16), opens)


TREE_FAMILIES = {
    "random": lambda rng, n: make_net(rng, n, uniform_tree(rng, n), (2, 10)),
    "mps": _mps,
    "caterpillar": lambda rng, n: make_net(rng, n, caterpillar_tree(rng, n), (2, 10)),
    "ttn": _ttn,
    "bigdim": lambda rng, n: make_net(rng, n, uniform_tree(rng, n), (2, 10**30)),
    "star": lambda rng, n: make_net(rng, n, star_tree(n), (2, 10)),
}


def loopy_net(rng: random.Random, n: int, extra: int) -> Net:
    """A uniform random tree plus ``extra`` random edges."""
    pairs = uniform_tree(rng, n)
    return make_net(rng, n, pairs + extra_edges(rng, n, pairs, extra), (2, 10))


# ------------------------------------------------------------------ plans


def connected_order(rng: random.Random, net: Net) -> list[int]:
    """A random order in which every prefix is connected (no outer
    product), grown like a randomized Prim's walk from a random start."""
    adj = net.adjacency()
    start = rng.randrange(net.n)
    order = [start]
    seen = {start}
    frontier = list(adj[start])
    seen.update(frontier)
    while frontier:
        k = rng.randrange(len(frontier))
        frontier[k], frontier[-1] = frontier[-1], frontier[k]
        v = frontier.pop()
        order.append(v)
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return order


def balanced_tree(order: list[int]):
    """Balanced contraction tree over ``order``, leaves left to right."""
    level: list = list(order)
    while len(level) > 1:
        nxt = [(level[i], level[i + 1]) for i in range(0, len(level) - 1, 2)]
        if len(level) % 2:
            nxt.append(level[-1])
        level = nxt
    return level[0]


def left_deep(order: list[int]):
    node = order[0]
    for v in order[1:]:
        node = (node, v)
    return node


def chunked_tree(order: list[int], chunk: int):
    """Left-deep chains of ``chunk`` leaves joined by a balanced tree."""
    return balanced_tree(
        [left_deep(order[i : i + chunk]) for i in range(0, len(order), chunk)]
    )


def tree_leaves(tree) -> list[int]:
    out = []
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            stack.append(node[1])
            stack.append(node[0])
        else:
            out.append(node)
    return out


# ------------------------------------------------------------ file texts


def network_text(net: Net) -> str:
    ids = net.ids()
    return json.dumps(
        {
            "nodes": [{"id": ids[i], "open": net.open[i]} for i in range(net.n)],
            "edges": [{"u": ids[u], "v": ids[v], "size": s} for u, v, s in net.edges],
        }
    )


def linear_plan_text(net: Net, order: list[int]) -> str:
    ids = net.ids()
    return json.dumps({"type": "linear", "order": [ids[v] for v in order]})


def tree_plan_text(net: Net, tree) -> str:
    """Nested-pair plan text, written without recursion so any depth works."""
    ids = net.ids()
    parts = ['{"type": "tree", "root": ']
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            parts.append("[")
            stack.extend(("]", node[1], ", ", node[0]))
        elif isinstance(node, str):
            parts.append(node)
        else:
            parts.append(json.dumps(ids[node]))
    parts.append("}")
    return "".join(parts)
