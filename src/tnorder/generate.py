"""Reproducible random tree tensor networks.

A uniformly random labeled tree is drawn by sampling a random sequence of
n-2 node labels and decoding it with the standard bijection between such
sequences and labeled trees (a heap of the current leaves). Edge sizes are
then drawn independently and uniformly from [dim_lo, dim_hi], in edge
order. Every draw comes from one ``random.Random(seed)``, so the network
(and its serialized form) is a pure function of the arguments.
"""

from __future__ import annotations

import heapq
import random

from .network import TensorNetwork, ValidationError

__all__ = ["generate_random_tree_network"]


def _decode_label_sequence(seq: list[int], n: int) -> list[tuple[int, int]]:
    """Decode a length n-2 label sequence into the edges of its tree.

    The current leaves are kept in a heap: each step attaches the
    smallest leaf to the next sequence label, which becomes a leaf once
    it has no later occurrence. The last two leaves are the smallest
    left and n - 1. O(n log n).
    """
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [v for v in range(n) if degree[v] == 1]  # sorted, so a heap
    edges = []
    for x in seq:
        edges.append((heapq.heappop(leaves), x))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    edges.append((leaves[0], n - 1))
    return edges


def generate_random_tree_network(
    n: int, seed: int, dim_lo: int = 2, dim_hi: int = 10
) -> TensorNetwork:
    """Random tree network with nodes T1..Tn, fully determined by ``seed``.

    All open multipliers are 1. Raises ``ValidationError`` for n < 2 or
    an empty/inverted dimension range.
    """
    if type(n) is not int or n < 2:
        raise ValidationError(f"node count must be an integer >= 2, got {n!r}")
    if type(dim_lo) is not int or type(dim_hi) is not int:
        raise ValidationError("dimension bounds must be integers")
    if not 1 <= dim_lo <= dim_hi:
        raise ValidationError(
            f"need 1 <= dim_lo <= dim_hi, got [{dim_lo}, {dim_hi}]"
        )
    rng = random.Random(seed)
    seq = [rng.randrange(n) for _ in range(n - 2)]
    pairs = _decode_label_sequence(seq, n)
    names = [f"T{i + 1}" for i in range(n)]
    edges = [
        (names[min(a, b)], names[max(a, b)], rng.randint(dim_lo, dim_hi))
        for a, b in pairs
    ]
    return TensorNetwork(names, edges)
