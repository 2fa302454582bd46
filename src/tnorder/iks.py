"""Optimal linear contraction orders for tree tensor networks.

This adapts IKKBZ, the classic polynomial-time join-ordering algorithm,
to tensor contraction. The cost of a linear order has the adjacent
sequence interchange (ASI) property: whether swapping two adjacent
subsequences lowers the total cost is decided by comparing a rank
computed per subsequence. Given a precedence graph (the tree rooted at a
candidate first tensor), the cost-minimal order respecting it is found by
sorting on rank, fusing any parent/child pair whose ranks contradict
their required order into a compound entry. Running this linearization
for every root and keeping the cheapest result yields the global optimum
over all outer-product-free linear orders, in O(n^2 log n) time.

Sequence bookkeeping: an entry over members v1..vk carries

    T = t(v1) * ... * t(vk)            (prefix-size multiplier)
    C with C(S1 S2) = C(S1) + T(S1) * C(S2), C(v) = c(v)   (relative cost)

and rank(S) = (T(S) - 1) / C(S), with t(v) = F(v) / w(v)^2 and
c(v) = F(v) / w(v). Entries hold these as unreduced integers
(P, Q, Cn) with T = P / Q and C = Cn / Q: a single node is
(F, w^2, F * w), fusing is (Pa * Pb, Qa * Qb, Cna * Qb + Pa * Cnb), and
rank(S) = (P - Q) / Cn. Since Cn > 0 always, ranks are compared by
cross-multiplication, which never flips an inequality and never divides.
A compound formed by a subtree root absorbing entries is kept over
Q = w^2 of that root, with P the exact size of its tensor (see
``_absorb``), so its integers do not grow with its member count.

Inside the solver an entry is a plain tuple ``(P, Q, Cn, lead_key,
members)``, where ``lead_key`` is ``id_key`` of its leading member,
computed once per node. Chains are sorted by (rank, lead_key): entries
being merged cover disjoint nodes, so their leading ids differ and a
rank tie always resolves the same way. The public ``SequenceEntry``
(members, P, Q, Cn) is what ``linearized_chain`` returns.

The chain of the subtree at v seen from its neighbour p depends only on
the directed edge (v, p), so ``iks_order`` linearizes each directed edge
at most once, 2(n - 1) in all, and every rooting reuses them. It shares
its rooting, upward pass and pricing (exact prefix costs) with the
per-root ``linearize_root``.
"""

from __future__ import annotations

import time
from functools import cmp_to_key
from itertools import chain
from typing import Iterator, NamedTuple

from .network import NodeId, TensorNetwork, ValidationError, id_key
from .precedence import PrecedenceGraph, build_precedence_graph

__all__ = [
    "SequenceEntry",
    "fuse",
    "iks_order",
    "linearize_root",
    "linearized_chain",
    "merge_children",
    "rank_leq",
    "single_entry",
]


class SequenceEntry(NamedTuple):
    """A (possibly compound) tensor sequence with its exact integer form.

    ``P / Q`` is the prefix-size multiplier T and ``Cn / Q`` the relative
    cost C of the sequence; the fractions are never reduced, and only
    ratios of them carry meaning.
    """

    members: tuple[NodeId, ...]
    P: int
    Q: int
    Cn: int

    def __repr__(self) -> str:
        names = ",".join(str(v) for v in self.members)
        return f"SequenceEntry(({names}), P={self.P}, Q={self.Q}, Cn={self.Cn})"


def single_entry(pg: PrecedenceGraph, v: NodeId) -> SequenceEntry:
    """The sequence consisting of node ``v`` alone."""
    F, w = pg.F[v], pg.w[v]
    return SequenceEntry((v,), F, w * w, F * w)


def fuse(a: SequenceEntry, b: SequenceEntry) -> SequenceEntry:
    """Concatenate two sequences; (P, Q, Cn) compose associatively."""
    return SequenceEntry(
        a.members + b.members, a.P * b.P, a.Q * b.Q, a.Cn * b.Q + a.P * b.Cn
    )


def rank_leq(U: SequenceEntry, V: SequenceEntry) -> bool:
    """True iff placing U before V is no worse than V before U.

    Computed as (P(U) - Q(U)) * Cn(V) <= (P(V) - Q(V)) * Cn(U); Cn is
    always positive, so cross-multiplying preserves the inequality.
    """
    return (U.P - U.Q) * V.Cn <= (V.P - V.Q) * U.Cn


# (P, Q, Cn, lead_key, members): the solver's own entries, see the module
# docstring
Entry = tuple[int, int, int, tuple[int, int, str], tuple[NodeId, ...]]


def _merge_cmp(a: Entry, b: Entry) -> int:
    Pa, Qa, Cna, ka, _ = a
    Pb, Qb, Cnb, kb, _ = b
    lhs = (Pa - Qa) * Cnb
    rhs = (Pb - Qb) * Cna
    if lhs != rhs:
        return -1 if lhs < rhs else 1
    # entries being merged cover disjoint nodes, so leading ids differ
    return -1 if ka < kb else 1


_merge_key = cmp_to_key(_merge_cmp)


def merge_children(linearized: list[list[Entry]]) -> list[Entry]:
    """Merge rank-sorted chains into one new rank-sorted chain.

    Ties in rank break on the smallest leading node id (its key). Leading
    ids are distinct, so the result is the one ordering of all entries by
    (rank, leading id), whatever the order of the input chains.
    """
    if len(linearized) == 1:
        return list(linearized[0])
    # sorted runs: timsort merges them in O(N log k) comparisons
    return sorted(chain.from_iterable(linearized), key=_merge_key)


def _absorb(
    v: NodeId, key: tuple[int, int, str], F: int, w: int, merged: list[Entry]
) -> list[Entry]:
    """Chain of a subtree: its root ``v`` (id key ``key``, size F, parent
    edge w) fused with the head of its merged child chain.

    The root must come first, so while the next entry's rank is <= the
    root entry's, the pair is contradictory and the entry is fused in.
    Fusing on ties keeps the chain strictly sorted under (rank, leading
    id), which is what makes the merge order reproducible.

    The root entry is kept as the exact size and cost of contracting v
    and the fused entries in order (see ``_prefix_costs``): its T is
    size / w^2 and its C is (F * w + cost) / w^2, so it is stored as
    (size, w^2, F * w + cost). That is ``fuse``'s result without the
    common factor it would carry, the product of the fused entries' Q,
    which grows with every fuse while size and cost stay as large as
    the tensors and costs themselves.

    ``merged`` must be a list no one else holds: its fused head is
    replaced by the root entry in place, and it is returned.
    """
    Q, Cn = w * w, F * w
    size, cost = F, 0
    fused = 0
    for Pe, Qe, Cne, _, _ in merged:
        # not rank_leq(entry, root entry)
        if (Pe - Qe) * (Cn + cost) > (size - Q) * Cne:
            break
        cost += size * Cne // Qe
        size = size * Pe // Qe
        fused += 1
    if fused:
        members = tuple(chain((v,), *[e[4] for e in merged[:fused]]))
    else:  # every leaf, among others
        members = (v,)
    merged[:fused] = [(size, Q, Cn + cost, key, members)]
    return merged


def _prefix_costs(size: int, entries: list[Entry]) -> list[int]:
    """Costs of contracting ``entries`` in order onto a prefix of ``size``.

    Item k is the total after the first k entries. The order is a suffix
    of a precedence-respecting order, so every prefix is a real tensor
    and every step a real contraction: each size and each step cost is an
    integer and both divisions are exact. Numbers stay the size of the
    costs themselves, where an unreduced (P, Q, Cn) fold grows with the
    length of the sequence.
    """
    costs = [0]
    cost = 0
    for P, Q, Cn, _, _ in entries:
        cost += size * Cn // Q
        size = size * P // Q
        costs.append(cost)
    return costs


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError("deadline exceeded while trying rootings")


def _upward_chains(
    pg: PrecedenceGraph, deadline: float | None
) -> dict[tuple[NodeId, NodeId], list[Entry]]:
    """Chain of the subtree at each non-root v, at key (v, parent of v).

    Built bottom-up: child chains are merged by rank, then the subtree
    root is fused with the chain head while its rank is >= the head's.
    """
    F, w, parent, children = pg.F, pg.w, pg.parent, pg.children
    chains: dict[tuple[NodeId, NodeId], list[Entry]] = {}
    for v in reversed(pg.preorder[1:]):
        _check_deadline(deadline)
        kids = children[v]
        merged = merge_children([chains[u, v] for u in kids]) if kids else []
        chains[v, parent[v]] = _absorb(v, id_key(v), F[v], w[v], merged)
    return chains


def linearized_chain(pg: PrecedenceGraph) -> list[SequenceEntry]:
    """Bottom-up linearization of a precedence graph, before expansion.

    Every subtree is reduced to a rank-sorted chain (see
    ``_upward_chains``), and the root is absorbed last over w = 1.
    """
    root, chains = pg.root, _upward_chains(pg, None)
    merged = merge_children([chains[u, root] for u in pg.children[root]])
    return [
        SequenceEntry(members, P, Q, Cn)
        for P, Q, Cn, _, members in _absorb(root, id_key(root), pg.F[root], 1, merged)
    ]


def linearize_root(pg: PrecedenceGraph) -> tuple[tuple[NodeId, ...], int]:
    """Cheapest linear order starting at ``pg.root`` and respecting it.

    Returns the expanded order and its exact cost. The order is
    outer-product-free (every prefix is connected by construction) and
    cost-minimal among all orders compatible with this rooting.
    """
    return _order_and_cost(pg, linearized_chain(pg))


def _order_and_cost(
    pg: PrecedenceGraph, chain: list[SequenceEntry]
) -> tuple[tuple[NodeId, ...], int]:
    """The order ``linearized_chain(pg)`` stands for, with its exact cost."""
    head, *rest = chain
    # the root entry is (its size, Q = 1, F(root) + its cost), see _absorb;
    # the rest is priced onto it as in _prefix_costs
    size, cost = head.P, head.Cn - pg.F[pg.root]
    for _, P, Q, Cn in rest:
        cost += size * Cn // Q
        size = size * P // Q
    return (*head.members, *(v for e in rest for v in e.members)), cost


# (root, cost, head, entries, skip), see _rootings
Rooting = tuple[NodeId, int, tuple[NodeId, ...], list[Entry], int | None]


def _rootings(net: TensorNetwork, deadline: float | None) -> Iterator[Rooting]:
    """Cost of every rooting of a tree network, sharing subtree chains.

    ``edge[v, p]`` holds the chain of the subtree at v seen from its
    neighbour p. A first pass, ``_upward_chains`` from the first node,
    fills the edges pointing at it. A second pass, top-down, has every
    edge into v on hand when it reaches v, merges them all once and
    derives each edge out of v by dropping one neighbour's entries from
    that merge. Both passes are iterative.

    Fusing never reorders members, so the order rooted at v is v followed
    by v's merged chain expanded, and its cost is a sum over that chain's
    entries. A leaf's only use of the edge into it is its own rooting, so
    that edge is never linearized: the leaf's cost follows from the costs
    of its parent's rooting around the leaf's entry.

    Yields (root, cost, head, entries, skip): the order is ``head``
    followed by the members of ``entries``, leaving out the entry at
    position ``skip`` unless it is ``None``.
    """
    pg = build_precedence_graph(net, net.nodes[0])
    F, w, children, adjacency = pg.F, pg.w, pg.children, net.adjacency
    edge = _upward_chains(pg, deadline)
    for v in pg.preorder:
        kids = children[v]
        if not kids and v != pg.root:
            continue  # a leaf: rooted at its parent's step below
        _check_deadline(deadline)
        incoming = {u: edge.pop((u, v)) for u in adjacency[v]}
        merged = merge_children(list(incoming.values()))
        Fv = F[v]
        costs = _prefix_costs(Fv, merged)
        yield v, costs[-1], (v,), merged, None

        key, at = id_key(v), None
        for u in kids:
            _check_deadline(deadline)
            wu = w[u]
            if children[u]:
                skip = {e[3] for e in incoming[u]}
                rest = [e for e in merged if e[3] not in skip]
                edge[v, u] = _absorb(v, key, Fv, wu, rest)
                continue
            # Rooted at leaf u the order is u, v, then v's merged chain
            # without u's entry, which sits at position k. Against v's
            # rooting, contracting v costs F(u) * F(v) / w, the entries
            # before position k cost t(u) = F(u) / w^2 times as much (u is
            # already in the prefix) and those after it the same.
            if at is None:
                at = {e[4][0]: k for k, e in enumerate(merged)}
            k = at[u]
            Fu = F[u]
            cost = Fu * Fv // wu + Fu * costs[k] // (wu * wu)
            cost += costs[-1] - costs[k + 1]
            yield u, cost, (u, v), merged, k


def iks_order(
    net: TensorNetwork, *, deadline: float | None = None
) -> tuple[tuple[NodeId, ...], int]:
    """Globally optimal outer-product-free linear order for a tree network.

    Prices every rooting and returns the cheapest order with its
    exact cost; equal-cost roots resolve to the smallest root id. The
    optional ``deadline`` (a ``time.monotonic()`` instant) raises
    ``TimeoutError`` once passed; it is checked once per node while
    subtree chains are built and once per rooting.
    """
    if not net.is_tree:
        raise ValidationError(
            "optimal linear ordering requires a tree network; "
            "use order_arbitrary for general networks"
        )
    best = None
    for rooting in _rootings(net, deadline):
        # the root's id key is needed only on a tie in cost
        if (
            best is None
            or rooting[1] < best[1]
            or (rooting[1] == best[1] and id_key(rooting[0]) < id_key(best[0]))
        ):
            best = rooting
    assert best is not None
    _, cost, head, entries, skip = best
    if skip is not None:
        entries = entries[:skip] + entries[skip + 1 :]
    return (*head, *(v for e in entries for v in e[4])), cost
