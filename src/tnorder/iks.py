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
Nothing is rounded: t(v) < 1 is common, and floats could misorder
near-ties.
A compound formed by a subtree root absorbing entries is kept over
Q = w^2 of that root, with P the exact size of its tensor (see
``_absorb``), so its integers do not grow with its member count.

Inside the solver an entry is a plain tuple, ``Entry``, that holds no
member list; only the winning order is expanded to its members, once.
Every rooting is priced by one walk, ``_rootings``, the only linearizer
here.
"""

from __future__ import annotations

import json
import time
from typing import Iterator, NamedTuple

from .network import NodeId, TensorNetwork, id_key
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


# the solver's entries (P, Q, Cn, lead_key, node, absorbed): node is the
# leading member, the subtree root that formed the entry, lead_key its id_key,
# computed once per node, and absorbed the (node, absorbed) pairs of the
# entries it fused, in order, empty for a single node; a fused entry's numbers
# are dropped, as on a long path they add up to integers as long as the path
Entry = tuple[int, int, int, tuple[int, int, str], NodeId, tuple]


def _merge_two(a: list[Entry], b: list[Entry]) -> list[Entry]:
    """Merge two chains in one pass, as ``merge_children`` orders them;
    may return ``a`` or ``b`` itself when the other is empty."""
    if not a or not b:
        return a or b
    out: list[Entry] = []
    i = j = 0
    na, nb = len(a), len(b)
    x, y = a[0], b[0]
    while True:
        Px, Qx, Cx, kx, _, _ = x
        Py, Qy, Cy, ky, _, _ = y
        lhs = (Px - Qx) * Cy
        rhs = (Py - Qy) * Cx
        if lhs < rhs or (lhs == rhs and kx < ky):
            out.append(x)
            i += 1
            if i == na:
                out += b[j:]
                return out
            x = a[i]
        else:
            out.append(y)
            j += 1
            if j == nb:
                out += a[i:]
                return out
            y = b[j]


def merge_children(linearized: list[list[Entry]]) -> list[Entry]:
    """Merge rank-sorted chains into one rank-sorted chain.

    Ties in rank break on the smallest leading node id (its key). Leading
    ids are distinct, so the result is the one ordering of all entries by
    (rank, leading id), whatever the order of the input chains. May
    return an input chain itself when it is the only non-empty one.
    """
    runs = [run for run in linearized if run]
    # merged in pairs, round by round: O(N log k) comparisons for k runs
    while len(runs) > 1:
        odd = runs[-1:] if len(runs) % 2 else []
        runs = [_merge_two(a, b) for a, b in zip(runs[::2], runs[1::2])] + odd
    return runs[0] if runs else []


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

    Returns a new list; ``merged`` is left as it was.
    """
    Q, Cn = w * w, F * w
    size, cost = F, 0
    fused = 0
    for Pe, Qe, Cne, _, _, _ in merged:
        # not rank_leq(entry, root entry)
        if (Pe - Qe) * (Cn + cost) > (size - Q) * Cne:
            break
        cost += size * Cne // Qe
        size = size * Pe // Qe
        fused += 1
    # only the (node, absorbed) part of a fused entry is ever read again
    absorbed = tuple([(e[4], e[5]) for e in merged[:fused]]) if fused else ()
    return [(size, Q, Cn + cost, key, v, absorbed), *merged[fused:]]


def _members(entries: list[Entry]) -> list[NodeId]:
    """The nodes ``entries`` stand for, in order: each entry's node, then
    the members of the entries it absorbed."""
    out = []
    stack = [(e[4], e[5]) for e in reversed(entries)]
    while stack:
        v, absorbed = stack.pop()
        out.append(v)
        stack += absorbed[::-1]
    return out


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
    for P, Q, Cn, _, _, _ in entries:
        cost += size * Cn // Q
        size = size * P // Q
        costs.append(cost)
    return costs


def _rootings(pg: PrecedenceGraph, deadline: float | None) -> Iterator[tuple]:
    """Every rooting of the tree behind ``pg``, priced in one walk, as a
    record ``(cost, root_key, head, entries, skip)``: the cheapest order
    from that root is ``head`` (the root, or a leaf root and its
    neighbour) followed by ``entries`` expanded without position ``skip``
    (unless None), and costs ``cost``. The first record is ``pg.root``'s.
    Root keys are unique, so records order by (cost, root id) alone.
    ``entries`` may be shared between records and is never changed. The
    chain of the subtree at v seen from its neighbour p depends only on
    the directed edge (v, p), so each is linearized at most once, 2(n - 1)
    in all, bottom-up and then top-down.
    ``deadline`` is as for ``iks_order``.
    """
    F, w, children, root = pg.F, pg.w, pg.children, pg.root
    keys = {v: id_key(v) for v in pg.preorder}
    # bottom-up: up[v] is the chain of the subtree at each non-root v, its
    # merged child chains below[v] (internal nodes only) with v absorbing
    # their head; a leaf's chain is its single entry
    up: dict[NodeId, list[Entry]] = {}
    below: dict[NodeId, list[Entry]] = {root: []}
    for v in reversed(pg.preorder):
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("deadline exceeded while building subtree chains")
        kids = children[v]
        Fv, wv = F[v], w[v]
        if not kids:
            up[v] = [(Fv, wv * wv, Fv * wv, keys[v], v, ())]
            continue
        # _absorb leaves its input as it is, so one child's chain is shared
        merged = up[kids[0]] if len(kids) == 1 else merge_children([up[u] for u in kids])
        below[v] = merged
        if v is not root:
            up[v] = _absorb(v, keys[v], Fv, wv, merged)

    # top-down: the chain from above of each node still to be rooted: the
    # rest of the tree seen from it, empty at the root; leaves never get one
    down: dict[NodeId, list[Entry]] = {root: []}
    for v in pg.preorder:
        above = down.pop(v, None)
        if above is None:
            continue  # a leaf: rooted at its parent's step below
        if deadline is not None and time.monotonic() > deadline:
            raise TimeoutError("deadline exceeded while trying rootings")
        kids = children[v]
        merged = _merge_two(below.pop(v), above)
        Fv, key = F[v], keys[v]
        costs = _prefix_costs(Fv, merged)
        total = costs[-1]
        yield total, key, (v,), merged, None

        at = None
        for u in kids:
            wu = w[u]
            if children[u]:
                if deadline is not None and time.monotonic() > deadline:
                    raise TimeoutError("deadline exceeded while trying rootings")
                # dropped once read, so a long path's chains are freed as
                # the walk goes down it
                chain_u = up.pop(u)
                if len(kids) == 1:
                    rest = above
                else:
                    skip = {e[3] for e in chain_u}
                    rest = [e for e in merged if e[3] not in skip]
                down[u] = _absorb(v, key, Fv, wu, rest)
                continue
            # Rooted at leaf u the order is u, v, then v's merged chain
            # without u's entry, which sits at position k. Against v's
            # rooting, contracting v costs F(u) * F(v) / w, the entries
            # before position k cost t(u) = F(u) / w^2 times as much (u is
            # already in the prefix) and those after it the same.
            if at is None:
                at = {e[4]: k for k, e in enumerate(merged)}
            k = at[u]
            Fu = F[u]
            cost = Fu * Fv // wu + Fu * costs[k] // (wu * wu)
            yield cost + total - costs[k + 1], keys[u], (u, v), merged, k


def _expand(rooting: tuple) -> tuple[tuple[NodeId, ...], int]:
    """The order a ``_rootings`` record stands for, with its cost."""
    cost, _, head, entries, skip = rooting
    if skip is not None:
        entries = entries[:skip] + entries[skip + 1 :]
    return (*head, *_members(entries)), cost


def linearize_root(pg: PrecedenceGraph) -> tuple[tuple[NodeId, ...], int]:
    """Cheapest linear order starting at ``pg.root`` and respecting it,
    with its exact cost: the walk's first record, expanded."""
    return _expand(next(_rootings(pg, None)))


def linearized_chain(pg: PrecedenceGraph) -> list[SequenceEntry]:
    """The chain behind ``linearize_root(pg)``: the walk's first record
    with the root absorbing its head over w = 1."""
    _, key, _, merged, _ = next(_rootings(pg, None))
    chain = _absorb(pg.root, key, pg.F[pg.root], 1, merged)
    return [SequenceEntry(tuple(_members([e])), *e[:3]) for e in chain]


def iks_order(
    net: TensorNetwork, *, deadline: float | None = None
) -> tuple[tuple[NodeId, ...], int]:
    """Globally optimal outer-product-free linear order for a tree network.

    Prices every rooting and returns the cheapest order with its
    exact cost; equal-cost roots resolve to the smallest root id. The
    optional ``deadline`` (a ``time.monotonic()`` instant) raises
    ``TimeoutError`` once passed; it is checked once per node while
    subtree chains are built, and once per internal node and per chain
    from above while rootings are priced.
    """
    pg = build_precedence_graph(net, net.nodes[0])
    return _expand(min(_rootings(pg, deadline)))


def _traced_order(net: TensorNetwork, stream) -> tuple[tuple[NodeId, ...], int]:
    """``iks_order(net)``, writing its pass to ``stream`` as JSON lines:
    one per rooting, then one per entry of the winning chain."""
    n = len(net.nodes)

    def written(rootings):
        for record in rootings:
            cost, _, head, entries, skip = record
            chain = len(entries) - (skip is not None)
            line = {"root": head[0], "cost": cost, "chain": chain,
                    "fused": n - len(head) - chain}
            print(json.dumps(line), file=stream)
            yield record

    best = min(written(_rootings(build_precedence_graph(net, net.nodes[0]), None)))
    for k, entry in enumerate(best[3]):
        if k != best[4]:  # a leaf rooting leaves its root's own entry out
            P, Q, Cn, _, lead, _ = entry
            members = len(_members([entry]))
            line = {"lead": lead, "members": members, "P": P, "Q": Q, "Cn": Cn}
            print(json.dumps(line), file=stream)
    return _expand(best)
