"""Exact baselines: exponential DPs plus the cubic interval DP.

``dp_linear_optimal`` and ``dp_general_optimal`` are ground-truth solvers
over bitmask subsets, exponential in the node count. ``linearized_dp``
upgrades a fixed linear order to the best contraction tree that keeps
the same left-to-right leaf order, in O(n^3), the matrix-chain
recurrence generalized to arbitrary networks. All three have hard size
bounds, past which they raise ``SizeBoundError``. No size needs a case of
its own: on one node each recurrence returns that node at cost 0.

Bit positions follow the network's node order, so reconstructed plans are
reproducible for equal input files. All three take an optional
``deadline`` (a ``time.monotonic()`` instant), raising ``TimeoutError`` so
a partial table is discarded cleanly. The subset DPs check it once per
subset whose splits they scan, ``linearized_dp`` once per interval length.

Each first takes an upper bound UB, the exact cost of a real plan: for
``dp_linear_optimal`` the ``mst-iks`` order, for ``linearized_dp`` its
base order contracted left to right, for ``dp_general_optimal``
``linearized_dp`` on the ``mst-iks`` order. ``dp_linear_optimal`` keeps
a subset only if some plan through it can cost at most UB; the other two
hold every value past UB at UB + 1 and scan only the splits whose halves
are valued at most UB. Their docstrings give the rules and the proofs
that plans, tie-breaks and costs stay those of the unpruned recurrences.

The split loops of both DPs price a split of S into halves A and B only
when it can beat the best split found so far. Each test is exact and
skips only splits that cannot strictly win. First the half-sum: with
shared >= 1 the product of the legs A and B share, a split costs |A| |B|
/ shared = |S| shared >= |S|, so with part = best(A) + best(B) it is
skipped when part >= best so far - |S|, before any size is read; that
threshold moves only when a split wins. Last the square: since |S| =
|A| |B| / shared^2, cost(A, B)^2 = |A| |B| |S|, and with gap = best so
far - part the split cannot win when |A| |B| |S| >= gap^2. The bound
cost(A, B) >= max(|A|, |B|) (shared divides both sizes) needs no test of
its own: when gap > 0 it only skips splits with cost >= gap, which the
square test skips too. Only a split that strictly wins takes an isqrt
for its cost.

``linearized_dp`` runs three tests, a bit-length test between those two:
a positive integer of b bits lies in [2^(b-1), 2^b), so with a, b, c and
g the bit lengths of |A|, |B|, |S| and gap, |A| |B| |S| >= 2^(a+b+c-3)
and gap^2 < 2^(2g), and the split is skipped when a + b + c - 3 >= 2g,
from small integers held in tables, with no product formed. It implies
the square test, so the splits priced are those the square test alone
would price. It pays there, as many splits pass the half-sum and sizes
are long. ``dp_general_optimal`` runs two: its live halves leave too few
splits past the half-sum for a table of 2^n bit lengths to pay.
"""

from __future__ import annotations

import math
import time
from array import array
from bisect import bisect_left
from itertools import filterfalse
from typing import Sequence

from .heuristics import order_arbitrary
from .network import NodeId, SizeBoundError, TensorNetwork
from .plans import LinearPlan, TreeNode, validate_plan

__all__ = [
    "SizeBoundError",
    "dp_general_optimal",
    "dp_linear_optimal",
    "linearized_dp",
]

DP_LINEAR_MAX_NODES = 30
# connected subsets, of the unpruned space (a star has the most of any tree)
# and kept (the bound prunes few on loopy networks such as ladders)
DP_LINEAR_MAX_SUBSETS = 2**20
# 3^n partitions, less those of subsets no plan within the bound passes
# through and those with a half that is not live: the looser the bound, the
# more are left
DP_GENERAL_MAX_NODES = 16
# O(n^3) splits over big integers, on the iks order; MPS paths of large bonds,
# whose interval sizes grow with n, take the longest
LIN_DP_MAX_NODES = 256


def _check_bound(net: TensorNetwork, algorithm: str) -> None:
    """Raise ``SizeBoundError`` if ``algorithm`` (``dp-linear``,
    ``dp-general`` or ``lin-dp``) refuses ``net``, before any DP work."""
    n = len(net.nodes)
    name, bound = {
        "dp-linear": ("linear", DP_LINEAR_MAX_NODES),
        "dp-general": ("general", DP_GENERAL_MAX_NODES),
        "lin-dp": ("interval", LIN_DP_MAX_NODES),
    }[algorithm]
    if n > bound:
        raise SizeBoundError(
            f"network has {n} nodes; the {name} DP is bounded at {bound}"
        )
    if algorithm == "dp-linear":
        subsets = _tree_subset_count(net)
        if subsets > DP_LINEAR_MAX_SUBSETS:
            raise SizeBoundError(
                f"network has at least {subsets} connected subsets; the "
                f"linear DP is bounded at {DP_LINEAR_MAX_SUBSETS}"
            )


def _indexed(
    net: TensorNetwork, seq: Sequence[NodeId]
) -> tuple[list[int], list[list[tuple[int, int]]]]:
    """Tensor sizes and neighbour lists of ``seq``'s nodes by position in
    ``seq``: ``adj[i]`` holds (position, edge size) per neighbour of seq[i],
    in edge file order."""
    pos = {v: i for i, v in enumerate(seq)}
    tsize = [net.sizes[v] for v in seq]
    adj = [[(pos[u], s) for u, s in net.adjacency[v].items()] for v in seq]
    return tsize, adj


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError("deadline exceeded")


def dp_linear_optimal(
    net: TensorNetwork, *, deadline: float | None = None
) -> tuple[tuple[NodeId, ...], int]:
    """Globally optimal outer-product-free linear order, by subset DP.

    States are the connected node subsets; a subset extends by any
    adjacent outside node, so outer products never enter the search
    space. Works on any connected network (not just trees) up to
    ``DP_LINEAR_MAX_NODES`` nodes and ``DP_LINEAR_MAX_SUBSETS`` connected
    subsets, counted on a spanning tree before any work (exact on trees)
    and, as a loopy network has more, among those kept once per scanned
    mask. Two layers of subsets are live at a time. Masks are scanned in
    ascending order and a candidate replaces a stored one only at a
    strictly smaller cost, so of a subset's equal-cost predecessors the
    lowest mask wins.

    Before the layers, UB is the exact cost of the ``mst-iks`` order
    (``heuristics.order_arbitrary``, given this call's ``deadline``). That
    order is a real plan and free of outer products, since each of its
    prefixes is connected on a spanning tree, so UB is at least the
    optimum whether or not the order is optimal. Let rem(S) = max(|S|,
    |full|) for a subset S other than the full network, whose compound
    size is |full|. Any plan through S costs at least best(S) + rem(S):
    the step that extends S costs |S| |j| / shared >= |S|, since the
    shared legs are legs of the new node j, and the last step's result is
    the full network, which costs at least |full|. So a candidate whose
    cand + rem(new mask) > UB is dropped before it is stored. A subset X
    is then kept, with its unpruned best and last node, exactly when
    best(X) + rem(X) <= UB: by induction over the layers, an equal-cost
    predecessor P of X has best(P) + rem(P) <= best(P) + step + rem(X) =
    best(X) + rem(X), so it is kept too, and every candidate for an X
    past the bound is at least best(X) and is dropped. The candidates
    of a kept X that tie its best all survive, so the lowest-mask rule
    picks the same one, and the full network, on the optimal plan, is
    always reached. Plans and costs are those of the unpruned DP.
    """
    _check_bound(net, "dp-linear")
    n = len(net.nodes)
    nodes = net.nodes
    # the bound: the mst-iks order, a real outer-product-free plan's cost
    ub = order_arbitrary(net, deadline=deadline)[1]
    tsize, adj = _indexed(net, nodes)
    # per node: its neighbours as one bitmask, and (bit, edge size) each
    legs = [[(1 << k, s) for k, s in a] for a in adj]
    reach_of = [sum(bit for bit, _ in leg) for leg in legs]
    # a state is cost << cs | size << ss | reach << 5 | last; a compound size
    # is at most the product of the tensor sizes, so under 2^(cs - ss)
    ss = 5 + n
    cs = ss + sum(t.bit_length() for t in tsize)
    size_mask, reach_mask = (1 << cs - ss) - 1, (1 << n) - 1
    full = reach_mask
    # a candidate past lim is dropped whatever its size: rem >= |full|
    lim = ub - math.prod(net.open_mult.values())

    masks = array("I", [1 << i for i in range(n)])
    states = [tsize[i] << ss | reach_of[i] << 5 | i for i in range(n)]
    back: list[tuple[array, bytes]] = []  # layers 2..n: masks, last nodes
    bound, seen = DP_LINEAR_MAX_SUBSETS, n  # seen: subsets of finished layers
    for _ in range(n - 1):
        grown: dict[int, int] = {}
        for at, mask in enumerate(masks):
            _check_deadline(deadline)
            if seen + len(grown) > bound:  # never on trees, after _check_bound
                raise SizeBoundError(f"network has more than {bound} connected "
                                     f"subsets; the linear DP is bounded at {bound}")
            state = states[at]
            states[at] = None
            cost = state >> cs
            size = state >> ss & size_mask
            reach = state >> 5 & reach_mask
            ext = reach & ~mask
            while ext:
                bit = ext & -ext
                ext ^= bit
                j = bit.bit_length() - 1
                shared = 1
                for b, s in legs[j]:
                    if mask & b:
                        shared *= s
                step = size * tsize[j] // shared
                cand = cost + step
                new_mask = mask | bit
                old = grown.get(new_mask)
                if old is None or cand < old >> cs:
                    new_size = step // shared
                    if (cand > lim or cand + new_size > ub) and new_mask != full:
                        continue  # any plan through new_mask costs past the bound
                    grown[new_mask] = (cand << cs | new_size << ss
                                       | (reach | reach_of[j]) << 5 | j)
        seen += len(grown)
        masks = array("I", sorted(grown))
        states = [grown[m] for m in masks]
        back.append((masks, bytes(s & 31 for s in states)))

    mask = (1 << n) - 1
    total = states[0] >> cs
    order_rev = []
    for masks, lasts in reversed(back):
        last = lasts[bisect_left(masks, mask)]
        order_rev.append(nodes[last])
        mask ^= 1 << last
    order_rev.append(nodes[mask.bit_length() - 1])
    return tuple(reversed(order_rev)), total


def _tree_subset_count(net: TensorNetwork) -> int:
    """Connected node subsets of a breadth-first spanning tree of ``net``.

    The subsets whose topmost node is v number f(v) = prod(1 + f(c)) over
    v's children c, and the count is the sum of f. Exact on a tree; on a
    loopy network a lower bound, since extra edges only connect more
    subsets.
    """
    root = net.nodes[0]
    adjacency = net.adjacency
    parent = {root: root}
    order = [root]
    for v in order:  # grows while it is read: breadth-first
        for u in adjacency[v]:
            if u not in parent:
                parent[u] = v
                order.append(u)
    f = dict.fromkeys(order, 1)
    for v in reversed(order[1:]):
        f[parent[v]] *= 1 + f[v]
    return sum(f.values())


def _split_cost(left: int, right: int, whole: int) -> int:
    """Exact cost of contracting two disjoint parts, from three sizes.

    With shared the product of the legs between the parts, whole =
    left * right / shared^2 and cost = left * right / shared, so cost^2 =
    left * right * whole, a perfect square recovered exactly with isqrt.
    A disconnected pair has shared = 1, the outer-product convention.
    """
    return math.isqrt(left * right * whole)


def dp_general_optimal(
    net: TensorNetwork, *, deadline: float | None = None
) -> tuple[TreeNode, int]:
    """Optimal contraction tree over all full binary trees, by subset DP.

    best(S) minimizes best(S1) + best(S2) + cost(S1, S2) over every
    two-way partition of S (3^n work), bounded at ``DP_GENERAL_MAX_NODES``
    nodes. Each partition is named by its half S1 = low | s holding the
    lowest bit low of S, s a proper submask of S - low; the tie rule is the
    minimal partition with the largest s. Both walks below visit s in
    descending order and keep only strict wins, so the rule holds on
    either. A partition is priced only if it passes the module docstring's
    two split tests (half-sum, square). A partition whose halves share no
    edge is priced as an outer product; such splits do win occasionally,
    so nothing restricts the search to connected halves.

    One pass walks the masks in ascending order. Each mask's size is built
    from S - low, a lower mask already sized, and the single node low; so
    every mask is sized, as larger masks are built from it. A lone node
    takes best 0 and starts its list in ``live``.

    Before the pass, UB is the exact cost of ``linearized_dp`` on its
    default ``mst-iks`` order (``heuristics.order_arbitrary``), given this
    call's ``deadline``. Each scan starts from best so far = UB + 1, so a
    subset none of whose partitions costs at most UB keeps UB + 1 and no
    split. A proper subset S of two or more nodes is not scanned, and
    keeps UB + 1, when |S| + r(S) > UB, with r(S) = max(|S|, |full|) and
    r(full) = 0; |full| is the product of the open legs. On a plan, the
    step forming S costs |S| shared >= |S|, the step consuming S costs at
    least |S| too (the legs S shares with its sibling are the sibling's),
    and the last step, whose result is the full network, costs at least
    |full|; so every plan through S costs at least best(S) + r(S) >= |S| +
    r(S). Proof that plans and costs are those of the unpruned recurrence,
    by induction over |S| in nodes, of (i) every stored value v(S) >=
    min(best(S), UB + 1), and (ii) v(S) = best(S), with the same split,
    when best(S) + r(S) <= UB. (i): a value other than UB + 1 is a
    partition's cost plus two half values at most UB, each at least its
    half's best by (i). (ii): S is scanned, as best(S) >= |S|; the halves
    A, B of its first minimal partition meet best(A) + r(A) <= best(A) +
    cost(A, B) + r(S) <= best(S) + r(S), as the cost is at least |A| and,
    for S = full, at least |full|, so their values are exact; every other
    partition sums, by (i), to past UB or at least its unpruned value, so
    none ties or beats it earlier. The full network meets (ii), as
    best(full) <= UB.

    A mask is live when it is a single node or its scan ended with a value
    at most UB; ``live`` lists them in ascending order by lowest node. A
    partition with a half that is not live sums past UB and never wins.
    So a scanned S of k nodes with lowest node l walks l's list, filtered
    to S's submasks, when that list is shorter than S's 2^(k-1) - 1
    partitions, and else every submask of S holding l. Small masks take the
    submask walk, as l's list is long against their few partitions.
    """
    _check_bound(net, "dp-general")
    n = len(net.nodes)
    nodes = net.nodes
    # the bound: lin-dp on the mst-iks order, a real plan's exact cost
    ub = linearized_dp(net, deadline=deadline)[1]
    tsize, adj = _indexed(net, nodes)
    legs = [[(1 << j, s) for j, s in a] for a in adj]
    full = (1 << n) - 1
    # a proper subset S is skipped when |S| + max(|S|, |full|) > ub
    cap = min(ub // 2, ub - math.prod(net.open_mult.values()))

    size = [1] * (full + 1)  # every mask's: a larger mask's is built from it
    best = [ub + 1] * (full + 1)
    split = [0] * (full + 1)
    live = []  # per lowest node: the live masks holding it, ascending
    for mask in range(1, full + 1):
        low = mask & -mask
        high = mask ^ low  # a lower mask, already sized
        i = low.bit_length() - 1
        shared = 1
        for b, s in legs[i]:
            if high & b:
                shared *= s
        whole = size[mask] = size[high] * tsize[i] // (shared * shared)
        if not high:
            best[mask] = 0  # a lone tensor costs nothing
            live.append([mask])
            continue
        if whole > cap and mask != full:
            continue  # on no plan within the bound: best stays ub + 1
        _check_deadline(deadline)
        halves = live[i]
        # strict wins below ub + 1, for the docstring's tie rule
        cur = ub + 1
        lim = cur - whole
        at = 0
        if len(halves) < (1 << mask.bit_count() - 1) - 1:
            # the live halves holding low that lie in mask, descending
            for sub in filterfalse((full ^ mask).__and__, reversed(halves)):
                rest = mask ^ sub
                part = best[sub] + best[rest]
                if part >= lim:
                    continue  # a split costs at least whole
                gap = cur - part
                left, right = size[sub], size[rest]
                if left * right * whole >= gap * gap:
                    continue  # cost^2 = left * right * whole
                cur = part + _split_cost(left, right, whole)
                lim = cur - whole
                at = sub
        else:
            # every half holding low, descending: rest ascends over the
            # nonempty submasks of high
            rest = 0
            while rest != high:
                rest = (rest - high) & high
                sub = mask ^ rest
                part = best[sub] + best[rest]
                if part >= lim:
                    continue  # a split costs at least whole
                gap = cur - part
                left, right = size[sub], size[rest]
                if left * right * whole >= gap * gap:
                    continue  # cost^2 = left * right * whole
                cur = part + _split_cost(left, right, whole)
                lim = cur - whole
                at = sub
        if at:  # else no split is within the bound: best stays ub + 1
            best[mask] = cur
            split[mask] = at
            halves.append(mask)

    def build(mask: int) -> TreeNode:
        if mask & (mask - 1) == 0:
            return nodes[mask.bit_length() - 1]
        sub = split[mask]
        return (build(sub), build(mask ^ sub))

    return build(full), best[full]


def linearized_dp(
    net: TensorNetwork,
    order: LinearPlan | Sequence[NodeId] | None = None,
    *,
    deadline: float | None = None,
) -> tuple[TreeNode, int]:
    """Best contraction tree whose in-order leaves equal ``order``, by
    default the ``mst-iks`` order (``heuristics.order_arbitrary``, given
    ``deadline``), computed only once the size bound passes.

    Interval DP over contiguous ranges of the order, O(n^3) split points,
    bounded at ``LIN_DP_MAX_NODES`` nodes.
    Intervals may be disconnected in the network; such splits are priced
    as outer products, so the recurrence is total for any permutation.
    The result never costs more than contracting ``order`` linearly.

    Splits of [i, j] at k (halves [i, k] and [k+1, j]) keep the first
    minimum over k. The scan is seeded with the winner s of [i, j-1] (i for
    two nodes); the winners of neighbouring intervals are often equal. Then
    two loops with no per-split branch: k < s starts from the seed's bar +
    1, so that a tie with the seed wins, and k > s from the best so far
    (the bar if no k < s won) with strict wins only. A split is priced only
    if it passes the module docstring's three split tests (half-sum, bit
    lengths, square), with [i, j] as S.

    Before the scan, UB is ``order`` contracted left to right, n - 1 steps
    priced on the size table, and cap = UB + 1: every interval value past
    UB is held at cap. The seed is priced only when its halves' values
    and |S| sum to at most UB, as any split of S costs at least |S|; its
    bar is that cost if at most UB, else cap. Two O(n) lists bound the live
    splits: hi[i], the last k with best[i][k] <= UB, and lo[j], the first k
    with best[k+1][j] <= UB, set to j and to i - 1 when the scan of [i, j]
    ends at most UB. Both loops are clipped to [lo[j], hi[i]]. An interval
    whose size exceeds UB, or whose range is empty, is not scanned: it
    takes cap and split[i][j] = split[i][j-1], so the seed of [i, j+1]
    stays inside that interval.

    Proof that plans and costs are those of the unpruned recurrence, by
    induction over the interval length, of (i) every stored value v(S) >=
    min(best(S), UB + 1), and (ii) v(S) = best(S), with the same
    first-minimum split, when best(S) <= UB. (i): a value is cap or a priced
    split's sum; the halves of a priced split hold values below cap, each a
    real tree's cost by induction, so the sum is a real tree's cost for S,
    at least best(S). (ii): |S| <= best(S) <= UB, and the halves of the
    first minimal split k* have best at most best(S), so by (ii) their
    values are exact, they are live and k* lies in the range. A split
    outside the range has a half valued past UB, so by (i) it sums past UB
    and can never win or tie; every other split sums, by (i), past UB or to
    at least its unpruned cost. If k* = s, the seed sums to best(S), so it
    is priced and its bar is best(S), which no later split beats and no
    earlier one reaches. Else k* wins its loop, as every split before it
    costs more than best(S): left of s the loop starts from the bar + 1, and
    the bar is at least best(S); right of s it starts from the bar or a
    split left of s, each before k*. The full order meets (ii), as UB is one
    of its trees' costs. ``deadline`` is checked once per interval length.
    """
    _check_bound(net, "lin-dp")
    if order is None:
        order = order_arbitrary(net, deadline=deadline)[0]
    n = len(net.nodes)
    if isinstance(order, LinearPlan):
        seq = order.order
    else:
        seq = tuple(order)
    validate_plan(net, LinearPlan(seq))
    tsize, adj = _indexed(net, seq)

    # sz[i][j]: compound size of seq[i..j], extended one node at a time, and
    # bl[i][j] its bit length; nsz, nbl and nbest are shifted column copies,
    # nsz[j][k] = sz[k+1][j], so a split at k reads both halves at index k
    # (i = 0 writes nsz[j][-1], a slot no split reads)
    sz = [[0] * n for _ in range(n)]
    nsz = [[0] * n for _ in range(n)]
    bl = [[0] * n for _ in range(n)]
    nbl = [[0] * n for _ in range(n)]
    for i in range(n):
        sz_i, bl_i = sz[i], bl[i]
        size = sz_i[i] = nsz[i][i - 1] = tsize[i]
        bl_i[i] = nbl[i][i - 1] = size.bit_length()
        for j in range(i + 1, n):
            shared = 1
            for p, s in adj[j]:
                if i <= p < j:
                    shared *= s
            size = sz_i[j] = nsz[j][i - 1] = size * tsize[j] // (shared * shared)
            bl_i[j] = nbl[j][i - 1] = size.bit_length()

    # the bound: the order contracted left to right
    sz_0 = sz[0]
    ub = sum(_split_cost(sz_0[k - 1], tsize[k], sz_0[k]) for k in range(1, n))
    cap = ub + 1
    best = [[0] * n for _ in range(n)]
    nbest = [[0] * n for _ in range(n)]
    # split[i][i] = i, the seed of [i, i + 1]
    split = [[i] * n for i in range(n)]
    # each interval's live splits lie in [lo[j], hi[i]]
    hi = list(range(n))
    lo = [j - 1 for j in range(n)]
    for length in range(2, n + 1):
        _check_deadline(deadline)
        for i in range(n - length + 1):
            j = i + length - 1
            sz_i, bl_i, best_i, split_i = sz[i], bl[i], best[i], split[i]
            whole = sz_i[j]
            first, last = lo[j], hi[i]
            if whole > ub or first > last:  # no split within the bound
                best_i[j] = nbest[j][i - 1] = cap
                split_i[j] = split_i[j - 1]  # keeps [i, j + 1]'s seed in range
                continue
            nsz_j, nbl_j, nbest_j = nsz[j], nbl[j], nbest[j]
            wb = bl_i[j] - 3
            at = seed = split_i[j - 1]
            # the seed is priced only when its halves leave room for whole;
            # its bar is its cost if at most ub, else cap
            part = best_i[seed] + nbest_j[seed]
            bar = cap
            if part + whole <= ub:
                bar = part + _split_cost(sz_i[seed], nsz_j[seed], whole)
                if bar > ub:
                    bar = cap
            # left of the seed a tie with it wins, so the scan starts at bar + 1
            cur = bar + 1
            lim = cur - whole
            for k in range(first, seed if seed <= last else last + 1):
                part = best_i[k] + nbest_j[k]
                if part >= lim:
                    continue  # a split costs at least whole
                gap = cur - part
                if bl_i[k] + nbl_j[k] + wb >= 2 * gap.bit_length():
                    continue  # left * right * whole >= 2^(2 bits of gap) > gap^2
                left, right = sz_i[k], nsz_j[k]
                if left * right * whole >= gap * gap:
                    continue  # cost^2 = left * right * whole
                cur = part + _split_cost(left, right, whole)
                lim = cur - whole
                at = k
            if at == seed:
                cur = bar
                lim = cur - whole
            # right of it only a strict win
            for k in range(seed + 1 if seed >= first else first, last + 1):
                part = best_i[k] + nbest_j[k]
                if part >= lim:
                    continue  # a split costs at least whole
                gap = cur - part
                if bl_i[k] + nbl_j[k] + wb >= 2 * gap.bit_length():
                    continue  # left * right * whole >= 2^(2 bits of gap) > gap^2
                left, right = sz_i[k], nsz_j[k]
                if left * right * whole >= gap * gap:
                    continue  # cost^2 = left * right * whole
                cur = part + _split_cost(left, right, whole)
                lim = cur - whole
                at = k
            best_i[j] = nbest[j][i - 1] = cur
            split_i[j] = at
            if cur <= ub:
                hi[i] = j
                lo[j] = i - 1

    def build(i: int, j: int) -> TreeNode:
        if i == j:
            return seq[i]
        k = split[i][j]
        return (build(i, k), build(k + 1, j))

    return build(0, n - 1), best[0][n - 1]
