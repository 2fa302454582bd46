"""The three workloads: their operations, how each runs, and its checks.

An operation ("op") takes input text to an exact cost in-process, the way
the CLI would: it parses the network (and plan) text, calls the solver or
evaluator, and serializes any plan it produced. Every size ladder is the
same for every seed, so a seed changes which instances run but not how
much work they are; that keeps medians comparable across seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import families as fam
import pricer
from pricer import Mismatch

WORKLOADS = ("iks-trees", "price-plans", "exact-baselines")

# iks-trees: 72 sizes on a geometric ladder from 16 to 72, dealt to the
# six families in turn, so that neighbouring ops in time order differ by
# a few percent and no percentile sits on a cliff between two sizes or
# on a single instance's shape. Stars get the largest sizes. Larger ones
# take seconds each at the seed, which would leave too few passes in one
# run for per-op medians.
IKS_SIZES = tuple(round(16 * 4.5 ** (k / 71)) for k in range(72))
IKS_CLI_OPS = 24  # the smallest ones
IKS_DP_CHECK_MAX_N = 18

# price-plans: ten sizes from 1024 to 4096 nodes, alternately trees and
# loopy (n/8 extra edges), PRICE_REPLICAS networks each, every network
# priced under a linear, a balanced and a chunked tree plan. Tree
# networks of 1500..3000 nodes also get a left-deep tree plan, deeper
# than the interpreter's default recursion limit: those fail at the seed
# and are kept as failed ops. The first network of each size is run by
# the CLI.
PRICE_SIZES = tuple(round(1024 * 4 ** (k / 9)) for k in range(10))
PRICE_REPLICAS = 2
PRICE_DEEP_N = (1500, 3000)
PRICE_CHUNK = 256
PRICE_CLI_MAX_N = 3000


@dataclass
class Op:
    oid: str
    kind: str  # iks | cost | dp-linear | dp-general | lin-dp | mst-iks
    net: fam.Net
    net_key: str
    plan: object = None  # input plan (cost) or base order (lin-dp, dp-general)
    plan_text: str | None = None
    cli: bool = False
    net_text: str = field(default="", repr=False)


def _with_texts(ops: list[Op]) -> list[Op]:
    texts: dict[str, str] = {}
    for op in ops:
        if op.net_key not in texts:
            texts[op.net_key] = fam.network_text(op.net)
        op.net_text = texts[op.net_key]
    return ops


def _plan_text(net: fam.Net, plan) -> str:
    if isinstance(plan, list):
        return fam.linear_plan_text(net, plan)
    return fam.tree_plan_text(net, plan)


def iks_ops(seed: int) -> list[Op]:
    ops = []
    names = list(fam.TREE_FAMILIES)
    for k, n in enumerate(IKS_SIZES):
        name = names[k % len(names)]
        key = f"iks/{name}/{n}"
        net = fam.TREE_FAMILIES[name](fam.rng_for("iks-trees", seed, name, n), n)
        ops.append(Op(key, "iks", net, key, cli=k < IKS_CLI_OPS))
    return _with_texts(ops)


def price_ops(seed: int) -> list[Op]:
    ops = []
    for k, n in enumerate(PRICE_SIZES):
        family = "loopy" if k % 2 else "tree"
        for r in range(PRICE_REPLICAS):
            rng = fam.rng_for("price-plans", seed, family, n, r)
            net = fam.loopy_net(rng, n, n // 8 if k % 2 else 0)
            order = fam.connected_order(rng, net)
            key = f"price/{family}/{n}/{r}"
            plans = {
                "linear": order,
                "balanced": fam.balanced_tree(order),
                "chunked": fam.chunked_tree(order, PRICE_CHUNK),
            }
            if family == "tree" and PRICE_DEEP_N[0] <= n <= PRICE_DEEP_N[1]:
                plans["leftdeep"] = fam.left_deep(order)
            for shape, plan in plans.items():
                cli = r == 0 and n <= PRICE_CLI_MAX_N and shape != "leftdeep"
                ops.append(Op(f"{key}/{shape}", "cost", net, key, plan, _plan_text(net, plan), cli))
    return _with_texts(ops)


def _ladder(lo: int, hi: int, count: int) -> tuple[int, ...]:
    return tuple(round(lo * (hi / lo) ** (k / (count - 1))) for k in range(count))


# exact-baselines: (kind, family, sizes, largest size also run by the CLI).
# The subset DPs' time grows with the network's count of connected
# subsets, which varies threefold between random networks of one size
# once they take more than a few milliseconds: dp-linear stops at 15
# nodes on trees and 13 on loopy networks, so those ops stay below the
# median, and the dense, steadier lin-dp and mst-iks ladders set it.
# iks-trees runs the iks == dp-linear check up to 18 nodes. Every size
# gets EXACT_REPLICAS instances, so that the ops near the median are
# many and no one instance's shape sets it; the first is run by the CLI.
EXACT_REPLICAS = 2
EXACT_PLAN = (
    ("dp-linear", "tree", tuple(range(12, 16)), 14),
    ("dp-linear", "loopy", tuple(range(10, 14)), 13),
    ("dp-general", "loopy", tuple(range(8, 13)), 9),
    ("lin-dp", "tree", _ladder(32, 128, 12), 54),
    ("mst-iks", "loopy", _ladder(20, 96, 14), 45),
)


def exact_ops(seed: int) -> list[Op]:
    ops = []
    for kind, family, sizes, cli_max in EXACT_PLAN:
        for n in sizes:
            for r in range(EXACT_REPLICAS):
                rng = fam.rng_for("exact-baselines", seed, kind, family, n, r)
                net = fam.loopy_net(rng, n, 0 if family == "tree" else n // 4)
                key = f"{kind}/{family}/{n}/{r}"
                base = fam.connected_order(rng, net) if kind in ("dp-general", "lin-dp") else None
                text = fam.linear_plan_text(net, base) if kind == "lin-dp" else None
                ops.append(Op(key, kind, net, key, base, text, cli=r == 0 and n <= cli_max))
    return _with_texts(ops)


OP_LISTS = {"iks-trees": iks_ops, "price-plans": price_ops, "exact-baselines": exact_ops}


def build_ops(workload: str, seed: int) -> list[Op]:
    return OP_LISTS[workload](seed)


def warmup_ops(workload: str) -> list[Op]:
    """Tiny instances of every op kind in the workload, run before timing."""
    rng = fam.rng_for("warmup", workload)
    net = fam.loopy_net(rng, 8, 0)
    loopy = fam.loopy_net(rng, 8, 2)
    order = fam.connected_order(rng, net)
    if workload == "iks-trees":
        ops = [Op("warm/iks", "iks", net, "t")]
    elif workload == "price-plans":
        tree = fam.balanced_tree(order)
        ops = [
            Op("warm/linear", "cost", net, "t", order, _plan_text(net, order)),
            Op("warm/tree", "cost", net, "t", tree, _plan_text(net, tree)),
        ]
    else:
        loopy_order = fam.connected_order(rng, loopy)
        ops = [
            Op("warm/dpl", "dp-linear", net, "t"),
            Op("warm/dpg", "dp-general", loopy, "l", loopy_order),
            Op("warm/lin", "lin-dp", net, "t", order, fam.linear_plan_text(net, order)),
            Op("warm/mst", "mst-iks", loopy, "l"),
        ]
    return _with_texts(ops)


# ------------------------------------------------------------ running ops


def execute(tn, op: Op):
    """One op through the program's public functions: (structure, cost).

    ``tn`` is the imported ``tnorder`` package; functions are looked up on
    its modules at call time so that a traced run can wrap them.
    """
    net = tn.network.parse_network(op.net_text)
    kind = op.kind
    if kind == "cost":
        plan = tn.plans.parse_plan(op.plan_text)
        if isinstance(plan, tn.plans.LinearPlan):
            return None, tn.cost.evaluate_linear(net, plan).cost
        return None, tn.cost.evaluate_tree(net, plan)
    if kind == "iks":
        order, cost = tn.iks.iks_order(net)
    elif kind == "dp-linear":
        order, cost = tn.oracles.dp_linear_optimal(net)
    elif kind == "mst-iks":
        order, cost = tn.heuristics.order_arbitrary(net)
    elif kind == "dp-general":
        tree, cost = tn.oracles.dp_general_optimal(net)
        tn.plans.TreePlan(tree).to_json()
        return tree, cost
    elif kind == "lin-dp":
        base = tn.plans.parse_plan(op.plan_text)
        tree, cost = tn.oracles.linearized_dp(net, base)
        tn.plans.TreePlan(tree).to_json()
        return tree, cost
    else:
        raise ValueError(f"unknown op kind {kind!r}")
    tn.plans.LinearPlan(order).to_json()
    return order, cost


def _expect(what: str, got, want) -> None:
    if got != want:
        raise Mismatch(f"{what}: got {got}, expected {want}")


def check(tn, op: Op, output) -> tuple[object, int]:
    """Verify one op's output exactly; returns its (structure, cost) in
    index form for the digest. Raises ``Mismatch`` on any disagreement.

    Cross-checks call the program again on the same input: iks against
    dp-linear on small trees, and the sandwich
    dp-general <= lin-dp <= linear cost of the base order.
    """
    structure, cost = output
    if type(cost) is not int:
        raise Mismatch(f"cost is not an exact integer: {cost!r:.100}")
    net = op.net
    if op.kind == "cost":
        _expect("plan cost", cost, pricer.plan_cost(net, op.plan))
        return None, cost
    if op.kind in ("iks", "dp-linear", "mst-iks"):
        order = pricer.as_order(net, structure)
        if not pricer.prefix_connected(net, order):
            raise Mismatch("linear order contains an outer product")
        _expect("cost of the returned order", cost, pricer.linear_cost(net, order))
        if op.kind == "iks" and net.n <= IKS_DP_CHECK_MAX_N:
            parsed = tn.network.parse_network(op.net_text)
            _expect("iks vs dp-linear", cost, tn.oracles.dp_linear_optimal(parsed)[1])
        if op.kind == "dp-linear" and net.is_tree():
            parsed = tn.network.parse_network(op.net_text)
            _expect("dp-linear vs iks", cost, tn.iks.iks_order(parsed)[1])
        return order, cost
    tree = pricer.as_tree(net, structure)
    _expect("cost of the returned tree", cost, pricer.tree_cost(net, tree))
    base_cost = pricer.linear_cost(net, op.plan)
    if op.kind == "lin-dp":
        _expect("lin-dp leaf order", fam.tree_leaves(tree), op.plan)
        lin_cost = cost
    else:
        parsed = tn.network.parse_network(op.net_text)
        ids = net.ids()
        lin_tree, lin_cost = tn.oracles.linearized_dp(parsed, [ids[v] for v in op.plan])
        _expect("lin-dp cost", lin_cost, pricer.tree_cost(net, pricer.as_tree(net, lin_tree)))
        if cost > lin_cost:
            raise Mismatch(f"dp-general {cost} exceeds lin-dp {lin_cost}")
    if lin_cost > base_cost:
        raise Mismatch(f"lin-dp {lin_cost} exceeds its base order's cost {base_cost}")
    return tree, cost


# ------------------------------------------------------------------ CLI


def cli_args(op: Op, net_file: str, plan_file: str | None, out_file: str) -> list[str]:
    if op.kind == "cost":
        return ["cost", "--network", net_file, "--plan", plan_file]
    args = ["order", "--algorithm", op.kind, "--network", net_file, "-o", out_file]
    if op.kind == "lin-dp":
        args += ["--order", plan_file]
    return args


def cli_structure(op: Op, plan_obj):
    """Index-form structure of a plan file the CLI wrote, or None for cost."""
    if op.kind == "cost":
        return None
    if op.kind in ("iks", "dp-linear", "mst-iks"):
        if not isinstance(plan_obj, dict) or plan_obj.get("type") != "linear":
            raise Mismatch("CLI did not write a linear plan")
        return pricer.as_order(op.net, plan_obj.get("order", ()))
    if not isinstance(plan_obj, dict) or plan_obj.get("type") != "tree":
        raise Mismatch("CLI did not write a tree plan")
    return pricer.as_tree(op.net, _lists_to_pairs(plan_obj.get("root")))


def _lists_to_pairs(obj):
    if isinstance(obj, list):
        return tuple(_lists_to_pairs(x) for x in obj)
    return obj
