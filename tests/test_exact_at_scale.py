"""Exact evidence for ``iks`` at sizes the subset DPs cannot reach.

Four guards: ``dp_linear_optimal`` on a 19-node star (2^18 connected
subsets, the most a tree of 19 nodes has), with its memory bounded, so
that the DP's plan-cost bound must prune; the O(n^2) path oracle in
``helpers``, which gives the optimum of paths with up to a thousand
nodes; ``plan_ledger.json``, which pins the plan bytes (as sha256) and
the exact cost of ``iks`` on six tree families up to 2048 nodes, of
``mst-iks`` on loopy networks, of ``lin-dp`` on the iks order of those
families and on a shuffled order of a dims {1, 2} tree up to 256 nodes,
and of ``dp-general`` on loopy networks of 10, 12 and 16 nodes; and
``CLI_PINS``, which holds the printed costs and plan-file digests of
``tnorder order`` on nine instances, built as the CI workflow built
them up to 389d1ee; the 256-node star, MPS path and path of 10^6 bonds,
and the 16-node loopy network of bonds up to 10^6, come from
``instances.py``, which CI runs to build the files it times.
A change to the solvers that moves any plan byte or cost fails here.

Regenerate the ledger, only for a change that means to move a plan and
explains why, with ``PYTHONPATH=src:tests python tests/test_exact_at_scale.py``.
That leaves ``CLI_PINS`` as it is.
"""

from __future__ import annotations

import hashlib
import json
import random
import tracemalloc
from pathlib import Path

import pytest

from tnorder import (
    LinearPlan,
    TensorNetwork,
    TreePlan,
    dp_general_optimal,
    dp_linear_optimal,
    evaluate_linear,
    iks_order,
    linearized_dp,
    order_arbitrary,
)
from helpers import (
    binary_ttn_data,
    min_linear_cost,
    mps_path_data,
    path_linear_optimum,
    random_connected_data,
    random_tree_data,
    shaped_tree,
)
from tnorder.cli import main
import instances

# ------------------------------------------------------- subset DP, n = 19


def test_iks_matches_the_subset_dp_on_a_19_node_star():
    # size-1 edges and open legs: ranks tie
    nodes, edges = shaped_tree(random.Random("star/19"), "star", 19, dim_hi=10, open_hi=5)
    net = TensorNetwork(nodes, edges)
    order, cost = iks_order(net)
    dp_order, dp_cost = dp_linear_optimal(net)
    assert cost == dp_cost
    assert evaluate_linear(net, order) == evaluate_linear(net, dp_order) == (cost, True)


def test_the_bound_prunes_the_subset_dp_on_a_19_node_star():
    # the DP skips every subset that no plan within the mst-iks order's
    # cost passes through: it keeps 977 of the 2^18 + 18 subsets, where
    # building all of them peaked at about 10 MB
    nodes, edges = shaped_tree(random.Random("star/19"), "star", 19, dim_hi=10, open_hi=5)
    net = TensorNetwork(nodes, edges)
    tracemalloc.start()
    try:
        dp_linear_optimal(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


# ------------------------------------------------------------ path oracle

# MPS paths; size-1 edges and open legs; dims {1, 2}, where ranks tie often
PATH_FAMILIES = {
    "mps": dict(bond_lo=2, bond_hi=10, open_lo=2, open_hi=4),
    "size-1 edges": dict(bond_lo=1, bond_hi=6, open_lo=1, open_hi=3),
    "ties": dict(bond_lo=1, bond_hi=2, open_lo=1, open_hi=2),
}


@pytest.mark.parametrize("family", PATH_FAMILIES)
def test_path_oracle_matches_the_subset_dp(family):
    rng = random.Random(family)
    for n in range(1, 15):
        for _ in range(4 if n < 12 else 1):
            nodes, edges = mps_path_data(rng, n, **PATH_FAMILIES[family])
            want = dp_linear_optimal(TensorNetwork(nodes, edges))[1]
            assert path_linear_optimum(nodes, edges) == want
            if n <= 6:
                assert min_linear_cost(nodes, edges, op_free_only=True)[0] == want


def test_path_oracle_walks_shuffled_edges():
    # the walk starts at an end, whatever the id and edge order
    nodes = {"c": 2, "a": 3, "d": 1, "b": 4}
    edges = [("d", "b", 5), ("a", "c", 2), ("b", "a", 3)]
    want = dp_linear_optimal(TensorNetwork(nodes, edges))[1]
    assert path_linear_optimum(nodes, edges) == want


@pytest.mark.parametrize("n", [2, 50, 300, 1000])
@pytest.mark.parametrize("family", PATH_FAMILIES)
def test_iks_matches_the_path_oracle(family, n):
    rng = random.Random(f"{family}/{n}")
    for _ in range(5 if n <= 50 else 1):
        nodes, edges = mps_path_data(rng, n, **PATH_FAMILIES[family])
        net = TensorNetwork(nodes, edges)
        order, cost = iks_order(net)
        assert cost == path_linear_optimum(nodes, edges)
        assert evaluate_linear(net, order) == (cost, True)


# ------------------------------------------------------------ plan ledger

LEDGER = Path(__file__).with_name("plan_ledger.json")

TREE_FAMILIES = ("random", "path", "star", "caterpillar", "binary-ttn", "spider")
TREE_SIZES = (64, 256, 512, 1024, 2048)
LOOPY_SIZES = (32, 64, 128, 256)
LIN_DP_SIZES = (64, 128, 256)
DP_GENERAL_SIZES = (10, 12, 16)


def _seeds(n: int) -> tuple[int, ...]:
    return (1, 2) if n <= 256 else (1,)


def _tree_data(family: str, rng: random.Random, n: int):
    if family == "path":
        return mps_path_data(rng, n)
    if family == "binary-ttn":
        return binary_ttn_data(rng, n)
    # size-1 edges and open legs 1-5: ranks tie, chains barely fuse
    return shaped_tree(rng, family, n, dim_hi=10, open_hi=5)


def ledger_cases():
    """(key, algorithm, nodes, edges, base) for every ledger entry; base is
    lin-dp's base order, or None for the iks order."""
    for family in TREE_FAMILIES:
        for n in TREE_SIZES:
            for seed in _seeds(n):
                key = f"iks/{family}/{n}/{seed}"
                yield key, "iks", *_tree_data(family, random.Random(key), n), None
    for n in LOOPY_SIZES:
        for seed in _seeds(n):
            key = f"mst-iks/loopy/{n}/{seed}"
            yield key, "mst-iks", *random_connected_data(
                random.Random(key), n, n // 8, open_hi=3
            ), None
    # one seed each: the interval DP is cubic, 0.4 to 2 s per family at
    # n = 256
    for family in TREE_FAMILIES:
        for n in LIN_DP_SIZES:
            key = f"lin-dp/{family}/{n}/1"
            yield key, "lin-dp", *_tree_data(family, random.Random(key), n), None
    for n in LIN_DP_SIZES:
        # dims {1, 2}: splits tie often; a shuffled order: many intervals
        # are disconnected and priced as outer products
        key = f"lin-dp/shuffled/{n}/1"
        rng = random.Random(key)
        nodes, edges = random_tree_data(rng, n, dim_lo=1, dim_hi=2, open_hi=2)
        base = list(nodes)
        rng.shuffle(base)
        yield key, "lin-dp", nodes, edges, base
    for n in DP_GENERAL_SIZES:
        for seed in (1, 2):
            key = f"dp-general/loopy/{n}/{seed}"
            yield key, "dp-general", *random_connected_data(
                random.Random(key), n, n // 4, open_hi=3
            ), None


def ledger_entry(algorithm: str, nodes, edges, base=None) -> dict[str, str]:
    net = TensorNetwork(nodes, edges)
    plan: LinearPlan | TreePlan
    if algorithm == "lin-dp":
        tree, cost = linearized_dp(net, iks_order(net)[0] if base is None else base)
        plan = TreePlan(tree)
    elif algorithm == "dp-general":
        tree, cost = dp_general_optimal(net)
        plan = TreePlan(tree)
    else:
        order, cost = (iks_order if algorithm == "iks" else order_arbitrary)(net)
        plan = LinearPlan(order)
    digest = hashlib.sha256(plan.to_json().encode()).hexdigest()
    # a decimal string: JSON readers may cap the digits of an integer
    return {"sha256": digest, "cost": str(cost)}


def build_ledger() -> dict[str, dict[str, str]]:
    return {
        key: ledger_entry(algorithm, nodes, edges, base)
        for key, algorithm, nodes, edges, base in ledger_cases()
    }


def test_plans_and_costs_match_the_ledger():
    assert build_ledger() == json.loads(LEDGER.read_text())


# ------------------------------------------------------------- CLI pins


def _gen(*args: str):
    def build(path: Path) -> None:
        assert main(["gen", *args, "-o", str(path)]) == 0

    return build


def _instance(name: str):
    def build(path: Path) -> None:
        instances.write(name, path)

    return build


# (network file builder, order runs, printed cost, sha256 of each run's
# plan file or None); the dims {1, 2} twin is where ranks tie often
CLI_PINS = {
    "gen-4096-5": (
        _gen("--n", "4096", "--seed", "5"),
        [["iks"], ["mst-iks"], ["mst-iks", "--trace"]],
        "19851002",
        "efbe768371149b7ecec0f94622095d8e4aa4fe717006a0eda61cf4e53f05f8fe",
    ),
    "gen-4096-5-dims-1-2": (
        _gen("--n", "4096", "--seed", "5", "--dim-lo", "1", "--dim-hi", "2"),
        [["iks"]],
        "11424",
        "a7ade340760eccca744669408b94861d509376fe67c2f083fdf746d28f1b5802",
    ),
    "gen-1024-5-trace": (
        _gen("--n", "1024", "--seed", "5"),
        [["iks", "--trace"]],
        "4461603",
        None,
    ),
    "gen-256-5-lin-dp": (
        _gen("--n", "256", "--seed", "5"),
        [["lin-dp"]],
        "68924",
        "398bf8dd8edb3414f3ad51226a0b7d83b33a09c1bb1d1ae3fbe5d7c406e4b508",
    ),
    "star-256-lin-dp": (
        _instance("star-256"),
        [["lin-dp"]],
        "426147130801452588689993006301156835049566178220962710349069112974552066035825749885275352251808099429483299421485372815988684755365815523653729348018529688246284109892",
        "3a99f62d5b39b22a5d1735d18e8b2e19065d4fcf8aa2f68755382f7d7f077e9e",
    ),
    "mps-256-lin-dp": (
        _instance("mps-256"),
        [["lin-dp"]],
        "865474340830747459630256979096255690217722562834215137031640911053089719014005425421983346150642133395614745138815878",
        "093701351672815fbf2e9c2e32262aa680de694ba20d8c80fc6af3e636fb6c0f",
    ),
    "bonds-256-lin-dp": (
        _instance("bonds-256"),
        [["lin-dp"]],
        "254000001000000",
        "bc3901913fb6afa49517b3bd38b8f79a8475ead7121958964c2bbbde93bff397",
    ),
    "gen-13-5-dp-general": (
        _gen("--n", "13", "--seed", "5"),
        [["dp-general"]],
        "1719",
        "298572fc414bbef113e00785bc5345003460a19c1af6fc1a6abbcdbb1dfc21e7",
    ),
    "huge-loopy-16-dp-general": (
        _instance("huge-loopy-16"),
        [["dp-general"]],
        "84729419396742923115850996446",
        "54c768f02b596bed5842a46c0afea5abf93482ea794a0335d19bd39565845024",
    ),
}


@pytest.mark.parametrize("case", CLI_PINS)
def test_cli_plans_and_costs_match_their_pins(case, tmp_path, capsys):
    """The CLI's printed cost and the sha256 of the plan file it writes
    (trailing newline included), each copied verbatim from the inline
    checks of .github/workflows/tests.yml at 389d1ee; ``cost`` of each plan
    prints the same cost. Regenerating the ledger with
    ``python tests/test_exact_at_scale.py`` neither writes nor reads these
    pins. A change that moves one must explain why in CHANGES.md."""
    build, runs, cost, digest = CLI_PINS[case]
    net_file = tmp_path / "net.json"
    build(net_file)
    n = len(json.loads(net_file.read_text())["nodes"])
    for i, (algorithm, *flags) in enumerate(runs):
        plan_file = tmp_path / f"plan{i}.json"
        assert main(["order", "--algorithm", algorithm, *flags,
                     "--network", str(net_file), "-o", str(plan_file)]) == 0
        out, err = capsys.readouterr()
        assert out == f"{cost}\n"
        if digest is not None:
            assert hashlib.sha256(plan_file.read_bytes()).hexdigest() == digest
        if "--trace" in flags:
            # one JSON line per rooting and per winning chain entry
            lines = err.splitlines()
            assert len(lines) <= 2 * n + 2
            for line in lines:
                json.loads(line)
        assert main(["cost", "--network", str(net_file), "--plan", str(plan_file)]) == 0
        assert capsys.readouterr().out == f"{cost}\n"


if __name__ == "__main__":
    LEDGER.write_text(json.dumps(build_ledger(), indent=1, sort_keys=True) + "\n")
