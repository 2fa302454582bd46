"""End-to-end acceptance checks for the shipped claims.

One test per claim: golden costs, optimizer agreement, the rank/cost
swap law, the tree <= lifted <= linear sandwich, scaling shape, CLI
determinism, and big-integer exactness. Each prints a PASS line with
the measured numbers (visible under -s). All cost comparisons are
exact integer equality; the only tolerances are wall-clock budgets,
stated inline.
"""

import itertools
import os
import random
import subprocess
import sys
import time

from tnorder import (
    LinearPlan,
    TensorNetwork,
    build_precedence_graph,
    dp_general_optimal,
    dp_linear_optimal,
    evaluate_linear,
    generate_random_tree_network,
    iks_order,
    linearized_dp,
    rank_leq,
    single_entry,
)
from tnorder import oracles
from tnorder.bench import instance_seed, run_benchmark

from helpers import (
    five_tensor_data,
    naive_linear,
    random_precedence_order,
    random_tree_data,
    to_network,
)


def test_matrix_chain_golden_costs_and_speed():
    # A(20x30) B(30x10) C(10x50): known products 16000 and 45000
    net = TensorNetwork({"A": 20, "B": 1, "C": 50}, [("A", "B", 30), ("B", "C", 10)])
    assert evaluate_linear(net, ("A", "B", "C")).cost == 16000
    assert evaluate_linear(net, ("B", "C", "A")).cost == 45000
    for _ in range(5):  # warm caches before timing
        evaluate_linear(net, ("A", "B", "C"))
    best = min(
        _timed(evaluate_linear, net, ("A", "B", "C")) for _ in range(3)
    )
    assert best < 1e-3, f"evaluate_linear took {best * 1e3:.3f} ms, budget 1 ms"
    print(f"PASS matrix chain: 16000/45000 exact, {best * 1e6:.0f} us per call")


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_five_tensor_golden_by_exhaustion():
    # first re-derive the optimum from scratch over all 120 orders,
    # through the independent leg-list oracle, then hold both exact
    # solvers to it
    nodes, edges = five_tensor_data()
    costs = [
        naive_linear(nodes, edges, perm)
        for perm in itertools.permutations(nodes)
    ]
    best_any = min(cost for cost, _free in costs)
    best_op_free = min(cost for cost, free in costs if free)
    assert best_any == 45
    assert best_op_free == 45
    net = to_network(nodes, edges)
    assert iks_order(net)[1] == 45
    assert dp_linear_optimal(net)[1] == 45
    print("PASS five-tensor golden: exhaustive min 45, both solvers agree")


def test_linear_optimizers_agree_sizes_5_to_18():
    # the optimality claim: the quadratic ordering algorithm matches the
    # exponential DP exactly, 100 instances per size, budget 5 minutes
    t0 = time.perf_counter()
    checked = 0
    for n in range(5, 19):
        for inst in range(100):
            net = generate_random_tree_network(n, seed=instance_seed(0, n, inst))
            fast = iks_order(net)[1]
            exact = dp_linear_optimal(net)[1]
            assert fast == exact, (n, inst, fast, exact)
            checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"agreement sweep took {elapsed:.0f} s, budget 300 s"
    print(f"PASS optimizer agreement: {checked} instances equal, {elapsed:.1f} s")


def test_swap_law_on_1000_trees():
    # cost(A U V B) <= cost(A V U B) exactly when rank(U) <= rank(V):
    # 1000 random trees n <= 9, one precedence-respecting adjacent swap
    # each, both directions checked, zero violations allowed
    rng = random.Random(97)
    done = 0
    while done < 1000:
        n = rng.randint(3, 9)
        nodes, edges = random_tree_data(rng, n, dim_lo=1, dim_hi=9, open_hi=3)
        net = to_network(nodes, edges)
        root = rng.choice(list(nodes))
        pg = build_precedence_graph(net, root)
        order = random_precedence_order(rng, nodes, edges, root)
        swaps = [
            i for i in range(1, n - 1) if pg.parent[order[i + 1]] != order[i]
        ]
        if not swaps:
            continue  # unique linear extension, nothing to swap
        i = rng.choice(swaps)
        swapped = list(order)
        swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
        cost_uv = evaluate_linear(net, order).cost
        cost_vu = evaluate_linear(net, swapped).cost
        u = single_entry(pg, order[i])
        v = single_entry(pg, order[i + 1])
        assert (cost_uv <= cost_vu) == rank_leq(u, v), (nodes, edges, order, i)
        assert (cost_vu <= cost_uv) == rank_leq(v, u), (nodes, edges, order, i)
        done += 1
    print("PASS swap law: 1000 trees, biconditional holds in both directions")


def test_tree_lifted_linear_sandwich_100_trees():
    # optimal tree <= lifted tree over the optimal linear order <= that
    # order's own cost, exact, on 100 random trees n in [3, 12]
    rng = random.Random(20260822)
    for inst in range(100):
        n = rng.randint(3, 12)
        net = generate_random_tree_network(n, seed=instance_seed(0, n, inst))
        tree_cost = dp_general_optimal(net)[1]
        order, linear_cost = iks_order(net)
        lifted_cost = linearized_dp(net, order)[1]
        assert tree_cost <= lifted_cost <= linear_cost, (
            inst, n, tree_cost, lifted_cost, linear_cost,
        )
    print("PASS sandwich: 100 trees, tree <= lifted <= linear, zero violations")


def test_scaling_separation():
    # shape claim, not absolute times: the quadratic solver clears 100
    # instances at n=64 inside a 10 s budget, while the DP's search space,
    # the connected subsets it would build unpruned, explodes as n grows.
    # The DP skips subsets past the iks order's cost, the optimum on these
    # trees, so its wall time grows only a few-fold here; the separation is
    # stated on that space, counted exactly.
    # Where the DP finishes, its cost must equal the fast solver's.
    big = run_benchmark([64], 100, 10_000, ["iks"])
    assert len(big) == 100
    assert not any(rec.timed_out for rec in big)

    ladder = [16, 20, 24, 29]
    recs = run_benchmark(ladder, 8, 10_000, ["iks", "dp-linear"])
    iks_cost = {
        (rec.n, rec.instance): rec.cost for rec in recs if rec.algorithm == "iks"
    }
    assert all(cost is not None for cost in iks_cost.values())
    means = []
    for n in ladder:
        counts = [
            oracles._tree_subset_count(
                generate_random_tree_network(n, instance_seed(0, n, inst))
            )
            for inst in range(8)
        ]
        means.append(sum(counts) / len(counts))
    assert means == sorted(means) and len(set(means)) == len(means), means
    assert means[-1] / means[0] >= 20, means
    for rec in recs:
        if rec.algorithm == "dp-linear" and not rec.timed_out:
            assert rec.cost == iks_cost[(rec.n, rec.instance)]
    shown = ", ".join(f"n={n}: {m:,.0f}" for n, m in zip(ladder, means))
    print(f"PASS scaling: n=64 0/100 timeouts; DP mean subsets {shown}")


def test_cli_plan_bytes_deterministic(tmp_path):
    # same seed, fresh interpreters, different hash randomization:
    # generated network and plan files must match byte for byte
    outputs = []
    for run, hashseed in enumerate(("0", "271828")):
        env = {**os.environ, "PYTHONHASHSEED": hashseed}
        net_file = tmp_path / f"net{run}.json"
        plan_file = tmp_path / f"plan{run}.json"
        gen = subprocess.run(
            [sys.executable, "-m", "tnorder", "gen", "--n", "12",
             "--seed", "7", "-o", str(net_file)],
            capture_output=True, text=True, env=env,
        )
        assert gen.returncode == 0, gen.stderr
        order = subprocess.run(
            [sys.executable, "-m", "tnorder", "order", "--algorithm", "iks",
             "--network", str(net_file), "-o", str(plan_file)],
            capture_output=True, text=True, env=env,
        )
        assert order.returncode == 0, order.stderr
        outputs.append(
            (net_file.read_bytes(), plan_file.read_bytes(), order.stdout)
        )
    assert outputs[0] == outputs[1]
    print("PASS determinism: gen+order byte-identical across interpreters")


def test_big_integer_exactness(tmp_path):
    # 64-node chain, all dims 10. The natural order is cheap; the
    # odds-then-evens order builds huge intermediates and its exact cost
    # exceeds 2^64, printed in full decimal by the CLI
    names = [f"T{i}" for i in range(1, 65)]
    net = TensorNetwork(
        {v: 1 for v in names},
        [(names[i], names[i + 1], 10) for i in range(63)],
    )
    assert evaluate_linear(net, tuple(names)).cost == 6210

    pessimal = tuple(names[0::2]) + tuple(names[1::2])
    want = 2020202020202020202020202020202020202020202020202020202020202010
    assert want > 2**64
    assert evaluate_linear(net, pessimal).cost == want
    nodes = {v: 1 for v in names}
    edges = [(names[i], names[i + 1], 10) for i in range(63)]
    assert naive_linear(nodes, edges, pessimal)[0] == want  # second route

    net_file = tmp_path / "chain.json"
    plan_file = tmp_path / "plan.json"
    net_file.write_text(net.to_json() + "\n")
    plan_file.write_text(LinearPlan(pessimal).to_json() + "\n")
    out = subprocess.run(
        [sys.executable, "-m", "tnorder", "cost", "--network", str(net_file),
         "--plan", str(plan_file)],
        capture_output=True, text=True,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == str(want)
    assert "e" not in out.stdout and "E" not in out.stdout
    print(f"PASS exactness: chain cost {str(want)[:8]}...{str(want)[-4:]} > 2^64")
