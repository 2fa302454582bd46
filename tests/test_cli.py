import contextlib
import csv
import io
import json
import os
import random
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from tnorder import (
    LinearPlan,
    TensorNetwork,
    TreePlan,
    build_precedence_graph,
    evaluate_linear,
    generate_random_tree_network,
    linearized_dp,
    order_arbitrary,
    parse_network,
    parse_plan,
)
from tnorder.bench import CSV_HEADER, BenchRecord
from tnorder.cli import main
from tnorder.oracles import LIN_DP_MAX_NODES
from helpers import (
    five_tensor_data,
    linearize_reference,
    matrix_chain_data,
    random_connected_data,
    small_trees,
    to_network,
)


@pytest.fixture
def five_tensor_file(tmp_path):
    path = tmp_path / "five_tensor.json"
    path.write_text(to_network(*five_tensor_data()).to_json() + "\n")
    return str(path)


@pytest.fixture
def matrix_file(tmp_path):
    path = tmp_path / "matrix.json"
    path.write_text(to_network(*matrix_chain_data()).to_json() + "\n")
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.json"
    doc = {
        "nodes": [{"id": "a"}, {"id": "b"}, {"id": "c"}],
        "edges": [
            {"u": "a", "v": "b", "size": 2},
            {"u": "b", "v": "c", "size": 3},
            {"u": "a", "v": "c", "size": 4},
        ],
    }
    path.write_text(json.dumps(doc))
    return str(path)


# -------------------------------------------------------------------- gen


def test_gen_writes_a_valid_network(tmp_path, capsys):
    out = tmp_path / "net.json"
    assert main(["gen", "--n", "8", "--seed", "3", "-o", str(out)]) == 0
    net = parse_network(out.read_text())
    assert net.nodes == tuple(f"T{i}" for i in range(1, 9))
    expected = generate_random_tree_network(8, 3)
    assert net.edges == expected.edges
    assert out.read_text() == expected.to_json() + "\n"


def test_gen_stdout_and_default_seed(capsys):
    assert main(["gen", "--n", "5"]) == 0
    text = capsys.readouterr().out
    assert parse_network(text).edges == generate_random_tree_network(5, 0).edges


def test_gen_respects_dim_flags(capsys):
    assert main(["gen", "--n", "6", "--dim-lo", "7", "--dim-hi", "7"]) == 0
    net = parse_network(capsys.readouterr().out)
    assert all(s == 7 for _, _, s in net.edges)


def test_gen_unwritable_output_is_a_validation_error(tmp_path, capsys):
    out = tmp_path / "no-such-dir" / "x.json"
    assert main(["gen", "--n", "4", "-o", str(out)]) == 2
    err = capsys.readouterr().err
    assert "cannot write" in err and "Traceback" not in err
    assert not out.exists()


def test_bench_unwritable_output_is_a_validation_error(tmp_path, capsys, monkeypatch):
    def run_benchmark(*args, **kwargs):
        pytest.fail("the benchmark ran before its output was opened")

    monkeypatch.setattr("tnorder.bench.run_benchmark", run_benchmark)
    out = tmp_path / "no-such-dir" / "x.out"
    for flag in ("-o", "--chart"):
        code = main(["bench", "--sizes", "5", "--instances", "1",
                     "--algorithms", "iks", flag, str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot write" in err and "Traceback" not in err
        assert not out.exists()


def closed_pipe():
    read_end, write_end = os.pipe()
    os.close(read_end)
    return os.fdopen(write_end, "w")


def _env(buffered):
    """The caller's environment with PYTHONUNBUFFERED unset, or set to 1."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    return env


STDOUT_SINKS = {
    "closed-pipe": (closed_pipe, "[Errno 32] Broken pipe"),
    "dev-full": (lambda: open("/dev/full", "w"), "[Errno 28] No space left on device"),
}


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("sink", STDOUT_SINKS)
@pytest.mark.parametrize("command", ["gen", "order", "order -o", "cost", "bench -o"])
def test_unwritable_stdout_is_one_error_line(five_tensor_file, tmp_path, command, sink,
                                             buffered):
    if sink == "dev-full" and not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full here")
    plan = tmp_path / "plan.json"
    plan.write_text('{"type": "linear", "order": ["T4", "T3", "T2", "T5", "T1"]}')
    order = ["order", "--algorithm", "iks", "--network", five_tensor_file]
    argv = {
        "gen": ["gen", "--n", "100"],
        "order": order,
        "order -o": [*order, "-o", str(tmp_path / "out.json")],
        "cost": ["cost", "--network", five_tensor_file, "--plan", str(plan)],
        "bench -o": ["bench", "--sizes", "5", "--instances", "1",
                     "--algorithms", "iks", "-o", str(tmp_path / "b.csv")],
    }[command]
    opened, reason = STDOUT_SINKS[sink]
    # a buffered stdout fails at the flush and keeps its bytes for the one at exit
    with opened() as stdout:
        run = subprocess.run([sys.executable, "-m", "tnorder", *argv], env=_env(buffered),
                             stdout=stdout, stderr=subprocess.PIPE, text=True)
    # no traceback, and nothing more when the interpreter flushes at exit
    assert (run.returncode, run.stderr) == (2, f"error: cannot write stdout: {reason}\n")


@pytest.mark.parametrize("command", ["gen", "order", "cost"])
def test_closed_stdout_is_one_error_line(five_tensor_file, tmp_path, command):
    # with file descriptor 1 closed, Python starts with sys.stdout None
    plan = tmp_path / "plan.json"
    plan.write_text('{"type": "linear", "order": ["T4", "T3", "T2", "T5", "T1"]}')
    argv = {
        "gen": ["gen", "--n", "5"],
        "order": ["order", "--algorithm", "iks", "--network", five_tensor_file],
        "cost": ["cost", "--network", five_tensor_file, "--plan", str(plan)],
    }[command]
    for buffered in (True, False):
        run = subprocess.run([sys.executable, "-m", "tnorder", *argv], env=_env(buffered),
                             preexec_fn=lambda: os.close(1),
                             stderr=subprocess.PIPE, text=True)
        assert (run.returncode, run.stderr) == (
            2, "error: cannot write stdout: it is closed\n"), buffered


@pytest.mark.parametrize("command", ["order --trace", "order --order", "bench", "gen"])
def test_closed_stderr_exits_2_when_written(five_tensor_file, command):
    # with file descriptor 2 closed, Python starts with sys.stderr None: a
    # call that writes stderr exits 2 and keeps what it printed before;
    # one that does not write stderr is unaffected
    order = ["order", "--algorithm", "iks", "--network", five_tensor_file]
    argv, code, stdout = {
        "order --trace": ([*order, "--trace"], 2, ""),
        "order --order": ([*order, "--order", "x"], 2, ""),
        # the CSV goes to stdout, then the summary fails on stderr
        "bench": (["bench", "--sizes", "5", "--instances", "1", "--algorithms", "iks"], 2,
                  "algorithm,n,instance,seed,cost,timed_out\niks,5,0,5000000,294,false\n"),
        "gen": (["gen", "--n", "5"], 0, generate_random_tree_network(5, 0).to_json() + "\n"),
    }[command]
    for buffered in (True, False):
        run = subprocess.run([sys.executable, "-m", "tnorder", *argv], env=_env(buffered),
                             preexec_fn=lambda: os.close(2),
                             stdout=subprocess.PIPE, text=True)
        out = _cut_wall(run.stdout) if command == "bench" else run.stdout
        assert (run.returncode, out) == (code, stdout), buffered


@pytest.mark.parametrize("algorithm", ["iks", "mst-iks", "dp-linear"])
def test_unwritable_stderr_under_trace_exits_2(five_tensor_file, algorithm):
    # iks and mst-iks fail writing the trace, dp-linear writing its note; the
    # error line cannot be written either, so the exit code is the report
    if not os.path.exists("/dev/full"):
        pytest.skip("no /dev/full here")
    argv = ["order", "--algorithm", algorithm, "--trace", "--network", five_tensor_file]
    for buffered in (True, False):
        with open("/dev/full", "w") as stderr:
            run = subprocess.run([sys.executable, "-m", "tnorder", *argv],
                                 env=_env(buffered), stdout=subprocess.PIPE,
                                 stderr=stderr, text=True)
        assert (run.returncode, run.stdout) == (2, ""), buffered


def test_gen_rejects_bad_n(capsys):
    assert main(["gen", "--n", "1"]) == 2
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------------ order


def test_order_iks_five_tensor(five_tensor_file, tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    code = main(
        ["order", "--algorithm", "iks", "--network", five_tensor_file, "-o", str(plan_file)]
    )
    assert code == 0
    assert capsys.readouterr().out == "45\n"
    plan = parse_plan(plan_file.read_text())
    assert isinstance(plan, LinearPlan)
    net = to_network(*five_tensor_data())
    assert evaluate_linear(net, plan).cost == 45


def test_order_without_output_prints_plan_then_cost(five_tensor_file, capsys):
    assert main(["order", "--algorithm", "dp-linear", "--network", five_tensor_file]) == 0
    out = capsys.readouterr().out
    plan_line, cost_line = out.strip().splitlines()
    assert parse_plan(plan_line)
    assert cost_line == "45"


def test_order_dp_general(five_tensor_file, capsys):
    assert main(["order", "--algorithm", "dp-general", "--network", five_tensor_file]) == 0
    plan_line, cost_line = capsys.readouterr().out.strip().splitlines()
    assert json.loads(plan_line)["type"] == "tree"
    assert cost_line == "45"


def test_order_lin_dp_defaults_to_tree_optimum(five_tensor_file, capsys):
    assert main(["order", "--algorithm", "lin-dp", "--network", five_tensor_file]) == 0
    plan_line, cost_line = capsys.readouterr().out.strip().splitlines()
    assert json.loads(plan_line)["type"] == "tree"
    assert cost_line == "45"


def test_order_lin_dp_defaults_to_mst_iks_off_trees(tmp_path, capsys):
    tree = generate_random_tree_network(12, 5)
    extra = [("T1", "T7", 6), ("T3", "T12", 2), ("T5", "T9", 9), ("T2", "T11", 4)]
    net = TensorNetwork(tree.open_mult, [*tree.edges, *extra])
    net_file = tmp_path / "loopy.json"
    net_file.write_text(net.to_json())
    assert main(["order", "--algorithm", "lin-dp", "--network", str(net_file)]) == 0
    tree_plan, cost = linearized_dp(net, order_arbitrary(net)[0])
    assert capsys.readouterr().out == f"{TreePlan(tree_plan).to_json()}\n{cost}\n"


def test_order_lin_dp_with_explicit_base(matrix_file, tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text(LinearPlan(("A", "C", "B")).to_json())
    code = main(
        ["order", "--algorithm", "lin-dp", "--network", matrix_file,
         "--order", str(base)]
    )
    assert code == 0
    plan_line, cost_line = capsys.readouterr().out.strip().splitlines()
    assert cost_line == "45000"
    assert json.loads(plan_line)["root"] == ["A", ["C", "B"]]


def test_order_lin_dp_rejects_tree_base(matrix_file, tmp_path, capsys):
    base = tmp_path / "base.json"
    base.write_text('{"type": "tree", "root": [["A", "B"], "C"]}')
    code = main(
        ["order", "--algorithm", "lin-dp", "--network", matrix_file,
         "--order", str(base)]
    )
    assert code == 2
    assert "linear plan" in capsys.readouterr().err


def test_order_mst_iks_triangle(triangle_file, capsys):
    assert main(["order", "--algorithm", "mst-iks", "--network", triangle_file]) == 0
    plan_line, cost_line = capsys.readouterr().out.strip().splitlines()
    assert cost_line == "30"
    assert json.loads(plan_line)["order"] == ["a", "c", "b"]


def test_order_iks_refuses_non_tree(triangle_file, capsys):
    assert main(["order", "--algorithm", "iks", "--network", triangle_file]) == 2
    assert "tree" in capsys.readouterr().err


def test_order_dp_general_size_bound_exit_code(tmp_path, capsys):
    net_file = tmp_path / "big.json"
    net_file.write_text(generate_random_tree_network(17, 0).to_json())
    code = main(["order", "--algorithm", "dp-general", "--network", str(net_file)])
    assert code == 3
    assert "17" in capsys.readouterr().err


def test_order_lin_dp_size_bound_exit_code(tmp_path, capsys):
    n = LIN_DP_MAX_NODES + 1
    net_file = tmp_path / "big.json"
    net_file.write_text(generate_random_tree_network(n, 0).to_json())
    code = main(["order", "--algorithm", "lin-dp", "--network", str(net_file)])
    assert code == 3
    assert f"network has {n} nodes" in capsys.readouterr().err


def test_order_lin_dp_refuses_before_the_base_order(tmp_path, capsys, monkeypatch):
    # the default base order is mst-iks's, a whole iks pass; an oversized
    # network never reaches it. linearized_dp reads the name in oracles
    from tnorder import heuristics, oracles

    def no_base_order(net, **kwargs):
        raise AssertionError("base order computed for a refused network")

    for module in (heuristics, oracles):
        monkeypatch.setattr(module, "order_arbitrary", no_base_order)
    n = LIN_DP_MAX_NODES + 1
    net_file = tmp_path / "big.json"
    net_file.write_text(generate_random_tree_network(n, 0).to_json())
    code = main(["order", "--algorithm", "lin-dp", "--network", str(net_file)])
    assert code == 3
    assert capsys.readouterr().err.endswith(
        f"network has {n} nodes; the interval DP is bounded at {LIN_DP_MAX_NODES}\n"
    )


def test_order_dp_linear_subset_bound_exit_code(tmp_path, capsys):
    # 26 nodes pass the node bound, but a star has 2^25 + 25 connected
    # subsets: refused before any work, where the DP would run for hours
    net_file = tmp_path / "star.json"
    net_file.write_text(TensorNetwork(
        [f"S{i}" for i in range(26)], [("S0", f"S{i}", 2) for i in range(1, 26)]
    ).to_json())
    start = time.monotonic()
    code = main(["order", "--algorithm", "dp-linear", "--network", str(net_file)])
    assert code == 3
    assert time.monotonic() - start < 10
    assert f"at least {2**25 + 25} connected subsets" in capsys.readouterr().err


def test_order_trace_goes_to_stderr(five_tensor_file, tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    code = main(
        ["order", "--algorithm", "iks", "--network", five_tensor_file,
         "-o", str(plan_file), "--trace"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == "45\n"
    lines = [json.loads(line) for line in captured.err.splitlines()]
    assert {"root": "T4", "cost": 45, "chain": 3, "fused": 1} in lines
    assert {"lead": "T1", "members": 1, "P": 1, "Q": 1, "Cn": 1} in lines
    assert parse_plan(plan_file.read_text()).order[0] == "T3"


def test_order_trace_note_for_other_algorithms(five_tensor_file, capsys):
    assert main(["order", "--algorithm", "dp-linear", "--network", five_tensor_file,
                 "--trace"]) == 0
    assert "--trace applies" in capsys.readouterr().err



@pytest.mark.parametrize("algorithm", ["iks", "dp-linear", "dp-general", "mst-iks"])
def test_order_note_for_other_algorithms(algorithm, five_tensor_file, tmp_path, capsys):
    # --order sets lin-dp's base order; any other algorithm says it is unused
    base_file = tmp_path / "base.json"
    base_file.write_text(LinearPlan(("T3", "T4", "T2", "T5", "T1")).to_json())
    argv = ["order", "--algorithm", algorithm, "--network", five_tensor_file]
    assert main(argv) == 0
    plain = capsys.readouterr()
    assert main([*argv, "--order", str(base_file)]) == 0
    assert capsys.readouterr() == (plain.out, "note: --order applies to lin-dp only\n")


# `order --trace` stderr for the five-tensor fixture and for a tree with
# open legs, whose chains keep several entries: one line per rooting in
# the order the solver walks them, then the winning chain after its head
FIVE_TENSOR_TRACE = """\
{"root": "T1", "cost": 59, "chain": 1, "fused": 3}
{"root": "T2", "cost": 48, "chain": 3, "fused": 1}
{"root": "T5", "cost": 48, "chain": 2, "fused": 1}
{"root": "T4", "cost": 45, "chain": 3, "fused": 1}
{"root": "T3", "cost": 45, "chain": 2, "fused": 1}
{"lead": "T2", "members": 2, "P": 6, "Q": 36, "Cn": 84}
{"lead": "T1", "members": 1, "P": 1, "Q": 1, "Cn": 1}
"""
OPEN_LEGS_NETWORK = {
    "nodes": [{"id": "T1", "open": 50}, {"id": "T2", "open": 50},
              {"id": "T3", "open": 50}, {"id": "T4"}, {"id": "T5", "open": 50}],
    "edges": [{"u": "T2", "v": "T1", "size": 2}, {"u": "T3", "v": "T2", "size": 2},
              {"u": "T4", "v": "T2", "size": 4}, {"u": "T5", "v": "T4", "size": 4}],
}
OPEN_LEGS_TRACE = """\
{"root": "T1", "cost": 13620000, "chain": 3, "fused": 1}
{"root": "T2", "cost": 13043200, "chain": 4, "fused": 0}
{"root": "T3", "cost": 13620000, "chain": 3, "fused": 0}
{"root": "T4", "cost": 13040800, "chain": 4, "fused": 0}
{"root": "T5", "cost": 13040800, "chain": 3, "fused": 0}
{"lead": "T5", "members": 1, "P": 200, "Q": 16, "Cn": 800}
{"lead": "T2", "members": 1, "P": 800, "Q": 16, "Cn": 3200}
{"lead": "T1", "members": 1, "P": 100, "Q": 4, "Cn": 200}
{"lead": "T3", "members": 1, "P": 100, "Q": 4, "Cn": 200}
"""


def test_order_trace_bytes_are_pinned(five_tensor_file, tmp_path, capsys):
    open_file = tmp_path / "open.json"
    open_file.write_text(json.dumps(OPEN_LEGS_NETWORK))
    cases = [
        (five_tensor_file, FIVE_TENSOR_TRACE, "45"),
        (str(open_file), OPEN_LEGS_TRACE, "13040800"),
    ]
    for net_file, trace, cost in cases:
        assert main(["order", "--algorithm", "iks", "--network", net_file,
                     "-o", str(tmp_path / "plan.json"), "--trace"]) == 0
        assert capsys.readouterr() == (cost + "\n", trace)


def test_order_trace_linearizes_each_root_once(five_tensor_file, capsys, monkeypatch):
    import tnorder.iks

    calls = {"linearized_chain": [], "_rootings": []}
    for name, seen in calls.items():
        real = getattr(tnorder.iks, name)

        def counted(pg, *args, real=real, seen=seen):
            seen.append(pg.root)
            return real(pg, *args)

        monkeypatch.setattr(tnorder.iks, name, counted)
    assert main(["order", "--algorithm", "iks", "--network", five_tensor_file,
                 "--trace"]) == 0
    assert capsys.readouterr().err == FIVE_TENSOR_TRACE
    # the trace and the plan come from one rooting walk, which builds its
    # subtree chains once, rooted at the first node
    assert calls == {"linearized_chain": [], "_rootings": ["T1"]}


def test_order_mst_iks_trace_is_one_pass(tmp_path, capsys, monkeypatch):
    import tnorder.heuristics
    import tnorder.iks

    # a 40-node tree with 8 chords: the spanning tree is built once and
    # walked once, and the plan and cost are those of an untraced call
    net_file, plan_file = tmp_path / "loopy.json", tmp_path / "plan.json"
    nodes, edges = random_connected_data(random.Random(40), 40, 8, open_hi=3)
    net_file.write_text(to_network(nodes, edges).to_json())
    argv = ["order", "--algorithm", "mst-iks", "--network", str(net_file),
            "-o", str(plan_file)]
    assert main(argv) == 0
    out, plan = capsys.readouterr().out, plan_file.read_bytes()
    calls = {}
    for module, name in ((tnorder.heuristics, "max_spanning_tree"),
                         (tnorder.iks, "_rootings")):
        real = getattr(module, name)

        def counted(*args, real=real, name=name):
            calls[name] = calls.get(name, 0) + 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)
    assert main([*argv, "--trace"]) == 0
    traced = capsys.readouterr()
    assert calls == {"max_spanning_tree": 1, "_rootings": 1}
    assert (traced.out, plan_file.read_bytes()) == (out, plan)
    lines = [json.loads(line) for line in traced.err.splitlines()]
    assert sorted(line["root"] for line in lines if "root" in line) == sorted(nodes)
    assert len(lines) <= 2 * len(nodes) + 2



@pytest.mark.parametrize("loopy", [False, True])
def test_order_mst_iks_traced_and_untraced_agree(loopy, tmp_path, capsys):
    # on a tree and on a network with chords: the same cost and plan bytes
    # with and without --trace, and both are order_arbitrary's result
    rng = random.Random(41)
    if loopy:
        net = to_network(*random_connected_data(rng, 30, 6, open_hi=3))
    else:
        net = generate_random_tree_network(30, 41)
    net_file, plan_file = tmp_path / "net.json", tmp_path / "plan.json"
    net_file.write_text(net.to_json())
    argv = ["order", "--algorithm", "mst-iks", "--network", str(net_file),
            "-o", str(plan_file)]
    runs = []
    for extra in ([], ["--trace"]):
        assert main(argv + extra) == 0
        runs.append((capsys.readouterr().out, plan_file.read_bytes()))
    order, cost = order_arbitrary(net)
    expected = (f"{cost}\n", (LinearPlan(order).to_json() + "\n").encode())
    assert runs == [expected, expected]


@pytest.mark.parametrize("algorithm", ["iks", "dp-linear", "dp-general", "lin-dp", "mst-iks"])
def test_order_one_node_network(algorithm, tmp_path, capsys):
    net_file, plan_file = tmp_path / "one.json", tmp_path / "plan.json"
    net_file.write_text(TensorNetwork({"x": 3}, []).to_json())
    assert main(["order", "--algorithm", algorithm, "--network", str(net_file),
                 "-o", str(plan_file)]) == 0
    assert capsys.readouterr().out == "0\n"
    tree = algorithm in ("dp-general", "lin-dp")
    plan = TreePlan("x") if tree else LinearPlan(("x",))
    assert plan_file.read_text() == plan.to_json() + "\n"
    assert main(["cost", "--network", str(net_file), "--plan", str(plan_file)]) == 0
    assert capsys.readouterr().out == "0\n"

def test_order_trace_costs_match_each_rooting(tmp_path, capsys):
    # fresh file names per tree: rewriting one file in place moments after
    # its last rewrite can stall for tens of ms on some file systems
    for i, (nodes, edges) in enumerate(small_trees()):
        net = to_network(nodes, edges)
        net_file = tmp_path / f"net{i}.json"
        net_file.write_text(net.to_json())
        assert main(["order", "--algorithm", "iks", "--network", str(net_file),
                     "-o", str(tmp_path / f"plan{i}.json"), "--trace"]) == 0
        out, err = capsys.readouterr()
        lines = [json.loads(line) for line in err.splitlines()]
        traced = [(line["root"], line["cost"]) for line in lines if "root" in line]
        assert sorted(root for root, _ in traced) == sorted(nodes)
        for root, cost in traced:
            assert cost == linearize_reference(build_precedence_graph(net, root))[1]
        assert out == f"{min(cost for _, cost in traced)}\n"


def test_readme_quick_start(tmp_path, capsys):
    net_file, plan_file = tmp_path / "net.json", tmp_path / "plan.json"
    assert main(["gen", "--n", "4", "--seed", "3", "-o", str(net_file)]) == 0
    assert main(["order", "--algorithm", "iks", "--network", str(net_file),
                 "-o", str(plan_file)]) == 0
    assert capsys.readouterr().out == "213\n"
    assert plan_file.read_text() == (
        '{"type": "linear", "order": ["T2", "T3", "T1", "T4"]}\n'
    )
    assert main(["cost", "--network", str(net_file), "--plan", str(plan_file)]) == 0
    assert capsys.readouterr().out == "213\n"


def test_missing_network_file(capsys):
    assert main(["order", "--algorithm", "iks", "--network", "/no/such.json"]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_bad_network_json_names_the_element(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [{"id": "a"}, {"id": "b"}], '
                   '"edges": [{"u": "a", "v": "b"}]}')
    assert main(["order", "--algorithm", "iks", "--network", str(bad)]) == 2
    assert "edges[0]" in capsys.readouterr().err


def test_semantic_network_error_is_surfaced(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [{"id": "a"}, {"id": "b"}], '
                   '"edges": [{"u": "a", "v": "b", "size": -2}]}')
    assert main(["order", "--algorithm", "iks", "--network", str(bad)]) == 2
    assert "must be >= 1" in capsys.readouterr().err


def test_true_edge_endpoint_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"nodes": [{"id": 1}, {"id": "b"}], '
                   '"edges": [{"u": true, "v": "b", "size": 2}]}')
    assert main(["order", "--algorithm", "iks", "--network", str(bad)]) == 2
    assert capsys.readouterr().err == "error: edge references unknown node id True\n"


def test_huge_malformed_record_gives_a_short_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"nodes": [list(range(200_000))], "edges": []}))
    assert main(["order", "--algorithm", "iks", "--network", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: nodes[0] is malformed: [0, 1, 2,")
    assert len(err.encode()) < 1024


@pytest.mark.parametrize("text, start", [
    (json.dumps({"nodes": [{"id": "x" * 200_000}, {"id": "x" * 200_000}], "edges": []}),
     "error: duplicate node id 'xxx"),
    ('{"nodes": [{"id": "a"}, {"id": "b"}], '
     '"edges": [{"u": "a", "v": "b", "size": -1' + "0" * 5000 + '}]}',
     "error: size of edge 'a'-'b' must be >= 1, got <negative integer of 5001 digits>"),
], ids=["duplicate-id", "huge-edge-size"])
def test_order_cuts_huge_ids_and_integers(tmp_path, capsys, text, start):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    assert main(["order", "--algorithm", "iks", "--network", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(start)
    assert len(err.encode()) < 1024


def test_cost_cuts_huge_echoed_values(five_tensor_file, tmp_path, capsys):
    huge = list(range(200_000))
    bad_net, bad_plan = tmp_path / "bad_net.json", tmp_path / "bad_plan.json"
    bad_net.write_text(json.dumps({"nodes": [huge], "edges": []}))
    bad_plan.write_text(json.dumps({"type": "tree", "root": [huge, "T1"]}))
    for network, plan, start in (
        (str(bad_net), str(bad_plan), "error: nodes[0] is malformed: [0, 1, 2,"),
        (five_tensor_file, str(bad_plan), "error: tree node must be a pair, got [0, 1, 2,"),
    ):
        assert main(["cost", "--network", network, "--plan", plan]) == 2
        err = capsys.readouterr().err
        assert err.startswith(start)
        assert len(err.encode()) < 1024


def test_undecodable_files_are_validation_errors(
    five_tensor_file, tmp_path, capsys
):
    bad = tmp_path / "latin1.json"
    bad.write_bytes('{"nodes": [{"id": "\u00e9"}], "edges": []}'.encode("latin-1"))
    assert main(["order", "--algorithm", "iks", "--network", str(bad)]) == 2
    assert "cannot read" in capsys.readouterr().err
    assert main(["cost", "--network", five_tensor_file, "--plan", str(bad)]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_deep_tree_plan_is_a_validation_error(tmp_path, capsys):
    # 1,499 levels, past json.loads' depth limit: read by the deep reader,
    # which prices it and rejects it cut short, without a traceback
    net_file, plan_file = tmp_path / "net.json", tmp_path / "plan.json"
    net_file.write_text(generate_random_tree_network(1500, 0).to_json())
    text = ('{"type": "tree", "root": ' + "[" * 1499 + '"T1"'
            + "".join(f', "T{i}"]' for i in range(2, 1501)) + "}")
    order = [f"T{i}" for i in range(1, 1501)]
    plan_file.write_text(text)
    assert main(["cost", "--network", str(net_file), "--plan", str(plan_file)]) == 0
    out = capsys.readouterr().out
    assert out == f"{evaluate_linear(parse_network(net_file.read_text()), order).cost}\n"
    plan_file.write_text(text[:-2])
    assert main(["cost", "--network", str(net_file), "--plan", str(plan_file)]) == 2
    err = capsys.readouterr().err
    assert "not valid JSON" in err and "Traceback" not in err


def test_deeply_nested_network_file_is_a_validation_error(tmp_path, capsys):
    bad = tmp_path / "deep.json"
    # past json.loads' depth limit on every release: 3.13 reads 3,000 levels
    bad.write_text('{"nodes": ' + "[" * 100_000 + "]" * 100_000 + ', "edges": []}')
    assert main(["order", "--algorithm", "iks", "--network", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "nested too deeply" in err and "Traceback" not in err


def _acceptance_networks(n):
    # a 5,000-node path with open legs and a 5,000-node star; the package
    # generator only makes random trees
    rng = random.Random(5000)
    ids = [f"T{i}" for i in range(n)]
    nodes = [{"id": v, "open": rng.randint(1, 3)} for v in ids]
    path = [{"u": ids[i], "v": ids[i + 1], "size": rng.randint(2, 10)}
            for i in range(n - 1)]
    star = [{"u": ids[0], "v": v, "size": rng.randint(2, 10)} for v in ids[1:]]
    return {"path": {"nodes": nodes, "edges": path},
            "star": {"nodes": nodes, "edges": star}}


@pytest.mark.parametrize("shape", ["path", "star"])
def test_order_and_cost_at_5000_nodes(shape, tmp_path, capsys):
    net_file = tmp_path / "net.json"
    linear, deep = tmp_path / "linear.json", tmp_path / "deep.json"
    net_file.write_text(json.dumps(_acceptance_networks(5000)[shape]))
    assert main(["order", "--algorithm", "iks", "--network", str(net_file),
                 "-o", str(linear)]) == 0
    cost = capsys.readouterr().out
    order = parse_plan(linear.read_text()).order
    left_deep = order[0]
    for v in order[1:]:
        left_deep = (left_deep, v)
    deep.write_text(TreePlan(left_deep).to_json())
    for plan in (linear, deep):
        assert main(["cost", "--network", str(net_file), "--plan", str(plan)]) == 0
        assert capsys.readouterr() == (cost, "")


# ------------------------------------------------------------------ fuzz

FUZZ_NETWORKS = [
    to_network(*five_tensor_data()).to_json(),
    json.dumps({"nodes": [{"id": "a"}, {"id": "b", "open": 3}, {"id": "c"}],
                "edges": [{"u": "a", "v": "b", "size": 2}, {"u": "b", "v": "c", "size": 3},
                          {"u": "a", "v": "c", "size": 4}]}),
    generate_random_tree_network(7, 3).to_json(),
]
FUZZ_PLANS = [
    '{"type": "linear", "order": ["T4", "T3", "T2", "T5", "T1"]}',
    '{"type": "tree", "root": [["T4", "T3"], ["T2", ["T5", "T1"]]]}',
]
FUZZ_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-(10**40), 10**40)
    | st.floats() | st.text(max_size=4) | st.sampled_from(["T1", "a", 0, 1, 2]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["id", "open", "u", "v", "size", "type",
                                       "order", "root", "nodes", "edges", "x"]),
                      inner, max_size=3),
    max_leaves=8,
)


def _slots(doc):
    """Every (container, key) in a JSON document, without recursion."""
    slots, stack = [], [doc]
    while stack:
        item = stack.pop()
        keys = range(len(item)) if type(item) is list else item if type(item) is dict else ()
        for key in keys:
            slots.append((item, key))
            stack.append(item[key])
    return slots


@st.composite
def mutated(draw, texts):
    """One of ``texts`` with one structural or one textual change."""
    text = draw(st.sampled_from(texts))
    how = draw(st.sampled_from(["value", "delete", "cut", "char"]))
    if how in ("value", "delete"):
        doc = json.loads(text)
        slots = _slots(doc)
        container, key = draw(st.sampled_from(slots))
        if how == "value":
            container[key] = draw(FUZZ_VALUES)
        else:
            del container[key]
        return json.dumps(doc)
    at = draw(st.integers(0, len(text)))
    if how == "cut":
        return text[:at]
    return text[:at] + draw(st.sampled_from('[]{},:"0-9.e \\xT')) + text[at + 1 :]


@settings(max_examples=300, deadline=None)
@given(
    mutated(FUZZ_NETWORKS),
    mutated(FUZZ_PLANS),
    st.sampled_from(["cost", "iks", "dp-linear", "dp-general", "lin-dp", "mst-iks"]),
    st.booleans(),
)
def test_cli_fuzz_exits_cleanly(tmp_path_factory, net_text, plan_text, command, flag):
    # mutated network and plan files end in exit 0, 2 or 3 with a short
    # message, never in an exception (a traceback from the console script)
    folder = tmp_path_factory.mktemp("fuzz")
    net_file, plan_file = folder / "net.json", folder / "plan.json"
    net_file.write_text(net_text)
    plan_file.write_text(plan_text)
    if command == "cost":
        argv = ["cost", "--network", str(net_file), "--plan", str(plan_file)]
    else:
        argv = ["order", "--algorithm", command, "--network", str(net_file),
                "-o", str(folder / "out.json")]
        if flag and command == "lin-dp":
            argv += ["--order", str(plan_file)]
        elif flag:
            argv.append("--trace")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 2, 3)
    if code == 0 and "--trace" in argv and command == "iks":
        for line in err.getvalue().splitlines():
            json.loads(line)
    else:
        assert len(err.getvalue().encode()) <= 1024
    if code:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


def test_unknown_algorithm_is_a_usage_error(five_tensor_file):
    with pytest.raises(SystemExit) as exc:
        main(["order", "--algorithm", "magic", "--network", five_tensor_file])
    assert exc.value.code == 2


# ------------------------------------------------------------------- cost


def test_cost_round_trip(five_tensor_file, tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    main(["order", "--algorithm", "iks", "--network", five_tensor_file, "-o", str(plan_file)])
    capsys.readouterr()
    assert main(["cost", "--network", five_tensor_file, "--plan", str(plan_file)]) == 0
    assert capsys.readouterr().out == "45\n"


def test_cost_tree_plan(matrix_file, tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text('{"type": "tree", "root": [["A", "B"], "C"]}')
    assert main(["cost", "--network", matrix_file, "--plan", str(plan_file)]) == 0
    assert capsys.readouterr().out == "16000\n"


def test_cost_warns_on_outer_products(matrix_file, tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text('{"type": "linear", "order": ["A", "C", "B"]}')
    assert main(["cost", "--network", matrix_file, "--plan", str(plan_file)]) == 0
    captured = capsys.readouterr()
    assert captured.out == "600000\n"
    assert "outer products" in captured.err


def test_cost_validates_cover(five_tensor_file, tmp_path, capsys):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text('{"type": "linear", "order": ["T1", "T2"]}')
    assert main(["cost", "--network", five_tensor_file, "--plan", str(plan_file)]) == 2


# ------------------------------------------------------------------ bench


def test_bench_csv_file_and_summary(tmp_path, capsys):
    csv_file = tmp_path / "results.csv"
    chart_file = tmp_path / "chart.svg"
    code = main(
        ["bench", "--sizes", "5:6", "--instances", "2",
         "--timeout-ms", "10000", "-o", str(csv_file),
         "--chart", str(chart_file)]
    )
    assert code == 0
    with open(csv_file, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert tuple(header) == CSV_HEADER
    assert [(r[0], r[1], r[2]) for r in rows] == [
        (alg, n, i) for n in "56" for i in "01" for alg in ("dp-linear", "iks")
    ]
    assert chart_file.read_text().startswith("<svg")
    summary = capsys.readouterr().out
    assert "algorithm" in summary and "dp-linear" in summary


def test_bench_stdout_csv_summary_to_stderr(capsys):
    code = main(["bench", "--sizes", "5", "--instances", "1",
                 "--algorithms", "iks"])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0].startswith("algorithm,n,instance")
    assert "mean_wall_us" in captured.err


def test_bench_output_file_matches_stdout_csv(tmp_path, capsys, monkeypatch):
    records = [
        BenchRecord("dp-linear", 5, 0, 5000000, 10**40 + 1, 123, False),
        BenchRecord("iks", 5, 0, 5000000, None, 456, True),
    ]
    monkeypatch.setattr("tnorder.bench.run_benchmark", lambda *a, **k: records)
    argv = ["bench", "--sizes", "5", "--instances", "1"]
    assert main(argv) == 0
    stdout_csv = capsys.readouterr().out
    csv_file = tmp_path / "results.csv"
    assert main([*argv, "-o", str(csv_file)]) == 0
    assert csv_file.read_bytes() == stdout_csv.encode()
    assert stdout_csv.splitlines()[1:] == [
        f"dp-linear,5,0,5000000,{10**40 + 1},123,false",
        "iks,5,0,5000000,,456,true",
    ]


# the CSV of `bench --sizes 5:6,31:32 --instances 2 --algorithms dp-linear,iks`
# with wall_time_us cut out; the linear DP refuses n = 31 and 32 before any work
PINNED_BENCH_ROWS = """\
algorithm,n,instance,seed,cost,timed_out
dp-linear,5,0,5000000,294,false
iks,5,0,5000000,294,false
dp-linear,5,1,5000001,94,false
iks,5,1,5000001,94,false
dp-linear,6,0,6000000,385,false
iks,6,0,6000000,385,false
dp-linear,6,1,6000001,1105,false
iks,6,1,6000001,1105,false
iks,31,0,31000000,6708,false
iks,31,1,31000001,35361,false
iks,32,0,32000000,18560,false
iks,32,1,32000001,7290,false
"""


def _cut_wall(csv_text):
    """A bench CSV with its wall_time_us column cut out."""
    wall = CSV_HEADER.index("wall_time_us")
    rows = csv.reader(io.StringIO(csv_text))
    return "".join(",".join(r[:wall] + r[wall + 1:]) + "\n" for r in rows)


def test_bench_csv_is_pinned(capsys):
    code = main(["bench", "--sizes", "5:6,31:32", "--instances", "2",
                 "--algorithms", "dp-linear,iks"])
    assert code == 0
    assert _cut_wall(capsys.readouterr().out) == PINNED_BENCH_ROWS


def test_bench_size_list_parsing(capsys):
    code = main(["bench", "--sizes", "5,7", "--instances", "1",
                 "--algorithms", "iks"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3  # header + one row per size


def test_bench_bad_sizes(capsys):
    assert main(["bench", "--sizes", "8:5", "--instances", "1"]) == 2
    assert main(["bench", "--sizes", "abc", "--instances", "1"]) == 2
    assert main(["bench", "--sizes", "", "--instances", "1"]) == 2
    capsys.readouterr()


def test_bench_unknown_algorithm(capsys):
    assert main(["bench", "--sizes", "5", "--algorithms", "magic"]) == 2
    assert "unknown benchmark algorithm" in capsys.readouterr().err


def test_bench_empty_algorithm_list(capsys):
    assert main(["bench", "--sizes", "4", "--algorithms", ""]) == 2
    assert capsys.readouterr() == ("", "error: no benchmark algorithms given\n")


# each a bench argument error; a later flag overrides the valid one before it
BENCH_ARGUMENT_ERRORS = {
    "unknown algorithm": ["--algorithms", "magic"],
    "empty algorithm list": ["--algorithms", ""],
    "repeated algorithm": ["--algorithms", "iks,iks,dp-linear"],
    "no instances": ["--instances", "0"],
    "negative timeout": ["--timeout-ms", "-1"],
    "size 1": ["--sizes", "1"],
    "dim-lo 0": ["--dim-lo", "0"],
}


@pytest.mark.parametrize("error", BENCH_ARGUMENT_ERRORS)
def test_bench_argument_error_leaves_outputs_untouched(error, tmp_path, capsys):
    csv_file, chart_file = tmp_path / "b.csv", tmp_path / "c.svg"
    csv_file.write_bytes(b"an earlier CSV\n")
    chart_file.write_bytes(b"<svg>an earlier chart</svg>\n")
    code = main(["bench", "--sizes", "4", "--instances", "1", "--algorithms", "iks",
                 *BENCH_ARGUMENT_ERRORS[error], "-o", str(csv_file),
                 "--chart", str(chart_file)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert csv_file.read_bytes() == b"an earlier CSV\n"
    assert chart_file.read_bytes() == b"<svg>an earlier chart</svg>\n"


# ------------------------------------------------------------- entry point


def test_module_entry_point(five_tensor_file, tmp_path):
    env = dict(os.environ, PYTHONHASHSEED="1")
    run = subprocess.run(
        [sys.executable, "-m", "tnorder", "order", "--algorithm", "iks",
         "--network", five_tensor_file],
        capture_output=True, text=True, env=env,
    )
    assert run.returncode == 0
    assert run.stdout.strip().splitlines()[-1] == "45"


def test_integers_past_4300_digits(tmp_path):
    # Python 3.10.7+ refuses int <-> str conversions past 4,300 digits by
    # default; run in a subprocess so this process keeps its own limit.
    # A 5,001-digit edge size, and 3,000-digit sizes whose outer-product
    # plan costs 2 * (10**2999 + 1)**2, a 5,999-digit integer
    big = "1" + "0" * 4999 + "7"
    mid = "1" + "0" * 2998 + "1"
    two = '{"nodes": [{"id": "A"}, {"id": "B"}], '
    two += '"edges": [{"u": "A", "v": "B", "size": ' + big + "}]}"
    path = '{"nodes": [{"id": "A"}, {"id": "B"}, {"id": "C"}], "edges": ['
    path += '{"u": "A", "v": "B", "size": ' + mid + "}, "
    path += '{"u": "B", "v": "C", "size": ' + mid + "}]}"
    plan = '{"type": "linear", "order": ["A", "C", "B"]}'
    files = {"two": two, "path": path, "plan": plan}
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    two, path, plan = (str(tmp_path / name) for name in files)
    cases = [
        (["order", "--algorithm", "iks", "--network", two], big),
        (["cost", "--network", path, "--plan", plan],
         "2" + "0" * 2998 + "4" + "0" * 2998 + "2"),
    ]
    for argv, cost in cases:
        run = subprocess.run(
            [sys.executable, "-m", "tnorder", *argv], capture_output=True, text=True
        )
        assert run.returncode == 0, run.stderr
        assert "Traceback" not in run.stderr
        assert run.stdout.splitlines()[-1] == cost


def test_console_script_help():
    run = subprocess.run(
        [sys.executable, "-m", "tnorder", "--help"],
        capture_output=True, text=True,
    )
    assert run.returncode == 0
    assert "gen" in run.stdout and "bench" in run.stdout
