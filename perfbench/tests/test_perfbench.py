"""Tests of the benchmark itself: inputs, pricer, digests and tracing.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import math
import random
import signal

import families as fam
import pricer
import pytest
import run
import spans
import workloads as wl


@pytest.fixture(scope="module")
def tn():
    signal.signal(signal.SIGALRM, run._on_alarm)
    return run.import_package()


def texts(ops):
    return [(op.oid, op.net_text, op.plan_text) for op in ops]


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_generators_are_deterministic(workload):
    first = texts(wl.build_ops(workload, 5))
    assert first == texts(wl.build_ops(workload, 5))
    other = texts(wl.build_ops(workload, 6))
    assert [t[0] for t in other] == [t[0] for t in first]
    assert all(a != b for a, b in zip(first, other))


def test_size_ladders_do_not_depend_on_the_seed():
    for workload in wl.WORKLOADS:
        sizes = [[op.net.n for op in wl.build_ops(workload, s)] for s in (1, 2)]
        assert sizes[0] == sizes[1]


def test_families_have_the_promised_shape(tn):
    rng = random.Random(3)
    for name, build in fam.TREE_FAMILIES.items():
        net = build(rng, 40)
        assert net.is_tree(), name
        assert tn.parse_network(fam.network_text(net)).is_tree
    degrees = sorted(len(a) for a in fam.TREE_FAMILIES["star"](rng, 40).adjacency())
    assert degrees[-1] == 39
    assert max(s for _, _, s in fam.TREE_FAMILIES["bigdim"](rng, 40).edges) > 10**20
    loopy = fam.loopy_net(rng, 40, 10)
    assert len(loopy.edges) == 49
    order = fam.connected_order(rng, loopy)
    assert sorted(order) == list(range(40)) and pricer.prefix_connected(loopy, order)


def small_instances(count):
    rng = random.Random(11)
    for k in range(count):
        n = rng.randint(2, 12)
        net = fam.loopy_net(rng, n, rng.randint(0, n // 2) if n > 3 else 0)
        net = fam.Net(tuple(rng.randint(1, 3) for _ in range(n)), net.edges)
        order = list(range(n))
        rng.shuffle(order)  # arbitrary orders include outer products
        yield rng, net, order


def test_pricer_agrees_with_evaluate_linear(tn):
    for _, net, order in small_instances(200):
        tn_net = tn.parse_network(fam.network_text(net))
        ids = net.ids()
        want = tn.evaluate_linear(tn_net, [ids[v] for v in order]).cost
        assert pricer.linear_cost(net, order) == want


def test_pricer_agrees_with_evaluate_tree(tn):
    for rng, net, order in small_instances(200):
        tn_net = tn.parse_network(fam.network_text(net))
        tree = fam.chunked_tree(order, rng.randint(1, 4))
        parsed = tn.parse_plan(fam.tree_plan_text(net, tree))
        assert pricer.tree_cost(net, tree) == tn.evaluate_tree(tn_net, parsed)


def test_pricer_handles_plans_deeper_than_the_recursion_limit():
    rng = random.Random(2)
    net = fam.loopy_net(rng, 3000, 0)
    order = fam.connected_order(rng, net)
    assert pricer.tree_cost(net, fam.left_deep(order)) == pricer.linear_cost(net, order)


def runner_for(tn, workload, pins=None):
    return run.Runner(tn, wl.warmup_ops(workload), pins)


def test_a_corrupted_digest_is_a_failed_op(tn):
    good = runner_for(tn, "exact-baselines")
    good.run_pass(run.Outcome(), math.inf)
    pins = [good.verified[i][1] for i in range(len(good.ops))]
    pins[1] = "0" * 16
    out = run.Outcome()
    runner_for(tn, "exact-baselines", pins).run_pass(out, math.inf)
    assert out.samples[1] == [None] and out.failed == 1
    assert len(out.mismatches) == 1 and "pinned" in out.mismatches[0]


def test_a_corrupted_digest_fails_the_run():
    ops = wl.build_ops("price-plans", 0)
    pins = [None] * len(ops)
    pins[0] = "f" * 16
    correct, attempted, failed, _, notes = run.run_workload("price-plans", 0, 0.0, False, pins)
    assert not correct
    assert any("MISMATCH" in n and "pinned" in n for n in notes)


def test_a_wrong_cost_is_a_mismatch(tn):
    op = wl.warmup_ops("iks-trees")[0]
    order, cost = wl.execute(tn, op)
    with pytest.raises(pricer.Mismatch):
        wl.check(tn, op, (order, cost + 1))


def test_tracer_counts_and_restores_entry_points(tn):
    runner = runner_for(tn, "iks-trees")
    before = tn.iks.linearize_root
    tracer = spans.Tracer(tn)
    tracer.install()
    try:
        runner.run_pass(run.Outcome(), math.inf, tracer)
    finally:
        tracer.uninstall()
    assert tn.iks.linearize_root is before
    n = runner.ops[0].net.n
    assert tracer.counts["precedence.roots"] == n
    assert tracer.counts["iks.fuses"] + tracer.counts["iks.chain_entries"] == n * n
    assert all(own >= 0 for own in tracer.self_times())
    metrics = spans.layer_metrics(tracer, [tracer.layer_times()], tracer.counts)
    assert metrics["precedence.roots"] == (n, "count")
    assert metrics["iks.linearize_s"][0] > 0


def test_a_missed_deadline_is_a_failed_op(tn, monkeypatch):
    monkeypatch.setattr(run, "OP_DEADLINE_S", 0.01)
    slow = [op for op in wl.build_ops("iks-trees", 0) if op.net.n >= 70][:1]
    out = run.Outcome()
    run.Runner(tn, slow, None).run_pass(out, math.inf)
    assert out.samples[0] == [None] and not out.mismatches
    assert [k.split(": ")[1] for k in out.failures] == ["TimeoutError"]


def test_reference_times_cancel_a_slower_host():
    out = run.Outcome()
    for factor in (1.0, 2.0, 1.5):
        host = run.REF_HOST_MS * factor
        for i, ms in enumerate((10.0, 20.0, 40.0)):
            out.samples[i].append(ms * factor)
            out.around[i].append(host)
        out.cli_ms[0].append((100.0 * factor, host))
    out.host = [run.REF_HOST_MS]
    metrics, notes = run.end_to_end(out, (0.5, 0.25))
    assert metrics["op_p50_ref_ms"][0] == pytest.approx(20.0)
    assert metrics["ops_per_ref_s"][0] == pytest.approx(3 / 0.07)
    assert metrics["cli_p50_ref_ms"][0] == pytest.approx(100.0)
    assert metrics["setup_s"] == (0.25, "s")
    assert "op_p50_ms 30.0" in notes[0] and "setup_s 0.5" in notes[0]


def test_a_failed_pass_fails_the_op_in_reference_times():
    out = run.Outcome()
    out.samples[0] += [5.0, 5.0]
    out.samples[1] += [7.0, None]
    for i in (0, 1):
        out.around[i] += [run.REF_HOST_MS] * 2
    out.cli_ms[0] += [(50.0, run.REF_HOST_MS)] * 2
    out.host = [run.REF_HOST_MS]
    metrics, _ = run.end_to_end(out, (0.1, 0.1))
    assert metrics["ops_per_ref_s"][0] == pytest.approx(1 / 0.005)
    assert metrics["op_p90_ref_ms"][0] > 7.0
