import csv
import io
import xml.etree.ElementTree as ET

import pytest

from tnorder import (
    ValidationError,
    dp_linear_optimal,
    generate_random_tree_network,
    iks_order,
    render_chart,
    run_benchmark,
    summarize,
    write_csv,
)
from tnorder.bench import (
    BENCH_ALGORITHMS,
    CSV_HEADER,
    BenchRecord,
    format_summary,
    instance_seed,
)


def strip_wall(records):
    return [(r.algorithm, r.n, r.instance, r.seed, r.cost, r.timed_out) for r in records]


def read_records(text):
    """The records a ``write_csv`` text holds, read back with ``csv``."""
    header, *rows = csv.reader(io.StringIO(text))
    assert tuple(header) == CSV_HEADER
    return [
        BenchRecord(alg, int(n), int(inst), int(seed), int(cost) if cost else None,
                    int(wall), {"true": True, "false": False}[timed_out])
        for alg, n, inst, seed, cost, wall, timed_out in rows
    ]


def test_record_grid_and_sort_order():
    records = run_benchmark([6, 5], instances=3, timeout_ms=10_000)
    assert len(records) == 2 * 3 * 2
    keys = [(r.n, r.instance, r.algorithm) for r in records]
    assert keys == sorted(keys)
    assert {r.algorithm for r in records} == {"iks", "dp-linear"}


def test_seeds_follow_the_documented_formula():
    records = run_benchmark([5], instances=2, master_seed=40, algorithms=["iks"])
    for r in records:
        assert r.seed == instance_seed(40, r.n, r.instance)
        assert r.seed == 40 + 1_000_000 * r.n + r.instance


def test_costs_are_exact_and_agree_across_solvers():
    records = run_benchmark([5, 7], instances=4, timeout_ms=10_000)
    by_key = {}
    for r in records:
        assert not r.timed_out
        by_key.setdefault((r.n, r.instance), {})[r.algorithm] = r.cost
    for (n, inst), costs in by_key.items():
        assert costs["iks"] == costs["dp-linear"]
        net = generate_random_tree_network(n, instance_seed(0, n, inst))
        assert costs["iks"] == iks_order(net)[1] == dp_linear_optimal(net)[1]


def test_each_instance_is_generated_once(monkeypatch):
    calls = []

    def counting(n, seed, *args):
        calls.append((n, seed))
        return generate_random_tree_network(n, seed, *args)

    monkeypatch.setattr("tnorder.bench.generate_random_tree_network", counting)
    records = run_benchmark([5, 6], instances=3)
    assert len(records) == 2 * 3 * 2
    assert calls == [(n, instance_seed(0, n, i)) for n in (5, 6) for i in range(3)]


def test_rerun_reproduces_everything_but_wall_time():
    a = run_benchmark([5, 6], instances=2, master_seed=9)
    b = run_benchmark([5, 6], instances=2, master_seed=9)
    assert strip_wall(a) == strip_wall(b)


def test_zero_budget_times_everything_out():
    records = run_benchmark([5], instances=2, timeout_ms=0, algorithms=["iks"])
    assert len(records) == 2
    for r in records:
        assert r.timed_out
        assert r.cost is None
    with pytest.raises(ValidationError, match="no completed runs"):
        render_chart(records)


def test_sizes_beyond_a_bound_are_skipped_not_faked():
    records = run_benchmark([31], instances=2, timeout_ms=10_000)
    assert all(r.algorithm == "iks" for r in records)
    assert len(records) == 2
    only_dp = run_benchmark([31], instances=2, algorithms=["dp-linear"])
    assert only_dp == []


def test_instances_past_the_subset_bound_are_skipped():
    # instance 0 of master seed 60 at n = 30 has 2,299,261 connected
    # subsets, past the linear DP's bound: only iks runs it
    records = run_benchmark([30], instances=1, master_seed=60)
    assert [r.algorithm for r in records] == ["iks"]


def test_argument_validation():
    with pytest.raises(ValidationError, match="unknown benchmark algorithm"):
        run_benchmark([5], 1, algorithms=["magic"])
    with pytest.raises(ValidationError, match="no benchmark algorithms given"):
        run_benchmark([5], 1, algorithms=[])
    # one record per (algorithm, size, instance): a repeat would write twins
    with pytest.raises(ValidationError, match="^benchmark algorithm 'iks' is listed twice$"):
        run_benchmark([4], 1, algorithms=["iks", "iks", "dp-linear"])
    with pytest.raises(ValidationError):
        run_benchmark([1], 1)
    with pytest.raises(ValidationError):
        run_benchmark([5], 0)
    with pytest.raises(ValidationError):
        run_benchmark([5], 1, timeout_ms=-5)


def test_known_algorithms():
    assert set(BENCH_ALGORITHMS) == {"iks", "dp-linear"}


def test_csv_round_trip():
    records = run_benchmark([5], instances=2, timeout_ms=10_000)
    buf = io.StringIO()
    write_csv(records, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == ",".join(CSV_HEADER)
    assert read_records(text) == records


def test_csv_round_trip_with_timeouts():
    rec = BenchRecord("iks", 5, 0, 5000000, None, 123, True)
    buf = io.StringIO()
    write_csv([rec], buf)
    line = buf.getvalue().splitlines()[1]
    assert line == "iks,5,0,5000000,,123,true"
    assert read_records(buf.getvalue()) == [rec]


def test_csv_costs_are_plain_decimal_digits():
    big = 2**70 + 1
    rec = BenchRecord("iks", 64, 0, 64000000, big, 10, False)
    buf = io.StringIO()
    write_csv([rec], buf)
    assert str(big) in buf.getvalue()
    assert "e+" not in buf.getvalue()
    assert read_records(buf.getvalue())[0].cost == big


def test_summarize_counts_and_means():
    records = [
        BenchRecord("iks", 5, 0, 1, 10, 100, False),
        BenchRecord("iks", 5, 1, 2, 12, 300, False),
        BenchRecord("iks", 5, 2, 3, None, 999, True),
        BenchRecord("iks", 6, 0, 4, None, 999, True),
    ]
    s5, s6 = summarize(records)
    assert (s5.algorithm, s5.n, s5.runs, s5.timeouts) == ("iks", 5, 3, 1)
    assert s5.mean_wall_us == 200.0
    assert s6.mean_wall_us is None
    text = format_summary([s5, s6])
    assert "timeouts" in text.splitlines()[0]
    assert "200.0" in text
    assert " - " in text.splitlines()[-1] or text.splitlines()[-1].endswith("-")


def test_chart_is_well_formed_svg():
    records = run_benchmark([5, 6, 7], instances=2, timeout_ms=10_000)
    svg = render_chart(records)
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert "polyline" in svg
    assert "head to head" in svg and "all sizes" in svg


def test_chart_handles_a_single_size():
    records = run_benchmark([5], instances=2, algorithms=["iks"])
    ET.fromstring(render_chart(records))


def test_chart_head_to_head_panel_clips_to_shared_sizes():
    # iks completes at 31 but dp-linear cannot even run there
    records = run_benchmark([8, 31], instances=1, timeout_ms=10_000)
    svg = render_chart(records)
    ET.fromstring(svg)
    assert ">31<" in svg  # right panel still shows the iks-only size
