"""What importing the package and running one CLI call loads.

The pytest process has already imported every module, so the load sets
are read in a fresh interpreter.
"""

import json
import subprocess
import sys

import pytest

import tnorder
from helpers import five_tensor_data, to_network

# modules an `order --algorithm iks` (traced or not) or `cost` call never
# runs; the trace writes exact integers, never fractions
UNUSED_BY_ORDER_AND_COST = [
    "tnorder.bench",
    "tnorder.generate",
    "tnorder.oracles",
    "tnorder.heuristics",
    "dataclasses",
    "fractions",
    "csv",
]

PROBE = """
import json, sys
from tnorder.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(json.dumps([code, sorted(sys.modules)]))
"""


def loaded_by(argv):
    run = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], capture_output=True, text=True
    )
    assert run.returncode == 0, run.stderr
    *printed, last = run.stdout.splitlines()
    code, modules = json.loads(last)
    return code, printed, set(modules)


def test_order_and_cost_load_only_what_they_run(tmp_path):
    net, plan = tmp_path / "net.json", tmp_path / "plan.json"
    net.write_text(to_network(*five_tensor_data()).to_json())
    plan.write_text('{"type": "linear", "order": ["T4", "T3", "T2", "T5", "T1"]}')
    calls = {
        "order": ["order", "--algorithm", "iks", "--network", str(net),
                  "-o", str(tmp_path / "out.json")],
        "order --trace": ["order", "--algorithm", "iks", "--network", str(net),
                          "-o", str(tmp_path / "out.json"), "--trace"],
        "cost": ["cost", "--network", str(net), "--plan", str(plan)],
    }
    for name, argv in calls.items():
        code, printed, modules = loaded_by(argv)
        assert (code, printed) == (0, ["45"]), name
        assert sorted(modules & set(UNUSED_BY_ORDER_AND_COST)) == [], name


def test_importing_the_package_loads_no_submodule():
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, tnorder; print(sorted(m for m in sys.modules "
         "if m.startswith('tnorder.')))"],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


def test_importing_bench_loads_no_dataclasses():
    # its records are NamedTuples, as plans are
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, tnorder.bench; print('dataclasses' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "False"


def test_importing_bench_loads_the_dp_bound():
    # the subset DPs' bound is imported with them, so no DP call that
    # run_benchmark times pays for importing it
    run = subprocess.run(
        [sys.executable, "-c",
         "import sys, tnorder.bench; print('tnorder.heuristics' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "True"


def test_unknown_names_raise_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        tnorder.no_such_name
    assert getattr(tnorder, "no_such_name", None) is None
    assert "iks_order" in dir(tnorder)


def test_size_bound_error_is_one_class():
    from tnorder import network, oracles

    assert tnorder.SizeBoundError is network.SizeBoundError
    assert oracles.SizeBoundError is network.SizeBoundError
