"""The benchmark's traced run finds tnorder's layers by name.

``perfbench/spans.py`` wraps each function named in ``ENTRY_POINTS``
and each ``to_json`` of ``DUMP_METHODS``; a layer whose function is gone
is left out of the traced run's metrics without an error. So renaming
or deleting one of these functions must fail here first.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_entry_point_resolves():
    spans = _spans()
    for name, (mod_name, attr) in spans.ENTRY_POINTS.items():
        module = importlib.import_module(f"tnorder.{mod_name}")
        assert callable(getattr(module, attr, None)), name
    for mod_name, cls_name in spans.DUMP_METHODS:
        cls = getattr(importlib.import_module(f"tnorder.{mod_name}"), cls_name)
        assert "to_json" in vars(cls), cls_name
