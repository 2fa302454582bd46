"""Spans around the calls into each tnorder layer, for the traced run.

The tracer wraps the program's entry points from outside: every module
attribute of the ``tnorder`` package that is one of the wrapped functions
is swapped for a recording wrapper while tracing is on, so calls made
inside the package (``iks_order`` calling ``linearize_root``) are caught
as well as the benchmark's own. Spans live in memory until the run ends.

Each layer metric is a sum of span self times (a span's duration minus
the part covered by its child spans) or a count taken from a wrapped
call's arguments and result. A layer whose entry point no longer exists
is reported as absent, never as an error.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from types import ModuleType

# span name -> (module, function); plans' dump spans wrap methods below.
ENTRY_POINTS = {
    "network.parse": ("network", "parse_network"),
    "plans.parse": ("plans", "parse_plan"),
    "precedence.build": ("precedence", "build_precedence_graph"),
    "iks.order": ("iks", "iks_order"),
    "iks.linearize_root": ("iks", "linearize_root"),
    "iks.linearized_chain": ("iks", "linearized_chain"),
    "cost.eval_linear": ("cost", "evaluate_linear"),
    "cost.eval_tree": ("cost", "evaluate_tree"),
    "oracles.dp_linear": ("oracles", "dp_linear_optimal"),
    "oracles.dp_general": ("oracles", "dp_general_optimal"),
    "oracles.lin_dp": ("oracles", "linearized_dp"),
    "heuristics.mst": ("heuristics", "max_spanning_tree"),
    "heuristics.order": ("heuristics", "order_arbitrary"),
}
DUMP_METHODS = (("plans", "LinearPlan"), ("plans", "TreePlan"))


def _count_nodes(counts, args, result):
    counts["network.nodes"] += len(result)


def _count_root(counts, args, result):
    counts["precedence.roots"] += 1


def _count_chain(counts, args, result):
    counts["iks.chain_entries"] += len(result)
    counts["iks.fuses"] += len(args[0]) - len(result)


def _count_steps(counts, args, result):
    counts["cost.steps"] += len(args[0]) - 1


COUNTERS = {
    "network.parse": _count_nodes,
    "precedence.build": _count_root,
    "iks.linearized_chain": _count_chain,
    "cost.eval_linear": _count_steps,
    "cost.eval_tree": _count_steps,
}

# per-layer metric -> the span names whose self times it sums
TIME_METRICS = {
    "network.parse_s": ("network.parse",),
    "plans.parse_s": ("plans.parse",),
    "plans.dump_s": ("plans.dump",),
    "precedence.build_s": ("precedence.build",),
    "iks.order_s": ("iks.order",),
    "iks.linearize_s": ("iks.linearize_root", "iks.linearized_chain"),
    "cost.eval_linear_s": ("cost.eval_linear",),
    "cost.eval_tree_s": ("cost.eval_tree",),
    "oracles.dp_linear_s": ("oracles.dp_linear",),
    "oracles.dp_general_s": ("oracles.dp_general",),
    "oracles.lin_dp_s": ("oracles.lin_dp",),
    "heuristics.mst_s": ("heuristics.mst",),
    "heuristics.order_s": ("heuristics.order",),
}
COUNT_METRICS = {
    "network.nodes": "network.parse",
    "precedence.roots": "precedence.build",
    "iks.fuses": "iks.linearized_chain",
    "iks.chain_entries": "iks.linearized_chain",
    "cost.steps": "cost.eval_linear",
}


class Tracer:
    """Records spans (name, start, end, parent, op) and counts in memory."""

    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[list] = []  # [name, start, end, parent index, op]
        self.counts: Counter = Counter()
        self.op: str | None = None
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.present: set[str] = set()

    def _wrap(self, name: str, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        count = COUNTERS.get(name)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else None, self.op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self) -> None:
        """Swap every reference to an entry point inside the package."""
        prefix = self.package.__name__ + "."
        modules = [self.package] + [
            m
            for m in vars(self.package).values()
            if isinstance(m, ModuleType) and m.__name__.startswith(prefix)
        ]
        for name, (mod_name, attr) in ENTRY_POINTS.items():
            fn = getattr(getattr(self.package, mod_name, None), attr, None)
            if fn is None:
                continue
            self.present.add(name)
            wrapper = self._wrap(name, fn)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        self._replace(module, key, wrapper)
        for mod_name, cls_name in DUMP_METHODS:
            cls = getattr(getattr(self.package, mod_name, None), cls_name, None)
            if cls is not None and "to_json" in vars(cls):
                self.present.add("plans.dump")
                self._replace(cls, "to_json", self._wrap("plans.dump", vars(cls)["to_json"]))

    def _replace(self, owner, key: str, value) -> None:
        self._saved.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._saved:
            owner, key, value = self._saved.pop()
            setattr(owner, key, value)

    def self_times(self, first: int = 0) -> list[float]:
        """Self time of every span from index ``first`` on."""
        own = [s[2] - s[1] for s in self.spans[first:]]
        for s in self.spans[first:]:
            if s[3] is not None and s[3] >= first:
                own[s[3] - first] -= s[2] - s[1]
        return own

    def layer_times(self, first: int = 0) -> dict[str, float]:
        """Summed self time per span name, over spans from ``first`` on."""
        totals: dict[str, float] = defaultdict(float)
        for span, own in zip(self.spans[first:], self.self_times(first)):
            totals[span[0]] += own
        return totals

    def write_jsonl(self, path, t0: float) -> None:
        """All spans as JSON lines, times in seconds from ``t0``."""
        own = self.self_times()
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": name,
                            "start": start - t0,
                            "end": end - t0,
                            "self": own[i],
                            "parent": parent,
                            "op": op,
                        }
                    )
                    + "\n"
                )


def layer_metrics(tracer: Tracer, times: list[dict[str, float]], counts: dict) -> dict:
    """Per-layer metrics from per-pass layer times (median over passes)
    and one pass's counts; layers without an entry point are left out."""
    out = {}
    for metric, names in TIME_METRICS.items():
        if all(n in tracer.present for n in names):
            out[metric] = (statistics.median(sum(t.get(n, 0.0) for n in names) for t in times), "s")
    for metric, name in COUNT_METRICS.items():
        if name in tracer.present:
            out[metric] = (counts.get(metric, 0), "count")
    return out

