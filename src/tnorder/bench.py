"""Benchmark harness: seeded instances, wall-clock budgets, CSV records.

One record per attempted (algorithm, size, instance) run. Each instance
is generated once and every algorithm runs on that one network. Timing
covers the ordering call only, never generation or parsing. Timeouts are
data, not errors: the solvers poll a monotonic deadline and a run that
exceeds its budget is recorded with ``timed_out`` set and no cost.
Instance seeds are ``master_seed + 1_000_000 * n + instance``, so any row
can be regenerated in isolation.

An instance a solver refuses before any work, with ``SizeBoundError``
(the linear DP stops at 30 nodes and at 2^20 connected subsets), is
skipped entirely rather than recorded as a fake timeout; every emitted
record reflects a real attempt.
"""

from __future__ import annotations

import csv
import math
import time
from typing import Iterable, NamedTuple, Sequence, TextIO

from .generate import generate_random_tree_network
from .iks import iks_order
from .network import SizeBoundError, ValidationError
from .oracles import dp_linear_optimal

__all__ = [
    "BENCH_ALGORITHMS",
    "BenchRecord",
    "CSV_HEADER",
    "SizeSummary",
    "format_summary",
    "instance_seed",
    "render_chart",
    "run_benchmark",
    "summarize",
    "write_csv",
]

CSV_HEADER = ("algorithm", "n", "instance", "seed", "cost", "wall_time_us", "timed_out")


class BenchRecord(NamedTuple):
    algorithm: str
    n: int
    instance: int
    seed: int
    cost: int | None
    wall_time_us: int
    timed_out: bool


class SizeSummary(NamedTuple):
    algorithm: str
    n: int
    runs: int
    timeouts: int
    mean_wall_us: float | None  # over completed runs; None if none completed


# name -> solver taking (net, deadline=...) and returning (order, cost)
BENCH_ALGORITHMS = {
    "iks": iks_order,
    "dp-linear": dp_linear_optimal,
}


def instance_seed(master_seed: int, n: int, instance: int) -> int:
    return master_seed + 1_000_000 * n + instance


def run_benchmark(
    sizes: Sequence[int],
    instances: int,
    timeout_ms: int = 10_000,
    algorithms: Sequence[str] = ("iks", "dp-linear"),
    *,
    master_seed: int = 0,
    dim_lo: int = 2,
    dim_hi: int = 10,
) -> list[BenchRecord]:
    """Run every (algorithm, size, instance) combination under a budget.

    Runs go one at a time in this process, so no two timed runs compete
    for a core. Records come back sorted by (n, instance, algorithm).
    With the same seeds, repeated runs differ only in ``wall_time_us``
    (and, near the budget boundary, which runs time out).
    """
    if not algorithms:
        raise ValidationError("no benchmark algorithms given")
    for i, name in enumerate(algorithms):
        if name not in BENCH_ALGORITHMS:
            known = ", ".join(sorted(BENCH_ALGORITHMS))
            raise ValidationError(
                f"unknown benchmark algorithm {name!r}; choose from {known}"
            )
        if name in algorithms[:i]:
            raise ValidationError(f"benchmark algorithm {name!r} is listed twice")
    for n in sizes:
        if type(n) is not int or n < 2:
            raise ValidationError(f"benchmark sizes must be integers >= 2, got {n!r}")
    if instances < 1:
        raise ValidationError("need at least one instance per size")
    if timeout_ms < 0:
        raise ValidationError("timeout must be non-negative")

    budget = timeout_ms / 1000.0
    records = []
    for n in sizes:
        for inst in range(instances):
            seed = instance_seed(master_seed, n, inst)
            net = generate_random_tree_network(n, seed, dim_lo, dim_hi)
            for alg in algorithms:
                deadline = time.monotonic() + budget
                start = time.perf_counter()
                try:
                    cost = BENCH_ALGORITHMS[alg](net, deadline=deadline)[1]
                except SizeBoundError:
                    continue
                except TimeoutError:
                    cost = None
                wall = time.perf_counter() - start
                timed_out = cost is None or wall > budget
                records.append(
                    BenchRecord(
                        alg, n, inst, seed, None if timed_out else cost,
                        round(wall * 1e6), timed_out,
                    )
                )
    records.sort(key=lambda r: (r.n, r.instance, r.algorithm))
    return records


def write_csv(records: Iterable[BenchRecord], stream: TextIO) -> None:
    """Write records with the fixed header; costs as exact decimal digits."""
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for r in records:
        writer.writerow(
            [
                r.algorithm,
                r.n,
                r.instance,
                r.seed,
                "" if r.cost is None else str(r.cost),
                r.wall_time_us,
                "true" if r.timed_out else "false",
            ]
        )


def summarize(records: Iterable[BenchRecord]) -> list[SizeSummary]:
    """Per (algorithm, size) run counts, timeout counts, and mean wall time
    over the completed runs."""
    groups: dict[tuple[str, int], list[BenchRecord]] = {}
    for r in records:
        groups.setdefault((r.algorithm, r.n), []).append(r)
    out = []
    for (algorithm, n) in sorted(groups, key=lambda k: (k[0], k[1])):
        rows = groups[(algorithm, n)]
        done = [r.wall_time_us for r in rows if not r.timed_out]
        out.append(
            SizeSummary(
                algorithm,
                n,
                len(rows),
                len(rows) - len(done),
                sum(done) / len(done) if done else None,
            )
        )
    return out


def format_summary(summaries: Sequence[SizeSummary]) -> str:
    header = f"{'algorithm':<12} {'n':>4} {'runs':>5} {'timeouts':>8} {'mean_wall_us':>14}"
    lines = [header, "-" * len(header)]
    for s in summaries:
        mean = "-" if s.mean_wall_us is None else f"{s.mean_wall_us:.1f}"
        lines.append(
            f"{s.algorithm:<12} {s.n:>4} {s.runs:>5} {s.timeouts:>8} {mean:>14}"
        )
    return "\n".join(lines)


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e")


def render_chart(records: Sequence[BenchRecord]) -> str:
    """Two-panel SVG of mean wall time against size, log-scale time axis.

    The left panel covers the size range every algorithm completed (the
    head-to-head region); the right panel covers all sizes, where a
    solver's curve stops at the sizes it refuses or never finishes.
    """
    summaries = [s for s in summarize(records) if s.mean_wall_us is not None]
    if not summaries:
        raise ValidationError("no completed runs to chart")
    algorithms = sorted({s.algorithm for s in summaries})
    shared_max = min(
        max(s.n for s in summaries if s.algorithm == a) for a in algorithms
    )
    panels = [
        ("head to head", [s for s in summaries if s.n <= shared_max]),
        ("all sizes", list(summaries)),
    ]

    width, height = 940, 400
    plot_w, plot_h = 360, 280
    margin_left, margin_top = 70, 60
    gap = 120
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" font-family="sans-serif" font-size="12">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="24" text-anchor="middle" '
        f'font-size="16">mean ordering time by network size</text>',
    ]
    for i, algorithm in enumerate(algorithms):
        color = _PALETTE[i % len(_PALETTE)]
        lx = margin_left + i * 160
        parts.append(
            f'<line x1="{lx}" y1="38" x2="{lx + 24}" y2="38" '
            f'stroke="{color}" stroke-width="2"/>'
            f'<text x="{lx + 30}" y="42">{algorithm}</text>'
        )

    for p, (caption, rows) in enumerate(panels):
        x0 = margin_left + p * (plot_w + gap)
        y0 = margin_top
        xs = sorted({s.n for s in rows})
        los = [math.log10(max(s.mean_wall_us, 1.0)) for s in rows]
        lo_min = math.floor(min(los))
        lo_max = math.ceil(max(los)) or 1
        if lo_max == lo_min:
            lo_max += 1

        def sx(n: int) -> float:
            if xs[-1] == xs[0]:
                return x0 + plot_w / 2
            return x0 + (n - xs[0]) / (xs[-1] - xs[0]) * plot_w

        def sy(log_us: float) -> float:
            return y0 + plot_h - (log_us - lo_min) / (lo_max - lo_min) * plot_h

        parts.append(
            f'<rect x="{x0}" y="{y0}" width="{plot_w}" height="{plot_h}" '
            f'fill="none" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{x0 + plot_w / 2:.0f}" y="{y0 + plot_h + 40}" '
            f'text-anchor="middle">network size n ({caption})</text>'
        )
        parts.append(
            f'<text x="{x0 - 52}" y="{y0 + plot_h / 2:.0f}" text-anchor="middle" '
            f'transform="rotate(-90 {x0 - 52} {y0 + plot_h / 2:.0f})">'
            f'mean wall time (us)</text>'
        )
        for exp in range(lo_min, lo_max + 1):
            y = sy(exp)
            parts.append(
                f'<line x1="{x0}" y1="{y:.1f}" x2="{x0 + plot_w}" y2="{y:.1f}" '
                f'stroke="#ddd"/>'
                f'<text x="{x0 - 8}" y="{y + 4:.1f}" text-anchor="end">1e{exp}</text>'
            )
        for n in xs:
            parts.append(
                f'<text x="{sx(n):.1f}" y="{y0 + plot_h + 16}" '
                f'text-anchor="middle">{n}</text>'
            )
        for i, algorithm in enumerate(algorithms):
            color = _PALETTE[i % len(_PALETTE)]
            pts = [
                (s.n, s.mean_wall_us) for s in rows if s.algorithm == algorithm
            ]
            if not pts:
                continue
            coords = " ".join(
                f"{sx(n):.1f},{sy(math.log10(max(mean, 1.0))):.1f}"
                for n, mean in sorted(pts)
            )
            parts.append(
                f'<polyline points="{coords}" fill="none" stroke="{color}" '
                f'stroke-width="2"/>'
            )
            for n, mean in pts:
                parts.append(
                    f'<circle cx="{sx(n):.1f}" cy="{sy(math.log10(max(mean, 1.0))):.1f}" '
                    f'r="3" fill="{color}"/>'
                )
    parts.append("</svg>")
    return "\n".join(parts)
