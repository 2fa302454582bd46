"""tnorder benchmark: three workloads, exact output checks, traced layers.

Usage, from the root of a checkout (the package runs from ``src``, it need
not be installed):

    python3 perfbench/run.py --workload iks-trees --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run builds its instances from ``--seed`` (same seed, same inputs),
writes them under ``.perfbench/``, imports the package and warms it up;
that is set-up. It then runs whole passes over the workload's fixed op
list, one op at a time, until ``--seconds`` have passed, and finally runs
the workload's CLI subset through ``python -m tnorder``. Every output is
checked exactly (see ``workloads.check``) and, for pinned seeds, against
the digest recorded in ``pinned/<workload>.json``. The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

A shared host can run every process on it up to 1.8x slower for
seconds to minutes at a time, as other tenants' load comes and goes,
which no run length averages away. So every op and CLI call is
followed by one run of a fixed pure-Python loop (``host_ms``), and the
end-to-end times are reported in *reference* milliseconds: each time
measured, scaled by ``REF_HOST_MS`` over the mean of the loop's times
just before and just after it. A change to tnorder moves them as it
moves wall time; a slower host does not. The raw wall-clock figures
are printed above the JSON line.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes instead, reports the per-layer metrics (see
``spans.py``) and writes every span to ``.perfbench/spans-*.jsonl``.

Exit codes: 0 all outputs correct, 1 some output was wrong, 2 the
package or the arguments are missing.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import pricer
import spans
import workloads as wl
from pricer import Mismatch

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
PINNED = Path(__file__).resolve().parent / "pinned"
MODULES = ("network", "plans", "cost", "precedence", "iks", "oracles", "heuristics")

SETUP_REPS = 7
# A failed op counts as taking its whole deadline, which ranks it above
# every op that completed in time.
OP_DEADLINE_S = 30.0
CLI_DEADLINE_S = 60.0
# Past seconds + this grace, no further op starts, so a hung program
# still ends the run well inside its time limit.
GRACE_S = 60.0
STARTUP_REPS = 7
CLI_ROUNDS = 2
# The host loop: iterations, and the time it takes on the reference host
# (a quiet 2.1 GHz Xeon core); reference times are scaled to that speed.
HOST_LOOP = 50_000
REF_HOST_MS = 6.0
HOST_SAMPLES_PER_SETUP = 5


def _on_alarm(signum, frame):
    raise TimeoutError(f"op exceeded its {OP_DEADLINE_S:g} s deadline")


@dataclass
class Outcome:
    """Everything a run measured. ``samples`` maps an op's index to its
    times, one per pass, with None for a pass in which it failed, and
    ``around`` to the host loop's time around each of them; ``cli_ms``
    maps a CLI op's index to (time or None, host loop around it) per
    round. ``host`` holds every host-loop time in the order taken."""

    samples: dict = field(default_factory=lambda: defaultdict(list))
    around: dict = field(default_factory=lambda: defaultdict(list))
    cli_ms: dict = field(default_factory=lambda: defaultdict(list))
    host: list = field(default_factory=list)
    mismatches: list = field(default_factory=list)
    failures: Counter = field(default_factory=Counter)
    passes: int = 0

    def times(self) -> list:
        return [t for ts in self.samples.values() for t in ts]

    @property
    def attempted(self) -> int:
        return len(self.times())

    @property
    def failed(self) -> int:
        return sum(t is None for t in self.times())

    def host_before(self) -> float:
        """The host loop's latest time, taken after the previous call."""
        if not self.host:
            self.host.append(host_ms())
        return self.host[-1]

    def host_after(self, before: float) -> float:
        """Run the host loop after a timed call; returns the mean of its
        times just before and just after the call."""
        self.host.append(host_ms())
        return (before + self.host[-1]) / 2


class Runner:
    """Runs and checks ops of one workload against one seed's pins."""

    def __init__(self, tn, ops: list[wl.Op], pins: list | None) -> None:
        self.tn = tn
        self.ops = ops
        self.pins = pins
        self.verified: dict[int, tuple] = {}  # op index -> (raw output, digest)

    def run_op(self, i: int, out: Outcome) -> float | None:
        """Time op ``i`` and check its output; None if it failed."""
        op = self.ops[i]
        signal.setitimer(signal.ITIMER_REAL, OP_DEADLINE_S)
        start = time.perf_counter()
        try:
            output = wl.execute(self.tn, op)
            elapsed = time.perf_counter() - start
        except Exception as exc:  # every failure is data, never a crash
            out.failures[f"{op.oid}: {type(exc).__name__}"] += 1
            return None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            self.accept(i, output)
        except Exception as exc:  # a malformed output is a wrong output
            out.mismatches.append(f"{op.oid}: {type(exc).__name__}: {exc}")
            return None
        return elapsed * 1000.0

    def accept(self, i: int, output) -> str:
        """Check an output (fully the first time, then by equality with
        the verified one) and return its digest."""
        known = self.verified.get(i)
        if known is not None:
            if output != known[0]:
                raise Mismatch("output differs from the same op's earlier output")
            return known[1]
        structure, cost = wl.check(self.tn, self.ops[i], output)
        digest = pricer.digest(self.ops[i].oid, structure, cost)
        if self.pins is not None and self.pins[i] is not None and self.pins[i] != digest:
            raise Mismatch(f"digest {digest} differs from pinned {self.pins[i]}")
        self.verified[i] = (output, digest)
        return digest

    def run_pass(
        self, out: Outcome, stop_at: float, tracer=None, after_op=None, sample_host=False
    ) -> list:
        """One pass over every op, stopping early only past ``stop_at``.
        With a tracer, spans of each op are tagged with its id;
        ``after_op`` is called after each op, after the host loop if
        ``sample_host``."""
        times = []
        for i, op in enumerate(self.ops):
            if time.perf_counter() > stop_at:
                break
            if tracer is not None:
                tracer.op = op.oid
            before = out.host_before() if sample_host else 0.0
            times.append(self.run_op(i, out))
            out.samples[i].append(times[-1])
            if sample_host:
                out.around[i].append(out.host_after(before))
            if after_op is not None:
                after_op()
        out.passes += 1
        return times


# ---------------------------------------------------------------- set-up


def import_package():
    """Import tnorder afresh from this checkout's ``src``.

    Earlier imports of the package are dropped first, so that every set-up
    repetition pays for executing the package's modules again.
    """
    for key in [k for k in sys.modules if k == "tnorder" or k.startswith("tnorder.")]:
        del sys.modules[key]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    tn = importlib.import_module("tnorder")
    for name in MODULES:
        importlib.import_module(f"tnorder.{name}")
    if Path(tn.__file__).resolve().parent != (SRC / "tnorder").resolve():
        raise SystemExit(f"imported tnorder from {tn.__file__}, not from {SRC}")
    return tn


def write_inputs(ops: list[wl.Op], workdir: Path) -> dict[int, tuple[str, str | None]]:
    """Input files per op index: (network file, plan file or None)."""
    files = {}
    written = set()
    for i, op in enumerate(ops):
        net_file = workdir / (op.net_key.replace("/", "_") + ".net.json")
        if op.net_key not in written:
            net_file.write_text(op.net_text, encoding="utf-8")
            written.add(op.net_key)
        plan_file = None
        if op.plan_text is not None:
            plan_file = workdir / f"op{i:03d}.plan.json"
            plan_file.write_text(op.plan_text, encoding="utf-8")
        files[i] = (str(net_file), None if plan_file is None else str(plan_file))
    return files


def set_up(workload: str, seed: int, workdir: Path, reps: int):
    """Import, generate, write and warm up ``reps`` times; returns the last
    rep's package, ops and files with the median set-up time, raw and in
    reference seconds (each rep scaled by the host loop's median over the
    samples taken just before and just after it)."""
    took, host = [], [host_ms() for _ in range(HOST_SAMPLES_PER_SETUP)]
    for _ in range(reps):
        start = time.perf_counter()
        tn = import_package()
        ops = wl.build_ops(workload, seed)
        files = write_inputs(ops, workdir)
        Runner(tn, wl.warmup_ops(workload), None).run_pass(Outcome(), math.inf)
        took.append(time.perf_counter() - start)
        host += [host_ms() for _ in range(HOST_SAMPLES_PER_SETUP)]
    k = HOST_SAMPLES_PER_SETUP
    ref = [t * REF_HOST_MS / statistics.median(host[j * k : (j + 2) * k]) for j, t in enumerate(took)]
    return tn, ops, files, statistics.median(took), statistics.median(ref)


# ------------------------------------------------------------------- CLI


def cli_env() -> dict[str, str]:
    return dict(os.environ, PYTHONPATH=str(SRC))


def spawn_ms(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        timeout=CLI_DEADLINE_S,
        env=cli_env(),
        cwd=ROOT,
    )
    return (time.perf_counter() - start) * 1000.0, proc


def run_cli_op(runner: Runner, i: int, files, workdir: Path, out: Outcome) -> None:
    """One CLI op from spawn to exit, then one host-loop sample; the
    op's printed cost and plan file are checked against the in-process
    output of the same op."""
    before = out.host_before()
    ms = cli_call(runner, i, files, workdir, out)
    out.cli_ms[i].append((ms, out.host_after(before)))


def cli_call(runner: Runner, i: int, files, workdir: Path, out: Outcome) -> float | None:
    """The CLI op's time, or None if it failed."""
    op = runner.ops[i]
    net_file, plan_file = files[i]
    out_file = workdir / f"op{i:03d}.out.json"
    try:
        ms, proc = spawn_ms(["-m", "tnorder", *wl.cli_args(op, net_file, plan_file, str(out_file))])
    except subprocess.TimeoutExpired:
        out.failures[f"cli {op.oid}: timeout"] += 1
        return None
    if proc.returncode != 0:
        out.failures[f"cli {op.oid}: exit {proc.returncode}"] += 1
        return None
    try:
        lines = proc.stdout.split()
        cost = int(lines[-1]) if lines else None
        structure = None
        if op.kind != "cost":
            plan = json.loads(out_file.read_text(encoding="utf-8"))
            structure = wl.cli_structure(op, plan)
        digest = pricer.digest(op.oid, structure, cost)
        known = runner.verified.get(i)
        if known is None:
            raise Mismatch("the in-process op never completed, nothing to compare")
        if digest != known[1]:
            raise Mismatch("CLI output differs from the in-process output")
    except (Mismatch, ValueError, OSError) as exc:
        out.mismatches.append(f"cli {op.oid}: {exc}")
        return None
    return ms


def startup_ms(args: list[str]) -> float:
    return statistics.median(spawn_ms(args)[0] for _ in range(STARTUP_REPS))


def host_ms(iterations: int = HOST_LOOP) -> float:
    """A fixed pure-Python loop; it reads host speed, nothing of tnorder."""
    start = time.perf_counter()
    acc, table = 0, {}
    for i in range(iterations):
        acc = (acc + i * i) % 1_000_003
        table[i & 1023] = acc
    return (time.perf_counter() - start) * 1000.0


def calib_ms() -> float:
    return statistics.median(host_ms(4 * HOST_LOOP) for _ in range(5))


# ---------------------------------------------------------------- metrics


def op_times(out: Outcome, ref: bool) -> list:
    """Each op's median time over its passes, in reference time if
    ``ref``; None for an op that failed in any pass."""
    return [
        None if None in ts else statistics.median(_scaled(t, h, ref) for t, h in zip(ts, out.around[i]))
        for i, ts in out.samples.items()
    ]


def cli_times(out: Outcome, ref: bool) -> list:
    return [
        None if any(t is None for t, _ in calls) else statistics.median(_scaled(t, h, ref) for t, h in calls)
        for calls in out.cli_ms.values()
    ]


def _scaled(ms: float, host: float, ref: bool) -> float:
    return ms * REF_HOST_MS / host if ref else ms


def ranked(values: list, fail_value: float) -> list[float]:
    """Sorted times with every failure charged ``fail_value``, so failed
    ops rank above every completed one."""
    return sorted(fail_value if v is None else v for v in values)


def timings(ops: list, cli: list) -> dict:
    """p50 and p90 over the ops (interpolating between neighbours, so that
    two ops swapping ranks move them little), ops completed in every pass
    over the sum of their times, and the CLI subset's p50."""
    per_op = ranked(ops, OP_DEADLINE_S * 1000.0)
    done = [t for t in ops if t is not None]
    return {
        "op_p50": statistics.median(per_op),
        "op_p90": statistics.quantiles(per_op, n=10, method="inclusive")[8],
        "ops_per_s": len(done) / (sum(done) / 1000.0) if done else 0.0,
        "cli_p50": statistics.median(ranked(cli, CLI_DEADLINE_S * 1000.0)),
    }


def end_to_end(out: Outcome, setup: tuple[float, float]) -> tuple[dict, list[str]]:
    """The end-to-end metrics, in reference time, and notes giving the
    same timings in raw wall-clock time with the host loop's speed."""
    ref = timings(op_times(out, True), cli_times(out, True))
    raw = timings(op_times(out, False), cli_times(out, False))
    metrics = {
        "op_p50_ref_ms": (ref["op_p50"], "ms"),
        "op_p90_ref_ms": (ref["op_p90"], "ms"),
        "ops_per_ref_s": (ref["ops_per_s"], "1/s"),
        "cli_p50_ref_ms": (ref["cli_p50"], "ms"),
        "setup_s": (setup[1], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": ((out.attempted - out.failed) / out.attempted, "1"),
    }
    notes = [f"raw op_p50_ms {raw['op_p50']} op_p90_ms {raw['op_p90']} ops_per_s {raw['ops_per_s']}"
             f" cli_p50_ms {raw['cli_p50']} setup_s {setup[0]}",
             "host loop ms min {:.3f} p50 {:.3f} max {:.3f} over {} runs".format(
                 min(out.host), statistics.median(out.host), max(out.host), len(out.host))]
    return metrics, notes


# ------------------------------------------------------------------- runs


def load_pins(workload: str, seed: int, n_ops: int) -> list | None:
    path = PINNED / f"{workload}.json"
    if not path.is_file():
        return None
    pins = json.loads(path.read_text(encoding="utf-8"))["seeds"].get(str(seed))
    if pins is not None and len(pins) != n_ops:
        raise SystemExit(f"{path} pins {len(pins)} ops for seed {seed}, the workload has {n_ops}")
    return pins


def measure(runner: Runner, seconds: float, out: Outcome, cli_op) -> None:
    """Whole untraced passes until ``seconds`` pass.

    The CLI subset runs CLI_ROUNDS times, its calls spread evenly over the
    same window between in-process ops, so that both kinds of op sample
    the host over the whole run. A CLI call waits until the in-process op
    it is compared with has been verified once.
    """
    calls = [i for i, op in enumerate(runner.ops) if op.cli] * CLI_ROUNDS
    start = time.perf_counter()
    made = 0

    def cli_due() -> None:
        nonlocal made
        while made < len(calls) and time.perf_counter() - start >= made * seconds / len(calls):
            if calls[made] not in runner.verified and out.passes == 0:
                return
            cli_op(calls[made])
            made += 1

    while True:
        runner.run_pass(out, start + seconds + GRACE_S, after_op=cli_due, sample_host=True)
        if time.perf_counter() - start >= seconds:
            break
    for i in calls[made:]:
        cli_op(i)


def measure_traced(tn, runner: Runner, seconds: float, out: Outcome):
    """Alternate untraced and traced passes until ``seconds`` pass.

    Returns the tracer, per-traced-pass layer times and counts, and the
    tracing overhead: traced over untraced op wall time.
    """
    tracer = spans.Tracer(tn)
    start = time.perf_counter()
    stop_at = start + seconds + GRACE_S
    layer_times, counts, plain, traced = [], [], 0.0, 0.0
    while True:
        plain += sum(t or 0.0 for t in runner.run_pass(out, stop_at))
        first, before = len(tracer.spans), Counter(tracer.counts)
        tracer.install()
        try:
            traced += sum(t or 0.0 for t in runner.run_pass(out, stop_at, tracer))
        finally:
            tracer.uninstall()
        layer_times.append(tracer.layer_times(first))
        counts.append(dict(tracer.counts - before))
        if time.perf_counter() - start >= seconds:
            return tracer, layer_times, counts, traced / plain


def run_workload(workload: str, seed: int, seconds: float, trace: bool, pins_override=None):
    """One run; returns (correct, attempted, failed, metrics, notes)."""
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        tn, ops, files, *setup = set_up(workload, seed, workdir, 1 if trace else SETUP_REPS)
        pins = pins_override if pins_override is not None else load_pins(workload, seed, len(ops))
        runner = Runner(tn, ops, pins)
        out = Outcome()
        notes = [f"seed {seed} {'is' if pins else 'is not'} pinned"]
        if not trace:
            measure(runner, seconds, out, lambda i: run_cli_op(runner, i, files, workdir, out))
            metrics, timing_notes = end_to_end(out, setup)
            notes += timing_notes
            notes.append(f"fail_ratio {out.failed / out.attempted} 1")
            notes.append(f"host.calib_ms {calib_ms()} ms")
        else:
            tracer, layer_times, counts, overhead = measure_traced(tn, runner, seconds, out)
            spans_file = OUT / f"spans-{workload}-seed{seed}.jsonl"
            tracer.write_jsonl(spans_file, tracer.spans[0][1] if tracer.spans else 0.0)
            if any(c != counts[0] for c in counts):
                out.mismatches.append(f"layer counters differ between traced passes: {counts}")
            metrics = spans.layer_metrics(tracer, layer_times, counts[0])
            absent = sorted((set(spans.TIME_METRICS) | set(spans.COUNT_METRICS)) - set(metrics))
            if absent:
                notes.append("absent layers: " + " ".join(absent))
            metrics["trace.overhead_ratio"] = (overhead, "1")
            metrics["cli.interp_ms"] = (startup_ms(["-c", "pass"]), "ms")
            metrics["cli.startup_ms"] = (startup_ms(["-m", "tnorder", "--help"]), "ms")
            metrics["host.calib_ms"] = (calib_ms(), "ms")
            notes.append(f"spans written to {spans_file.relative_to(ROOT)}")
        cli_calls = sum(len(ts) for ts in out.cli_ms.values())
        notes.append(f"{out.passes} passes of {len(ops)} ops, {cli_calls} calls of {len(out.cli_ms)} CLI ops")
        notes += [f"failed {k} x{v}" for k, v in sorted(out.failures.items())]
        notes += [f"MISMATCH {m}" for m in out.mismatches]
        return not out.mismatches, out.attempted, out.failed, metrics, notes
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(workdir, ignore_errors=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*wl.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_result(workload, correct, attempted, failed, metrics, notes) -> None:
    for note in notes:
        print(f"{workload}: {note}")
    for name, (value, unit) in metrics.items():
        print(f"{workload} {name} {value} {unit}")
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


def run_all(args) -> int:
    """Every workload, each in its own process so peak RSS is its own."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for workload in wl.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
        )
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        status = max(status, proc.returncode)
        if proc.returncode not in (0, 1) or not lines:
            continue
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "tnorder" / "__init__.py").is_file():
        print(f"error: no tnorder package under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    correct, attempted, failed, metrics, notes = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace)
    )
    print_result(args.workload, correct, attempted, failed, metrics, notes)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
