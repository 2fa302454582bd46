"""Command-line interface.

Subcommands: ``gen`` (random tree network), ``order`` (compute a plan),
``cost`` (price an existing plan), ``bench`` (timed sweeps to CSV).
Exact costs go to stdout as decimal integers; diagnostics and traces go
to stderr. Exit codes: 0 success, 2 validation error or an output that
cannot be written, 3 size bound exceeded. Every write to stdout or stderr
goes through one guard, ``_std``, so a closed or failing standard stream
is exit 2, never a traceback; a ``bench`` argument error leaves existing
output files as they were.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import sys

# each subcommand imports the modules it runs, so a call loads no others
from .network import SizeBoundError, ValidationError, parse_network

__all__ = ["main"]


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValidationError(f"cannot read {path}: {exc}") from None


@contextlib.contextmanager
def _std(name: str):
    """Yield ``sys.stdout`` or ``sys.stderr`` by ``name`` and flush it after
    the block; a stream closed at start or a failed write or flush raises
    ``ValidationError``."""
    stream = getattr(sys, name)
    if stream is None:  # its file descriptor was closed at start
        raise ValidationError(f"cannot write {name}: it is closed")
    try:
        yield stream
        stream.flush()
    except OSError as exc:
        # a failed flush keeps its bytes; the flush at exit then writes them here
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, stream.fileno())
        os.close(devnull)
        raise ValidationError(f"cannot write {name}: {exc}") from None


def _write(path: str | None, text: str, mode: str = "w") -> None:
    """Write ``text`` to the file ``path``, or to stdout if None."""
    try:
        with _std("stdout") if path is None else open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:  # the file's: _std reports stdout's itself
        raise ValidationError(f"cannot write {path}: {exc}") from None


def _note(text: str) -> None:
    with _std("stderr") as err:
        err.write(text)


def _cmd_gen(args: argparse.Namespace) -> int:
    from .generate import generate_random_tree_network

    net = generate_random_tree_network(args.n, args.seed, args.dim_lo, args.dim_hi)
    _write(args.output, net.to_json() + "\n")
    return 0


def _cmd_order(args: argparse.Namespace) -> int:
    from .plans import LinearPlan, TreePlan

    net = parse_network(_read(args.network))
    algorithm = args.algorithm
    if args.trace and algorithm not in ("iks", "mst-iks"):
        _note("note: --trace applies to iks and mst-iks only\n")
    if args.order is not None and algorithm != "lin-dp":
        _note("note: --order applies to lin-dp only\n")

    plan: LinearPlan | TreePlan
    if algorithm in ("iks", "mst-iks"):
        from .iks import _traced_order, iks_order

        tree = net
        if algorithm == "mst-iks":
            from .cost import evaluate_linear
            from .heuristics import max_spanning_tree

            tree = max_spanning_tree(net)  # a tree comes back unchanged
        if args.trace:
            with _std("stderr") as err:
                order, cost = _traced_order(tree, err)
        else:
            order, cost = iks_order(tree)
        if tree is not net:  # priced on the network, as order_arbitrary does
            cost = evaluate_linear(net, order).cost
        plan = LinearPlan(order)
    elif algorithm == "dp-linear":
        from .oracles import dp_linear_optimal

        order, cost = dp_linear_optimal(net)
        plan = LinearPlan(order)
    elif algorithm == "dp-general":
        from .oracles import dp_general_optimal

        tree, cost = dp_general_optimal(net)
        plan = TreePlan(tree)
    else:  # lin-dp
        from .oracles import linearized_dp
        from .plans import parse_plan

        base = None  # linearized_dp's default: the mst-iks order
        if args.order is not None:
            base = parse_plan(_read(args.order))
            if not isinstance(base, LinearPlan):
                raise ValidationError("lin-dp needs a linear plan as its base order")
        tree, cost = linearized_dp(net, base)
        plan = TreePlan(tree)

    _write(args.output, plan.to_json() + "\n")
    _write(None, f"{cost}\n")
    return 0


def _cmd_cost(args: argparse.Namespace) -> int:
    from .cost import evaluate_linear, evaluate_tree
    from .plans import LinearPlan, parse_plan

    net = parse_network(_read(args.network))
    plan = parse_plan(_read(args.plan))
    if isinstance(plan, LinearPlan):
        report = evaluate_linear(net, plan)
        if not report.outer_product_free:
            _note("note: plan contains outer products\n")
        cost = report.cost
    else:
        cost = evaluate_tree(net, plan)
    _write(None, f"{cost}\n")
    return 0


def _parse_sizes(text: str) -> list[int]:
    sizes: list[int] = []
    for token in text.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            if ":" in token:
                lo_s, hi_s = token.split(":", 1)
                lo, hi = int(lo_s), int(hi_s)
                if lo > hi:
                    raise ValueError
                sizes.extend(range(lo, hi + 1))
            else:
                sizes.append(int(token))
        except ValueError:
            raise ValidationError(
                f"bad size token {token!r}; use N, LO:HI, or a comma list"
            ) from None
    if not sizes:
        raise ValidationError("no benchmark sizes given")
    return sizes


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import format_summary, render_chart, run_benchmark, summarize, write_csv

    sizes = _parse_sizes(args.sizes)
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    # open the outputs first, so a bad path fails now and not after the run;
    # appending nothing leaves an existing file as it is if the run fails
    for path in (args.output, args.chart):
        if path is not None:
            _write(path, "", "a")
    records = run_benchmark(
        sizes,
        args.instances,
        args.timeout_ms,
        algorithms,
        master_seed=args.master_seed,
        dim_lo=args.dim_lo,
        dim_hi=args.dim_hi,
    )
    csv_text = io.StringIO()
    write_csv(records, csv_text)
    _write(args.output, csv_text.getvalue())
    if args.chart is not None:
        _write(args.chart, render_chart(records))
    summary = format_summary(summarize(records)) + "\n"
    if args.output is None:  # the CSV has stdout
        _note(summary)
    else:
        _write(None, summary)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tnorder",
        description="Contraction-order optimization for tensor networks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate a random tree network")
    gen.add_argument("--n", type=int, required=True, help="number of tensors (>= 2)")
    gen.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    gen.add_argument("--dim-lo", type=int, default=2, help="smallest edge size")
    gen.add_argument("--dim-hi", type=int, default=10, help="largest edge size")
    gen.add_argument("-o", "--output", help="network file (default stdout)")
    gen.set_defaults(func=_cmd_gen)

    order = sub.add_parser("order", help="compute a contraction plan")
    order.add_argument(
        "--algorithm",
        required=True,
        choices=["iks", "dp-linear", "dp-general", "lin-dp", "mst-iks"],
    )
    order.add_argument("--network", required=True, help="network file")
    order.add_argument(
        "--order",
        help="linear plan file used as the base order for lin-dp "
        "(default: the mst-iks order, which is the iks order on trees)",
    )
    order.add_argument("-o", "--output", help="plan file (default stdout)")
    order.add_argument(
        "--trace",
        action="store_true",
        help="write each rooting's cost and the winning chain to stderr as JSON lines",
    )
    order.set_defaults(func=_cmd_order)

    cost = sub.add_parser("cost", help="evaluate a plan's exact cost")
    cost.add_argument("--network", required=True, help="network file")
    cost.add_argument("--plan", required=True, help="plan file")
    cost.set_defaults(func=_cmd_cost)

    bench = sub.add_parser("bench", help="run timed sweeps and emit CSV")
    bench.add_argument(
        "--sizes", required=True, help="sizes as N, LO:HI, or a comma list"
    )
    bench.add_argument("--instances", type=int, default=100)
    bench.add_argument("--timeout-ms", type=int, default=10_000)
    bench.add_argument("--algorithms", default="iks,dp-linear")
    bench.add_argument("--master-seed", type=int, default=0)
    bench.add_argument("--dim-lo", type=int, default=2)
    bench.add_argument("--dim-hi", type=int, default=10)
    bench.add_argument("-o", "--output", help="CSV file (default stdout)")
    bench.add_argument("--chart", help="also write a two-panel SVG chart")
    bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # exact integers of any length; Python 3.10.7+ caps int <-> str at 4,300 digits
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except SizeBoundError as exc:
        return _fail(exc, 3)
    except ValidationError as exc:
        return _fail(exc, 2)


def _fail(exc: Exception, code: int) -> int:
    """Report ``exc`` on stderr where it can be written; return ``code``."""
    try:
        with _std("stderr") as err:
            print(f"error: {exc}", file=err)
    except ValidationError:
        pass  # stderr cannot be written: the exit code alone reports it
    return code
