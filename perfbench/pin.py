"""Record the canonical output digest of every op for a range of seeds.

    python3 perfbench/pin.py --seeds 0:64

Run it once, on the commit whose outputs are the reference; ``run.py``
then fails any op of a pinned seed whose output digests differently. An
op that fails here is pinned to its independently priced cost when it is
a cost op (so a later fix is checked), and left unpinned otherwise.
"""

from __future__ import annotations

import argparse
import json
import math
import signal
import sys

import pricer
import run
import workloads as wl


def pin_seed(tn, workload: str, seed: int) -> list[str | None]:
    ops = wl.build_ops(workload, seed)
    runner = run.Runner(tn, ops, None)
    out = run.Outcome()
    runner.run_pass(out, math.inf)
    if out.mismatches:
        raise SystemExit(f"{workload} seed {seed}: {out.mismatches}")
    pins = []
    for i, op in enumerate(ops):
        if i in runner.verified:
            pins.append(runner.verified[i][1])
        elif op.kind == "cost":
            pins.append(pricer.digest(op.oid, None, pricer.plan_cost(op.net, op.plan)))
        else:
            pins.append(None)
    return pins


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="LO:HI, a half-open range")
    parser.add_argument("--workload", choices=wl.WORKLOADS, action="append")
    args = parser.parse_args(argv)
    lo, hi = (int(x) for x in args.seeds.split(":"))
    tn = run.import_package()
    signal.signal(signal.SIGALRM, run._on_alarm)
    run.PINNED.mkdir(exist_ok=True)
    for workload in args.workload or wl.WORKLOADS:
        path = run.PINNED / f"{workload}.json"
        data = json.loads(path.read_text()) if path.is_file() else {"seeds": {}}
        for seed in range(lo, hi):
            data["seeds"][str(seed)] = pin_seed(tn, workload, seed)
            print(f"{workload} seed {seed} pinned", file=sys.stderr, flush=True)
        seeds = sorted(data["seeds"].items(), key=lambda kv: int(kv[0]))
        lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v)}" for k, v in seeds)
        path.write_text('{"seeds": {\n' + lines + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
