"""Network files that tier-1 pins and CI times, built with the standard
library only, so that CI can run this file without the package:

    python tests/instances.py NAME FILE

writes the network ``NAME`` (a key of ``INSTANCES``) to ``FILE`` as JSON.
``CLI_PINS`` in ``test_exact_at_scale.py`` builds its 256-node star and
MPS path through ``write``, so CI's wall bounds time the very files
tier-1 pins. CI also bounds the linear DP's memory on ``star-20``.
"""

import json
import random
import sys


def star(n: int) -> dict:
    # a hub and n - 1 leaves. At n = 256: disconnected intervals with huge
    # sizes and many near-equal splits, the interval DP's slowest tree
    # shape. At n = 20: 2^19 + 19 connected subsets, the most of any
    # 20-node tree, so the linear DP's largest layers within its bound
    ids = ["H"] + [f"L{i}" for i in range(1, n)]
    return {
        "nodes": [{"id": v, "open": 1 + i % 5} for i, v in enumerate(ids)],
        "edges": [{"u": "H", "v": v, "size": 1 + (7 * i) % 10} for i, v in enumerate(ids) if i],
    }


def mps_path(n: int) -> dict:
    # a seeded MPS path (open legs 2-4, bonds 2-10): the tree shape whose
    # splits most often pass the half-sum and bit-length tests
    rng = random.Random(f"mps/{n}")
    return {
        "nodes": [{"id": f"T{i + 1}", "open": rng.randint(2, 4)} for i in range(n)],
        "edges": [{"u": f"T{i + 1}", "v": f"T{i + 2}", "size": rng.randint(2, 10)}
                  for i in range(n - 1)],
    }


INSTANCES = {
    "star-20": lambda: star(20),
    "star-256": lambda: star(256),
    "mps-256": lambda: mps_path(256),
    "mps-20000": lambda: mps_path(20000),
}


def write(name: str, path) -> None:
    with open(path, "w") as fh:
        json.dump(INSTANCES[name](), fh)


if __name__ == "__main__":
    write(*sys.argv[1:])
