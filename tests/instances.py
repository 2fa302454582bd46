"""Network files that tier-1 pins and CI times, built with the standard
library only, so that CI can run this file without the package:

    python tests/instances.py NAME FILE

writes the network ``NAME`` (a key of ``INSTANCES``) to ``FILE`` as JSON.
``CLI_PINS`` in ``test_exact_at_scale.py`` builds its 256-node star,
MPS path and path of 10^6 bonds, and its 16-node loopy network of bonds
up to 10^6, through ``write``, so CI's wall bounds time the very files
tier-1 pins. CI also bounds the linear DP's memory on ``star-20`` and
its refusal time on ``ladder-30``; ``helpers.ladder_data`` builds its
ladders through ``ladder``.
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


def bonds_path(n: int) -> dict:
    # a path of uniform 10^6 bonds and no open legs: every interval off
    # its ends has size 10^12, and most intervals' best costs lie far past
    # the interval DP's left-to-right bound
    return {
        "nodes": [{"id": f"T{i + 1}"} for i in range(n)],
        "edges": [{"u": f"T{i + 1}", "v": f"T{i + 2}", "size": 10**6}
                  for i in range(n - 1)],
    }


def huge_loopy(n: int) -> dict:
    # a seeded random tree plus 4 chords, open legs 1-4 and bonds up to
    # 10^6: the general subset DP at its bound on big integers. At n = 16
    # the optimum takes 97 bits and the products its square test forms up
    # to 259
    rng = random.Random(f"huge/{n}")
    ids = [f"T{i + 1}" for i in range(n)]
    pairs = [(ids[i], ids[rng.randrange(i)]) for i in range(1, n)]
    seen = {frozenset(p) for p in pairs}
    while len(pairs) < n + 3:  # n - 1 tree edges and 4 chords
        u, v = rng.sample(ids, 2)
        if frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            pairs.append((u, v))
    opens = [rng.randint(1, 4) for _ in ids]
    return {
        "nodes": [{"id": v, "open": o} for v, o in zip(ids, opens)],
        "edges": [{"u": u, "v": v, "size": rng.randint(2, 10**6)} for u, v in pairs],
    }


def ladder(n: int) -> dict:
    # layers {L2l, L2l+1}: each pair joined, and each node joined to both
    # nodes of the next layer; every edge has size 2. At n = 30: 32,285,016
    # connected subsets but 147,436 on a spanning tree, so the linear DP
    # refuses it only in its layer loop
    ids = [f"L{i}" for i in range(n)]
    edges = []
    for a in range(0, n, 2):
        edges.append((a, a + 1))
        if a + 2 < n:
            edges += [(x, y) for x in (a, a + 1) for y in (a + 2, a + 3)]
    return {
        "nodes": [{"id": v} for v in ids],
        "edges": [{"u": ids[x], "v": ids[y], "size": 2} for x, y in edges],
    }


INSTANCES = {
    "star-20": lambda: star(20),
    "star-256": lambda: star(256),
    "mps-256": lambda: mps_path(256),
    "bonds-256": lambda: bonds_path(256),
    "huge-loopy-16": lambda: huge_loopy(16),
    "mps-20000": lambda: mps_path(20000),
    "ladder-30": lambda: ladder(30),
}


def write(name: str, path) -> None:
    with open(path, "w") as fh:
        json.dump(INSTANCES[name](), fh)


if __name__ == "__main__":
    write(*sys.argv[1:])
