import hashlib
import random

import pytest

from tnorder import ValidationError, generate_random_tree_network
from tnorder.generate import _decode_label_sequence
from helpers import prufer_tree


def test_deterministic_for_equal_arguments():
    a = generate_random_tree_network(12, seed=7)
    b = generate_random_tree_network(12, seed=7)
    assert a.nodes == b.nodes
    assert a.edges == b.edges
    assert a.to_json() == b.to_json()


def test_seed_changes_the_network():
    nets = {generate_random_tree_network(10, seed=s).edges for s in range(10)}
    assert len(nets) > 1


def test_shape_and_naming():
    net = generate_random_tree_network(9, seed=3)
    assert net.nodes == tuple(f"T{i}" for i in range(1, 10))
    assert net.is_tree
    assert all(m == 1 for m in net.open_mult.values())
    assert all(2 <= s <= 10 for _, _, s in net.edges)


def test_two_nodes():
    net = generate_random_tree_network(2, seed=0)
    assert len(net.edges) == 1
    assert net.edges[0][:2] == ("T1", "T2")


def test_dimension_bounds_respected():
    net = generate_random_tree_network(20, seed=1, dim_lo=5, dim_hi=5)
    assert all(s == 5 for _, _, s in net.edges)
    net = generate_random_tree_network(20, seed=1, dim_lo=1, dim_hi=2)
    assert all(s in (1, 2) for _, _, s in net.edges)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n=1, seed=0),
        dict(n=0, seed=0),
        dict(n=2.0, seed=0),
        dict(n=5, seed=0, dim_lo=0),
        dict(n=5, seed=0, dim_lo=4, dim_hi=3),
        dict(n=5, seed=0, dim_lo=2.5, dim_hi=3),
    ],
)
def test_bad_arguments_rejected(kwargs):
    with pytest.raises(ValidationError):
        generate_random_tree_network(**kwargs)


def test_many_seeds_stay_valid():
    # the constructor revalidates everything, so surviving it is the test
    for seed in range(100):
        net = generate_random_tree_network(64, seed=seed)
        assert net.is_tree
        assert len(net) == 64


def test_all_three_node_trees_reachable():
    # a labeled tree on 3 nodes is determined by its middle node
    middles = set()
    for seed in range(60):
        net = generate_random_tree_network(3, seed=seed)
        degree = {v: 0 for v in net.nodes}
        for u, v, _s in net.edges:
            degree[u] += 1
            degree[v] += 1
        (mid,) = [v for v, d in degree.items() if d == 2]
        middles.add(mid)
    assert middles == {"T1", "T2", "T3"}


def test_edge_count_always_n_minus_one():
    for n in (2, 3, 7, 33):
        assert len(generate_random_tree_network(n, seed=5).edges) == n - 1


# sha256 of to_json() per (n, seed[, dim_lo, dim_hi]): the generator's
# bytes are a pure function of its arguments and must not drift
GENERATOR_DIGESTS = {
    (2, 0): "f3c1cffbe70a1b622ec5f1a3017128b09c9d0d288040f35b7b0f7ff8c4c65a57",
    (3, 1): "ee0790e6566204435be11c8e7fd55f0903b884f3792156bb65c3afcfa172682f",
    (64, 7): "bbf4020014999a3c23f31b0b9667a6fcd03fe27ff7d52f7b5e2e80ab9726a957",
    (1000, 3): "a4322feacf2f5f528ce8fc1faa5990d33a6d09f9842add556982e6cbe9c39a0e",
    (4096, 5, 1, 2): "7a2bdc5b35e608edb8321766f85cbc6c3d8240a5c09a3fb706785616f9b48a00",
}


@pytest.mark.parametrize("args", sorted(GENERATOR_DIGESTS))
def test_generator_bytes_are_pinned(args):
    text = generate_random_tree_network(*args).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == GENERATOR_DIGESTS[args]


def test_decoder_matches_the_reference_decode():
    # the same edges, in the same order and orientation, as the quadratic
    # textbook decode in tests/helpers.py
    rng = random.Random(20)
    for _ in range(2000):
        n = rng.randint(2, 60)
        seq = [rng.randrange(n) for _ in range(n - 2)]
        assert _decode_label_sequence(seq, n) == prufer_tree(seq, n)
