import json
import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from tnorder import (
    LinearPlan,
    TensorNetwork,
    ValidationError,
    build_precedence_graph,
    parse_network,
)
from tnorder.network import id_key
from tnorder.plans import parse_plan, validate_plan
from helpers import five_tensor_data, matrix_chain_data, naive_subset_size


def test_nodes_keep_file_order(five_tensor_net):
    assert five_tensor_net.nodes == ("T1", "T2", "T3", "T4", "T5")
    assert len(five_tensor_net) == 5
    assert list(five_tensor_net) == list(five_tensor_net.nodes)


def test_edges_kept_verbatim(five_tensor_net):
    assert five_tensor_net.edges == (
        ("T1", "T2", 1),
        ("T5", "T2", 2),
        ("T2", "T4", 6),
        ("T4", "T3", 5),
    )


def test_adjacency_is_symmetric(five_tensor_net):
    adjacency = five_tensor_net.adjacency
    for u, v, size in five_tensor_net.edges:
        assert adjacency[u][v] == size
        assert adjacency[v][u] == size
    assert "T3" not in adjacency["T1"]


def test_tensor_size_is_open_times_incident(matrix_net):
    # A carries an open leg of 20 next to the shared 30
    assert matrix_net.sizes["A"] == 600
    assert matrix_net.sizes["B"] == 300
    assert matrix_net.sizes["C"] == 500


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 8))
def test_size_table_matches_the_leg_oracle(seed, n, extra):
    # loopy networks with open legs, size-1 edges, dims up to 10^20 and
    # mixed int/str ids; precedence graphs root their spanning tree
    rng = random.Random(seed)
    ids = [i if rng.random() < 0.5 else f"t{i}" for i in range(n)]
    rng.shuffle(ids)

    def dim():
        return rng.choice((1, 2, rng.randint(1, 10**20)))

    nodes = {v: dim() for v in ids}
    tree = [(ids[i], ids[rng.randrange(i)], dim()) for i in range(1, n)]
    joined = {frozenset(e[:2]) for e in tree}
    edges = list(tree)
    for _ in range(extra if n > 2 else 0):
        u, v = rng.sample(ids, 2)
        if frozenset((u, v)) not in joined:
            joined.add(frozenset((u, v)))
            edges.append((u, v, dim()))
    net = TensorNetwork(nodes, edges)
    for v in ids:
        assert net.sizes[v] == naive_subset_size(nodes, edges, [v])
    tree_net = TensorNetwork(nodes, tree)
    for root in ids:
        pg = build_precedence_graph(tree_net, root)
        for v in ids:
            assert pg.F[v] == naive_subset_size(nodes, tree, [v])


def test_nodes_accept_plain_iterable():
    net = TensorNetwork(["a", "b"], [("a", "b", 7)])
    assert net.sizes["a"] == 7
    assert net.is_tree


def test_is_tree(five_tensor_net):
    assert five_tensor_net.is_tree
    cyc = TensorNetwork("abc", [("a", "b", 2), ("b", "c", 2), ("a", "c", 2)])
    assert not cyc.is_tree


def test_integer_node_ids_work():
    net = TensorNetwork({1: 1, 2: 3}, [(1, 2, 4)])
    assert net.sizes[2] == 12
    assert list(net.adjacency[1]) == [2]


def test_empty_network_rejected():
    with pytest.raises(ValidationError):
        TensorNetwork([], [])


def test_duplicate_node_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        TensorNetwork(["a", "a"], [])


def test_self_loop_rejected():
    with pytest.raises(ValidationError, match="self-loop"):
        TensorNetwork(["a", "b"], [("a", "a", 2), ("a", "b", 2)])


def test_duplicate_edge_rejected_even_reversed():
    with pytest.raises(ValidationError):
        TensorNetwork(["a", "b"], [("a", "b", 2), ("b", "a", 3)])


def test_unknown_endpoint_rejected():
    with pytest.raises(ValidationError, match="unknown"):
        TensorNetwork(["a", "b"], [("a", "c", 2)])


def test_disconnected_network_rejected():
    with pytest.raises(ValidationError, match="connected"):
        TensorNetwork(["a", "b", "c"], [("a", "b", 2)])


@pytest.mark.parametrize("size", [0, -3, 2.0, True, "4"])
def test_bad_edge_size_rejected(size):
    with pytest.raises(ValidationError):
        TensorNetwork(["a", "b"], [("a", "b", size)])


@pytest.mark.parametrize("open_mult", [0, -1, 1.5, False])
def test_bad_open_mult_rejected(open_mult):
    with pytest.raises(ValidationError):
        TensorNetwork({"a": open_mult, "b": 1}, [("a", "b", 2)])


def test_bool_node_id_rejected():
    with pytest.raises(ValidationError):
        TensorNetwork({True: 1, "b": 1}, [(True, "b", 2)])


def test_single_node_no_edges_ok():
    net = TensorNetwork({"x": 9}, [])
    assert net.sizes["x"] == 9
    assert net.is_tree


def test_id_key_sorts_ints_before_strings():
    assert sorted([("b"), 10, "a", 2], key=id_key) == [2, 10, "a", "b"]


def test_to_json_round_trip(five_tensor_net):
    text = five_tensor_net.to_json()
    assert "\n" not in text.strip()
    again = parse_network(text)
    assert again.nodes == five_tensor_net.nodes
    assert again.edges == five_tensor_net.edges
    assert again.open_mult == five_tensor_net.open_mult


def test_to_json_always_writes_open(matrix_net):
    doc = json.loads(matrix_net.to_json())
    assert all("open" in node for node in doc["nodes"])
    assert doc["nodes"][0] == {"id": "A", "open": 20}


def test_parse_network_names_bad_element():
    doc = {"nodes": [{"id": "a"}, {"id": "b"}],
           "edges": [{"u": "a", "v": "b", "size": 2}, {"u": "a"}]}
    with pytest.raises(ValidationError, match="edges\\[1\\]"):
        parse_network(json.dumps(doc))
    with pytest.raises(ValidationError, match="nodes\\[1\\]"):
        parse_network('{"nodes": [{"id": "a"}, 7], "edges": []}')
    # semantic errors name the edge by its endpoints instead
    doc["edges"] = [{"u": "a", "v": "b", "size": "big"}]
    with pytest.raises(ValidationError, match="'a'-'b'"):
        parse_network(json.dumps(doc))


def test_parse_network_rejects_nesting_past_the_recursion_limit():
    with pytest.raises(ValidationError, match="nested too deeply"):
        # past json.loads' depth limit on every release: 3.13 reads 3,000 levels
        parse_network('{"nodes": ' + "[" * 100_000 + "]" * 100_000 + ', "edges": []}')


def test_unhashable_edge_endpoint_is_an_unknown_node():
    doc = {"nodes": [{"id": "a"}, {"id": "b"}],
           "edges": [{"u": ["a"], "v": "b", "size": 2}]}
    with pytest.raises(ValidationError, match="unknown node id"):
        parse_network(json.dumps(doc))


def test_parse_network_rejects_non_object():
    with pytest.raises(ValidationError):
        parse_network("[1, 2]")
    with pytest.raises(ValidationError):
        parse_network("not json at all")


def test_parse_network_missing_keys():
    with pytest.raises(ValidationError, match="nodes"):
        parse_network('{"edges": []}')


def test_open_defaults_to_one_when_parsing():
    net = parse_network(
        '{"nodes": [{"id": "a"}, {"id": "b"}],'
        ' "edges": [{"u": "a", "v": "b", "size": 3}]}'
    )
    assert net.open_mult["a"] == 1


def test_node_file_order_does_not_change_sizes():
    nodes, edges = five_tensor_data()
    net1 = TensorNetwork(nodes, edges)
    net2 = TensorNetwork(dict(reversed(nodes.items())), list(reversed(edges)))
    for v in nodes:
        assert net1.sizes[v] == net2.sizes[v]


def test_neighbors_follow_edge_order(five_tensor_net):
    # T2's edges appear as T1-T2, T5-T2, T2-T4 in the file
    assert list(five_tensor_net.adjacency["T2"]) == ["T1", "T5", "T4"]


# Each invalid network, as (node id, open) pairs and (u, v, size) edges,
# with the exact message both TensorNetwork and parse_network raise. Where
# an input breaks two rules, the first in file order wins.
BAD_NETWORKS = {
    "duplicate node": ([("a", 1), ("b", 1), ("a", 1)], [("a", "b", 2)],
                       "duplicate node id 'a'"),
    "open below one": ([("a", 1), ("b", 0)], [("a", "b", 2)],
                       "open_mult of node 'b' must be >= 1, got 0"),
    "open not an integer": ([("a", 1.5), ("b", 1)], [("a", "b", 2)],
                            "open_mult of node 'a' must be an integer, got 1.5"),
    "unknown endpoint": ([("a", 1), ("b", 1)], [("a", "b", 2), ("b", "c", 2)],
                         "edge references unknown node id 'c'"),
    "unhashable endpoint": ([("a", 1), ("b", 1)], [(["a"], "b", 2)],
                            "edge references unknown node id ['a']"),
    "true endpoint": ([(1, 1), ("b", 1)], [(True, "b", 2)],
                      "edge references unknown node id True"),
    "self-loop": ([("a", 1), ("b", 1)], [("a", "b", 2), ("b", "b", 2)],
                  "self-loop at node 'b'"),
    "reversed duplicate edge": ([("a", 1), ("b", 1)], [("a", "b", 2), ("b", "a", 3)],
                                "duplicate edge between 'b' and 'a'"),
    "size below one": ([("a", 1), ("b", 1)], [("a", "b", 0)],
                       "size of edge 'a'-'b' must be >= 1, got 0"),
    "size not an integer": ([("a", 1), ("b", 1)], [("a", "b", "4")],
                            "size of edge 'a'-'b' must be an integer, got '4'"),
    "disconnected": ([("a", 1), ("b", 1), ("c", 1)], [("a", "b", 2)],
                     "network is disconnected: node 'c' is not reachable from node 'a'"),
    "bad size, then self-loop": ([("a", 1), ("b", 1)], [("a", "b", 0), ("a", "a", 2)],
                                 "size of edge 'a'-'b' must be >= 1, got 0"),
    "self-loop, then bad size": ([("a", 1), ("b", 1)], [("a", "a", 2), ("a", "b", 0)],
                                 "self-loop at node 'a'"),
    "bad open, then unknown endpoint": ([("a", 1), ("b", -1)], [("a", "z", 2)],
                                        "open_mult of node 'b' must be >= 1, got -1"),
    "duplicate edge, then disconnected": (
        [("a", 1), ("b", 1), ("c", 1)], [("a", "b", 2), ("a", "b", 2)],
        "duplicate edge between 'a' and 'b'"),
    # the JSON format cannot hold the short or long edges below: its edge
    # records have named keys
    "edge of two items": ([("a", 1), ("b", 1)], [("a", "b")],
                          "edge must be a (u, v, size) triple, got ('a', 'b')"),
    "edge of four items": ([("a", 1), ("b", 1)], [("a", "b", 2, 3)],
                           "edge must be a (u, v, size) triple, got ('a', 'b', 2, 3)"),
    "unknown endpoint, then short edge": (
        [("a", 1), ("b", 1)], [("a", "z", 2), ("a",)],
        "edge references unknown node id 'z'"),
}


@pytest.mark.parametrize("case", BAD_NETWORKS)
def test_invalid_network_raises_its_exact_message(case):
    node_pairs, edges, message = BAD_NETWORKS[case]
    if all(mult == 1 for _v, mult in node_pairs):
        nodes = [v for v, _mult in node_pairs]  # keeps a repeated id
    else:
        nodes = dict(node_pairs)
    builds = [lambda: TensorNetwork(nodes, edges)]
    if all(len(edge) == 3 for edge in edges):
        doc = {
            "nodes": [{"id": v, "open": mult} for v, mult in node_pairs],
            "edges": [{"u": u, "v": v, "size": size} for u, v, size in edges],
        }
        builds.append(lambda: parse_network(json.dumps(doc)))
    for build in builds:
        with pytest.raises(ValidationError) as exc:
            build()
        assert str(exc.value) == message


def test_parse_network_cuts_a_huge_malformed_record():
    doc = json.dumps({"nodes": [list(range(200_000))], "edges": []})
    with pytest.raises(ValidationError) as exc:
        parse_network(doc)
    message = str(exc.value)
    assert message.startswith("nodes[0] is malformed: [0, 1, 2,")
    assert len(message) < 300


@pytest.mark.parametrize("doc, start", [
    ({"nodes": [{"id": list(range(200_000))}], "edges": []},
     "node id must be an integer or string, got [0, 1, 2,"),
    ({"nodes": [{"id": "a", "open": list(range(200_000))}], "edges": []},
     "open_mult of node 'a' must be an integer, got [0, 1, 2,"),
    ({"nodes": [{"id": "a"}, {"id": "b"}],
      "edges": [{"u": "a", "v": list(range(200_000)), "size": 2}]},
     "edge references unknown node id [0, 1, 2,"),
])
def test_parse_network_cuts_a_huge_echoed_value(doc, start):
    with pytest.raises(ValidationError) as exc:
        parse_network(json.dumps(doc))
    message = str(exc.value)
    assert message.startswith(start)
    assert len(message) < 300


@pytest.fixture
def default_digit_limit():
    # the in-process main() tests lift the limit for the whole process
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("this Python has no int <-> str digit limit")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("parse, text", [
    (parse_network, '{"nodes": [{"id": 1%s}], "edges": []}' % ("0" * 5000)),
    (parse_plan, '{"type": "linear", "order": [1%s]}' % ("0" * 5000)),
], ids=["network", "plan"])
def test_parsers_refuse_ints_past_the_digit_limit(default_digit_limit, parse, text):
    # a library caller gets the documented ValidationError, not ValueError
    with pytest.raises(ValidationError, match="not valid JSON.*4300"):
        parse(text)


BIG_ID = "x" * 200_000
CUT_ID = repr(BIG_ID)[:200]
HUGE = 10**5000  # past the 4,300 digits Python writes as text by default
PAIR = {BIG_ID: 1, "b": 1}


@pytest.mark.parametrize("build, snippet", [
    (lambda: TensorNetwork([BIG_ID, BIG_ID], []), f"duplicate node id {CUT_ID}"),
    (lambda: parse_network(json.dumps({"nodes": [{"id": BIG_ID}, {"id": BIG_ID}],
                                       "edges": []})),
     f"duplicate node id {CUT_ID}"),
    (lambda: TensorNetwork([HUGE, HUGE], []),
     "duplicate node id <integer of 5001 digits>"),
    (lambda: TensorNetwork({BIG_ID: 0}, []), f"open_mult of node {CUT_ID} must be >= 1"),
    (lambda: TensorNetwork({"a": -HUGE}, []),
     "open_mult of node 'a' must be >= 1, got <negative integer of 5001 digits>"),
    (lambda: TensorNetwork({"a": 1}, [("a", HUGE, 2)]),
     "edge references unknown node id <integer of 5001 digits>"),
    (lambda: TensorNetwork(PAIR, [(BIG_ID, BIG_ID, 2)]), f"self-loop at node {CUT_ID}"),
    (lambda: TensorNetwork(PAIR, [(BIG_ID, "b", 2), ("b", BIG_ID, 2)]),
     f"duplicate edge between 'b' and {CUT_ID}"),
    (lambda: TensorNetwork(PAIR, [(BIG_ID, "b", 0)]), f"size of edge {CUT_ID}-'b'"),
    (lambda: TensorNetwork({"a": 1, "b": 1}, [("a", "b", -HUGE)]),
     "size of edge 'a'-'b' must be >= 1, got <negative integer of 5001 digits>"),
    (lambda: TensorNetwork(PAIR, []), f"node 'b' is not reachable from node {CUT_ID}"),
    (lambda: TensorNetwork({"a": 1, HUGE: 1}, []),
     "node <integer of 5001 digits> is not reachable"),
    (lambda: build_precedence_graph(TensorNetwork({"a": 1}, []), BIG_ID),
     f"unknown root node id {CUT_ID}"),
    (lambda: validate_plan(TensorNetwork({"a": 1}, []), LinearPlan(("a", HUGE))),
     "plan references unknown node id <integer of 5001 digits>"),
    (lambda: validate_plan(TensorNetwork(PAIR, [(BIG_ID, "b", 2)]),
                           LinearPlan((BIG_ID, BIG_ID))),
     f"plan lists node {CUT_ID} more than once"),
    (lambda: validate_plan(TensorNetwork(PAIR, [(BIG_ID, "b", 2)]), LinearPlan(("b",))),
     f"plan is missing node {CUT_ID}"),
], ids=["duplicate-id", "parse-duplicate-id", "duplicate-int-id", "open-mult",
        "huge-open-mult", "unknown-int-endpoint", "self-loop", "duplicate-edge",
        "edge-size", "huge-edge-size", "disconnected", "disconnected-int-id",
        "precedence-root", "plan-unknown-id", "plan-repeated-id",
        "plan-missing-id"])
def test_huge_ids_and_integers_are_echoed_short(build, snippet):
    # ids cut to 200 characters, integers past 200 digits by digit count
    with pytest.raises(ValidationError) as exc:
        build()
    message = str(exc.value)
    assert snippet in message
    assert len(message) < 1024


def test_parse_network_checks_node_records_before_edge_records():
    doc = {"nodes": [{"id": "a"}, {"id": "b", "open": 0}, {"id": 2.5}],
           "edges": [{"u": "a"}]}
    with pytest.raises(ValidationError, match="^node id must be an integer or string, got 2.5$"):
        parse_network(json.dumps(doc))
    doc["nodes"][2] = {"id": "c"}
    with pytest.raises(ValidationError, match=r"^edges\[0\] is malformed: \{'u': 'a'\}$"):
        parse_network(json.dumps(doc))


def _loopy(n, seed):
    """A random tree on ids 0..n-1 plus n // 8 extra edges, each drawn
    with random orientation, sizes and open legs."""
    rng = random.Random(seed)
    opens = {v: rng.randint(1, 4) for v in range(n)}
    pairs = {frozenset((v, rng.randrange(v))) for v in range(1, n)}
    while len(pairs) < n - 1 + n // 8:
        pairs.add(frozenset(rng.sample(range(n), 2)))
    edges = [(*rng.sample(sorted(pair), 2), rng.randint(2, 9)) for pair in pairs]
    rng.shuffle(edges)
    return opens, edges


def _doc(opens, edges):
    return json.dumps({
        "nodes": [{"id": v, "open": m} for v, m in opens.items()],
        "edges": [{"u": u, "v": v, "size": s} for u, v, s in edges],
    })


def test_large_network_matches_an_independent_build():
    opens, edges = _loopy(4096, seed=3)
    adjacency = {v: [] for v in opens}
    for u, v, size in edges:
        adjacency[u].append((v, size))
        adjacency[v].append((u, size))
    for net in (TensorNetwork(opens, edges), parse_network(_doc(opens, edges))):
        assert net.nodes == tuple(opens)
        assert net.edges == tuple(edges)
        assert net.open_mult == opens
        assert not net.is_tree
        for v in opens:
            assert list(net.adjacency[v].items()) == adjacency[v]


@pytest.mark.parametrize("fault", ["last node", "last edge"])
def test_large_network_names_a_fault_at_its_end(fault):
    opens, edges = _loopy(4096, seed=4)
    if fault == "last node":
        opens[4095] = 0
        message = "open_mult of node 4095 must be >= 1, got 0"
    else:
        u, v, _size = edges[-1]
        edges[-1] = (u, v, -2)
        message = f"size of edge {u}-{v} must be >= 1, got -2"
    for build in (
        lambda: TensorNetwork(opens, edges),
        lambda: parse_network(_doc(opens, edges)),
    ):
        with pytest.raises(ValidationError) as exc:
            build()
        assert str(exc.value) == message
